"""Branched SSL steps: each view's pass on a thread of its own, with the bits
of the one-thread step.

A step at a budget of 2 runs the views on two threads; at a budget of 1 it
runs the same branches inline. Both must equal a step that records every
view on the one tape of the calling thread, as a step did before branches:
the loss, every gradient, the parameters after Adam (and BYOL's EMA), the
batch-norm running statistics and the state of the generator, which the
augmentations, the mixup partners and the FT-transformer's dropout share.
"""

import sys
import threading

import numpy as np
import pytest

from nidkit import encoders, nn, ssl_models, threads, tensor as T
from nidkit.augment import AugmentationSpec, subset_columns
from nidkit.config import encoder_config_for
from nidkit.tensor import Tensor

WIDTH, ROWS = 40, 64
threaded = pytest.mark.skipif(threads.blas_threads() is None,
                              reason="numpy's BLAS has no thread control: the budget is 1")


@pytest.fixture(autouse=True)
def restore_plan():
    planned, blas = threads._planned, threads.blas_threads()
    T.reset_tape()
    yield
    T.reset_tape()
    threads._planned = planned
    if blas is not None:
        threads.set_blas_threads(blas)


def _features(seed=3):
    x = np.random.default_rng(seed).random((ROWS, WIDTH))
    x[:, -4:] = 0.0
    x[np.arange(ROWS), WIDTH - 4 + np.arange(ROWS) % 4] = 1.0
    return x


def _train(model_kind, encoder_kind, aug):
    """Two pretraining steps from seed 5; everything a step leaves behind."""
    rng = np.random.default_rng(5)
    spec = AugmentationSpec(**aug)
    width, cols = WIDTH, None
    numeric, groups = list(range(WIDTH - 4)), {"p": list(range(WIDTH - 4, WIDTH))}
    if spec.kind == "subsets":
        cols = subset_columns(WIDTH, spec.k, 0.0, rng.permutation(WIDTH))
        width, numeric, groups = len(cols[0]), [], {}
    section = {"mlp": {"hidden_dim": 32}, "cnn": {},
               "ft_transformer": {"token_dim": 8, "heads": 2, "layers": 2}}[encoder_kind]
    cfg = encoder_config_for({"kind": encoder_kind, **section}, width, numeric, groups)
    model = ssl_models.build_model(model_kind, lambda: encoders.build_encoder(cfg, rng),
                                   encoders.representation_dim(cfg), rng, dim=32)
    history = ssl_models.pretrain(model, _features(), spec, nn.Adam(model, lr=1e-3),
                                  1, ROWS // 2, rng, columns=cols)
    return {"loss": history,
            "grads": {n: p.grad for n, p in model.named_parameters()},
            "state": model.state_dict(),
            "rng": rng.bit_generator.state}


def _assert_same(got, ref):
    assert got["loss"] == ref["loss"]
    assert got["rng"] == ref["rng"]
    for part in ("grads", "state"):
        assert got[part].keys() == ref[part].keys()
        for name, arr in ref[part].items():
            np.testing.assert_array_equal(got[part][name], arr, err_msg=f"{part} {name}")


def _one_tape(monkeypatch):
    """Every view recorded on the calling thread's own tape, in view order."""
    monkeypatch.setattr(T, "branches", lambda fns: [fn() for fn in fns])


CASES = ([(m, e, {"kind": "gaussian_noise"}) for m in ssl_models.MODEL_KINDS
          for e in ("mlp", "cnn", "ft_transformer")]
         + [(m, "mlp", {"kind": "mixup"}) for m in ssl_models.MODEL_KINDS]
         + [(m, "mlp", {"kind": "subsets", "k": 3}) for m in ssl_models.MODEL_KINDS]
         + [("byol", "ft_transformer", {"kind": "mixup"}),
            ("vicreg", "ft_transformer", {"kind": "subsets", "k": 3})])


@pytest.mark.parametrize("model_kind, encoder_kind, aug", CASES,
                         ids=[f"{m}-{e}-{a['kind']}" for m, e, a in CASES])
def test_branched_step_is_bit_equal_to_the_one_tape_step(model_kind, encoder_kind, aug,
                                                         monkeypatch):
    results = {}
    for budget in (2, 1):
        threads._planned = budget
        results[budget] = _train(model_kind, encoder_kind, aug)
    with monkeypatch.context() as patch:
        _one_tape(patch)
        ref = _train(model_kind, encoder_kind, aug)
    _assert_same(results[2], results[1])
    _assert_same(results[2], ref)


def test_branches_under_frequent_thread_switches(monkeypatch):
    # more threads than this machine has cores, switching every 10 us
    aug = {"kind": "subsets", "k": 5}
    with monkeypatch.context() as patch:
        _one_tape(patch)
        ref = _train("barlow_twins", "mlp", aug)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads._planned = 2 * threads.usable_cpus() + 1
        got = [_train("barlow_twins", "mlp", aug) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for result in got:
        _assert_same(result, ref)


@threaded
def test_views_run_on_their_own_threads_under_the_blas_hold(monkeypatch):
    threads._planned = 2
    seen, record, branches, steps = [], T._record, T.branches, []

    def spy(output, inputs, backward_fn):
        seen.append(threads.blas_threads())
        record(output, inputs, backward_fn)

    def together(fns):
        # each view waits until the other has started, so a step whose views
        # do not run at once on two threads times out. Idents are counted per
        # step: each step makes a new helper thread, whose ident may be new
        both, idents = threading.Barrier(len(fns), timeout=10), []

        def run(fn):
            idents.append(threading.get_ident())
            both.wait()
            return fn()

        out = branches([lambda fn=fn: run(fn) for fn in fns])
        steps.append(len(set(idents)))
        return out

    monkeypatch.setattr(T, "_record", spy)
    monkeypatch.setattr(T, "branches", together)
    before = threads.blas_threads()
    _train("vicreg", "mlp", {"kind": "gaussian_noise"})
    assert steps == [2, 2]
    assert set(seen) == {1}          # budget 2 // 2 views
    assert threads.blas_threads() == before


@threaded
@pytest.mark.parametrize("budget, aug, blas", [(4, {"kind": "zero_out"}, 2),
                                               (4, {"kind": "subsets", "k": 3}, 1),
                                               (1, {"kind": "zero_out"}, 1)])
def test_blas_hold_splits_the_budget_among_the_views(budget, aug, blas, monkeypatch):
    threads._planned = budget
    held, step = [], ssl_models.train_step
    monkeypatch.setattr(ssl_models, "train_step",
                        lambda *a, **k: held.append(threads.blas_threads()) or step(*a, **k))
    spec = AugmentationSpec(**aug)
    cols = subset_columns(WIDTH, spec.k, 0.0, np.arange(WIDTH)) if spec.kind == "subsets" else None
    width = len(cols[0]) if cols else WIDTH
    model = ssl_models.build_model(
        "vicreg", lambda: encoders.MLPEncoder(width, np.random.default_rng(0), hidden_dim=16),
        16, np.random.default_rng(1), dim=16)
    ssl_models.pretrain(model, _features(), spec, nn.Adam(model), 1, 32,
                        np.random.default_rng(2), columns=cols)
    assert held == [blas, blas]


def test_tape_length_counts_the_branch_records():
    # nidbench's tape_ops_per_step reads tape_length() before each backward
    threads._planned = 2
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    x = Tensor(np.ones((4, 3)))

    def ops(run):
        T.reset_tape()
        a, b = run([lambda: T.relu(T.matmul(x, w)), lambda: T.matmul(x, w)])
        T.add(a, b)
        return T.tape_length()

    assert ops(T.branches) == ops(lambda fns: [fn() for fn in fns]) == 4
    with T.no_grad():
        T.branches([lambda: T.relu(T.matmul(x, w))])
    assert T.tape_length() == 4


def test_branch_gradients_reach_a_tensor_the_caller_recorded():
    # a branch that reads a non-leaf of the caller's tape passes its
    # gradient back in the order one tape adds it
    threads._planned = 2
    x = Tensor(np.random.default_rng(0).normal(size=(5, 4)), requires_grad=True)
    ws = [Tensor(np.random.default_rng(i).normal(size=(4, 4)), requires_grad=True)
          for i in (1, 2, 3)]
    grads = []
    for branched in (True, False):
        x.zero_grad()
        for w in ws:
            w.zero_grad()
        T.reset_tape()
        h = T.relu(x)
        fns = [lambda w=w: T.relu(T.matmul(h, w)) for w in ws]
        outs = T.branches(fns) if branched else [fn() for fn in fns]
        T.backward(T.tsum(T.mul(T.add(T.add(outs[0], outs[1]), outs[2]), outs[1])))
        grads.append([x.grad] + [w.grad for w in ws])
    for got, ref in zip(*grads):
        np.testing.assert_array_equal(got, ref)


def test_deferred_calls_run_after_the_join_in_branch_order():
    threads._planned = 2
    order = []
    T.defer(lambda: order.append("now"))
    T.branches([lambda i=i: T.defer(lambda: order.append(i)) for i in range(3)])
    assert order == ["now", 0, 1, 2]


def test_a_branch_error_reaches_the_caller_and_leaves_its_tape():
    threads._planned = 2
    T.reset_tape()

    def fail():
        raise ValueError("branch failed")

    with pytest.raises(ValueError, match="branch failed"):
        T.branches([lambda: None, fail])
    assert T.tape_length() == 0 and T.grad_enabled()


def _wmse_step(z_values, z2_values):
    """One W-MSE forward and backward over float32 embeddings: the loss and
    both gradients."""
    z, z2 = (Tensor(v.astype(np.float32), requires_grad=True) for v in (z_values, z2_values))
    T.reset_tape()
    loss, _ = ssl_models.wmse_loss(z, z2)
    T.backward(loss)
    T.reset_tape()
    return loss.values, z.grad, z2.grad


def _embeddings(seed=11, rows=128, width=64):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, width)), rng.normal(size=(rows, width))


def test_wmse_slices_as_branches_give_the_bits_of_one_tape(monkeypatch):
    z, z2 = _embeddings()
    results = {}
    for budget in (2, 1):
        threads._planned = budget
        results[budget] = _wmse_step(z, z2)
    with monkeypatch.context() as patch:
        _one_tape(patch)
        ref = _wmse_step(z, z2)
    for got in (results[2], results[1]):
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def test_wmse_branches_under_frequent_thread_switches(monkeypatch):
    # more threads than this machine has cores, switching every 10 us
    z, z2 = _embeddings(seed=12)
    with monkeypatch.context() as patch:
        _one_tape(patch)
        ref = _wmse_step(z, z2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads._planned = 2 * threads.usable_cpus() + 1
        got = [_wmse_step(z, z2) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for result in got:
        for a, b in zip(result, ref):
            np.testing.assert_array_equal(a, b)


@threaded
def test_wmse_branches_leave_the_blas_count_to_the_calling_thread(monkeypatch):
    # outside pretrain no hold covers the loss: a branch's Cholesky that set
    # the count itself would race the other branch's and could leave it at 1
    threads._planned = 2
    threads.set_blas_threads(2)
    setters, real_set = [], threads.set_blas_threads
    monkeypatch.setattr(threads, "set_blas_threads",
                        lambda n: setters.append(threading.get_ident()) or real_set(n))
    z, z2 = _embeddings()
    for _ in range(20):
        _wmse_step(z, z2)
        assert threads.blas_threads() == 2
    assert set(setters) == {threading.get_ident()}


def test_dropout_streams_are_drawn_only_for_an_active_dropout():
    # one generator per view, seeded from the dropout layers' generator in
    # view order; a model without an active dropout draws nothing
    def model(kind, rng):
        section = ({"hidden_dim": 16} if kind == "mlp"
                   else {"token_dim": 8, "heads": 2, "layers": 1, "dropout": 0.1})
        cfg = encoder_config_for({"kind": kind, **section}, WIDTH)
        return ssl_models.build_model("vicreg", lambda: encoders.build_encoder(cfg, rng),
                                      encoders.representation_dim(cfg), rng, dim=16)

    rng = np.random.default_rng(4)
    mlp = model("mlp", rng)
    state = rng.bit_generator.state
    assert mlp._streams(2) == [None, None]
    assert rng.bit_generator.state == state
    ft = model("ft_transformer", rng)
    state = rng.bit_generator.state
    assert ft.eval()._streams(2) == [None, None]
    assert rng.bit_generator.state == state
    streams = ft.train()._streams(3)
    seeds = np.random.default_rng(0)
    seeds.bit_generator.state = state
    for stream, seed in zip(streams, seeds.integers(1 << 63, size=3)):
        assert stream.bit_generator.state == np.random.default_rng(seed).bit_generator.state
