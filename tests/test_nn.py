"""Layer semantics, gradient checks, ADAM behavior, checkpoint round-trips."""

import numpy as np
import pytest

from nidkit import nn, tensor as T
from nidkit.tensor import Tensor
from oracles import as_dtype, check_module_grad


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def rng_(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Linear

def test_linear_identity_and_bias():
    lin = nn.Linear(3, 3, rng_())
    lin.weight.values = np.eye(3)
    lin.bias.values = np.zeros(3)
    x = rng_(1).normal(size=(4, 3))
    np.testing.assert_allclose(lin(Tensor(x)).values, x)
    lin.bias.values = np.array([1.0, -2.0, 0.5])
    out = lin(Tensor(np.zeros((2, 3))))
    np.testing.assert_allclose(out.values, np.tile(lin.bias.values, (2, 1)))


def test_linear_shape_error():
    with pytest.raises(T.ShapeError):
        nn.Linear(3, 2, rng_())(Tensor(np.ones((4, 5))))


def test_linear_grad():
    lin = as_dtype(nn.Linear(4, 3, rng_(2)))
    check_module_grad(lin, [rng_(3).normal(size=(5, 4))],
                      lambda m, ts: m(ts[0]), rtol=1e-6, label="linear")


# ---------------------------------------------------------------------------
# BatchNorm

def test_batchnorm_train_statistics():
    bn = nn.BatchNorm1d(6)
    x = rng_(4).normal(loc=3.0, scale=2.5, size=(32, 6))
    out = bn(Tensor(x)).values  # gamma=1, beta=0 -> pre-affine output
    assert np.abs(out.mean(axis=0)).max() < 1e-6
    assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4


def test_batchnorm_constant_column():
    bn = nn.BatchNorm1d(2)
    x = np.column_stack([np.full(8, 5.0), rng_(5).normal(size=8)])
    out = bn(Tensor(x)).values
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-12)


def test_batchnorm_batch_size_guard():
    bn = nn.BatchNorm1d(3)
    with pytest.raises(nn.BatchSizeError):
        bn(Tensor(np.ones((1, 3))))
    bn.eval()
    bn(Tensor(np.ones((1, 3))))  # eval mode accepts singletons


def test_batchnorm_eval_uses_running_stats():
    bn = as_dtype(nn.BatchNorm1d(2))
    x = rng_(6).normal(size=(16, 2))
    bn(Tensor(x))
    # hand-computed: running = 0.9 * init + 0.1 * batch
    exp_mean = 0.1 * x.mean(axis=0)
    exp_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
    np.testing.assert_allclose(bn.running_mean.values, exp_mean, rtol=1e-12)
    np.testing.assert_allclose(bn.running_var.values, exp_var, rtol=1e-12)

    bn.eval()
    held = rng_(7).normal(size=(4, 2))
    expected = (held - exp_mean) / np.sqrt(exp_var + nn.NORM_EPS)
    np.testing.assert_allclose(bn(Tensor(held)).values, expected, rtol=1e-12)


def test_batchnorm_running_stats_frozen_in_eval():
    bn = nn.BatchNorm1d(3)
    bn.eval()
    before = bn.running_mean.values.copy()
    bn(Tensor(rng_(8).normal(size=(10, 3))))
    np.testing.assert_array_equal(bn.running_mean.values, before)


def test_batchnorm_grad():
    bn = as_dtype(nn.BatchNorm1d(3))
    bn.gamma.values = rng_(9).normal(size=3)
    bn.beta.values = rng_(10).normal(size=3)
    check_module_grad(bn, [rng_(11).normal(size=(8, 3))],
                      lambda m, ts: m(ts[0]), rtol=1e-4, label="batchnorm")


# ---------------------------------------------------------------------------
# LayerNorm / Dropout

def test_layernorm_rows_standardized():
    ln = nn.LayerNorm(5)
    x = rng_(12).normal(loc=-2.0, scale=3.0, size=(7, 5))
    out = ln(Tensor(x)).values
    assert np.abs(out.mean(axis=-1)).max() < 1e-10
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def test_layernorm_grad():
    ln = as_dtype(nn.LayerNorm(4))
    ln.gamma.values = rng_(13).normal(size=4)
    check_module_grad(ln, [rng_(14).normal(size=(3, 6, 4))],
                      lambda m, ts: m(ts[0]), rtol=1e-4, label="layernorm")


def test_dropout_eval_identity_and_train_scaling():
    drop = nn.Dropout(0.4, rng_(15))
    x = np.ones((2000, 10))
    drop.eval()
    np.testing.assert_array_equal(drop(Tensor(x)).values, x)
    drop.train()
    out = drop(Tensor(x)).values
    kept = out > 0
    assert abs(kept.mean() - 0.6) < 0.02
    np.testing.assert_allclose(out[kept], 1.0 / 0.6)


def test_dropout_p_zero_is_identity_in_train():
    drop = nn.Dropout(0.0, rng_(16))
    x = rng_(17).normal(size=(5, 5))
    np.testing.assert_array_equal(drop(Tensor(x)).values, x)


# ---------------------------------------------------------------------------
# Conv / pooling

def test_conv_output_shape_196():
    conv = nn.Conv2d1xW(1, 32, 2, rng_(18))
    out = conv(Tensor(np.zeros((1, 196, 1))))
    assert out.shape == (1, 195, 32)


def test_conv_identity_kernel():
    conv = nn.Conv2d1xW(1, 1, 1, rng_(19))
    conv.weight.values = np.array([[1.0]])
    conv.bias.values = np.zeros(1)
    x = rng_(20).normal(size=(2, 9, 1))
    np.testing.assert_allclose(conv(Tensor(x)).values, x)


def test_conv_width_guard():
    conv = nn.Conv2d1xW(1, 4, 5, rng_(21))
    with pytest.raises(T.ShapeError, match="width 4 < kernel width 5"):
        conv(Tensor(np.zeros((1, 4, 1))))


def test_conv_grad():
    conv = as_dtype(nn.Conv2d1xW(1, 3, 2, rng_(22)))
    check_module_grad(conv, [rng_(23).normal(size=(1, 8, 1))],
                      lambda m, ts: m(ts[0]), rtol=1e-5, label="conv")
    multi = as_dtype(nn.Conv2d1xW(2, 3, 3, rng_(24)))
    check_module_grad(multi, [rng_(25).normal(size=(2, 7, 2))],
                      lambda m, ts: m(ts[0]), rtol=1e-5, label="conv-multi")


def test_maxpool_shapes_from_width_table():
    assert T.maxpool1xk(Tensor(np.zeros((1, 193, 128))), 3).shape == (1, 64, 128)
    assert T.maxpool1xk(Tensor(np.zeros((1, 30, 512))), 4).shape == (1, 7, 512)


def test_maxpool_constant_and_values():
    const = T.maxpool1xk(Tensor(np.full((1, 6, 1), 3.5)), 2)
    np.testing.assert_array_equal(const.values, np.full((1, 3, 1), 3.5))
    x = np.array([[1.0, 5.0, 2.0, 2.0, -1.0, 0.0, 9.0]])[..., None]  # remainder dropped
    out = T.maxpool1xk(Tensor(x), 2)
    np.testing.assert_array_equal(out.values, [[[5.0], [2.0], [0.0]]])


def test_maxpool_width_guard():
    with pytest.raises(T.ShapeError, match="width 3 < window 4"):
        T.maxpool1xk(Tensor(np.zeros((1, 3, 1))), 4)


def test_maxpool_grad():
    # well-separated values keep argmax stable under the FD nudge
    x = rng_(26).permutation(np.arange(24.0)).reshape(1, 12, 2)
    check_module_grad(nn.Module(), [x], lambda m, ts: T.maxpool1xk(ts[0], 3),
                      rtol=1e-6, label="maxpool")


# ---------------------------------------------------------------------------
# Attention

def _heads(mha, proj, x):
    """(b, heads, t, head_dim) split of one projection of ``x``."""
    b, t, _ = x.shape
    with T.no_grad():
        h = proj(Tensor(x)).values
    return h.reshape(b, t, mha.heads, mha.head_dim).transpose(0, 2, 1, 3)


def _attention_weights(mha, x):
    """softmax(q k^T / sqrt(head_dim)) per head, recomputed from wq and wk."""
    s = _heads(mha, mha.wq, x) @ _heads(mha, mha.wk, x).transpose(0, 1, 3, 2)
    e = np.exp(s / np.sqrt(mha.head_dim))
    return e / e.sum(axis=-1, keepdims=True)


def test_attention_single_token():
    mha = nn.MultiHeadAttention(8, 2, rng_(27))
    x = rng_(28).normal(size=(2, 1, 8))
    np.testing.assert_allclose(_attention_weights(mha, x), 1.0)
    expected = mha.wo(mha.wv(Tensor(x))).values
    np.testing.assert_allclose(mha(Tensor(x)).values, expected, rtol=1e-12)


def test_attention_rows_sum_to_one():
    mha = nn.MultiHeadAttention(8, 4, rng_(29))
    x = rng_(30).normal(size=(3, 5, 8))
    w = _attention_weights(mha, x)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
    # the module's output is those weights applied to the values
    ctx = (w @ _heads(mha, mha.wv, x)).transpose(0, 2, 1, 3).reshape(3, 5, 8)
    with T.no_grad():
        expected = mha.wo(Tensor(ctx)).values
    np.testing.assert_allclose(mha(Tensor(x)).values, expected, rtol=1e-10, atol=1e-12)


def test_attention_head_divisibility():
    with pytest.raises(nn.ConfigError):
        nn.MultiHeadAttention(10, 3, rng_(31))


def test_attention_grad():
    mha = as_dtype(nn.MultiHeadAttention(8, 2, rng_(32)))
    check_module_grad(mha, [rng_(33).normal(size=(2, 3, 8))],
                      lambda m, ts: m(ts[0]), rtol=1e-4, label="attention")


# ---------------------------------------------------------------------------
# ADAM

class _Scalar(nn.Module):
    def __init__(self, v):
        super().__init__()
        self.p = Tensor(np.asarray(v), requires_grad=True)


def test_adam_zero_grad_no_move():
    mod = _Scalar([1.0, -2.0])
    opt = nn.Adam(mod, lr=0.1)
    mod.p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(mod.p.values, [1.0, -2.0])


def test_adam_descends_against_gradient_sign():
    mod = _Scalar([0.0, 0.0])
    opt = nn.Adam(mod, lr=0.05)
    for _ in range(40):
        mod.p.grad = np.array([1.0, -3.0])
        opt.step()
    assert mod.p.values[0] < -0.5 and mod.p.values[1] > 0.5
    # monotone each step under a constant gradient
    mod2 = _Scalar([0.0])
    opt2 = nn.Adam(mod2, lr=0.01)
    prev = 0.0
    for _ in range(10):
        mod2.p.grad = np.array([2.0])
        opt2.step()
        assert mod2.p.values[0] < prev
        prev = mod2.p.values[0]


def test_adam_single_step_hand_computed():
    mod = _Scalar(1.0)
    opt = nn.Adam(mod, lr=0.1)
    mod.p.grad = np.asarray(0.5)
    opt.step()
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    np.testing.assert_allclose(mod.p.values, expected, rtol=1e-15)


def test_adam_missing_grad_raises():
    mod = _Scalar(1.0)
    opt = nn.Adam(mod)
    with pytest.raises(nn.OptimizerError):
        opt.step()


def test_adam_converges_on_quadratic():
    mod = _Scalar([4.0, -3.0])
    target = np.array([1.5, 0.5])
    opt = nn.Adam(mod, lr=0.1)
    for _ in range(300):
        T.reset_tape()
        diff = T.sub(mod.p, Tensor(target))
        loss = T.tsum(T.mul(diff, diff))
        mod.zero_grad()
        T.backward(loss)
        opt.step()
    np.testing.assert_allclose(mod.p.values, target, atol=1e-3)


# ---------------------------------------------------------------------------
# Training loop

def _counting_step(nan_at=None):
    batches = []

    def step(batch):
        batches.append(batch[:, 0].copy())
        return float("nan") if len(batches) == nan_at else float(len(batches))
    return step, batches


def test_fit_draws_full_batches_without_replacement():
    step, batches = _counting_step()
    history = nn.fit(step, np.arange(10.0)[:, None], 1, 3, rng_(40))
    assert history == [1.0, 2.0, 3.0]               # trailing row dropped
    assert len(np.unique(np.concatenate(batches))) == 9


def test_fit_stops_at_a_non_finite_loss_and_names_the_step(tmp_path):
    step, _ = _counting_step(nan_at=4)
    log = tmp_path / "loss.csv"
    with pytest.raises(FloatingPointError, match="non-finite loss nan at step 3"):
        nn.fit(step, np.arange(10.0)[:, None], 2, 3, rng_(41), log_path=log)
    assert log.read_text() == "step,total\n0,1.0\n1,2.0\n2,3.0\n3,nan\n"


# ---------------------------------------------------------------------------
# Checkpoints

def test_checkpoint_roundtrip(tmp_path):
    bn = nn.BatchNorm1d(4)
    lin = nn.Linear(4, 2, rng_(34))

    class Net(nn.Module):
        def __init__(self):
            super().__init__()
            self.bn = bn
            self.lin = lin

        def forward(self, x):
            return self.lin(self.bn(x))

    net = Net()
    net(Tensor(rng_(35).normal(size=(8, 4))))  # move running stats off init
    ref = {k: v.copy() for k, v in net.state_dict().items()}
    path = tmp_path / "net.npz"
    nn.save_checkpoint(path, net, extra={"epoch": 7})

    # scramble, then restore
    for p in net.parameters():
        p.values = p.values + 1.0
    net.bn.running_mean.values[:] = 99.0
    loaded = nn.load_checkpoint(path, net)
    for key, val in ref.items():
        np.testing.assert_array_equal(net.state_dict()[key], val)
    assert int(loaded["meta"]["epoch"]) == 7
    assert loaded["version"] == nn.CHECKPOINT_VERSION


def test_checkpoint_shape_mismatch(tmp_path):
    lin = nn.Linear(3, 2, rng_(36))
    path = tmp_path / "lin.npz"
    nn.save_checkpoint(path, lin)
    other = nn.Linear(4, 2, rng_(37))
    with pytest.raises((ValueError, KeyError)):
        nn.load_checkpoint(path, other)


def test_load_state_dict_names_every_entry_that_does_not_fit():
    lin = nn.Linear(3, 2, rng_(36))
    before = lin.state_dict()
    state = {"weight": np.zeros((4, 2)), "scale": np.ones(2)}     # no bias
    with pytest.raises(nn.CheckpointError) as err:
        lin.load_state_dict(state)
    assert ("missing ['bias'], unexpected ['scale'], "
            "mis-shaped {'weight': '(4, 2) != (3, 2)'}") in str(err.value)
    for name, arr in lin.state_dict().items():      # nothing was loaded
        np.testing.assert_array_equal(arr, before[name])


def test_parameter_names_unique_and_complete():
    mha = nn.MultiHeadAttention(8, 2, rng_(38))
    names = [n for n, _ in mha.named_parameters()]
    assert len(names) == len(set(names)) == 8  # 4 projections x (W, b)
