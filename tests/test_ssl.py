"""Loss oracles, endpoint cases, invariances, and training-step contracts.

Dense-matrix oracles below recompute every objective with plain numpy,
independently of the tape library, and gradients are checked against central
finite differences.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nidkit import nn, ssl_models as S, tensor as T
from nidkit.augment import AugmentationSpec, ViewSet, make_views
from nidkit.encoders import MLPEncoder
from nidkit.tensor import Tensor
from oracles import check_tensor_grad


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def rng_(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# independent numpy oracles

def _cos_rows(a, b):
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    return np.sum(a * b, axis=-1) / (na * nb)


def byol_oracle(q, zt):
    return float(np.mean(2.0 - 2.0 * _cos_rows(q, zt)))


def simsiam_oracle(p, p2, z, z2):
    return float(-0.5 * np.mean(_cos_rows(p, z2)) - 0.5 * np.mean(_cos_rows(p2, z)))


def bt_oracle(z, z2, lam):
    zh = (z - z.mean(0)) / z.std(0)
    zh2 = (z2 - z2.mean(0)) / z2.std(0)
    c = zh.T @ zh2 / z.shape[0]
    on = float(np.sum((1.0 - np.diag(c)) ** 2))
    off = float(np.sum(c * c) - np.sum(np.diag(c) ** 2))
    return on + lam * off, on, off


def vicreg_oracle(z, z2, lam=25.0, mu=25.0, nu=1.0, gamma=1.0, eps=1e-4):
    inv = float(np.mean((z - z2) ** 2))

    def branch(x):
        hinge = float(np.mean(np.maximum(0.0, gamma - np.sqrt(x.var(0) + eps))))
        xc = x - x.mean(0)
        cov = xc.T @ xc / x.shape[0]
        off = float(np.sum(cov * cov) - np.sum(np.diag(cov) ** 2))
        return hinge, off / x.shape[1]

    h1, c1 = branch(z)
    h2, c2 = branch(z2)
    total = lam * inv + mu * (h1 + h2) + nu * (c1 + c2)
    return total, inv, h1 + h2, c1 + c2


def whiten_oracle(x, eps=1e-4):
    xc = x - x.mean(0)
    cov = xc.T @ xc / x.shape[0] + eps * np.eye(x.shape[1])
    l = np.linalg.cholesky(cov)
    return np.linalg.solve(l, xc.T).T


def wmse_oracle(z, z2, s, eps=1e-4):
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    zn2 = z2 / np.linalg.norm(z2, axis=1, keepdims=True)
    n_slices = z.shape[0] // s
    vals = []
    for i in range(n_slices):
        w1 = whiten_oracle(zn[i * s:(i + 1) * s], eps)
        w2 = whiten_oracle(zn2[i * s:(i + 1) * s], eps)
        vals.append(np.mean((w1 - w2) ** 2))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# endpoint cases

def test_byol_endpoints():
    rng = rng_(1)
    q = rng.normal(size=(4, 16))
    scale = rng.uniform(0.5, 2.0, size=(4, 1))
    assert abs(float(S.byol_loss(Tensor(q), Tensor(q * scale)).values)) < 1e-8
    assert abs(float(S.byol_loss(Tensor(q), Tensor(-q * scale)).values) - 4.0) < 1e-8


def test_byol_matches_cosine_oracle():
    rng = rng_(2)
    q = rng.normal(size=(4, 256))
    zt = rng.normal(size=(4, 256))
    ours = float(S.byol_loss(Tensor(q), Tensor(zt)).values)
    assert abs(ours - byol_oracle(q, zt)) < 1e-10


def test_simsiam_endpoints():
    rng = rng_(3)
    p = rng.normal(size=(5, 8))
    p2 = rng.normal(size=(5, 8))
    # parallel: p || z2 and p2 || z
    val = float(S.simsiam_loss(Tensor(p), Tensor(p2), Tensor(2.0 * p2),
                               Tensor(0.5 * p)).values)
    assert abs(val - (-1.0)) < 1e-8
    # orthogonal pairs
    e1 = np.tile(np.eye(8)[0], (5, 1))
    e2 = np.tile(np.eye(8)[1], (5, 1))
    val = float(S.simsiam_loss(Tensor(e1), Tensor(e1), Tensor(e2), Tensor(e2)).values)
    assert abs(val) < 1e-12


def test_simsiam_matches_oracle():
    rng = rng_(4)
    arrs = [rng.normal(size=(6, 32)) for _ in range(4)]
    ours = float(S.simsiam_loss(*[Tensor(a) for a in arrs]).values)
    assert abs(ours - simsiam_oracle(*arrs)) < 1e-10


def test_simsiam_stop_gradient_is_exact():
    rng = rng_(5)
    p = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    p2 = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    z = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    z2 = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    loss = S.simsiam_loss(p, p2, z.detach(), z2.detach())
    T.backward(loss)
    assert p.grad is not None and p2.grad is not None
    assert z.grad is None and z2.grad is None


def test_barlow_twins_zero_at_identity_correlation():
    rng = rng_(6)
    # orthogonal columns with exact unit batch statistics -> C = I
    b, d = 8, 4
    m = rng.normal(size=(b, d))
    q, _ = np.linalg.qr(m - m.mean(0))
    z = q * np.sqrt(b)  # column var exactly 1, mean 0
    loss, terms = S.barlow_twins_loss(Tensor(z), Tensor(z.copy()))
    assert abs(float(loss.values)) < 1e-8
    assert abs(terms["on_diag"]) < 1e-8


def test_barlow_twins_antiparallel_diag():
    rng = rng_(7)
    b, d = 8, 4
    m = rng.normal(size=(b, d))
    q, _ = np.linalg.qr(m - m.mean(0))
    z = q * np.sqrt(b)
    loss, terms = S.barlow_twins_loss(Tensor(z), Tensor(-z))
    assert abs(terms["on_diag"] - 4.0 * d) < 1e-7


def test_barlow_twins_matches_oracle():
    rng = rng_(8)
    z = rng.normal(size=(8, 4))
    z2 = rng.normal(size=(8, 4))
    loss, terms = S.barlow_twins_loss(Tensor(z), Tensor(z2), lambda_bt=5e-3)
    total, on, off = bt_oracle(z, z2, 5e-3)
    assert abs(float(loss.values) - total) < 1e-10
    assert abs(terms["on_diag"] - on) < 1e-10
    assert abs(terms["off_diag"] - off) < 1e-10
    # breakdown recombines to the total
    assert abs(terms["on_diag"] + 5e-3 * terms["off_diag"] - float(loss.values)) < 1e-10


def test_vicreg_zero_when_conditions_hold():
    # identical branches, per-dim std above gamma, diagonal covariance
    b = 16
    z = np.zeros((b, 3))
    z[:, 0] = np.repeat([2.0, -2.0], b // 2)
    z[:, 1] = np.tile([3.0, -3.0], b // 2)
    half = b // 4
    z[:, 2] = np.concatenate([np.tile([2.5, -2.5], half), np.tile([-2.5, 2.5], half)])
    cov = (z - z.mean(0)).T @ (z - z.mean(0)) / b
    assert np.allclose(cov - np.diag(np.diag(cov)), 0.0)
    loss, _ = S.vicreg_loss(Tensor(z), Tensor(z.copy()))
    assert abs(float(loss.values)) < 1e-8


def test_vicreg_constant_batch_hinge():
    z = np.full((6, 4), 1.7)
    loss, terms = S.vicreg_loss(Tensor(z), Tensor(z.copy()),
                             lam=25.0, mu=25.0, nu=1.0, gamma=1.0, eps=1e-4)
    expected = 2.0 * 25.0 * (1.0 - np.sqrt(1e-4))
    assert abs(float(loss.values) - expected) < 1e-10


def test_vicreg_matches_oracle():
    rng = rng_(9)
    z = rng.normal(size=(8, 4))
    z2 = rng.normal(size=(8, 4))
    loss, terms = S.vicreg_loss(Tensor(z), Tensor(z2))
    total, inv, var, cov = vicreg_oracle(z, z2)
    assert abs(float(loss.values) - total) < 1e-10
    assert abs(terms["invariance"] - inv) < 1e-10
    assert abs(terms["variance"] - var) < 1e-10
    assert abs(terms["covariance"] - cov) < 1e-10
    combo = 25.0 * terms["invariance"] + 25.0 * terms["variance"] + terms["covariance"]
    assert abs(combo - float(loss.values)) < 1e-10


def test_wmse_identity_and_oracle():
    rng = rng_(10)
    z = rng.normal(size=(8, 3))
    assert abs(float(S.wmse_loss(Tensor(z), Tensor(z.copy()), slice_size=4)[0].values)) < 1e-12
    z2 = rng.normal(size=(8, 3))
    ours = float(S.wmse_loss(Tensor(z), Tensor(z2), slice_size=4)[0].values)
    assert abs(ours - wmse_oracle(z, z2, 4)) < 1e-10


def test_wmse_whitened_covariance_near_identity():
    rng = rng_(11)
    x = rng.normal(size=(64, 8))
    w = S.whiten_slice(Tensor(x)).values
    cov = w.T @ w / w.shape[0]
    assert np.linalg.norm(cov - np.eye(8)) < 1e-3


def test_wmse_remainder_rows_dropped():
    rng = rng_(12)
    z = rng.normal(size=(10, 3))
    z2 = rng.normal(size=(10, 3))
    full = float(S.wmse_loss(Tensor(z), Tensor(z2), slice_size=4)[0].values)
    trimmed = float(S.wmse_loss(Tensor(z[:8]), Tensor(z2[:8]), slice_size=4)[0].values)
    assert full == trimmed


def test_whitening_runs_without_scipy_linalg():
    # scipy's LAPACK would bring a second OpenBLAS thread pool into training
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import nidkit.runner\n"
        "from nidkit import tensor as T\n"
        "from nidkit.ssl_models import wmse_loss\n"
        "rng = np.random.default_rng(0)\n"
        "z = T.Tensor(rng.normal(size=(64, 40)), requires_grad=True)\n"
        "T.backward(wmse_loss(z, T.Tensor(rng.normal(size=(64, 40))))[0])\n"
        "assert np.isfinite(z.grad).all() and z.grad.any()\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n")
    src = str(Path(S.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_loss_batch_guards():
    with pytest.raises(nn.BatchSizeError):
        S.barlow_twins_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
    with pytest.raises(nn.BatchSizeError):
        S.vicreg_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
    with pytest.raises(nn.BatchSizeError):
        S.wmse_loss(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), slice_size=4)
    with pytest.raises(S.NormalizationError):
        S.byol_loss(Tensor(np.zeros((2, 4))), Tensor(np.ones((2, 4))))


# ---------------------------------------------------------------------------
# gradient checks (central finite differences)

def test_byol_loss_grad():
    rng = rng_(13)
    check_tensor_grad(lambda ts: S.byol_loss(ts[0], ts[1]),
                      [rng.normal(size=(4, 5)), rng.normal(size=(4, 5))],
                      rtol=1e-4, label="byol")


def test_simsiam_loss_grad():
    rng = rng_(14)
    check_tensor_grad(lambda ts: S.simsiam_loss(ts[0], ts[1], ts[2], ts[3]),
                      [rng.normal(size=(4, 5)) for _ in range(4)],
                      rtol=1e-4, label="simsiam")


def test_barlow_twins_loss_grad():
    rng = rng_(15)
    check_tensor_grad(lambda ts: S.barlow_twins_loss(ts[0], ts[1])[0],
                      [rng.normal(size=(8, 4)), rng.normal(size=(8, 4))],
                      rtol=1e-4, label="barlow")


def test_vicreg_loss_grad():
    rng = rng_(16)
    check_tensor_grad(lambda ts: S.vicreg_loss(ts[0], ts[1])[0],
                      [rng.normal(size=(8, 4)), rng.normal(size=(8, 4))],
                      rtol=1e-4, label="vicreg")


def test_wmse_loss_grad():
    rng = rng_(17)
    check_tensor_grad(lambda ts: S.wmse_loss(ts[0], ts[1], slice_size=4)[0],
                      [rng.normal(size=(8, 3)), rng.normal(size=(8, 3))],
                      rtol=1e-4, label="wmse")


# ---------------------------------------------------------------------------
# invariance properties

@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_losses_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(8, 4))
    z2 = rng.normal(size=(8, 4))
    perm = rng.permutation(8)

    bt_a, _ = S.barlow_twins_loss(Tensor(z), Tensor(z2))
    bt_b, _ = S.barlow_twins_loss(Tensor(z[perm]), Tensor(z2[perm]))
    assert abs(float(bt_a.values) - float(bt_b.values)) < 1e-9

    vi_a, _ = S.vicreg_loss(Tensor(z), Tensor(z2))
    vi_b, _ = S.vicreg_loss(Tensor(z[perm]), Tensor(z2[perm]))
    assert abs(float(vi_a.values) - float(vi_b.values)) < 1e-9

    by_a = float(S.byol_loss(Tensor(z), Tensor(z2)).values)
    by_b = float(S.byol_loss(Tensor(z[perm]), Tensor(z2[perm])).values)
    assert abs(by_a - by_b) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_statistic_losses_invariant_to_constant_shift(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(8, 4))
    z2 = rng.normal(size=(8, 4))
    shift = rng.normal(size=4)
    bt_a, _ = S.barlow_twins_loss(Tensor(z), Tensor(z2))
    bt_b, _ = S.barlow_twins_loss(Tensor(z + shift), Tensor(z2))
    assert abs(float(bt_a.values) - float(bt_b.values)) < 1e-8
    # vicreg variance/covariance terms are shift-invariant; shift both
    # branches identically so the invariance term is unchanged too
    vi_a, _ = S.vicreg_loss(Tensor(z), Tensor(z2))
    vi_b, _ = S.vicreg_loss(Tensor(z + shift), Tensor(z2 + shift))
    assert abs(float(vi_a.values) - float(vi_b.values)) < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_direction_losses_invariant_to_row_rescale(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(6, 5))
    zt = rng.normal(size=(6, 5))
    scale = rng.uniform(0.1, 10.0, size=(6, 1))
    a = float(S.byol_loss(Tensor(q), Tensor(zt)).values)
    b = float(S.byol_loss(Tensor(q * scale), Tensor(zt)).values)
    assert abs(a - b) < 1e-8
    sa = float(S.simsiam_loss(Tensor(q), Tensor(q), Tensor(zt), Tensor(zt)).values)
    sb = float(S.simsiam_loss(Tensor(q * scale), Tensor(q), Tensor(zt), Tensor(zt)).values)
    assert abs(sa - sb) < 1e-8


# ---------------------------------------------------------------------------
# EMA

class _Pair(nn.Module):
    def __init__(self, v):
        super().__init__()
        self.w = Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)


def test_ema_update_endpoints_and_rule():
    online, target = _Pair([0.0, 2.0]), _Pair([1.0, 1.0])
    S.ema_update(online, target, tau=1.0)
    np.testing.assert_array_equal(target.w.values, [1.0, 1.0])
    S.ema_update(online, target, tau=0.0)
    np.testing.assert_array_equal(target.w.values, [0.0, 2.0])
    online2, target2 = _Pair(0.0), _Pair(1.0)
    S.ema_update(online2, target2, tau=0.9)
    np.testing.assert_allclose(target2.w.values, 0.9)


def test_ema_shape_mismatch():
    with pytest.raises(nn.CheckpointError):
        S.ema_update(_Pair([1.0, 2.0]), _Pair([1.0]), tau=0.5)


# ---------------------------------------------------------------------------
# model-level contracts

def test_a_model_refuses_another_kinds_checkpoint(tmp_path):
    byol, vicreg = _tiny_model("byol"), _tiny_model("vicreg")
    nn.save_checkpoint(tmp_path / "byol.npz", byol)
    with pytest.raises(nn.CheckpointError, match=r"missing \[\], unexpected \['predictor"):
        nn.load_checkpoint(tmp_path / "byol.npz", vicreg)
    nn.save_checkpoint(tmp_path / "vicreg.npz", vicreg)
    with pytest.raises(nn.CheckpointError, match=r"missing \['predictor"):
        nn.load_checkpoint(tmp_path / "vicreg.npz", byol)


def _tiny_model(kind, seed=20, d=10, dim=16):
    rng = rng_(seed)
    factory = lambda: MLPEncoder(d, rng, hidden_dim=32)
    hyper = {"slice_size": 8} if kind == "wmse" else {}
    return S.build_model(kind, factory, 32, rng, dim=dim, **hyper)


def _two_cluster_batches(n=512, d=10, seed=21):
    rng = rng_(seed)
    centers = np.vstack([np.full(d, 1.0), np.full(d, -1.0)])
    comp = rng.integers(0, 2, size=n)
    return centers[comp] + 0.3 * rng.normal(size=(n, d))


@pytest.mark.parametrize("kind", S.MODEL_KINDS)
def test_training_smoke_loss_decreases(kind):
    feats = _two_cluster_batches()
    model = _tiny_model(kind)
    opt = nn.Adam(model, lr=1e-3)
    spec = AugmentationSpec(kind="zero_out", p=0.2)
    rng = rng_(22)
    history = S.pretrain(model, feats, spec, opt, epochs=4, batch_size=32, rng=rng)
    totals = np.array([h.total for h in history])
    assert np.isfinite(totals).all()
    assert totals[-10:].mean() < totals[:10].mean()


def test_byol_optimizer_excludes_targets_and_ema_contract():
    model = _tiny_model("byol", seed=23)
    opt = nn.Adam(model, lr=1e-3)
    assert not any("target_" in name for name, _ in opt.named)

    old_target = {k: v.copy() for k, v in model.target_encoder.state_dict().items()}
    feats = _two_cluster_batches(n=64, seed=24)
    spec = AugmentationSpec(kind="gaussian_noise", p=0.3, sigma2=0.05)
    view_set = make_views(feats[:32], spec, rng_(25))
    S.train_step(model, view_set, opt)

    new_online = model.encoder.state_dict()
    new_target = model.target_encoder.state_dict()
    # exact EMA rule on the parameters (running stats also move during the
    # target's own forward pass, so they are excluded here)
    param_keys = [k for k in old_target if "running_" not in k]
    assert param_keys
    for key in param_keys:
        expected = model.tau * old_target[key] + (1 - model.tau) * new_online[key]
        np.testing.assert_allclose(new_target[key], expected, rtol=1e-12, atol=1e-15)


def test_pairwise_mean_over_three_views():
    # eval mode so repeated forwards see identical normalization statistics
    model = _tiny_model("barlow_twins", seed=27, d=6).eval()
    rng = rng_(28)
    views = [rng.normal(size=(16, 6)) for _ in range(3)]
    total, _ = model.compute_loss(ViewSet(views=views))
    pair_vals = []
    for i in range(3):
        for j in range(i + 1, 3):
            v, _ = model.compute_loss(ViewSet(views=[views[i], views[j]]))
            pair_vals.append(float(v.values))
    assert abs(float(total.values) - np.mean(pair_vals)) < 1e-9


def test_mixup_views_use_distinct_partners():
    model = _tiny_model("vicreg", seed=29, d=6)
    model.eval()  # deterministic encoder: any branch difference is the mixing
    rng = rng_(30)
    batch = rng.normal(size=(16, 6))
    # alpha=1 mixes nothing: identical views stay identical
    vs = make_views(batch, AugmentationSpec(kind="mixup", alpha=1.0), rng_(31))
    _, br_id = model.compute_loss(vs)
    assert br_id.terms["invariance"] < 1e-20
    # alpha=0 swaps in the partner rows; independent partner draws per view
    # make the two branches disagree
    vs = make_views(batch, AugmentationSpec(kind="mixup", alpha=0.0), rng_(31))
    _, br_mix = model.compute_loss(vs)
    assert br_mix.terms["invariance"] > 1e-4


def test_pretrain_writes_loss_log(tmp_path):
    model = _tiny_model("vicreg", seed=32)
    opt = nn.Adam(model, lr=1e-3)
    feats = _two_cluster_batches(n=96, seed=33)
    log = tmp_path / "loss.csv"
    history = S.pretrain(model, feats, AugmentationSpec(kind="zero_out", p=0.1),
                         opt, epochs=1, batch_size=32, rng=rng_(34), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,total,invariance,variance,covariance"
    assert len(lines) == len(history) + 1
    first = lines[1].split(",")
    assert abs(float(first[1]) - history[0].total) < 1e-12
