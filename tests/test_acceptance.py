"""End-to-end acceptance checks — one test (and one printed verdict line)
per shipped guarantee.

These intentionally re-verify properties that unit tests cover piecemeal:
gradients against finite differences across the whole op surface, frozen
architecture shapes, analytic loss endpoints, whitening quality, the
anomaly-detection smoke test with a random-encoder control, metric oracles,
augmentation statistics, split hygiene, and bit-exact reproducibility.
"""

import itertools
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats as sstats

import nidkit.nn as nn
import nidkit.tensor as T
from nidkit.augment import (AugmentationSpec, ViewSet, gaussian_noise,
                            random_shuffle, subset_columns, swap_noise,
                            zero_out)
from nidkit.config import encoder_config_for, validate_config
from nidkit.data import Dataset, protocol_split, synth_generate
from nidkit.detector import fit_center
from nidkit.encoders import CNNEncoder, build_encoder, representation_dim
from nidkit.evaluate import auroc, optimal_threshold_metrics
from nidkit.runner import run_experiment
from nidkit.ssl_models import (MODEL_KINDS, barlow_twins_loss, build_model,
                               byol_loss, pretrain, simsiam_loss, vicreg_loss,
                               whiten_slice, wmse_loss)
from nidkit.tensor import Tensor
from oracles import as_dtype, cnn_stage_shapes, exp, log, negate, power, softmax


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. gradient suite: finite differences over ops, encoders, and losses


def _fd_worst_rel_err(leaves, f, rng, probes=3, h=1e-5):
    """Worst relative error between reverse-mode and central differences.

    Coordinates are sampled per leaf. The denominator is floored at 1e-4 so
    genuinely-zero gradients are compared on an absolute scale instead of
    amplifying finite-difference roundoff.
    """
    T.reset_tape()
    for p in leaves:
        p.grad = None
    T.backward(f())
    grads = [np.zeros_like(p.values) if p.grad is None else np.array(p.grad)
             for p in leaves]
    T.reset_tape()
    worst = 0.0
    for p, grad in zip(leaves, grads):
        n = int(p.values.size)
        for flat in rng.choice(n, size=min(probes, n), replace=False):
            idx = np.unravel_index(int(flat), p.values.shape)
            keep = p.values[idx]
            p.values[idx] = keep + h
            with T.no_grad():
                hi = float(f().values)
            p.values[idx] = keep - h
            with T.no_grad():
                lo = float(f().values)
            p.values[idx] = keep
            fd = (hi - lo) / (2.0 * h)
            rel = abs(fd - float(grad[idx])) / max(abs(fd), abs(float(grad[idx])), 1e-4)
            worst = max(worst, rel)
    return worst


def _leaf(rng, shape, transform=None):
    vals = rng.normal(size=shape)
    if transform is not None:
        vals = transform(vals)
    return Tensor(np.asarray(vals, dtype=np.float64), requires_grad=True)


def _sq_mean(out: Tensor) -> Tensor:
    return T.tmean(T.mul(out, out))


def _primitive_cases(rng):
    """(name, leaves, scalar closure) for every differentiable primitive."""
    pos = lambda v: 0.5 + np.abs(v)
    off = lambda v: np.sign(v) * (0.2 + np.abs(v))  # keep relu away from its kink
    cases = []

    a, b = _leaf(rng, (3, 4)), _leaf(rng, (4,))
    cases.append(("add", [a, b], lambda: _sq_mean(T.add(a, b))))
    c, d = _leaf(rng, (3, 4)), _leaf(rng, (3, 1))
    cases.append(("sub", [c, d], lambda: _sq_mean(T.sub(c, d))))
    e, g = _leaf(rng, (3, 1)), _leaf(rng, (1, 4))
    cases.append(("mul", [e, g], lambda: _sq_mean(T.mul(e, g))))
    h_, i_ = _leaf(rng, (3, 4)), _leaf(rng, (4,), pos)
    cases.append(("div", [h_, i_], lambda: _sq_mean(T.div(h_, i_))))

    j = _leaf(rng, (3, 4), pos)
    cases.append(("sqrt", [j], lambda: _sq_mean(T.sqrt(j))))
    k = _leaf(rng, (3, 4))
    cases.append(("exp", [k], lambda: _sq_mean(exp(k))))
    l_ = _leaf(rng, (3, 4), pos)
    cases.append(("log", [l_], lambda: _sq_mean(log(l_))))
    m = _leaf(rng, (3, 4), pos)
    cases.append(("power", [m], lambda: _sq_mean(power(m, 1.7))))
    n_ = _leaf(rng, (3, 4), off)
    cases.append(("relu", [n_], lambda: _sq_mean(T.relu(n_))))
    o = _leaf(rng, (3, 4))
    cases.append(("gelu", [o], lambda: _sq_mean(T.gelu(o))))
    p_ = _leaf(rng, (3, 4))
    cases.append(("negate", [p_], lambda: _sq_mean(negate(p_))))

    q, r = _leaf(rng, (2, 3)), _leaf(rng, (3, 4))
    cases.append(("matmul", [q, r], lambda: _sq_mean(T.matmul(q, r))))

    s = _leaf(rng, (3, 3))
    spd_jitter = Tensor(0.8 * np.eye(3))

    def chol():
        spd = T.add(T.matmul(s, T.transpose(s)), spd_jitter)
        return _sq_mean(T.cholesky(spd))

    cases.append(("cholesky", [s], chol))

    t_, u = _leaf(rng, (3, 3)), _leaf(rng, (3, 2))

    def tri_solve():
        spd = T.add(T.matmul(t_, T.transpose(t_)), spd_jitter)
        return _sq_mean(T.triangular_solve(T.cholesky(spd), u))

    cases.append(("triangular_solve", [t_, u], tri_solve))

    v = _leaf(rng, (3, 4))
    cases.append(("tsum", [v], lambda: _sq_mean(T.tsum(v))))
    v2 = _leaf(rng, (3, 4))
    cases.append(("tsum_axis", [v2], lambda: _sq_mean(T.tsum(v2, axis=1, keepdims=True))))
    w = _leaf(rng, (3, 4))
    cases.append(("tmean", [w], lambda: _sq_mean(T.tmean(w, axis=0))))
    x = _leaf(rng, (5, 3))
    cases.append(("tvar", [x], lambda: _sq_mean(T.tvar(x, axis=0))))
    x2 = _leaf(rng, (5, 3))
    cases.append(("tvar_all", [x2], lambda: _sq_mean(T.tvar(x2))))
    y = _leaf(rng, (3, 5))
    cases.append(("softmax", [y], lambda: _sq_mean(softmax(y, axis=-1))))

    z = _leaf(rng, (2, 6))
    cases.append(("reshape", [z], lambda: _sq_mean(T.reshape(z, (3, 4)))))
    aa = _leaf(rng, (2, 3))
    cases.append(("transpose", [aa], lambda: _sq_mean(T.transpose(aa))))
    ab = _leaf(rng, (2, 3, 2))
    cases.append(("transpose_axes", [ab],
                  lambda: _sq_mean(T.transpose(ab, axes=(1, 0, 2)))))
    ac = _leaf(rng, (3, 4))
    rows = np.array([0, 2, 1, 2])  # repeated row checks gradient accumulation
    cases.append(("take_rows", [ac], lambda: _sq_mean(T.take(ac, rows))))
    ad = _leaf(rng, (4, 4))
    diag_key = (np.arange(4), np.arange(4))
    cases.append(("take_tuple", [ad], lambda: _sq_mean(T.take(ad, diag_key))))
    ae, af = _leaf(rng, (2, 3)), _leaf(rng, (1, 3))
    cases.append(("concat", [ae, af], lambda: _sq_mean(T.concat([ae, af], axis=0))))
    return cases


def _fused_cases(rng):
    """``normalize`` over axis 0 and -1, with and without the affine map and
    with given statistics; ``attention`` with and without a dropout mask,
    with 1 and 4 heads."""
    cases = []
    for axis, shape in ((0, (6, 4)), (-1, (2, 3, 4))):
        x, g, b = _leaf(rng, shape), _leaf(rng, (4,)), _leaf(rng, (4,))
        cases.append((f"normalize_axis{axis}", [x],
                      lambda x=x, axis=axis: _sq_mean(T.normalize(x, axis, 1e-5)[0])))
        x2 = _leaf(rng, shape)
        cases.append((f"normalize_axis{axis}_affine", [x2, g, b],
                      lambda x=x2, g=g, b=b, axis=axis:
                      _sq_mean(T.normalize(x, axis, 1e-5, g, b)[0])))
    x3, g3, b3 = _leaf(rng, (6, 4)), _leaf(rng, (4,)), _leaf(rng, (4,))
    stats = (rng.normal(size=4), 0.5 + rng.random(4))
    cases.append(("normalize_given_stats", [x3, g3, b3],
                  lambda: _sq_mean(T.normalize(x3, 0, 1e-5, g3, b3, stats=stats)[0])))
    for heads in (1, 4):
        for masked in (False, True):
            q, k, v = (_leaf(rng, (2, 3, 8)) for _ in range(3))
            mask = rng.random((3, 2, heads, 3)) < 0.8 if masked else None
            cases.append((f"attention_h{heads}{'_mask' if masked else ''}", [q, k, v],
                          lambda q=q, k=k, v=v, heads=heads, mask=mask:
                          _sq_mean(T.attention(q, k, v, heads, mask=mask, keep=0.8))))
    return cases


def _trainable(module):
    return [p for p in module.parameters() if p.requires_grad]


def _encoder_cases(rng):
    cases = []

    mlp_cfg = encoder_config_for({"kind": "mlp", "hidden_dim": 16}, 12)
    mlp = as_dtype(build_encoder(mlp_cfg, rng))
    x_mlp = Tensor(rng.normal(size=(5, 12)))
    cases.append(("encoder_mlp", _trainable(mlp), lambda: _sq_mean(mlp(x_mlp))))

    cnn_cfg = encoder_config_for({"kind": "cnn"}, 40)
    cnn = as_dtype(build_encoder(cnn_cfg, rng))
    x_cnn = Tensor(rng.normal(size=(3, 40)))
    cases.append(("encoder_cnn", _trainable(cnn), lambda: _sq_mean(cnn(x_cnn))))

    ft_cfg = encoder_config_for({"kind": "ft_transformer", "token_dim": 8, "heads": 2,
                                 "layers": 1, "dropout": 0.0},
                                10, range(7), {"proto": [7, 8, 9]})
    ft = as_dtype(build_encoder(ft_cfg, rng))
    x_ft = rng.normal(size=(4, 10))
    x_ft[:, 7:10] = 0.0
    x_ft[np.arange(4), 7 + rng.integers(0, 3, size=4)] = 1.0
    x_ft = Tensor(x_ft)
    cases.append(("encoder_ft", _trainable(ft), lambda: _sq_mean(ft(x_ft))))
    return cases


def _loss_function_cases(rng):
    cases = []
    q, t = _leaf(rng, (6, 5)), Tensor(rng.normal(size=(6, 5)))
    cases.append(("loss_byol", [q], lambda: byol_loss(q, t)))
    p1, p2 = _leaf(rng, (6, 5)), _leaf(rng, (6, 5))
    z1c, z2c = Tensor(rng.normal(size=(6, 5))), Tensor(rng.normal(size=(6, 5)))
    cases.append(("loss_simsiam", [p1, p2],
                  lambda: T.mul(0.5, T.add(simsiam_loss(p1, z2c), simsiam_loss(p2, z1c)))))
    b1, b2 = _leaf(rng, (12, 6)), _leaf(rng, (12, 6))
    cases.append(("loss_barlow_twins", [b1, b2],
                  lambda: barlow_twins_loss(b1, b2)[0]))
    v1, v2 = _leaf(rng, (12, 6)), _leaf(rng, (12, 6))
    cases.append(("loss_vicreg", [v1, v2], lambda: vicreg_loss(v1, v2)[0]))
    w1, w2 = _leaf(rng, (8, 3)), _leaf(rng, (8, 3))
    cases.append(("loss_wmse", [w1, w2],
                  lambda: wmse_loss(w1, w2, slice_size=4)[0]))
    return cases


def _model_cases(rng):
    """compute_loss through encoder + heads for every model kind.

    For simsiam the finite difference of the full forward measures the
    derivative through the stop-gradient branch too, so it legitimately
    disagrees with backward on encoder/projector weights; the predictor sits
    strictly downstream of the detach, where both must match. The detached
    branch itself is covered by the loss-level case above.
    """
    cases = []
    base = rng.normal(size=(12, 10))
    views = ViewSet(views=[base + 0.05 * rng.normal(size=base.shape),
                           base + 0.05 * rng.normal(size=base.shape)])
    for kind in MODEL_KINDS:
        cfg = encoder_config_for({"kind": "mlp", "hidden_dim": 8}, 10)
        hyper = {"slice_size": 6} if kind == "wmse" else {}
        model = as_dtype(build_model(kind, lambda: build_encoder(cfg, rng), 8, rng,
                                     dim=8, **hyper))
        leaves = (_trainable(model.predictor) if kind == "simsiam"
                  else _trainable(model))
        cases.append((f"model_{kind}", leaves,
                      lambda m=model: m.compute_loss(views)[0]))
    return cases


def test_criterion_01_gradient_suite():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    failures, n_checked = [], 0
    cases = (_primitive_cases(rng) + _loss_function_cases(rng)
             + _encoder_cases(rng) + _model_cases(rng)
             + _fused_cases(np.random.default_rng(17)))
    for name, leaves, f in cases:
        probes = 2 if name.startswith("model_") else 3
        err = _fd_worst_rel_err(leaves, f, rng, probes=probes)
        n_checked += 1
        if not err < 1e-4:
            failures.append(f"{name}: rel={err:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _verdict(1, ok, f"finite differences over {n_checked} graph families, "
                    f"rel err < 1e-4, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. convolutional stack shapes on a 196-feature input


def test_criterion_02_cnn_shape_conformance():
    rng = np.random.default_rng(0)
    enc = CNNEncoder(196, rng)
    x = Tensor(rng.normal(size=(2, 196)))
    got = cnn_stage_shapes(enc, x)            # (channels, width) per stage
    expected = [(32, 195), (64, 194), (128, 193), (128, 64),
                (256, 63), (256, 31), (512, 30), (512, 7)]
    with T.no_grad():
        out = enc(x)
    ok = got == expected and out.shape == (2, 7 * 512)
    _verdict(2, ok, f"stages {['%dx%d' % (w, c) for c, w in got]}, "
                    f"flattened {out.shape}")
    assert got == expected
    assert out.shape == (2, 7 * 512)


# ---------------------------------------------------------------------------
# 3. analytic loss endpoints


def _orthonormal_centered(rng, b, d):
    """(b, d) matrix whose columns are zero-mean and mutually orthogonal with
    population variance exactly 1."""
    m = rng.normal(size=(b, d))
    m -= m.mean(axis=0)
    q, _ = np.linalg.qr(m)          # combos of zero-mean columns stay zero-mean
    q = q[:, :d]
    return q / q.std(axis=0)


def test_criterion_03_loss_endpoints():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 5))
    checks = {}

    checks["byol parallel"] = abs(float(byol_loss(Tensor(z), Tensor(3.0 * z)).values))
    checks["byol antiparallel"] = abs(
        float(byol_loss(Tensor(z), Tensor(-2.0 * z)).values) - 4.0)
    zt = Tensor(z)
    checks["simsiam parallel"] = abs(
        float(T.mul(0.5, T.add(simsiam_loss(zt, zt), simsiam_loss(zt, zt))).values) + 1.0)

    good = _orthonormal_centered(rng, 16, 6)
    gt = Tensor(good)
    checks["barlow identity"] = abs(float(barlow_twins_loss(gt, gt)[0].values))
    checks["vicreg satisfied"] = abs(float(vicreg_loss(gt, gt)[0].values))
    wt = Tensor(rng.normal(size=(16, 4)))
    checks["wmse identical"] = abs(float(wmse_loss(wt, wt, slice_size=8)[0].values))

    worst = max(checks.values())
    _verdict(3, worst < 1e-8, f"worst endpoint deviation {worst:.2e} (< 1e-8)")
    for name, dev in checks.items():
        assert dev < 1e-8, f"{name}: {dev:.3e}"


# ---------------------------------------------------------------------------
# 4. whitening drives sub-batch covariance to the identity


def test_criterion_04_whitening_identity_covariance():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(64, 8)))
    with T.no_grad():
        w = whiten_slice(x).values
    cov = w.T @ w / w.shape[0]
    dev = float(np.linalg.norm(cov - np.eye(8), ord="fro"))
    _verdict(4, dev < 1e-3, f"Frobenius deviation {dev:.2e} at s=64, dim=8 (< 1e-3)")
    assert dev < 1e-3


# ---------------------------------------------------------------------------
# 5. pretraining beats a frozen random encoder on synthetic traffic


SMOKE_RECIPES = [
    # model, augmentation, learning rate, epochs, projection dim
    ("byol", {"kind": "gaussian_noise", "p": 0.15, "sigma2": 0.01}, 1e-4, 6, 256),
    ("simsiam", {"kind": "zero_out", "p": 0.15}, 1e-5, 20, 128),
    ("vicreg", {"kind": "subsets", "k": 2, "overlap_fraction": 0.0}, 1e-3, 40, 256),
    ("barlow_twins", {"kind": "subsets", "k": 2, "overlap_fraction": 0.0}, 1e-3, 40, 256),
    ("wmse", {"kind": "mixup", "alpha": 0.9}, 1e-3, 20, 256),
]


def _smoke_run(kind, aug_kw, lr, epochs, dim, train, test, seed=0):
    d = train.n_features
    rng = np.random.default_rng(seed)
    spec = AugmentationSpec(**aug_kw)
    perm = cols = None
    if aug_kw["kind"] == "subsets":
        perm = rng.permutation(d)
        cols = subset_columns(d, aug_kw["k"], aug_kw["overlap_fraction"], perm)
        enc_cfg = encoder_config_for({"kind": "mlp", "hidden_dim": 256}, len(cols[0]))
    else:
        enc_cfg = encoder_config_for({"kind": "mlp", "hidden_dim": 256}, d,
                                     numeric_cols=train.numeric_idx,
                                     cat_groups=train.onehot_groups)
    # identically initialized twin encoder = the frozen random control
    rng_twin = np.random.default_rng(seed)
    if perm is not None:
        rng_twin.permutation(d)
    model = build_model(kind, lambda: build_encoder(enc_cfg, rng),
                        representation_dim(enc_cfg), rng, dim=dim)
    twin = build_encoder(enc_cfg, rng_twin)
    assert all(p.requires_grad for p in model.parameters())

    random_auroc = auroc(
        fit_center(twin, train.features, subset_columns=cols).score(test.features),
        test.labels)
    optimizer = nn.Adam(model, lr=lr)
    pretrain(model, train.features, spec, optimizer, epochs, 128, rng, columns=cols)
    model.eval()
    trained_scores = fit_center(model.encoder, train.features,
                                subset_columns=cols).score(test.features)
    return auroc(trained_scores, test.labels), random_auroc, trained_scores


def test_criterion_05_pretraining_beats_random_encoder():
    ds = synth_generate(2000, 500, 20, 4.0, seed=0)
    train, test = protocol_split(ds, 0.5, seed=0)
    rows, failures = [], []
    for kind, aug_kw, lr, epochs, dim in SMOKE_RECIPES:
        t0 = time.perf_counter()
        trained, random_ctrl, _ = _smoke_run(kind, aug_kw, lr, epochs, dim,
                                             train, test)
        elapsed = time.perf_counter() - t0
        margin = trained - random_ctrl
        rows.append(f"{kind}+{aug_kw['kind']}: trained={trained:.4f} "
                    f"random={random_ctrl:.4f} margin={margin:+.4f} {elapsed:.0f}s")
        if not (trained >= 0.85 and margin >= 0.05 and elapsed < 300.0):
            failures.append(rows[-1])
    _verdict(5, not failures, "; ".join(rows))
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# 6. metric oracles: quadratic brute force and exhaustive thresholds


def _auroc_pairwise(scores, labels):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.sum(pos > neg) + 0.5 * np.sum(pos == neg)
    return wins / (pos.size * neg.size)


def _f1_exhaustive(scores, labels):
    best = 0.0
    for t in np.unique(scores):
        pred = scores >= t
        tp = float(np.sum(pred & (labels == 1)))
        fp = float(np.sum(pred & (labels == 0)))
        fn = float(np.sum(~pred & (labels == 1)))
        denom = 2.0 * tp + fp + fn
        if denom > 0:
            best = max(best, 2.0 * tp / denom)
    return best


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(6)
    worst_auroc = worst_f1 = 0.0
    for _ in range(50):
        n = 200
        scores = rng.normal(size=n)
        tie_mask = rng.random(n) < 0.4          # coarse rounding forces ties
        scores[tie_mask] = np.round(scores[tie_mask], 1)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int64)
        labels[:2] = [0, 1]  # both classes always present
        worst_auroc = max(worst_auroc,
                          abs(auroc(scores, labels) - _auroc_pairwise(scores, labels)))
        report = optimal_threshold_metrics(scores, labels)
        worst_f1 = max(worst_f1, abs(report["f1"] - _f1_exhaustive(scores, labels)))
        # the reported threshold must actually achieve the reported numbers
        pred = scores >= report["threshold"]
        tp = float(np.sum(pred & (labels == 1)))
        denom = 2.0 * tp + float(np.sum(pred & (labels == 0))) + float(np.sum(~pred & (labels == 1)))
        assert abs(report["f1"] - (2.0 * tp / denom if denom else 0.0)) < 1e-12
    ok = worst_auroc < 1e-12 and worst_f1 < 1e-12
    _verdict(6, ok, f"50 sets x 200 points: auroc dev {worst_auroc:.1e}, "
                    f"f1 dev {worst_f1:.1e} (< 1e-12)")
    assert worst_auroc < 1e-12
    assert worst_f1 < 1e-12


# ---------------------------------------------------------------------------
# 7. augmentation statistics: corruption rates and shuffle uniformity


def test_criterion_07_augmentation_statistics():
    rng = np.random.default_rng(17)
    p = 0.15
    batch = rng.uniform(0.5, 1.5, size=(1000, 100))     # 1e5 elements, no zeros

    zero_frac = float(np.mean(zero_out(batch, p, rng) == 0.0))
    noise_frac = float(np.mean(gaussian_noise(batch, p, 0.0, 0.01, rng) != batch))
    unique = np.arange(100_000, dtype=np.float64).reshape(1000, 100)
    donors = -1.0 - np.arange(20_000, dtype=np.float64).reshape(200, 100)
    swap_frac = float(np.mean(swap_noise(unique, p, donors, rng) != unique))
    fracs = {"zero": zero_frac, "noise": noise_frac, "swap": swap_frac}

    sample = np.tile(np.arange(4.0), (10_000, 1))
    shuffled = random_shuffle(sample, rng)
    counts = Counter(map(tuple, shuffled.astype(np.int64)))
    expected = 10_000 / 24.0
    chi2 = sum((counts.get(p_, 0) - expected) ** 2 / expected
               for p_ in itertools.permutations(range(4)))
    critical = float(sstats.chi2.ppf(0.99, 23))

    frac_ok = all(abs(v - p) <= 0.01 for v in fracs.values())
    ok = frac_ok and chi2 < critical
    _verdict(7, ok, f"fractions {', '.join(f'{k}={v:.4f}' for k, v in fracs.items())} "
                    f"(target 0.15 +/- 0.01); chi2={chi2:.1f} < {critical:.1f}")
    for name, frac in fracs.items():
        assert abs(frac - p) <= 0.01, f"{name}: {frac:.4f}"
    assert len(counts) == 24
    assert chi2 < critical


# ---------------------------------------------------------------------------
# 8. split hygiene: label purity and train-only normalization


def test_criterion_08_protocol_integrity():
    ds = synth_generate(1000, 300, 12, 3.0, seed=5)
    train, test = protocol_split(ds, 0.5, seed=3)
    attack_ids = set(ds.ids[ds.labels == 1].tolist())
    purity_ok = (int(train.labels.sum()) == 0
                 and int(test.labels.sum()) == 300
                 and attack_ids <= set(test.ids.tolist()))

    # sentinel: one test-only extreme value must not shape the scaling
    n = 40
    feats = np.random.default_rng(8).uniform(0.0, 1.0, size=(n, 3))
    labels = np.zeros(n, dtype=np.int64)
    labels[-10:] = 1
    feats[-10:, 0] = 1e6
    sentinel_ds = Dataset(features=feats, labels=labels,
                          feature_names=["f0", "f1", "f2"],
                          numeric_idx=np.array([0, 1, 2]), onehot_groups={},
                          norm_stats={}, ids=np.arange(n))
    s_train, s_test = protocol_split(sentinel_ds, 0.5, seed=0)
    col = s_train.features[:, 0]
    train_scaled = col.min() >= -1e-12 and col.max() <= 1.0 + 1e-12
    sentinel_visible = s_test.features[:, 0].max() > 100.0

    ok = purity_ok and train_scaled and sentinel_visible
    _verdict(8, ok, f"train attacks=0, test attacks=300/300; sentinel in test "
                    f"maps to {s_test.features[:, 0].max():.3g} (train stays [0,1])")
    assert purity_ok
    assert train_scaled, "training split must be scaled by its own statistics"
    assert sentinel_visible, "test extreme value leaked into normalization stats"


# ---------------------------------------------------------------------------
# 9. optional full-data check (needs the real CSV; never gates CI)


UNSW_CSV = os.environ.get("NIDKIT_UNSW_CSV", "")


@pytest.mark.skipif(not UNSW_CSV, reason="set NIDKIT_UNSW_CSV to run")
def test_criterion_09_full_data_optional():
    from nidkit.data import load_csv, load_schema, preprocess

    schema = load_schema(Path(__file__).parent.parent / "schemas" / "unsw_nb15.yaml")
    raw, _ = load_csv(UNSW_CSV, schema)
    ds = preprocess(raw)
    ratio = float(ds.labels.mean())

    rng = np.random.default_rng(0)
    keep = np.sort(rng.choice(ds.n_rows, size=ds.n_rows // 10, replace=False))
    sub = Dataset(features=ds.features[keep], labels=ds.labels[keep],
                  feature_names=ds.feature_names, numeric_idx=ds.numeric_idx,
                  onehot_groups=ds.onehot_groups, norm_stats=ds.norm_stats,
                  ids=ds.ids[keep])
    train, test = protocol_split(sub, 0.5, seed=0)
    _, _, scores = _smoke_run("vicreg", {"kind": "subsets", "k": 2,
                                         "overlap_fraction": 0.0},
                              1e-3, 20, 256, train, test)
    f1 = optimal_threshold_metrics(scores, test.labels)["f1"]
    ok = (ds.n_features == 196 and abs(ratio - 0.4437) <= 0.001
          and abs(f1 - 0.798) <= 0.10)
    _verdict(9, ok, f"{ds.n_features} features, attack ratio {ratio:.4f}, "
                    f"10% subsample f1={f1:.3f} (target 0.798 +/- 0.10)")
    assert ds.n_features == 196
    assert abs(ratio - 0.4437) <= 0.001
    assert abs(f1 - 0.798) <= 0.10


# ---------------------------------------------------------------------------
# 10. determinism: identical config and seed, bit-identical metrics


def test_criterion_10_bit_identical_reruns(tmp_path):
    doc = {
        "version": 1,
        "dataset": {"synth": {"n_normal": 300, "n_attack": 80, "d": 12,
                              "separation": 6.0, "seed": 3}},
        "model": "vicreg",
        "encoder": {"kind": "mlp", "hidden_dim": 32},
        "augmentation": {"kind": "gaussian_noise", "p": 0.15, "sigma2": 0.01},
        "training": {"learning_rate": 1e-3, "epochs": 3, "batch_size": 64,
                     "projection_dim": 16},
        "runs": 1,
        "base_seed": 0,
    }
    records, scores = [], []
    for sub in ("first", "second"):
        doc_i = dict(doc, output_dir=sub)
        cfg = validate_config(doc_i, base_dir=tmp_path)
        result = run_experiment(cfg)
        rec = yaml.safe_load((result["dir"] / "run0" / "record.yaml").read_text())
        records.append(rec)
        scores.append((result["dir"] / "run0" / "scores.csv").read_bytes())
    same_metrics = records[0]["metrics"] == records[1]["metrics"]
    same_losses = (records[0]["loss_first"] == records[1]["loss_first"]
                   and records[0]["loss_last"] == records[1]["loss_last"])
    ok = same_metrics and same_losses and scores[0] == scores[1]
    _verdict(10, ok, f"metrics {records[0]['metrics']['auroc']:.12f} reproduced "
                     f"bit-identically (scores byte-equal: {scores[0] == scores[1]})")
    assert same_metrics
    assert same_losses
    assert scores[0] == scores[1]
