"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own code paths: gradients
come from central finite differences on the raw numpy arrays, ranking metrics
from O(n^2) pairwise counting, thresholds from exhaustive enumeration. The
one exception, ``cnn_stage_shapes``, runs an encoder's own stages one at a
time to audit the shape each one produces.
"""

import numpy as np

from nidkit import tensor as T


def cnn_stage_shapes(encoder, x):
    """(channels, width) after each stage of a CNNEncoder, found by running
    its stages one at a time on ``x``."""
    h = T.reshape(x, (x.shape[0], 1, 1, encoder.input_width))
    shapes = []
    with T.no_grad():
        for stage in encoder.stages:
            h = stage(h)
            shapes.append((h.shape[1], h.shape[3]))
    return shapes


def finite_difference_grad(fn, arrays, wrt, h=1e-5):
    """Central-difference gradient of scalar-valued ``fn`` w.r.t. arrays[wrt].

    fn receives the list of numpy arrays and must return a python float.
    """
    x = arrays[wrt]
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(arrays)
        flat[i] = orig - h
        fm = fn(arrays)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def assert_grad_close(g_ad, g_fd, rtol=1e-4, atol=1e-6, label=""):
    """Relative-error comparison with an absolute floor for near-zero entries."""
    g_ad = np.asarray(g_ad, dtype=np.float64)
    g_fd = np.asarray(g_fd, dtype=np.float64)
    assert g_ad.shape == g_fd.shape, f"{label}: grad shape {g_ad.shape} vs fd {g_fd.shape}"
    denom = np.maximum(np.abs(g_fd), atol / rtol)
    rel = np.abs(g_ad - g_fd) / denom
    worst = float(rel.max()) if rel.size else 0.0
    assert worst < rtol, f"{label}: max relative gradient error {worst:.3e} >= {rtol:g}"


def check_tensor_grad(build, arrays, rtol=1e-4, h=1e-5, label=""):
    """End-to-end gradient check of a tape-recorded scalar.

    ``build`` maps a list of Tensors to a scalar Tensor. Each input has its
    AD gradient compared against the finite-difference oracle.
    """
    def scalar_fn(arrs):
        T.reset_tape()
        with T.no_grad():
            out = build([T.Tensor(a) for a in arrs])
        return float(out.values)

    T.reset_tape()
    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(tensors)
    T.backward(loss)
    for k, t in enumerate(tensors):
        g_fd = finite_difference_grad(scalar_fn, [a.copy() for a in arrays], k, h=h)
        g_ad = t.grad if t.grad is not None else np.zeros_like(t.values)
        assert_grad_close(g_ad, g_fd, rtol=rtol, label=f"{label}[arg{k}]")
    T.reset_tape()


def check_module_grad(module, input_arrays, forward, rtol=1e-4, h=1e-5,
                      label="", seed=0, check_inputs=True,
                      max_coords_per_param=None):
    """FD-vs-tape check of a module's parameter (and input) gradients.

    ``forward`` maps (module, [Tensor inputs]) to a Tensor of any shape; the
    probed scalar is a fixed random weighting of its entries. For large
    parameter tensors, ``max_coords_per_param`` samples that many coordinates
    per tensor instead of sweeping all of them.
    """
    rng = np.random.default_rng(seed)
    probe = None

    def scalar():
        nonlocal probe
        T.reset_tape()
        with T.no_grad():
            out = forward(module, [T.Tensor(a) for a in input_arrays])
        if probe is None:
            probe = rng.normal(size=out.shape)
        return float(np.sum(out.values * probe))

    base = scalar()  # fixes the probe shape
    assert np.isfinite(base), f"{label}: non-finite forward"

    T.reset_tape()
    inputs = [T.Tensor(a.copy(), requires_grad=True) for a in input_arrays]
    out = forward(module, inputs)
    T.backward(T.tsum(T.mul(out, T.Tensor(probe))))

    for name, p in module.named_parameters():
        g_ad_full = p.grad if p.grad is not None else np.zeros_like(p.values)
        flat_v = p.values.reshape(-1)
        flat_ad = g_ad_full.reshape(-1)
        if max_coords_per_param is not None and flat_v.size > max_coords_per_param:
            coords = rng.choice(flat_v.size, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(flat_v.size)
        g_fd = np.empty(len(coords))
        for pos, i in enumerate(coords):
            orig = flat_v[i]
            flat_v[i] = orig + h
            fp = scalar()
            flat_v[i] = orig - h
            fm = scalar()
            flat_v[i] = orig
            g_fd[pos] = (fp - fm) / (2.0 * h)
        assert_grad_close(flat_ad[coords], g_fd, rtol=rtol, label=f"{label}:{name}")

    if check_inputs:
        for k, t in enumerate(inputs):
            g_fd = finite_difference_grad(
                lambda arrs: _module_scalar(module, forward, arrs, probe),
                [a.copy() for a in input_arrays], k, h=h)
            g_ad = t.grad if t.grad is not None else np.zeros_like(t.values)
            assert_grad_close(g_ad, g_fd, rtol=rtol, label=f"{label}:input{k}")
    module.zero_grad()
    T.reset_tape()


def _module_scalar(module, forward, arrays, probe):
    T.reset_tape()
    with T.no_grad():
        out = forward(module, [T.Tensor(a) for a in arrays])
    return float(np.sum(out.values * probe))


def auroc_bruteforce(scores, labels):
    """Pairwise Mann-Whitney AUROC: P(score_pos > score_neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


def f1_at_threshold(scores, labels, thr):
    pred = scores >= thr
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def best_threshold_bruteforce(scores, labels):
    """Exhaustive scan over distinct scores; ties favor the smaller threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    best_thr, best_f1 = None, -1.0
    for thr in sorted(set(scores.tolist())):
        f1 = f1_at_threshold(scores, labels, thr)
        if f1 > best_f1:
            best_f1, best_thr = f1, thr
    return best_thr, best_f1
