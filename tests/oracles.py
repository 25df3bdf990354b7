"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own code paths: gradients
come from central finite differences on the raw numpy arrays, ranking metrics
from O(n^2) pairwise counting, thresholds from exhaustive enumeration, CSV
ingest from a row-by-row parse and a per-row dedup key. Two exceptions:
``cnn_stage_shapes`` runs an encoder's own stages one at a time to audit the
shape each one produces, and ``exp``, ``power``, ``negate``, ``log``,
``softmax`` and ``batched_matmul`` record themselves on the library's tape
(no model uses them) so the gradient suites and the composed attention can
drive the tape through them. ``composed_layers`` swaps the library's
normalisation and attention layers for their forwards composed of small tape
ops, the references for the fused ``normalize`` and ``attention``.
"""

import csv
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from nidkit import nn, tensor as T
from nidkit.data import DataError, Dataset, RawTable, SchemaError
from nidkit.tensor import Tensor


def cnn_stage_shapes(encoder, x):
    """(channels, width) after each stage of a CNNEncoder, found by running
    its stages one at a time on ``x``."""
    h = T.reshape(x, (x.shape[0], encoder.input_width, 1))
    shapes = []
    with T.no_grad():
        for stage in encoder.stages:
            h = stage(h)
            shapes.append((h.shape[2], h.shape[1]))
    return shapes


def exp(a):
    """Elementwise exp as a tape op: d exp(a) = exp(a) da."""
    out = np.exp(a.values)
    return T._result(out, (a,), lambda g: (g * out,))


def power(a, exponent):
    """Elementwise power as a tape op: d a^p = p a^(p - 1) da."""
    av, p = a.values, float(exponent)
    return T._result(np.power(av, p), (a,), lambda g: (g * p * np.power(av, p - 1.0),))


def negate(a):
    """Elementwise negation as a tape op."""
    return T._result(-a.values, (a,), lambda g: (-g,))


def log(a):
    """Elementwise log as a tape op, d log(a) = da / a; a non-positive input
    raises ``DomainError`` as the library's ops do."""
    av = a.values
    if np.any(av <= 0.0):
        raise T.DomainError("log: non-positive input")
    return T._result(np.log(av), (a,), lambda g: (g / av,))


def batched_matmul(a, b):
    """``a @ b`` over stacks of matrices with equal leading dims as a tape op;
    the library's ``matmul`` takes two matrices only."""
    av, bv = a.values, b.values
    return T._result(av @ bv, (a, b),
                     lambda g: (g @ bv.swapaxes(-1, -2), av.swapaxes(-1, -2) @ g))


def softmax(a, axis=-1):
    """Softmax as a tape op: dS = S * (dA - sum(dA * S)) along ``axis``."""
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_v = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_v).sum(axis=axis, keepdims=True)
        return (out_v * (g - dot),)

    return T._result(out_v, (a,), bwd)


def batch_norm_composed(bn, x):
    """``nn.BatchNorm1d.forward`` composed of mean, var, sub, div, sqrt, mul
    and add ops; training mode folds the batch statistics into the running
    ones as the layer does, after the join inside a branch."""
    if x.ndim != 2 or x.shape[1] != bn.num_features:
        raise T.ShapeError(f"batch_norm: expected (b, {bn.num_features}), got {x.shape}")
    if bn.training:
        if x.shape[0] < 2:
            raise nn.BatchSizeError("batch_norm: training mode needs batch size >= 2")
        mean = T.tmean(x, axis=0)
        var = T.tvar(x, axis=0)
        m = nn.BN_MOMENTUM

        def fold():
            bn.running_mean.values = (1 - m) * bn.running_mean.values + m * mean.values
            bn.running_var.values = (1 - m) * bn.running_var.values + m * var.values
        T.defer(fold)
    else:
        mean = bn.running_mean.detach()
        var = bn.running_var.detach()
    inv = T.div(T.sub(x, mean), T.sqrt(T.add(var, Tensor(np.full(
        bn.num_features, nn.NORM_EPS, dtype=x.dtype)))))
    return T.add(T.mul(inv, bn.gamma), bn.beta)


def layer_norm_composed(ln, x):
    """``nn.LayerNorm.forward`` composed of small tape ops."""
    if x.shape[-1] != ln.dim:
        raise T.ShapeError(f"layer_norm: last axis {x.shape[-1]} != {ln.dim}")
    mean = T.tmean(x, axis=-1, keepdims=True)
    var = T.tvar(x, axis=-1, keepdims=True)
    eps = Tensor(np.asarray(nn.NORM_EPS, dtype=x.dtype))
    xhat = T.div(T.sub(x, mean), T.sqrt(T.add(var, eps)))
    return T.add(T.mul(xhat, ln.gamma), ln.beta)


def attention_composed(mha, x):
    """``nn.MultiHeadAttention.forward`` composed of reshape, transpose,
    :func:`batched_matmul`, mul, :func:`softmax` and the ``Dropout`` layer's
    float mask, drawn from the layer's generator at the same point. The
    weights are key-major, (t_keys, b, heads, t_queries), as in the fused
    op: the scores are k q^T and the softmax runs over axis 0."""
    if x.ndim != 3 or x.shape[-1] != mha.dim:
        raise T.ShapeError(f"attention: expected (b, t, {mha.dim}), got {x.shape}")
    b, t, _ = x.shape

    def split(h):
        return T.transpose(T.reshape(h, (b, t, mha.heads, mha.dim // mha.heads)), (0, 2, 1, 3))

    q, k, v = split(mha.wq(x)), split(mha.wk(x)), split(mha.wv(x))
    scores = T.transpose(batched_matmul(k, T.transpose(q, (0, 1, 3, 2))), (2, 0, 1, 3))
    scores = T.mul(scores, Tensor(np.asarray(1.0 / np.sqrt(mha.dim // mha.heads), dtype=x.dtype)))
    weights = mha.drop(softmax(scores, axis=0))                     # (t, b, h, t)
    ctx = batched_matmul(T.transpose(weights, (1, 2, 3, 0)), v)     # (b, h, t, hd)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, t, mha.dim))
    return mha.wo(ctx)


@contextmanager
def composed_layers():
    """Run every ``BatchNorm1d``, ``LayerNorm`` and ``MultiHeadAttention``
    on the composed forwards above while the block lasts."""
    saved = [(cls, cls.forward) for cls in (nn.BatchNorm1d, nn.LayerNorm,
                                            nn.MultiHeadAttention)]
    nn.BatchNorm1d.forward = batch_norm_composed
    nn.LayerNorm.forward = layer_norm_composed
    nn.MultiHeadAttention.forward = attention_composed
    try:
        yield
    finally:
        for cls, forward in saved:
            cls.forward = forward


def _binary_with_both_gradients(op, name):
    """``op`` with a backward rule that returns the gradient of each Tensor
    operand whether it needs one or not; a float operand gets none."""
    rules = {
        "add": lambda g, av, bv: (g, g),
        "sub": lambda g, av, bv: (g, -g),
        "mul": lambda g, av, bv: (g * bv, g * av),
        "div": lambda g, av, bv: (g / bv, -g * av / (bv * bv)),
    }

    def full(a, b):
        out = op(a, b)
        tape = T._state.tape
        if tape and tape[-1].output is out:
            av, bv = (t.values if isinstance(t, Tensor) else t for t in (a, b))
            tape[-1].backward_fn = lambda g: tuple(
                T._unbroadcast(gr, t.shape) for gr, t in zip(rules[name](g, av, bv), (a, b))
                if isinstance(t, Tensor))
        return out

    return full


@contextmanager
def both_operand_gradients():
    """Run ``add``, ``sub``, ``mul`` and ``div`` with backward rules that
    compute the gradient of an operand that needs none, while the block lasts."""
    saved = {name: getattr(T, name) for name in ("add", "sub", "mul", "div")}
    for name, op in saved.items():
        setattr(T, name, _binary_with_both_gradients(op, name))
    try:
        yield
    finally:
        for name, op in saved.items():
            setattr(T, name, op)


def as_dtype(module, dtype=np.float64):
    """``module`` with every parameter and buffer cast to ``dtype``. Layers
    build float32 (``nidkit.tensor.DTYPE``); the finite-difference checks and
    the tests that pin float64 precision build float64 modules through this."""
    for _, t in module.named_tensors():
        t.values = t.values.astype(dtype)
    return module


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


def load_csv_rowwise(path, schema, max_reject_fraction=0.1):
    """Reference for ``data.load_csv``: one row at a time, one cell at a time.

    The first bad numeric cell of a row rejects it: a non-number, or a value
    that parses to +-inf. A duplicated header name is left to ``load_csv``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in header]
        expected = set(schema.columns) | {schema.label_column} | set(schema.drop)
        missing = (set(schema.columns) | {schema.label_column}) - set(header)
        unknown = set(header) - expected
        if missing or unknown:
            raise SchemaError(
                f"{path}: header mismatch (missing {sorted(missing)}, unknown {sorted(unknown)})")

        keep = [i for i, h in enumerate(header) if h not in schema.drop]
        names = [header[i] for i in keep]
        rows, rejects = [], []
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if len(row) != len(header):
                rejects.append({"row": lineno, "reason": f"expected {len(header)} fields, got {len(row)}"})
                continue
            parsed, bad = [], None
            for i in keep:
                name, value = header[i], row[i].strip()
                if name == schema.label_column:
                    parsed.append(value)
                elif schema.columns[name] == "numeric":
                    if value == "":
                        parsed.append(np.nan)
                    else:
                        try:
                            number = float(value)
                        except ValueError:
                            bad = f"non-numeric value {value!r} in column {name!r}"
                            break
                        if number in (float("inf"), float("-inf")):
                            bad = f"non-finite value {value!r} in column {name!r}"
                            break
                        parsed.append(number)
                else:
                    parsed.append(value)
            if bad:
                rejects.append({"row": lineno, "reason": bad})
            else:
                rows.append(parsed)

    total = len(rows) + len(rejects)
    if total and len(rejects) / total > max_reject_fraction:
        raise DataError(
            f"{path}: {len(rejects)}/{total} rows rejected "
            f"(> {max_reject_fraction:.0%})")

    cells = {}
    kinds = {}
    for j, name in enumerate(names):
        column = [r[j] for r in rows]
        if name == schema.label_column:
            kinds[name] = "label"
            cells[name] = np.array(column, dtype=object)
        elif schema.columns[name] == "numeric":
            kinds[name] = "numeric"
            cells[name] = np.array(column, dtype=np.float64)
        else:
            kinds[name] = "categorical"
            cells[name] = np.array(column, dtype=object)
    return RawTable(columns=names, kinds=kinds, cells=cells,
                    normal_values=set(schema.normal_values)), rejects


def preprocess_rowwise(raw):
    """Reference for ``data.preprocess``: a tuple of ``str`` cells as each
    row's dedup key, a per-row one-hot loop, one block per column."""
    label_cols = [c for c in raw.columns if raw.kinds[c] == "label"]
    if len(label_cols) != 1:
        raise SchemaError(f"expected exactly one label column, found {label_cols}")
    label_col = label_cols[0]
    feat_cols = [c for c in raw.columns if c != label_col]

    # 1. drop rows with any missing value
    n = raw.n_rows
    keep = np.ones(n, dtype=bool)
    for c in feat_cols:
        col = raw.cells[c]
        if raw.kinds[c] == "numeric":
            keep &= ~np.isnan(col.astype(np.float64))
        else:
            keep &= np.array([v is not None and str(v) != "" for v in col])
    keep &= np.array([v is not None and str(v) != "" for v in raw.cells[label_col]])
    row_ids = np.flatnonzero(keep)
    if not len(row_ids):
        raise DataError(f"no rows left after dropping rows with missing values "
                        f"({n} read)")

    cols = {c: raw.cells[c][keep] for c in feat_cols}
    labels_raw = raw.cells[label_col][keep]

    # 2. drop duplicated feature columns (identical value sequences), keep first
    kept_cols, seen = [], {}
    for c in feat_cols:
        col = cols[c]
        key = col.tobytes() if col.dtype != object else col.astype(str).tobytes()
        if key in seen:
            warnings.warn(f"dropping column {c!r}: duplicate of {seen[key]!r}")
            continue
        seen[key] = c
        kept_cols.append(c)

    # 3. drop duplicated rows (features + label)
    labels = np.array([0 if str(v) in raw.normal_values else 1 for v in labels_raw],
                      dtype=np.int64)
    row_keys = {}
    row_keep = []
    for i in range(len(labels)):
        key = tuple(str(cols[c][i]) for c in kept_cols) + (labels[i],)
        if key not in row_keys:
            row_keys[key] = i
            row_keep.append(i)
    row_keep = np.asarray(row_keep, dtype=np.int64)
    cols = {c: cols[c][row_keep] for c in kept_cols}
    labels = labels[row_keep]
    row_ids = row_ids[row_keep]

    # 4. one-hot encode categoricals; 5. min-max normalize numerics
    blocks, names = [], []
    numeric_idx, onehot_groups, norm_stats = [], {}, {}
    for c in kept_cols:
        if raw.kinds[c] == "numeric":
            col = cols[c].astype(np.float64)
            lo, hi = float(col.min()), float(col.max())
            if hi == lo:
                warnings.warn(f"dropping constant numeric column {c!r}")
                continue
            numeric_idx.append(len(names))
            norm_stats[c] = (lo, hi)
            names.append(c)
            blocks.append(((col - lo) / (hi - lo))[:, None])
        else:
            cats = sorted(set(str(v) for v in cols[c]))
            if len(cats) < 2:
                warnings.warn(f"dropping single-category column {c!r}")
                continue
            start = len(names)
            lookup = {v: k for k, v in enumerate(cats)}
            hot = np.zeros((len(labels), len(cats)))
            for i, v in enumerate(cols[c]):
                hot[i, lookup[str(v)]] = 1.0
            blocks.append(hot)
            names.extend(f"{c}={v}" for v in cats)
            onehot_groups[c] = list(range(start, start + len(cats)))

    if not blocks:
        raise DataError("no usable feature columns after preprocessing")
    features = np.hstack(blocks)
    return Dataset(features=features, labels=labels, feature_names=names,
                   numeric_idx=np.asarray(numeric_idx, dtype=np.int64),
                   onehot_groups=onehot_groups, norm_stats=norm_stats,
                   ids=row_ids)
