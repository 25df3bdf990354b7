"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Operations executed while gradient recording is enabled are appended to the
calling thread's tape. ``backward`` replays the tape in reverse and
accumulates gradients onto leaf tensors flagged with ``requires_grad``. The
tape is intended to live for a single training step: call ``reset_tape``
(or use the optimizer helpers in :mod:`nidkit.nn`) after each update.

Every op is a module function (``add``, ``mul``, ``matmul``, ...) on
``Tensor`` operands; ``Tensor`` defines no arithmetic operators, only
indexing (``t[key]`` is :func:`take`). The four binary ops ``add``, ``sub``,
``mul`` and ``div`` share one rule, and either operand may be a Python
float: a constant that keeps the other operand's dtype and is no tape input.

``branches`` runs independent parts of a step, such as the views of an SSL
step, on threads of their own, each recording on a sub-tape; ``backward``
sweeps those sub-tapes on threads too and adds their leaf gradients in the
order one tape would have, so a step gives the same bits on any number of
threads.

All linear algebra runs on numpy, so every BLAS and LAPACK call goes through
numpy's one OpenBLAS thread pool. GELU takes its erf from numpy ufuncs
too (Abramowitz & Stegun 7.1.26, in the input's dtype), so no op needs scipy.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import threads

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "DecompositionError",
    "SingularityError",
    "no_grad",
    "reset_tape",
    "tape_length",
    "grad_enabled",
    "branches",
    "defer",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "sqrt",
    "relu",
    "gelu",
    "matmul",
    "linear",
    "conv1xw",
    "maxpool1xk",
    "attention",
    "tsum",
    "tmean",
    "tvar",
    "normalize",
    "reshape",
    "transpose",
    "take",
    "diagonal",
    "concat",
    "cholesky",
    "triangular_solve",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Input values fall outside the mathematical domain of the operation."""


class DecompositionError(ArithmeticError):
    """Cholesky factorization failed; ``pivot`` is the failing pivot index."""

    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot


class SingularityError(ArithmeticError):
    """Triangular solve hit a zero diagonal element."""


ArrayLike = Union[float, int, Sequence, np.ndarray]

# the compute dtype: every layer builds its parameters and buffers in it and
# the protocol split emits its features in it, so a run computes in it
# throughout. Statistics, scores and metrics stay float64.
DTYPE = np.float32

# ---------------------------------------------------------------------------
# Tape machinery


class _OpRecord:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: "Tensor", inputs: tuple, backward_fn: Callable):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class _Branches:
    """The record ``branches`` leaves on the caller's tape: one sub-tape per
    branch, in branch order."""

    __slots__ = ("tapes",)

    def __init__(self, tapes: list):
        self.tapes = tapes


class _ThreadState(threading.local):
    """A thread's recording state: its tape, its grad flag and, while it
    runs a branch, the calls the branch defers. A new thread starts with an
    empty tape and recording on."""

    def __init__(self):
        self.tape: list = []
        self.grad_enabled = True
        self.deferred: Optional[list] = None


_state = _ThreadState()
# id(factor values) -> (factor values, inverse of their lower triangle), for
# the triangular factors of recorded ops; it lives as long as the tape does
_inverses: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def reset_tape() -> None:
    """Drop every operation this thread recorded. Call between training
    steps."""
    _state.tape = []
    _inverses.clear()


def _ops(tape: list):
    """The op records of ``tape``, its branches' included."""
    for rec in tape:
        if type(rec) is _Branches:
            for sub in rec.tapes:
                yield from _ops(sub)
        else:
            yield rec


def tape_length() -> int:
    """Ops on this thread's tape, each branch's counted: the length of the
    one tape the same step would record without branches."""
    return sum(1 for _ in _ops(_state.tape))


def grad_enabled() -> bool:
    """Whether operations are recorded (False inside ``no_grad``)."""
    return _state.grad_enabled


class no_grad:
    """Context manager that disables gradient recording on this thread."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def _record(output: "Tensor", inputs: tuple, backward_fn: Callable) -> None:
    _state.tape.append(_OpRecord(output, inputs, backward_fn))


def branches(fns: Sequence[Callable]) -> list:
    """Call each of ``fns`` with no arguments as one branch of a step; return
    their results in order.

    The branches run on up to :func:`nidkit.threads.budget` threads, or
    inline on the calling thread at a budget of 1. Each records on a sub-tape
    of its own under the caller's grad flag, and the caller's tape gets one
    record holding the sub-tapes. A branch may read leaves and the caller's
    tensors but no other branch's. Calls a branch ``defer``s run on the
    calling thread after every branch has returned, in branch order.
    """
    grad = _state.grad_enabled
    tapes = [[] for _ in fns]
    deferred = [[] for _ in fns]

    def run(i):
        saved = _state.tape, _state.grad_enabled, _state.deferred
        _state.tape, _state.grad_enabled, _state.deferred = tapes[i], grad, deferred[i]
        try:
            return fns[i]()
        finally:
            _state.tape, _state.grad_enabled, _state.deferred = saved

    results = threads.each(run, len(fns))
    if any(tapes):
        _state.tape.append(_Branches(tapes))
    for calls in deferred:
        for fn in calls:
            defer(fn)
    return results


def defer(fn: Callable) -> None:
    """Call ``fn()`` now or, inside a branch, once every branch has returned:
    for work that must run in branch order, such as updating shared state."""
    if _state.deferred is None:
        fn()
    else:
        _state.deferred.append(fn)


# ---------------------------------------------------------------------------
# Tensor


class Tensor:
    """Dense n-dimensional array that can participate in gradient recording.

    ``values`` is always a float numpy array: a float input keeps its dtype,
    anything else becomes float64. ``grad`` is populated by ``backward`` and has
    the same shape as ``values``; repeated backward calls accumulate into it.
    """

    __slots__ = ("values", "requires_grad", "grad", "is_leaf")

    def __init__(self, values: ArrayLike, requires_grad: bool = False):
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.is_leaf = True

    # -- introspection ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, key):
        return take(self, key)

    # -- graph management ---------------------------------------------------

    def detach(self) -> "Tensor":
        """Return a leaf sharing this tensor's values, cut from the tape."""
        return Tensor(self.values, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.values.dtype, copy=True)
        else:
            self.grad = self.grad + g


def _needs_grad(inputs: tuple) -> bool:
    """Whether an op on ``inputs`` is recorded: the tape is on and some input
    needs a gradient. An op that is not may work in place on its own
    temporaries."""
    return _state.grad_enabled and any(t.requires_grad for t in inputs)


def _result(values: np.ndarray, inputs: tuple, backward_fn: Optional[Callable]) -> Tensor:
    out = Tensor(values)
    out.is_leaf = False
    if _needs_grad(inputs):
        out.requires_grad = True
        _record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise primitives


Operand = Union[Tensor, float]

# name -> (forward, gradient rule of a, gradient rule of b); a rule maps the
# output gradient and both operands' values to its operand's gradient
_BINARY = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


def _binary(name: str, a: Operand, b: Operand) -> Tensor:
    """The binary op ``name`` on two operands that broadcast, either of them
    a Tensor or a Python float.

    A float is a constant: weak-typed under NumPy 2's promotion rules, so
    the result keeps the Tensor's dtype, and no tape input. The backward
    unbroadcasts each Tensor operand's gradient to its shape and, like
    linear's, skips an operand that does not require one, such as raw
    features.
    """
    forward, rule_a, rule_b = _BINARY[name]
    av = a.values if isinstance(a, Tensor) else float(a)
    bv = b.values if isinstance(b, Tensor) else float(b)
    try:
        out = forward(av, bv)
    except ValueError:
        raise ShapeError(f"{name}: shapes {np.shape(av)} and {np.shape(bv)} "
                         f"do not broadcast") from None
    operands = [(t, rule) for t, rule in ((a, rule_a), (b, rule_b)) if isinstance(t, Tensor)]

    def bwd(g):
        return tuple(_unbroadcast(rule(g, av, bv), t.shape) if t.requires_grad else None
                     for t, rule in operands)

    return _result(out, tuple(t for t, _ in operands), bwd)


def add(a: Operand, b: Operand) -> Tensor:
    return _binary("add", a, b)


def sub(a: Operand, b: Operand) -> Tensor:
    return _binary("sub", a, b)


def mul(a: Operand, b: Operand) -> Tensor:
    return _binary("mul", a, b)


def div(a: Operand, b: Operand) -> Tensor:
    if np.any((b.values if isinstance(b, Tensor) else b) == 0.0):
        raise DomainError("div: divisor contains zero elements")
    return _binary("div", a, b)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0.0):
        raise DomainError("sqrt: negative input")
    out_v = np.sqrt(a.values)

    def bwd(g):
        return (g * 0.5 / out_v,)

    return _result(out_v, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    """max(a, 0); a NaN input stays NaN (and passes no gradient)."""
    av = a.values

    def bwd(g):
        return (g * (av > 0.0),)

    return _result(np.maximum(av, 0.0), (a,), bwd)


# Python floats, which keep a float32 input float32
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Abramowitz & Stegun 7.1.26: p and a5 ... a1, for Horner's rule
_ERF_P = 0.3275911
_ERF_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)


def _erf(z: np.ndarray) -> np.ndarray:
    """erf(z) written over ``z``, in its dtype, by Abramowitz & Stegun 7.1.26:
    ``1 - t (a1 + a2 t + ... + a5 t^4) exp(-z^2)`` with ``t = 1 / (1 + p |z|)``,
    signed as ``z``; its absolute error is at most 1.5e-7."""
    a = np.abs(z)
    t = a * _ERF_P
    t += 1.0
    np.reciprocal(t, out=t)
    poly = t * _ERF_A[0]
    for c in _ERF_A[1:]:
        poly += c
        poly *= t
    with np.errstate(over="ignore"):    # a huge |z| squares to inf: exp(-inf) is 0
        np.square(a, out=a)
    np.negative(a, out=a)
    poly *= np.exp(a, out=a)
    np.subtract(1.0, poly, out=poly)
    # z's sign bit onto |poly| (its sign bit cleared), in place: faster than np.copysign
    sign = z.dtype.type(-0.0).view(f"u{z.itemsize}")
    zb, pb = z.view(sign.dtype), poly.view(sign.dtype)
    zb &= sign
    zb |= np.bitwise_and(pb, ~sign, out=pb)
    return z


def gelu(a: Tensor) -> Tensor:
    """The erf-based (not the tanh) Gaussian error linear unit, ``a * cdf(a)``,
    with erf by Abramowitz & Stegun 7.1.26 (:func:`_erf`). On [-10, 10] it is
    within 2.1e-7 of the float64 scipy GELU for a float64 input and 4.6e-7
    for a float32 one. Off the tape the product is taken in place in
    ``cdf``'s buffer."""
    av = a.values
    cdf = _erf(av * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    if not _needs_grad((a,)):
        cdf *= av
        return _result(cdf, (a,), None)

    def bwd(g):
        pdf = np.exp(-0.5 * av * av) * _INV_SQRT_2PI
        return (g * (cdf + av * pdf),)

    return _result(av * cdf, (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The product of an (m, k) and a (k, n) matrix."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: expected (m, k) x (k, n) matrices, got {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    return _result(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` as one op and one (M, K) x (K, N) GEMM: the
    leading dims of ``x`` fold into M, in the forward and the backward, and
    the bias is added in place. The backward skips the gradient of any
    input that does not require one, such as a batch of raw features."""
    xv, wv = x.values, weight.values
    if xv.ndim < 2 or wv.ndim != 2 or xv.shape[-1] != wv.shape[0]:
        raise ShapeError(f"linear: input {xv.shape} and weight {wv.shape} disagree")
    k, n = wv.shape
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"linear: bias {bias.shape} for {n} outputs")
    out = xv.reshape(-1, k) @ wv
    if bias is not None:
        out += bias.values

    def bwd(g):
        g2 = g.reshape(-1, n)
        grads = ((g2 @ wv.T).reshape(xv.shape) if x.requires_grad else None,
                 xv.reshape(-1, k).T @ g2 if weight.requires_grad else None)
        if bias is None:
            return grads
        return grads + (g2.sum(axis=0) if bias.requires_grad else None,)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _result(out.reshape(*xv.shape[:-1], n), inputs, bwd)


def conv1xw(x: Tensor, weight: Tensor, bias: Tensor, kernel_width: int) -> Tensor:
    """Valid 1-row cross-correlation of a channel-last (b, W, C) map.

    ``weight`` is (C * kw, O) with row c * kw + j holding tap j of input
    channel c, so ``weight[j::kw]`` is tap j's (C, O) matrix. The output
    (b, wo, O), wo = W - kw + 1, is ``sum_j x[:, j:j + wo] @ weight[j::kw]
    + bias``: one GEMM per tap over all b * wo positions, with no window
    buffer. The backward adds each tap's input gradient into its shifted
    slice, and ``x`` is all it keeps; like :func:`linear`'s, it skips the
    gradient of an input that does not require one.
    """
    xv, wv = x.values, weight.values
    kw = kernel_width
    if xv.ndim != 3 or wv.ndim != 2 or wv.shape[0] != xv.shape[2] * kw:
        raise ShapeError(f"conv1xw: map {xv.shape} and weight {wv.shape} disagree "
                         f"for kernel width {kw}")
    b, w, c = xv.shape
    o = wv.shape[1]
    wo = w - kw + 1
    if wo < 1:
        raise ShapeError(f"conv1xw: width {w} < kernel width {kw}")

    def tap(j):
        return xv[:, j:j + wo].reshape(b * wo, c)

    out = tap(0) @ wv[0::kw]
    for j in range(1, kw):
        out += tap(j) @ wv[j::kw]
    out += bias.values

    def bwd(g):
        g2 = g.reshape(b * wo, o)
        gx = np.zeros_like(xv) if x.requires_grad else None
        gw = np.empty_like(wv) if weight.requires_grad else None
        for j in range(kw):
            if gx is not None:
                gx[:, j:j + wo] += (g2 @ wv[j::kw].T).reshape(b, wo, c)
            if gw is not None:
                gw[j::kw] = tap(j).T @ g2
        return gx, gw, g2.sum(axis=0) if bias.requires_grad else None

    return _result(out.reshape(b, wo, o), (x, weight, bias), bwd)


def maxpool1xk(x: Tensor, k: int) -> Tensor:
    """Max over non-overlapping width windows of a channel-last (b, W, C)
    map; stride ``k``, the last ``W % k`` positions are dropped.

    The backward routes each window's gradient to its first maximum, as
    ``argmax`` would, and gives the dropped positions none.
    """
    xv = x.values
    if xv.ndim != 3:
        raise ShapeError(f"maxpool1xk: expected a (b, W, C) map, got {xv.shape}")
    b, w, c = xv.shape
    wo = w // k
    if wo < 1:
        raise ShapeError(f"maxpool1xk: width {w} < window {k}")
    windows = xv[:, :wo * k].reshape(b, wo, k, c)
    out_v = windows.max(axis=2)

    def bwd(g):
        gx = np.empty_like(xv)
        gx[:, wo * k:] = 0.0
        gw = gx[:, :wo * k].reshape(b, wo, k, c)
        open_ = np.ones(out_v.shape, dtype=bool)     # windows not yet routed
        for j in range(k):
            hit = windows[:, :, j] == out_v
            hit &= open_
            np.multiply(g, hit, out=gw[:, :, j])
            open_ &= ~hit
        return (gx,)

    return _result(out_v, (x,), bwd)


# batch rows per block of the attention forward: a block's (t, rows, heads, t)
# weights stay in cache between the softmax passes
_ATTENTION_ROWS = 64


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              mask: Optional[np.ndarray] = None, keep: float = 1.0) -> Tensor:
    """Multi-head scaled dot-product attention over (b, t, d) projections.

    The last axis splits into ``heads`` heads of hd = d / heads; per head
    the weights are P = softmax(q k^T / sqrt(hd)) over the keys, held
    key-major as (t_keys, b, heads, t_queries): the softmax reduces over the
    outer axis. ``mask``, a boolean array in that layout, is inverted
    dropout on P: it keeps a weight, scaled by 1 / ``keep``, or drops it.
    The context P v of every head is merged back to (b, t, d).

    The forward walks the batch in blocks of ``_ATTENTION_ROWS`` rows and
    works in place, in the kept P on the tape and else in one scratch buffer
    for every block; each row meets the same float operations in the same
    order whatever the block, so the output does not depend on the block
    size. On the tape the op keeps q, k, v, P and the mask, and its backward
    has the closed form of softmax and matmul.
    """
    qv, kv, vv = q.values, k.values, v.values
    if qv.ndim != 3 or kv.shape != qv.shape or vv.shape != qv.shape:
        raise ShapeError(f"attention: q {qv.shape}, k {kv.shape} and v {vv.shape} "
                         f"must be one (b, t, d) shape")
    b, t, d = qv.shape
    if d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    if mask is not None and mask.shape != (t, b, heads, t):
        raise ShapeError(f"attention: mask {mask.shape} for weights {(t, b, heads, t)}")
    hd = d // heads
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=qv.dtype)
    inv_keep = 1.0 / keep

    def split(a):
        return a.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)     # a view

    qh, kh, vh = split(qv), split(kv), split(vv)
    inputs = (q, k, v)
    taped = _needs_grad(inputs)
    weights = np.empty((t, b, heads, t), dtype=qv.dtype) if taped else None
    scratch = np.empty((t, min(b, _ATTENTION_ROWS), heads, t), dtype=qv.dtype)
    ctx = np.empty((b, t, heads, hd), dtype=qv.dtype)
    for start in range(0, b, _ATTENTION_ROWS):
        rows = slice(start, start + _ATTENTION_ROWS)
        free = scratch[:, :b - start]
        p = weights[:, rows] if taped else free
        np.matmul(kh[rows], qh[rows].transpose(0, 1, 3, 2), out=p.transpose(1, 2, 0, 3))
        p *= scale
        p -= np.maximum.reduce(p, axis=0)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=0)
        if mask is not None:
            p = np.multiply(p, mask[:, rows], out=free)
            p *= inv_keep
        np.matmul(p.transpose(1, 2, 3, 0), vh[rows], out=ctx[rows].transpose(0, 2, 1, 3))
    ctx = ctx.reshape(b, t, d)
    if not taped:
        return _result(ctx, inputs, None)

    def bwd(g):
        gh = split(g)
        dropped = weights
        if mask is not None:
            dropped = weights * mask
            dropped *= inv_keep
        gp = np.empty(weights.shape, dtype=np.result_type(g, qv))
        np.matmul(vh, gh.transpose(0, 1, 3, 2), out=gp.transpose(1, 2, 0, 3))
        # softmax through dropout D: dS = D dP - P (sum over keys of D dP), then the scale
        gp *= dropped
        gp -= weights * np.add.reduce(gp, axis=0)
        gp *= scale
        grads = np.empty((3, b, t, heads, hd), dtype=gp.dtype)
        factors = ((gp.transpose(1, 2, 3, 0), kh), (gp.transpose(1, 2, 0, 3), qh),
                   (dropped.transpose(1, 2, 0, 3), gh))
        for gr, x, (a, c) in zip(grads, inputs, factors):
            if x.requires_grad:
                np.matmul(a, c, out=gr.transpose(0, 2, 1, 3))
        return tuple(gr.reshape(b, t, d) if x.requires_grad else None
                     for gr, x in zip(grads, inputs))

    return _result(ctx, inputs, bwd)


def cholesky(a: Tensor) -> Tensor:
    """Lower-triangular factor L with L @ L.T == a.

    Only the lower triangle of ``a`` is read (LAPACK convention), so the
    gradient of any upper-triangle element is zero and off-diagonal lower
    elements absorb the symmetric contribution. The factorisation runs on
    one BLAS thread: LAPACK's threaded one rounds differently, so the factor
    would depend on the thread count.
    """
    av = a.values
    if av.ndim != 2 or av.shape[0] != av.shape[1]:
        raise ShapeError(f"cholesky: expected a square matrix, got {av.shape}")
    try:
        with threads.blas_held(1):
            lv = np.linalg.cholesky(av)
    except np.linalg.LinAlgError:
        raise DecompositionError(pivot=_failing_pivot(av)) from None
    # LAPACK stops only at a pivot <= 0, which a NaN never is
    bad_rows = ~np.isfinite(lv).all(axis=1)
    if bad_rows.any():
        raise DecompositionError(pivot=int(np.argmax(bad_rows)))

    def bwd(g):
        # Murray (2016)-style reverse rule:  S = L^{-T} Phi(L^T g) L^{-1},
        # where Phi keeps the lower triangle and halves the diagonal. The
        # stored-lower-triangle convention folds S + S^T into the lower part.
        x = _factor_inverse(lv, keep=False)
        p = np.tril(lv.T @ g)
        p[np.diag_indices_from(p)] *= 0.5
        s = x.T @ p.T @ x
        ga = np.tril(s + s.T)
        ga[np.diag_indices_from(ga)] = np.diag(s)
        return (ga,)

    return _result(lv, (a,), bwd)


def _failing_pivot(av: np.ndarray) -> int:
    """Index of the pivot where the Cholesky factorisation of ``av`` fails:
    the order of its smallest leading minor that is not positive definite,
    less one. Bisects on the minors' factorisations; the full matrix fails."""
    lo, hi = 0, av.shape[0]   # the minor of order lo factors, that of order hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(av[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return hi - 1


def triangular_solve(l: Tensor, b: Tensor) -> Tensor:
    """Solve l @ x = b for lower-triangular ``l``; its upper triangle is not
    read."""
    lv, bv = l.values, b.values
    if lv.ndim != 2 or lv.shape[0] != lv.shape[1]:
        raise ShapeError(f"triangular_solve: expected square matrix, got {lv.shape}")
    if bv.ndim != 2 or bv.shape[0] != lv.shape[0]:
        raise ShapeError(f"triangular_solve: rhs shape {bv.shape} incompatible with {lv.shape}")
    if np.any(np.diag(lv) == 0.0):
        raise SingularityError("triangular_solve: zero diagonal element")
    linv = _factor_inverse(lv, keep=_state.grad_enabled and l.requires_grad)
    xv = linv @ bv

    def bwd(g):
        gb = linv.T @ g
        gl = np.tril(-gb @ xv.T)
        return gl, gb

    return _result(xv, (l, b), bwd)


def _factor_inverse(lv: np.ndarray, keep: bool) -> np.ndarray:
    """Inverse of the lower triangle of ``lv``, computed once per factor.

    With ``keep`` the inverse is held until ``reset_tape``, so the backward
    rule of the ``cholesky`` that produced ``lv`` reuses it.
    """
    hit = _inverses.get(id(lv))
    if hit is not None and hit[0] is lv:
        return hit[1]
    linv = _lower_inverse(np.tril(lv))
    if keep:
        _inverses[id(lv)] = (lv, linv)
    return linv


# order of the diagonal blocks of the blocked triangular inverse
_BLOCK = 32


def _lower_inverse(lv: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix with a nonzero diagonal.

    One batched ``np.linalg.inv`` inverts the diagonal blocks (a short last
    block is padded with the identity). Block row i of the inverse X is then
    X[i, :i] = -D_i^{-1} (L[i, :i] X[:i, :i]), two GEMMs per block row.
    """
    n = lv.shape[0]
    size = min(n, _BLOCK)
    starts = range(0, n, size)
    blocks = np.tile(np.eye(size, dtype=lv.dtype), (len(starts), 1, 1))
    for k, i in enumerate(starts):
        m = min(size, n - i)
        blocks[k, :m, :m] = lv[i:i + m, i:i + m]
    # pivoting may leave rounding residue above the diagonal
    dinv = np.tril(np.linalg.inv(blocks))
    x = np.zeros_like(lv)
    for k, i in enumerate(starts):
        m = min(size, n - i)
        x[i:i + m, i:i + m] = dinv[k, :m, :m]
        if i:
            x[i:i + m, :i] = -dinv[k, :m, :m] @ (lv[i:i + m, :i] @ x[:i, :i])
    return x


# ---------------------------------------------------------------------------
# Reductions


def _reduction_axis(a: Tensor, axis) -> None:
    if axis is not None and not (-a.ndim <= axis < a.ndim):
        raise ShapeError(f"axis {axis} invalid for shape {a.shape}")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _reduction_axis(a, axis)
    if a.size == 0:
        raise DomainError("sum: empty reduction")

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(a.values.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    _reduction_axis(a, axis)
    if a.size == 0:
        raise DomainError("mean: empty reduction")
    n = a.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / n,)

    return _result(a.values.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def tvar(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Variance with the population denominator (n, not n-1)."""
    _reduction_axis(a, axis)
    if a.size == 0:
        raise DomainError("var: empty reduction")
    n = a.size if axis is None else a.shape[axis]
    mean_v = a.values.mean(axis=axis, keepdims=True)
    centered = a.values - mean_v

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (2.0 * centered * g / n,)

    out_v = np.sum(centered * centered, axis=axis, keepdims=keepdims) / n
    return _result(out_v, (a,), bwd)


def normalize(x: Tensor, axis: int, eps: float, gamma: Optional[Tensor] = None,
              beta: Optional[Tensor] = None, stats: Optional[tuple] = None) -> tuple:
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` as one op; returns the
    result and the ``(mean, var)`` pair it used.

    With ``stats`` None, mean and var are the mean and population variance
    over ``axis`` (reduced away in the returned pair), and the backward runs
    through them. A given ``(mean, var)`` pair, running statistics that
    broadcast against ``x``, is held constant. ``gamma`` and ``beta`` are
    each optional. Off the tape the op works in place in one buffer.
    """
    _reduction_axis(x, axis)
    if x.size == 0:
        raise DomainError("normalize: empty input")
    xv = x.values
    if stats is None:
        mean = xv.mean(axis=axis, keepdims=True)
        xhat = xv - mean
        var = np.sum(xhat * xhat, axis=axis, keepdims=True) / xv.shape[axis]
        stats = (mean.squeeze(axis), var.squeeze(axis))
        batch = True
    else:
        mean, var = stats
        xhat = xv - mean
        batch = False
    std = np.sqrt(var + eps)
    xhat /= std
    inputs = tuple(t for t in (x, gamma, beta) if t is not None)
    taped = _needs_grad(inputs)
    out = xhat              # on the tape, xhat itself stays intact for the backward
    if gamma is not None:
        out = out * gamma.values if taped else np.multiply(out, gamma.values, out=out)
    if beta is not None:
        out = out + beta.values if taped and out is xhat else np.add(out, beta.values, out=out)
    if not taped:
        return _result(out, inputs, None), stats

    def bwd(g):
        gh = g if gamma is None else g * gamma.values
        gx = None
        if x.requires_grad and batch:
            # d xhat / d x with the batch mean and variance moving along
            gx = gh - gh.mean(axis=axis, keepdims=True)
            gx -= xhat * (gh * xhat).mean(axis=axis, keepdims=True)
            gx /= std
        elif x.requires_grad:
            gx = gh / std
        grads = [gx]
        if gamma is not None:
            grads.append(_unbroadcast(g * xhat, gamma.shape) if gamma.requires_grad else None)
        if beta is not None:
            grads.append(_unbroadcast(g, beta.shape) if beta.requires_grad else None)
        return grads

    return _result(out, inputs, bwd), stats


# ---------------------------------------------------------------------------
# Shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _result(a.values.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes_fwd = tuple(reversed(range(a.ndim)))
    else:
        axes_fwd = tuple(axes)
    inv = np.argsort(axes_fwd)

    def bwd(g):
        return (g.transpose(inv),)

    return _result(a.values.transpose(axes_fwd), (a,), bwd)


def take(a: Tensor, key) -> Tensor:
    """Indexing view (slices or integer arrays); backward scatter-adds."""
    out_v = a.values[key]
    fancy = isinstance(key, (np.ndarray, list)) or (
        isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key))

    def bwd(g):
        ga = np.zeros_like(a.values)
        if fancy:
            np.add.at(ga, key, g)
        else:
            ga[key] += g
        return (ga,)

    return _result(out_v, (a,), bwd)


def diagonal(a: Tensor) -> Tensor:
    """Main diagonal of a square matrix; backward fills it into zeros."""
    av = a.values
    if av.ndim != 2 or av.shape[0] != av.shape[1]:
        raise ShapeError(f"diagonal: expected a square matrix, got {av.shape}")

    def bwd(g):
        ga = np.zeros_like(av)
        np.fill_diagonal(ga, g)
        return (ga,)

    return _result(np.diagonal(av).copy(), (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an existing axis; backward splits the gradient."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        gm = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(gm[offsets[i]:offsets[i + 1]], 0, axis)
            for i in range(len(tensors)))

    return _result(np.concatenate([t.values for t in tensors], axis=axis),
                   tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# Backward driver


def backward(loss: Tensor) -> None:
    """Accumulate gradients of ``loss`` onto all requires_grad leaves.

    ``loss`` must be a scalar recorded on this thread's tape. Gradients of
    leaves add onto any existing ``grad``, so repeated calls without
    ``zero_grad`` accumulate.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    _sweep(_state.tape, {id(loss): np.ones_like(loss.values)}, None, Tensor._accumulate)


def _route(tensor: Tensor, g: np.ndarray, grads: dict, own: Optional[set],
           emit: Callable) -> None:
    """Add ``g`` to the gradient of ``tensor``: in ``grads`` when the tape
    being swept produced it (``own`` None: any non-leaf), through ``emit``
    for a requires_grad leaf or a tensor another tape produced."""
    if tensor.is_leaf:
        if tensor.requires_grad:
            emit(tensor, g)
    elif own is not None and id(tensor) not in own:
        emit(tensor, g)
    else:
        prev = grads.get(id(tensor))
        grads[id(tensor)] = g if prev is None else prev + g


def _sweep(tape: list, grads: dict, own: Optional[set], emit: Callable) -> None:
    """Replay ``tape`` in reverse from the output gradients in ``grads``."""
    for rec in reversed(tape):
        if type(rec) is _Branches:
            _sweep_branches(rec.tapes, grads, own, emit)
            continue
        g = grads.pop(id(rec.output), None)
        if g is None:
            continue
        for tensor, ig in zip(rec.inputs, rec.backward_fn(g)):
            if ig is not None:
                _route(tensor, ig, grads, own, emit)


def _sweep_branches(tapes: list, grads: dict, own: Optional[set], emit: Callable) -> None:
    """Sweep each branch's sub-tape on a thread of its own, from the
    gradients its outputs got. The gradients that leave a branch are kept
    in order and routed after the join, last branch first: the order in
    which one tape holding the branches in turn would add them."""
    owns = [{id(rec.output) for rec in _ops(tape)} for tape in tapes]
    seeds = [{key: grads.pop(key) for key in mine if key in grads} for mine in owns]

    def sweep(i):
        out = []
        _sweep(tapes[i], seeds[i], owns[i], lambda t, g: out.append((t, g)))
        return out

    for out in reversed(threads.each(sweep, len(tapes))):
        for tensor, g in out:
            _route(tensor, g, grads, own, emit)
