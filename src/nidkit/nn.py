"""Layers, parameter containers, the ADAM optimizer, the minibatch training
loop and its no-grad twin, the row-threaded eval forward, and checkpoint I/O.

Each layer runs on the primitives of :mod:`nidkit.tensor` and gets its
backward rule from the tape: ``Linear`` on ``linear``, ``BatchNorm1d`` and
``LayerNorm`` on ``normalize``, ``MultiHeadAttention`` on ``attention``
between four ``Linear`` maps, ``Conv2d1xW`` on ``conv1xw``. Those primitives
carry closed-form backward rules of their own. Construction is explicit
about randomness: every layer that draws initial weights takes a
``numpy.random.Generator``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

from . import tensor as T
from . import threads
from .data import atomic_write
from .tensor import Tensor

CHECKPOINT_VERSION = 1
BN_MOMENTUM = 0.1       # weight of a batch's statistics in BatchNorm1d's running ones
NORM_EPS = 1e-5         # variance jitter of BatchNorm1d and LayerNorm
KEEP_LEVELS = 1 << 16   # Dropout compares 16-bit draws, half the cost of float ones
ADAM_BETAS, ADAM_EPS = (0.9, 0.999), 1e-8


class BatchSizeError(ValueError):
    """Too few rows: two for training-mode batch statistics, one batch to train."""


class ConfigError(ValueError):
    """Layer hyperparameters are inconsistent."""


class OptimizerError(RuntimeError):
    """A trainable parameter is missing its gradient."""


class CheckpointError(ValueError):
    """Stored parameters disagree with the receiving model."""


# ---------------------------------------------------------------------------
# Module container


class Module:
    """Base class: tracks sub-modules and parameter tensors by attribute walk.

    Attributes holding a Tensor with ``requires_grad`` are trainable
    parameters; Tensors without it (running statistics) are buffers that are
    checkpointed but never updated by the optimizer. Lists of Modules are
    traversed with positional names.
    """

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for name, attr in vars(self).items():
            if isinstance(attr, Module):
                yield name, attr
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """Parameters and buffers by dotted name: own ones first, then each child's."""
        for name, attr in vars(self).items():
            if isinstance(attr, Tensor):
                yield name, attr
        for cname, child in self._children():
            for name, t in child.named_tensors():
                yield f"{cname}.{name}", t

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        return ((n, t) for n, t in self.named_tensors() if t.requires_grad)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def modules(self) -> Iterator["Module"]:
        """This module and every module under it, depth first."""
        yield self
        for _, child in self._children():
            yield from child.modules()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.named_tensors()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load exactly this module's entries: one missing, unexpected or
        mis-shaped entry loads nothing and raises ``CheckpointError``."""
        own = dict(self.named_tensors())
        shaped = {k: f"{np.shape(state[k])} != {t.values.shape}" for k, t in own.items()
                  if k in state and np.shape(state[k]) != t.values.shape}
        missing, unexpected = sorted(set(own) - set(state)), sorted(set(state) - set(own))
        if missing or unexpected or shaped:
            raise CheckpointError(f"checkpoint does not fit the module: missing {missing}, "
                                  f"unexpected {unexpected}, mis-shaped {shaped}")
        for name, tensor in own.items():
            tensor.values = np.asarray(state[name]).astype(tensor.values.dtype)


# ---------------------------------------------------------------------------
# Core layers


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(T.DTYPE)


class Linear(Module):
    """Affine map x @ W + b with fan-in-scaled uniform initialization."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.weight = Tensor(
            _kaiming_uniform(rng, in_features, (in_features, out_features)),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, T.DTYPE), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class BatchNorm1d(Module):
    """Batch normalization over axis 0 of a (batch, features) tensor.

    Training mode normalizes with current-batch statistics (population
    variance) and folds them into the running estimates with momentum
    ``BN_MOMENTUM``, after the join when it runs in a branch (:func:`T.defer`);
    eval mode normalizes with the running estimates.
    """

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = num_features
        self.gamma = Tensor(np.ones(num_features, T.DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, T.DTYPE), requires_grad=True)
        self.running_mean = Tensor(np.zeros(num_features, T.DTYPE))
        self.running_var = Tensor(np.ones(num_features, T.DTYPE))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise T.ShapeError(f"batch_norm: expected (b, {self.num_features}), got {x.shape}")
        if not self.training:
            return T.normalize(x, 0, NORM_EPS, self.gamma, self.beta,
                               stats=(self.running_mean.values, self.running_var.values))[0]
        if x.shape[0] < 2:
            raise BatchSizeError("batch_norm: training mode needs batch size >= 2")
        out, (mean, var) = T.normalize(x, 0, NORM_EPS, self.gamma, self.beta)
        # views share the layer: inside a branch the fold waits for the join
        T.defer(lambda: self._fold(mean, var))
        return out

    def _fold(self, mean: np.ndarray, var: np.ndarray) -> None:
        m = BN_MOMENTUM
        self.running_mean.values = (1 - m) * self.running_mean.values + m * mean
        self.running_var.values = (1 - m) * self.running_var.values + m * var


class LayerNorm(Module):
    """Per-row normalization over the last axis with affine parameters."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.gamma = Tensor(np.ones(dim, T.DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, T.DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise T.ShapeError(f"layer_norm: last axis {x.shape[-1]} != {self.dim}")
        return T.normalize(x, -1, NORM_EPS, self.gamma, self.beta)[0]


_stream = threading.local()     # the generator of this thread's masks_from


@contextmanager
def masks_from(rng: Optional[np.random.Generator]):
    """Have every ``Dropout`` on this thread draw its keep masks from ``rng``
    (None: from its own generator), in forward order: an SSL view's stream."""
    prev, _stream.rng = getattr(_stream, "rng", None), rng
    try:
        yield
    finally:
        _stream.rng = prev


class Dropout(Module):
    """Inverted dropout: keeps an entry with probability ``keep`` = threshold
    / 65,536, threshold = round((1 - p) * 65,536), and scales it by 1/keep in
    training (p = 0.1 keeps 58,982 of the 65,536 levels); identity in eval."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.threshold = round((1.0 - p) * KEEP_LEVELS) if 0.0 <= p < 1.0 else 0
        if self.threshold == 0:
            raise ConfigError(f"dropout probability {p} outside [0, 1 - 2**-17)")
        self.keep = self.threshold / KEEP_LEVELS
        self.rng = rng

    @property
    def active(self) -> bool:
        """Whether a forward draws a mask: training mode and something dropped."""
        return self.training and self.threshold < KEEP_LEVELS

    def keep_mask(self, shape) -> Optional[np.ndarray]:
        """One draw of the boolean mask of kept entries, from this thread's
        ``masks_from`` stream or else ``rng``; None, drawing nothing, if inactive."""
        if not self.active:
            return None
        rng = getattr(_stream, "rng", None) or self.rng
        return rng.integers(0, KEEP_LEVELS, shape, dtype=np.uint16) < self.threshold

    def forward(self, x: Tensor) -> Tensor:
        mask = self.keep_mask(x.shape)
        if mask is None:
            return x
        return T.mul(x, Tensor(mask.astype(x.dtype) / self.keep))


class Conv2d1xW(Module):
    """Valid cross-correlation with 1-row kernels over (b, W, C_in) maps.

    Stride 1 and no padding, matching the width bookkeeping an intrusion-
    detection feature vector needs when treated as a 1xW image. The map is
    convolved by :func:`nidkit.tensor.conv1xw`, one GEMM per kernel tap, into
    a (b, W_out, C_out) map.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_width: int,
                 rng: np.random.Generator):
        super().__init__()
        self.kernel_width = kernel_width
        fan_in = in_channels * kernel_width
        self.weight = Tensor(
            _kaiming_uniform(rng, fan_in, (fan_in, out_channels)),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, T.DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv1xw(x, self.weight, self.bias, self.kernel_width)


class MultiHeadAttention(Module):
    """Scaled dot-product self-attention with per-head splitting.

    Query/key/value/output projections are all square maps on the token
    dimension; between them :func:`nidkit.tensor.attention` splits the
    heads, and dropout acts on the attention weights in training mode.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if dim % heads != 0:
            raise ConfigError(f"attention dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.drop = Dropout(dropout, rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[-1] != self.dim:
            raise T.ShapeError(f"attention: expected (b, t, {self.dim}), got {x.shape}")
        b, t, _ = x.shape
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        mask = self.keep_mask(b, t)
        return self.wo(T.attention(q, k, v, self.heads, mask=mask, keep=self.drop.keep))

    def keep_mask(self, rows: int, t: int) -> Optional[np.ndarray]:
        """The dropout mask of ``rows`` rows of ``t`` tokens, key-major: (t, rows, heads, t)."""
        return self.drop.keep_mask((t, rows, self.heads, t))


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """ADAM with bias correction; operates in place on a module's parameters."""

    def __init__(self, module: Module, lr: float = 1e-3):
        self.named = list(module.named_parameters())
        names = [n for n, _ in self.named]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in module")
        self.lr = lr
        self.step_count = 0
        self._m = {n: np.zeros_like(p.values) for n, p in self.named}
        self._v = {n: np.zeros_like(p.values) for n, p in self.named}

    def step(self) -> None:
        for name, p in self.named:
            if p.grad is None:
                raise OptimizerError(f"parameter {name!r} has no gradient")
        self.step_count += 1
        t = self.step_count
        b1, b2 = ADAM_BETAS
        for name, p in self.named:
            g = p.grad
            m = self._m[name] = b1 * self._m[name] + (1 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1 - b2) * (g * g)
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p.values = p.values - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Training loop


def fit(step: Callable, features: np.ndarray, epochs: int, batch_size: int,
        rng: np.random.Generator, log_path=None) -> list:
    """The minibatch loop of every trainer; returns the ``step`` results.

    Each epoch draws one ``rng.permutation`` and drops the trailing partial
    batch. ``step(batch)`` takes one optimization step and returns its loss
    row: a dict of floats, ``total`` first. ``log_path`` gets a CSV whose
    header is ``step`` and the first row's keys, and one line per step. A
    non-finite total raises ``FloatingPointError`` naming the step; fewer
    rows than one batch raise ``BatchSizeError``, as no step could run.
    """
    features = np.asarray(features)
    if features.shape[0] < batch_size:
        raise BatchSizeError(f"{features.shape[0]} training rows < batch size {batch_size}")
    history = []
    with open(log_path or os.devnull, "w") as log:
        for _ in range(epochs):
            order = rng.permutation(features.shape[0])
            for start in range(0, features.shape[0] - batch_size + 1, batch_size):
                row = step(features[order[start:start + batch_size]])
                if not history:
                    log.write(",".join(["step", *row]) + "\n")
                log.write(",".join([str(len(history)), *map(repr, row.values())]) + "\n")
                if not np.isfinite(row["total"]):
                    raise FloatingPointError(
                        f"non-finite loss {row['total']!r} at step {len(history)}")
                history.append(row)
    return history


def infer(fn: Callable, features: np.ndarray, batch_size: int = 512) -> list:
    """The no-grad twin of :func:`fit`: ``fn`` over consecutive row slices
    of ``features`` with the tape off; returns the results in row order."""
    with T.no_grad():
        return [fn(features[start:start + batch_size])
                for start in range(0, features.shape[0], batch_size)]


# rows per block of a row-threaded forward. A smaller block sends the
# FT-transformer's GEMMs down OpenBLAS's small-matrix kernels, which round
# differently; a remainder joins the last block for the same reason.
ROW_BLOCK = 64


def rowwise(forward: Callable, module: Module, x: Tensor) -> Tensor:
    """``forward(x)`` for a module whose rows do not interact.

    In eval mode off the tape, the batch splits into blocks of
    ``ROW_BLOCK`` rows that :func:`nidkit.threads.each` runs on the calling
    thread and up to ``budget - 1`` helpers, with BLAS held at one thread
    for the call; every row gets the bits the one-batch forward gives it.
    In training mode, on the tape, or with under two blocks or a budget of
    1, ``forward(x)`` runs on the calling thread.
    """
    n_blocks = x.shape[0] // ROW_BLOCK if x.ndim == 2 else 0   # forward names a bad shape
    if module.training or T.grad_enabled() or min(threads.budget(), n_blocks) < 2:
        return forward(x)
    xv = x.values
    bounds = [i * ROW_BLOCK for i in range(n_blocks)] + [xv.shape[0]]

    def block(i):
        with T.no_grad():       # a helper thread starts with the tape on
            return forward(Tensor(xv[bounds[i]:bounds[i + 1]])).values

    with threads.blas_held(1):
        return Tensor(np.concatenate(threads.each(block, n_blocks)))


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, module: Module, extra: Optional[dict] = None) -> None:
    """Write parameters + buffers to a versioned ``.npz`` archive, atomically.

    Keys are the dotted parameter names; ``__version__`` carries the format
    revision; entries in ``extra`` are stored under ``meta/<key>``.
    """
    payload = {name: arr for name, arr in module.state_dict().items()}
    payload["__version__"] = np.asarray(CHECKPOINT_VERSION)
    for key, val in (extra or {}).items():
        payload[f"meta/{key}"] = np.asarray(val)
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path, module: Optional[Module] = None) -> dict:
    """Read a checkpoint; optionally load it into ``module`` (shape-checked)."""
    with np.load(path, allow_pickle=False) as archive:
        data = {k: archive[k] for k in archive.files}
    version = int(data.pop("__version__", -1))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    meta = {k[len("meta/"):]: data.pop(k) for k in list(data) if k.startswith("meta/")}
    if module is not None:
        module.load_state_dict(data)
    return {"state": data, "meta": meta, "version": version}
