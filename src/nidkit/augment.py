"""View-generating augmentations for joint-embedding training.

All six strategies operate on post-preprocessing feature vectors (one-hot
columns are treated as ordinary features). Each function is pure given its
``numpy.random.Generator``; batches are augmented row-independently with
per-element masks.

Five kinds act in input space; ``mixup`` is special — it mixes encoder
*outputs*, so its views are the raw batch plus the partner rows drawn here,
which the trainer mixes after the encoder. ``subsets`` is also special in
that its views are feature slices cut by column lists the caller draws once
(:func:`subset_columns`) and reuses at test time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import SchemaError
from .nn import BatchSizeError, ConfigError

# each kind -> the ``AugmentationSpec`` fields it reads
KINDS = {"swap_noise": ("p",), "zero_out": ("p",), "gaussian_noise": ("p", "mu", "sigma2"),
         "random_shuffle": (), "subsets": ("k", "overlap_fraction"), "mixup": ("alpha",)}


@dataclass
class AugmentationSpec:
    """Validated bundle of augmentation hyperparameters; only the fields
    ``KINDS`` names for ``kind`` are consulted."""

    kind: str
    p: float = 0.15
    mu: float = 0.0
    sigma2: float = 0.01
    k: int = 2
    overlap_fraction: float = 0.0
    alpha: float = 0.9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown augmentation kind {self.kind!r}")
        if self.kind in ("swap_noise", "zero_out", "gaussian_noise"):
            if not 0.0 <= self.p <= 1.0:
                raise ConfigError(f"{self.kind}: p={self.p} outside [0, 1]")
        if self.kind == "gaussian_noise" and self.sigma2 <= 0.0:
            raise ConfigError(f"gaussian_noise: sigma2={self.sigma2} must be > 0")
        if self.kind == "subsets":
            if self.k < 2:
                raise ConfigError(f"subsets: k={self.k} must be >= 2")
            if not 0.0 <= self.overlap_fraction < 1.0:
                raise ConfigError(
                    f"subsets: overlap_fraction={self.overlap_fraction} outside [0, 1)")
        if self.kind == "mixup" and not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"mixup: alpha={self.alpha} outside [0, 1]")

    @property
    def n_views(self) -> int:
        """Views, and so branches, in each step under this spec."""
        return self.k if self.kind == "subsets" else 2


@dataclass
class ViewSet:
    """Views produced from one source batch.

    ``views`` holds >= 2 arrays; subsets views differ in meaning but share
    width. A mixup set also holds each view's ``partners`` (row indices) and
    the ``alpha`` that mixes a row's representation with its partner's.
    """

    views: list
    partners: Optional[list] = None
    alpha: Optional[float] = None


# ---------------------------------------------------------------------------
# Input-space corruptions


def swap_noise(batch: np.ndarray, p: float, donor_pool: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Replace each element, w.p. p, by the same-position value of a random
    donor row (donors drawn from the training pool only)."""
    batch = np.asarray(batch)
    donor_pool = np.asarray(donor_pool)
    if donor_pool.ndim != 2 or donor_pool.shape[1] != batch.shape[1]:
        raise SchemaError(
            f"swap_noise: donor pool width {donor_pool.shape} does not match batch {batch.shape}")
    mask = rng.random(batch.shape) < p
    donor_rows = rng.integers(0, donor_pool.shape[0], size=batch.shape)
    donors = donor_pool[donor_rows, np.arange(batch.shape[1])[None, :]]
    return np.where(mask, donors, batch)


def zero_out(batch: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Set each element to zero with probability p."""
    batch = np.asarray(batch)
    mask = rng.random(batch.shape) < p
    return np.where(mask, 0.0, batch)


def gaussian_noise(batch: np.ndarray, p: float, mu: float, sigma2: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Add N(mu, sigma2) noise, cast to the batch's dtype, to each element with
    probability p."""
    batch = np.asarray(batch)
    mask = rng.random(batch.shape) < p
    noise = rng.normal(loc=mu, scale=np.sqrt(sigma2), size=batch.shape)
    return batch + noise.astype(batch.dtype, copy=False) * mask


def random_shuffle(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute feature positions within each row, Fisher-Yates style.

    Iterates k = d-1 .. 1 drawing a uniform swap position in [0, k] (the
    k = 0 step is a no-op and skipped); every row uses its own independent
    draws.
    """
    out = np.array(batch)
    b, d = out.shape
    rows = np.arange(b)
    for k in range(d - 1, 0, -1):
        swap = rng.integers(0, k + 1, size=b)  # inclusive upper bound k
        tmp = out[rows, k].copy()
        out[rows, k] = out[rows, swap]
        out[rows, swap] = tmp
    return out


# ---------------------------------------------------------------------------
# Subsets


def subset_columns(d: int, k: int, overlap_fraction: float,
                   feature_permutation: np.ndarray) -> list:
    """Column index lists for k equal-width windows over a permuted order.

    Base block width is ceil(d/k); each window is widened by
    round(overlap_fraction * width) columns shared with its right neighbor,
    and window starts are spaced evenly so the last window ends at d. All
    windows have equal width (a shared encoder consumes every view), and
    their union covers all d features.
    """
    if k < 2:
        raise ConfigError(f"subsets: k={k} must be >= 2")
    if k > d:
        raise ConfigError(f"subsets: k={k} exceeds feature count {d}")
    perm = np.asarray(feature_permutation)
    if perm.shape != (d,) or sorted(perm.tolist()) != list(range(d)):
        raise ConfigError("subsets: feature_permutation must permute range(d)")
    base = int(np.ceil(d / k))
    width = base + int(round(overlap_fraction * base))
    width = min(width, d)
    cols = []
    for i in range(k):
        start = int(round(i * (d - width) / (k - 1))) if k > 1 else 0
        cols.append(perm[start:start + width].tolist())
    covered = set()
    for c in cols:
        covered.update(c)
    assert covered == set(range(d)), "subset windows failed to cover all features"
    return cols


# ---------------------------------------------------------------------------
# Mixup (representation space)


def mixup_partners(b: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct partner index for every row: uniform over {0..b-1} \\ {i}."""
    if b < 2:
        raise BatchSizeError("mixup: need at least two rows")
    partners = rng.integers(0, b - 1, size=b)
    partners[partners >= np.arange(b)] += 1
    return partners


# ---------------------------------------------------------------------------
# Dispatcher


def make_views(batch: np.ndarray, spec: AugmentationSpec,
               rng: np.random.Generator, donor_pool: Optional[np.ndarray] = None,
               columns: Optional[list] = None) -> ViewSet:
    """Build the view set a joint-embedding step consumes.

    Input-space kinds corrupt the batch independently per view, two views;
    subsets cuts one view per column list of ``columns`` (from
    :func:`subset_columns`); mixup returns the uncorrupted batch twice with
    each view's partner rows, for the trainer to mix after the encoder.
    """
    batch = np.asarray(batch)
    if spec.kind == "subsets":
        if columns is None:
            raise ConfigError("subsets: columns are required")
        return ViewSet(views=[batch[:, c] for c in columns])
    if spec.kind == "mixup":
        return ViewSet(views=[batch, batch], alpha=spec.alpha,
                       partners=[mixup_partners(len(batch), rng) for _ in range(2)])
    if spec.kind == "swap_noise" and donor_pool is None:
        raise ConfigError("swap_noise: donor_pool is required")
    corrupt = {
        "swap_noise": lambda: swap_noise(batch, spec.p, donor_pool, rng),
        "zero_out": lambda: zero_out(batch, spec.p, rng),
        "gaussian_noise": lambda: gaussian_noise(batch, spec.p, spec.mu, spec.sigma2, rng),
        "random_shuffle": lambda: random_shuffle(batch, rng),
    }[spec.kind]
    return ViewSet(views=[corrupt(), corrupt()])
