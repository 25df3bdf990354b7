"""Five non-contrastive joint-embedding objectives and their training loop.

Each model couples a shared encoder with a two-layer projection head (BN+ReLU
between the layers, 256-wide output for every kind), and each kind is a
declaration: its loss, whether a predictor follows the projector, and whether
EMA target copies of encoder and projector give the predictor's targets.
BYOL has both; SimSiam, BYOL without the momentum encoder, has only the
predictor and stops gradients on its own embeddings; Barlow Twins, VICReg,
and W-MSE are symmetric and avoid collapse through their statistics terms
(cross-correlation to identity, variance hinge + covariance penalty, and hard
whitening respectively).

Gradient-bearing math uses :mod:`nidkit.tensor` throughout so the tape
provides exact backward rules, including through the Cholesky whitening,
which runs on numpy's LAPACK: one factorisation and one blocked triangular
inverse per 32-row sub-batch and branch.
"""

from __future__ import annotations

import inspect
from functools import partial, reduce
from typing import Optional

import numpy as np

from . import nn, tensor as T, threads
from .augment import AugmentationSpec, ViewSet, make_views
from .nn import BatchSizeError, CheckpointError, ConfigError
from .tensor import Tensor

_NORM_EPS = 1e-12


class NormalizationError(ValueError):
    """A row with exactly zero norm cannot be direction-normalized."""


# ---------------------------------------------------------------------------
# Loss functions


def _row_normalize(x: Tensor) -> Tensor:
    sq = T.tsum(T.mul(x, x), axis=-1, keepdims=True)
    if np.any(sq.values == 0.0):
        raise NormalizationError("zero-norm row in embedding batch")
    return T.div(x, T.sqrt(T.add(sq, _NORM_EPS)))


def _mean_cosine(a: Tensor, b: Tensor) -> Tensor:
    return T.tmean(T.tsum(T.mul(_row_normalize(a), _row_normalize(b)), axis=-1))


def byol_loss(q: Tensor, z_target: Tensor) -> Tensor:
    """One direction of the BYOL objective: mean ||q_hat - z_hat||^2, which
    equals 2 - 2 cos per row. The caller blocks gradients on ``z_target`` and
    averages the two view orderings."""
    return T.sub(2.0, T.mul(2.0, _mean_cosine(q, z_target)))


def simsiam_loss(p: Tensor, z_target: Tensor) -> Tensor:
    """One direction of the SimSiam objective: mean -cos(p, z). The caller
    blocks gradients on ``z_target`` and averages the two view orderings."""
    return T.mul(-1.0, _mean_cosine(p, z_target))


def _column_standardize(z: Tensor) -> Tensor:
    return T.normalize(z, 0, _NORM_EPS)[0]


def _offdiag_sumsq(c: Tensor) -> Tensor:
    diag = T.diagonal(c)
    return T.sub(T.tsum(T.mul(c, c)), T.tsum(T.mul(diag, diag)))


def barlow_twins_loss(z: Tensor, z2: Tensor, lambda_bt: float = 5e-3):
    """Cross-correlation redundancy reduction.

    C = (1/b) Zhat^T Zhat' on batch-standardized embeddings; the on-diagonal
    term pulls C_ii to 1, the off-diagonal term (weighted lambda_bt) pushes
    C_ij to 0. Returns (loss tensor, terms).
    """
    if z.shape[0] < 2:
        raise BatchSizeError("barlow_twins: need batch size >= 2")
    b = z.shape[0]
    c = T.mul(T.matmul(T.transpose(_column_standardize(z)), _column_standardize(z2)),
              1.0 / b)
    miss = T.sub(1.0, T.diagonal(c))
    on_diag = T.tsum(T.mul(miss, miss))
    off_diag = _offdiag_sumsq(c)
    total = T.add(on_diag, T.mul(off_diag, lambda_bt))
    return total, {"on_diag": float(on_diag.values), "off_diag": float(off_diag.values)}


def _vicreg_branch_terms(z: Tensor, gamma: float, eps: float):
    b, d = z.shape
    var = T.tvar(z, axis=0)
    std = T.sqrt(T.add(var, eps))
    hinge = T.tmean(T.relu(T.sub(gamma, std)))
    centered = T.sub(z, T.tmean(z, axis=0))
    cov = T.mul(T.matmul(T.transpose(centered), centered), 1.0 / b)
    cov_pen = T.div(_offdiag_sumsq(cov), float(d))
    return hinge, cov_pen


def vicreg_loss(z: Tensor, z2: Tensor, lam: float = 25.0, mu: float = 25.0,
                nu: float = 1.0, gamma: float = 1.0, eps: float = 1e-4):
    """Variance-invariance-covariance regularization.

    total = lam * mean elementwise (z - z')^2
          + mu * [hinge(z) + hinge(z')]          (per-dim std vs gamma)
          + nu * [covpen(z) + covpen(z')]        (off-diag^2 / d per branch)
    Batch statistics use population denominators. Returns (tensor, terms).
    """
    if z.shape[0] < 2:
        raise BatchSizeError("vicreg: need batch size >= 2")
    diff = T.sub(z, z2)
    inv = T.tmean(T.mul(diff, diff))
    h1, c1 = _vicreg_branch_terms(z, gamma, eps)
    h2, c2 = _vicreg_branch_terms(z2, gamma, eps)
    var_term = T.add(h1, h2)
    cov_term = T.add(c1, c2)
    total = T.add(T.add(T.mul(inv, lam), T.mul(var_term, mu)), T.mul(cov_term, nu))
    return total, {"invariance": float(inv.values), "variance": float(var_term.values),
                   "covariance": float(cov_term.values)}


def whiten_slice(x: Tensor, eps: float = 1e-4) -> Tensor:
    """Whiten a (s, d) sub-batch: center, Cholesky of the jittered covariance,
    triangular solve. Output rows have identity covariance up to the jitter."""
    s, d = x.shape
    centered = T.sub(x, T.tmean(x, axis=0))
    cov = T.mul(T.matmul(T.transpose(centered), centered), 1.0 / s)
    cov = T.add(cov, Tensor((eps * np.eye(d)).astype(x.dtype)))
    l = T.cholesky(cov)
    return T.transpose(T.triangular_solve(l, T.transpose(centered)))


def wmse_loss(z: Tensor, z2: Tensor, slice_size: int = 32, eps: float = 1e-4):
    """Whitening MSE: l2-normalize rows, slice the batch, whiten each branch's
    sub-batch independently, and compare elementwise; each slice runs as one
    branch (:func:`T.branches`). Remainder rows beyond the last full
    sub-batch are dropped. Returns (tensor, no terms)."""
    if slice_size < 2:
        raise ConfigError(f"wmse: slice_size {slice_size} must be >= 2")
    b = z.shape[0]
    n_slices = b // slice_size
    if n_slices == 0:
        raise BatchSizeError(f"wmse: batch {b} smaller than slice_size {slice_size}")
    zn = _row_normalize(z)
    zn2 = _row_normalize(z2)

    def term(i):
        sl = slice(i * slice_size, (i + 1) * slice_size)
        diff = T.sub(whiten_slice(zn[sl], eps=eps), whiten_slice(zn2[sl], eps=eps))
        return T.tmean(T.mul(diff, diff))

    # one branch per slice. BLAS is held here, on the calling thread, so no
    # branch's Cholesky sets the process-wide thread count from its own
    with threads.blas_held(1):
        terms = T.branches([partial(term, i) for i in range(n_slices)])
    return T.mul(reduce(T.add, terms), 1.0 / n_slices), {}     # in slice order


# ---------------------------------------------------------------------------
# Heads


class ProjectionHead(nn.Module):
    """Two fully connected layers with BN+ReLU between, fixed 256-wide output."""

    def __init__(self, in_dim: int, rng: np.random.Generator, dim: int = 256):
        super().__init__()
        self.fc1 = nn.Linear(in_dim, dim, rng)
        self.bn = nn.BatchNorm1d(dim)
        self.fc2 = nn.Linear(dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(T.relu(self.bn(self.fc1(x))))


def _frozen_copy(fresh: nn.Module, online: nn.Module) -> nn.Module:
    """``fresh`` holding ``online``'s tensors, none of them trainable."""
    fresh.load_state_dict(online.state_dict())
    for p in fresh.parameters():
        p.requires_grad = False
    return fresh


def ema_update(online: nn.Module, target: nn.Module, tau: float) -> None:
    """target <- tau * target + (1 - tau) * online, for every parameter and
    buffer, matched by name."""
    target_map = dict(target.named_tensors())
    for name, ov in online.named_tensors():
        if name not in target_map:
            raise CheckpointError(f"ema_update: target missing {name!r}")
        tv, arr = target_map[name], ov.values
        if tv.values.shape != arr.shape:
            raise CheckpointError(
                f"ema_update: {name!r} shape {tv.values.shape} != {arr.shape}")
        tv.values = tau * tv.values + (1.0 - tau) * arr


def _mixup_tensor(y: Tensor, alpha: float, partners: np.ndarray) -> Tensor:
    """Representation-space mixup: alpha * y_i + (1 - alpha) * y_partners[i]."""
    return T.add(T.mul(y, alpha), T.mul(y[partners], 1.0 - alpha))


# ---------------------------------------------------------------------------
# Models


class SSLModel(nn.Module):
    """Shared plumbing: encoder -> (optional representation mixup) -> projector
    (-> predictor), multi-view pair averaging, one pair rule. A kind declares
    its ``loss``; one with ``predicts`` set puts a predictor head after the
    projector and compares each view's prediction with the other's target,
    ``loss(p, t)``, the embedding of the ``target`` copies if it keeps them,
    else its own. A symmetric kind's ``loss(z, z2, **objective)`` returns
    (tensor, terms); the keywords given at build time are its ``objective``."""

    predicts = False
    target = False

    def __init__(self, encoder: nn.Module, rep_dim: int,
                 rng: np.random.Generator, dim: int = 256, **objective):
        super().__init__()
        if objective:   # a keyword the loss does not take fails here, not at step 1
            inspect.signature(self.loss).bind(None, None, **objective)
        self.objective = objective
        self.encoder = encoder
        self.projector = ProjectionHead(rep_dim, rng, dim=dim)
        if self.predicts:
            self.predictor = ProjectionHead(dim, rng, dim=dim)

    def _view(self, view: Tensor, partners: Optional[np.ndarray], stream,
              alpha: Optional[float]) -> dict:
        """One view's pass, drawing its dropout masks from ``stream``: its
        embedding ``z``, or for a predicting kind its prediction ``p`` and
        its detached target ``t``."""
        def embed(encoder, projector):
            y = encoder(view)
            return projector(y if partners is None else _mixup_tensor(y, alpha, partners))

        with nn.masks_from(stream):
            z = embed(self.encoder, self.projector)
            if not self.predicts:
                return {"z": z}
            p = self.predictor(z)
            if self.target:
                z = embed(self.target_encoder, self.target_projector)
            return {"p": p, "t": z.detach()}

    def _pair_loss(self, si: dict, sj: dict):
        if not self.predicts:
            return self.loss(si["z"], sj["z"], **self.objective)
        return T.mul(0.5, T.add(self.loss(si["p"], sj["t"]), self.loss(sj["p"], si["t"]))), {}

    def after_step(self) -> None:
        """Post-optimizer hook (EMA update for BYOL)."""

    def _streams(self, n: int) -> list:
        """One dropout-mask generator per view, seeded in view order from the
        first active ``Dropout``'s; all None, drawing nothing, if none is active."""
        rngs = [m.rng for m in self.modules() if isinstance(m, nn.Dropout) and m.active]
        if not rngs:
            return [None] * n
        return [np.random.default_rng(seed) for seed in rngs[0].integers(1 << 63, size=n)]

    def compute_loss(self, view_set: ViewSet):
        """Mean pairwise loss over all C(k, 2) view pairs.

        A mixup view set carries each view's partner rows, used by every
        branch pass of that view. Each view's pass (``_view``) runs as a
        branch (:func:`T.branches`) that draws its dropout masks from a
        stream of its own (``_streams``); only the pair losses join the views.
        Returns the loss and its row: ``total``, then each term's pair mean.
        """
        views = [Tensor(v) for v in view_set.views]
        if len(views) < 2:
            raise ConfigError("need at least two views")
        partners = view_set.partners or [None] * len(views)
        states = T.branches([partial(self._view, v, p, s, view_set.alpha)
                             for v, p, s in zip(views, partners, self._streams(len(views)))])
        total, terms, n_pairs = None, {}, 0
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                pair, pair_terms = self._pair_loss(states[i], states[j])
                total = pair if total is None else T.add(total, pair)
                for key, val in pair_terms.items():
                    terms[key] = terms.get(key, 0.0) + val
                n_pairs += 1
        if n_pairs > 1:
            total = T.mul(total, 1.0 / n_pairs)
            terms = {k: v / n_pairs for k, v in terms.items()}
        return total, {"total": float(total.values), **terms}


class BYOL(SSLModel):
    """Online encoder/projector/predictor against EMA target copies."""

    kind = "byol"
    loss = staticmethod(byol_loss)
    predicts = target = True

    def __init__(self, encoder: nn.Module, target_encoder: nn.Module,
                 rep_dim: int, rng: np.random.Generator, dim: int = 256,
                 tau: float = 0.99):
        super().__init__(encoder, rep_dim, rng, dim=dim)
        self.tau = tau
        self.target_encoder = _frozen_copy(target_encoder, encoder)
        self.target_projector = _frozen_copy(ProjectionHead(rep_dim, rng, dim=dim), self.projector)

    def after_step(self):
        ema_update(self.encoder, self.target_encoder, self.tau)
        ema_update(self.projector, self.target_projector, self.tau)


class SimSiam(SSLModel):
    """BYOL without the momentum encoder: the targets are the online embeddings."""

    kind = "simsiam"
    loss = staticmethod(simsiam_loss)
    predicts = True


class BarlowTwins(SSLModel):
    kind = "barlow_twins"
    loss = staticmethod(barlow_twins_loss)


class VICReg(SSLModel):
    kind = "vicreg"
    loss = staticmethod(vicreg_loss)


class WMSE(SSLModel):
    kind = "wmse"
    loss = staticmethod(wmse_loss)


MODEL_CLASSES = {cls.kind: cls for cls in (BYOL, SimSiam, BarlowTwins, VICReg, WMSE)}
MODEL_KINDS = tuple(MODEL_CLASSES)


def build_model(kind: str, encoder_factory, rep_dim: int,
                rng: np.random.Generator, dim: int = 256, **hyper) -> SSLModel:
    """Construct an SSL model; ``encoder_factory()`` must build a fresh
    encoder each call (a kind with EMA targets needs a second copy)."""
    if kind not in MODEL_CLASSES:
        raise ConfigError(f"unknown model kind {kind!r}")
    cls = MODEL_CLASSES[kind]
    encoders = [encoder_factory() for _ in range(2 if cls.target else 1)]
    return cls(*encoders, rep_dim, rng, dim=dim, **hyper)


# ---------------------------------------------------------------------------
# Training loop


def train_step(model: SSLModel, view_set: ViewSet, optimizer: nn.Adam) -> dict:
    """One optimization step: forward all views, backward, ADAM, EMA hook;
    returns the step's loss row."""
    T.reset_tape()
    model.zero_grad()
    loss, row = model.compute_loss(view_set)
    T.backward(loss)
    optimizer.step()
    model.after_step()
    T.reset_tape()
    return row


def pretrain(model: SSLModel, features: np.ndarray, spec: AugmentationSpec,
             optimizer: nn.Adam, epochs: int, batch_size: int,
             rng: np.random.Generator, columns: Optional[list] = None,
             log_path=None) -> list:
    """Self-supervised pretraining over a feature matrix of normal traffic;
    returns the per-step loss rows. Batching, the loss log and the
    non-finite guard are :func:`nn.fit`'s; the feature matrix itself is the
    donor pool for swap noise, and ``columns`` are the subsets windows."""
    if batch_size < 2:
        raise ConfigError("batch_size must be >= 2")

    def step(batch):
        view_set = make_views(batch, spec, rng, donor_pool=features, columns=columns)
        return train_step(model, view_set, optimizer)

    # the views share the budget's threads. BLAS stays held for every step
    # (a worker it woke for the loss would spin against the view threads)
    with threads.blas_held(max(1, threads.budget() // spec.n_views)):
        return nn.fit(step, features, epochs, batch_size, rng, log_path=log_path)

