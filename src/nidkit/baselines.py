"""Reconstruction and one-class baselines trained directly on features.

Each module scores itself with ``score(features)``, like the representation
detector: higher score, more anomalous.
"""

from __future__ import annotations

import warnings
from functools import reduce

import numpy as np

from . import nn, tensor as T, threads
from .data import DataError
from .tensor import Tensor


class Autoencoder(nn.Module):
    """Bottleneck MLP input -> hidden -> latent -> hidden -> input.

    Hidden layers use BatchNorm + ReLU; the output layer is a plain linear
    map so reconstructions are unconstrained.
    """

    def __init__(self, input_dim: int, rng, hidden: int = 256, latent: int = 64):
        super().__init__()
        widths = [input_dim, hidden, latent, hidden, input_dim]
        self.layers = [nn.Linear(widths[i], widths[i + 1], rng) for i in range(4)]
        self.norms = [nn.BatchNorm1d(w) for w in widths[1:4]]

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for layer, norm in zip(self.layers, self.norms):
            h = T.relu(norm(layer(h)))
        return self.layers[-1](h)

    def score(self, features: np.ndarray) -> np.ndarray:
        """Per-sample mean squared reconstruction error."""
        self.eval()
        errors = nn.infer(lambda x: np.mean((self(Tensor(x)).values - x) ** 2, axis=1),
                          features)
        return np.concatenate([np.empty(0), *errors])


def reconstruction_loss(model: Autoencoder, batch: Tensor) -> Tensor:
    diff = T.sub(model(batch), batch)
    return T.tmean(T.mul(diff, diff))


class DeepSVDD(nn.Module):
    """One-class network with a fixed hypersphere center.

    Every linear map is bias-free and there is no normalization layer:
    any translation-capable parameter would let the network collapse onto
    the center for free. :func:`train_baseline` sets the center ``c`` once
    from the untrained network's outputs, before its first step; the
    optimizer never updates it.
    """

    def __init__(self, input_dim: int, rng, widths=(256, 64, 32)):
        super().__init__()
        if not widths or min(widths) < 1:   # no layer would score the raw features
            raise nn.ConfigError(f"deep_svdd: widths must be positive layer widths, got {widths!r}")
        dims = [input_dim, *widths]
        self.layers = [nn.Linear(dims[i], dims[i + 1], rng, bias=False)
                       for i in range(len(dims) - 1)]
        self.center = Tensor(np.zeros(dims[-1], T.DTYPE))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(h)
            if i < len(self.layers) - 1:
                h = T.relu(h)
        return h

    def score(self, features: np.ndarray) -> np.ndarray:
        """Squared distance of the network output to the fixed center."""
        self.eval()
        dists = nn.infer(lambda x: np.sum((self(Tensor(x)).values - self.center.values) ** 2,
                                          axis=1), features)
        return np.concatenate([np.empty(0), *dists])


def svdd_init_center(model: DeepSVDD, features: np.ndarray) -> np.ndarray:
    """Fix c at the mean initial-network output over the training set.

    A center too close to the origin makes the trivial all-zero map optimal,
    so a warning is raised if every coordinate is within 1e-3 of zero.
    """
    if features.shape[0] == 0:
        raise DataError("svdd_init_center: empty training set")
    model.eval()
    sums = nn.infer(lambda x: model(Tensor(x)).values.sum(axis=0), features)
    c = reduce(np.add, sums) / features.shape[0]
    if np.all(np.abs(c) < 1e-3):
        warnings.warn("hypersphere center is nearly zero; training may "
                      "collapse to the trivial solution", RuntimeWarning)
    model.center = Tensor(c)
    return c


def svdd_loss(model: DeepSVDD, batch: Tensor) -> Tensor:
    diff = T.sub(model(batch), model.center)
    return T.tmean(T.tsum(T.mul(diff, diff), axis=1))


def train_baseline(model, features: np.ndarray, loss_fn, optimizer: nn.Adam,
                   epochs: int, batch_size: int, rng, log_path=None) -> list:
    """Train either baseline with :func:`nn.fit`, BLAS held at one thread;
    returns the per-step losses and leaves the model in eval mode.

    A DeepSVDD first fixes its center with :func:`svdd_init_center`; the
    center is stored outside the optimizer's parameter list, so its bits
    cannot change during training.
    """
    if isinstance(model, DeepSVDD):
        svdd_init_center(model, features)

    def step(batch):
        T.reset_tape()
        model.zero_grad()
        loss = loss_fn(model, Tensor(batch))
        T.backward(loss)
        optimizer.step()
        T.reset_tape()
        return float(loss.values)

    model.train()
    with threads.blas_held(1):      # more BLAS threads bought CPU time, not wall time
        history = nn.fit(step, features, epochs, batch_size, rng, log_path=log_path)
    model.eval()
    return history


# name -> (module class, training loss) of each baseline
BASELINES = {
    "autoencoder": (Autoencoder, reconstruction_loss),
    "deep_svdd": (DeepSVDD, svdd_loss),
}
