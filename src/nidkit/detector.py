"""Single-center anomaly scoring on frozen encoder representations.

With one cluster, Lloyd's algorithm converges in a single step to the
arithmetic mean of the representations, so the center is computed in closed
form. The anomaly score of a test sample is its Euclidean distance to that
center; larger means more attack-like.
"""

from __future__ import annotations

import csv
from functools import reduce
from typing import Optional

import numpy as np

from . import nn
from .data import DataError, atomic_write
from .tensor import Tensor


class StateError(RuntimeError):
    """Detector used before fit."""


class Detector:
    """Frozen encoder + cluster center; immutable once fitted."""

    def __init__(self, encoder: nn.Module, subset_columns: Optional[list] = None):
        self.encoder = encoder
        self.subset_columns = subset_columns
        self.center: Optional[np.ndarray] = None

    def _represent(self, batch: np.ndarray) -> np.ndarray:
        """Encoder output rows; subsets runs mean-aggregate the per-subset
        representations of each sample."""
        if self.subset_columns is None:
            return self.encoder(Tensor(batch)).values
        parts = [self.encoder(Tensor(batch[:, cols])).values
                 for cols in self.subset_columns]
        return np.mean(parts, axis=0)

    def fit(self, features: np.ndarray) -> "Detector":
        if features.shape[0] == 0:
            raise DataError("fit_center: empty training set")
        self.encoder.eval()
        for p in self.encoder.parameters():
            p.requires_grad = False
        sums = nn.infer(lambda b: self._represent(b).sum(axis=0), features)
        self.center = reduce(np.add, sums) / features.shape[0]
        return self

    def score(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Euclidean distance of each sample's representation to the center."""
        if self.center is None:
            raise StateError("detector is not fitted")
        dists = nn.infer(lambda b: np.linalg.norm(self._represent(b) - self.center, axis=1),
                         features, batch_size)
        return np.concatenate([np.empty(0), *dists])    # an empty array for zero rows


def fit_center(encoder: nn.Module, train_features,
               subset_columns: Optional[list] = None) -> Detector:
    """Freeze the encoder and place the center at the mean representation of
    the (normal-only) training samples."""
    return Detector(encoder, subset_columns=subset_columns).fit(train_features)


def dump_scores(path, ids, scores, labels) -> None:
    """Score CSV: sample_id, score, label, three columns of equal length."""
    ids = np.asarray(ids)
    scores = np.asarray(scores, dtype=float)
    labels = list(map(int, np.asarray(labels).tolist()))
    if not len(ids) == len(scores) == len(labels):
        raise ValueError(f"dump_scores: {len(ids)} ids, {len(scores)} scores and "
                         f"{len(labels)} labels")
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "score", "label"])
        writer.writerows(zip(ids, map(repr, scores.tolist()), labels))
