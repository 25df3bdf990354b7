"""Detection metrics and multi-run aggregation.

Scores are anomaly scores: larger means more attack-like, and label 1 is
the attack (positive) class throughout. Accuracy is deliberately absent —
with the heavy class imbalance typical of intrusion data it rewards the
trivial all-normal predictor.
"""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    """Metric preconditions violated (single-class input, non-finite scores,
    no runs to aggregate)."""


def _check_two_class(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise MetricError("scores and labels must be parallel 1-D arrays")
    n_bad = int(np.sum(~np.isfinite(scores)))
    if n_bad:
        raise MetricError(f"{n_bad} of {scores.size} scores are not finite")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("need at least one positive and one negative")
    return scores, labels, n_pos, n_neg


def auroc(scores, labels) -> float:
    """P(score_attack > score_normal), ties counted half.

    Mann-Whitney formulation via midranks, O(n log n): a run of c tied
    scores ending at 1-based rank e shares rank e - (c - 1) / 2. Midranks
    are half-integers, so their sum is exact.
    """
    scores, labels, n_pos, n_neg = _check_two_class(scores, labels)
    _, run, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    u = float(np.sum(ranks[labels == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def optimal_threshold_metrics(scores, labels) -> dict:
    """Metrics at the F1-maximizing threshold, as the ``metrics`` mapping of a
    run's ``record.yaml``: precision, recall, f1, auroc and threshold.

    Every distinct observed score is a candidate threshold t with decision
    rule score >= t => attack. Ties in F1 resolve toward the smaller
    threshold (higher recall). The threshold is chosen on the scored set
    itself, so treat these numbers as an upper bound when that set is the
    test set.
    """
    scores, labels, n_pos, _ = _check_two_class(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    cum_tp = np.cumsum(y == 1)
    cum_fp = np.cumsum(y == 0)
    # last index of each run of equal scores = stats of "predict >= s[i]"
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tp = cum_tp[last].astype(np.float64)
    fp = cum_fp[last].astype(np.float64)
    fn = n_pos - tp
    denom = 2.0 * tp + fp + fn
    f1 = np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    # thresholds are descending here; argmax on the reversed array picks the
    # smallest threshold among F1 ties
    k = len(f1) - 1 - int(np.argmax(f1[::-1]))
    predicted = tp[k] + fp[k]
    precision = tp[k] / predicted if predicted > 0 else 0.0
    recall = tp[k] / n_pos
    return {"precision": float(precision), "recall": float(recall), "f1": float(f1[k]),
            "auroc": auroc(scores, labels), "threshold": float(s[last][k])}


METRIC_FIELDS = ("precision", "recall", "f1", "auroc")


def aggregate_runs(metrics) -> dict:
    """Each metric's [mean, sample std] over runs' metrics mappings, as
    ``aggregate.yaml`` stores them; std is 0 for a single run."""
    if not metrics:
        raise MetricError("no runs to aggregate")
    out = {}
    for field in METRIC_FIELDS:
        vals = np.array([m[field] for m in metrics], dtype=np.float64)
        if len(vals) > 1 and vals.min() != vals.max():
            std = float(vals.std(ddof=1))
        else:
            std = 0.0  # single run, or identical values: exactly zero
        out[field] = [float(vals.mean()), std]
    return out


def format_report(seed: int, metrics: dict) -> str:
    body = "  ".join(f"{f}={metrics[f]:.4f}" for f in METRIC_FIELDS)
    return f"run seed={seed}: {body}  threshold={metrics['threshold']:.6g}"


def format_aggregate(agg: dict, n_runs: int) -> str:
    body = "  ".join(f"{f}={m:.4f}±{s:.4f}" for f, (m, s) in agg.items())
    return f"aggregate over {n_runs} run(s): {body}"
