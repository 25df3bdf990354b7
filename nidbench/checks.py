"""Correctness checks, computed apart from nidkit.

Each check raises ``CheckError`` naming what disagreed. None compares with a
stored copy of an earlier output: every expected value is either recomputed
here from the program's inputs and outputs, or a property the method must
have (finite scores, a [0, 1] feature range, an all-normal training split).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import yaml


class CheckError(AssertionError):
    """A program output failed a benchmark check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def auroc_pairwise(scores, labels):
    """P(attack score > normal score) + P(tie)/2, counted over every pair.

    For each attack score the normals below it and tied with it are counted
    by binary search in the sorted normal scores, which is the pair count
    without materialising the pairs.
    """
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = scores[labels == 1], np.sort(scores[labels == 0])
    require(pos.size and neg.size, "auroc needs both classes")
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return (below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size)


def best_f1_scan(scores, labels):
    """(precision, recall, f1) at the F1-best threshold, trying every score.

    Rule: predict attack when score >= t. Ties in F1 go to the smaller t.
    """
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int((labels == 1).sum())
    best = (-1.0, 0.0, 0.0)
    for t in np.unique(scores):                  # ascending: first max wins
        pred = scores >= t
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        f1 = 2 * tp / (2 * tp + fp + (n_pos - tp))
        if f1 > best[0]:
            best = (f1, tp / (tp + fp) if tp + fp else 0.0, tp / n_pos)
    return best[1], best[2], best[0]


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_finite_scores(scores, what):
    scores = np.asarray(scores)
    require(np.all(np.isfinite(scores)), f"{what}: {int((~np.isfinite(scores)).sum())} "
                                         f"non-finite scores")


def check_auroc(reported, scores, labels, what):
    expected = auroc_pairwise(scores, labels)
    require(close(reported, expected),
            f"{what}: AUROC {reported!r} but pairwise counting gives {expected!r}")


# ---------------------------------------------------------------------------
# grid-mlp: one experiment directory per cell


def read_scores(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([int(r["sample_id"]) for r in rows]),
            np.array([float(r["score"]) for r in rows]),
            np.array([int(r["label"]) for r in rows]))


def check_trained(trained, initial, what):
    """Training moved every weight matrix away from its initial value.

    ``trained`` and ``initial`` are the encoder's ``state_dict()`` after
    training and before its first training step. A state dict keeps the same
    names when ``fit_center`` freezes the encoder (its parameters then list
    as buffers). Only arrays of rank 2 and up (the weight matrices) must
    move: normalisation statistics change in a forward pass alone. Training
    that does nothing (an optimizer step or a backward pass that leaves the
    weights alone) leaves them equal, however well the untrained encoder
    happens to detect.
    """
    require(set(trained) == set(initial)
            and all(trained[n].shape == initial[n].shape for n in initial),
            f"{what}: trained and initial encoders have different parameters")
    still = [n for n, w in initial.items() if w.ndim >= 2 and np.array_equal(w, trained[n])]
    require(not still, f"{what}: training left {len(still)} weight matrices unchanged "
                       f"({', '.join(sorted(still))})")


def check_grid_cell(exp_dir, seed, runs, labels_by_id, train_ids, floor=None, initial=None):
    """Every stored artifact of one cell, against the inputs.

    ``labels_by_id`` is the benchmark's own label array (ids are row
    numbers); ``train_ids`` are the rows the split trains on. A cell
    without ``aggregate.yaml`` had no successful run, so it counts as
    ``n_runs_ok`` 0. For an SSL cell, ``floor`` is the AUROC it must reach
    and ``initial`` the parameters its encoder started from, which the
    checkpoint's encoder must have moved away from. Returns the run's AUROC.
    """
    exp_dir = Path(exp_dir)
    agg_path = exp_dir / "aggregate.yaml"
    n_ok = yaml.safe_load(agg_path.read_text())["n_runs_ok"] if agg_path.exists() else 0
    require(n_ok == runs, f"{exp_dir.name}: n_runs_ok {n_ok} != runs {runs}")
    run_dir = exp_dir / f"run{seed}"
    record = yaml.safe_load((run_dir / "record.yaml").read_text())
    require(record["status"] == "ok", f"{run_dir}: status {record['status']}")

    ids, scores, labels = read_scores(run_dir / "scores.csv")
    check_finite_scores(scores, str(run_dir))
    require(len(set(ids.tolist())) == len(ids), f"{run_dir}: a row was scored twice")
    require(np.array_equal(labels, labels_by_id[ids]),
            f"{run_dir}: scores.csv labels disagree with the generated labels")
    attack_ids = np.flatnonzero(labels_by_id == 1)
    normal_ids = np.flatnonzero(labels_by_id == 0)
    expected = np.union1d(np.setdiff1d(normal_ids, train_ids), attack_ids)
    require(np.array_equal(np.sort(ids), expected),
            f"{run_dir}: scored ids are not the held-out normals plus every attack "
            f"({len(ids)} scored, {len(expected)} expected)")

    metrics = record["metrics"]
    check_auroc(metrics["auroc"], scores, labels, str(run_dir))
    precision, recall, f1 = best_f1_scan(scores, labels)
    for name, value in (("precision", precision), ("recall", recall), ("f1", f1)):
        require(close(metrics[name], value),
                f"{run_dir}: {name} {metrics[name]!r}, threshold scan gives {value!r}")

    with open(run_dir / "loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    require(rows, f"{run_dir}: empty loss.csv")
    bad = [r for r in rows if not all(math.isfinite(float(v)) for v in r[1:])]
    require(not bad, f"{run_dir}: non-finite loss at step {bad[0][0] if bad else ''}")
    if floor is not None:
        require(metrics["auroc"] >= floor,
                f"{exp_dir.name}: AUROC {metrics['auroc']:.4f} below {floor}")
    if initial is not None:
        with np.load(run_dir / "checkpoint.npz") as ckpt:
            trained = {n: ckpt[f"encoder.{n}"] for n in initial if f"encoder.{n}" in ckpt}
        check_trained(trained, initial, str(run_dir))
    return metrics["auroc"]


# ---------------------------------------------------------------------------
# encoders-score


def check_reference_scores(scores, reps_train, reps_rows, rows):
    """Scores equal the distance to the mean training representation.

    ``reps_train`` and ``reps_rows`` are representations the benchmark
    computed itself, each in one batch; ``rows`` indexes ``scores``.
    """
    center = reps_train.mean(axis=0)
    expected = np.sqrt(((reps_rows - center) ** 2).sum(axis=1))
    got = np.asarray(scores)[rows]
    worst = float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))))
    require(worst <= 1e-9, f"scores differ from the distance to the training mean "
                           f"by up to {worst:.3g} (relative)")


def check_batch_invariance(scores_a, scores_b, what):
    diff = float(np.max(np.abs(np.asarray(scores_a) - np.asarray(scores_b))))
    require(diff <= 1e-12 * max(1.0, float(np.max(np.abs(scores_a)))),
            f"{what}: scores change with the scoring batch size (max diff {diff:.3g})")


# ---------------------------------------------------------------------------
# ingest


def check_ingested(ds, book):
    """A preprocessed table against the generator's bookkeeping."""
    require(ds.n_rows == book["rows_out"], f"rows out {ds.n_rows} != {book['rows_out']}")
    require(int(ds.labels.sum()) == book["attacks"],
            f"attack rows {int(ds.labels.sum())} != {book['attacks']}")
    require(ds.n_features == book["width"], f"width {ds.n_features} != {book['width']}")
    require(dict(ds.norm_stats) == book["numeric_minmax"],
            "numeric min/max differ from the generated values")
    f = ds.features
    require(f.min() >= 0.0 and f.max() <= 1.0, "features outside [0, 1]")
    require(sorted(ds.onehot_groups) == book["onehot_groups"], "one-hot groups differ")
    for name, cols in ds.onehot_groups.items():
        require(np.all(f[:, cols].sum(axis=1) == 1.0), f"one-hot group {name} does not sum to 1")


def check_same_dataset(a, b, what):
    """Every field of two datasets equal, bit for bit."""
    for field in ("features", "labels", "numeric_idx", "ids"):
        x, y = getattr(a, field), getattr(b, field)
        require(x.dtype == y.dtype and np.array_equal(x, y), f"{what}: {field} differ")
    for field in ("feature_names", "onehot_groups"):
        require(getattr(a, field) == getattr(b, field), f"{what}: {field} differ")
    require({k: tuple(v) for k, v in a.norm_stats.items()}
            == {k: tuple(v) for k, v in b.norm_stats.items()}, f"{what}: norm_stats differ")


def check_split(train, test, n_rows, n_normal, fraction):
    require(np.all(train.labels == 0), "training split holds attack rows")
    require(not np.intersect1d(train.ids, test.ids).size, "train and test rows overlap")
    require(len(train.ids) + len(test.ids) == n_rows, "split lost or added rows")
    require(len(train.ids) == int(round(fraction * n_normal)),
            f"training split has {len(train.ids)} rows, expected "
            f"{int(round(fraction * n_normal))}")
