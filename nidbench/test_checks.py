"""Each benchmark check rejects a deliberately corrupted output.

    python3 -m pytest nidbench -q

Every test first shows the check passing on the real output, then breaks
one thing and expects ``CheckError``, so no check can pass vacuously.
"""

import csv
import math
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nidbench import checks, inputs, workloads  # noqa: E402
from nidbench.checks import CheckError  # noqa: E402
from nidkit import data, nn, runner  # noqa: E402

SEED = 3


# ---------------------------------------------------------------------------
# grid cell artifacts


SSL_AUG = {"kind": "gaussian_noise", "p": 0.15, "sigma2": 0.01}
SUBSETS_AUG = {"kind": "subsets", "k": 2, "overlap_fraction": 0.0}


def _grid_cell(work, model, out, aug=None):
    """Run one single-seed grid cell on ``work/ds.npz``; return its directory."""
    base = {"dataset": {"cache": "ds.npz"}, "model": model, "encoder": dict(workloads.MLP),
            "training": {"learning_rate": 1e-3, "epochs": 1, "batch_size": 32},
            "runs": 1, "base_seed": SEED, "output_dir": out}
    if aug is not None:
        base["augmentation"] = aug
    row = runner.run_grid({"version": 1, "grid": {}, "base": base},
                          base_dir=work, workers=1)["rows"][0]
    return work / out / row["hash"]


@pytest.fixture(scope="module")
def grid_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("grid")
    ds = data.synth_generate(200, 50, 12, 8.0, seed=SEED)
    data.save_dataset(work / "ds.npz", ds)
    return work, ds


@pytest.fixture(scope="module")
def cell(grid_work):
    """One real autoencoder grid cell on a small synthetic cache."""
    work, ds = grid_work
    train_ids = data.protocol_split(ds, 0.5, seed=SEED)[0].ids
    return _grid_cell(work, "autoencoder", "out"), ds.labels, train_ids


@pytest.fixture
def cell_copy(cell, tmp_path):
    exp_dir, labels, train_ids = cell
    copy = tmp_path / exp_dir.name
    shutil.copytree(exp_dir, copy)
    return copy, labels, train_ids


def _check_cell(exp_dir, labels, train_ids, floor=0.0):
    return checks.check_grid_cell(exp_dir, SEED, 1, labels, train_ids, floor)


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + edit(rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_clean_cell_passes(cell_copy):
    auroc = _check_cell(*cell_copy)
    assert 0.5 < auroc <= 1.0


def test_shuffled_scores_fail(cell_copy):
    exp_dir = cell_copy[0]
    rng = np.random.default_rng(0)

    def shuffle(rows):
        scores = [r[1] for r in rows]
        for r, s in zip(rows, rng.permutation(scores)):
            r[1] = s
        return rows
    _edit_csv(exp_dir / f"run{SEED}" / "scores.csv", shuffle)
    with pytest.raises(CheckError, match="AUROC"):
        _check_cell(*cell_copy)


def test_one_nan_score_fails(cell_copy):
    exp_dir = cell_copy[0]

    def poison(rows):
        rows[len(rows) // 2][1] = "nan"
        return rows
    _edit_csv(exp_dir / f"run{SEED}" / "scores.csv", poison)
    with pytest.raises(CheckError, match="non-finite"):
        _check_cell(*cell_copy)


def test_dropped_test_row_fails(cell_copy):
    exp_dir = cell_copy[0]
    _edit_csv(exp_dir / f"run{SEED}" / "scores.csv", lambda rows: rows[1:])
    with pytest.raises(CheckError, match="held-out normals"):
        _check_cell(*cell_copy)


def test_scored_training_row_fails(cell_copy):
    exp_dir, labels, train_ids = cell_copy
    with pytest.raises(CheckError, match="held-out normals"):
        _check_cell(exp_dir, labels, train_ids[1:])


def test_wrong_f1_fails(cell_copy):
    exp_dir = cell_copy[0]
    path = exp_dir / f"run{SEED}" / "record.yaml"
    record = yaml.safe_load(path.read_text())
    record["metrics"]["f1"] *= 0.99
    path.write_text(yaml.safe_dump(record))
    with pytest.raises(CheckError, match="f1"):
        _check_cell(*cell_copy)


def test_failed_cell_fails(grid_work, cell, monkeypatch):
    def crash(*args, **kwargs):
        raise FloatingPointError("training diverged")
    monkeypatch.setattr(runner, "train_baseline", crash)
    exp_dir = _grid_cell(grid_work[0], "autoencoder", "crashed")
    assert not (exp_dir / "aggregate.yaml").exists()
    with pytest.raises(CheckError, match="n_runs_ok 0"):
        _check_cell(exp_dir, *cell[1:])


def test_non_finite_loss_fails(cell_copy):
    exp_dir = cell_copy[0]

    def poison(rows):
        rows[-1][1] = "inf"
        return rows
    _edit_csv(exp_dir / f"run{SEED}" / "loss.csv", poison)
    with pytest.raises(CheckError, match="non-finite loss"):
        _check_cell(*cell_copy)


def test_auroc_floor_applies(cell_copy):
    with pytest.raises(CheckError, match="below"):
        _check_cell(*cell_copy, floor=1.01)


def _ssl_cell_check(grid_work, out, aug=SSL_AUG):
    work, ds = grid_work
    train = data.protocol_split(ds, 0.5, seed=SEED)[0]
    initial = workloads.initial_encoder(workloads.MLP, aug, SEED, train).state_dict()
    exp_dir = _grid_cell(work, "vicreg", out, aug)
    return checks.check_grid_cell(exp_dir, SEED, 1, ds.labels, train.ids, 0.0, initial)


def test_trained_ssl_cell_passes(grid_work):
    _ssl_cell_check(grid_work, "trained")


@pytest.mark.parametrize("aug", [SSL_AUG, SUBSETS_AUG], ids=["noise", "subsets"])
def test_untrained_ssl_cell_fails(grid_work, monkeypatch, aug):
    """An optimizer that does nothing leaves the seeded initial encoder,
    which ``initial_encoder`` rebuilds exactly."""
    monkeypatch.setattr(nn.Adam, "step", lambda self: None)
    with pytest.raises(CheckError, match="unchanged"):
        _ssl_cell_check(grid_work, f"untrained-{aug['kind']}", aug)


def test_trained_check_rejects_one_frozen_matrix():
    rng = np.random.default_rng(5)
    initial = {"a.weight": rng.normal(size=(4, 3)), "a.bias": np.zeros(3),
               "b.weight": rng.normal(size=(3, 2))}
    trained = {n: w + 0.01 for n, w in initial.items()}
    checks.check_trained(trained, initial, "clean")
    trained["b.weight"] = initial["b.weight"].copy()
    with pytest.raises(CheckError, match="b.weight"):
        checks.check_trained(trained, initial, "frozen")


# ---------------------------------------------------------------------------
# metric oracles and scoring checks


def test_pairwise_auroc_and_f1_scan_agree_with_brute_force():
    rng = np.random.default_rng(1)
    scores = np.round(rng.normal(size=300), 1)          # many ties
    labels = (rng.random(300) < 0.3).astype(int)
    pos, neg = scores[labels == 1], scores[labels == 0]
    brute = (np.sum(pos[:, None] > neg) + 0.5 * np.sum(pos[:, None] == neg)) / (
        pos.size * neg.size)
    assert math.isclose(checks.auroc_pairwise(scores, labels), brute, rel_tol=1e-15)
    precision, recall, f1 = checks.best_f1_scan(scores, labels)
    assert math.isclose(f1, 2 * precision * recall / (precision + recall), rel_tol=1e-12)


def _distance_scores(rng):
    reps_train = rng.normal(size=(64, 8))
    reps_test = rng.normal(size=(40, 8))
    center = reps_train.mean(axis=0)
    return reps_train, reps_test, np.linalg.norm(reps_test - center, axis=1)


def test_reference_scores_reject_shuffled_scores():
    reps_train, reps_test, scores = _distance_scores(np.random.default_rng(2))
    rows = np.arange(len(scores))
    checks.check_reference_scores(scores, reps_train, reps_test, rows)
    with pytest.raises(CheckError, match="distance to the training mean"):
        checks.check_reference_scores(scores[::-1], reps_train, reps_test, rows)


def test_scoring_checks_reject_one_nan_and_a_batch_size_change():
    scores = _distance_scores(np.random.default_rng(3))[2]
    checks.check_finite_scores(scores, "clean")
    checks.check_batch_invariance(scores, scores.copy(), "clean")
    poisoned = scores.copy()
    poisoned[7] = np.nan
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_finite_scores(poisoned, "poisoned")
    shifted = scores.copy()
    shifted[7] += 1e-6
    with pytest.raises(CheckError, match="batch size"):
        checks.check_batch_invariance(scores, shifted, "shifted")


def test_auroc_check_rejects_shuffled_scores():
    rng = np.random.default_rng(4)
    labels = (rng.random(200) < 0.3).astype(int)
    scores = rng.normal(size=200) + 2.0 * labels
    checks.check_auroc(checks.auroc_pairwise(scores, labels), scores, labels, "clean")
    with pytest.raises(CheckError, match="pairwise"):
        checks.check_auroc(checks.auroc_pairwise(scores, labels),
                           rng.permutation(scores), labels, "shuffled")


# ---------------------------------------------------------------------------
# ingest


SMALL_UNSW = {"rows": 800, "duplicates": 20, "missing": 20, "short_rows": 10,
              "non_numeric": 10}


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "unsw.csv"
    schema = data.load_schema(ROOT / "schemas" / "unsw_nb15.yaml")
    book = inputs.write_unsw_csv(path, schema, SEED, SMALL_UNSW)
    raw, rejects = data.load_csv(path, schema)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = data.preprocess(raw)
    assert len(rejects) == book["rejects"] == 20
    return ds, book


def _copy(ds):
    return data.Dataset(features=ds.features.copy(), labels=ds.labels.copy(),
                        feature_names=list(ds.feature_names),
                        numeric_idx=ds.numeric_idx.copy(),
                        onehot_groups={k: list(v) for k, v in ds.onehot_groups.items()},
                        norm_stats=dict(ds.norm_stats), ids=ds.ids.copy())


def test_ingest_matches_bookkeeping(ingested):
    ds, book = ingested
    checks.check_ingested(ds, book)


def test_mislabelled_ingest_row_fails(ingested):
    ds, book = ingested
    bad = _copy(ds)
    bad.labels[np.flatnonzero(bad.labels == 0)[0]] = 1
    with pytest.raises(CheckError, match="attack rows"):
        checks.check_ingested(bad, book)


def test_dropped_ingest_row_fails(ingested):
    ds, book = ingested
    bad = _copy(ds)
    bad.features, bad.labels = bad.features[1:], bad.labels[1:]
    with pytest.raises(CheckError, match="rows out"):
        checks.check_ingested(bad, book)


def test_unnormalised_feature_fails(ingested):
    ds, book = ingested
    bad = _copy(ds)
    bad.features[0, bad.numeric_idx[0]] = 1.5
    with pytest.raises(CheckError, match=r"\[0, 1\]"):
        checks.check_ingested(bad, book)


def test_broken_one_hot_group_fails(ingested):
    ds, book = ingested
    bad = _copy(ds)
    bad.features[0, bad.onehot_groups["proto"]] = 0.0
    with pytest.raises(CheckError, match="one-hot"):
        checks.check_ingested(bad, book)


def test_cache_round_trip_detects_one_changed_value(ingested, tmp_path):
    ds, _ = ingested
    data.save_dataset(tmp_path / "c.npz", ds)
    loaded = data.load_dataset(tmp_path / "c.npz")
    checks.check_same_dataset(ds, loaded, "round trip")
    loaded.features[3, 2] = np.nextafter(loaded.features[3, 2], 2.0)
    with pytest.raises(CheckError, match="features"):
        checks.check_same_dataset(ds, loaded, "round trip")


def test_split_checks_reject_attack_in_train_and_overlap(ingested):
    ds, _ = ingested
    n_normal = int((ds.labels == 0).sum())
    train, test = data.protocol_split(ds, 0.5, seed=SEED)
    checks.check_split(train, test, ds.n_rows, n_normal, 0.5)
    leaky = _copy(train)
    leaky.labels[0] = 1
    with pytest.raises(CheckError, match="attack rows"):
        checks.check_split(leaky, test, ds.n_rows, n_normal, 0.5)
    overlap = _copy(train)
    overlap.ids[0] = test.ids[0]
    with pytest.raises(CheckError, match="overlap"):
        checks.check_split(overlap, test, ds.n_rows, n_normal, 0.5)
