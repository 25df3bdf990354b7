import csv

import numpy as np
import pytest

from nidkit import nn, tensor as T
from nidkit.data import DataError
from nidkit.detector import Detector, StateError, dump_scores, fit_center
from nidkit.encoders import MLPEncoder
from nidkit.tensor import Tensor


class _Identity(nn.Module):
    def forward(self, x):
        return x


class _Affine(nn.Module):
    """Fixed linear map, handy for hand-checkable representations."""

    def __init__(self, w):
        super().__init__()
        self.w = Tensor(np.asarray(w, dtype=float))

    def forward(self, x):
        return T.matmul(x, self.w)


def test_center_is_column_mean_under_identity_encoder():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 5))
    det = fit_center(_Identity(), X)
    np.testing.assert_allclose(det.center, X.mean(axis=0), atol=1e-12)


def test_three_four_five_distance():
    # symmetric training set -> center at the origin
    X = np.array([[1.0, 2.0], [-1.0, -2.0]])
    det = fit_center(_Identity(), X)
    np.testing.assert_allclose(det.center, 0.0, atol=1e-15)
    assert det.score(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0, abs=1e-12)


def test_batched_fit_matches_full_mean():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(1030, 7))  # two full 512-row slices and a remainder
    w = rng.normal(size=(7, 3))
    det = Detector(_Affine(w)).fit(X)
    np.testing.assert_allclose(det.center, (X @ w).mean(axis=0), atol=1e-10)


def test_batch_scoring_matches_per_sample_loop():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 6))
    Xtest = rng.normal(size=(9, 6))
    enc = MLPEncoder(6, np.random.default_rng(3), hidden_dim=8)
    det = fit_center(enc, X)
    batch = det.score(Xtest)
    loop = np.array([det.score(Xtest[i][None])[0] for i in range(9)])
    np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-12)


def test_fit_is_invariant_to_row_order():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 4))
    enc = MLPEncoder(4, np.random.default_rng(5), hidden_dim=8)
    c1 = fit_center(enc, X).center
    c2 = fit_center(enc, X[rng.permutation(20)]).center
    np.testing.assert_allclose(c1, c2, atol=1e-12)


def test_mean_squared_train_score_equals_covariance_trace():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(64, 10))
    enc = MLPEncoder(10, np.random.default_rng(7), hidden_dim=16)
    det = fit_center(enc, X)
    scores = det.score(X)
    with T.no_grad():
        reps = enc(Tensor(X)).values
    trace = np.trace(np.cov(reps, rowvar=False, bias=True))
    assert abs(np.mean(scores ** 2) - trace) < 1e-8


def test_subset_representations_are_mean_aggregated():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 4))
    det = fit_center(_Identity(), X, subset_columns=[[0, 1], [2, 3]])
    expected_center = 0.5 * (X[:, :2] + X[:, 2:]).mean(axis=0)
    np.testing.assert_allclose(det.center, expected_center, atol=1e-12)
    x = rng.normal(size=(1, 4))
    rep = 0.5 * (x[:, :2] + x[:, 2:])
    np.testing.assert_allclose(det.score(x),
                               np.linalg.norm(rep - det.center, axis=1),
                               atol=1e-12)


def test_score_of_zero_rows_is_an_empty_float_array():
    det = fit_center(_Identity(), np.ones((3, 4)))
    scores = det.score(np.zeros((0, 4)))
    assert scores.shape == (0,) and scores.dtype == np.float64


def test_unfitted_detector_raises():
    det = Detector(_Identity())
    with pytest.raises(StateError):
        det.score(np.zeros((2, 3)))


def test_empty_training_set_raises():
    with pytest.raises(DataError):
        fit_center(_Identity(), np.zeros((0, 3)))


def test_fit_freezes_encoder_and_sets_eval_mode():
    enc = MLPEncoder(5, np.random.default_rng(9), hidden_dim=8)
    fit_center(enc, np.random.default_rng(10).normal(size=(16, 5)))
    assert not enc.training
    assert all(not p.requires_grad for p in enc.parameters())
    # representations must come from eval-mode normalization statistics:
    # scoring the same row twice gives bit-identical results
    det = fit_center(enc, np.ones((4, 5)))
    a = det.score(np.full((1, 5), 0.3))
    b = det.score(np.full((1, 5), 0.3))
    assert a[0] == b[0]


def test_score_dump_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    dump_scores(path, ids=np.array([7, 8, 9]),
                scores=np.array([0.125, 2.5, 0.0625]),
                labels=np.array([0, 1, 0]))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "score", "label"]
    assert rows[1] == ["7", "0.125", "0"]
    assert rows[2] == ["8", "2.5", "1"]
    assert [float(r[1]) for r in rows[1:]] == [0.125, 2.5, 0.0625]


def _dump_scores_rowwise(path, ids, scores, labels):
    """The row-at-a-time writer ``dump_scores`` must stay byte-equal to."""
    ids, scores, labels = np.asarray(ids), np.asarray(scores), np.asarray(labels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "score", "label"])
        for i in range(len(ids)):
            writer.writerow([ids[i], repr(float(scores[i])), int(labels[i])])


def test_score_dump_bytes_match_the_rowwise_writer(tmp_path):
    rng = np.random.default_rng(3)
    ids = rng.permutation(1000)[:300]
    scores = np.concatenate([rng.lognormal(size=297), [0.0, 1e-300, 1.0 / 3.0]])
    labels = rng.integers(0, 2, size=300)
    dump_scores(tmp_path / "new.csv", ids, scores, labels)
    _dump_scores_rowwise(tmp_path / "ref.csv", ids, scores, labels)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_score_dump_rejects_mismatched_lengths(tmp_path):
    with pytest.raises(ValueError, match="3 ids, 2 scores"):
        dump_scores(tmp_path / "s.csv", [1, 2, 3], [0.5, 0.25], [0, 1, 0])
    with pytest.raises(ValueError, match="2 labels"):
        dump_scores(tmp_path / "s.csv", [1, 2, 3], [0.5, 0.25, 1.0], [0, 1])
