import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.evaluate import (MetricError, aggregate_runs, auroc,
                             format_aggregate, format_report,
                             optimal_threshold_metrics)
from oracles import auroc_bruteforce, best_threshold_bruteforce, f1_at_threshold


def metrics(*values):
    """A run's metrics mapping, as ``record.yaml`` stores it."""
    return dict(zip(("precision", "recall", "f1", "auroc", "threshold"), values))


def test_auroc_perfect_separation():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert auroc(scores, labels) == 1.0
    assert auroc(-scores, labels) == 0.0


def test_auroc_all_ties():
    assert auroc(np.ones(10), np.array([0] * 5 + [1] * 5)) == 0.5


def test_auroc_matches_pairwise_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(10, 200))
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        fast = auroc(scores, labels)
        slow = auroc_bruteforce(scores, labels)
        assert abs(fast - slow) < 1e-12, trial


def test_auroc_single_class_raises():
    with pytest.raises(MetricError):
        auroc(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(MetricError):
        auroc(np.array([1.0, 2.0]), np.array([0, 0]))


def test_non_finite_scores_raise():
    labels = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(MetricError, match="6 of 6 scores are not finite"):
        optimal_threshold_metrics(np.full(6, np.nan), labels)
    one_bad = np.array([0.1, 0.2, np.inf, 0.7, 0.8, 0.9])
    with pytest.raises(MetricError, match="1 of 6"):
        auroc(one_bad, labels)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_auroc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_auroc_label_flip_symmetry(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=25)  # continuous, ties have probability zero
    labels = rng.integers(0, 2, size=25)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auroc(scores, 1 - labels) == pytest.approx(1.0 - auroc(scores, labels),
                                                      abs=1e-12)


def test_threshold_separable_case():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    rep = optimal_threshold_metrics(scores, labels)
    assert rep["precision"] == rep["recall"] == rep["f1"] == 1.0
    assert 0.2 < rep["threshold"] <= 0.8
    assert rep["auroc"] == 1.0


def test_threshold_inverted_scores_degenerate_all_positive():
    # attacks all scored BELOW normals: the best F1 comes from predicting
    # everything positive (threshold = min score), F1 = 2a / (2a + n)
    a, n = 4, 6
    scores = np.concatenate([np.linspace(0.0, 0.3, a),   # attacks
                             np.linspace(0.5, 0.9, n)])  # normals
    labels = np.array([1] * a + [0] * n)
    rep = optimal_threshold_metrics(scores, labels)
    assert rep["threshold"] == scores.min()
    assert rep["recall"] == 1.0
    assert rep["f1"] == pytest.approx(2 * a / (2 * a + n), abs=1e-12)


def test_threshold_matches_exhaustive_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(8, 100))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        rep = optimal_threshold_metrics(scores, labels)
        thr, f1 = best_threshold_bruteforce(scores, labels)
        assert rep["f1"] == pytest.approx(f1, abs=1e-12), trial
        assert rep["threshold"] == pytest.approx(thr, abs=0.0), trial


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_threshold_f1_dominates_all_other_thresholds(seed):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=40), 1)
    labels = rng.integers(0, 2, size=40)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    rep = optimal_threshold_metrics(scores, labels)
    for t in np.unique(scores):
        assert rep["f1"] >= f1_at_threshold(scores, labels, t) - 1e-12


def test_report_f1_consistency():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    rep = optimal_threshold_metrics(scores, labels)
    p, r = rep["precision"], rep["recall"]
    expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
    assert rep["f1"] == pytest.approx(expected, abs=1e-12)


def test_aggregate_two_point_formula():
    reports = [metrics(0.7, 0.7, 0.7, 0.7, 0.5), metrics(0.9, 0.9, 0.9, 0.9, 0.5)]
    agg = aggregate_runs(reports)
    for field in ("precision", "recall", "f1", "auroc"):
        mean, std = agg[field]
        assert mean == pytest.approx(0.8, abs=1e-12)
        assert std == pytest.approx(np.sqrt(0.02), abs=1e-12)


def test_aggregate_identical_and_single():
    rep = metrics(0.5, 0.6, 0.55, 0.8, 1.0)
    agg = aggregate_runs([rep, rep, rep])
    assert all(s == 0.0 for _, s in agg.values())
    single = aggregate_runs([rep])
    assert single["f1"] == [0.55, 0.0]


def test_aggregate_matches_welford_oracle():
    rng = np.random.default_rng(3)
    reports = [metrics(*rng.random(4), 0.5) for _ in range(10)]
    agg = aggregate_runs(reports)

    def welford(xs):
        mean, m2 = 0.0, 0.0
        for i, x in enumerate(xs, start=1):
            delta = x - mean
            mean += delta / i
            m2 += delta * (x - mean)
        return mean, np.sqrt(m2 / (len(xs) - 1))

    for field in ("precision", "recall", "f1", "auroc"):
        w_mean, w_std = welford([r[field] for r in reports])
        assert agg[field][0] == pytest.approx(w_mean, abs=1e-12)
        assert agg[field][1] == pytest.approx(w_std, abs=1e-12)


def test_aggregate_empty_raises():
    with pytest.raises(MetricError):
        aggregate_runs([])


def test_report_formatting_lines():
    rep = metrics(1.0, 0.5, 2 / 3, 0.75, 0.125)
    line = format_report(3, rep)
    assert "seed=3" in line and "f1=0.6667" in line and "threshold=0.125" in line
    agg_line = format_aggregate(aggregate_runs([rep, rep]), 2)
    assert "2 run(s)" in agg_line and "auroc=0.7500±0.0000" in agg_line
