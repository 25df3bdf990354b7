"""Augmentation tests.

The stochastic corruptions are checked against Monte-Carlo estimates of
their defining statistics (element-change frequency, noise moments) with
about 1e5 element draws, and the per-row shuffle against a chi-squared
uniformity test over all permutations of a small row. Seeds are fixed, so
these are deterministic.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy import stats

from nidkit.augment import (KINDS, AugmentationSpec, ViewSet, gaussian_noise,
                            make_views, mixup_partners, random_shuffle,
                            subset_columns, swap_noise, zero_out)
from nidkit.data import SchemaError
from nidkit.nn import BatchSizeError, ConfigError
from nidkit.ssl_models import _mixup_tensor
from nidkit.tensor import Tensor

N_MC = 100_000  # element draws for frequency/moment estimates
MC_TOL = 0.01


# ---------------------------------------------------------------------------
# masked corruptions: Monte-Carlo frequency and moment checks


def test_swap_noise_change_frequency():
    p = 0.15
    batch = np.zeros((1000, N_MC // 1000))
    donors = np.ones((10, batch.shape[1]))
    out = swap_noise(batch, p, donors, np.random.default_rng(0))
    changed = np.mean(out != 0.0)
    assert abs(changed - p) < MC_TOL
    assert set(np.unique(out)) <= {0.0, 1.0}  # values come from the donors


def test_swap_noise_respects_donor_columns():
    # donor column j holds the constant j+1; swapped cells must match their
    # own column, never a neighbor's
    d = 8
    donors = np.tile(np.arange(1.0, d + 1.0), (20, 1))
    out = swap_noise(np.zeros((500, d)), 0.5, donors, np.random.default_rng(1))
    for j in range(d):
        col = out[:, j]
        assert set(np.unique(col)) <= {0.0, j + 1.0}
        assert np.any(col == j + 1.0)


def test_swap_noise_width_mismatch():
    with pytest.raises(SchemaError):
        swap_noise(np.zeros((4, 3)), 0.1, np.zeros((5, 7)), np.random.default_rng(2))


def test_zero_out_frequency_and_support():
    p = 0.25
    batch = np.ones((1000, N_MC // 1000))
    out = zero_out(batch, p, np.random.default_rng(3))
    assert abs(np.mean(out == 0.0) - p) < MC_TOL
    assert np.all((out == 0.0) | (out == 1.0))


def test_gaussian_noise_moments():
    p, mu, sigma2 = 0.3, 0.5, 0.04
    batch = np.zeros((1000, N_MC // 1000))
    delta = gaussian_noise(batch, p, mu, sigma2, np.random.default_rng(4))
    # element-wise delta is a p-thinned N(mu, sigma2):
    #   E[delta]    = p * mu
    #   E[delta^2]  = p * (sigma2 + mu^2)
    assert abs(np.mean(delta) - p * mu) < MC_TOL
    assert abs(np.mean(delta ** 2) - p * (sigma2 + mu ** 2)) < MC_TOL
    assert abs(np.mean(delta != 0.0) - p) < MC_TOL


def test_masked_corruptions_identity_at_p_zero():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(16, 9))
    donors = rng.normal(size=(8, 9))
    np.testing.assert_array_equal(
        swap_noise(batch, 0.0, donors, np.random.default_rng(6)), batch)
    np.testing.assert_array_equal(
        zero_out(batch, 0.0, np.random.default_rng(7)), batch)
    np.testing.assert_array_equal(
        gaussian_noise(batch, 0.0, 0.0, 0.01, np.random.default_rng(8)), batch)


# ---------------------------------------------------------------------------
# per-row shuffle


def test_shuffle_preserves_row_multisets():
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(50, 13))
    out = random_shuffle(batch, np.random.default_rng(10))
    np.testing.assert_allclose(np.sort(out, axis=1), np.sort(batch, axis=1))


def test_shuffle_uniform_over_permutations():
    # 1e4 independent shuffles of a 4-element row; all 24 orderings should
    # be equally likely (chi-squared test at the 1% level, 23 dof)
    n = 10_000
    batch = np.tile(np.arange(4.0), (n, 1))
    out = random_shuffle(batch, np.random.default_rng(11))
    perms = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
    counts = np.zeros(24)
    for row in out.astype(int):
        counts[perms[tuple(row)]] += 1
    expected = n / 24.0
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert np.all(counts > 0)
    assert chi2 < stats.chi2.ppf(0.99, 23)


def test_shuffle_rows_are_independent():
    batch = np.tile(np.arange(8.0), (200, 1))
    out = random_shuffle(batch, np.random.default_rng(13))
    assert len({tuple(r) for r in out.astype(int)}) > 50


# ---------------------------------------------------------------------------
# feature subsets


def test_subsets_worked_example():
    cols = subset_columns(6, 2, 1.0 / 3.0, np.arange(6))
    assert cols == [[0, 1, 2, 3], [2, 3, 4, 5]]


def test_subsets_cover_and_share_width():
    for d in (10, 13, 20):
        for k in (2, 3, 4):
            for ov in (0.0, 0.25, 0.5):
                cols = subset_columns(d, k, ov, np.arange(d))
                widths = {len(c) for c in cols}
                assert len(widths) == 1, (d, k, ov)
                assert set().union(*map(set, cols)) == set(range(d))


def test_subsets_follow_feature_permutation():
    perm = np.array([3, 0, 4, 1, 5, 2])
    cols = subset_columns(6, 2, 1.0 / 3.0, perm)
    assert cols == [[3, 0, 4, 1], [4, 1, 5, 2]]
    batch = np.arange(12.0).reshape(2, 6)
    vs = make_views(batch, AugmentationSpec(kind="subsets", k=2, overlap_fraction=1.0 / 3.0),
                    np.random.default_rng(0), columns=cols)
    np.testing.assert_array_equal(vs.views[0], batch[:, [3, 0, 4, 1]])
    np.testing.assert_array_equal(vs.views[1], batch[:, [4, 1, 5, 2]])


def test_subsets_validation():
    with pytest.raises(ConfigError):
        subset_columns(6, 1, 0.0, np.arange(6))
    with pytest.raises(ConfigError):
        subset_columns(6, 7, 0.0, np.arange(6))
    with pytest.raises(ConfigError):
        subset_columns(6, 2, 0.0, np.arange(5))
    with pytest.raises(ConfigError):
        subset_columns(6, 2, 0.0, np.zeros(6, dtype=int))


# ---------------------------------------------------------------------------
# mixup


def mixup(y, alpha, rng):
    """Representation-space mixup of a numpy batch, as the trainer does it."""
    return _mixup_tensor(Tensor(y), alpha, mixup_partners(y.shape[0], rng)).values


def test_mixup_is_convex_combination_with_distinct_partner():
    b = 10
    y = np.eye(b)  # one-hot rows make the partner identifiable
    out = mixup(y, 0.7, np.random.default_rng(14))
    for i in range(b):
        assert out[i, i] == pytest.approx(0.7)
        others = np.delete(out[i], i)
        assert np.sort(others)[-1] == pytest.approx(0.3)
        assert np.count_nonzero(others) == 1


def test_mixup_alpha_endpoints():
    rng = np.random.default_rng(15)
    y = rng.normal(size=(12, 5))
    np.testing.assert_array_equal(mixup(y, 1.0, np.random.default_rng(16)), y)
    out = mixup(y, 0.0, np.random.default_rng(17))
    for i in range(12):
        matches = np.where((out[i] == y).all(axis=1))[0]
        assert len(matches) == 1 and matches[0] != i


def test_mixup_partners_never_self_and_uniform():
    draws = np.stack([mixup_partners(5, np.random.default_rng(s))
                      for s in range(10_000)])
    assert np.all(draws != np.arange(5))
    # marginal of row 0's partner should be uniform over {1,2,3,4}
    counts = np.bincount(draws[:, 0], minlength=5)[1:]
    chi2 = np.sum((counts - 2500.0) ** 2 / 2500.0)
    assert chi2 < stats.chi2.ppf(0.99, 3)


def test_mixup_needs_two_rows():
    with pytest.raises(BatchSizeError):
        mixup_partners(1, np.random.default_rng(18))


# ---------------------------------------------------------------------------
# spec validation and the dispatcher


def test_spec_rejects_bad_hyperparameters():
    with pytest.raises(ConfigError):
        AugmentationSpec(kind="jitter")
    with pytest.raises(ConfigError):
        AugmentationSpec(kind="zero_out", p=1.5)
    with pytest.raises(ConfigError):
        AugmentationSpec(kind="gaussian_noise", sigma2=0.0)
    with pytest.raises(ConfigError):
        AugmentationSpec(kind="subsets", k=1)
    with pytest.raises(ConfigError):
        AugmentationSpec(kind="subsets", overlap_fraction=1.0)
    with pytest.raises(ConfigError):
        AugmentationSpec(kind="mixup", alpha=-0.1)
    for kind in KINDS:
        AugmentationSpec(kind=kind)  # defaults are valid for every kind


def test_every_spec_field_is_read_by_some_kind():
    fields = {f.name for f in dataclasses.fields(AugmentationSpec)} - {"kind"}
    assert set().union(*KINDS.values()) == fields


def test_make_views_input_space_kinds():
    rng = np.random.default_rng(19)
    batch = rng.normal(size=(20, 10))
    donors = rng.normal(size=(40, 10))
    spec = AugmentationSpec(kind="swap_noise", p=0.5)
    vs = make_views(batch, spec, np.random.default_rng(20), donor_pool=donors)
    assert isinstance(vs, ViewSet) and len(vs.views) == 2
    assert vs.partners is None
    assert not np.array_equal(vs.views[0], vs.views[1])  # independent draws
    for v in vs.views:
        assert v.shape == batch.shape


def test_make_views_reproducible_given_seeded_generator():
    batch = np.random.default_rng(21).normal(size=(8, 6))
    spec = AugmentationSpec(kind="gaussian_noise", p=0.4, mu=0.1, sigma2=0.02)
    a = make_views(batch, spec, np.random.default_rng(42))
    b = make_views(batch, spec, np.random.default_rng(42))
    for va, vb in zip(a.views, b.views):
        np.testing.assert_array_equal(va, vb)
    c = make_views(batch, spec, np.random.default_rng(43))
    assert not np.array_equal(a.views[0], c.views[0])


def test_make_views_subsets_and_mixup_special_cases():
    batch = np.random.default_rng(22).normal(size=(6, 8))
    cols = subset_columns(8, 2, 0.0, np.arange(8))
    vs = make_views(batch, AugmentationSpec(kind="subsets", k=2),
                    np.random.default_rng(23), columns=cols)
    assert len(vs.views) == 2 and vs.partners is None
    with pytest.raises(ConfigError):
        make_views(batch, AugmentationSpec(kind="subsets", k=2),
                   np.random.default_rng(24))
    vs = make_views(batch, AugmentationSpec(kind="mixup", alpha=0.9),
                    np.random.default_rng(25))
    # each view's partner rows, drawn in view order after nothing else
    rng = np.random.default_rng(25)
    assert vs.alpha == 0.9
    for got, want in zip(vs.partners, [mixup_partners(6, rng), mixup_partners(6, rng)],
                         strict=True):
        np.testing.assert_array_equal(got, want)
    for v in vs.views:
        np.testing.assert_array_equal(v, batch)
    with pytest.raises(ConfigError):
        make_views(batch, AugmentationSpec(kind="swap_noise"),
                   np.random.default_rng(26))
