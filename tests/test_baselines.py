import numpy as np
import pytest

from nidkit import nn, tensor as T
from nidkit.baselines import (Autoencoder, DeepSVDD, reconstruction_loss,
                              svdd_init_center, svdd_loss, train_baseline)
from nidkit.data import DataError
from nidkit.tensor import Tensor
from oracles import as_dtype


class _LinearAE(nn.Module):
    """The autoencoder's four linear maps without its normalization and
    ReLUs: a purely linear stack for sanity checks."""

    def __init__(self, d, rng, hidden, latent):
        super().__init__()
        widths = [d, hidden, latent, hidden, d]
        self.layers = [nn.Linear(widths[i], widths[i + 1], rng) for i in range(4)]

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


def test_ae_architecture():
    ae = Autoencoder(20, np.random.default_rng(0))
    shapes = [tuple(l.weight.values.shape) for l in ae.layers]
    assert shapes == [(20, 256), (256, 64), (64, 256), (256, 20)]
    assert len(ae.norms) == 3  # no normalization on the output layer


def test_identity_initialized_linear_ae_has_zero_loss():
    d = 6
    ae = _LinearAE(d, np.random.default_rng(1), hidden=d, latent=d)
    for layer in ae.layers:
        layer.weight.values[:] = np.eye(d)
        layer.bias.values[:] = 0.0
    X = np.random.default_rng(2).normal(size=(10, d))
    loss = reconstruction_loss(ae, Tensor(X))
    assert float(loss.values) == 0.0


def test_linear_ae_overfits_single_point():
    x = np.array([[0.3, -1.2, 0.7]])
    ae = _LinearAE(3, np.random.default_rng(3), hidden=8, latent=3)
    opt = nn.Adam(ae, lr=1e-2)
    hist = train_baseline(ae, x, reconstruction_loss, opt,
                          epochs=300, batch_size=1, rng=np.random.default_rng(4))
    assert hist[-1]["total"] < hist[0]["total"] * 1e-3


def test_ae_training_reduces_loss():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(64, 10))
    ae = Autoencoder(10, np.random.default_rng(6), hidden=32, latent=4)
    opt = nn.Adam(ae, lr=1e-3)
    hist = [h["total"] for h in train_baseline(ae, X, reconstruction_loss, opt,
                                               epochs=30, batch_size=16, rng=rng)]
    assert np.mean(hist[-10:]) < np.mean(hist[:10])
    assert not ae.training  # left in eval mode for scoring
    assert len(hist) == 30 * 4


def test_ae_score_matches_manual_mse():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1030, 5))     # two full 512-row slices and a remainder
    ae = Autoencoder(5, np.random.default_rng(8), hidden=16, latent=3)
    ae.eval()
    with T.no_grad():
        rec = ae(Tensor(X)).values
    np.testing.assert_allclose(ae.score(X), np.mean((rec - X) ** 2, axis=1), atol=1e-12)


def test_svdd_has_zero_bias_parameters():
    model = DeepSVDD(12, np.random.default_rng(9))
    names = [name for name, _ in model.named_parameters()]
    assert len(names) == 3
    assert all(name.endswith("weight") for name in names)
    # and no normalization-layer state that could act like a bias
    assert all("running" not in name for name, _ in model.named_tensors())


def test_svdd_center_is_mean_initial_output():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(33, 6))
    model = DeepSVDD(6, np.random.default_rng(11), widths=(16, 8))
    c = svdd_init_center(model, X)
    with T.no_grad():
        out = model(Tensor(X)).values
    np.testing.assert_allclose(c, out.mean(axis=0), atol=1e-10)
    np.testing.assert_array_equal(model.center.values, c)


def test_svdd_center_fixed_bit_for_bit_during_training():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(48, 6))
    model = DeepSVDD(6, np.random.default_rng(13), widths=(16, 8))
    svdd_init_center(model, X)
    before = model.center.values.tobytes()
    opt = nn.Adam(model, lr=1e-3)
    train_baseline(model, X, svdd_loss, opt,
                   epochs=10, batch_size=16, rng=rng)
    assert model.center.values.tobytes() == before


def test_train_baseline_fixes_svdd_center_at_mean_initial_output():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(48, 6))
    model = DeepSVDD(6, np.random.default_rng(13), widths=(16, 8))
    fixed = DeepSVDD(6, np.random.default_rng(13), widths=(16, 8))
    expected = svdd_init_center(fixed, X)
    with T.no_grad():
        np.testing.assert_allclose(expected, model(Tensor(X)).values.mean(axis=0), atol=1e-10)
    train_baseline(model, X, svdd_loss, nn.Adam(model, lr=1e-3),
                   epochs=10, batch_size=16, rng=rng)
    assert model.center.values.tobytes() == expected.tobytes()
    assert model.layers[0].weight.values.tobytes() != fixed.layers[0].weight.values.tobytes()


def test_svdd_near_zero_center_warns():
    model = DeepSVDD(4, np.random.default_rng(14), widths=(8, 4))
    model.layers[-1].weight.values[:] = 0.0
    with pytest.warns(RuntimeWarning):
        svdd_init_center(model, np.ones((5, 4)))


def test_svdd_training_reduces_loss():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(64, 8))
    model = DeepSVDD(8, np.random.default_rng(18), widths=(32, 16))
    opt = nn.Adam(model, lr=1e-3)
    hist = [h["total"] for h in train_baseline(model, X, svdd_loss, opt,
                                               epochs=30, batch_size=16, rng=rng)]
    assert np.mean(hist[-10:]) < np.mean(hist[:10])


def test_svdd_score_matches_manual_distance():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(1030, 5))     # two full 512-row slices and a remainder
    model = DeepSVDD(5, np.random.default_rng(20), widths=(8, 4))
    svdd_init_center(model, X)
    with T.no_grad():
        out = model(Tensor(X)).values
    expected = np.sum((out - model.center.values) ** 2, axis=1)
    np.testing.assert_allclose(model.score(X), expected, atol=1e-12)


def test_scores_of_zero_rows_are_an_empty_float_array():
    rng = np.random.default_rng(25)
    ae = Autoencoder(5, rng, hidden=16, latent=3)
    svdd = DeepSVDD(5, rng, widths=(8, 4))
    svdd_init_center(svdd, rng.normal(size=(4, 5)))
    for scores in (ae.score(np.zeros((0, 5))), svdd.score(np.zeros((0, 5)))):
        assert scores.shape == (0,) and scores.dtype == np.float64


def test_svdd_empty_train_set_raises():
    model = DeepSVDD(4, np.random.default_rng(21), widths=(8, 4))
    with pytest.raises(DataError):
        svdd_init_center(model, np.zeros((0, 4)))


def test_center_survives_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    X = rng.normal(size=(16, 5))
    model = as_dtype(DeepSVDD(5, np.random.default_rng(23), widths=(8, 4)))
    svdd_init_center(model, X)
    path = tmp_path / "svdd.npz"
    nn.save_checkpoint(path, model)
    fresh = as_dtype(DeepSVDD(5, np.random.default_rng(24), widths=(8, 4)))
    nn.load_checkpoint(path, fresh)
    np.testing.assert_array_equal(fresh.center.values, model.center.values)
    np.testing.assert_allclose(fresh.score(X), model.score(X),
                               atol=0)
