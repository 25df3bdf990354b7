"""float32 is the compute dtype, ``nidkit.tensor.DTYPE``, with no setting:
layers build float32 parameters and buffers, the protocol split emits float32
features, and no op, loss or augmentation promotes a float32 input to
float64, forward or backward. So a run computes in float32 from its split to
its checkpoint; statistics, scores and metrics stay float64."""

import numpy as np
import pytest

from nidkit import encoders, nn, runner, ssl_models, tensor as T
from nidkit.augment import KINDS, AugmentationSpec, make_views, subset_columns
from nidkit.config import validate_config
from nidkit.tensor import Tensor

F32 = np.float32

# the names in tensor.__all__ that are not ops on tensors
NOT_OPS = {"Tensor", "ShapeError", "DomainError", "DecompositionError",
           "SingularityError", "no_grad", "reset_tape", "tape_length",
           "grad_enabled", "branches", "defer", "backward"}


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def _leaf(*shape, seed=0, positive=False):
    x = np.random.default_rng(seed).normal(size=shape)
    return Tensor((np.abs(x) + 0.5 if positive else x).astype(F32), requires_grad=True)


def _spd(n=3):
    a = np.random.default_rng(1).normal(size=(n, n))
    return Tensor((a @ a.T + n * np.eye(n)).astype(F32), requires_grad=True)


# op name -> a call on float32 leaves; the binary ops also take a float
OPS = {
    "add": lambda: T.add(_leaf(3, 4), 0.5),
    "sub": lambda: T.sub(1.0, _leaf(3, 4)),
    "mul": lambda: T.mul(_leaf(3, 4), _leaf(4, seed=1)),
    "div": lambda: T.div(_leaf(3, 4), 3.0),
    "sqrt": lambda: T.sqrt(_leaf(3, 4, positive=True)),
    "relu": lambda: T.relu(_leaf(3, 4)),
    "gelu": lambda: T.gelu(_leaf(3, 4)),
    "matmul": lambda: T.matmul(_leaf(3, 4), _leaf(4, 2, seed=1)),
    "linear": lambda: T.linear(_leaf(3, 4), _leaf(4, 2, seed=1), _leaf(2, seed=2)),
    "conv1xw": lambda: T.conv1xw(_leaf(2, 6, 3), _leaf(6, 4, seed=1), _leaf(4, seed=2), 2),
    "maxpool1xk": lambda: T.maxpool1xk(_leaf(2, 6, 3), 2),
    "attention": lambda: T.attention(
        _leaf(2, 3, 4), _leaf(2, 3, 4, seed=1), _leaf(2, 3, 4, seed=2), 2,
        mask=np.random.default_rng(3).random((2, 2, 3, 3)) < 0.8, keep=0.8),
    "tsum": lambda: T.tsum(_leaf(3, 4), axis=0),
    "tmean": lambda: T.tmean(_leaf(3, 4), axis=1),
    "tvar": lambda: T.tvar(_leaf(3, 4), axis=0),
    "normalize": lambda: T.normalize(_leaf(3, 4), 0, 1e-5, _leaf(4, seed=1),
                                     _leaf(4, seed=2))[0],
    "reshape": lambda: T.reshape(_leaf(3, 4), (4, 3)),
    "transpose": lambda: T.transpose(_leaf(3, 4)),
    "take": lambda: T.take(_leaf(3, 4), np.array([0, 2, 2])),
    "diagonal": lambda: T.diagonal(_leaf(3, 3)),
    "concat": lambda: T.concat([_leaf(3, 4), _leaf(2, 4, seed=1)]),
    "cholesky": lambda: T.cholesky(_spd()),
    "triangular_solve": lambda: T.triangular_solve(T.cholesky(_spd()), _leaf(3, 2)),
}


def _float32_gradients(monkeypatch):
    """Record the dtype of every gradient that reaches a leaf, before the
    leaf casts it to its own dtype."""
    seen = []
    accumulate = Tensor._accumulate

    def spy(t, g):
        seen.append(g.dtype)
        accumulate(t, g)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    return seen


def test_every_op_is_covered():
    assert set(OPS) == set(T.__all__) - NOT_OPS


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_keeps_float32(name, monkeypatch):
    seen = _float32_gradients(monkeypatch)
    out = OPS[name]()
    assert out.dtype == F32
    T.backward(T.tsum(out))
    assert seen and set(seen) == {np.dtype(F32)}


def _dtypes(module):
    return {t.dtype for _, t in [*module.named_parameters(), *module.named_buffers()]}


@pytest.mark.parametrize("kind, encoder", [
    ("byol", "mlp"), ("simsiam", "mlp"), ("barlow_twins", "mlp"), ("vicreg", "mlp"),
    ("wmse", "mlp"), ("vicreg", "cnn"), ("vicreg", "ft_transformer")])
def test_compute_loss_keeps_float32(kind, encoder, monkeypatch):
    width = 40
    rng = np.random.default_rng(5)
    cfg = encoders.EncoderConfig(kind=encoder, input_width=width, hidden_dim=32,
                                 numeric_cols=list(range(width - 4)),
                                 cat_groups={"proto": list(range(width - 4, width))},
                                 layers=1)
    model = ssl_models.build_model(kind, lambda: encoders.build_encoder(cfg, rng),
                                   encoders.representation_dim(cfg), rng, dim=16)
    assert _dtypes(model) == {np.dtype(F32)}
    batch = rng.normal(size=(64, width)).astype(F32)
    batch[:, -4:] = np.eye(4, dtype=F32)[rng.integers(0, 4, size=64)]
    seen = _float32_gradients(monkeypatch)
    loss, _ = model.compute_loss(make_views(batch, AugmentationSpec(kind="gaussian_noise"),
                                            rng))
    assert loss.dtype == F32
    T.backward(loss)
    assert seen and set(seen) == {np.dtype(F32)}


@pytest.mark.parametrize("kind", KINDS)
def test_make_views_keeps_float32(kind):
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(16, 9)).astype(F32)
    columns = subset_columns(9, 3, 0.5, rng.permutation(9)) if kind == "subsets" else None
    views = make_views(batch, AugmentationSpec(kind=kind), rng, donor_pool=batch,
                       columns=columns)
    assert [v.dtype for v in views.views] == [F32] * len(views.views)


@pytest.mark.parametrize("over", [
    {"model": "vicreg"},
    {"model": "vicreg", "encoder": {"kind": "cnn"}},
    {"model": "vicreg", "encoder": {"kind": "ft_transformer"}},
    {"model": "autoencoder"},
    {"model": "deep_svdd"},
], ids=["vicreg-mlp", "vicreg-cnn", "vicreg-ft_transformer", "autoencoder", "deep_svdd"])
def test_a_run_computes_in_float32(tmp_path, monkeypatch, over):
    seen = {"split": [], "moments": set()}
    split, build, step = runner.protocol_split, runner.build_run, nn.Adam.step

    def spy_split(*args, **kwargs):
        parts = split(*args, **kwargs)
        seen["split"] += [p.features.dtype for p in parts]
        return parts

    def spy_build(*args):
        seen["model"], cols = build(*args)
        return seen["model"], cols

    def spy_step(adam):
        step(adam)
        seen["moments"] |= {m.dtype for m in [*adam._m.values(), *adam._v.values()]}

    monkeypatch.setattr(runner, "protocol_split", spy_split)
    monkeypatch.setattr(runner, "build_run", spy_build)
    monkeypatch.setattr(nn.Adam, "step", spy_step)
    doc = {"version": 1, "model": "vicreg",
           "dataset": {"synth": {"n_normal": 300, "n_attack": 60, "d": 40,
                                 "separation": 3.0, "seed": 1}},
           "encoder": {"kind": "mlp", "hidden_dim": 32},
           "augmentation": {"kind": "gaussian_noise"},
           "training": {"epochs": 1, "batch_size": 64, "projection_dim": 16},
           **over}
    record = runner.run_experiment(validate_config(doc, base_dir=tmp_path))["records"][0]
    assert record["status"] == "ok", record
    f32 = {np.dtype(F32)}
    assert set(seen["split"]) == f32 and seen["moments"] == f32
    assert _dtypes(seen["model"]) == f32
    stored = nn.load_checkpoint(record["checkpoint"])
    assert {a.dtype for a in stored["state"].values()} == f32    # Deep SVDD's centre too
    if doc["model"] == "vicreg":
        assert stored["meta"]["center"].dtype == F32
