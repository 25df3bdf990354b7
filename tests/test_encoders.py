"""Encoder shape conformance, determinism, and gradient checks."""

import cProfile
import pstats
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from nidkit import config, encoders, nn, ssl_models, tensor as T
from nidkit.augment import AugmentationSpec, make_views
from nidkit.config import encoder_config_for
from nidkit.data import SchemaError
from nidkit.tensor import Tensor
from oracles import (as_dtype, both_operand_gradients, check_module_grad,
                     cnn_stage_shapes, composed_layers)


@pytest.fixture(autouse=True)
def clean_tape():
    T.reset_tape()
    yield
    T.reset_tape()


def rng_(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# MLP

def test_mlp_output_shape():
    for d in (5, 20, 196):
        enc = encoders.MLPEncoder(d, rng_(1))
        out = enc(Tensor(rng_(2).normal(size=(4, d))))
        assert out.shape == (4, 256)


def test_mlp_identical_rows_identical_outputs():
    enc = encoders.MLPEncoder(6, rng_(3)).eval()
    row = rng_(4).normal(size=6)
    batch = np.vstack([row, rng_(5).normal(size=6), row])
    out = enc(Tensor(batch)).values
    np.testing.assert_array_equal(out[0], out[2])


def test_mlp_width_guard():
    enc = encoders.MLPEncoder(6, rng_(6))
    with pytest.raises(SchemaError):
        enc(Tensor(np.ones((2, 7))))


def test_mlp_grad():
    enc = as_dtype(encoders.MLPEncoder(5, rng_(7), hidden_dim=6))
    check_module_grad(enc, [rng_(8).normal(size=(4, 5))],
                      lambda m, ts: m(ts[0]), rtol=1e-4, label="mlp",
                      max_coords_per_param=10)


# ---------------------------------------------------------------------------
# CNN

def test_cnn_width_trace_196():
    assert encoders.cnn_width_trace(196) == [195, 194, 193, 64, 63, 31, 30, 7]


def test_cnn_intermediate_shapes_196():
    enc = encoders.CNNEncoder(196, rng_(9))
    shapes = cnn_stage_shapes(enc, Tensor(np.zeros((1, 196))))
    assert shapes == [(32, 195), (64, 194), (128, 193), (128, 64),
                      (256, 63), (256, 31), (512, 30), (512, 7)]


def test_cnn_representation_width_196():
    enc = encoders.CNNEncoder(196, rng_(10))
    out = enc(Tensor(rng_(11).normal(size=(2, 196))))
    assert out.shape == (2, 3584)


def test_cnn_minimum_width():
    # 36 is the narrowest input that survives every conv/pool reduction
    encoders.CNNEncoder(36, rng_(12))
    with pytest.raises(T.ShapeError):
        encoders.CNNEncoder(35, rng_(13))


def test_cnn_guard_names_failing_layer():
    with pytest.raises(T.ShapeError, match="layer"):
        encoders.cnn_width_trace(12)


def test_cnn_grad():
    enc = as_dtype(encoders.CNNEncoder(36, rng_(14)))
    check_module_grad(enc, [rng_(15).normal(size=(2, 36))],
                      lambda m, ts: m(ts[0]), rtol=1e-4, label="cnn",
                      max_coords_per_param=6)


# ---------------------------------------------------------------------------
# FT-Transformer

def _toy_ft(layers=1, seed=16):
    # 2 numeric columns + one 3-category one-hot block, 8-dim tokens
    return encoders.FTTransformerEncoder(
        input_width=5, numeric_cols=[0, 1], cat_groups={"proto": [2, 3, 4]},
        rng=rng_(seed), token_dim=8, heads=2, layers=layers, dropout=0.0)


def _toy_batch(b=4, seed=17):
    rng = rng_(seed)
    num = rng.normal(size=(b, 2))
    hot = np.zeros((b, 3))
    hot[np.arange(b), rng.integers(0, 3, size=b)] = 1.0
    return np.hstack([num, hot])


def test_ft_representation_width():
    enc = _toy_ft()
    out = enc(Tensor(_toy_batch()))
    assert out.shape == (4, 3 * 8)
    cfg = encoder_config_for({"kind": "ft_transformer"}, 58, numeric_cols=range(58))
    assert encoders.representation_dim(cfg) == 1856


def test_ft_zero_numeric_tokens_equal_bias():
    enc = _toy_ft()
    x = _toy_batch()
    x[:, :2] = 0.0
    tokens = enc.tokenize(Tensor(x))
    for j in range(2):
        np.testing.assert_allclose(
            tokens.values[:, j, :], np.tile(enc.num_bias.values[j], (4, 1)))


def test_ft_categorical_lookup():
    enc = _toy_ft()
    x = np.zeros((3, 5))
    x[:, 0:2] = 1.0
    x[0, 2] = x[1, 3] = x[2, 4] = 1.0  # categories 0, 1, 2
    tokens = enc.tokenize(Tensor(x))
    np.testing.assert_allclose(tokens.values[:, 2, :], enc.embedding.values[:3])


def test_ft_eval_deterministic_with_dropout():
    enc = encoders.FTTransformerEncoder(
        input_width=5, numeric_cols=[0, 1], cat_groups={"g": [2, 3, 4]},
        rng=rng_(18), token_dim=8, heads=2, layers=2, dropout=0.5)
    enc.eval()
    x = Tensor(_toy_batch())
    np.testing.assert_array_equal(enc(x).values, enc(x).values)


def test_ft_grad_single_layer():
    enc = as_dtype(_toy_ft(layers=1, seed=19))
    check_module_grad(enc, [_toy_batch(b=3, seed=20)],
                      lambda m, ts: m(ts[0]), rtol=1e-4, label="ft",
                      max_coords_per_param=8, check_inputs=False)


def test_ft_all_numeric_fallback():
    enc = encoders.FTTransformerEncoder(
        input_width=4, numeric_cols=[], cat_groups={}, rng=rng_(21),
        token_dim=8, heads=2, layers=1, dropout=0.0)
    out = enc(Tensor(rng_(22).normal(size=(2, 4))))
    assert out.shape == (2, 32)


# ---------------------------------------------------------------------------
# shared contracts

def test_representation_dim_matches_encoders():
    cfg_mlp = encoder_config_for({"kind": "mlp"}, 196)
    assert encoders.representation_dim(cfg_mlp) == 256
    cfg_cnn = encoder_config_for({"kind": "cnn"}, 196)
    assert encoders.representation_dim(cfg_cnn) == 3584


def test_encoder_kinds_and_defaults_are_declared_once():
    # the constructors' defaults, which config hashes and unknown-key errors read
    assert config.ENCODER == {
        "mlp": {"kind": config.REQUIRED, "hidden_dim": 256},
        "cnn": {"kind": config.REQUIRED},
        "ft_transformer": {"kind": config.REQUIRED, "token_dim": 32, "heads": 4,
                           "layers": 4, "dropout": 0.1}}
    assert config.ENCODER.keys() == encoders.ENCODERS.keys()


@pytest.mark.parametrize("cfg", [{"kind": "vae", "input_width": 5}, {"input_width": 5},
                                 {"kind": ["mlp"], "input_width": 5}],
                         ids=["unknown", "missing", "not-a-name"])
def test_an_unknown_encoder_kind_is_a_config_error(cfg):
    with pytest.raises(nn.ConfigError, match="unknown encoder kind"):
        encoders.build_encoder(cfg, rng_(26))
    with pytest.raises(nn.ConfigError, match="unknown encoder kind"):
        encoders.representation_dim(cfg)


def test_encoder_config_for_takes_only_its_kinds_keys():
    with pytest.raises(nn.ConfigError, match=r"does not read key\(s\) \['hidden_dim'\]"):
        encoder_config_for({"kind": "cnn", "hidden_dim": 32}, 40)
    with pytest.raises(nn.ConfigError, match="unknown encoder kind 'vae'"):
        encoder_config_for({"kind": "vae"}, 40)
    assert encoder_config_for({"kind": "mlp"}, 7, numeric_cols=range(3)) == {
        "kind": "mlp", "hidden_dim": 256, "input_width": 7, "numeric_cols": [0, 1, 2],
        "cat_groups": {}}


# the two layouts a run builds an encoder for: numeric columns plus one-hot
# groups, and a subsets window's (none, so the FT treats every column as numeric)
LAYOUTS = {"full": (range(36), {"proto": [36, 37], "svc": [38, 39]}), "subsets": ((), {})}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", sorted(encoders.ENCODERS))
def test_representation_dim_is_the_built_encoders_width(kind, layout):
    cfg = encoder_config_for({"kind": kind}, 40, *LAYOUTS[layout])
    enc = encoders.build_encoder(cfg, rng_(27))
    with T.no_grad():
        out = enc(Tensor(rng_(28).normal(size=(3, 40))))
    assert out.shape == (3, encoders.representation_dim(cfg))


def test_build_encoder_dispatch_and_reproducibility():
    for kind in ("mlp", "cnn", "ft_transformer"):
        width = 36 if kind == "cnn" else 10
        cfg = encoder_config_for({"kind": kind}, width, numeric_cols=range(width))
        e1 = encoders.build_encoder(cfg, rng_(23))
        e2 = encoders.build_encoder(cfg, rng_(23))
        s1, s2 = e1.state_dict(), e2.state_dict()
        assert sorted(s1) == sorted(s2)
        for key in s1:
            np.testing.assert_array_equal(s1[key], s2[key])


def test_encoders_finite_outputs():
    x = rng_(24).normal(size=(8, 36))
    for kind in ("mlp", "cnn", "ft_transformer"):
        cfg = encoder_config_for({"kind": kind}, 36, numeric_cols=range(36))
        enc = encoders.build_encoder(cfg, rng_(25))
        out = enc(Tensor(x)).values
        assert np.isfinite(out).all(), kind


# ---------------------------------------------------------------------------
# CNN on whole GEMMs


def _cnn_im2col_reference(enc, x):
    """The CNN in plain numpy, channel-first: gathered (b, wo, C * kw)
    windows times the weight, and max-pool by ``argmax``."""
    h = x[:, None, :]                                        # (b, C, W)
    for stage in enc.stages:
        b, c, w = h.shape
        if isinstance(stage, nn.Conv2d1xW):
            kw = stage.kernel_width
            wo = w - kw + 1
            idx = np.arange(wo)[:, None] + np.arange(kw)[None, :]
            windows = h[:, :, idx].transpose(0, 2, 1, 3).reshape(b, wo, c * kw)
            out = windows @ stage.weight.values + stage.bias.values
            h = np.maximum(out, 0.0).transpose(0, 2, 1)
        else:
            k = stage.keywords["k"]         # the pool slot's partial(T.maxpool1xk, k=...)
            wo = w // k
            groups = h[:, :, :wo * k].reshape(b, c, wo, k)
            am = np.argmax(groups, axis=-1)
            h = np.take_along_axis(groups, am[..., None], axis=-1)[..., 0]
    return h.reshape(h.shape[0], -1)


def test_cnn_matches_im2col_reference_at_d40():
    enc = encoders.CNNEncoder(40, rng_(60))
    x = rng_(61).normal(size=(5, 40))
    ref = _cnn_im2col_reference(enc, x)
    with T.no_grad():
        got = enc(Tensor(x)).values
    assert got.shape == ref.shape == (5, 512)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _vicreg_cnn(batch, width=40):
    """A VICReg model on a CNN, one view set, and a one-step closure."""
    rng = rng_(62)
    cfg = encoder_config_for({"kind": "cnn"}, width)
    model = ssl_models.build_model("vicreg", lambda: encoders.build_encoder(cfg, rng),
                                   encoders.representation_dim(cfg), rng, dim=256)
    views = make_views(rng.normal(size=(batch, width)),
                       AugmentationSpec(kind="random_shuffle"), rng)
    return model, views, lambda: ssl_models.train_step(model, views, nn.Adam(model))


def test_vicreg_cnn_step_peak_memory():
    _, _, step = _vicreg_cnn(64)
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6, f"one VICReg-CNN step peaked at {peak / 1e6:.0f} MB"


def test_cnn_runs_no_scatter_add_and_no_forward_argmax():
    def called(fn):
        prof = cProfile.Profile()
        prof.runcall(fn)
        return [name for _, _, name in pstats.Stats(prof).stats]

    model, views, step = _vicreg_cnn(8)
    assert not [n for n in called(step) if "'at' of 'numpy.ufunc'" in n]
    x = Tensor(views.views[0])
    for grad in (True, False):
        with nullcontext() if grad else T.no_grad():
            assert not [n for n in called(lambda: model.encoder(x)) if "argmax" in n]


# ---------------------------------------------------------------------------
# fused normalisation and attention against the composed layers


def _ft_config(width=12):
    """An FT-transformer config with one 4-way categorical group."""
    return encoder_config_for(
        {"kind": "ft_transformer", "token_dim": 16, "heads": 4, "layers": 2, "dropout": 0.1},
        width, numeric_cols=range(width - 4),
        cat_groups={"proto": list(range(width - 4, width))})


def _narrow(kind, width):
    """A config of ``kind``, 32 wide for the MLP (the CNN takes no ``hidden_dim``)."""
    return encoder_config_for({"kind": kind, **({"hidden_dim": 32} if kind == "mlp" else {})},
                              width)


def _tabular_batch(b, width, seed):
    x = rng_(seed).normal(size=(b, width))
    x[:, -4:] = 0.0
    x[np.arange(b), width - 4 + rng_(seed + 1).integers(0, 4, size=b)] = 1.0
    return x


def _module_case(kind):
    """A module and a batch wider than one attention block."""
    if kind == "projection_head":
        return ssl_models.ProjectionHead(12, rng_(80), dim=32), rng_(81).normal(size=(130, 12))
    if kind == "ft_transformer":
        cfg = _ft_config()
    else:       # the CNN stack needs 40 columns or more
        cfg = _narrow(kind, 40)
    return encoders.build_encoder(cfg, rng_(82)), _tabular_batch(130, cfg["input_width"], 83)


@pytest.mark.parametrize("kind", ["mlp", "cnn", "ft_transformer", "projection_head"])
def test_eval_outputs_bit_equal_to_composed_layers(kind):
    module, x = _module_case(kind)
    module(Tensor(x))               # moves batch-norm running statistics off their init
    module.eval()
    for grad in (True, False):
        with nullcontext() if grad else T.no_grad():
            got = module(Tensor(x)).values
            with composed_layers():
                ref = module(Tensor(x)).values
        np.testing.assert_array_equal(got, ref)
        T.reset_tape()


def _vicreg_step_grads(kind, composed):
    """Loss, parameter gradients and buffers of one VICReg forward and
    backward on fresh, identically seeded models."""
    rng = rng_(84)
    cfg = _ft_config() if kind == "ft_transformer" else _narrow(kind, 12)
    model = ssl_models.build_model("vicreg", lambda: encoders.build_encoder(cfg, rng),
                                   encoders.representation_dim(cfg), rng, dim=32)
    views = make_views(_tabular_batch(48, 12, 85), AugmentationSpec(kind="gaussian_noise"), rng)
    T.reset_tape()
    with composed_layers() if composed else nullcontext():
        loss, _ = model.compute_loss(views)
        T.backward(loss)
    T.reset_tape()
    return (float(loss.values), {n: p.grad for n, p in model.named_parameters()},
            {n: b.values for n, b in model.named_tensors() if not b.requires_grad})


@pytest.mark.parametrize("kind", ["mlp", "ft_transformer"])
def test_vicreg_step_gradients_match_composed_layers(kind):
    loss, grads, buffers = _vicreg_step_grads(kind, composed=False)
    ref_loss, ref_grads, ref_buffers = _vicreg_step_grads(kind, composed=True)
    assert loss == ref_loss                 # training forward, dropout included, bit-equal
    for name, ref in ref_buffers.items():
        np.testing.assert_array_equal(buffers[name], ref)
    assert grads.keys() == ref_grads.keys()
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name, ref in ref_grads.items():
        diff = np.abs(grads[name] - ref)
        # only the rounding of the backward moves: some parameters (a bias
        # ahead of a batch norm) have a true gradient of 0 and carry noise
        assert diff.max() <= 1e-13 * scale, name
        big = np.abs(ref) >= 1e-3 * scale
        assert (diff[big] <= 1e-12 * np.abs(ref[big])).all(), name


@pytest.mark.parametrize("kind, width", [("mlp", 12), ("cnn", 40), ("ft_transformer", 12)])
def test_train_step_moves_every_leaf_that_gets_a_gradient(kind, width, monkeypatch):
    # a trainable leaf outside model.parameters() gets gradients that Adam
    # never applies, zero_grad never clears and checkpoints never store
    rng = rng_(89)
    cfg = _ft_config(width) if kind == "ft_transformer" else _narrow(kind, width)
    model = ssl_models.build_model("vicreg", lambda: encoders.build_encoder(cfg, rng),
                                   encoders.representation_dim(cfg), rng, dim=32)
    before = {id(p): p.values.copy() for p in model.parameters()}
    graded = {}
    accumulate = Tensor._accumulate

    def spy(t, g):
        graded[id(t)] = t
        accumulate(t, g)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    views = make_views(_tabular_batch(48, width, 90), AugmentationSpec(kind="gaussian_noise"),
                       rng)
    ssl_models.train_step(model, views, nn.Adam(model))
    assert graded
    assert not [t.shape for k, t in graded.items() if k not in before]     # not parameters
    assert not [t.shape for k, t in graded.items() if np.array_equal(t.values, before[k])]


def test_vicreg_ft_step_computes_no_gradient_it_throws_away(monkeypatch):
    with both_operand_gradients():
        ref_loss, ref_grads, _ = _vicreg_step_grads("ft_transformer", composed=False)
    discarded = []
    record = T._record

    def counting(output, inputs, backward_fn):
        def counted(g):
            grads = backward_fn(g)
            discarded.extend(gr.size for t, gr in zip(inputs, grads)
                             if gr is not None and t.is_leaf and not t.requires_grad)
            return grads
        record(output, inputs, counted)

    monkeypatch.setattr(T, "_record", counting)
    loss, grads, _ = _vicreg_step_grads("ft_transformer", composed=False)
    assert sum(discarded) == 0
    assert loss == ref_loss and grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        np.testing.assert_array_equal(grads[name], ref, err_msg=name)


def test_ft_forward_off_the_tape_records_nothing():
    enc = encoders.build_encoder(_ft_config(), rng_(86))
    x = Tensor(_tabular_batch(8, 12, 87))
    with T.no_grad():
        enc(x)
    assert T.tape_length() == 0
    enc(x)
    assert T.tape_length() > 0


def test_vicreg_ft_step_peak_memory():
    # per layer and view the tape keeps one float (b, heads, t, t) array of
    # attention weights and a boolean mask; five float arrays came to 257 MB
    rng = rng_(88)
    cfg = encoder_config_for({"kind": "ft_transformer"}, 40, numeric_cols=range(35),
                             cat_groups={"proto": list(range(35, 40))})
    model = ssl_models.build_model("vicreg", lambda: encoders.build_encoder(cfg, rng),
                                   encoders.representation_dim(cfg), rng, dim=256)
    views = make_views(_tabular_batch(64, 40, 89), AugmentationSpec(kind="random_shuffle"), rng)
    tracemalloc.start()
    try:
        ssl_models.train_step(model, views, nn.Adam(model))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180e6, f"one VICReg-FT step peaked at {peak / 1e6:.0f} MB"
