"""Experiment runner: config hashing, artifacts, failure capture, grids."""

import inspect
import os
import re
import subprocess
import sys
import warnings
from contextlib import contextmanager
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

from nidkit import cli, config, nn, runner, tensor as T, threads
from nidkit.augment import KINDS as AUG_KINDS
from nidkit.config import config_hash, validate_config
from nidkit.data import load_csv, protocol_split, save_dataset, synth_generate
from nidkit.detector import Detector, dump_scores
from nidkit.nn import ConfigError
from nidkit.runner import expand_grid, read_report, run_experiment, run_grid
from nidkit.ssl_models import MODEL_KINDS
from nidkit.tensor import Tensor

ROOT = Path(__file__).resolve().parent.parent


def make_doc(**over):
    """Small, fast experiment document; override fields per test."""
    doc = {
        "version": 1,
        "dataset": {"synth": {"n_normal": 300, "n_attack": 80, "d": 12,
                              "separation": 6.0, "seed": 3}},
        "model": "vicreg",
        "encoder": {"kind": "mlp", "hidden_dim": 32},
        "augmentation": {"kind": "gaussian_noise", "p": 0.15, "sigma2": 0.01},
        "training": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 64,
                     "projection_dim": 16},
        "runs": 1,
        "base_seed": 0,
        "output_dir": "runs",
    }
    doc.update(over)
    return doc


def put(doc, path: str, value):
    """``doc`` with the value at the dotted ``path`` replaced; the empty path
    replaces the whole document."""
    if not path:
        return value
    *outer, last = path.split(".")
    inner = doc
    for key in outer:
        inner = inner[key]
    inner[last] = value
    return doc


def cli_error(tmp_path, capsys, verb: str, doc) -> str:
    """The one-line error ``nidkit <verb>`` prints for ``doc``, which must end
    it with exit 2 and no traceback."""
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


# config sections that name a key nothing reads: (overrides, the key)
UNREAD_KEYS = [
    ({"model": "autoencoder", "loss": {"hiden": 8}}, "hiden"),
    ({"model": "deep_svdd", "loss": {"width": [8, 4]}}, "width"),
    ({"encoder": {"kind": "mlp", "hiden_dim": 8}}, "hiden_dim"),
    ({"loss": {"lamda": 5}}, "lamda"),
    ({"encoder": {"kind": "cnn", "hidden_dim": 8}}, "hidden_dim"),
    ({"trainig": {"epochs": 1}}, "trainig"),
    ({"run": 3}, "run"),
    ({"training": {"learning_rte": 1e-3}}, "learning_rte"),
    ({"dataset": {"synth": {"n_normal": 300, "n_attack": 80, "d": 12,
                            "separaton": 6.0}}}, "separaton"),
    ({"dataset": {"synth": {"n_normal": 300, "n_attack": 80, "d": 12,
                            "separation": 6.0}, "sed": 3}}, "sed"),
    ({"dataset": {"csv": "a.csv", "schema": "s.yaml", "max_reject_fracton": 0.2}},
     "max_reject_fracton"),
    # an augmentation key that its kind does not read
    ({"augmentation": {"kind": "random_shuffle", "p": 0.9}}, "p"),
    ({"augmentation": {"kind": "zero_out", "sigma2": 5.0}}, "sigma2"),
    ({"augmentation": {"kind": "mixup", "k": 7}}, "k"),
    ({"augmentation": {"kind": "subsets", "alpha": 0.1}}, "alpha"),
    ({"augmentation": {"kind": "gaussian_noise", "overlap_fraction": 0.5}}, "overlap_fraction"),
]


# ---------------------------------------------------------------------------
# config hashing and validation


def test_hash_ignores_key_order_and_output_dir():
    doc = make_doc()
    reordered = dict(reversed(list(doc.items())))
    assert config_hash(doc) == config_hash(reordered)
    moved = make_doc(output_dir="elsewhere/deep")
    assert config_hash(doc) == config_hash(moved)


def test_hash_changes_with_content():
    a = make_doc()
    b = make_doc(base_seed=1)
    c = make_doc(training={"learning_rate": 1e-4, "epochs": 2, "batch_size": 64})
    assert len({config_hash(a), config_hash(b), config_hash(c)}) == 3


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("version"),
    lambda d: d.__setitem__("version", 99),
    lambda d: d.pop("dataset"),
    lambda d: d["dataset"].__setitem__("cache", "also.npz"),  # two modes
    lambda d: d["dataset"]["synth"].pop("separation"),
    lambda d: d["dataset"]["synth"].__setitem__("n_normal", "x"),
    lambda d: d.__setitem__("model", "contrastive"),
    lambda d: d["encoder"].__setitem__("kind", "rnn"),
    lambda d: d.__setitem__("augmentation", {"kind": "cutout"}),
    lambda d: d.pop("augmentation"),
    lambda d: d["training"].__setitem__("learning_rate", -1.0),
    lambda d: d["training"].__setitem__("epochs", 0),
    lambda d: d["training"].__setitem__("batch_size", 1),
    lambda d: d.__setitem__("runs", 0),
    lambda d: d.__setitem__("train_fraction", 0.0),
    lambda d: d.__setitem__("train_fraction", 1.0),
] + [lambda d, over=over: d.update(over) for over, _ in UNREAD_KEYS])
def test_validate_rejects_bad_documents(mangle):
    doc = make_doc()
    mangle(doc)
    with pytest.raises(ConfigError):
        validate_config(doc)


def test_validate_warns_on_unconventional_learning_rate():
    doc = make_doc(training={"learning_rate": 2e-3, "epochs": 2, "batch_size": 64})
    with pytest.warns(UserWarning, match="learning_rate"):
        validate_config(doc)


def test_cli_run_exits_2_on_a_foreign_cache(tmp_path, capsys):
    np.savez(tmp_path / "foreign.npz", features=np.zeros((3, 2)))
    err = cli_error(tmp_path, capsys, "run",
                    make_doc(dataset={"cache": "foreign.npz"}, output_dir=str(tmp_path / "runs")))
    assert "not a nidkit dataset cache" in err and "__version__" in err


def test_validate_refuses_a_foreign_cache(tmp_path, capsys):
    np.savez(tmp_path / "foreign.npz", features=np.zeros((3, 2)))
    doc = make_doc(dataset={"cache": "foreign.npz"})
    with pytest.raises(ConfigError, match=r"^cfg\.yaml: .*foreign\.npz is not a nidkit dataset"):
        validate_config(doc, base_dir=tmp_path, source="cfg.yaml")
    err = cli_error(tmp_path, capsys, "validate-config", doc)
    assert "foreign.npz is not a nidkit dataset cache" in err and "__version__" in err
    # a grid collects it as one invalid cell per cell that reads the file
    grid = grid_doc(dataset={"cache": "foreign.npz"})
    with pytest.raises(ConfigError, match="4 invalid cell") as exc:
        run_grid(grid, base_dir=tmp_path)
    assert str(exc.value).count("is not a nidkit dataset cache") == 4
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ["base_seed", "dataset.synth.seed"])
def test_validate_refuses_a_negative_seed(tmp_path, capsys, key):
    doc = put(make_doc(), key, -1)
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be >= 0, got -1")):
        validate_config(doc)
    assert key in cli_error(tmp_path, capsys, "validate-config", doc)


@pytest.mark.parametrize("key, value, least", [
    ("training.epochs", 0, 1), ("training.batch_size", 1, 2), ("runs", 0, 1)])
def test_validate_names_a_count_below_its_least_value(key, value, least):
    doc = put(make_doc(), key, value)
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be >= {least}, got {value}")):
        validate_config(doc)


def test_cli_run_refuses_a_negative_seed_override(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(make_doc(output_dir=str(tmp_path / "runs"))))
    assert cli.main(["run", str(path), "--seed", "-1"]) == 2
    assert "base_seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_loss_section_declares_each_models_keywords():
    # every SSL kind reads its class's keywords and its loss function's
    assert config.LOSS == {
        "byol": {"tau": 0.99}, "simsiam": {}, "barlow_twins": {"lambda_bt": 5e-3},
        "vicreg": {"lam": 25.0, "mu": 25.0, "nu": 1.0, "gamma": 1.0, "eps": 1e-4},
        "wmse": {"slice_size": 32, "eps": 1e-4},
        "autoencoder": {"hidden": 256, "latent": 64}, "deep_svdd": {"widths": (256, 64, 32)}}


def test_validate_resolves_cache_path_against_base_dir(tmp_path):
    ds = synth_generate(50, 10, 10, 2.0, seed=0)
    save_dataset(tmp_path / "tiny.npz", ds)
    doc = make_doc(dataset={"cache": "tiny.npz"})
    cfg = validate_config(doc, base_dir=tmp_path)
    assert os.path.isabs(cfg.dataset["cache"]) or str(tmp_path) in cfg.dataset["cache"]

    missing = make_doc(dataset={"cache": "nope.npz"})
    with pytest.raises(ConfigError, match="not found"):
        validate_config(missing, base_dir=tmp_path)


def test_one_config_from_two_directories_has_one_hash(tmp_path):
    ds = synth_generate(50, 10, 10, 2.0, seed=0)
    cfgs = []
    for where in ("a", "b/deeper"):
        (tmp_path / where).mkdir(parents=True)
        save_dataset(tmp_path / where / "tiny.npz", ds)
        cfgs.append(validate_config(make_doc(dataset={"cache": "tiny.npz"}),
                                    base_dir=tmp_path / where))
    assert cfgs[0].hash == cfgs[1].hash
    assert cfgs[0].document["dataset"] == {"cache": "tiny.npz"}
    # loading still reads the resolved paths
    assert [c.dataset["cache"] for c in cfgs] == [
        str(tmp_path / "a" / "tiny.npz"), str(tmp_path / "b/deeper" / "tiny.npz")]


def test_baseline_hash_ignores_the_sections_it_does_not_read():
    bare = {k: v for k, v in make_doc(model="autoencoder").items()
            if k not in ("encoder", "augmentation")}
    cfg = validate_config(make_doc(model="autoencoder"))
    assert "encoder" not in cfg.document and "augmentation" not in cfg.document
    assert cfg.hash == validate_config(bare).hash
    odd = make_doc(model="autoencoder", encoder={"kind": "rnn", "whatever": 1},
                   augmentation={"kind": "cutout"})
    assert validate_config(odd).hash == cfg.hash
    # an SSL model reads both, so they stay in its hash
    assert "encoder" in validate_config(make_doc()).document


@pytest.mark.parametrize("over", [
    {"model": "autoencoder", "loss": {"hidden": 8, "latent": 2}},
    {"model": "deep_svdd", "loss": {"widths": [8, 4]}},
    {"model": "byol", "loss": {"tau": 0.9}},
    {"model": "barlow_twins", "loss": {"lambda_bt": 1e-2}},
    {"model": "wmse", "loss": {"slice_size": 16, "eps": 1e-4}},
    {"loss": {"lam": 5.0, "mu": 5.0, "nu": 1.0, "gamma": 1.0, "eps": 1e-4}},
    {"encoder": {"kind": "cnn"}},
    {"encoder": {"kind": "ft_transformer", "token_dim": 8, "heads": 2, "layers": 1,
                 "dropout": 0.0}},
])
def test_validate_accepts_every_key_its_builder_reads(over):
    assert validate_config(make_doc(**over)).loss_params == over.get("loss", {})


def test_wmse_warns_when_a_slice_cannot_span_the_projection():
    # make_doc projects to 16 dimensions
    for loss, slice_size in (({"slice_size": 16}, 16), ({"slice_size": 8}, 8)):
        with pytest.warns(UserWarning, match=f"slice_size {slice_size} <= projection_dim 16"):
            validate_config(make_doc(model="wmse", loss=loss))
    wide = make_doc(model="wmse", training={"learning_rate": 1e-3, "projection_dim": 32})
    with pytest.warns(UserWarning, match="slice_size 32 <= projection_dim 32"):
        validate_config(wide)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_config(make_doc(model="wmse"))                          # 32 > 16
        validate_config(make_doc(model="wmse", loss={"slice_size": 17}))
        validate_config(make_doc(model="vicreg", loss={}))


def test_baseline_config_needs_no_augmentation():
    doc = make_doc(model="autoencoder")
    del doc["augmentation"]
    cfg = validate_config(doc)
    assert cfg.augmentation is None


@pytest.mark.parametrize("path", ["training", "loss", "encoder", "augmentation", "dataset",
                                  "dataset.synth"])
def test_validate_rejects_a_section_that_is_not_a_mapping(tmp_path, capsys, path):
    doc = put(make_doc(), path, 3)
    with pytest.raises(ConfigError, match="must be a mapping, got 3"):
        validate_config(doc)
    assert "must be a mapping" in cli_error(tmp_path, capsys, "validate-config", doc)


@pytest.mark.parametrize("over, key", [
    ({"training": {"epochs": "ten"}}, "epochs"),
    ({"loss": {"lam": "x"}}, "lam"),
    ({"dataset": {"synth": {"n_normal": "x", "n_attack": 50, "d": 20, "separation": 3.0}}},
     "n_normal"),
], ids=["epochs", "lam", "synth-n_normal"])
def test_validate_reads_a_number_as_a_number(tmp_path, capsys, over, key):
    doc = make_doc(**over)
    with pytest.raises(ConfigError, match=f"'{key}' must be a number"):
        validate_config(doc)
    assert f"'{key}' must be a number" in cli_error(tmp_path, capsys, "validate-config", doc)


@pytest.mark.parametrize("widths, message", [
    (5, "'widths' must be a list, got 5"),
    ("abc", "'widths' must be a list, got 'abc'"),
    ([64, "x"], "'widths' must be a number, got 'x'"),
    ([64, 8.5], "'widths' must be an integer, got 8.5"),
    ([64, True], "'widths' must be a number, got True"),
], ids=["int", "string", "string-entry", "fraction-entry", "bool-entry"])
def test_validate_reads_svdd_widths_as_a_list_of_integers(tmp_path, capsys, widths, message):
    doc = make_doc(model="deep_svdd", loss={"widths": widths})
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(doc)
    assert message in cli_error(tmp_path, capsys, "validate-config", doc)


def test_svdd_widths_entries_are_read_as_integers():
    cfg = validate_config(make_doc(model="deep_svdd", loss={"widths": [16.0, "8"]}))
    assert cfg.loss_params == {"widths": [16, 8]}


@pytest.mark.parametrize("widths", [[], [0], [16, -1]], ids=["empty", "zero", "negative"])
def test_svdd_without_positive_widths_fails_its_run(tmp_path, widths):
    # no layer would score the raw features' distance to their mean as `ok`
    cfg = validate_config(make_doc(model="deep_svdd", loss={"widths": widths}),
                          base_dir=tmp_path)
    rec = run_experiment(cfg)["records"][0]
    assert (rec["status"], rec["stage"]) == ("failed", "train")
    assert rec["error"].startswith("ConfigError: deep_svdd: widths must be")


@pytest.mark.parametrize("aug", [{"kind": "gaussian_noise"}, {"kind": "subsets"}],
                         ids=["full", "subsets"])
@pytest.mark.parametrize("encoder", [{"kind": "mlp", "hidden_dim": 16}, {"kind": "cnn"},
                                     {"kind": "ft_transformer", "token_dim": 8, "heads": 2,
                                      "layers": 1}], ids=lambda e: e["kind"])
@pytest.mark.parametrize("model", MODEL_KINDS)
def test_build_run_sizes_the_projector_to_the_encoder(model, encoder, aug):
    # 72 columns: a subsets window of 36 is the CNN's narrowest input
    doc = make_doc(model=model, encoder=encoder, augmentation=aug,
                   dataset={"synth": {"n_normal": 40, "n_attack": 4, "d": 72,
                                      "separation": 3.0}})
    cfg = validate_config(doc)
    train, _ = protocol_split(runner.load_experiment_dataset(cfg), 0.5, seed=0)
    built, cols = runner.build_run(cfg, train, np.random.default_rng(0))
    x = train.features[:4] if cols is None else train.features[:4, cols[0]]
    with T.no_grad():
        width = built.encoder(Tensor(x)).shape[1]
    assert built.projector.fc1.weight.shape[0] == width


SYNTH = {"n_normal": 300, "n_attack": 80, "d": 12, "separation": 6.0}


@pytest.mark.parametrize("over, key, message", [
    ({"training": {"epochs": 2.5}}, "epochs", "an integer, got 2.5"),
    ({"training": {"batch_size": 64.9}}, "batch_size", "an integer, got 64.9"),
    ({"runs": True}, "runs", "a number, got True"),
    ({"training": {"learning_rate": True}}, "learning_rate", "a number, got True"),
    ({"augmentation": {"kind": "subsets", "k": 2.6}}, "k", "an integer, got 2.6"),
    ({"dataset": {"synth": {**SYNTH, "n_normal": 200.7}}}, "n_normal", "an integer, got 200.7"),
    ({"dataset": {"synth": {**SYNTH, "d": 20.9}}}, "d", "an integer, got 20.9"),
    ({"training": {"epochs": float("inf")}}, "epochs", "an integer, got inf"),
], ids=["epochs", "batch_size", "runs", "learning_rate", "subsets-k", "synth-n_normal",
        "synth-d", "epochs-inf"])
def test_validate_reads_an_integer_as_an_integer(tmp_path, capsys, over, key, message):
    """A fraction is no integer and a boolean is no number: neither truncates."""
    doc = make_doc(**over)
    with pytest.raises(ConfigError, match=f"'{key}' must be {message}"):
        validate_config(doc)
    assert f"'{key}' must be {message}" in cli_error(tmp_path, capsys, "validate-config", doc)


@pytest.mark.parametrize("over, key, value", [
    ({"encoder": {"kind": "mlp", "hidden_dim": 0}}, "encoder.hidden_dim", 0),
    ({"encoder": {"kind": "ft_transformer", "heads": 0}}, "encoder.heads", 0),
    ({"model": "autoencoder", "loss": {"latent": 0}}, "loss.latent", 0),
    ({"model": "autoencoder", "loss": {"hidden": -1}}, "loss.hidden", -1),
    ({"training": {"projection_dim": -4}}, "training.projection_dim", -4),
], ids=["hidden_dim", "heads", "latent", "hidden", "projection_dim"])
def test_validate_rejects_a_size_below_one(tmp_path, capsys, over, key, value):
    # each would pass as a number and fail at train with a ZeroDivisionError
    doc = make_doc(**over)
    message = f"{key} must be >= 1, got {value}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(doc)
    assert message in cli_error(tmp_path, capsys, "validate-config", doc)


def test_validate_reads_a_whole_float_or_a_numeric_string_as_an_integer():
    doc = make_doc(training={"epochs": 3.0, "batch_size": "64"}, runs="2")
    cfg = validate_config(doc)
    assert (cfg.epochs, cfg.batch_size, cfg.n_runs) == (3, 64, 2)
    assert cfg.hash == config_hash(doc)


@pytest.mark.parametrize("over", [{"model": ["vicreg"]}, {"encoder": {"kind": ["mlp"]}}],
                         ids=["model", "encoder-kind"])
def test_validate_rejects_a_kind_that_is_not_a_name(over):
    with pytest.raises(ConfigError, match=r"unknown (model|encoder kind) \['"):
        validate_config(make_doc(**over))


@pytest.mark.parametrize("section", ["encoder", "augmentation"])
def test_validate_names_a_missing_kind(section):
    with pytest.raises(ConfigError, match=rf"{section} is missing required key\(s\) \['kind'\]"):
        validate_config(make_doc(**{section: {}}))


def test_an_augmentation_error_names_its_source():
    doc = make_doc(augmentation={"kind": "zero_out", "p": 2})
    with pytest.raises(ConfigError, match=r"^vicreg/mlp/zero_out: zero_out: p=2.0 outside"):
        validate_config(doc, source="vicreg/mlp/zero_out")


def test_csv_reject_fraction_has_load_csvs_default(tmp_path):
    """The config and the preprocess verb take load_csv's default."""
    default = inspect.signature(load_csv).parameters["max_reject_fraction"].default
    for name in ("a.csv", "s.yaml"):
        (tmp_path / name).touch()
    cfg = validate_config(make_doc(dataset={"csv": "a.csv", "schema": "s.yaml"}),
                          base_dir=tmp_path)
    assert cfg.dataset["max_reject_fraction"] == default
    args = cli._build_parser().parse_args(["preprocess", "--csv", "a", "--schema", "s",
                                           "--out", "o"])
    assert args.max_reject_fraction == default


# ---------------------------------------------------------------------------
# single experiments


def _metrics_of(run_dir):
    rec = yaml.safe_load((run_dir / "record.yaml").read_text())
    assert rec["status"] == "ok", rec
    return rec


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = validate_config(make_doc(output_dir="out"), base_dir=tmp_path)
    result = run_experiment(cfg)
    exp_dir = result["dir"]
    assert exp_dir.name == cfg.hash
    for name in ("config.yaml", "report.txt", "aggregate.yaml"):
        assert (exp_dir / name).exists(), name
    run_dir = exp_dir / "run0"
    for name in ("record.yaml", "loss.csv", "scores.csv", "checkpoint.npz"):
        assert (run_dir / name).exists(), name
    rec = _metrics_of(run_dir)
    assert rec["config_hash"] == cfg.hash
    assert set(rec["metrics"]) == {"precision", "recall", "f1", "auroc", "threshold"}
    # loss log covers every optimizer step and the losses are finite
    lines = (run_dir / "loss.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,total")
    assert all(np.isfinite(float(row.split(",")[1])) for row in lines[1:])
    assert "auroc" in read_report(exp_dir)


def _rebuilt_scorer(cfg, train, seed, meta):
    """The run's model built afresh by ``runner.build_run`` from its config
    and seed, and the scorer that reads it with the checkpoint's meta."""
    model, _ = runner.build_run(cfg, train, np.random.default_rng(seed))
    if cfg.model not in MODEL_KINDS:
        return model, model
    cols = meta["subset_columns"].tolist() if "subset_columns" in meta else None
    detector = Detector(model.encoder.eval(), subset_columns=cols)
    detector.center = meta["center"]
    return model, detector


@pytest.mark.parametrize("over", [
    {},
    {"augmentation": {"kind": "subsets", "k": 3}},
    {"encoder": {"kind": "ft_transformer"}},
    {"model": "byol"},
    {"model": "simsiam"},
    {"model": "barlow_twins"},
    {"model": "wmse"},
    {"model": "autoencoder"},
    {"model": "deep_svdd"},
], ids=["vicreg", "vicreg-subsets", "vicreg-ft_transformer", "byol", "simsiam",
        "barlow_twins", "wmse", "autoencoder", "deep_svdd"])
def test_checkpoint_rescores_the_stored_test_rows(tmp_path, over):
    cfg = validate_config(make_doc(**over), base_dir=tmp_path)
    run_dir = run_experiment(cfg)["dir"] / "run0"
    _metrics_of(run_dir)
    stored = nn.load_checkpoint(run_dir / "checkpoint.npz")
    meta = stored["meta"]
    subsets = cfg.model in MODEL_KINDS and cfg.augmentation["kind"] == "subsets"
    assert ("subset_columns" in meta) == subsets
    if subsets:
        assert meta["subset_columns"].shape[0] == 3
    train, test = protocol_split(runner.load_experiment_dataset(cfg), cfg.train_fraction, seed=0)
    # the train split's statistics, to normalise raw rows
    assert meta["norm_names"].tolist() == list(train.norm_stats)
    assert meta["norm_stats"].dtype == np.float64
    np.testing.assert_array_equal(meta["norm_stats"], list(train.norm_stats.values()))
    model, scorer = _rebuilt_scorer(cfg, train, 0, meta)
    if cfg.model in MODEL_KINDS:
        assert meta["center"].shape == (model.projector.fc1.weight.shape[0],)
    if cfg.encoder.get("kind") == "ft_transformer":
        # the categorical embeddings are stored, and training moved them
        assert not np.array_equal(stored["state"]["encoder.embedding"],
                                  model.encoder.embedding.values)
    nn.load_checkpoint(run_dir / "checkpoint.npz", model)
    dump_scores(tmp_path / "rescored.csv", test.ids, scorer.score(test.features), test.labels)
    assert (tmp_path / "rescored.csv").read_bytes() == (run_dir / "scores.csv").read_bytes()


def test_failed_aggregate_write_keeps_the_previous_file(tmp_path, monkeypatch):
    cfg = validate_config(make_doc(model="autoencoder", output_dir="out"), base_dir=tmp_path)
    exp_dir = run_experiment(cfg)["dir"]
    before = (exp_dir / "aggregate.yaml").read_bytes()
    real = runner.atomic_write

    @contextmanager
    def dies_halfway(path, mode="w"):
        with real(path, mode) as fh:
            if Path(path).name != "aggregate.yaml":
                yield fh
                return

            class Half:
                def write(self, text):
                    fh.write(text[:len(text) // 2])
                    raise OSError("disk full")

            yield Half()

    monkeypatch.setattr(runner, "atomic_write", dies_halfway)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg)
    assert (exp_dir / "aggregate.yaml").read_bytes() == before
    assert not [p for d in (exp_dir, exp_dir / "run0") for p in d.iterdir()
                if p.name.endswith(".tmp")]


def test_record_carries_the_run_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    runner._static_env.cache_clear()
    try:
        cfg = validate_config(make_doc(output_dir="out"), base_dir=tmp_path)
        env = _metrics_of(run_experiment(cfg)["dir"] / "run0")["env"]
    finally:
        runner._static_env.cache_clear()
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert env["blas"]["name"] and env["blas"]["version"]
    assert env["threads"]["OMP_NUM_THREADS"] == "3"
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"}
    assert env["cpu_count"] == os.cpu_count()
    assert env["row_threads"] == threads.budget()
    assert env["view_threads"] == min(threads.budget(), 2)
    assert env["blas_threads"] == threads.blas_threads()
    assert 10.0 < env["peak_rss_mb"] < 1e5


@pytest.mark.parametrize("over, views", [({}, 2), ({"model": "autoencoder"}, 1),
                                         ({"augmentation": {"kind": "subsets", "k": 3}}, 3)])
def test_record_names_the_threads_of_the_views(tmp_path, over, views):
    cfg = validate_config(make_doc(output_dir="out", **over), base_dir=tmp_path)
    env = _metrics_of(run_experiment(cfg)["dir"] / "run0")["env"]
    assert env["view_threads"] == min(threads.budget(), views)


def test_rejected_rows_are_logged_not_printed(tmp_path, caplog, capsys):
    (tmp_path / "schema.yaml").write_text(
        "version: 1\nlabel:\n  column: label\n  normal_values: [normal]\n"
        "columns:\n  dur: numeric\n  bytes: numeric\n")
    rows = [f"{i % 7},{i * 3 % 11},{'normal' if i % 4 else 'attack'}" for i in range(30)]
    (tmp_path / "flows.csv").write_text("dur,bytes,label\n" + "\n".join(rows)
                                        + "\n1,2,3,normal\n")
    cfg = validate_config(make_doc(dataset={"csv": "flows.csv", "schema": "schema.yaml"}),
                          base_dir=tmp_path)
    with caplog.at_level("INFO", logger="nidkit.runner"):
        ds = runner.load_experiment_dataset(cfg)
    assert ds.n_rows > 0
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("nidkit.runner", "WARNING", f"1 malformed rows rejected from {tmp_path / 'flows.csv'}")]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("model", ["vicreg", "autoencoder", "deep_svdd"])
def test_identical_config_and_seed_reproduce_metrics_exactly(tmp_path, model):
    results = []
    for sub in ("a", "b"):
        cfg = validate_config(make_doc(model=model, output_dir=sub), base_dir=tmp_path)
        results.append(run_experiment(cfg))
    rec_a = _metrics_of(results[0]["dir"] / "run0")
    rec_b = _metrics_of(results[1]["dir"] / "run0")
    assert rec_a["metrics"] == rec_b["metrics"]          # exact, not approx
    assert rec_a["loss_first"] == rec_b["loss_first"]
    assert rec_a["loss_last"] == rec_b["loss_last"]
    scores_a = (results[0]["dir"] / "run0" / "scores.csv").read_text()
    scores_b = (results[1]["dir"] / "run0" / "scores.csv").read_text()
    assert scores_a == scores_b


def test_single_run_aggregate_has_zero_spread(tmp_path):
    cfg = validate_config(make_doc(), base_dir=tmp_path)
    result = run_experiment(cfg)
    agg = yaml.safe_load((result["dir"] / "aggregate.yaml").read_text())
    assert agg["n_runs_ok"] == 1
    for mean, std in agg["metrics"].values():
        assert std == 0.0


def test_multiple_seeds_each_get_a_run_directory(tmp_path):
    cfg = validate_config(make_doc(runs=2, base_seed=5), base_dir=tmp_path)
    result = run_experiment(cfg)
    for seed in (5, 6):
        rec = _metrics_of(result["dir"] / f"run{seed}")
        assert rec["seed"] == seed
    agg = yaml.safe_load((result["dir"] / "aggregate.yaml").read_text())
    assert agg["n_runs_ok"] == 2


def test_failed_runs_record_stage_and_do_not_abort_later_seeds(tmp_path):
    # cnn encoder needs a wide input; d=12 makes every run fail at training
    doc = make_doc(encoder={"kind": "cnn"}, runs=2)
    cfg = validate_config(doc, base_dir=tmp_path)
    result = run_experiment(cfg)
    assert result["aggregate"] is None
    assert not (result["dir"] / "aggregate.yaml").exists()
    for seed in (0, 1):
        rec = yaml.safe_load((result["dir"] / f"run{seed}" / "record.yaml").read_text())
        assert rec["status"] == "failed"
        assert rec["stage"] == "train"
        assert rec["error"]
    assert "FAILED at train" in read_report(result["dir"])


def test_non_finite_loss_fails_the_run_at_train(tmp_path, monkeypatch):
    # huge one-hot cells fit in float32, but the first reconstruction loss
    # overflows to inf. No table holds them (a one-hot cell is 0 or 1), so
    # they are put into the training split's features
    split = runner.protocol_split

    def huge_split(ds, *args, **kwargs):
        train, test = split(ds, *args, **kwargs)
        train.features[:, ds.onehot_groups["cat0"][0]] *= 1e30
        return train, test

    monkeypatch.setattr(runner, "protocol_split", huge_split)
    cfg = validate_config(make_doc(model="autoencoder"), base_dir=tmp_path)
    with np.errstate(over="ignore"):
        result = run_experiment(cfg)
    rec = yaml.safe_load((result["dir"] / "run0" / "record.yaml").read_text())
    assert rec["status"] == "failed" and rec["stage"] == "train", rec
    assert "non-finite loss inf at step 0" in rec["error"]


@pytest.mark.parametrize("model", ["vicreg", "autoencoder", "deep_svdd"])
def test_fewer_training_rows_than_a_batch_fail_the_run_at_train(tmp_path, model):
    # 100 normal rows at train fraction 0.5 leave 50 rows, under one 64-row batch
    doc = make_doc(model=model, dataset={"synth": {"n_normal": 100, "n_attack": 40, "d": 12,
                                                   "separation": 6.0, "seed": 3}})
    result = run_experiment(validate_config(doc, base_dir=tmp_path))
    rec = yaml.safe_load((result["dir"] / "run0" / "record.yaml").read_text())
    assert rec["status"] == "failed" and rec["stage"] == "train", rec
    assert "BatchSizeError: 50 training rows < batch size 64" in rec["error"]


def test_non_finite_features_fail_the_run_at_split(tmp_path):
    # a NaN feature would pass relu as 0 and train on finite losses
    ds = synth_generate(300, 80, 12, 6.0, seed=3)
    ds.numeric[:, 0] = np.nan
    save_dataset(tmp_path / "nan.npz", ds)
    cfg = validate_config(make_doc(dataset={"cache": "nan.npz"}), base_dir=tmp_path)
    result = run_experiment(cfg)
    rec = yaml.safe_load((result["dir"] / "run0" / "record.yaml").read_text())
    assert rec["status"] == "failed" and rec["stage"] == "split", rec
    assert "non-finite values in feature column(s) ['num0']" in rec["error"]


def test_synthetic_attacks_are_separable_end_to_end(tmp_path):
    # well-separated synthetic traffic should be near-trivial after pretraining
    doc = make_doc(
        dataset={"synth": {"n_normal": 2000, "n_attack": 500, "d": 20,
                           "separation": 6.0, "seed": 0}},
        encoder={"kind": "mlp", "hidden_dim": 256},
        training={"learning_rate": 1e-3, "epochs": 20, "batch_size": 128,
                  "projection_dim": 256},
    )
    cfg = validate_config(doc, base_dir=tmp_path)
    result = run_experiment(cfg)
    auroc_mean, _ = result["aggregate"]["auroc"]
    assert auroc_mean > 0.9


# ---------------------------------------------------------------------------
# grids


def grid_doc(**base_over):
    base = make_doc(**base_over)
    base.pop("model")
    base.pop("augmentation")
    return {
        "version": 1,
        "base": base,
        "grid": {
            "model": ["vicreg", "barlow_twins"],
            "encoder": [{"kind": "mlp", "hidden_dim": 32}],
            "augmentation": [{"kind": "gaussian_noise", "sigma2": 0.01},
                             {"kind": "zero_out", "p": 0.15}],
        },
    }


def test_expand_grid_is_the_cartesian_product():
    cells = expand_grid(grid_doc())
    assert len(cells) == 4
    combos = {(c["model"], c["augmentation"]["kind"]) for c in cells}
    assert combos == {("vicreg", "gaussian_noise"), ("vicreg", "zero_out"),
                      ("barlow_twins", "gaussian_noise"), ("barlow_twins", "zero_out")}
    assert all(c["encoder"] == {"kind": "mlp", "hidden_dim": 32} for c in cells)


def test_paper_grid_gives_each_baseline_one_cell():
    doc = grid_doc()
    doc["grid"] = {"model": [*MODEL_KINDS, "autoencoder", "deep_svdd"],
                   "encoder": ["mlp", "cnn", "ft_transformer"],
                   "augmentation": [{"kind": k} for k in AUG_KINDS]}
    cells = expand_grid(doc)
    assert len(cells) == 5 * 3 * 6 + 2
    baselines = [c for c in cells if c["model"] in ("autoencoder", "deep_svdd")]
    assert [c["model"] for c in baselines] == ["autoencoder", "deep_svdd"]
    assert not any("encoder" in c or "augmentation" in c for c in baselines)


def test_grid_trains_a_baseline_once_per_seed(tmp_path, monkeypatch):
    doc = grid_doc(runs=2)
    doc["grid"]["model"] = ["vicreg", "autoencoder"]
    calls = []
    real = runner.train_baseline

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "train_baseline", counted)
    rows = run_grid(doc, base_dir=tmp_path)["rows"]
    assert len(rows) == 3 and len(calls) == 2
    baseline = [r for r in rows if r["model"] == "autoencoder"]
    assert [(r["encoder"], r["augmentation"], r["status"]) for r in baseline] == [("-", "-", "ok")]


def test_grid_reruns_a_cell_whose_aggregate_was_cut_short(tmp_path):
    doc = grid_doc()
    doc["grid"] = {"model": ["autoencoder"]}
    first = run_grid(doc, base_dir=tmp_path)["rows"][0]
    agg_path = tmp_path / "runs" / first["hash"] / "aggregate.yaml"
    text = agg_path.read_text()
    agg_path.write_text(text[:text.index("n_runs_ok")])
    assert run_grid(doc, base_dir=tmp_path)["rows"][0]["status"] == "ok"
    assert agg_path.read_text() == text


def test_expand_grid_accepts_encoder_shorthand():
    doc = grid_doc()
    doc["grid"]["encoder"] = ["mlp"]
    cells = expand_grid(doc)
    assert all(c["encoder"] == {"kind": "mlp"} for c in cells)


@pytest.mark.parametrize("mangle, key", [
    (lambda d: d["grid"].__setitem__("models", d["grid"].pop("model")), "models"),
    (lambda d: d.__setitem__("runs", 3), "runs"),
])
def test_expand_grid_rejects_keys_nothing_reads(mangle, key):
    doc = grid_doc()
    mangle(doc)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        expand_grid(doc)


def test_expand_grid_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        expand_grid({"version": 1, "grid": {}})
    with pytest.raises(ConfigError):
        expand_grid({"base": {}, "grid": {}})


@pytest.mark.parametrize("path, value, message", [
    ("", 3, "a grid must be a mapping"),
    ("base", 3, "the base must be a mapping"),
    ("grid", 3, "the grid section must be a mapping"),
    ("grid.model", "vicreg", "'model' must be a list"),
    ("grid.encoder", "mlp", "'encoder' must be a list"),
    ("grid.augmentation", {"kind": "zero_out"}, "'augmentation' must be a list"),
], ids=["document", "base", "grid", "model-axis", "encoder-axis", "augmentation-axis"])
def test_grid_rejects_a_section_or_axis_of_the_wrong_kind(tmp_path, capsys, path, value,
                                                          message):
    doc = put(grid_doc(), path, value)
    with pytest.raises(ConfigError, match=message):
        expand_grid(doc)
    cli_error(tmp_path, capsys, "grid", doc)
    assert not (tmp_path / "runs").exists()


def test_run_grid_ranks_by_mean_f1_and_resumes_from_cache(tmp_path):
    doc = grid_doc()
    result = run_grid(doc, base_dir=tmp_path)
    assert len(result["rows"]) == 4
    assert all(row["status"] == "ok" for row in result["rows"])

    f1_means = [row["metrics"]["f1"][0] for row in result["ranking"]]
    assert f1_means == sorted(f1_means, reverse=True)
    assert set(result["best_per_model"]) == {"vicreg", "barlow_twins"}

    report = (result["dir"] / "grid_report.txt").read_text()
    assert "best encoder + augmentation per model" in report
    csv_lines = (result["dir"] / "grid_report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 4

    # completed cells are recognized by their aggregate and not re-run
    record = result["dir"] / result["rows"][0]["hash"] / "run0" / "record.yaml"
    stamp = record.stat().st_mtime_ns
    again = run_grid(doc, base_dir=tmp_path)
    assert all(row["status"] == "cached" for row in again["rows"])
    assert record.stat().st_mtime_ns == stamp
    assert [r["hash"] for r in again["ranking"]] == [r["hash"] for r in result["ranking"]]


def test_grid_reruns_a_cell_with_a_failed_seed(tmp_path, monkeypatch):
    doc = grid_doc(runs=2)
    doc["grid"] = {"model": ["autoencoder"]}
    calls = []
    real = runner.train_baseline

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("interrupted")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "train_baseline", flaky)
    first = run_grid(doc, base_dir=tmp_path)["rows"][0]
    assert (first["status"], first["n_runs_ok"], first["runs"]) == ("partial", 1, 2)
    report = (tmp_path / "runs" / "grid_report.txt").read_text()
    assert "[partial 1/2]" in report and "PARTIAL: 1 of 2 run(s) failed at ['train']" in report
    csv_rows = [line.split(",") for line in
                (tmp_path / "runs" / "grid_report.csv").read_text().splitlines()]
    assert [r[5:8] for r in csv_rows] == [["status", "n_runs_ok", "runs"], ["partial", "1", "2"]]
    agg_path = tmp_path / "runs" / first["hash"] / "aggregate.yaml"
    assert yaml.safe_load(agg_path.read_text())["n_runs_ok"] == 1
    again = run_grid(doc, base_dir=tmp_path)["rows"][0]
    assert again["status"] == "ok" and len(calls) == 4
    assert yaml.safe_load(agg_path.read_text())["n_runs_ok"] == 2
    assert run_grid(doc, base_dir=tmp_path)["rows"][0]["status"] == "cached"


def test_cli_exits_1_when_one_seed_fails(tmp_path, monkeypatch, capsys):
    calls, real = [], runner.train_baseline

    def every_second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise RuntimeError("interrupted")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "train_baseline", every_second_fails)
    doc = grid_doc(runs=2)
    doc["grid"] = {"model": ["autoencoder"]}
    (tmp_path / "grid.yaml").write_text(yaml.safe_dump(doc))
    assert cli.main(["grid", str(tmp_path / "grid.yaml")]) == 1
    assert "[partial 1/2]" in capsys.readouterr().out
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump(make_doc(model="autoencoder", runs=2)))
    assert cli.main(["run", str(tmp_path / "exp.yaml"), "--output-dir", str(tmp_path / "one")]) == 1
    assert "FAILED at train" in capsys.readouterr().out


def test_a_rerun_in_which_every_seed_fails_removes_the_old_aggregate(tmp_path, monkeypatch):
    doc = grid_doc()
    doc["grid"] = {"model": ["autoencoder"]}
    first = run_grid(doc, base_dir=tmp_path)["rows"][0]
    assert first["status"] == "ok"
    cfg = validate_config({**doc["base"], "model": "autoencoder"}, base_dir=tmp_path)
    assert cfg.hash == first["hash"]

    def crash(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(runner, "train_baseline", crash)
    result = run_experiment(cfg)
    assert "FAILED at train" in read_report(result["dir"])
    assert not (result["dir"] / "aggregate.yaml").exists()
    again = run_grid(doc, base_dir=tmp_path)["rows"][0]
    assert (again["status"], again["metrics"]) == ("failed", None)


def test_grid_workers_split_the_cpus_and_keep_the_scores(tmp_path):
    pair = grid_doc(runs=2)
    pair["grid"]["augmentation"] = pair["grid"]["augmentation"][:1]    # vicreg, barlow_twins
    # W-MSE at projection 256 factors 256 x 256 covariances, an order at
    # which LAPACK's threaded Cholesky rounds by the thread count
    whitened = deepcopy(pair)
    whitened["grid"]["model"] = ["wmse"]
    whitened["base"]["training"]["projection_dim"] = 256
    share = max(1, threads.usable_cpus() // 2)
    for name, doc in (("pair", pair), ("wmse", whitened)):
        for workers in (1, 2):
            doc["base"]["output_dir"] = f"{name}-w{workers}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # wmse: slice_size <= projection_dim
                rows = run_grid(doc, base_dir=tmp_path, workers=workers)["rows"]
            assert [r["status"] for r in rows] == ["ok"] * len(doc["grid"]["model"])
        for row in rows:
            for seed in (0, 1):
                run = Path(row["hash"]) / f"run{seed}"
                assert ((tmp_path / f"{name}-w2" / run / "scores.csv").read_bytes()
                        == (tmp_path / f"{name}-w1" / run / "scores.csv").read_bytes()), name
                env = _metrics_of(tmp_path / f"{name}-w2" / run)["env"]
                assert env["row_threads"] == (share if threads.blas_threads() else 1)
                assert env["view_threads"] == min(env["row_threads"], 2)
                assert env["blas_threads"] == (share if threads.blas_threads() else None)


def test_grid_validates_every_cell_before_running_any(tmp_path):
    doc = grid_doc(loss={"lam": 25})        # vicreg reads lam, barlow_twins does not
    with pytest.raises(ConfigError, match="2 invalid cell") as exc:
        run_grid(doc, base_dir=tmp_path)
    for aug in ("gaussian_noise", "zero_out"):
        assert f"barlow_twins/mlp/{aug}: model 'barlow_twins' does not read" in str(exc.value)
    assert not (tmp_path / "runs").exists()


def test_grid_reports_failed_cells_without_stopping(tmp_path):
    doc = grid_doc()
    doc["grid"]["encoder"] = [{"kind": "cnn"}]  # too narrow for every cell
    doc["grid"]["model"] = ["vicreg"]
    result = run_grid(doc, base_dir=tmp_path)
    assert [row["status"] for row in result["rows"]] == ["failed", "failed"]
    assert result["ranking"] == []
    report = (result["dir"] / "grid_report.txt").read_text()
    assert "FAILED" in report


# ---------------------------------------------------------------------------
# command line


def test_cli_round_trip(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(make_doc()))

    assert cli.main(["validate-config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok ")

    assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "auroc" in out and "artifacts:" in out

    exp_dir = next((tmp_path / "runs").iterdir())
    assert cli.main(["report", str(exp_dir)]) == 0
    assert "auroc" in capsys.readouterr().out


def cli_run_modules(tmp_path, doc) -> str:
    """``nidkit run`` on ``doc`` in a fresh process: the sorted list of the
    ``scipy.special`` and process-pool modules it loaded, as printed."""
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    script = (
        "import sys\n"
        "from nidkit import cli\n"
        f"assert cli.main(['run', {str(path)!r}, '--output-dir', {str(tmp_path / 'runs')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy.special', 'concurrent.futures.process'))))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "auroc" in out.stdout
    return out.stdout.splitlines()[-1]


def test_cli_and_an_mlp_run_load_no_scipy_special_and_no_process_pool(tmp_path):
    # scipy.special takes longer to import than the rest of nidkit together;
    # only a grid's workers need a pool
    assert cli_run_modules(tmp_path, make_doc()) == "[]"


def test_an_ft_transformer_run_loads_no_scipy_special(tmp_path):
    # GELU's erf is numpy's, so the FT-transformer's forward needs no scipy
    ft = {"kind": "ft_transformer", "token_dim": 8, "heads": 2, "layers": 1}
    assert cli_run_modules(tmp_path, make_doc(encoder=ft)) == "[]"


def test_a_run_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked a run still
    # completes, and its record leaves the scipy version out
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(make_doc(output_dir=str(tmp_path / "runs"))))
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from nidkit import cli\n"
              f"sys.exit(cli.main(['run', {str(path)!r}]))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    record = yaml.safe_load(next((tmp_path / "runs").glob("*/run0/record.yaml")).read_text())
    assert "scipy" not in record["env"] and record["env"]["numpy"] == np.__version__


def test_cli_rejects_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(make_doc(model="contrastive")))
    assert cli.main(["validate-config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("over, key", [
    pytest.param({"augmentation": {"kind": "zero_out", k: 0.2}}, k, id=k)
    for k in ("sigmaa", "seed")] + [pytest.param(*case, id=case[1]) for case in UNREAD_KEYS])
def test_cli_rejects_unknown_augmentation_key(tmp_path, capsys, over, key):
    """An unknown augmentation key, and any other key nothing reads."""
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(make_doc(**over)))
    assert cli.main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("fraction", [0, 1.5])
def test_cli_rejects_train_fraction_outside_unit_interval(tmp_path, capsys, fraction):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(make_doc(train_fraction=fraction)))
    assert cli.main(["validate-config", str(path)]) == 2
    assert "train_fraction must be in (0, 1)" in capsys.readouterr().err


def test_traced_benchmark_finds_every_name_it_patches(monkeypatch):
    """The benchmark's traced run wraps nidkit functions by name: entering
    its instrumentation fails if one is gone, and leaving puts each back."""
    monkeypatch.syspath_prepend(str(ROOT))
    from nidbench.tracing import COARSE_SITES, FINE_SITES, Tracer, instrument

    sites = [(owner, attr) for owner, attr, *_ in COARSE_SITES + FINE_SITES]
    originals = [getattr(owner, attr) for owner, attr in sites]
    with instrument(Tracer(), fine=True):
        assert all(getattr(owner, attr).__wrapped__ is fn
                   for (owner, attr), fn in zip(sites, originals))
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(sites, originals))


def test_cli_seed_and_runs_overrides(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(make_doc()))
    code = cli.main(["run", str(path), "--output-dir", str(tmp_path / "o"),
                     "--runs", "2", "--seed", "7"])
    assert code == 0
    capsys.readouterr()
    exp_dir = next((tmp_path / "o").iterdir())
    assert (exp_dir / "run7").is_dir() and (exp_dir / "run8").is_dir()
