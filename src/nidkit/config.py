"""Experiment configuration: YAML documents with stable content hashes.

A config fully determines an experiment; the hash of its canonical JSON
form (sorted keys, ``output_dir`` excluded) names the experiment directory,
so re-running an unchanged config lands in the same place.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from .augment import KINDS as AUGMENTATION_KINDS, AugmentationSpec
from .baselines import BASELINES
from .data import load_csv, synth_generate
from .encoders import ENCODERS
from .nn import ConfigError
from .ssl_models import MODEL_CLASSES, MODEL_KINDS

CONFIG_VERSION = 1
CONVENTIONAL_LRS = (1e-2, 1e-3, 1e-4, 1e-5)
REQUIRED = inspect.Parameter.empty   # the default of a key that has none


def required(default) -> bool:
    """Whether ``default`` marks a required key: ``REQUIRED``, ``int`` or ``float``."""
    return isinstance(default, type)


def parameters(fn) -> dict:
    """Each parameter of ``fn`` with its default; where it has none, its type
    if that is int or float (a required number), else ``REQUIRED``."""
    return {k: p.annotation if p.default is REQUIRED and p.annotation in (int, float) else p.default
            for k, p in inspect.signature(fn, eval_str=True).parameters.items()}


def keywords(builder) -> dict:
    """The keys a builder's section sets: its parameters that have a default,
    but ``dim``, which ``training.projection_dim`` sets."""
    return {k: d for k, d in parameters(builder).items() if not required(d) and k != "dim"}


# Each section is declared once, as key -> default. ``loss:`` takes its
# model's builder's keywords (a symmetric SSL kind's builder is its loss
# function), ``encoder:`` its kind's, ``augmentation:`` the fields of
# ``AugmentationSpec`` its kind reads; ``dataset.synth`` takes the parameters
# of ``synth_generate``.
LOSS = {**{kind: keywords(cls.loss or cls) for kind, cls in MODEL_CLASSES.items()},
        **{name: keywords(cls) for name, (cls, _) in BASELINES.items()}}
ENCODER = {kind: {"kind": REQUIRED, **keywords(cls)} for kind, cls in ENCODERS.items()}
SYNTH = parameters(synth_generate)
AUGMENTATION = {kind: {"kind": REQUIRED, **{f: getattr(AugmentationSpec, f) for f in fields}}
                for kind, fields in AUGMENTATION_KINDS.items()}
TOP = {"version": REQUIRED, "dataset": {}, "model": REQUIRED, "encoder": {"kind": "mlp"},
       "augmentation": {}, "loss": {}, "training": {}, "runs": 1, "base_seed": 0,
       "train_fraction": 0.5, "output_dir": "runs"}
TRAINING = {"learning_rate": 1e-3, "epochs": 10, "batch_size": 128, "projection_dim": 256}
# a dataset section holds one mode's keys
DATASET = {"synth": {"synth": REQUIRED}, "cache": {"cache": REQUIRED},
           "csv": {"csv": REQUIRED, "schema": REQUIRED, **keywords(load_csv)}}
# layer widths and head counts: below 1 the layer initialisation divides by zero
SIZES = ("hidden_dim", "heads", "hidden", "latent", "projection_dim")
# a grid document; an empty axis takes the base's value
GRID = {"version": REQUIRED, "base": REQUIRED, "grid": REQUIRED}
AXES = {"model": [], "encoder": [], "augmentation": []}


@dataclass
class ExperimentConfig:
    document: dict                 # the hashed config, paths as written
    dataset: dict                  # relative paths resolved for loading
    model: str
    encoder: dict
    augmentation: Optional[dict]
    learning_rate: float
    epochs: int
    batch_size: int
    projection_dim: int
    loss_params: dict
    n_runs: int
    base_seed: int
    train_fraction: float
    output_dir: Path

    @property
    def hash(self) -> str:
        return config_hash(self.document)


def config_hash(document: dict) -> str:
    doc = {k: v for k, v in document.items() if k != "output_dir"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_config(path) -> dict:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return doc


def section(value, keys: dict, what: str, source: str) -> dict:
    """Check one config section against its declaration ``keys`` and return
    it with the defaults filled in. It must be a mapping of declared keys
    holding every required one; a value whose default is an int or float (or
    that is required as one) is read as one, but neither a boolean nor, for
    an int, a float with a fraction; one whose default is a mapping, list or
    tuple must be a mapping or list, a tuple's entries read like its first."""
    if not isinstance(value, dict):
        raise ConfigError(f"{source}: {what} must be a mapping, got {value!r}")
    unread = sorted(set(value) - set(keys), key=str)
    if unread:
        raise ConfigError(f"{source}: {what} does not read key(s) {unread}")
    missing = [k for k, d in keys.items() if required(d) and k not in value]
    if missing:
        raise ConfigError(f"{source}: {what} is missing required key(s) {missing}")
    out = {k: d for k, d in keys.items() if not required(d)}
    for k, v in value.items():
        kind = keys[k] if required(keys[k]) else type(keys[k])
        if kind in (int, float):
            if kind is int and isinstance(v, float) and not v.is_integer():
                raise ConfigError(f"{source}: {what}: {k!r} must be an integer, got {v!r}")
            try:
                if isinstance(v, bool):   # int(True) would read it as 1
                    raise TypeError
                v = kind(v)
            except (TypeError, ValueError):
                raise ConfigError(f"{source}: {what}: {k!r} must be a number, got {v!r}") from None
        elif kind in (dict, list, tuple) and not isinstance(v, dict if kind is dict else list):
            raise ConfigError(f"{source}: {what}: {k!r} must be a "
                              f"{'mapping' if kind is dict else 'list'}, got {v!r}")
        if kind is tuple:   # each entry read as the default's first entry is
            v = [section({k: x}, {k: keys[k][0]}, what, source)[k] for x in v]
        out[k] = v
    return out


def _known(name, names, what: str, source: str) -> None:
    if not isinstance(name, str) or name not in names:
        raise ConfigError(f"{source}: unknown {what} {name!r}")


def _by_kind(value: dict, tables: dict, what: str, source: str) -> dict:
    """A section checked against the declaration of the ``kind`` it names."""
    if "kind" not in value:
        raise ConfigError(f"{source}: {what} is missing required key(s) ['kind']")
    kind = value["kind"]
    _known(kind, tables, f"{what} kind", source)
    return section(value, tables[kind], f"{what} {kind!r}", source)


def validate_config(doc: dict, base_dir=".", source="config") -> ExperimentConfig:
    """Check a parsed config document and resolve file references.

    Relative dataset paths are resolved against ``base_dir`` (normally the
    directory containing the config file) and must exist. The hashed
    ``document`` keeps them as written, so a config run from two directories
    (or a moved ``runs/`` tree) keeps one hash; a baseline's document drops
    the ``encoder`` and ``augmentation`` sections, which it does not read.
    """
    top = section(doc, TOP, "the config", source)
    if top["version"] != CONFIG_VERSION:
        raise ConfigError(f"{source}: unsupported config version {top['version']!r}")
    modes = [m for m in DATASET if m in top["dataset"]]
    if len(modes) != 1:
        raise ConfigError(f"{source}: dataset needs exactly one of synth/csv/cache")
    dataset = section(top["dataset"], DATASET[modes[0]], f"a {modes[0]} dataset", source)
    if "synth" in dataset:
        dataset["synth"] = section(dataset["synth"], SYNTH, "dataset.synth", source)
    for key in (k for k in ("csv", "schema", "cache") if k in dataset):
        p = Path(base_dir) / str(dataset[key])
        if not p.exists():
            raise ConfigError(f"{source}: dataset file not found: {p}")
        dataset[key] = str(p)

    model = top["model"]
    _known(model, LOSS, "model", source)
    loss = section(top["loss"], LOSS[model], f"model {model!r}", source)
    if model in MODEL_KINDS:
        encoder = _by_kind(top["encoder"], ENCODER, "encoder", source)
        aug = _by_kind(top["augmentation"], AUGMENTATION, "augmentation", source)
        try:
            AugmentationSpec(**aug)  # reuse the kind and hyperparameter validation
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    else:
        encoder, aug = {}, None      # baselines read neither section

    training = section(top["training"], TRAINING, "training", source)
    for name, values in (("encoder", encoder), ("loss", loss), ("training", training)):
        for key in SIZES:
            if values.get(key, 1) < 1:
                raise ConfigError(f"{source}: {name}.{key} must be >= 1, got {values[key]}")
    lr = training["learning_rate"]
    if lr <= 0:
        raise ConfigError(f"{source}: learning_rate must be positive")
    if not any(abs(lr - c) < 1e-12 for c in CONVENTIONAL_LRS):
        warnings.warn(f"learning_rate {lr} is outside the usual grid {CONVENTIONAL_LRS}")
    if training["epochs"] < 1 or training["batch_size"] < 2:
        raise ConfigError(f"{source}: need epochs >= 1 and batch_size >= 2")
    projection_dim = training["projection_dim"]
    if model == "wmse" and loss["slice_size"] <= projection_dim:
        # a slice of n rows has a covariance of rank <= n - 1: below the
        # embedding width the whitening jitter fills the missing directions
        warnings.warn(f"{source}: wmse slice_size {loss['slice_size']} <= projection_dim "
                      f"{projection_dim}, so each slice's covariance has rank <= "
                      f"{loss['slice_size'] - 1} and the eps jitter fills the rest")
    if top["runs"] < 1:
        raise ConfigError(f"{source}: runs must be >= 1")
    if not 0.0 < top["train_fraction"] < 1.0:
        raise ConfigError(f"{source}: train_fraction must be in (0, 1), got {top['train_fraction']}")

    unread = () if model in MODEL_KINDS else ("encoder", "augmentation")
    return ExperimentConfig(
        document={k: v for k, v in doc.items() if k not in unread},
        dataset=dataset, model=model, encoder=encoder, augmentation=aug,
        loss_params={k: loss[k] for k in top["loss"]},   # as written, numbers read as such
        n_runs=top["runs"], base_seed=top["base_seed"], train_fraction=top["train_fraction"],
        output_dir=Path(base_dir) / str(top["output_dir"]), **training)


def encoder_config_for(encoder: dict, input_width: int,
                       numeric_cols=(), cat_groups=None) -> dict:
    """An encoder section checked against its kind and filled in, plus its input layout."""
    return {**_by_kind(encoder, ENCODER, "encoder", "encoder_config_for"),
            "input_width": input_width, "numeric_cols": list(numeric_cols),
            "cat_groups": dict(cat_groups or {})}
