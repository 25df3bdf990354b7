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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import yaml

from .augment import KINDS as AUG_KINDS
from .augment import AugmentationSpec
from .baselines import BASELINES
from .data import synth_generate
from .encoders import (CNNEncoder, EncoderConfig, FTTransformerEncoder,
                       MLPEncoder)
from .nn import ConfigError
from .ssl_models import MODEL_CLASSES, MODEL_KINDS, wmse_loss

CONFIG_VERSION = 1
CONVENTIONAL_LRS = (1e-2, 1e-3, 1e-4, 1e-5)
# the keyword parameters of a kind's builder are the keys its section may set;
# a symmetric SSL kind's ``loss:`` keys are its loss function's
MODEL_BUILDERS = {**{kind: cls.loss or cls for kind, cls in MODEL_CLASSES.items()},
                  **{name: cls for name, (cls, _) in BASELINES.items()}}
ENCODER_BUILDERS = {"mlp": MLPEncoder, "cnn": CNNEncoder, "ft_transformer": FTTransformerEncoder}
# the keys each fixed section reads; a dataset section reads its mode's keys
TOP_KEYS = {"version", "dataset", "model", "encoder", "augmentation", "loss", "training",
            "runs", "base_seed", "train_fraction", "output_dir"}
TRAINING_KEYS = {"learning_rate", "epochs", "batch_size", "projection_dim"}
DATASET_KEYS = {"synth": {"synth"}, "csv": {"csv", "schema", "max_reject_fraction"},
                "cache": {"cache"}}


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
    loss_params: dict = field(default_factory=dict)
    n_runs: int = 1
    base_seed: int = 0
    train_fraction: float = 0.5
    output_dir: Path = Path("runs")

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


def _require(doc, key, path):
    if key not in doc:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return doc[key]


def reject_unread(keys, read, what: str, source: str) -> None:
    """Raise naming the ``keys`` that are not in ``read``. A builder reads
    its keyword parameters but ``dim``, which ``training.projection_dim`` sets."""
    if callable(read):
        read = {k for k, p in inspect.signature(read).parameters.items()
                if k != "dim" and p.default is not inspect.Parameter.empty}
    unread = sorted(set(keys) - set(read))
    if unread:
        raise ConfigError(f"{source}: {what} does not read key(s) {unread}")


def validate_config(doc: dict, base_dir=".", source="config") -> ExperimentConfig:
    """Check a parsed config document and resolve file references.

    Relative dataset paths are resolved against ``base_dir`` (normally the
    directory containing the config file) and must exist. The hashed
    ``document`` keeps them as written, so a config run from two directories
    (or a moved ``runs/`` tree) keeps one hash; a baseline's document drops
    the ``encoder`` and ``augmentation`` sections, which it does not read.
    """
    base_dir = Path(base_dir)
    if int(doc.get("version", -1)) != CONFIG_VERSION:
        raise ConfigError(f"{source}: unsupported config version {doc.get('version')!r}")
    reject_unread(doc, TOP_KEYS, "the config", source)

    dataset = dict(_require(doc, "dataset", source))
    modes = [k for k in DATASET_KEYS if k in dataset]
    if len(modes) != 1:
        raise ConfigError(f"{source}: dataset needs exactly one of synth/csv/cache")
    reject_unread(dataset, DATASET_KEYS[modes[0]], f"a {modes[0]} dataset", source)
    if modes[0] == "synth":
        params = inspect.signature(synth_generate).parameters
        reject_unread(dataset["synth"], params, "dataset.synth", source)
        for key in (k for k, p in params.items() if p.default is inspect.Parameter.empty):
            _require(dataset["synth"], key, source)
    elif modes[0] == "csv":
        for key in ("csv", "schema"):
            p = base_dir / _require(dataset, key, source)
            if not p.exists():
                raise ConfigError(f"{source}: dataset file not found: {p}")
            dataset[key] = str(p)
    elif modes[0] == "cache":
        p = base_dir / dataset["cache"]
        if not p.exists():
            raise ConfigError(f"{source}: dataset cache not found: {p}")
        dataset["cache"] = str(p)

    model = _require(doc, "model", source)
    if model not in MODEL_BUILDERS:
        raise ConfigError(f"{source}: unknown model {model!r}")
    loss_params = dict(doc.get("loss", {}))
    reject_unread(loss_params, MODEL_BUILDERS[model], f"model {model!r}", source)

    if model in MODEL_KINDS:
        encoder = dict(doc.get("encoder", {"kind": "mlp"}))
        kind = encoder.get("kind")
        if kind not in ENCODER_BUILDERS:
            raise ConfigError(f"{source}: unknown encoder kind {kind!r}")
        reject_unread(set(encoder) - {"kind"}, ENCODER_BUILDERS[kind],
                      f"encoder {kind!r}", source)
        aug = dict(_require(doc, "augmentation", source))
        if aug.get("kind") not in AUG_KINDS:
            raise ConfigError(f"{source}: unknown augmentation kind {aug.get('kind')!r}")
        unknown = set(aug) - {f.name for f in fields(AugmentationSpec)}
        if unknown:
            raise ConfigError(f"{source}: unknown augmentation key(s) {sorted(unknown)}")
        AugmentationSpec(**aug)  # reuse the hyperparameter validation
    else:
        encoder, aug = {}, None      # baselines read neither section

    training = dict(doc.get("training", {}))
    reject_unread(training, TRAINING_KEYS, "training", source)
    lr = float(training.get("learning_rate", 1e-3))
    if lr <= 0:
        raise ConfigError(f"{source}: learning_rate must be positive")
    if not any(abs(lr - c) < 1e-12 for c in CONVENTIONAL_LRS):
        warnings.warn(f"learning_rate {lr} is outside the usual grid {CONVENTIONAL_LRS}")
    epochs = int(training.get("epochs", 10))
    batch_size = int(training.get("batch_size", 128))
    if epochs < 1 or batch_size < 2:
        raise ConfigError(f"{source}: need epochs >= 1 and batch_size >= 2")

    projection_dim = int(training.get("projection_dim", 256))
    if model == "wmse":
        # a slice of n rows has a covariance of rank <= n - 1: below the
        # embedding width the whitening jitter fills the missing directions
        slice_size = int(loss_params.get(
            "slice_size", inspect.signature(wmse_loss).parameters["slice_size"].default))
        if slice_size <= projection_dim:
            warnings.warn(f"{source}: wmse slice_size {slice_size} <= projection_dim "
                          f"{projection_dim}, so each slice's covariance has rank <= "
                          f"{slice_size - 1} and the eps jitter fills the rest")

    n_runs = int(doc.get("runs", 1))
    if n_runs < 1:
        raise ConfigError(f"{source}: runs must be >= 1")
    train_fraction = float(doc.get("train_fraction", 0.5))
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"{source}: train_fraction must be in (0, 1), got {train_fraction}")

    unread = () if model in MODEL_KINDS else ("encoder", "augmentation")
    return ExperimentConfig(
        document={k: v for k, v in doc.items() if k not in unread},
        dataset=dataset,
        model=model,
        encoder=encoder,
        augmentation=aug,
        learning_rate=lr,
        epochs=epochs,
        batch_size=batch_size,
        projection_dim=projection_dim,
        loss_params=loss_params,
        n_runs=n_runs,
        base_seed=int(doc.get("base_seed", 0)),
        train_fraction=train_fraction,
        output_dir=base_dir / str(doc.get("output_dir", "runs")),
    )


def encoder_config_for(encoder: dict, input_width: int,
                       numeric_cols=(), cat_groups=None) -> EncoderConfig:
    """Materialize the encoder section for a concrete input width."""
    extra = {k: v for k, v in encoder.items() if k != "kind"}
    return EncoderConfig(kind=encoder.get("kind", "mlp"), input_width=input_width,
                         numeric_cols=list(numeric_cols),
                         cat_groups=dict(cat_groups or {}), **extra)
