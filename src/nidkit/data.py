"""Dataset ingestion, preprocessing, protocol splitting, synthetic generation.

The preprocessing chain follows the usual flow-record hygiene for intrusion
data: drop NaN rows, drop duplicated feature columns, drop duplicated rows,
one-hot encode categoricals, min-max normalize the numeric columns, and merge
every attack class into a single positive label. Anomaly-detection protocol:
the training split holds normal traffic only; the test split holds the
remaining normals plus every attack sample.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

DATASET_CACHE_VERSION = 1
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input columns disagree with the declared schema."""


class DataError(ValueError):
    """Dataset contents violate a pipeline precondition."""


# ---------------------------------------------------------------------------
# Types


@dataclass
class Schema:
    """Column-kind declaration for a CSV layout."""

    label_column: str
    normal_values: set
    columns: dict  # name -> "numeric" | "categorical"
    drop: list = field(default_factory=list)


@dataclass
class RawTable:
    """Typed columnar table straight off the parser.

    Numeric columns are float64 (NaN marks missing), categorical and label
    columns are object arrays of strings. ``normal_values`` are the label
    strings of normal traffic, carried over from the schema.
    """

    columns: list
    kinds: dict
    cells: dict
    normal_values: set

    @property
    def n_rows(self) -> int:
        return 0 if not self.columns else len(self.cells[self.columns[0]])


@dataclass
class Dataset:
    """Model-ready feature matrix with labels and feature metadata.

    labels: 1 = attack (positive / anomalous class), 0 = normal.
    norm_stats maps each numeric feature name to the (min, max) pair the
    normalization used — after protocol_split these come from the training
    split only.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: list
    numeric_idx: np.ndarray
    onehot_groups: dict
    norm_stats: dict
    ids: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# Schema + CSV loading


def load_schema(path) -> Schema:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "columns" not in doc or "label" not in doc:
        raise SchemaError(f"{path}: schema needs 'label' and 'columns' sections")
    if int(doc.get("version", -1)) != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema version {doc.get('version')}")
    label = doc["label"]
    kinds = {}
    for name, kind in doc["columns"].items():
        if kind not in ("numeric", "categorical"):
            raise SchemaError(f"{path}: column {name!r} has unknown kind {kind!r}")
        kinds[str(name)] = kind
    return Schema(
        label_column=str(label["column"]),
        normal_values={str(v) for v in label["normal_values"]},
        columns=kinds,
        drop=[str(c) for c in doc.get("drop", [])],
    )


def load_csv(path, schema: Schema, max_reject_fraction: float = 0.1):
    """Parse a CSV into a RawTable, routing malformed rows to a reject report.

    Returns (table, rejects) where rejects is a list of
    {"row": line_number, "reason": str}. Raises DataError when the reject
    fraction exceeds ``max_reject_fraction``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in header]
        expected = set(schema.columns) | {schema.label_column} | set(schema.drop)
        missing = (set(schema.columns) | {schema.label_column}) - set(header)
        unknown = set(header) - expected
        if missing or unknown:
            raise SchemaError(
                f"{path}: header mismatch (missing {sorted(missing)}, unknown {sorted(unknown)})")

        keep = [i for i, h in enumerate(header) if h not in schema.drop]
        names = [header[i] for i in keep]
        rows, rejects = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                rejects.append({"row": lineno, "reason": f"expected {len(header)} fields, got {len(row)}"})
                continue
            parsed, bad = [], None
            for i in keep:
                name, value = header[i], row[i].strip()
                if name == schema.label_column:
                    parsed.append(value)
                elif schema.columns[name] == "numeric":
                    if value == "":
                        parsed.append(np.nan)
                    else:
                        try:
                            parsed.append(float(value))
                        except ValueError:
                            bad = f"non-numeric value {value!r} in column {name!r}"
                            break
                else:
                    parsed.append(value)
            if bad:
                rejects.append({"row": lineno, "reason": bad})
            else:
                rows.append(parsed)

    total = len(rows) + len(rejects)
    if total and len(rejects) / total > max_reject_fraction:
        raise DataError(
            f"{path}: {len(rejects)}/{total} rows rejected "
            f"(> {max_reject_fraction:.0%})")

    cells = {}
    kinds = {}
    for j, name in enumerate(names):
        column = [r[j] for r in rows]
        if name == schema.label_column:
            kinds[name] = "label"
            cells[name] = np.array(column, dtype=object)
        elif schema.columns[name] == "numeric":
            kinds[name] = "numeric"
            cells[name] = np.array(column, dtype=np.float64)
        else:
            kinds[name] = "categorical"
            cells[name] = np.array(column, dtype=object)
    return RawTable(columns=names, kinds=kinds, cells=cells,
                    normal_values=set(schema.normal_values)), rejects


# ---------------------------------------------------------------------------
# Preprocessing


def preprocess(raw: RawTable) -> Dataset:
    """Standard tabular cleanup: NaN rows out, duplicate columns/rows out,
    one-hot, min-max, merged binary labels.

    Label values found in ``raw.normal_values`` map to 0; every other value
    is an attack class and maps to 1.
    """
    label_cols = [c for c in raw.columns if raw.kinds[c] == "label"]
    if len(label_cols) != 1:
        raise SchemaError(f"expected exactly one label column, found {label_cols}")
    label_col = label_cols[0]
    feat_cols = [c for c in raw.columns if c != label_col]

    # 1. drop rows with any missing value
    n = raw.n_rows
    keep = np.ones(n, dtype=bool)
    for c in feat_cols:
        col = raw.cells[c]
        if raw.kinds[c] == "numeric":
            keep &= ~np.isnan(col.astype(np.float64))
        else:
            keep &= np.array([v is not None and str(v) != "" for v in col])
    keep &= np.array([v is not None and str(v) != "" for v in raw.cells[label_col]])
    row_ids = np.flatnonzero(keep)

    cols = {c: raw.cells[c][keep] for c in feat_cols}
    labels_raw = raw.cells[label_col][keep]

    # 2. drop duplicated feature columns (identical value sequences), keep first
    kept_cols, seen = [], {}
    for c in feat_cols:
        col = cols[c]
        key = col.tobytes() if col.dtype != object else col.astype(str).tobytes()
        if key in seen:
            warnings.warn(f"dropping column {c!r}: duplicate of {seen[key]!r}")
            continue
        seen[key] = c
        kept_cols.append(c)

    # 3. drop duplicated rows (features + label)
    labels = np.array([0 if str(v) in raw.normal_values else 1 for v in labels_raw],
                      dtype=np.int64)
    row_keys = {}
    row_keep = []
    for i in range(len(labels)):
        key = tuple(str(cols[c][i]) for c in kept_cols) + (labels[i],)
        if key not in row_keys:
            row_keys[key] = i
            row_keep.append(i)
    row_keep = np.asarray(row_keep, dtype=np.int64)
    cols = {c: cols[c][row_keep] for c in kept_cols}
    labels = labels[row_keep]
    row_ids = row_ids[row_keep]

    # 4. one-hot encode categoricals; 5. min-max normalize numerics
    blocks, names = [], []
    numeric_idx, onehot_groups, norm_stats = [], {}, {}
    for c in kept_cols:
        if raw.kinds[c] == "numeric":
            col = cols[c].astype(np.float64)
            lo, hi = float(col.min()), float(col.max())
            if hi == lo:
                warnings.warn(f"dropping constant numeric column {c!r}")
                continue
            numeric_idx.append(len(names))
            norm_stats[c] = (lo, hi)
            names.append(c)
            blocks.append(((col - lo) / (hi - lo))[:, None])
        else:
            cats = sorted(set(str(v) for v in cols[c]))
            if len(cats) < 2:
                warnings.warn(f"dropping single-category column {c!r}")
                continue
            start = len(names)
            lookup = {v: k for k, v in enumerate(cats)}
            hot = np.zeros((len(labels), len(cats)))
            for i, v in enumerate(cols[c]):
                hot[i, lookup[str(v)]] = 1.0
            blocks.append(hot)
            names.extend(f"{c}={v}" for v in cats)
            onehot_groups[c] = list(range(start, start + len(cats)))

    if not blocks:
        raise DataError("no usable feature columns after preprocessing")
    features = np.hstack(blocks)
    return Dataset(features=features, labels=labels, feature_names=names,
                   numeric_idx=np.asarray(numeric_idx, dtype=np.int64),
                   onehot_groups=onehot_groups, norm_stats=norm_stats,
                   ids=row_ids)


# ---------------------------------------------------------------------------
# Protocol split


def _renormalize(train_feat, other_feat, numeric_idx, feature_names, norm_stats):
    """Min-max each numeric column with training-split statistics."""
    stats = dict(norm_stats)
    for j in numeric_idx:
        lo = float(train_feat[:, j].min())
        hi = float(train_feat[:, j].max())
        name = feature_names[j]
        # compose with whatever affine map produced the current values
        if name in stats:
            old_lo, old_hi = stats[name]
            raw_lo = old_lo + lo * (old_hi - old_lo)
            raw_hi = old_lo + hi * (old_hi - old_lo)
        else:
            raw_lo, raw_hi = lo, hi
        stats[name] = (raw_lo, raw_hi)
        if hi == lo:
            train_feat[:, j] = 0.0
            other_feat[:, j] = other_feat[:, j] - lo
        else:
            train_feat[:, j] = (train_feat[:, j] - lo) / (hi - lo)
            other_feat[:, j] = (other_feat[:, j] - lo) / (hi - lo)
    return stats


def protocol_split(ds: Dataset, train_fraction_of_normals: float = 0.5,
                   seed: int = 0):
    """Split into (train of normals only, test of held-out normals + attacks).

    Numeric columns are re-normalized with statistics of the training split
    only; because min-max composition is affine, this equals normalizing the
    raw values with train statistics (no test leakage).
    """
    normal = np.flatnonzero(ds.labels == 0)
    attack = np.flatnonzero(ds.labels == 1)
    if normal.size == 0:
        raise DataError("protocol_split: dataset has no normal samples")
    rng = np.random.default_rng(seed)
    order = rng.permutation(normal)
    n_train = int(round(train_fraction_of_normals * normal.size))
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(np.concatenate([order[n_train:], attack]))

    train_feat = ds.features[train_idx].copy()
    test_feat = ds.features[test_idx].copy()
    stats = _renormalize(train_feat, test_feat, ds.numeric_idx,
                         ds.feature_names, ds.norm_stats)

    mk = lambda feat, idx: Dataset(
        features=feat, labels=ds.labels[idx].copy(),
        feature_names=list(ds.feature_names),
        numeric_idx=ds.numeric_idx.copy(),
        onehot_groups={k: list(v) for k, v in ds.onehot_groups.items()},
        norm_stats=stats, ids=ds.ids[idx].copy())
    return mk(train_feat, train_idx), mk(test_feat, test_idx)


# ---------------------------------------------------------------------------
# Synthetic generator


def synth_generate(n_normal: int, n_attack: int, d: int, separation: float,
                   seed: int = 0) -> Dataset:
    """Gaussian-mixture table with a controllable normal/attack separation.

    Feature width ``d`` counts the final one-hot-expanded matrix: two
    categorical features (3 + 4 categories) occupy seven columns and the
    remaining ``d - 7`` are numeric. The numeric block mimics flow features:
    most columns are noisy linear readouts of a few shared latent factors
    (mixture of two latent clusters), and the rest are independent bimodal
    nuisance columns that carry no class signal. Attacks shift the latent
    factors along a random direction -- one separation unit displaces the
    structured columns by about 1.4 raw units -- and are mildly stretched;
    the categorical distributions skew toward different categories as
    separation grows.
    """
    if separation < 0:
        raise ValueError("separation must be >= 0")
    if d < 10:
        raise ValueError("need d >= 10 (7 one-hot columns + >= 3 numeric)")
    rng = np.random.default_rng(seed)
    d_num = d - 7
    k = max(2, d_num // 3)
    m_noise = max(2, d_num // 4)
    m_struct = d_num - m_noise

    loadings = rng.normal(size=(k, m_struct)) / np.sqrt(k)
    centers = rng.normal(scale=0.3, size=(2, k))
    direction = rng.normal(size=k)
    direction /= np.linalg.norm(direction)
    # Scale so one separation unit moves the structured block ~1.4 raw
    # units; resample the rare direction nearly orthogonal to the loadings.
    # When the structured block is so narrow that no unit direction clears
    # the floor (possible at the minimum d), fall back to the loadings'
    # strongest direction instead of resampling forever.
    norm_in_x = float(np.linalg.norm(direction @ loadings))
    for _ in range(16):
        if norm_in_x >= 0.3:
            break
        direction = rng.normal(size=k)
        direction /= np.linalg.norm(direction)
        norm_in_x = float(np.linalg.norm(direction @ loadings))
    else:
        direction = np.linalg.svd(loadings)[0][:, 0]
        norm_in_x = float(np.linalg.norm(direction @ loadings))
    direction *= 1.4 / norm_in_x
    stretch = 1.0 + 0.05 * separation

    def draw(n, offset, scale):
        comp = rng.integers(0, 2, size=n)
        z = centers[comp] + offset + rng.normal(scale=scale, size=(n, k))
        x_struct = z @ loadings + rng.normal(scale=0.1, size=(n, m_struct))
        sign = rng.integers(0, 2, size=(n, m_noise)) * 2 - 1
        x_noise = sign + rng.normal(scale=0.15, size=(n, m_noise))
        return np.hstack([x_struct, x_noise])

    x_norm = draw(n_normal, 0.0, 1.0)
    x_att = draw(n_attack, separation * direction, stretch)
    numeric = np.vstack([x_norm, x_att])

    # categorical part: attack category distribution drifts with separation
    w = min(1.0, 0.1 * separation)
    cat_sizes = (3, 4)
    cat_blocks = []
    names, onehot_groups, numeric_idx, norm_stats = [], {}, [], {}
    for j in range(d_num):
        numeric_idx.append(j)
        names.append(f"num{j}")
    for g, size in enumerate(cat_sizes):
        base = rng.dirichlet(np.ones(size) * 5.0)
        skewed = np.roll(base, 1)
        p_att = (1 - w) * base + w * skewed
        draws_n = rng.choice(size, size=n_normal, p=base)
        draws_a = rng.choice(size, size=n_attack, p=p_att)
        draws = np.concatenate([draws_n, draws_a])
        hot = np.zeros((n_normal + n_attack, size))
        hot[np.arange(draws.size), draws] = 1.0
        start = d_num + sum(cat_sizes[:g])
        onehot_groups[f"cat{g}"] = list(range(start, start + size))
        names.extend(f"cat{g}={c}" for c in range(size))
        cat_blocks.append(hot)

    lo = numeric.min(axis=0)
    hi = numeric.max(axis=0)
    for j in range(d_num):
        norm_stats[f"num{j}"] = (float(lo[j]), float(hi[j]))
    numeric = (numeric - lo) / (hi - lo)

    features = np.hstack([numeric] + cat_blocks)
    labels = np.concatenate([np.zeros(n_normal, dtype=np.int64),
                             np.ones(n_attack, dtype=np.int64)])
    return Dataset(features=features, labels=labels, feature_names=names,
                   numeric_idx=np.asarray(numeric_idx, dtype=np.int64),
                   onehot_groups=onehot_groups, norm_stats=norm_stats,
                   ids=np.arange(n_normal + n_attack, dtype=np.int64))


# ---------------------------------------------------------------------------
# Dataset cache


def save_dataset(path, ds: Dataset) -> None:
    """Versioned npz cache with feature metadata alongside the matrix."""
    meta = {
        "feature_names": list(ds.feature_names),
        "onehot_groups": {k: list(map(int, v)) for k, v in ds.onehot_groups.items()},
        "norm_stats": {k: [float(a), float(b)] for k, (a, b) in ds.norm_stats.items()},
    }
    np.savez(
        path,
        __version__=np.asarray(DATASET_CACHE_VERSION),
        features=ds.features,
        labels=ds.labels,
        numeric_idx=ds.numeric_idx,
        ids=ds.ids,
        meta=np.frombuffer(yaml.safe_dump(meta).encode(), dtype=np.uint8),
    )


def load_dataset(path) -> Dataset:
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["__version__"])
        if version != DATASET_CACHE_VERSION:
            raise DataError(f"unsupported dataset cache version {version}")
        meta = yaml.safe_load(bytes(archive["meta"]).decode())
        return Dataset(
            features=archive["features"],
            labels=archive["labels"],
            feature_names=list(meta["feature_names"]),
            numeric_idx=archive["numeric_idx"],
            onehot_groups={k: list(v) for k, v in meta["onehot_groups"].items()},
            norm_stats={k: (v[0], v[1]) for k, v in meta["norm_stats"].items()},
            ids=archive["ids"],
        )
