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
import io
import itertools
import os
import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from . import threads
from .tensor import DTYPE

DATASET_CACHE_VERSION = 2
_CACHE_ENTRIES = ("__version__", "numeric", "codes", "labels", "numeric_idx", "ids", "meta")
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


class Dataset:
    """Model-ready table with labels and feature metadata.

    The table is held in two parts: ``numeric``, rows x numeric columns in
    ``numeric_idx`` order, and ``codes``, rows x one-hot groups holding each
    row's category index in each group, in ``onehot_groups`` order.
    ``features``, the dense matrix in ``numeric``'s dtype, is built from them
    on first access and kept, so edits to it stay (and do not reach the
    parts). ``Dataset(features=...)`` derives the parts from a dense matrix
    and keeps that matrix as ``features``.

    labels: 1 = attack (positive / anomalous class), 0 = normal.
    norm_stats maps each numeric feature name to the (min, max) pair the
    normalization used — after protocol_split these come from the training
    split only.
    """

    def __init__(self, *, labels, feature_names, numeric_idx, onehot_groups, norm_stats,
                 ids, numeric=None, codes=None, features=None):
        if (features is None) == (numeric is None):
            raise TypeError("Dataset takes features, or numeric and codes")
        if features is not None:
            numeric, codes = _parts(features, numeric_idx, onehot_groups)
            self.features = features
        self.numeric, self.codes, self.labels = numeric, codes, labels
        self.feature_names, self.numeric_idx = feature_names, numeric_idx
        self.onehot_groups, self.norm_stats, self.ids = onehot_groups, norm_stats, ids

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def features(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_features), self.numeric.dtype)
        out[:, self.numeric_idx] = self.numeric
        rows = np.arange(self.n_rows)
        for cols, codes in zip(self.onehot_groups.values(), self.codes.T):
            out[rows, np.asarray(cols)[codes]] = 1.0
        return out


def _parts(features, numeric_idx, onehot_groups):
    """The numeric block and the category codes of a dense matrix. Raises
    ``DataError`` when the layout does not name each column once, or naming
    a one-hot group whose block does not hold exactly one 1.0, zeros
    elsewhere, in every row."""
    columns = np.concatenate([np.asarray(numeric_idx, np.int64)]
                             + [np.asarray(cols, np.int64) for cols in onehot_groups.values()])
    if not np.array_equal(np.sort(columns), np.arange(features.shape[1])):
        raise DataError("the numeric and one-hot columns do not name each feature column once")
    codes = np.empty((len(features), len(onehot_groups)), np.int64)
    for g, (name, cols) in enumerate(onehot_groups.items()):
        block = features[:, cols]
        hot = block == 1.0
        if not ((hot | (block == 0.0)).all() and (hot.sum(axis=1) == 1).all()):
            raise DataError(f"one-hot group {name!r} does not hold exactly one 1.0, "
                            f"zeros elsewhere, in every row")
        codes[:, g] = hot.argmax(axis=1)
    return features[:, numeric_idx], codes


# ---------------------------------------------------------------------------
# Schema + CSV loading


def load_schema(path) -> Schema:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "columns" not in doc or "label" not in doc:
        raise SchemaError(f"{path}: schema needs 'label' and 'columns' sections")
    if int(doc.get("version", -1)) != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema version {doc.get('version')}")
    label, columns = doc["label"], doc["columns"]
    if not isinstance(label, dict) or "column" not in label:
        raise SchemaError(f"{path}: 'label' must be a mapping with a 'column' key")
    normal = label.get("normal_values")
    if not (isinstance(normal, list) and normal
            and all(isinstance(v, (str, int, float)) for v in normal)):
        raise SchemaError(f"{path}: 'label.normal_values' must be a non-empty list "
                          f"of scalars, got {normal!r}")
    if not isinstance(columns, dict):
        raise SchemaError(f"{path}: 'columns' must be a mapping of column name to kind")
    drop = doc.get("drop", [])
    if not (isinstance(drop, list) and all(isinstance(c, (str, int, float)) for c in drop)):
        raise SchemaError(f"{path}: 'drop' must be a list of column names, got {drop!r}")
    kinds = {}
    for name, kind in columns.items():
        if kind not in ("numeric", "categorical"):
            raise SchemaError(f"{path}: column {name!r} has unknown kind {kind!r}")
        kinds[str(name)] = kind
    return Schema(
        label_column=str(label["column"]),
        normal_values={str(v) for v in normal},
        columns=kinds,
        drop=[str(c) for c in drop],
    )


# rows parsed per batch: bounds the raw text held in memory at once
_CHUNK_ROWS = 8192

# the fewest bytes a range is cut to, so a file under twice this is one
# range. On 2 vCPUs two ranges lost 15 ms on 1 MB of the UNSW-NB15 layout
# and gained 25-35 ms on 2 MB; a process's first pool also imports its
# modules, about 40 ms
_RANGE_BYTES = 2 << 20


def load_csv(path, schema: Schema, max_reject_fraction: float = 0.1):
    """Parse a CSV into a RawTable, routing malformed rows to a reject report.

    Returns (table, rejects) where rejects is a list of
    {"row": line_number, "reason": str}, ordered by line; line_number is the
    file line the record starts on. A row is rejected when its field count
    differs from the header's, or for its first bad numeric cell in header
    order: a non-number, or a non-finite value such as ``inf``. An empty
    cell or a literal ``nan`` is a missing value.
    Raises SchemaError on a header that repeats a name or disagrees with the
    schema, and DataError when the reject fraction exceeds
    ``max_reject_fraction``.

    The file parses as up to ``threads.cpus()`` byte ranges of at least
    ``_RANGE_BYTES`` each, cut just after a newline: this process parses
    the first, forked processes the rest, and the columns join in file
    order. A file under twice ``_RANGE_BYTES``, a file holding a ``"`` (a
    quoted field may hold a newline), a budget of one CPU or a platform
    without ``fork`` is one range, parsed in this process.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with open(path, "rb") as fh:
        cuts = _cuts(fh, os.fstat(fh.fileno()).st_size, threads.cpus())
        fh.seek(0)
        reader = csv.reader(_text(fh, cuts[1]))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise SchemaError(f"{path}: duplicate column name(s) {repeated} in header")
        expected = set(schema.columns) | {schema.label_column} | set(schema.drop)
        missing = (set(schema.columns) | {schema.label_column}) - set(header)
        unknown = set(header) - expected
        if missing or unknown:
            raise SchemaError(
                f"{path}: header mismatch (missing {sorted(missing)}, unknown {sorted(unknown)})")

        kinds = {h: "label" if h == schema.label_column else schema.columns[h]
                 for h in header if h not in schema.drop}
        with _fork_pool(len(cuts) - 2) as pool:
            futures = [pool.submit(_parse_range, path, start, end, header, kinds)
                       for start, end in zip(cuts[1:], cuts[2:])]
            ranges = [_read_range(reader, header, kinds)] + [f.result() for f in futures]

    parts = {name: [np.empty(0, np.float64 if kind == "numeric" else object)]
             for name, kind in kinds.items()}
    rejects, total, lines_before = [], 0, 0
    for range_parts, range_rejects, range_total, range_lines in ranges:
        for name, chunks in range_parts.items():
            parts[name] += chunks
        rejects += [{"row": r["row"] + lines_before, "reason": r["reason"]}
                    for r in range_rejects]
        total += range_total
        lines_before += range_lines
    rejects.sort(key=lambda r: r["row"])

    cells = {name: np.concatenate(chunks) for name, chunks in parts.items()}
    if total and len(rejects) / total > max_reject_fraction:
        raise DataError(
            f"{path}: {len(rejects)}/{total} rows rejected "
            f"(> {max_reject_fraction:.0%})")
    return RawTable(columns=list(kinds), kinds=kinds, cells=cells,
                    normal_values=set(schema.normal_values)), rejects


def _cuts(fh, size, cpus):
    """Byte offsets that cut an open binary file into up to ``cpus`` ranges
    of at least ``_RANGE_BYTES``, each after the first one starting just
    after a newline."""
    n = min(cpus, size // _RANGE_BYTES)
    if n < 2 or not hasattr(os, "fork"):
        return [0, size]
    for block in iter(lambda: fh.read(1 << 20), b""):
        if b'"' in block:
            return [0, size]
    cuts = [0]
    for k in range(1, n):
        fh.seek(size * k // n)
        fh.readline()
        if cuts[-1] < fh.tell() < size:
            cuts.append(fh.tell())
    return cuts + [size]


class _Window(io.RawIOBase):
    """The bytes of an open binary file from its position up to ``end``."""

    def __init__(self, fh, end):
        self.fh, self.left = fh, end - fh.tell()

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self.fh.readinto(memoryview(buffer)[:self.left])
        self.left -= n
        return n


def _text(fh, end):
    r"""Text of an open binary file from its position up to ``end``, with
    the line breaks of ``open(newline="")``: ``\n``, ``\r\n`` and ``\r``."""
    return io.TextIOWrapper(io.BufferedReader(_Window(fh, end)), newline="")


@contextmanager
def _fork_pool(workers):
    """A pool of ``workers`` forked processes, or None when there are none
    (and then no pool module is imported). The block's exit joins them,
    also on an error.

    Forked, not spawned: a spawned process imports numpy and nidkit again,
    0.35 s, about what a second range saves on a 16 MB CSV on 2 vCPUs.
    A forked child runs only ``csv``, ``float`` and numpy array copies, so
    none of the BLAS threads it does not inherit is ever waited on.
    """
    if not workers:
        yield None
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    threads.one_malloc_arena()     # the result thread unpickles the ranges
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool


def _parse_range(path, start, end, header, kinds):
    """:func:`_read_range` over the bytes ``start:end`` of a file."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return _read_range(csv.reader(_text(fh, end)), header, kinds)


def _read_range(reader, header, kinds):
    """Parse the records of ``reader`` into column chunks.

    Returns (parts, rejects, records, lines): lists of column chunks by
    name, the rejects with line numbers counted from the reader's first
    line, the records read and the lines read.
    """
    parts = {name: [] for name in kinds}
    rows, lines, rejects = [], [], []
    total = 0   # data records read; a quoted newline spans lines
    start = reader.line_num + 1
    for row in reader:
        total += 1
        # a record starts on the line after the previous one ended
        lineno, start = start, reader.line_num + 1
        if len(row) != len(header):
            rejects.append({"row": lineno, "reason": f"expected {len(header)} fields, got {len(row)}"})
            continue
        rows.append(row)
        lines.append(lineno)
        if len(rows) == _CHUNK_ROWS:
            rejects += _parse_rows(rows, lines, header, kinds, parts)
            rows, lines = [], []
    rejects += _parse_rows(rows, lines, header, kinds, parts)
    return parts, rejects, total, reader.line_num


_strip = np.frompyfunc(str.strip, 1, 1)


def _parse_rows(rows, lines, header, kinds, parts):
    """Parse a batch of full-width rows column by column into ``parts``.

    Rows with a bad numeric cell are left out; returns their rejects.
    """
    if not rows:
        return []
    table = np.array(rows, dtype=object)
    bad = {}      # row position -> reason of its first bad cell in header order
    columns = {}
    for j, name in enumerate(header):
        if name not in kinds:
            continue
        if kinds[name] == "numeric":
            columns[name] = _parse_numeric(table[:, j].tolist(), name, bad)
        else:
            columns[name] = _strip(table[:, j])
    if bad:
        ok = np.ones(len(rows), dtype=bool)
        ok[list(bad)] = False
        columns = {name: values[ok] for name, values in columns.items()}
    for name, values in columns.items():
        parts[name].append(values)
    return [{"row": lines[pos], "reason": reason} for pos, reason in bad.items()]


def _parse_numeric(cells, name, bad):
    """float64 values of one column's cells, NaN where a cell is empty.

    ``float`` parses the column in one pass, and stops only at a cell it
    cannot read; that cell is missing if blank, else its row goes to ``bad``.
    """
    values = []
    parsed = map(float, cells)
    while True:
        try:
            values.extend(parsed)
            break
        except ValueError:
            # extend keeps the values parsed before the failing cell, and
            # the map resumes after it
            pos = len(values)
            text = cells[pos].strip()
            if text:
                bad.setdefault(pos, f"non-numeric value {text!r} in column {name!r}")
            values.append(np.nan)
    values = np.array(values, dtype=np.float64)
    for pos in np.flatnonzero(np.isinf(values)).tolist():
        bad.setdefault(pos, f"non-finite value {cells[pos].strip()!r} in column {name!r}")
    return values


# ---------------------------------------------------------------------------
# Preprocessing


# the str form of every cell of an object array; preprocess compares,
# sorts and deduplicates categorical cells by it
_as_text = np.frompyfunc(str, 1, 1)


def _codes(text):
    """Sorted distinct values of an object array of str, and the index of
    each cell's value among them."""
    first = {}   # value -> position of its first cell
    pos = np.fromiter(map(first.setdefault, text, itertools.count()), np.int64, len(text))
    values = sorted(first)
    rank = np.empty(len(text), dtype=np.int64)
    rank[[first[v] for v in values]] = np.arange(len(values))
    return values, rank[pos]


def _first_rows(keys):
    """Ascending indices of the first occurrence of each distinct row."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    return np.sort(np.unique(rows, return_index=True)[1])


def preprocess(raw: RawTable) -> Dataset:
    """Standard tabular cleanup: NaN rows out, duplicate columns/rows out,
    one-hot, min-max, merged binary labels.

    Label values found in ``raw.normal_values`` map to 0; every other value
    is an attack class and maps to 1. Two rows are duplicates when every
    kept feature cell has the same ``str`` form and the binary labels agree.
    """
    label_cols = [c for c in raw.columns if raw.kinds[c] == "label"]
    if len(label_cols) != 1:
        raise SchemaError(f"expected exactly one label column, found {label_cols}")
    label_col = label_cols[0]
    feat_cols = [c for c in raw.columns if c != label_col]
    numeric = {c for c in feat_cols if raw.kinds[c] == "numeric"}

    # 1. drop rows with any missing value
    keep = np.ones(raw.n_rows, dtype=bool)
    text = {}
    for c in raw.columns:
        if c in numeric:
            keep &= ~np.isnan(raw.cells[c].astype(np.float64, copy=False))
        else:
            text[c] = _as_text(raw.cells[c])
            keep &= (text[c] != "") & np.not_equal(raw.cells[c], None)
    row_ids = np.flatnonzero(keep)
    if not len(row_ids):
        raise DataError(f"no rows left after dropping rows with missing values "
                        f"({raw.n_rows} read)")
    cols = {c: (raw.cells[c] if c in numeric else text[c])[keep] for c in feat_cols}

    # 2. drop duplicated feature columns (identical value sequences), keep
    # first. A category column keys on its sorted distinct values and each
    # cell's code among them
    categories = {c: _codes(cols[c]) for c in feat_cols if c not in numeric}
    kept_cols, seen = [], {}
    for c in feat_cols:
        col = cols[c]
        if c in categories:
            key = (tuple(categories[c][0]), categories[c][1].tobytes())
        else:
            key = col.tobytes() if col.dtype != object else col.astype(str).tobytes()
        if key in seen:
            warnings.warn(f"dropping column {c!r}: duplicate of {seen[key]!r}")
            continue
        seen[key] = c
        kept_cols.append(c)

    # 3. drop duplicated rows (features + label): one integer key per cell,
    # the float64 bit pattern of a number (so -0.0 and 0.0 differ, as their
    # str forms do) or the code of a category
    label_values, label_codes = _codes(text[label_col][keep])
    is_attack = np.array([v not in raw.normal_values for v in label_values], dtype=np.int64)
    labels = is_attack[label_codes]
    keys = np.empty((len(labels), len(kept_cols) + 1), dtype=np.int64)
    for j, c in enumerate(kept_cols):
        keys[:, j] = (cols[c].astype(np.float64, copy=False).view(np.int64) if c in numeric
                      else categories[c][1])
    keys[:, -1] = labels
    row_keep = _first_rows(keys)
    labels = labels[row_keep]
    row_ids = row_ids[row_keep]

    # 4. one-hot encode categoricals, as each row's category code; 5. min-max
    # normalize numerics. The column layout is settled first, then the two
    # parts are filled
    names, scaled, coded = [], [], []
    numeric_idx, onehot_groups, norm_stats = [], {}, {}
    for c in kept_cols:
        if c in numeric:
            col = cols[c][row_keep].astype(np.float64, copy=False)
            lo, hi = float(col.min()), float(col.max())
            if hi == lo:
                warnings.warn(f"dropping constant numeric column {c!r}")
                continue
            numeric_idx.append(len(names))
            norm_stats[c] = (lo, hi)
            scaled.append((col, lo, hi))
            names.append(c)
        else:
            cats, codes = categories[c]
            if len(cats) < 2:
                warnings.warn(f"dropping single-category column {c!r}")
                continue
            start = len(names)
            coded.append(codes[row_keep])
            names.extend(f"{c}={v}" for v in cats)
            onehot_groups[c] = list(range(start, start + len(cats)))

    if not names:
        raise DataError("no usable feature columns after preprocessing")
    values = np.empty((len(labels), len(scaled)))
    for j, (col, lo, hi) in enumerate(scaled):
        values[:, j] = (col - lo) / (hi - lo)
    codes = np.empty((len(labels), len(coded)), np.int64)
    for g, column in enumerate(coded):
        codes[:, g] = column
    return Dataset(numeric=values, codes=codes, labels=labels, feature_names=names,
                   numeric_idx=np.asarray(numeric_idx, dtype=np.int64),
                   onehot_groups=onehot_groups, norm_stats=norm_stats,
                   ids=row_ids)


# ---------------------------------------------------------------------------
# Protocol split


# rows per block of the split's cast to the compute dtype: a float64 copy of
# the whole split would set the peak memory of a large one
_CAST_ROWS = 4096


def _train_stats(ds: Dataset, train_idx):
    """The composed (raw min, raw max) statistics of the numeric columns over
    the training rows, and the ``lo`` and ``span`` that min-max those columns
    as ``(x - lo) / span``; a column constant over them is only shifted."""
    values = ds.numeric[train_idx]
    lo, hi = values.min(axis=0), values.max(axis=0)
    stats = dict(ds.norm_stats)
    for j, name in enumerate(ds.feature_names[k] for k in ds.numeric_idx):
        raw_lo, raw_hi = float(lo[j]), float(hi[j])
        # compose with whatever affine map produced the current values
        if name in stats:
            old_lo, old_hi = stats[name]
            raw_lo, raw_hi = (old_lo + raw_lo * (old_hi - old_lo),
                              old_lo + raw_hi * (old_hi - old_lo))
        stats[name] = (raw_lo, raw_hi)
    return stats, lo, np.where(hi == lo, 1.0, hi - lo)


def _cast_rows(ds: Dataset, idx, lo, span):
    """The numeric block of rows ``idx`` in the compute dtype, min-maxed in
    float64 first, a row block at a time. Raises ``DataError`` naming the
    columns that leave the dtype's finite range."""
    out = np.empty((len(idx), len(ds.numeric_idx)), DTYPE)
    with np.errstate(over="ignore"):
        for i in range(0, len(idx), _CAST_ROWS):
            out[i:i + _CAST_ROWS] = (ds.numeric[idx[i:i + _CAST_ROWS]] - lo) / span
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        names = [ds.feature_names[ds.numeric_idx[j]] for j in np.flatnonzero(~finite)]
        raise DataError(f"protocol_split: feature column(s) {names} hold values beyond "
                        f"{np.dtype(DTYPE).name} range")
    return out


def protocol_split(ds: Dataset, train_fraction_of_normals: float = 0.5,
                   seed: int = 0):
    """Split into (train of normals only, test of held-out normals + attacks).

    Numeric columns are re-normalized with statistics of the training split
    only; because min-max composition is affine, this equals normalizing the
    raw values with train statistics (no test leakage). The statistics and
    the re-normalization are float64; both splits' numeric blocks are then
    cast to the compute dtype, ``nidkit.tensor.DTYPE``, and so are their
    ``features`` when built. The one-hot codes carry over unchanged.
    """
    normal = np.flatnonzero(ds.labels == 0)
    attack = np.flatnonzero(ds.labels == 1)
    if normal.size == 0:
        raise DataError("protocol_split: dataset has no normal samples")
    # NaN in min or max marks a NaN cell; +-inf shows in one of them
    finite = np.isfinite(ds.numeric.min(axis=0)) & np.isfinite(ds.numeric.max(axis=0))
    if not finite.all():
        names = [ds.feature_names[ds.numeric_idx[j]] for j in np.flatnonzero(~finite)]
        raise DataError(f"protocol_split: non-finite values in feature column(s) {names}")
    n_train = int(round(train_fraction_of_normals * normal.size))
    if n_train == 0:
        raise DataError(f"protocol_split: train fraction {train_fraction_of_normals} of "
                        f"{normal.size} normal rows leaves no training rows")
    rng = np.random.default_rng(seed)
    order = rng.permutation(normal)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(np.concatenate([order[n_train:], attack]))

    stats, lo, span = _train_stats(ds, train_idx)

    mk = lambda idx: Dataset(
        numeric=_cast_rows(ds, idx, lo, span), codes=ds.codes[idx], labels=ds.labels[idx],
        feature_names=list(ds.feature_names),
        numeric_idx=ds.numeric_idx.copy(),
        onehot_groups={k: list(v) for k, v in ds.onehot_groups.items()},
        norm_stats=stats, ids=ds.ids[idx])
    return mk(train_idx), mk(test_idx)


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
    codes = np.empty((n_normal + n_attack, len(cat_sizes)), np.int64)
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
        codes[:, g] = np.concatenate([draws_n, draws_a])
        start = d_num + sum(cat_sizes[:g])
        onehot_groups[f"cat{g}"] = list(range(start, start + size))
        names.extend(f"cat{g}={c}" for c in range(size))

    lo = numeric.min(axis=0)
    hi = numeric.max(axis=0)
    for j in range(d_num):
        norm_stats[f"num{j}"] = (float(lo[j]), float(hi[j]))
    numeric = (numeric - lo) / (hi - lo)

    labels = np.concatenate([np.zeros(n_normal, dtype=np.int64),
                             np.ones(n_attack, dtype=np.int64)])
    return Dataset(numeric=numeric, codes=codes, labels=labels, feature_names=names,
                   numeric_idx=np.asarray(numeric_idx, dtype=np.int64),
                   onehot_groups=onehot_groups, norm_stats=norm_stats,
                   ids=np.arange(n_normal + n_attack, dtype=np.int64))


# ---------------------------------------------------------------------------
# Dataset cache


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A handle on a temporary file beside ``path``, renamed over it when the
    block completes: a failed write leaves the previous file and no temporary."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(path, ds: Dataset) -> None:
    """Versioned npz cache of a table's two parts, the numeric block and
    the category codes, with the feature metadata.

    Like ``np.savez``, appends ``.npz`` to a path without it. The archive is
    written through :func:`atomic_write`.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    meta = {
        "feature_names": list(ds.feature_names),
        # pairs, in the order of the codes' columns: a mapping is dumped sorted
        "onehot_groups": [[k, list(map(int, v))] for k, v in ds.onehot_groups.items()],
        "norm_stats": {k: [float(a), float(b)] for k, (a, b) in ds.norm_stats.items()},
    }
    with atomic_write(path, "wb") as fh:
        np.savez(
            fh,
            __version__=np.asarray(DATASET_CACHE_VERSION),
            numeric=ds.numeric,
            codes=ds.codes,
            labels=ds.labels,
            numeric_idx=ds.numeric_idx,
            ids=ds.ids,
            meta=np.frombuffer(yaml.safe_dump(meta).encode(), dtype=np.uint8),
        )


def check_cache(path) -> None:
    """Raise ``DataError`` unless ``path`` holds a nidkit dataset cache of this
    version; reads only the archive's entry names and ``__version__``."""
    try:   # numpy returns a lone .npy array (no context manager), refuses pickles
        with np.load(path, allow_pickle=False) as archive:
            missing = [k for k in _CACHE_ENTRIES if k not in archive.files]
            version = None if "__version__" in missing else int(archive["__version__"])
    except (TypeError, ValueError, zipfile.BadZipFile):
        raise DataError(f"{path} is not a nidkit dataset cache: it is not an npz archive") from None
    if version not in (None, DATASET_CACHE_VERSION):
        raise DataError(f"unsupported dataset cache version {version}; "
                        f"rebuild it with nidkit preprocess")
    if missing:
        raise DataError(f"{path} is not a nidkit dataset cache: it has no {', '.join(missing)}")


def load_dataset(path) -> Dataset:
    check_cache(path)
    with np.load(path, allow_pickle=False) as archive:
        meta = yaml.safe_load(bytes(archive["meta"]).decode())
        return Dataset(
            numeric=archive["numeric"],
            codes=archive["codes"],
            labels=archive["labels"],
            feature_names=list(meta["feature_names"]),
            numeric_idx=archive["numeric_idx"],
            onehot_groups={k: list(v) for k, v in meta["onehot_groups"]},
            norm_stats={k: (v[0], v[1]) for k, v in meta["norm_stats"].items()},
            ids=archive["ids"],
        )
