import csv
import io
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nidkit import cli, data, threads
from nidkit.data import (DataError, Dataset, RawTable, SchemaError,
                         load_csv, load_dataset, load_schema, preprocess,
                         protocol_split, save_dataset, synth_generate)
from oracles import auroc_bruteforce, load_csv_rowwise, preprocess_rowwise

SCHEMA_YAML = """\
version: 1
label:
  column: label
  normal_values: [normal, benign]
columns:
  dur: numeric
  bytes: numeric
  proto: categorical
drop: [id]
"""


def _write_schema(tmp_path, text=SCHEMA_YAML):
    path = tmp_path / "schema.yaml"
    path.write_text(text)
    return load_schema(path)


def _write_csv(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# schema + CSV ingestion


def test_load_schema_fields(tmp_path):
    schema = _write_schema(tmp_path)
    assert schema.label_column == "label"
    assert schema.normal_values == {"normal", "benign"}
    assert schema.columns == {"dur": "numeric", "bytes": "numeric",
                              "proto": "categorical"}
    assert schema.drop == ["id"]


def test_load_schema_rejects_bad_version_and_kind(tmp_path):
    with pytest.raises(SchemaError):
        _write_schema(tmp_path, SCHEMA_YAML.replace("version: 1", "version: 2"))
    with pytest.raises(SchemaError):
        _write_schema(tmp_path, SCHEMA_YAML.replace("numeric", "float"))


MALFORMED_SCHEMAS = [
    (SCHEMA_YAML.replace("[normal, benign]", "normal"), "label.normal_values"),
    (SCHEMA_YAML.replace("  normal_values: [normal, benign]\n", ""), "label.normal_values"),
    (SCHEMA_YAML.replace("label:\n  column: label\n  normal_values: [normal, benign]",
                         "label: label"), "'label'"),
    (SCHEMA_YAML.replace("columns:\n  dur: numeric\n  bytes: numeric\n  proto: categorical",
                         "columns: [dur, bytes, proto]"), "'columns'"),
]


@pytest.mark.parametrize("text,key", MALFORMED_SCHEMAS,
                         ids=["normal_values_string", "no_normal_values", "label_string",
                              "columns_list"])
def test_load_schema_names_the_malformed_key(tmp_path, text, key):
    with pytest.raises(SchemaError, match=re.escape(key)):
        _write_schema(tmp_path, text)


@pytest.mark.parametrize("drop", ["extra", "{extra: 1}", "[[extra]]"])
def test_load_schema_refuses_a_drop_that_is_not_a_list_of_names(tmp_path, drop):
    # a string would be read letter by letter, and the header check would
    # then blame the CSV's columns
    with pytest.raises(SchemaError, match="'drop' must be a list"):
        _write_schema(tmp_path, SCHEMA_YAML.replace("drop: [id]", f"drop: {drop}"))


def test_cli_preprocess_exits_2_on_a_malformed_schema(tmp_path, capsys):
    (tmp_path / "schema.yaml").write_text(MALFORMED_SCHEMAS[0][0])
    path = _write_csv(tmp_path, "id,dur,bytes,proto,label\n1,0.5,100,tcp,normal\n")
    assert cli.main(["preprocess", "--csv", str(path), "--schema", str(tmp_path / "schema.yaml"),
                     "--out", str(tmp_path / "flows.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "label.normal_values" in err
    assert not (tmp_path / "flows.npz").exists()


def test_load_csv_parses_and_drops_columns(tmp_path):
    schema = _write_schema(tmp_path)
    path = _write_csv(tmp_path, (
        "id,dur,bytes,proto,label\n"
        "1,0.5,100,tcp,normal\n"
        "2,1.5,300,udp,dos\n"))
    table, rejects = load_csv(path, schema)
    assert rejects == []
    assert table.n_rows == 2
    assert "id" not in table.columns
    np.testing.assert_allclose(table.cells["dur"], [0.5, 1.5])
    assert list(table.cells["proto"]) == ["tcp", "udp"]
    assert table.kinds["label"] == "label"
    assert table.normal_values == {"normal", "benign"}


def test_schema_normal_values_label_the_rows(tmp_path):
    text = SCHEMA_YAML.replace("[normal, benign]", '["BENIGN"]')
    schema = _write_schema(tmp_path, text)
    path = _write_csv(tmp_path, (
        "id,dur,bytes,proto,label\n"
        "1,0.5,100,tcp,BENIGN\n"
        "2,1.5,300,udp,DoS\n"
        "3,2.5,200,tcp,BENIGN\n"
        "4,3.5,400,udp,DoS\n"))
    raw, _ = load_csv(path, schema)
    np.testing.assert_array_equal(preprocess(raw).labels, [0, 1, 0, 1])


def test_load_csv_reject_report_is_hand_countable(tmp_path):
    schema = _write_schema(tmp_path)
    # 8 data rows; rows 4 and 7 (file line numbers 5 and 8) are malformed
    lines = ["id,dur,bytes,proto,label"]
    for i in range(1, 9):
        if i == 4:
            lines.append(f"{i},oops,100,tcp,normal")        # non-numeric dur
        elif i == 7:
            lines.append(f"{i},1.0,100,tcp")                # missing field
        else:
            lines.append(f"{i},1.0,{100 + i},tcp,normal")
    path = _write_csv(tmp_path, "\n".join(lines) + "\n")
    table, rejects = load_csv(path, schema, max_reject_fraction=0.5)
    assert table.n_rows == 6
    assert [r["row"] for r in rejects] == [5, 8]
    assert "non-numeric" in rejects[0]["reason"]
    assert "fields" in rejects[1]["reason"]


def test_load_csv_rejects_name_the_file_line_a_record_starts_on(tmp_path):
    schema = _write_schema(tmp_path, SCHEMA_YAML.replace("  bytes: numeric\n", ""))
    # the first record's quoted field holds a newline, so it spans lines 2-3
    path = _write_csv(tmp_path, (
        "dur,proto,label\n"
        '1.0,"tc\np",normal\n'
        "2.0,udp,normal\n"
        "oops,udp,normal\n"))
    table, rejects = load_csv(path, schema, max_reject_fraction=0.5)
    assert list(table.cells["proto"]) == ["tc\np", "udp"]
    assert rejects == [{"row": 5, "reason": "non-numeric value 'oops' in column 'dur'"}]
    # the reject fraction counts records (1 of 3), not lines (1 of 4)
    with pytest.raises(DataError, match="1/3 rows rejected"):
        load_csv(path, schema, max_reject_fraction=0.3)


def test_load_csv_reject_fraction_threshold(tmp_path):
    schema = _write_schema(tmp_path)
    path = _write_csv(tmp_path, (
        "id,dur,bytes,proto,label\n"
        "1,bad,100,tcp,normal\n"
        "2,1.0,100,tcp,normal\n"))  # 1/2 rejected exceeds 10% default
    with pytest.raises(DataError):
        load_csv(path, schema)
    table, rejects = load_csv(path, schema, max_reject_fraction=0.5)
    assert table.n_rows == 1 and len(rejects) == 1


def test_load_csv_header_mismatch_and_missing_file(tmp_path):
    schema = _write_schema(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", schema)
    path = _write_csv(tmp_path, "id,dur,bytes,label\n1,1.0,2,normal\n")
    with pytest.raises(SchemaError):
        load_csv(path, schema)  # proto missing
    path = _write_csv(tmp_path, "id,dur,bytes,proto,extra,label\n", name="b.csv")
    with pytest.raises(SchemaError):
        load_csv(path, schema)  # unknown column


def test_load_csv_rejects_non_finite_values(tmp_path):
    schema = _write_schema(tmp_path)
    path = _write_csv(tmp_path, (
        "id,dur,bytes,proto,label\n"
        "1,0.5,100,tcp,normal\n"
        "2,inf,300,udp,dos\n"
        "3,1.5,-Infinity,tcp,normal\n"
        "4,oops,inf,tcp,normal\n"
        "5,nan,200,udp,dos\n"
        "6,2.5,1e400,udp,dos\n"))
    table, rejects = load_csv(path, schema, max_reject_fraction=0.9)
    assert rejects == [
        {"row": 3, "reason": "non-finite value 'inf' in column 'dur'"},
        {"row": 4, "reason": "non-finite value '-Infinity' in column 'bytes'"},
        {"row": 5, "reason": "non-numeric value 'oops' in column 'dur'"},
        {"row": 7, "reason": "non-finite value '1e400' in column 'bytes'"},
    ]
    assert table.n_rows == 2
    assert np.isnan(table.cells["dur"][1])   # a literal nan is a missing value


def test_load_csv_rejects_duplicate_header_names(tmp_path):
    schema = _write_schema(tmp_path)
    path = _write_csv(tmp_path, "id,dur,bytes,dur,proto,label\n1,0.5,100,9.5,tcp,normal\n")
    with pytest.raises(SchemaError, match="duplicate column name.*'dur'"):
        load_csv(path, schema)


# ---------------------------------------------------------------------------
# preprocessing


def _raw(columns, kinds, cells, normal_values=("normal", "Normal")):
    return RawTable(columns=columns, kinds=kinds,
                    cells={k: np.array(v, dtype=(np.float64 if kinds[k] == "numeric" else object))
                           for k, v in cells.items()},
                    normal_values=set(normal_values))


def _dataset_as_raw(ds):
    """A Dataset as a RawTable (all numeric + label), to re-run preprocessing."""
    cells = {name: ds.features[:, j].copy() for j, name in enumerate(ds.feature_names)}
    kinds = {name: "numeric" for name in ds.feature_names}
    cells["label"] = np.array(["attack" if y else "normal" for y in ds.labels], dtype=object)
    kinds["label"] = "label"
    return RawTable(columns=list(ds.feature_names) + ["label"], kinds=kinds, cells=cells,
                    normal_values={"normal"})


def test_preprocess_basic_pipeline():
    raw = _raw(
        ["a", "proto", "label"],
        {"a": "numeric", "proto": "categorical", "label": "label"},
        {"a": [0.0, 5.0, 10.0, 5.0],
         "proto": ["udp", "tcp", "udp", "icmp"],
         "label": ["normal", "dos", "Normal", "probe"]},
    )
    ds = preprocess(raw)
    assert ds.feature_names == ["a", "proto=icmp", "proto=tcp", "proto=udp"]
    np.testing.assert_allclose(ds.features[:, 0], [0.0, 0.5, 1.0, 0.5])
    np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])
    assert ds.onehot_groups == {"proto": [1, 2, 3]}
    assert ds.norm_stats["a"] == (0.0, 10.0)
    # one-hot rows are exactly one-of-k
    np.testing.assert_allclose(ds.features[:, 1:].sum(axis=1), 1.0)


def test_preprocess_drops_nan_rows():
    raw = _raw(
        ["a", "label"], {"a": "numeric", "label": "label"},
        {"a": [1.0, np.nan, 3.0], "label": ["normal", "normal", "dos"]},
    )
    ds = preprocess(raw)
    assert ds.n_rows == 2
    np.testing.assert_array_equal(ds.ids, [0, 2])


def test_preprocess_drops_duplicate_columns_and_rows():
    raw = _raw(
        ["a", "b", "label"],
        {"a": "numeric", "b": "numeric", "label": "label"},
        {"a": [1.0, 2.0, 1.0, 2.0], "b": [1.0, 2.0, 1.0, 2.0],
         "label": ["normal", "dos", "normal", "dos"]},
    )
    with pytest.warns(UserWarning, match="duplicate"):
        ds = preprocess(raw)
    assert ds.feature_names == ["a"]   # b duplicated a
    assert ds.n_rows == 2              # rows 2,3 duplicated rows 0,1
    np.testing.assert_array_equal(ds.ids, [0, 1])


def test_preprocess_keeps_same_features_with_conflicting_labels():
    raw = _raw(
        ["a", "label"], {"a": "numeric", "label": "label"},
        {"a": [1.0, 1.0, 2.0], "label": ["normal", "dos", "normal"]},
    )
    ds = preprocess(raw)
    assert ds.n_rows == 3  # dedup key includes the label


def test_preprocess_drops_constant_and_single_category_columns():
    raw = _raw(
        ["a", "c", "proto", "label"],
        {"a": "numeric", "c": "numeric", "proto": "categorical", "label": "label"},
        {"a": [1.0, 2.0, 3.0], "c": [7.0, 7.0, 7.0],
         "proto": ["tcp", "tcp", "tcp"],
         "label": ["normal", "dos", "normal"]},
    )
    with pytest.warns(UserWarning):
        ds = preprocess(raw)
    assert ds.feature_names == ["a"]


def test_preprocess_is_idempotent():
    ds = synth_generate(60, 40, d=12, separation=2.0, seed=3)
    again = preprocess(_dataset_as_raw(ds))
    np.testing.assert_allclose(again.features, ds.features, atol=1e-12)
    np.testing.assert_array_equal(again.labels, ds.labels)


def test_preprocess_empty_result_raises():
    raw = _raw(["a", "label"], {"a": "numeric", "label": "label"},
               {"a": [7.0, 7.0], "label": ["normal", "dos"]})
    with pytest.warns(UserWarning):
        with pytest.raises(DataError):
            preprocess(raw)


def test_preprocess_all_rows_missing_raises_data_error():
    raw = _raw(["a", "proto", "label"],
               {"a": "numeric", "proto": "categorical", "label": "label"},
               {"a": [np.nan, 1.0, np.nan], "proto": ["tcp", "", "udp"],
                "label": ["normal", "dos", "normal"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # fails before any column is dropped
        with pytest.raises(DataError, match="no rows left .* missing values"):
            preprocess(raw)


# ---------------------------------------------------------------------------
# protocol split


def test_split_partition_and_label_purity():
    ds = synth_generate(100, 50, d=11, separation=1.0, seed=4)
    train, test = protocol_split(ds, train_fraction_of_normals=0.5, seed=0)
    assert np.all(train.labels == 0)
    assert train.n_rows == 50
    assert test.n_rows == 100  # 50 held-out normals + 50 attacks
    assert set(train.ids) & set(test.ids) == set()
    assert set(train.ids) | set(test.ids) == set(ds.ids.tolist())


def test_split_determinism_and_seed_sensitivity():
    ds = synth_generate(80, 20, d=10, separation=1.0, seed=5)
    a1 = protocol_split(ds, seed=7)[0]
    a2 = protocol_split(ds, seed=7)[0]
    b = protocol_split(ds, seed=8)[0]
    np.testing.assert_array_equal(a1.ids, a2.ids)
    assert a1.features.tobytes() == a2.features.tobytes()
    assert not np.array_equal(a1.ids, b.ids)


def test_split_renormalizes_with_train_statistics_only():
    ds = synth_generate(100, 30, d=12, separation=3.0, seed=6)
    train, test = protocol_split(ds, seed=1)
    for j in ds.numeric_idx:
        col = train.features[:, j]
        assert col.min() == pytest.approx(0.0, abs=1e-12)
        assert col.max() == pytest.approx(1.0, abs=1e-12)
        # composed stats map raw values to the train scale: recover raw via
        # the original dataset stats, re-map via the split stats
        name = ds.feature_names[j]
        lo0, hi0 = ds.norm_stats[name]
        raw = lo0 + ds.features[:, j] * (hi0 - lo0)
        lo1, hi1 = train.norm_stats[name]
        expected = (raw - lo1) / (hi1 - lo1)
        got = np.concatenate([train.features[:, j], test.features[:, j]])
        reordered = np.concatenate([expected[np.searchsorted(ds.ids, train.ids)],
                                    expected[np.searchsorted(ds.ids, test.ids)]])
        np.testing.assert_allclose(got, reordered, atol=1e-10)


def test_split_owns_its_arrays_and_leaves_the_dataset_unchanged():
    # the split renormalises its features in place
    ds = synth_generate(100, 30, d=12, separation=3.0, seed=6)
    before = ds.features.copy()
    train, test = protocol_split(ds, seed=1)
    np.testing.assert_array_equal(ds.features, before)
    for field in ("features", "labels", "ids"):
        mine, theirs = getattr(train, field), getattr(test, field)
        assert not np.shares_memory(mine, getattr(ds, field))
        assert not np.shares_memory(theirs, getattr(ds, field))
        assert not np.shares_memory(mine, theirs)


def test_split_ignores_test_rows_for_statistics():
    # sentinel: blowing up an attack row (always lands in test) must leave
    # the training features bit-identical
    ds = synth_generate(60, 10, d=10, separation=1.0, seed=9)
    train_before, _ = protocol_split(ds, seed=2)
    tampered = Dataset(numeric=ds.numeric.copy(), codes=ds.codes, labels=ds.labels,
                       feature_names=ds.feature_names, numeric_idx=ds.numeric_idx,
                       onehot_groups=ds.onehot_groups, norm_stats=ds.norm_stats,
                       ids=ds.ids)
    attack_row = int(np.flatnonzero(ds.labels == 1)[0])
    tampered.numeric[attack_row] = 1e6
    train_after, test_after = protocol_split(tampered, seed=2)
    assert train_before.features.tobytes() == train_after.features.tobytes()
    assert test_after.features[:, ds.numeric_idx].max() > 1e5


def test_split_rejects_non_finite_features():
    ds = synth_generate(60, 10, d=10, separation=1.0, seed=9)
    ds.numeric[5, 1] = np.inf
    ds.numeric[7, 2] = np.nan
    with pytest.raises(DataError, match=r"non-finite values in feature column\(s\) "
                                        r"\['num1', 'num2'\]"):
        protocol_split(ds)


def test_split_rejects_values_beyond_float32_range():
    # finite in float64, inf once cast: numeric cells far outside the
    # training range, in attack rows, which the test split holds
    ds = synth_generate(60, 10, d=10, separation=1.0, seed=9)
    attacks = np.flatnonzero(ds.labels == 1)
    ds.numeric[attacks[0], 2] = -1e200
    ds.numeric[attacks[1], 1] = 1e300
    with pytest.raises(DataError, match=r"feature column\(s\) \['num1', 'num2'\] hold "
                                        r"values beyond float32 range"):
        protocol_split(ds)


@pytest.mark.parametrize("row, col, value, group", [
    (7, 8, np.nan, "cat1"),       # a NaN in cat1=2
    (3, 4, 1e200, "cat0"),        # a huge cell in cat0=1
    (0, None, 0.0, "cat0"),       # a row of cat0 with no 1.0
])
def test_dense_constructor_rejects_a_broken_one_hot_group(row, col, value, group):
    ds = synth_generate(60, 10, d=10, separation=1.0, seed=9)
    features = ds.features.copy()
    features[row, ds.onehot_groups[group] if col is None else col] = value
    with pytest.raises(DataError, match=f"one-hot group '{group}' does not hold exactly one"):
        Dataset(features=features, labels=ds.labels, feature_names=ds.feature_names,
                numeric_idx=ds.numeric_idx, onehot_groups=ds.onehot_groups,
                norm_stats=ds.norm_stats, ids=ds.ids)


def test_dense_constructor_needs_each_column_in_the_layout_once():
    ds = synth_generate(20, 5, d=10, separation=1.0, seed=9)
    for numeric_idx in (ds.numeric_idx[1:], np.append(ds.numeric_idx, 3)):
        with pytest.raises(DataError, match="each feature column once"):
            Dataset(features=ds.features, labels=ds.labels, feature_names=ds.feature_names,
                    numeric_idx=numeric_idx, onehot_groups=ds.onehot_groups,
                    norm_stats=ds.norm_stats, ids=ds.ids)


@pytest.mark.parametrize("block_rows", [7, 4096])
def test_split_features_are_the_float64_renormalisation_cast_to_float32(monkeypatch,
                                                                         block_rows):
    monkeypatch.setattr(data, "_CAST_ROWS", block_rows)
    ds = synth_generate(100, 30, d=12, separation=3.0, seed=6)
    ds.numeric[ds.labels == 0, 2] = 0.25       # constant on the train rows: only shifted
    train, test = protocol_split(ds, seed=1)
    parts = [ds.features[np.searchsorted(ds.ids, p.ids)] for p in (train, test)]
    for j in ds.numeric_idx:
        lo, hi = parts[0][:, j].min(), parts[0][:, j].max()
        for part in parts:
            part[:, j] = part[:, j] - lo if hi == lo else (part[:, j] - lo) / (hi - lo)
    assert train.features.dtype == test.features.dtype == np.float32
    assert train.features.tobytes() == parts[0].astype(np.float32).tobytes()
    assert test.features.tobytes() == parts[1].astype(np.float32).tobytes()
    assert np.any(test.features[:, 2] != 0.0)


def test_split_rejects_a_fraction_that_leaves_no_training_rows():
    ds = synth_generate(100, 10, d=10, separation=1.0, seed=9)
    with pytest.raises(DataError, match="leaves no training rows"):
        protocol_split(ds, train_fraction_of_normals=0.001)
    assert protocol_split(ds, train_fraction_of_normals=0.01)[0].n_rows == 1


def test_split_requires_normals():
    ds = synth_generate(5, 5, d=10, separation=1.0, seed=10)
    all_attacks = Dataset(features=ds.features, labels=np.ones_like(ds.labels),
                          feature_names=ds.feature_names, numeric_idx=ds.numeric_idx,
                          onehot_groups=ds.onehot_groups, norm_stats=ds.norm_stats,
                          ids=ds.ids)
    with pytest.raises(DataError):
        protocol_split(all_attacks)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_shapes_and_encoding():
    ds = synth_generate(30, 20, d=13, separation=2.0, seed=11)
    assert ds.features.shape == (50, 13)
    assert ds.labels.sum() == 20
    np.testing.assert_array_equal(ds.ids, np.arange(50))
    assert len(ds.numeric_idx) == 6
    num = ds.features[:, ds.numeric_idx]
    assert num.min() == pytest.approx(0.0, abs=1e-12)
    assert num.max() == pytest.approx(1.0, abs=1e-12)
    for group in ds.onehot_groups.values():
        np.testing.assert_allclose(ds.features[:, group].sum(axis=1), 1.0)


def _raw_numeric(ds):
    """Undo the min-max map so distances live on the generator's scale."""
    raw = ds.features[:, ds.numeric_idx].copy()
    for k, j in enumerate(ds.numeric_idx):
        lo, hi = ds.norm_stats[ds.feature_names[j]]
        raw[:, k] = lo + raw[:, k] * (hi - lo)
    return raw


def test_synth_separation_controls_difficulty():
    # score = raw-space distance to the mean of normal rows; a crude
    # detector, but enough to verify the separation knob
    def auroc_at(sep):
        ds = synth_generate(300, 150, d=15, separation=sep, seed=12)
        raw = _raw_numeric(ds)
        center = raw[ds.labels == 0].mean(axis=0)
        scores = np.linalg.norm(raw - center, axis=1)
        return auroc_bruteforce(scores, ds.labels)

    assert abs(auroc_at(0.0) - 0.5) < 0.05
    assert auroc_at(6.0) > 0.99


def test_synth_determinism_and_validation():
    a = synth_generate(20, 10, d=10, separation=1.0, seed=13)
    b = synth_generate(20, 10, d=10, separation=1.0, seed=13)
    assert a.features.tobytes() == b.features.tobytes()
    with pytest.raises(ValueError):
        synth_generate(10, 10, d=9, separation=1.0)
    with pytest.raises(ValueError):
        synth_generate(10, 10, d=10, separation=-1.0)


# ---------------------------------------------------------------------------
# cache


def test_dataset_cache_roundtrip(tmp_path):
    ds = synth_generate(25, 15, d=11, separation=2.0, seed=14)
    path = tmp_path / "cache.npz"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.features.tobytes() == ds.features.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.feature_names == ds.feature_names
    assert back.onehot_groups == ds.onehot_groups
    assert back.norm_stats == ds.norm_stats
    np.testing.assert_array_equal(back.ids, ds.ids)


def test_dataset_cache_version_gate(tmp_path):
    # every cache written before the two-part format is version 1
    ds = synth_generate(5, 5, d=10, separation=1.0, seed=15)
    path = tmp_path / "cache.npz"
    save_dataset(path, ds)
    data = dict(np.load(path, allow_pickle=False))
    for version in (1, 99):
        data["__version__"] = np.asarray(version)
        np.savez(path, **data)
        with pytest.raises(DataError, match=f"^unsupported dataset cache version {version}; "
                                            f"rebuild it with nidkit preprocess$"):
            load_dataset(path)


def test_a_foreign_npz_is_not_a_dataset_cache(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, features=np.zeros((3, 2)), labels=np.zeros(3))
    with pytest.raises(DataError, match="is not a nidkit dataset cache: it has no __version__, "
                                        "numeric, codes, numeric_idx, ids, meta$"):
        load_dataset(path)


def test_a_file_that_is_not_an_npz_is_not_a_dataset_cache(tmp_path):
    # np.load reads a lone array, fails on a broken zip, and refuses anything
    # else as pickled data
    np.save(tmp_path / "array.npy", np.zeros(3))
    save_dataset(tmp_path / "cache.npz", synth_generate(40, 10, d=12, separation=2.0, seed=0))
    (tmp_path / "cut.npz").write_bytes((tmp_path / "cache.npz").read_bytes()[:60])
    (tmp_path / "text.npz").write_text("dur,label\n")
    for path in (tmp_path / "array.npy", tmp_path / "cut.npz", tmp_path / "text.npz"):
        with pytest.raises(DataError, match="is not a nidkit dataset cache: it is not an npz"):
            load_dataset(path)


def test_ingest_cache_and_split_never_build_the_dense_matrix(tmp_path):
    pre = preprocess(_raw(["a", "proto", "label"],
                          {"a": "numeric", "proto": "categorical", "label": "label"},
                          {"a": [0.0, 5.0, 10.0], "proto": ["udp", "tcp", "udp"],
                           "label": ["normal", "dos", "normal"]}))
    ds = synth_generate(40, 10, d=12, separation=2.0, seed=16)
    save_dataset(tmp_path / "cache.npz", ds)
    back = load_dataset(tmp_path / "cache.npz")
    parts = protocol_split(back, seed=1)
    assert [p for p in (pre, ds, back, *parts) if "features" in vars(p)] == []
    assert back.features.tobytes() == ds.features.tobytes()


def test_dataset_cache_keeps_wide_groups_and_their_order(tmp_path):
    # a 130-category group listed before a narrower one whose name sorts first
    rng = np.random.default_rng(17)
    n, widths = 300, {"proto": 130, "flag": 3}
    codes = np.stack([rng.integers(w, size=n) for w in widths.values()], axis=1)
    codes[:130, 0] = np.arange(130)
    starts = np.cumsum([2, *widths.values()])
    ds = Dataset(numeric=rng.uniform(size=(n, 2)), codes=codes,
                 labels=rng.integers(2, size=n), ids=np.arange(n),
                 feature_names=["a", "b"] + [f"{g}={c}" for g, w in widths.items()
                                             for c in range(w)],
                 numeric_idx=np.array([0, 1]), norm_stats={"a": (0.0, 1.0), "b": (0.0, 1.0)},
                 onehot_groups={g: list(range(s, s + w))
                                for (g, w), s in zip(widths.items(), starts)})
    save_dataset(tmp_path / "cache.npz", ds)
    back = load_dataset(tmp_path / "cache.npz")
    assert list(back.onehot_groups.items()) == list(ds.onehot_groups.items())
    for field in ("numeric", "codes", "labels", "ids"):
        mine, theirs = getattr(back, field), getattr(ds, field)
        assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape,
                                                            theirs.tobytes())
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.features[np.arange(n), 2 + codes[:, 0]].all()


def test_dataset_cache_write_is_atomic(tmp_path):
    before = synth_generate(25, 15, d=11, separation=2.0, seed=14)
    path = tmp_path / "cache.npz"
    save_dataset(path, before)

    class WriteFails:
        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    after = synth_generate(30, 10, d=12, separation=2.0, seed=15)
    after.ids = WriteFails()   # written after the numeric block, codes and labels
    with pytest.raises(OSError, match="disk full"):
        save_dataset(path, after)
    assert [p.name for p in tmp_path.iterdir()] == ["cache.npz"]
    back = load_dataset(path)
    assert back.features.tobytes() == before.features.tobytes()
    np.testing.assert_array_equal(back.ids, before.ids)


def test_dataset_cache_appends_npz_suffix(tmp_path):
    ds = synth_generate(5, 5, d=10, separation=1.0, seed=15)
    save_dataset(tmp_path / "cache", ds)
    assert [p.name for p in tmp_path.iterdir()] == ["cache.npz"]


def test_shipped_dataset_schemas_load():
    from pathlib import Path

    root = Path(__file__).parent.parent / "schemas"
    for name in ("unsw_nb15.yaml", "5g_nidd.yaml"):
        schema = load_schema(root / name)
        assert schema.label_column
        assert schema.normal_values
        assert "categorical" in schema.columns.values()


# ---------------------------------------------------------------------------
# columnar ingest against the row-by-row oracle

DIFF_SCHEMA = """\
version: 1
label:
  column: label
  normal_values: [BENIGN]
columns:
  n0: numeric
  n1: numeric
  n2: numeric
  n3: numeric
  c0: categorical
  c1: categorical
  c2: categorical
drop: [id]
"""
NUMBERS = ["0.0", "-0.0", "0", "1.5", " 2 ", "3", "-7.25", "1e3", "1_0", "nan", "4"]
ODD_NUMBERS = ["", "  ", "abc", "1.5.2", "1,5", "inf", "-Infinity", "1e400"]
CATEGORIES = ["tcp", "udp", "a,b", " icmp ", "x y", '"q"', ""]
LABELS = ["BENIGN", "DoS", "Probe", " BENIGN", ""]


def _random_csv(path, rng, plain=False):
    r"""A small CSV in the DIFF_SCHEMA layout with every defect ingest handles.

    Cells come from small pools, so rows repeat; some repeats change the
    attack label or the sign of a zero. Columns may be constant, hold one
    category, or copy another column; rows may be short or long. A
    ``plain`` file holds no cell that needs quotes; its lines end in a mix
    of ``\n``, ``\r\n`` and ``\r``, some are blank, and the last may
    have no line break.
    """
    if plain:
        pick = lambda pool: _pick(rng, [v for v in pool if "," not in v and '"' not in v])
    else:
        pick = lambda pool: _pick(rng, pool)
    odd = rng.uniform(0.0, 0.15)
    constant, single = rng.random() < 0.3, rng.random() < 0.3
    copy_n, copy_c = rng.random() < 0.3, rng.random() < 0.3
    rows = []
    for i in range(int(rng.integers(1, 40))):
        if rows and rng.random() < 0.25:
            row = list(rows[rng.integers(len(rows))])
            if rng.random() < 0.5:
                row[-1] = pick(LABELS)
            if row[1] in ("0.0", "-0.0") and rng.random() < 0.5:
                row[1] = "-0.0" if row[1] == "0.0" else "0.0"
        else:
            nums = [pick(ODD_NUMBERS if rng.random() < odd else NUMBERS) for _ in range(4)]
            cats = [pick(CATEGORIES[:-1] if rng.random() > odd else CATEGORIES)
                    for _ in range(3)]
            row = ["", *nums, *cats, pick(LABELS)]
            if constant:
                row[3] = "5"
            if single:
                row[6] = "tcp"
            if copy_n:
                row[4] = row[2]
            if copy_c:
                row[7] = row[5]
        row[0] = str(i)
        shape = rng.random()
        if shape < 0.04:
            row = row[:-1]
        elif shape < 0.08:
            row = row + ["extra"]
        rows.append(row)
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n" if plain else "\r\n")
    writer.writerow(["id", "n0", "n1", "n2", "n3", "c0", "c1", "c2", "label"])
    writer.writerows(rows)
    text = text.getvalue()
    if plain:
        lines = []
        for line in text.split("\n")[:-1]:
            lines += [line, ""] if rng.random() < 0.05 else [line]
        text = "".join(line + _pick(rng, ["\n", "\r\n", "\r"]) for line in lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _pick(rng, pool):
    return pool[rng.integers(len(pool))]


def _table_fields(raw):
    cells = {c: (v.dtype.str, v.tobytes() if v.dtype != object
                 else [(type(x), x) for x in v.tolist()])
             for c, v in raw.cells.items()}
    return raw.columns, raw.kinds, raw.normal_values, cells


def _dataset_fields(ds):
    return (ds.features.dtype.str, ds.features.shape, ds.features.flags.c_contiguous,
            ds.features.tobytes(), ds.labels.dtype.str, ds.labels.tolist(),
            ds.feature_names, ds.numeric_idx.dtype.str, ds.numeric_idx.tolist(),
            ds.onehot_groups, ds.norm_stats, ds.ids.dtype.str, ds.ids.tolist())


def _outcome(step, *args):
    """What ``step`` returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = step(*args)
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _compare_preprocess(raw):
    new, new_warnings = _outcome(preprocess, raw)
    ref, ref_warnings = _outcome(preprocess_rowwise, raw)
    assert new_warnings == ref_warnings
    if isinstance(ref, Dataset):
        assert _dataset_fields(new) == _dataset_fields(ref)
    else:
        assert new == ref
    return ref


@pytest.mark.parametrize("seed", range(90))
def test_columnar_ingest_matches_the_row_by_row_oracle(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    if seed % 3:   # several batches per file, cut at varied rows
        monkeypatch.setattr(data, "_CHUNK_ROWS", 1 + seed % 7)
    schema = _write_schema(tmp_path, DIFF_SCHEMA)
    path = tmp_path / "flows.csv"
    _random_csv(path, rng, plain=seed >= 60)
    if b'"' not in path.read_bytes():   # 2-4 byte ranges, parsed in processes
        monkeypatch.setattr(data, "_RANGE_BYTES", 1)
        monkeypatch.setattr(threads, "cpus", lambda: 2 + seed % 3)

    new, _ = _outcome(load_csv, path, schema, 0.5)
    assert multiprocessing.active_children() == []
    ref, _ = _outcome(load_csv_rowwise, path, schema, 0.5)
    if not isinstance(ref, tuple) or len(ref) != 2 or not isinstance(ref[0], RawTable):
        assert new == ref
        return
    (raw, rejects), (ref_raw, ref_rejects) = new, ref
    assert rejects == ref_rejects
    assert _table_fields(raw) == _table_fields(ref_raw)
    _compare_preprocess(raw)

    # a hand-built table may mark a missing category with None
    if raw.n_rows:
        cells = dict(raw.cells, c0=raw.cells["c0"].copy())
        cells["c0"][rng.integers(raw.n_rows)] = None
        _compare_preprocess(RawTable(raw.columns, raw.kinds, cells, raw.normal_values))


def _ranged_csv(ending):
    """A DIFF_SCHEMA file whose records include short rows and blank lines,
    lines ended by ``ending``, the last one without a line break."""
    lines = ["id,n0,n1,n2,n3,c0,c1,c2,label"]
    for i in range(40):
        if i % 5 == 1:
            lines.append(f"{i},1,2,3,4,tcp,udp,BENIGN")            # short row
        elif i % 7 == 3:
            lines.append("")
        elif i % 11 == 6:
            lines.append(f"{i},1,oops,3,4,tcp,udp,x y,DoS")         # bad number
        else:
            lines.append(f"{i},{i}.5,-0.0,{i % 3},1e3,tcp,udp,x y,{LABELS[i % 3]}")
    return ending.join(lines)


def test_ranges_start_on_any_record_and_leave_no_process(tmp_path, monkeypatch):
    schema = _write_schema(tmp_path, DIFF_SCHEMA)
    path = tmp_path / "flows.csv"
    monkeypatch.setattr(data, "_RANGE_BYTES", 1)
    first_records = set()
    for ending in ("\r\n", "\n"):
        text = _ranged_csv(ending)
        path.write_bytes(text.encode())
        ref = load_csv_rowwise(path, schema, 0.5)
        for budget in (2, 3, 4):
            monkeypatch.setattr(threads, "cpus", lambda: budget)
            with open(path, "rb") as fh:
                cuts = data._cuts(fh, len(text), budget)
            assert len(cuts) == budget + 1
            first_records |= {text[cut:].split(ending)[0].count(",") for cut in cuts[1:-1]}
            raw, rejects = load_csv(path, schema, 0.5)
            assert multiprocessing.active_children() == []
            assert rejects == ref[1]
            assert _table_fields(raw) == _table_fields(ref[0])
            with pytest.raises(DataError, match="rows rejected"):
                load_csv(path, schema, 0.1)
            assert multiprocessing.active_children() == []
    assert {0, 7, 8} <= first_records    # blank lines, short rows and full rows

    # each range holds at least _RANGE_BYTES, whatever the CPU count
    with open(path, "rb") as fh:
        monkeypatch.setattr(data, "_RANGE_BYTES", len(text) // 3)
        assert len(data._cuts(fh, len(text), 8)) == 4
        monkeypatch.setattr(data, "_RANGE_BYTES", len(text) // 2 + 1)
        assert data._cuts(fh, len(text), 8) == [0, len(text)]


def test_cli_preprocess_of_a_small_csv_starts_no_process_pool(tmp_path):
    schema = tmp_path / "schema.yaml"
    schema.write_text(DIFF_SCHEMA)
    path = tmp_path / "flows.csv"
    path.write_text(_ranged_csv("\n"))
    script = (
        "import sys\n"
        "from nidkit import cli\n"
        f"assert cli.main(['preprocess', '--csv', {str(path)!r}, '--schema', {str(schema)!r},\n"
        f"                 '--out', {str(tmp_path / 'flows.npz')!r}, '--max-reject-fraction', '0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent.futures.process')))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
