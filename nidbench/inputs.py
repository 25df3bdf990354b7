"""Workload inputs, generated from the run's seed with their own bookkeeping.

Two generators:

* ``write_synth_csv`` writes a ``synth_generate`` table as a CSV (numeric
  columns as ``repr`` floats, the two categorical columns as strings) with a
  matching schema, so the model workloads build their dataset cache through
  the real ``load_csv`` -> ``preprocess`` path.
* ``write_unsw_csv`` writes a table in the ``schemas/unsw_nb15.yaml`` layout
  with known numbers of duplicate rows, malformed rows, rows with a missing
  cell and one constant column, and returns what ingest must produce.
"""

from __future__ import annotations

import csv

import numpy as np
import yaml


def write_synth_csv(path, schema_path, ds):
    """CSV + schema for a Dataset whose categorical blocks are one-hot groups."""
    num_names = [ds.feature_names[j] for j in ds.numeric_idx]
    groups = sorted(ds.onehot_groups)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(num_names + groups + ["label"])
        num = ds.features[:, ds.numeric_idx]
        cats = [np.argmax(ds.features[:, ds.onehot_groups[g]], axis=1) for g in groups]
        for i in range(ds.n_rows):
            writer.writerow([repr(float(v)) for v in num[i]]
                            + [f"v{c[i]}" for c in cats] + [str(int(ds.labels[i]))])
    columns = {n: "numeric" for n in num_names}
    columns.update({g: "categorical" for g in groups})
    with open(schema_path, "w") as fh:
        yaml.safe_dump({"version": 1, "label": {"column": "label", "normal_values": ["0"]},
                        "columns": columns}, fh, sort_keys=False)


# ---------------------------------------------------------------------------
# UNSW-NB15 layout

# Records per class in the two published UNSW-NB15 partitions the schema
# maps, together (Moustafa & Slay, Information Security Journal 25(1-3),
# 2016): 93,000 normal and 164,673 attacks in nine categories.
NORMAL_RECORDS = 93000
ATTACK_RECORDS = {"Generic": 58871, "Exploits": 44525, "Fuzzers": 24246, "DoS": 16353,
                  "Reconnaissance": 13987, "Analysis": 2677, "Backdoor": 2329,
                  "Shellcode": 1511, "Worms": 174}
ATTACK_FRACTION = sum(ATTACK_RECORDS.values()) / (NORMAL_RECORDS + sum(ATTACK_RECORDS.values()))

# Levels per categorical column: proto 133, service 13, state 11, the counts
# behind the 196-column one-hot width (39 numeric + 157) reported for these
# partitions. The shares of the common levels are rounded estimates; the
# other 127 proto levels split the rest evenly and carry placeholder names.
_PROTO_HEAD = {"tcp": 0.46, "udp": 0.36, "unas": 0.07, "arp": 0.016, "ospf": 0.015,
               "sctp": 0.007}
CATEGORIES = {
    "proto": {**_PROTO_HEAD, **{f"proto{i}": (1.0 - sum(_PROTO_HEAD.values())) / 127
                                for i in range(127)}},
    "service": {"-": 0.537, "dns": 0.27, "http": 0.107, "smtp": 0.029, "ftp-data": 0.023,
                "ftp": 0.02, "ssh": 0.0074, "pop3": 0.0063, "dhcp": 0.0005, "snmp": 0.0005,
                "ssl": 0.0003, "irc": 0.0001, "radius": 0.0001},
    "state": {"INT": 0.47, "FIN": 0.44, "CON": 0.075, "REQ": 0.011, "RST": 0.0005,
              "ECO": 0.0001, "PAR": 1e-5, "URN": 1e-5, "no": 1e-5, "ACC": 1e-5,
              "CLO": 1e-5},
}
CONSTANT_COLUMN = "is_sm_ips_ports"
# counters and flags: written as integers; every other numeric column is a
# continuous float, which keeps accidental duplicate rows out
INTEGER_COLUMNS = {"spkts", "dpkts", "sbytes", "dbytes", "sttl", "dttl", "swin",
                   "dwin", "trans_depth", "ct_srv_src", "ct_state_ttl", "ct_dst_ltm",
                   "ct_src_dport_ltm", "ct_dst_sport_ltm", "ct_dst_src_ltm",
                   "is_ftp_login", "ct_ftp_cmd", "ct_flw_http_mthd", "ct_src_ltm",
                   "ct_srv_dst"}

ATTACK_SHIFT = 3.0    # attack rows shift every log-scale numeric column by this
# the defects are planted to reach every reject and drop path of ingest;
# their rates are the benchmark's choice, not figures of the dataset
UNSW_SHAPE = {"rows": 40000, "duplicates": 400, "missing": 400,
              "short_rows": 200, "non_numeric": 200}


def write_unsw_csv(path, schema, seed, shape=UNSW_SHAPE):
    """Write the CSV; return the bookkeeping ingest is checked against.

    The header is ``id``, the schema's columns in order, ``attack_cat`` and
    ``label``. Row order is shuffled, so the injected rows sit anywhere.
    """
    rng = np.random.default_rng(seed)
    n_bad = shape["short_rows"] + shape["non_numeric"]
    n_clean = shape["rows"] - shape["duplicates"] - shape["missing"] - n_bad
    n_gen = n_clean + shape["missing"]           # rows with distinct values
    labels = (rng.random(n_gen) < ATTACK_FRACTION).astype(np.int64)
    attack = labels == 1

    numeric = [c for c, k in schema.columns.items() if k == "numeric"]
    values, text = {}, {}
    for name in numeric:
        if name == CONSTANT_COLUMN:
            values[name] = np.zeros(n_gen)
        else:
            mu, sigma = rng.normal(2.0, 1.0), rng.uniform(0.5, 1.5)
            shift = rng.choice((-1.0, 1.0)) * ATTACK_SHIFT
            col = np.exp(rng.normal(mu, sigma, n_gen) + shift * attack)
            values[name] = np.round(col) if name in INTEGER_COLUMNS else col
        if name in INTEGER_COLUMNS or name == CONSTANT_COLUMN:
            text[name] = [str(v) for v in values[name].astype(np.int64).tolist()]
        else:
            text[name] = repr(values[name].tolist())[1:-1].split(", ")
    # normal rows draw each categorical column from its shares; attack rows
    # from an even mix of the shares and a uniform draw, so the rare levels
    # come mostly from attacks
    cats = {}
    for name, shares in CATEGORIES.items():
        levels, p_norm = list(shares), np.array(list(shares.values()))
        p_norm /= p_norm.sum()
        p_att = 0.5 * p_norm + 0.5 / len(levels)
        draw_n = rng.choice(len(levels), size=n_gen, p=p_norm)
        draw_a = rng.choice(len(levels), size=n_gen, p=p_att)
        cats[name] = np.where(attack, draw_a, draw_n)
        text[name] = [levels[c] for c in cats[name].tolist()]
    att_names, att_counts = list(ATTACK_RECORDS), np.array(list(ATTACK_RECORDS.values()))
    kind = rng.choice(len(att_names), size=n_gen, p=att_counts / att_counts.sum())
    text["attack_cat"] = [att_names[k] if a else "Normal"
                          for k, a in zip(kind.tolist(), attack.tolist())]
    text["label"] = [str(v) for v in labels.tolist()]

    continuous = [c for c in numeric if c not in INTEGER_COLUMNS and c != CONSTANT_COLUMN]
    missing = rng.choice(n_gen, size=shape["missing"], replace=False)
    for i in missing:
        text[continuous[rng.integers(len(continuous))]][i] = ""
    clean = np.setdiff1d(np.arange(n_gen), missing)

    # (source row, defect): duplicates repeat a clean row exactly; malformed
    # rows are a clean row one field short (no ``dur``) or with a non-number
    # in a continuous column
    records = [(i, None) for i in range(n_gen)]
    records += [(i, None) for i in rng.choice(clean, size=shape["duplicates"], replace=False)]
    records += [(clean[rng.integers(len(clean))], "short") for _ in range(shape["short_rows"])]
    records += [(clean[rng.integers(len(clean))], continuous[rng.integers(len(continuous))])
                for _ in range(shape["non_numeric"])]

    # fields are numbers and bare words, so rows are joined without quoting
    body = [*schema.columns, "attack_cat", "label"]
    order = rng.permutation(len(records))
    source = [records[r][0] for r in order]
    cols = [np.asarray(text[h], dtype=object)[source] for h in body]
    short = []
    for pos, r in enumerate(order):
        defect = records[r][1]
        if defect == "short":
            short.append(pos)
        elif defect is not None:
            cols[body.index(defect)][pos] = "1.5.2"
    lines = [",".join(fields) for fields in zip(*cols)]
    for pos in short:
        lines[pos] = ",".join(c[pos] for c in cols[1:])
    with open(path, "w") as fh:
        fh.write(",".join(["id", *body]) + "\n")
        fh.writelines(f"{i},{line}\n" for i, line in enumerate(lines, start=1))

    kept = {n: values[n][clean] for n in numeric}
    kept = {n: v for n, v in kept.items() if v.min() != v.max()}
    return {
        "rows_in": len(records),
        "rejects": n_bad,
        "rows_out": len(clean),
        "attacks": int(labels[clean].sum()),
        "numeric_minmax": {n: (float(v.min()), float(v.max())) for n, v in kept.items()},
        "width": len(kept) + sum(len(np.unique(cats[n][clean])) for n in CATEGORIES),
        "onehot_groups": sorted(CATEGORIES),
    }
