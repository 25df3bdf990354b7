"""Experiment execution: config -> split -> train -> detect -> metrics.

Each experiment owns a directory named by its config hash; inside it every
run (seed) gets a subdirectory with checkpoint, score dump, loss log, and a
structured record. Training never sees labels: the split hands the trainers
a bare feature matrix, and labels surface only at the metrics stage.
"""

from __future__ import annotations

import itertools
import logging
import os
import resource
import sys
import time
from copy import deepcopy
from functools import lru_cache
from pathlib import Path

import numpy as np
import yaml

from . import nn, threads
from .augment import AugmentationSpec, subset_columns
from .baselines import BASELINES, train_baseline
from .config import (AXES, CONFIG_VERSION, GRID, TOP, ExperimentConfig,
                     encoder_config_for, section, validate_config)
from .data import (atomic_write, load_csv, load_dataset, load_schema,
                   preprocess, protocol_split, synth_generate)
from .detector import dump_scores, fit_center
from .encoders import build_encoder, representation_dim
from .evaluate import (aggregate_runs, format_aggregate, format_report,
                       optimal_threshold_metrics)
from .nn import ConfigError
from .ssl_models import MODEL_KINDS, build_model, pretrain

log = logging.getLogger(__name__)


def load_experiment_dataset(cfg: ExperimentConfig):
    ds_cfg = cfg.dataset
    if "synth" in ds_cfg:
        return synth_generate(**ds_cfg["synth"])
    if "cache" in ds_cfg:
        return load_dataset(ds_cfg["cache"])
    schema = load_schema(ds_cfg["schema"])
    raw, rejects = load_csv(ds_cfg["csv"], schema,
                            max_reject_fraction=ds_cfg["max_reject_fraction"])
    if rejects:
        log.warning("%d malformed rows rejected from %s", len(rejects), ds_cfg["csv"])
    return preprocess(raw)


def build_run(cfg: ExperimentConfig, train, rng):
    """The untrained model of any run kind, and a subsets run's k column
    windows of equal width (None otherwise). ``rng`` draws the subset
    permutation first, then the encoder(s), then the heads."""
    if cfg.model in BASELINES:
        return BASELINES[cfg.model][0](train.n_features, rng, **cfg.loss_params), None
    d, aug, cols = train.n_features, AugmentationSpec(**cfg.augmentation), None
    enc_cfg = encoder_config_for(cfg.encoder, d, train.numeric_idx, train.onehot_groups)
    if aug.kind == "subsets":   # a window of no layout: slices break the one-hot blocks
        cols = subset_columns(d, aug.k, aug.overlap_fraction, rng.permutation(d))
        enc_cfg = encoder_config_for(cfg.encoder, len(cols[0]))
    model = build_model(cfg.model, lambda: build_encoder(enc_cfg, rng),
                        representation_dim(enc_cfg), rng,
                        dim=cfg.projection_dim, **cfg.loss_params)
    return model, cols


def _train(cfg: ExperimentConfig, model, cols, features, rng, log_path: Path):
    """Train a built run. Returns its scorer (a baseline scores itself, an
    SSL run through the ``Detector`` on its frozen encoder), the per-step
    loss rows and what rescoring needs beyond the weights."""
    optimizer = nn.Adam(model, lr=cfg.learning_rate)
    if cfg.model in BASELINES:
        history = train_baseline(model, features, BASELINES[cfg.model][1], optimizer,
                                 cfg.epochs, cfg.batch_size, rng, log_path=log_path)
        return model, history, {}
    history = pretrain(model, features, AugmentationSpec(**cfg.augmentation), optimizer,
                       cfg.epochs, cfg.batch_size, rng, columns=cols, log_path=log_path)
    detector = fit_center(model.encoder, features, subset_columns=cols)
    meta = {"center": detector.center}
    if cols is not None:
        meta["subset_columns"] = cols
    return detector, history, meta


def run_single(cfg: ExperimentConfig, ds, seed: int, run_dir: Path) -> dict:
    """One seeded run, returned as its ``record.yaml`` document; a failure
    is recorded with its stage name instead of raised."""
    run_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    doc = {"config_hash": cfg.hash, "seed": seed, "status": "ok",
           "checkpoint": None, "loss_first": None, "loss_last": None}
    stage = "split"
    try:
        train, test = protocol_split(ds, cfg.train_fraction, seed=seed)
        rng = np.random.default_rng(seed)
        stage = "train"
        model, cols = build_run(cfg, train, rng)
        scorer, history, meta = _train(cfg, model, cols, train.features, rng, run_dir / "loss.csv")
        stage = "score"
        scores = scorer.score(test.features)
        stage = "metrics"
        metrics = optimal_threshold_metrics(scores, test.labels)
        dump_scores(run_dir / "scores.csv", test.ids, scores, test.labels)
        stage = "checkpoint"
        ckpt = run_dir / "checkpoint.npz"
        # the train split's (min, max) per numeric feature, to normalise raw rows
        norm = {"norm_names": list(train.norm_stats),
                "norm_stats": np.array(list(train.norm_stats.values()), np.float64).reshape(-1, 2)}
        nn.save_checkpoint(ckpt, model, extra={"config_hash": cfg.hash, "seed": seed,
                                               **meta, **norm})
        doc.update(checkpoint=str(ckpt), loss_first=history[0]["total"],
                   loss_last=history[-1]["total"], metrics=metrics)
    except Exception as exc:  # recorded, remaining seeds continue
        doc.update(status="failed", stage=stage, error=f"{type(exc).__name__}: {exc}")
    doc.update(duration_s=time.perf_counter() - t0, env=_run_env(cfg))
    return doc


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@lru_cache(maxsize=None)
def _static_env() -> dict:
    """Library versions, numpy's BLAS, the BLAS thread variables and the CPU
    count: fixed for the life of the process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict form
        blas = {}
    scipy = sys.modules.get("scipy")    # recorded once imported: no nidkit op runs it
    return {"numpy": np.__version__, **({"scipy": scipy.__version__} if scipy else {}),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {v: os.environ.get(v) for v in _THREAD_VARIABLES},
            "cpu_count": os.cpu_count()}


def _run_env(cfg: ExperimentConfig) -> dict:
    """The settings a run executed under: the thread plan in force (BLAS
    threads read back from the library, None without its control; the
    threads an SSL step runs its views on, 1 for a baseline) and the
    process's peak RSS so far."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB; bytes on macOS
    peak /= 2.0 ** (20 if sys.platform == "darwin" else 10)
    views = AugmentationSpec(**cfg.augmentation).n_views if cfg.model in MODEL_KINDS else 1
    return {**_static_env(), "blas_threads": threads.blas_threads(),
            "row_threads": threads.budget(), "view_threads": min(threads.budget(), views),
            "peak_rss_mb": round(peak, 1)}


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute all seeded runs of one experiment and write its artifacts."""
    exp_dir = Path(cfg.output_dir) / cfg.hash
    exp_dir.mkdir(parents=True, exist_ok=True)
    # the hashed document with the dataset paths this run read
    _write_text(exp_dir / "config.yaml", yaml.safe_dump({**cfg.document, "dataset": cfg.dataset}))
    ds = load_experiment_dataset(cfg)

    records = []
    for i in range(cfg.n_runs):
        seed = cfg.base_seed + i
        run_dir = exp_dir / f"run{seed}"
        records.append(run_single(cfg, ds, seed, run_dir))
        _write_text(run_dir / "record.yaml", yaml.safe_dump(records[-1]))

    ok = [r for r in records if r["status"] == "ok"]
    aggregate = aggregate_runs([r["metrics"] for r in ok]) if ok else None

    lines = [format_report(r["seed"], r["metrics"]) if r["status"] == "ok"
             else f"run seed={r['seed']}: FAILED at {r['stage']} ({r['error']})"
             for r in records]
    if aggregate is not None:
        lines.append(format_aggregate(aggregate, len(ok)))
    _write_text(exp_dir / "report.txt", "\n".join(lines) + "\n")
    if aggregate is None:
        # an earlier run's aggregate would mark this cell complete
        (exp_dir / "aggregate.yaml").unlink(missing_ok=True)
    else:
        # the grid treats a cell as complete once n_runs_ok equals its runs
        _write_text(exp_dir / "aggregate.yaml", yaml.safe_dump({
            "config_hash": cfg.hash, "model": cfg.model,
            "n_runs_ok": len(ok), "metrics": aggregate}))
    return {"dir": exp_dir, "records": records, "aggregate": aggregate}


# ---------------------------------------------------------------------------
# grid execution


def expand_grid(doc: dict) -> list:
    """Cell documents for every model x encoder x augmentation combination.
    The base holds experiment keys; ``validate_config`` checks each cell."""
    doc = section(doc, GRID, "a grid", "grid")
    if doc["version"] != CONFIG_VERSION:
        raise ConfigError(f"grid: unsupported config version {doc['version']!r}")
    base = doc["base"]
    section(base, dict.fromkeys(TOP), "the base", "grid")
    grid = section(doc["grid"], AXES, "the grid section", "grid")
    models = grid["model"] or [base.get("model")]
    encoders = grid["encoder"] or [base.get("encoder", TOP["encoder"])]
    augs = grid["augmentation"] or [base.get("augmentation")]
    cells = []
    for m in models:
        # a baseline reads neither setting, so it gets one cell without them
        pairs = itertools.product(encoders, augs) if m in MODEL_KINDS else [(None, None)]
        for e, a in pairs:
            cell = deepcopy({k: v for k, v in base.items() if k not in ("encoder", "augmentation")})
            cell.update(version=CONFIG_VERSION, model=m)
            if e is not None:
                cell["encoder"] = {"kind": e} if isinstance(e, str) else deepcopy(e)
            if a is not None:
                cell["augmentation"] = deepcopy(a)
            cells.append(cell)
    return cells


def _cell_label(cell: dict) -> str:
    enc, aug = (s.get("kind", "-") if isinstance(s, dict) else "-"
                for s in (cell.get("encoder"), cell.get("augmentation")))
    return f"{cell['model']}/{enc}/{aug}"


def _run_cell(args):
    """One grid cell as a report row. A cell is ``cached`` or ``ok`` only
    when every run succeeded; ``partial`` when some did, ``failed`` when
    none did."""
    label, cfg = args
    agg_path = Path(cfg.output_dir) / cfg.hash / "aggregate.yaml"
    row = {"cell": label, "model": cfg.model,
           "encoder": cfg.encoder.get("kind", "-"),
           "augmentation": (cfg.augmentation or {}).get("kind", "-"),
           "hash": cfg.hash, "runs": cfg.n_runs, "n_runs_ok": 0, "metrics": None}
    stored = yaml.safe_load(agg_path.read_text()) if agg_path.exists() else None
    if stored and stored.get("n_runs_ok") == cfg.n_runs:
        row.update(status="cached", n_runs_ok=cfg.n_runs, metrics=stored["metrics"])
        return row
    try:
        result = run_experiment(cfg)
    except Exception as exc:
        row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        return row
    failed = [r for r in result["records"] if r["status"] == "failed"]
    row["n_runs_ok"] = cfg.n_runs - len(failed)
    if failed:
        row["error"] = (f"{len(failed)} of {cfg.n_runs} run(s) failed at "
                        f"{sorted({r['stage'] for r in failed})}")
    if result["aggregate"] is None:
        row["status"] = "failed"
    else:
        row.update(status="partial" if failed else "ok", metrics=result["aggregate"])
    return row


def run_grid(doc: dict, base_dir=".", workers: int = 1) -> dict:
    """Run every grid cell (skipping those whose runs all succeeded before)
    and rank the results.

    Every cell is validated before any runs; one ``ConfigError`` names each
    invalid cell. Cells are independent; with workers > 1 they execute in
    separate processes, each still fully deterministic given its config and
    seeds, and each with a budget of ``threads.share(workers)`` CPUs for its
    row and BLAS threads.
    """
    args, bad = [], []
    for cell in expand_grid(doc):
        label = _cell_label(cell)
        try:
            args.append((label, validate_config(cell, base_dir=base_dir, source=label)))
        except ConfigError as exc:
            bad.append(str(exc))
    if bad:
        raise ConfigError(f"grid: {len(bad)} invalid cell(s): " + "; ".join(bad))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=threads.plan,
                                 initargs=(threads.share(workers),)) as pool:
            rows = list(pool.map(_run_cell, args))
    else:
        rows = [_run_cell(a) for a in args]

    scored = [r for r in rows if r["metrics"]]
    ranking = sorted(scored, key=lambda r: -r["metrics"]["f1"][0])
    best_per_model = {}
    for row in ranking:
        best_per_model.setdefault(row["model"], row)

    out_dir = args[0][1].output_dir   # the base's, so every cell's
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_grid_report(out_dir, rows, ranking, best_per_model)
    return {"rows": rows, "ranking": ranking, "best_per_model": best_per_model,
            "dir": out_dir}


def _write_grid_report(out_dir: Path, rows, ranking, best_per_model) -> None:
    """Ranked cells, then unscored ones with empty rank and metric fields,
    each with its n_runs_ok / runs."""
    keys = ("model", "encoder", "augmentation", "hash", "status", "n_runs_ok", "runs")
    unscored = [("", r) for r in rows if not r["metrics"]]
    with atomic_write(out_dir / "grid_report.csv") as fh:
        fh.write(",".join(("rank", *keys, "f1_mean", "f1_std", "auroc_mean", "auroc_std")) + "\n")
        for rank, row in [*enumerate(ranking, start=1), *unscored]:
            metrics = row["metrics"]
            stats = [*metrics["f1"], *metrics["auroc"]] if metrics else [""] * 4
            fh.write(",".join(map(str, [rank, *(row[k] for k in keys), *stats])) + "\n")

    def tag(row):
        return f"[{row['status']} {row['n_runs_ok']}/{row['runs']}]"

    lines = ["best encoder + augmentation per model (by mean F1):"]
    for model, row in best_per_model.items():
        f1m, f1s = row["metrics"]["f1"]
        lines.append(f"  {model}: {row['encoder']} + {row['augmentation']}"
                     f"  f1={f1m:.4f}±{f1s:.4f} {tag(row)}")
    lines += ["", "full ranking:"]
    for rank, row in enumerate(ranking, start=1):
        f1m, f1s = row["metrics"]["f1"]
        lines.append(f"  {rank:2d}. {row['cell']:40s} f1={f1m:.4f}±{f1s:.4f} {tag(row)}")
    for row in rows:
        if row["status"] not in ("ok", "cached"):
            lines.append(f"   -. {row['cell']:40s} {row['status'].upper()}: {row['error']}")
    _write_text(out_dir / "grid_report.txt", "\n".join(lines) + "\n")


def read_report(exp_dir) -> str:
    """Re-print the stored report of an experiment directory."""
    exp_dir = Path(exp_dir)
    path = exp_dir / "report.txt"
    if not path.exists():
        raise FileNotFoundError(f"no report.txt under {exp_dir}")
    return path.read_text().rstrip("\n")
