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
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import nn, threads
from .augment import AugmentationSpec, subset_columns
from .baselines import BASELINES, train_baseline
from .config import (CONFIG_VERSION, ExperimentConfig, encoder_config_for,
                     validate_config)
from .data import (atomic_write, load_csv, load_dataset, load_schema,
                   preprocess, protocol_split, synth_generate)
from .detector import dump_scores, fit_center
from .encoders import build_encoder, representation_dim
from .evaluate import (MetricsReport, aggregate_runs, format_aggregate,
                       format_report, optimal_threshold_metrics)
from .nn import ConfigError
from .ssl_models import MODEL_KINDS, build_model, pretrain, view_count

log = logging.getLogger(__name__)


@dataclass
class RunRecord:
    config_hash: str
    seed: int
    status: str                       # "ok" | "failed"
    stage: Optional[str] = None       # failing stage when status == "failed"
    error: Optional[str] = None
    duration_s: float = 0.0
    checkpoint: Optional[str] = None
    loss_first: Optional[float] = None
    loss_last: Optional[float] = None
    report: Optional[MetricsReport] = None


def load_experiment_dataset(cfg: ExperimentConfig):
    ds_cfg = cfg.dataset
    if "synth" in ds_cfg:
        return synth_generate(**ds_cfg["synth"])
    if "cache" in ds_cfg:
        return load_dataset(ds_cfg["cache"])
    schema = load_schema(ds_cfg["schema"])
    raw, rejects = load_csv(ds_cfg["csv"], schema,
                            max_reject_fraction=float(ds_cfg.get("max_reject_fraction", 0.1)))
    if rejects:
        log.warning("%d malformed rows rejected from %s", len(rejects), ds_cfg["csv"])
    return preprocess(raw)


def _run_ssl(cfg: ExperimentConfig, train, rng, run_dir: Path):
    d = train.n_features
    aug = AugmentationSpec(**cfg.augmentation)
    cols, width = None, d
    numeric_cols, cat_groups = list(train.numeric_idx), train.onehot_groups
    if aug.kind == "subsets":
        cols = subset_columns(d, aug.k, aug.overlap_fraction, rng.permutation(d))
        width = len(cols[0])
        numeric_cols, cat_groups = [], {}  # slices break the one-hot blocks
    enc_cfg = encoder_config_for(cfg.encoder, width, numeric_cols, cat_groups)
    model = build_model(cfg.model, lambda: build_encoder(enc_cfg, rng),
                        representation_dim(enc_cfg), rng,
                        dim=cfg.projection_dim, **cfg.loss_params)
    optimizer = nn.Adam(model, lr=cfg.learning_rate)
    history = pretrain(model, train.features, aug, optimizer,
                       cfg.epochs, cfg.batch_size, rng, columns=cols,
                       log_path=run_dir / "loss.csv")
    detector = fit_center(model.encoder, train.features, subset_columns=cols)
    # what rescoring needs beyond the weights: the centre, and the windows
    # of a subsets run as a (k, width) array
    meta = {"center": detector.center}
    if cols is not None:
        meta["subset_columns"] = cols
    return model, detector.score, [h.total for h in history], meta


def _run_baseline(cfg: ExperimentConfig, train, rng, run_dir: Path):
    cls, loss_fn, score_fn = BASELINES[cfg.model]
    model = cls(train.n_features, rng, **cfg.loss_params)
    optimizer = nn.Adam(model, lr=cfg.learning_rate)
    history = train_baseline(model, train.features, loss_fn, optimizer,
                             cfg.epochs, cfg.batch_size, rng,
                             log_path=run_dir / "loss.csv")
    return model, (lambda feats: score_fn(model, feats)), history, {}


def run_single(cfg: ExperimentConfig, ds, seed: int, run_dir: Path) -> RunRecord:
    """One seeded run; failures are captured with their stage name."""
    run_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    stage = "split"
    try:
        train, test = protocol_split(ds, cfg.train_fraction, seed=seed)
        rng = np.random.default_rng(seed)
        stage = "train"
        if cfg.model in MODEL_KINDS:
            model, score_fn, totals, meta = _run_ssl(cfg, train, rng, run_dir)
        else:
            model, score_fn, totals, meta = _run_baseline(cfg, train, rng, run_dir)
        stage = "score"
        scores = score_fn(test.features)
        stage = "metrics"
        report = optimal_threshold_metrics(scores, test.labels, seed=seed)
        dump_scores(run_dir / "scores.csv", test.ids, scores, test.labels)
        stage = "checkpoint"
        ckpt = run_dir / "checkpoint.npz"
        nn.save_checkpoint(ckpt, model,
                           extra={"config_hash": cfg.hash, "seed": seed, **meta})
        return RunRecord(
            config_hash=cfg.hash, seed=seed, status="ok",
            duration_s=time.perf_counter() - t0, checkpoint=str(ckpt),
            loss_first=totals[0] if totals else None,
            loss_last=totals[-1] if totals else None,
            report=report)
    except Exception as exc:  # recorded, remaining seeds continue
        return RunRecord(config_hash=cfg.hash, seed=seed, status="failed",
                         stage=stage, error=f"{type(exc).__name__}: {exc}",
                         duration_s=time.perf_counter() - t0)


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@lru_cache(maxsize=None)
def _static_env() -> dict:
    """Library versions, numpy's BLAS, the BLAS thread variables and the CPU
    count: fixed for the life of the process."""
    import scipy    # nidkit itself loads scipy only for the FT-transformer's GELU
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict form
        blas = {}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
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
    views = (view_count(AugmentationSpec(**cfg.augmentation))
             if cfg.model in MODEL_KINDS else 1)
    return {**_static_env(), "blas_threads": threads.blas_threads(),
            "row_threads": threads.budget(), "view_threads": min(threads.budget(), views),
            "peak_rss_mb": round(peak, 1)}


def _record_doc(rec: RunRecord, cfg: ExperimentConfig) -> dict:
    doc = {
        "config_hash": rec.config_hash, "seed": rec.seed, "status": rec.status,
        "duration_s": rec.duration_s, "checkpoint": rec.checkpoint,
        "loss_first": rec.loss_first, "loss_last": rec.loss_last,
        "env": _run_env(cfg),
    }
    if rec.status == "failed":
        doc.update(stage=rec.stage, error=rec.error)
    if rec.report is not None:
        doc["metrics"] = {
            "precision": rec.report.precision, "recall": rec.report.recall,
            "f1": rec.report.f1, "auroc": rec.report.auroc,
            "threshold": rec.report.threshold,
        }
    return doc


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
        rec = run_single(cfg, ds, seed, run_dir)
        _write_text(run_dir / "record.yaml", yaml.safe_dump(_record_doc(rec, cfg)))
        records.append(rec)

    reports = [r.report for r in records if r.status == "ok"]
    aggregate = aggregate_runs(reports) if reports else None

    lines = [format_report(r.report) if r.status == "ok"
             else f"run seed={r.seed}: FAILED at {r.stage} ({r.error})"
             for r in records]
    if aggregate is not None:
        lines.append(format_aggregate(aggregate, len(reports)))
    _write_text(exp_dir / "report.txt", "\n".join(lines) + "\n")
    if aggregate is not None:
        # the grid treats a cell as complete once n_runs_ok equals its runs
        _write_text(exp_dir / "aggregate.yaml", yaml.safe_dump({
            "config_hash": cfg.hash, "model": cfg.model,
            "n_runs_ok": len(reports),
            "metrics": {k: [float(m), float(s)] for k, (m, s) in aggregate.items()},
        }))
    return {"dir": exp_dir, "records": records, "aggregate": aggregate}


# ---------------------------------------------------------------------------
# grid execution


def expand_grid(doc: dict) -> list:
    """Cell documents for every model x encoder x augmentation combination."""
    if int(doc.get("version", -1)) != CONFIG_VERSION:
        raise ConfigError(f"grid: unsupported config version {doc.get('version')!r}")
    if "base" not in doc or "grid" not in doc:
        raise ConfigError("grid config needs 'base' and 'grid' sections")
    base, grid = doc["base"], doc["grid"]
    models = grid.get("model") or [base.get("model")]
    encoders = grid.get("encoder") or [base.get("encoder", {"kind": "mlp"})]
    augs = grid.get("augmentation") or [base.get("augmentation")]
    cells = []
    for m in models:
        # a baseline reads neither setting, so it gets one cell without them
        pairs = itertools.product(encoders, augs) if m in MODEL_KINDS else [(None, None)]
        for e, a in pairs:
            cell = deepcopy({k: v for k, v in base.items() if k not in ("encoder", "augmentation")})
            cell.update(version=CONFIG_VERSION, model=m)
            if e is not None:
                cell["encoder"] = {"kind": e} if isinstance(e, str) else dict(e)
            if a is not None:
                cell["augmentation"] = dict(a)
            cells.append(cell)
    return cells


def _cell_label(cell: dict) -> str:
    enc = cell.get("encoder", {}).get("kind", "-")
    aug = (cell.get("augmentation") or {}).get("kind", "-")
    return f"{cell['model']}/{enc}/{aug}"


def _run_cell(args):
    label, cfg = args
    agg_path = Path(cfg.output_dir) / cfg.hash / "aggregate.yaml"
    row = {"cell": label, "model": cfg.model,
           "encoder": cfg.encoder.get("kind", "-"),
           "augmentation": (cfg.augmentation or {}).get("kind", "-"),
           "hash": cfg.hash}
    stored = yaml.safe_load(agg_path.read_text()) if agg_path.exists() else None
    if stored and stored.get("n_runs_ok") == cfg.n_runs:
        row.update(status="cached", metrics=stored["metrics"])
        return row
    try:
        result = run_experiment(cfg)
    except Exception as exc:
        row.update(status="failed", error=f"{type(exc).__name__}: {exc}", metrics=None)
        return row
    if result["aggregate"] is None:
        failures = {r.stage for r in result["records"]}
        row.update(status="failed", error=f"all runs failed at {sorted(failures)}",
                   metrics=None)
    else:
        row.update(status="ok",
                   metrics={k: [float(m), float(s)]
                            for k, (m, s) in result["aggregate"].items()})
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

    scored = [r for r in rows if r.get("metrics")]
    ranking = sorted(scored, key=lambda r: -r["metrics"]["f1"][0])
    best_per_model = {}
    for row in ranking:
        best_per_model.setdefault(row["model"], row)

    out_dir = Path(base_dir) / str(doc["base"].get("output_dir", "runs"))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_grid_report(out_dir, rows, ranking, best_per_model)
    return {"rows": rows, "ranking": ranking, "best_per_model": best_per_model,
            "dir": out_dir}


def _write_grid_report(out_dir: Path, rows, ranking, best_per_model) -> None:
    with atomic_write(out_dir / "grid_report.csv") as fh:
        fh.write("rank,model,encoder,augmentation,hash,status,"
                 "f1_mean,f1_std,auroc_mean,auroc_std\n")
        for rank, row in enumerate(ranking, start=1):
            f1m, f1s = row["metrics"]["f1"]
            aum, aus = row["metrics"]["auroc"]
            fh.write(f"{rank},{row['model']},{row['encoder']},{row['augmentation']},"
                     f"{row['hash']},{row['status']},{f1m!r},{f1s!r},{aum!r},{aus!r}\n")
        failed = [r for r in rows if not r.get("metrics")]
        for row in failed:
            fh.write(f",{row['model']},{row['encoder']},{row['augmentation']},"
                     f"{row['hash']},{row['status']},,,,\n")

    lines = ["best encoder + augmentation per model (by mean F1):"]
    for model, row in best_per_model.items():
        f1m, f1s = row["metrics"]["f1"]
        lines.append(f"  {model}: {row['encoder']} + {row['augmentation']}"
                     f"  f1={f1m:.4f}±{f1s:.4f}")
    lines.append("")
    lines.append("full ranking:")
    for rank, row in enumerate(ranking, start=1):
        f1m, f1s = row["metrics"]["f1"]
        lines.append(f"  {rank:2d}. {row['cell']:40s} f1={f1m:.4f}±{f1s:.4f} [{row['status']}]")
    for row in rows:
        if not row.get("metrics"):
            lines.append(f"   -. {row['cell']:40s} FAILED: {row.get('error', '?')}")
    _write_text(out_dir / "grid_report.txt", "\n".join(lines) + "\n")


def read_report(exp_dir) -> str:
    """Re-print the stored report of an experiment directory."""
    exp_dir = Path(exp_dir)
    path = exp_dir / "report.txt"
    if not path.exists():
        raise FileNotFoundError(f"no report.txt under {exp_dir}")
    return path.read_text().rstrip("\n")
