"""Command-line interface.

Verbs:
  validate-config  parse + validate a config, print its content hash
  preprocess       CSV + schema -> cleaned dataset cache (npz)
  run              execute one experiment config
  grid             execute a model x encoder x augmentation grid
  report           re-print a finished experiment's report
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import DATASET, load_config, validate_config
from .data import load_csv, load_schema, preprocess, save_dataset
from .runner import read_report, run_experiment, run_grid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nidkit",
        description="self-supervised anomaly detection experiments on "
                    "tabular network traffic")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate-config", help="check a config file")
    p.add_argument("config", type=Path)

    p = sub.add_parser("preprocess", help="build a dataset cache from CSV")
    p.add_argument("--csv", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--max-reject-fraction", type=float,
                   default=DATASET["csv"]["max_reject_fraction"])

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("config", type=Path)
    p.add_argument("--output-dir", type=Path, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("grid", help="run a grid of experiments")
    p.add_argument("config", type=Path)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("report", help="print a stored experiment report")
    p.add_argument("exp_dir", type=Path)
    return parser


def _apply_overrides(doc: dict, args) -> dict:
    if args.output_dir is not None:
        doc["output_dir"] = str(args.output_dir)
    if args.runs is not None:
        doc["runs"] = args.runs
    if args.seed is not None:
        doc["base_seed"] = args.seed
    return doc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "validate-config":
            cfg = validate_config(load_config(args.config),
                                  base_dir=args.config.parent,
                                  source=str(args.config))
            print(f"ok {cfg.hash}")
            return 0

        if args.verb == "preprocess":
            schema = load_schema(args.schema)
            raw, rejects = load_csv(args.csv, schema,
                                    max_reject_fraction=args.max_reject_fraction)
            ds = preprocess(raw)
            save_dataset(args.out, ds)
            print(f"wrote {args.out}: {ds.n_rows} rows x {ds.n_features} features, "
                  f"{int(ds.labels.sum())} attacks, {len(rejects)} rows rejected")
            return 0

        if args.verb == "run":
            doc = _apply_overrides(load_config(args.config), args)
            cfg = validate_config(doc, base_dir=args.config.parent,
                                  source=str(args.config))
            result = run_experiment(cfg)
            print(read_report(result["dir"]))
            print(f"artifacts: {result['dir']}")
            return 0 if all(r["status"] == "ok" for r in result["records"]) else 1

        if args.verb == "grid":
            doc = load_config(args.config)
            result = run_grid(doc, base_dir=args.config.parent,
                              workers=args.workers)
            print((result["dir"] / "grid_report.txt").read_text().rstrip("\n"))
            return 0 if all(r["status"] in ("ok", "cached") for r in result["rows"]) else 1

        if args.verb == "report":
            print(read_report(args.exp_dir))
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
