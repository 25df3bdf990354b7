"""nidkit benchmark: one workload, one seed, one run.

    python3 nidbench/run.py --workload grid-mlp --seed 1 --seconds 25 --trace 0

Run from the repository root. The run imports nidkit from ``src/`` of the
checkout it sits in, sets up the workload's inputs from the seed
(several times, keeping the last), then repeats whole rounds of the
workload until ``--seconds`` have passed, checking every round's output.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced rounds and prints the per-layer metrics,
derived from the spans of the traced rounds, plus the tracing overhead
against the untraced ones; the spans go to ``nidbench/work/``. The last
line of standard output is the JSON result. A failed check prints
``"correct": false`` and exits 1; a checkout without nidkit exits 2.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "nidbench" / "work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def usage_error(message):
    print(f"nidbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_nidkit():
    """Import nidkit from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "nidkit" / "__init__.py").is_file():
        usage_error(f"no nidkit sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import nidkit
    if Path(nidkit.__file__).resolve().parent != (src / "nidkit").resolve():
        usage_error(f"imported nidkit from {nidkit.__file__}, not {src}")


def environment():
    """Thread settings and library versions, as the run saw them."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def rate(tracer, names, rows_of, rounds):
    """Rows over the time inside the spans called ``names`` in ``rounds``."""
    spans = [s for s in tracer.spans if s[0] in names and s[4]["round"] in rounds]
    seconds = sum(s[2] - s[1] for s in spans)
    return sum(rows_of(s) for s in spans) / seconds if seconds > 0 else 0.0


# throughput metric -> (spans it times, rows one span moved)
RATES = {
    "train_samples_per_s": (("ssl_models.pretrain",), lambda s: s[4]["steps"] * s[4]["batch"]),
    "score_rows_per_s": (("detector.score",), lambda s: s[4]["rows"]),
    "ingest_rows_per_s": (("data.load_csv", "data.preprocess"),
                          lambda s: s[4].get("rows_in", 0)),
}


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tracer, results, setup_s, peak_rss_mb):
    # the set-up ingests (negative rounds) and every round after the warm-up
    rounds = {s[4]["round"] for s in tracer.spans} - {0}
    aurocs = [r["auroc"] for r in results if r["auroc"] is not None]
    med = lambda v: statistics.median(v) if v else 0.0
    return {
        "setup_s": setup_s,
        "wall_s": med([r["wall_s"] for r in results]),
        **{name: rate(tracer, names, rows_of, rounds)
           for name, (names, rows_of) in RATES.items()},
        "peak_rss_mb": peak_rss_mb,
        "detect_auroc": med(aurocs),
    }


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_nidkit()
    warnings.simplefilter("ignore")   # preprocess warns on every dropped column
    from nidbench import tracing, workloads
    from nidbench.checks import CheckError
    import_s = time.perf_counter() - T_START

    if args.workload not in workloads.WORKLOADS:
        usage_error(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)}")
    env = environment()
    print("env " + json.dumps(env), flush=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer()
    results, traced = [], []
    attempted = failed = 0
    try:
        setup_times = []
        for rep in range(workload.setup_reps):
            tracer.round = -1 - rep          # setup spans carry negative rounds
            with tracing.instrument(tracer, fine=False):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
        workload.check_setup()
        setup_s = import_s + statistics.median(setup_times)
        print(f"setup: imports {import_s:.3f} s, inputs {setup_times} s", flush=True)

        # round 0 warms the allocator and BLAS buffers up: it is run, checked
        # and counted, but no metric reads its times; three more rounds at
        # least, so every median has three samples
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < 4 or time.perf_counter() < deadline:
            fine = bool(args.trace) and k % 2 == 1
            tracer.round = k
            with tracing.instrument(tracer, fine=fine):
                result = workload.round(k)
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            if k == 0:
                # set-up plus one round. Later rounds raise ru_maxrss by
                # 0-90 MB on encoders-score, differently in every run, while
                # tracemalloc sees the same peak and nothing retained in
                # each round: the allocator's growth, not the program's.
                # The traced run reports that growth as rss_growth_mb.
                peak_rss_mb = max_rss_mb()
            workload.check(result)
            # keep the summary only, so no round's arrays outlive it and
            # inflate the next round's peak memory
            result = {key: result[key] for key in ("wall_s", "attempted", "failed", "auroc")}
            if k > 0:
                (traced if fine else results).append(result)
            print(f"round {k}{' traced' if fine else ''}: wall {result['wall_s']:.4f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed, rates "
                  + json.dumps({n: round(rate(tracer, names, rows_of, {k}))
                                for n, (names, rows_of) in RATES.items()}), flush=True)
            k += 1
    except CheckError as exc:
        print(f"check failed: {exc}", flush=True)
        print(json.dumps({"correct": False, "attempted": attempted or 1,
                          "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"ru_maxrss: {peak_rss_mb:.1f} MB after round 0, {max_rss_mb():.1f} MB at the end")
    if args.trace:
        rounds = set(range(1, k, 2))
        values = tracing.per_layer_metrics(tracer, rounds)
        base = statistics.median(r["wall_s"] for r in results)
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["wall_s"] for r in traced) / base - 1.0)
        values["trace.spans_per_round"] = sum(
            1 for s in tracer.spans if s[4]["round"] in rounds) / len(rounds)
        values["process.rss_growth_mb"] = max_rss_mb() - peak_rss_mb
        trace_path = WORK / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, env)
        print(f"spans written to {trace_path}")
        wanted = bench["per_layer"]
    else:
        values = end_to_end(tracer, results, setup_s, peak_rss_mb)
        wanted = bench["end_to_end"]

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
