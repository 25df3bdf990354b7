"""Spans around nidkit's public functions, recorded from outside the package.

A ``Tracer`` keeps every span in memory as ``[name, start, end, parent,
attrs]``; ``parent`` is the index of the enclosing span or -1, and
``attrs["round"]`` names the workload round the span belongs to. Wrappers
are installed by ``instrument`` for the duration of a ``with`` block and
put the original attributes back on exit. Two levels exist:

* ``fine=False`` installs only the meters the end-to-end metrics need: a
  few coarse calls per round (pretrain, Detector.score, load_csv, ...), so
  the untraced run pays two clock reads per call.
* ``fine=True`` adds a span at every layer boundary a per-layer metric
  names, down to each tape ``backward`` and each Cholesky factorisation.

A function that another module imported by name is patched at every
binding site: patching ``nidkit.ssl_models.pretrain`` alone would not
change the object ``nidkit.runner.pretrain`` already holds.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from nidkit import data, detector, encoders, nn, runner, ssl_models, tensor

ENCODER_KIND = {encoders.MLPEncoder: "mlp", encoders.CNNEncoder: "cnn",
                encoders.FTTransformerEncoder: "ft_transformer"}
BASELINE_KIND = {"Autoencoder": "autoencoder", "DeepSVDD": "deep_svdd"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.round = 0

    def open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           dict(attrs, round=self.round)])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield parent, self.spans[parent]
            parent = self.spans[parent][3]

    def in_rounds(self, rounds):
        return [(i, s) for i, s in enumerate(self.spans) if s[4]["round"] in rounds]

    def write(self, path, env):
        doc = {"env": env, "fields": ["name", "start", "end", "parent", "attrs"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _encoder_kind(module):
    return ENCODER_KIND.get(type(module), type(module).__name__)


def _model_key(model):
    return f"{model.kind}-{_encoder_kind(model.encoder)}"


def _wrap(tracer, fn, name, attrs, post):
    """A stand-in for ``fn`` that records one span per call.

    ``attrs(args)`` gives the attributes known at entry; ``post(out,
    span_attrs)`` adds the ones read off the result.
    """
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, attrs(args) if attrs else {})
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if post is not None:
            post(out, tracer.spans[idx][4])
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def _trainer_attrs(args):
    # pretrain and train_baseline both take (model, features, _, optimizer,
    # epochs, batch_size, rng); every caller passes batch_size positionally
    model = args[0]
    kind = (_model_key(model) if hasattr(model, "encoder")
            else BASELINE_KIND[type(model).__name__])
    return {"model": kind, "batch": args[5]}


def _set_steps(out, attrs):
    attrs["steps"] = len(out)       # one history entry per training step


def _set_rows(out, attrs):
    attrs["rows"] = len(out)


def _set_csv_counts(out, attrs):
    raw, rejects = out
    attrs["rows_in"] = raw.n_rows + len(rejects)
    attrs["rejects"] = len(rejects)


def _set_rows_out(out, attrs):
    attrs["rows_out"] = out.n_rows


# (owner, attribute, span name, attrs at entry, attrs from the result)
COARSE_SITES = [
    (ssl_models, "pretrain", "ssl_models.pretrain", _trainer_attrs, _set_steps),
    (runner, "pretrain", "ssl_models.pretrain", _trainer_attrs, _set_steps),
    (runner, "train_baseline", "baselines.train", _trainer_attrs, _set_steps),
    (detector.Detector, "score", "detector.score",
     lambda a: {"e": _encoder_kind(a[0].encoder)}, _set_rows),
    (data, "load_csv", "data.load_csv", None, _set_csv_counts),
    (data, "preprocess", "data.preprocess", None, _set_rows_out),
]

FINE_SITES = [
    (tensor, "backward", "tensor.backward", lambda a: {"tape": tensor.tape_length()}, None),
    (tensor, "cholesky", "tensor.cholesky", None, None),
    (tensor, "triangular_solve", "tensor.triangular_solve", None, None),
    (nn.Adam, "step", "nn.adam_step", None, None),
    (nn, "save_checkpoint", "nn.save_checkpoint", None, None),
    (ssl_models, "make_views", "augment.make_views", lambda a: {"kind": a[1].kind}, None),
    (ssl_models, "train_step", "ssl_models.train_step", lambda a: {"me": _model_key(a[0])}, None),
    (ssl_models.SSLModel, "compute_loss", "ssl_models.compute_loss",
     lambda a: {"model": a[0].kind}, None),
    (ssl_models, "ema_update", "ssl_models.ema_update", None, None),
    (detector.Detector, "fit", "detector.fit", lambda a: {"e": _encoder_kind(a[0].encoder)}, None),
    (runner, "dump_scores", "detector.dump_scores", None, None),
    (runner, "optimal_threshold_metrics", "evaluate.metrics", None, None),
    (runner, "validate_config", "config.validate", None, None),
    (runner, "run_grid", "runner.run_grid", None, None),
    (runner, "run_experiment", "runner.run_experiment", None, None),
    (runner, "run_single", "runner.run_single", lambda a: {"cell": a[0].model}, None),
    (data, "save_dataset", "data.save_dataset", None, None),
    (data, "load_dataset", "data.load_dataset", None, None),
    (runner, "load_dataset", "data.load_dataset", None, None),
    (data, "protocol_split", "data.protocol_split", None, None),
    (runner, "protocol_split", "data.protocol_split", None, None),
] + [(cls, "forward", "encoders.forward", lambda a: {"e": _encoder_kind(a[0])}, None)
     for cls in ENCODER_KIND]


@contextmanager
def instrument(tracer, fine):
    """Install the wrappers; on exit put every original attribute back."""
    saved = []
    try:
        for owner, attr, name, attrs, post in COARSE_SITES + (FINE_SITES if fine else []):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, attrs, post))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Derived numbers


def self_time(tracer, idx):
    """Span duration less the part of it its direct children cover."""
    span = tracer.spans[idx]
    covered = sum(c[2] - c[1] for c in tracer.spans if c[3] == idx)
    return span[2] - span[1] - covered


# How a metric's samples combine: medians per call for ``*_ms`` times and
# per-step counts, totals per round for ``*_s`` times, call counts and rows.
_AGGREGATE = {
    "median_ms": lambda v, n: 1e3 * statistics.median(v),
    "median": lambda v, n: statistics.median(v),
    "per_round": lambda v, n: sum(v) / n,
    "per_round_ms": lambda v, n: 1e3 * sum(v) / n,
    "rate": lambda v, n: sum(r for r, _ in v) / sum(t for _, t in v),
}


def per_layer_metrics(tracer, rounds):
    """{metric: value} over the traced ``rounds`` for every layer reached."""
    samples, kinds = defaultdict(list), {}

    def add(metric, kind, value):
        samples[metric].append(value)
        kinds[metric] = kind

    def enclosing(i, names):
        return next((s for _, s in tracer.ancestors(i) if s[0] in names), None)

    spans = tracer.in_rounds(rounds)
    encoder_in_loss = defaultdict(float)
    for i, (name, t0, t1, _, attrs) in spans:
        if name == "encoders.forward":
            loss = next((j for j, s in tracer.ancestors(i)
                         if s[0] == "ssl_models.compute_loss"), None)
            if loss is not None:
                encoder_in_loss[loss] += t1 - t0

    for i, (name, t0, t1, _, attrs) in spans:
        dur = t1 - t0
        step = enclosing(i, ("ssl_models.train_step",))
        if name == "tensor.backward" and step:
            add(f"tensor.tape_ops_per_step.{step[4]['me']}", "median", attrs["tape"])
            add(f"tensor.backward_ms.{step[4]['me']}", "median_ms", dur)
        elif name in ("tensor.cholesky", "tensor.triangular_solve"):
            add(f"{name}_ms", "per_round_ms", dur)
            if name == "tensor.cholesky":
                add("tensor.cholesky_calls", "per_round", 1)
        elif name == "nn.adam_step" and step:
            add(f"nn.adam_step_ms.{step[4]['me']}", "median_ms", dur)
        elif name in ("nn.save_checkpoint", "detector.dump_scores") or (
                name.startswith("data.") and name not in ("data.load_csv", "data.preprocess")):
            add(f"{name}_s", "per_round", dur)
        elif name == "augment.make_views":
            add(f"augment.make_views_ms.{attrs['kind']}", "median_ms", dur)
        elif name == "encoders.forward":
            under_detector = enclosing(i, ("detector.fit", "detector.score"))
            mode = "forward_nograd_ms" if under_detector else "forward_ms"
            add(f"encoders.{mode}.{attrs['e']}", "median_ms", dur)
        elif name == "ssl_models.train_step":
            add(f"ssl_models.train_step_ms.{attrs['me']}", "median_ms", dur)
        elif name == "ssl_models.compute_loss":
            add(f"ssl_models.loss_ms.{attrs['model']}", "median_ms",
                dur - encoder_in_loss[i])
        elif name == "ssl_models.ema_update":
            add("ssl_models.ema_ms", "median_ms", dur)
        elif name == "baselines.train":
            add(f"baselines.train_s.{attrs['model']}", "per_round", dur)
        elif name == "detector.fit":
            add(f"detector.fit_s.{attrs['e']}", "per_round", dur)
        elif name == "detector.score":
            add(f"detector.score_rows_per_s.{attrs['e']}", "rate", (attrs["rows"], dur))
        elif name in ("evaluate.metrics", "config.validate"):
            add(f"{name}_ms", "median_ms", dur)
        elif name == "runner.run_single":
            add(f"runner.run_single_s.{attrs['cell']}", "per_round", dur)
            add("runner.self_s", "per_round", self_time(tracer, i))
        elif name.startswith("runner."):
            add("runner.self_s", "per_round", self_time(tracer, i))
        elif name == "data.load_csv":
            add("data.load_csv_s", "per_round", dur)
            add("data.rows_in", "per_round", attrs["rows_in"])
            add("data.rejects", "per_round", attrs["rejects"])
        elif name == "data.preprocess":
            add("data.preprocess_s", "per_round", dur)
            add("data.rows_out", "per_round", attrs["rows_out"])

    n = max(1, len(rounds))
    return {m: _AGGREGATE[kinds[m]](v, n) for m, v in samples.items()}
