"""The three workloads: inputs from the seed, one timed round, its checks.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup()`` makes the inputs (timed, repeated; the last one is kept);
* ``check_setup()`` verifies them against the generator (untimed);
* ``round(k)`` runs the timed work once and returns what it produced, with
  ``wall_s``, ``attempted``, ``failed`` and ``auroc`` filled in;
* ``check(result)`` verifies that output (untimed) and removes its files.

All program calls go through nidkit's public functions, looked up on their
modules at call time, so the wrappers of ``tracing.instrument`` see them.
"""

from __future__ import annotations

import shutil
import time
import traceback
from pathlib import Path

import numpy as np

from nidkit import data, detector, evaluate, nn, runner, ssl_models
from nidkit import tensor as T
from nidkit.augment import AugmentationSpec, subset_columns
from nidkit.config import encoder_config_for
from nidkit.encoders import build_encoder, representation_dim

from . import checks, inputs

ROOT = Path(__file__).resolve().parent.parent


def _log_failure(what):
    print(f"operation failed: {what}\n{traceback.format_exc()}", flush=True)


def initial_encoder(encoder_doc, aug_doc, seed, train):
    """The encoder ``runner.run_single`` starts an SSL cell from.

    It repeats the runner's draws from the run seed (the subsets
    permutation first, then the encoder), so the result equals the cell's
    encoder before its first training step.
    """
    rng = np.random.default_rng(seed)
    aug = AugmentationSpec(**aug_doc)
    width, numeric, groups = train.n_features, list(train.numeric_idx), train.onehot_groups
    if aug.kind == "subsets":
        perm = rng.permutation(width)
        width = len(subset_columns(width, aug.k, aug.overlap_fraction, perm)[0])
        numeric, groups = [], {}
    return build_encoder(encoder_config_for(encoder_doc, width, numeric, groups), rng)


def _ingest(csv_path, schema):
    raw, rejects = data.load_csv(csv_path, schema)
    return data.preprocess(raw), rejects


class _SynthCache:
    """Inputs shared by the model workloads: a ``synth_generate`` table
    written as CSV with its schema, and the dataset cache ingested from it.

    Every round first ingests the CSV into the cache again, three times,
    outside ``wall_s``. That spreads the ``ingest_rows_per_s`` measurement
    over the whole run: one ingest of this small CSV takes 0.1-0.3 s and
    varies by about 15%, too little work to time in set-up alone.
    """

    setup_reps = 5
    ingests_per_round = 3

    def __init__(self, seed, workdir, n_normal, n_attack, width):
        self.seed, self.workdir = seed, Path(workdir)
        self.shape = (n_normal, n_attack, width)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv, self.schema = self.workdir / "dataset.csv", self.workdir / "schema.yaml"
        self.cache = self.workdir / "dataset.npz"

    def setup(self):
        n_normal, n_attack, width = self.shape
        self.source = data.synth_generate(n_normal, n_attack, width, SEPARATION,
                                          seed=self.seed)
        inputs.write_synth_csv(self.csv, self.schema, self.source)
        self.ingest()

    def ingest(self, times=1):
        for _ in range(times):
            self.ingested, self.rejects = _ingest(self.csv, data.load_schema(self.schema))
        data.save_dataset(self.cache, self.ingested)

    def check_setup(self):
        """The ingested cache equals the generated table, bit for bit."""
        src, got = self.source, self.ingested
        checks.require(not self.rejects, f"{len(self.rejects)} rows rejected")
        for field in ("features", "labels", "ids"):
            checks.require(np.array_equal(getattr(src, field), getattr(got, field)),
                           f"ingested dataset cache: {field} differ from the generated table")


# ---------------------------------------------------------------------------
# grid-mlp

SEPARATION = 10.0
MLP = {"kind": "mlp", "hidden_dim": 256}
# model, augmentation, learning rate, epochs, projection dim: the acceptance
# suite's criterion-05 recipes with their epochs cut to fit a round
GRID_RECIPES = [
    ("byol", {"kind": "gaussian_noise", "p": 0.15, "sigma2": 0.01}, 1e-4, 2, 256),
    ("simsiam", {"kind": "zero_out", "p": 0.15}, 1e-5, 3, 128),
    ("vicreg", {"kind": "subsets", "k": 2, "overlap_fraction": 0.0}, 1e-3, 6, 256),
    ("barlow_twins", {"kind": "swap_noise", "p": 0.15}, 1e-3, 6, 256),
    ("wmse", {"kind": "mixup", "alpha": 0.9}, 1e-3, 1, 256),
    ("autoencoder", None, 1e-3, 3, 256),
    ("deep_svdd", None, 1e-3, 3, 256),
]
AUROC_FLOOR = 0.85   # criterion 05


class GridMLP(_SynthCache):
    name = "grid-mlp"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_normal=2000, n_attack=500, width=20)

    def check_setup(self):
        super().check_setup()
        train = data.protocol_split(self.ingested, 0.5, seed=self.seed)[0]
        self.train_ids = train.ids
        self.initial = {model: initial_encoder(MLP, aug, self.seed, train).state_dict()
                        for model, aug, *_ in GRID_RECIPES if model in ssl_models.MODEL_KINDS}

    def _grid_doc(self, k, model, aug, lr, epochs, dim):
        base = {"dataset": {"cache": self.cache.name}, "model": model,
                "encoder": dict(MLP),
                "training": {"learning_rate": lr, "epochs": epochs, "batch_size": 128,
                             "projection_dim": dim},
                "runs": 1, "base_seed": self.seed, "train_fraction": 0.5,
                "output_dir": f"round{k}/{model}"}
        if aug is not None:
            base["augmentation"] = aug
        return {"version": 1, "base": base, "grid": {}}

    def round(self, k):
        self.ingest(self.ingests_per_round)
        docs = [self._grid_doc(k, *recipe) for recipe in GRID_RECIPES]
        t0 = time.perf_counter()
        rows = [runner.run_grid(doc, base_dir=self.workdir, workers=1)["rows"][0]
                for doc in docs]
        wall = time.perf_counter() - t0
        ok = [r for r in rows if r["status"] == "ok"]
        ssl = [r["metrics"]["auroc"][0] for r in ok if r["model"] in ssl_models.MODEL_KINDS]
        return {"wall_s": wall, "attempted": len(rows), "failed": len(rows) - len(ok),
                "auroc": float(np.mean(ssl)) if ssl else None, "rows": rows, "k": k}

    def check(self, result):
        self.check_setup()
        for row in result["rows"]:
            if row["status"] != "ok":
                print(f"operation failed: grid cell {row['cell']}: {row.get('error')}")
            exp_dir = self.workdir / f"round{result['k']}" / row["model"] / row["hash"]
            ssl = row["model"] in self.initial
            checks.check_grid_cell(exp_dir, self.seed, 1, self.source.labels, self.train_ids,
                                   AUROC_FLOOR if ssl else None, self.initial.get(row["model"]))
        shutil.rmtree(self.workdir / f"round{result['k']}")


# ---------------------------------------------------------------------------
# encoders-score

ENCODERS = ("cnn", "ft_transformer")
ENC_TRAIN_ROWS = 256
ENC_BATCH, ENC_EPOCHS = 64, 1
ENC_AUG = {"kind": "random_shuffle"}
CHECK_ROWS = 256      # rows re-scored at a second batch size / recomputed


class EncodersScore(_SynthCache):
    name = "encoders-score"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, n_normal=2000, n_attack=500, width=40)
        self.fraction = ENC_TRAIN_ROWS / 2000

    def round(self, k):
        self.ingest(self.ingests_per_round)
        t0 = time.perf_counter()
        ds = data.load_dataset(self.cache)
        train, test = data.protocol_split(ds, self.fraction, seed=self.seed)
        out, failed = {}, 0
        for kind in ENCODERS:
            rng = np.random.default_rng(self.seed)
            cfg = encoder_config_for({"kind": kind}, train.n_features,
                                     train.numeric_idx, train.onehot_groups)
            try:
                model = ssl_models.build_model("vicreg", lambda: build_encoder(cfg, rng),
                                               representation_dim(cfg), rng, dim=256)
                initial = model.encoder.state_dict()
                ssl_models.pretrain(model, train.features, AugmentationSpec(**ENC_AUG),
                                    nn.Adam(model, lr=1e-3), ENC_EPOCHS, ENC_BATCH, rng)
            except Exception:
                _log_failure(f"pretrain vicreg/{kind}")
                failed += 2      # the scoring call depends on it
                continue
            try:
                model.eval()
                det = detector.fit_center(model.encoder, train.features)
                scores = det.score(test.features)
                out[kind] = (det, scores, evaluate.auroc(scores, test.labels), initial)
            except Exception:
                _log_failure(f"score vicreg/{kind}")
                failed += 1
        wall = time.perf_counter() - t0
        aurocs = [a for _, _, a, _ in out.values()]
        return {"wall_s": wall, "attempted": 2 * len(ENCODERS), "failed": failed,
                "auroc": float(np.mean(aurocs)) if aurocs else None,
                "train": train, "test": test, "out": out}

    def check(self, result):
        self.check_setup()
        train, test = result["train"], result["test"]
        checks.check_split(train, test, self.ingested.n_rows,
                           int((self.ingested.labels == 0).sum()), self.fraction)
        rows = np.sort(np.random.default_rng(self.seed).choice(
            test.n_rows, size=min(CHECK_ROWS, test.n_rows), replace=False))
        checks.require(result["failed"] == 0, f"{result['failed']} training or scoring "
                                              f"calls failed")
        for kind, (det, scores, auc, initial) in result["out"].items():
            checks.check_trained(det.encoder.state_dict(), initial, f"vicreg/{kind}")
            checks.check_finite_scores(scores, kind)
            checks.check_batch_invariance(det.score(test.features[rows], batch_size=100),
                                          scores[rows], kind)
            with T.no_grad():
                reps_train = det.encoder(T.Tensor(train.features)).values
                reps_rows = det.encoder(T.Tensor(test.features[rows])).values
            checks.check_reference_scores(scores, reps_train, reps_rows, rows)
            checks.check_auroc(auc, scores, test.labels, kind)


# ---------------------------------------------------------------------------
# ingest

DETECT_ROWS, DETECT_EPOCHS = 2048, 2


class Ingest:
    name = "ingest"
    setup_reps = 3

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv, self.cache = self.workdir / "unsw.csv", self.workdir / "unsw.npz"
        self.schema = data.load_schema(ROOT / "schemas" / "unsw_nb15.yaml")

    def setup(self):
        self.book = inputs.write_unsw_csv(self.csv, self.schema, self.seed)

    def check_setup(self):
        pass   # the bookkeeping is the reference; round checks compare against it

    def round(self, k):
        t0 = time.perf_counter()
        ds, rejects = _ingest(self.csv, self.schema)
        data.save_dataset(self.cache, ds)
        loaded = data.load_dataset(self.cache)
        train, test = data.protocol_split(loaded, 0.5, seed=self.seed)
        wall = time.perf_counter() - t0
        result = {"wall_s": wall, "attempted": 3, "failed": 0, "auroc": None,
                  "ds": ds, "loaded": loaded, "rejects": rejects,
                  "train": train, "test": test}
        # detection on the ingested split, outside wall_s: a short VICReg-MLP
        # pretrain on a sample of the training rows, then score the test rows
        rng = np.random.default_rng(self.seed)
        sample = train.features[np.sort(rng.choice(train.n_rows, DETECT_ROWS, replace=False))]
        cfg = encoder_config_for(MLP, train.n_features)
        try:
            model = ssl_models.build_model("vicreg", lambda: build_encoder(cfg, rng),
                                           representation_dim(cfg), rng, dim=256)
            initial = model.encoder.state_dict()
            ssl_models.pretrain(model, sample, AugmentationSpec(kind="gaussian_noise"),
                                nn.Adam(model, lr=1e-3), DETECT_EPOCHS, 128, rng)
            model.eval()
            scores = detector.fit_center(model.encoder, sample).score(test.features)
            result.update(scores=scores, auroc=evaluate.auroc(scores, test.labels),
                          initial=initial, trained=model.encoder.state_dict())
        except Exception:
            _log_failure("ingest detection")
            result["failed"] = 2
        return result

    def check(self, result):
        book, ds = self.book, result["ds"]
        checks.require(len(result["rejects"]) == book["rejects"],
                       f"rejects {len(result['rejects'])} != {book['rejects']}")
        checks.check_ingested(ds, book)
        checks.check_same_dataset(ds, result["loaded"], "dataset cache round trip")
        checks.check_split(result["train"], result["test"], ds.n_rows,
                           int((ds.labels == 0).sum()), 0.5)
        checks.require(result["failed"] == 0, "the detection stage failed")
        checks.check_trained(result["trained"], result["initial"], "ingest detection")
        checks.check_finite_scores(result["scores"], "ingest detection")
        checks.check_auroc(result["auroc"], result["scores"], result["test"].labels,
                           "ingest detection")


WORKLOADS = {w.name: w for w in (GridMLP, EncodersScore, Ingest)}
