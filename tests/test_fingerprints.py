"""Same bits across commits: sha256 fingerprints of eleven seed-1 runs.

``fingerprints.yaml`` holds, for each run below, the sha256 of its
``scores.csv``, its ``loss.csv`` and every array of its ``checkpoint.npz``,
and of its experiment's ``report.txt`` and ``aggregate.yaml``.
The bits depend on the numpy version and on the OpenBLAS build and core it
runs on, so the file is keyed on both; on any other environment the test
skips and names the two keys. A change that moves bits on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_fingerprints.py --write

and says which entries moved and why.
"""

import ctypes
import glob
import hashlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from nidkit.config import validate_config
from nidkit.runner import run_experiment

FILE = Path(__file__).with_name("fingerprints.yaml")

# name -> the overrides of one run; a tiny schedule keeps all eleven at seconds
RUNS = {
    "byol-mlp": {"model": "byol", "augmentation": {"kind": "gaussian_noise"}},
    "simsiam-mlp": {"model": "simsiam", "augmentation": {"kind": "mixup"}},
    "barlow_twins-mlp": {"model": "barlow_twins", "augmentation": {"kind": "swap_noise"}},
    "vicreg-mlp": {"model": "vicreg", "augmentation": {"kind": "zero_out"}},
    "wmse-mlp": {"model": "wmse", "augmentation": {"kind": "random_shuffle"}},
    "vicreg-cnn": {"model": "vicreg", "encoder": {"kind": "cnn"}},
    "vicreg-ft_transformer": {"model": "vicreg", "encoder": {"kind": "ft_transformer"}},
    "autoencoder": {"model": "autoencoder"},
    "deep_svdd": {"model": "deep_svdd"},
    "byol-mlp-mixup": {"model": "byol", "augmentation": {"kind": "mixup"}},
    "vicreg-mlp-subsets": {"model": "vicreg", "augmentation": {"kind": "subsets", "k": 2}},
}


def _doc(over):
    doc = {
        "version": 1,
        "dataset": {"synth": {"n_normal": 600, "n_attack": 100, "d": 40,
                              "separation": 3.0, "seed": 1}},
        "encoder": {"kind": "mlp", "hidden_dim": 64},
        "augmentation": {"kind": "gaussian_noise"},
        "training": {"learning_rate": 1e-3, "epochs": 1, "batch_size": 64,
                     "projection_dim": 16},
        "base_seed": 1,
    }
    doc.update(over)
    return doc


def openblas_config():
    """The config string of the OpenBLAS numpy loaded (version, build
    options and the core it picked), or None without one."""
    root = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
             + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode().strip()
    return None


def environment():
    return {"numpy": np.__version__, "openblas": openblas_config()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(name, out_dir):
    """Hashes of one run's artifacts, made under ``out_dir``."""
    cfg = validate_config(_doc(RUNS[name]), base_dir=out_dir)
    result = run_experiment(cfg)
    run_dir = result["dir"] / "run1"
    assert result["records"][0]["status"] == "ok", result["records"][0]
    prints = {f: _sha((run_dir / f).read_bytes()) for f in ("scores.csv", "loss.csv")}
    prints.update({f: _sha((result["dir"] / f).read_bytes())
                   for f in ("report.txt", "aggregate.yaml")})
    with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as archive:
        for key in sorted(archive.files):
            arr = np.ascontiguousarray(archive[key])
            head = f"{arr.dtype.str}{arr.shape}".encode()
            prints[f"checkpoint/{key}"] = _sha(head + arr.tobytes())
    return prints


@pytest.mark.parametrize("name", list(RUNS))
def test_run_bits_match_the_committed_fingerprints(name, tmp_path):
    stored = yaml.safe_load(FILE.read_text())
    here = environment()
    if stored["environment"] != here:
        pytest.skip(f"fingerprints are for {stored['environment']}, this is {here}")
    got = fingerprint(name, tmp_path)
    want = stored["runs"][name]
    moved = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not moved, f"{name}: bits moved in {moved}"


def write(out_dir):
    runs = {name: fingerprint(name, Path(out_dir) / name) for name in RUNS}
    FILE.write_text(yaml.safe_dump({"environment": environment(), "runs": runs},
                                   sort_keys=False))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp)
    print(f"wrote {FILE}")
