"""The thread plan: the CPU budget, the BLAS control and row-threaded
encoder forwards."""

import os
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from nidkit import encoders, threads, tensor as T
from nidkit.config import encoder_config_for
from nidkit.data import SchemaError
from nidkit.tensor import Tensor
from oracles import as_dtype

ROWS = (1, 2, 63, 64, 65, 127, 128, 129, 196, 512, 513)


@pytest.fixture(autouse=True)
def restore_plan():
    """Put the process's budget and BLAS threads back after each test."""
    planned, blas = threads._planned, threads.blas_threads()
    T.reset_tape()
    yield
    T.reset_tape()
    threads._planned = planned
    if blas is not None:
        threads.set_blas_threads(blas)


def _encoder(kind, width=40, seed=0):
    cfg = encoder_config_for({"kind": kind}, width, range(width - 5),
                             {"proto": list(range(width - 5, width))})
    return encoders.build_encoder(cfg, np.random.default_rng(seed))


def _batch(n, width=40, seed=1):
    x = np.random.default_rng(seed).random((n, width))
    x[:, -5:] = 0.0
    x[np.arange(n), width - 5 + np.arange(n) % 5] = 1.0
    return x


def _spy(enc):
    """Record the thread and the BLAS thread count of every internal
    forward call of ``enc``."""
    calls, real = [], enc._forward

    def spy(x):
        calls.append((threading.get_ident(), threads.blas_threads(), x.shape[0]))
        return real(x)

    enc._forward = spy
    return calls


@pytest.mark.parametrize("kind", ["cnn", "ft_transformer"])
def test_rowwise_is_bit_equal_to_the_one_batch_forward(kind):
    # on float32 and float64: sgemm and dgemm take different small-matrix kernels
    for dtype in (np.float32, np.float64):
        enc = as_dtype(_encoder(kind), dtype).eval()
        x = _batch(max(ROWS)).astype(dtype)
        for n in ROWS:
            with T.no_grad():
                ref = enc._forward(Tensor(x[:n])).values
                for budget in (1, 2, 3):
                    threads._planned = budget
                    out = enc(Tensor(x[:n])).values
                    assert out.dtype == dtype
                    np.testing.assert_array_equal(
                        out, ref, err_msg=f"{kind}, {dtype.__name__}, {n} rows, budget {budget}")


def test_rowwise_under_frequent_thread_switches():
    # more threads than this machine has cores, switching every 10 us
    enc = _encoder("ft_transformer").eval()
    x = Tensor(_batch(513))
    with T.no_grad():
        ref = enc._forward(x).values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads._planned = 2 * threads.usable_cpus() + 1
            outs = [enc(x).values for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
    for out in outs:
        np.testing.assert_array_equal(out, ref)


@pytest.mark.skipif(threads.blas_threads() is None, reason="numpy's BLAS has no thread control")
def test_rowwise_splits_into_64_row_blocks_on_helper_threads():
    enc = _encoder("cnn").eval()
    calls = _spy(enc)
    threads._planned = 2
    before = threads.blas_threads()
    with T.no_grad():
        enc(Tensor(_batch(196)))
    assert sorted(rows for _, _, rows in calls) == [64, 64, 68]
    assert {blas for _, blas, _ in calls} == {1}
    assert threads.blas_threads() == before


@pytest.mark.skipif(threads.blas_threads() is None, reason="numpy's BLAS has no thread control")
def test_first_gelu_on_helper_threads_keeps_the_bits():
    # a process's first FT forward, on the calling thread and a helper at
    # once: each waits for the other before its first block
    script = (
        "import threading\n"
        "import numpy as np\n"
        "from nidkit import encoders, threads, tensor as T\n"
        "from nidkit.config import encoder_config_for\n"
        "cfg = encoder_config_for({'kind': 'ft_transformer'}, 40, range(35),\n"
        "                         {'proto': list(range(35, 40))})\n"
        "enc = encoders.build_encoder(cfg, np.random.default_rng(0)).eval()\n"
        "x = np.random.default_rng(1).random((196, 40))\n"
        "x[:, -5:] = 0.0\n"
        "x[np.arange(196), 35 + np.arange(196) % 5] = 1.0\n"
        "callers, forward = set(), enc._forward\n"
        "both = threading.Barrier(2)\n"
        "def spy(t):\n"
        "    if threading.get_ident() not in callers:\n"
        "        callers.add(threading.get_ident())\n"
        "        both.wait(timeout=60)\n"
        "    return forward(t)\n"
        "enc._forward = spy\n"
        "threads.plan(2)\n"
        "with T.no_grad():\n"
        "    out = enc(T.Tensor(x)).values\n"
        "    assert len(callers) == 2 and threading.get_ident() in callers\n"
        "    ref = forward(T.Tensor(x)).values\n"
        "assert np.array_equal(out, ref)\n"
        "print('ok')\n")
    src = str(Path(encoders.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.parametrize("training, grad", [(True, True), (True, False), (False, True)])
def test_training_mode_and_the_tape_stay_on_the_calling_thread(training, grad):
    threads._planned = 2
    outs, states = [], []
    for direct in (False, True):
        enc = _encoder("ft_transformer").train(training)
        calls = _spy(enc)
        with nullcontext() if grad else T.no_grad():
            x = Tensor(_batch(256))
            outs.append((enc._forward if direct else enc)(x).values)
        # dropout draws from the encoder's generator in one order
        states.append(enc.blocks[0].attn.drop.rng.bit_generator.state)
        if not direct:
            assert calls == [(threading.get_ident(), threads.blas_threads(), 256)]
        T.reset_tape()
    np.testing.assert_array_equal(outs[0], outs[1])
    assert states[0] == states[1]


def test_the_mlp_runs_one_batch_on_the_calling_thread():
    enc = _encoder("mlp").eval()
    calls, real = [], enc.linears[0].forward
    enc.linears[0].forward = lambda x: calls.append((threading.get_ident(), x.shape[0])) or real(x)
    threads._planned = 2
    with T.no_grad():
        enc(Tensor(_batch(256)))
    assert calls == [(threading.get_ident(), 256)]


def test_rowwise_raises_the_forward_error():
    enc = _encoder("ft_transformer").eval()
    threads._planned = 2
    with T.no_grad(), pytest.raises(SchemaError):
        enc(Tensor(np.zeros((256, 41))))
    with T.no_grad(), pytest.raises(SchemaError):
        enc(Tensor(np.zeros(256)))


def test_share_splits_the_usable_cpus():
    cpus = threads.usable_cpus()
    assert threads.share(1) == cpus
    assert threads.share(2) == max(1, cpus // 2)
    assert threads.share(4 * cpus) == 1


def test_plan_sets_the_budget_and_the_blas_threads():
    threads.plan(1)
    assert threads.budget() == 1
    if threads.blas_threads() is not None:
        assert threads.blas_threads() == 1
        with threads.blas_held(2):
            assert threads.blas_threads() == 2
        assert threads.blas_threads() == 1


def test_no_blas_control_means_a_budget_of_one(monkeypatch):
    monkeypatch.setattr(threads, "_openblas_calls", lambda: None)
    threads.plan(3)
    assert threads.budget() == 1
    assert threads.cpus() == 3      # CSV ranges need no BLAS control
    assert threads.blas_threads() is None
    with threads.blas_held(1):
        pass
    enc = _encoder("cnn").eval()
    calls = _spy(enc)
    with T.no_grad():
        enc(Tensor(_batch(256)))
    assert calls == [(threading.get_ident(), None, 256)]

