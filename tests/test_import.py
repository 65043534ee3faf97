"""Importing ``qumimo`` pins BLAS to one thread, which only works before
NumPy loads; importing it after NumPy, with the pin unset, warns.  The
package and its CLI load no SciPy."""

import os
import subprocess
import sys
from pathlib import Path

import qumimo

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(qumimo.__file__).resolve().parent.parent)


def import_in_fresh_process(script: str, env_extra: dict) -> subprocess.CompletedProcess:
    """Run ``script`` with the thread variables unset, then ``env_extra``,
    turning RuntimeWarnings into errors."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_extra)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_qumimo_first_pins_threads():
    proc = import_in_fresh_process(
        "import os, qumimo, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])", {})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_numpy_first_warns():
    proc = import_in_fresh_process("import numpy, qumimo", {})
    assert proc.returncode != 0
    assert "RuntimeWarning" in proc.stderr and "imported after NumPy" in proc.stderr


def test_numpy_first_with_threads_set_is_silent():
    proc = import_in_fresh_process("import numpy, qumimo", {v: "2" for v in THREAD_VARS})
    assert proc.returncode == 0, proc.stderr


def test_scipy_not_imported_at_run_time():
    # SciPy is a test dependency only: the package and its CLI run on NumPy
    proc = import_in_fresh_process(
        "import sys, qumimo, qumimo.cli; print('scipy' in sys.modules)", {})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_strategies_do_not_import_numpy_ma():
    # np.unique and np.union1d import numpy.ma, about 1.2 MB more resident
    # memory in every process; no strategy's run-time path calls them
    proc = import_in_fresh_process(
        "import sys\n"
        "from qumimo import channel, strategies\n"
        "ch = channel.channel_choi(channel.ChannelParams(n=3, eta=0.6, lam=(0.1, 0.3, 0.5),"
        " delta=1.0))\n"
        "strategies.run_strategies([(s, ch, (0.8, 1.0)) for s in strategies.STRATEGIES])\n"
        "print(sorted(strategies.STRATEGIES), 'numpy.ma' in sys.modules)", {})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['blind', 'dir', 'div', 'pur', 'sym'] False"
