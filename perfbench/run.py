"""The qumimo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs one workload (see README.md) in a fresh single-process Python with
one BLAS thread, checks every output, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (set-up time, tasks per
second, peak resident memory); with `--trace 1` they are the per-layer
ones from a traced run.  Set-up is timed in the workload process and,
untraced, in `SETUP_PROBES` more processes that only set up; `setup_s`
is their median.

Exits non-zero, printing no result, when the checkout holds no
`src/qumimo` or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fixed_z_n3", "fixed_z_k4", "gamma_scan_m4")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _launch(args, run_dir: Path, extra, deadline: float) -> dict:
    """Run workload.py to its end; returns its result with `setup_s`."""
    run_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--run-dir", str(run_dir), *extra]
    with open(run_dir / "log.txt", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"workload process passed the {DEADLINE_S:.0f} s deadline")
        finally:  # also on SIGTERM (see main) and KeyboardInterrupt
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}:\n"
                           + (run_dir / "log.txt").read_text()[-2000:])
    result = json.loads((run_dir / "result.json").read_text())
    result["setup_s"] = result["setup_end"] - start
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qumimo" / "__init__.py").is_file():
        print(f"no qumimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so that _launch stops the workload process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    base = HERE / ".runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        setups = [_launch(args, base / f"setup{i}", ["--setup-only"], deadline)["setup_s"]
                  for i in range(0 if args.trace else SETUP_PROBES)]
        res = _launch(args, base / "run", [], deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    for msg in res["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    if res["known_failed"]:
        print(f"known fault, {res['known_failed']} operations failed as expected,"
              f" first: {res['known_note']}", file=sys.stderr)
    print(f"{args.workload}: {res['rounds']} rounds in {res['elapsed_s']:.3f} s,"
          f" round times {[round(x, 3) for x in res['round_s']]}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "tasks_per_s": {"value": res["completed"] / res["elapsed_s"], "unit": "tasks/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
