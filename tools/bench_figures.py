"""End-to-end benchmark of the figure configs: interleaved runs of two trees.

Runs ``qumimo <regime> --config CONFIG --profile full --workers W`` from a
parent source tree and from this checkout's ``src/`` (the change) in
interleaved pairs (the side that runs first alternates), every run in its
own launcher process with one BLAS thread.  Per run it records the wall
time of the command, the CPU time and the largest resident set of its
processes (``getrusage(RUSAGE_CHILDREN)`` of the launcher, which waits
for nothing else) and the SHA-256 of every output file.  The series at 1
and 2 workers, with their medians and quartiles, replace the config's
entry in ``BENCH_figures.json`` at the repository root, which keeps one
entry per config::

    python tools/bench_figures.py PARENT_SRC --parent-commit C \\
        [--config configs/stochastic.json] [--pairs 5]

``PARENT_SRC`` holds the parent's ``qumimo`` package (the ``src/`` of a
checkout of commit C).  Outputs go to a temporary directory.

Per metric (all lower-is-better) the pairs are counted as ``wins``,
``losses`` and ``ties`` of the change; a tie (equal values, common for
``max_rss_mb`` at its 0.1 MB resolution) counts for neither side.  The
metric's ``verdict`` reads ``better`` when the change wins at least nine
tenths of the pairs and its median is below the parent's by more than the
parent's interquartile range, ``worse`` when the parent wins that share
and the change's median is above the parent's by more than that range,
and ``unresolved`` otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
WORKERS = (1, 2)
REGIMES = {"fixed_z": "fixed-z", "scaling": "scaling", "stochastic": "stochastic"}


def launch(src: str, command: list) -> dict:
    """One run, in this (launcher) process: its wall time, and the CPU time
    and largest process of the run, which is this process's only child."""
    env = dict(os.environ, PYTHONPATH=src, **{
        name: str(BLAS_THREADS) for name in
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qumimo.cli", *command], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in KiB on Linux.
    return {"wall_s": round(wall, 4), "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
            "max_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def run_once(src: str, regime: str, config: str, workers: int, out: Path) -> dict:
    """One run through a fresh launcher, with the hashes of its outputs."""
    command = [REGIMES[regime], "--config", config, "--profile", "full",
               "--workers", str(workers), "--out", str(out)]
    done = subprocess.run([sys.executable, __file__, "--launch", src, *command],
                          check=True, capture_output=True, text=True)
    record = json.loads(done.stdout)
    record["outputs"] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                         for f in sorted(out.glob("*.csv"))}
    return record


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "repeats": len(values)}


def verdict(parent: list, change: list) -> dict:
    """The pairs' wins, losses and ties of the change (lower is better) and
    the verdict of the module docstring's rule."""
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    gap = statistics.median(change) - statistics.median(parent)
    iqr = summary(parent)["iqr"]
    share = 0.9 * len(parent)
    return {"wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
            "verdict": "better" if wins >= share and gap < -iqr
            else "worse" if losses >= share and gap > iqr else "unresolved"}


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--launch"]:
        print(json.dumps(launch(sys.argv[2], sys.argv[3:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--config", default="configs/stochastic.json")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    config = str((ROOT / args.config).resolve())
    regime = json.loads(Path(config).read_text())["regime"]
    trees = {"parent": str(Path(args.parent_src).resolve()), "change": str(ROOT / "src")}

    series = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in WORKERS:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    out = Path(tmp) / f"w{workers}-{pair}-{side}"
                    runs[side].append(run_once(trees[side], regime, config, workers, out))
                    print(f"workers {workers} pair {pair} {side}: {runs[side][-1]['wall_s']} s",
                          file=sys.stderr)
            metrics = {}
            for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("max_rss_mb", "MB")):
                values = {side: [r[name] for r in runs[side]] for side in runs}
                metrics[name] = {"unit": unit, "better": "lower",
                                 **{side: summary(values[side]) for side in runs},
                                 **verdict(values["parent"], values["change"])}
            hashes = {side: [r.pop("outputs") for r in runs[side]] for side in runs}
            series.append({
                "workers": workers, "metrics": metrics,
                "first": ["parent" if pair % 2 == 0 else "change" for pair in range(args.pairs)],
                "runs": runs,
                "reruns_identical": {side: all(h == hs[0] for h in hs)
                                     for side, hs in hashes.items()},
                "outputs": {side: hs[0] for side, hs in hashes.items()},
            })

    # "-dirty": the change is uncommitted edits to this commit.
    change_commit = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                                    "--abbrev=40"], capture_output=True, text=True).stdout.strip()
    doc = {
        "command": f"qumimo {REGIMES[regime]} --config {args.config} --profile full "
                   "--workers W",
        "blas_threads": BLAS_THREADS,
        "hardware": f"{platform.machine()} Linux, {os.cpu_count()} CPUs, one run at a time",
        "python": platform.python_version(),
        "commits": {"parent": args.parent_commit,
                    "change": change_commit},
        "series": series,
    }
    bench = ROOT / "BENCH_figures.json"
    entries = json.loads(bench.read_text()) if bench.exists() else {}
    entries[args.config] = doc
    bench.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
