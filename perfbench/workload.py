"""One workload process of the benchmark.

    python3 perfbench/workload.py --workload W --seed S --seconds T --trace 0|1 \
        --run-dir DIR [--setup-only]

`run.py` starts this script in a fresh interpreter for every run, and
several more times with `--setup-only` to time set-up.  Set-up imports
`qumimo` from the checkout's `src/` and writes the workload's inputs,
all drawn from the seed.  The timed run then executes whole rounds:

* untraced: rounds until `--seconds` have passed;
* traced: a fixed number of rounds, set by `--seconds`, so that two
  traced runs with one seed do identical work.

Round r of a seed is the same work in both modes.  After the timed run
every output is checked, and `result.json` in the run directory gets
the timings, the task counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Rounds per second of --seconds in a traced run (about one round per
# second of an untraced run on a 2-core machine).
TRACE_ROUNDS_PER_S = {
    "fixed_z_n3": 0.5,
    "fixed_z_k4": 0.4,
    "gamma_scan_m4": 2.5,
}
MAX_ROUNDS = 256

# Regime workloads: (subcommand, config without its seed).
REGIMES = {
    "fixed_z_n3": ("fixed-z", {
        "regime": "fixed_z", "N": [2, 3], "Z": [1.2], "eta": [0.0, 0.8],
        "delta": 1.0, "p": [0.8], "channel_symmetry": ["symmetric", "asymmetric"],
        "num_mean_vectors": 1, "strategies": ["dir", "pur", "div", "sym", "blind"],
    }),
    "fixed_z_k4": ("fixed-z", {
        "regime": "fixed_z", "N": [4], "Z": [2.0], "eta": [0.8], "delta": 1.0,
        "p": [0.8], "channel_symmetry": ["symmetric", "asymmetric"],
        "num_mean_vectors": 1, "strategies": ["dir", "pur", "sym", "blind"],
    }),
}

# gamma_scan_m4: fixed N = 4 channels (eta, lambda), all four modes used,
# transmit modes in order of increasing lambda.
GAMMA_CHANNELS = (
    (0.8, (0.1, 0.3, 0.5, 0.7)),
    (0.5, (0.2, 0.2, 0.2, 0.2)),
    (0.0, (0.05, 0.4, 0.6, 0.9)),
)
GAMMA_DELTA = 1.0
GAMMA_M = 4
# Per round: 8 interior points, 2 with one zero weight, 2 with two.
GAMMA_ZEROS = (0,) * 8 + (1, 1, 2, 2)
# Least nonzero weight of a drawn point.  `cloner_choi` adds a tie-break
# of 1e-6 to every weight, so a clone weighted about 1e-6 or less gets a
# fidelity up to 2e-5 off the closed form, past the 1e-5 the check allows.
# Drawn points stay clear of that; the fixed point below shows it.
GAMMA_FLOOR = 1e-4
# Last point of every round, the same for every seed: clone 3's cloner
# fidelity is 2.1e-5 off the closed form, so this operation fails its
# check every time and `failed` is exactly 1/13 of `attempted`.
GAMMA_KNOWN_FAULT = (0.6, 0.4 - 1e-6, 1e-6, 0.0)
# Points whose surrogate is also checked against the decoder SDP.
GAMMA_SDP_SAMPLE = ((0, 0), (0, 10))
GAMMA_SDP_P = (0.5, 1.0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_seed(workload: str, seed: int, r: int) -> int:
    digest = hashlib.sha256(f"{workload}|{seed}|{r}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def gamma_round(seed: int, r: int) -> list:
    rng = random.Random(round_seed("gamma_scan_m4", seed, r))
    points = []
    for zeros in GAMMA_ZEROS:
        w = [rng.expovariate(1.0) for _ in range(GAMMA_M)]
        for k in rng.sample(range(GAMMA_M), zeros):
            w[k] = 0.0
        total = sum(w)
        mix = 1.0 - (GAMMA_M - zeros) * GAMMA_FLOOR
        points.append([mix * x / total + GAMMA_FLOOR if x > 0 else 0.0 for x in w])
    return points + [list(GAMMA_KNOWN_FAULT)]


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    inputs.mkdir(parents=True)
    if workload == "gamma_scan_m4":
        rounds = [gamma_round(seed, r) for r in range(MAX_ROUNDS)]
        (inputs / "points.json").write_text(json.dumps(rounds))
        return
    _, base = REGIMES[workload]
    for r in range(MAX_ROUNDS):
        cfg = dict(base, seed=round_seed(workload, seed, r))
        (inputs / f"round{r:03d}.json").write_text(json.dumps(cfg))


def run_regime_round(cli, workload: str, inputs: Path, outputs: Path, r: int):
    """One `qumimo` run; returns None or the error it ended with."""
    sub, _ = REGIMES[workload]
    argv = [sub, "--config", str(inputs / f"round{r:03d}.json"),
            "--out", str(outputs / f"round{r:03d}"), "--workers", "1"]
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:  # a failed round is counted, the run goes on
        return traceback.format_exc(limit=3)
    return None if code == 0 else f"qumimo exited with {code}"


def check_regime_round(checks, inputs: Path, outputs: Path, r, error):
    """(tasks, failed tasks, messages) of one `qumimo fixed-z` round."""
    cfg = json.loads((inputs / f"round{r:03d}.json").read_text())
    tasks = list(checks.grid_tasks(cfg).values())
    if error is not None:
        return tasks, set(tasks), [f"round {r}: {error}"]
    findings = checks.Findings()
    try:
        checks.check_fixed_z(outputs / f"round{r:03d}", cfg, findings)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        findings.fail(None, f"unreadable output: {exc!r}")
    return tasks, findings.failed_tasks(tasks), [f"round {r}: {m}" for m in findings.messages()]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(set(REGIMES) | {"gamma_scan_m4"}))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    run_dir = Path(args.run_dir)

    # --- set-up: import qumimo from the checkout and write the inputs.
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qumimo
    import qumimo.cli
    from qumimo import channel, cloner, decoder

    import checks
    if not Path(qumimo.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"qumimo imported from {qumimo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    inputs, outputs = run_dir / "inputs", run_dir / "outputs"
    write_inputs(args.workload, args.seed, inputs)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if args.setup_only:
        (run_dir / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    n_rounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload]))
    # Peak memory is read after a fixed amount of work, which every run
    # reaches: on gamma_scan_m4 the cloner cache grows with every point,
    # so a peak read at the end would grow with the program's speed.
    mem_rounds = max(1, n_rounds // 2)
    peak_rss_mb = None

    # --- timed run: whole rounds.
    gamma = args.workload == "gamma_scan_m4"
    round_s, errors, values = [], {}, {}
    t0 = time.perf_counter()
    if gamma:
        points = json.loads((inputs / "points.json").read_text())
        chans = [channel.channel_choi(channel.ChannelParams(
            n=GAMMA_M, eta=eta, lam=lam, delta=GAMMA_DELTA)) for eta, lam in GAMMA_CHANNELS]
        modes = [tuple(sorted(range(1, GAMMA_M + 1), key=lambda i: (lam[i - 1], i)))
                 for _, lam in GAMMA_CHANNELS]
        receive = tuple(range(1, GAMMA_M + 1))
    for r in range(MAX_ROUNDS):
        t_round = time.perf_counter()
        if gamma:
            for i, g in enumerate(points[r]):
                c = i % len(chans)
                try:
                    values[r, i] = decoder.evaluate_gamma_surrogate(g, chans[c], modes[c], receive)
                except Exception:  # counted as a failed operation
                    errors[r, i] = traceback.format_exc(limit=3)
        else:
            errors[r] = run_regime_round(qumimo.cli, args.workload, inputs, outputs, r)
        now = time.perf_counter()
        round_s.append(now - t_round)
        if r + 1 == mem_rounds:
            peak_rss_mb = _peak_rss_mb()
        if (r + 1 >= n_rounds) if tracer else (now - t0 >= args.seconds):
            break
    elapsed = time.perf_counter() - t0
    if peak_rss_mb is None:  # the run ended before mem_rounds
        peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    # --- checks, outside the timed run.
    attempted, failed, completed, messages = 0, 0, 0, []
    known_failed, known_note = 0, ""
    if gamma:
        findings = checks.Findings()
        for (r, i), msg in errors.items():
            findings.fail((r, i), msg)
        for (r, i), v in values.items():
            g = points[r][i]
            checks.check_gamma_point((r, i), g, v, cloner.cloner_choi(g).fidelities,
                                     cloner.clone_fidelities(g).fidelities, findings)
        for r, i in GAMMA_SDP_SAMPLE:
            if (r, i) not in values:
                continue
            c = i % len(chans)
            emap = decoder.compose_effective_map(
                cloner.cloner_choi(points[r][i]), chans[c], modes[c], receive)
            qr = decoder.build_qr(emap)
            for p in GAMMA_SDP_P:
                f_success = decoder.purification_sdp(qr, p).f_success
                checks.check_rayleigh_bound((r, i), values[r, i], p, f_success, findings)
        tasks = [(r, i) for r in range(len(round_s)) for i in range(len(points[r]))]
        attempted, completed = len(tasks), len(values)
        bad = findings.failed_tasks(tasks)
        known = {(r, len(points[r]) - 1) for r in range(len(round_s))} & bad
        failed, known_failed = len(bad), len(known)
        messages = [f"{key}: {m}" for key, msgs in findings.by_task.items()
                    if key not in known for m in msgs]
        if known:
            known_note = f"{min(known)}: {findings.by_task[min(known)][0]}"
    else:
        for r in range(len(round_s)):
            tasks, bad, msgs = check_regime_round(checks, inputs, outputs, r, errors[r])
            attempted += len(tasks)
            failed += len(bad)
            completed += 0 if errors[r] else len(tasks)
            messages += msgs

    result.update({
        "elapsed_s": elapsed,
        "rounds": len(round_s),
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "completed": completed,
        "correct": not messages,
        "peak_rss_mb": peak_rss_mb,
        "failures": messages[:20],
        "known_failed": known_failed,
        "known_note": known_note,
    })
    if tracer:
        layers = tracer.layer_metrics()
        layers["experiments.output_bytes"] = (
            sum(f.stat().st_size for f in outputs.rglob("*") if f.is_file())
            if outputs.exists() else 0, "bytes")
        result["per_layer"] = layers
        tracer.write(run_dir / "trace.csv")
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
