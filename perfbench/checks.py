"""Output checks for the benchmark's `qumimo fixed-z` runs and γ scan.

Every check compares an output of `qumimo` against a quantity computed
here, apart from the program, or against a property the method must
have.  None compares against a stored copy of earlier output.

A check failure is attributed to the task (one grid instance) whose
rows it concerns; a failure
in a file derived from many tasks, or in the manifest, fails every task
of the run it came from.  This module uses only the standard library.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import statistics
from pathlib import Path

F_DIR_TOL = 1e-8
ORDER_TOL = 1e-6
P_REAL_TOL = 1e-7
RANGE_TOL = 1e-9
DERIVED_TOL = 1e-9


class Findings:
    """Check failures keyed by task; key None fails the whole run."""

    def __init__(self):
        self.by_task: dict = {}

    def fail(self, task, message: str) -> None:
        self.by_task.setdefault(task, []).append(message)

    def failed_tasks(self, tasks) -> set:
        if None in self.by_task:
            return set(tasks)
        return {t for t in tasks if t in self.by_task}

    def messages(self) -> list:
        return [f"{task}: {m}" for task, msgs in self.by_task.items() for m in msgs]


def task_seed(*parts) -> int:
    """The task seed rule the manifest states as `task_seed_rule`:
    the first 8 bytes, little-endian, of SHA-256 over the '|'-joined
    reprs of (master seed, *coordinates)."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def transfer_matrix(n: int, eta: float, delta: float) -> list:
    """P[i][j]: probability that the state sent on mode i leaves on mode j.

    Built from the circular-distance kernel exp(-delta d(i, j)), row
    normalised, and product weights over all n! mode permutations.
    """
    if n == 1 or eta == 0.0:
        return [[float(i == j) for j in range(n)] for i in range(n)]
    kern = [[math.exp(-delta * min(abs(i - j), n - abs(i - j))) for j in range(n)]
            for i in range(n)]
    kern = [[x / sum(row) for x in row] for row in kern]
    weights = {}
    for perm in itertools.permutations(range(n)):
        weights[perm] = math.prod(kern[i][perm[i]] for i in range(n))
    total = math.fsum(weights.values())
    out = [[(1.0 - eta) * float(i == j) for j in range(n)] for i in range(n)]
    for perm, w in weights.items():
        for i in range(n):
            out[i][perm[i]] += eta * w / total
    return out


def direct_fidelity(lam, eta: float, delta: float):
    """(t, r, F) of one copy sent on the least-depolarised mode t and read
    on the receive mode r that carries most of it; ties go to the lower
    index.  F = 1/2 + (1 - lam_t) P[t -> r] / 2."""
    n = len(lam)
    t = min(range(1, n + 1), key=lambda i: (lam[i - 1], i))
    row = transfer_matrix(n, eta, delta)[t - 1]
    best = max(row)
    r = next(j for j in range(1, n + 1) if row[j - 1] >= best - 1e-12)
    return t, r, 0.5 + (1.0 - lam[t - 1]) * row[r - 1] / 2.0


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text):
    return None if text == "" else float(text)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_manifest(out_dir: Path, findings: Findings) -> None:
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    files = manifest.get("files") or {}
    if not files:
        findings.fail(None, "manifest lists no files")
    for name, digest in files.items():
        path = out_dir / name
        if not path.is_file():
            findings.fail(None, f"manifest names missing file {name}")
            continue
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != digest:
            findings.fail(None, f"manifest hash of {name} does not match the file")


def _gamma(row) -> list:
    out, i = [], 1
    while f"gamma_{i}" in row:
        if row[f"gamma_{i}"] != "":
            out.append(float(row[f"gamma_{i}"]))
        i += 1
    return out


def check_record_row(row, task, findings: Findings) -> None:
    """Row-level properties of one records.csv row."""
    strategy, m = row["strategy"], int(row["M"])
    f = float(row["F_avg"])
    if not 0.5 - RANGE_TOL <= f <= 1.0 + RANGE_TOL:
        findings.fail(task, f"{strategy} F_avg {f!r} outside [1/2, 1]")
    j = float(row["J_index"])
    if not 1.0 / m - RANGE_TOL <= j <= 1.0 + RANGE_TOL:
        findings.fail(task, f"{strategy} J_index {j!r} outside [1/{m}, 1]")
    if strategy == "sym" and not _close(j, 1.0, 1e-12):
        findings.fail(task, f"sym J_index {j!r} is not 1")
    g = _gamma(row)
    if len(g) != m or min(g) < -RANGE_TOL or not _close(math.fsum(g), 1.0, RANGE_TOL):
        findings.fail(task, f"{strategy} gamma {g} is not a point of the {m}-simplex")
    if strategy in ("dir", "pur", "sym", "div"):
        if not _close(float(row["p_real"]), float(row["p_target"]), P_REAL_TOL):
            findings.fail(task, f"{strategy} p_real {row['p_real']} != p_target {row['p_target']}")


def _heralded(row) -> float:
    """Conditional fidelity recovered from F_avg = p F_success + (1 - p)/2,
    with p the target for the strategies that meet it and the realised
    acceptance for the blind decoder."""
    p = float(row["p_real"] if row["strategy"] == "blind" else row["p_target"])
    return (float(row["F_avg"]) - (1.0 - p) / 2.0) / p


def grid_tasks(cfg: dict) -> dict:
    """Task seed -> (symmetry, Z, N, eta, mean_id) for a fixed_z config."""
    tasks = {}
    for sym in cfg["channel_symmetry"]:
        for z in cfg["Z"]:
            for n in cfg["N"]:
                if float(z) > n + 1e-12:
                    continue
                for eta in cfg["eta"]:
                    for mean_id in range(cfg["num_mean_vectors"]):
                        key = (sym, float(z), n, float(eta), mean_id)
                        seed = task_seed(cfg["seed"], "fixed_z", sym, round(float(z), 12),
                                         n, float(eta), mean_id)
                        tasks[seed] = key
    return tasks


def check_fixed_z(out_dir, cfg: dict, findings: Findings) -> list:
    """Checks one `qumimo fixed-z` output directory; returns its tasks."""
    out_dir = Path(out_dir)
    tasks = grid_tasks(cfg)
    records = read_csv(out_dir / "records.csv")
    by_task: dict = {key: [] for key in tasks.values()}
    for row in records:
        key = tasks.get(int(row["seed"]))
        if key is None:
            findings.fail(None, f"records.csv row with unknown task seed {row['seed']}")
            continue
        by_task[key].append(row)

    # One row per strategy and p; dir is deterministic and appears once, at p = 1.
    expected = sorted((s, 1.0) if s == "dir" else (s, float(p))
                      for s in cfg["strategies"] for p in cfg["p"][:1 if s == "dir" else None])
    groups: dict = {}
    for key, rows in by_task.items():
        sym, z, n, eta, _ = key
        got = sorted((r["strategy"], float(r["p_target"])) for r in rows)
        if got != expected:
            findings.fail(key, f"strategy rows {got} != expected {expected}")
            continue
        for row in rows:
            check_record_row(row, key, findings)
            gkey = (sym, z, n, eta, float(row["p_target"]), row["strategy"])
            groups.setdefault(gkey, []).append(row)
        _check_instance(key, rows, cfg, findings)

    _check_aggregate(out_dir, groups, findings)
    check_manifest(out_dir, findings)
    return list(tasks.values())


def _check_instance(key, rows, cfg: dict, findings: Findings) -> None:
    sym, z, n, eta, _ = key
    dir_rows = [r for r in rows if r["strategy"] == "dir"]
    f_dir = float(dir_rows[0]["F_avg"]) if dir_rows else None
    if dir_rows and sym == "symmetric":
        t, r, f = direct_fidelity([z / n] * n, eta, float(cfg["delta"]))
        row = dir_rows[0]
        if (row["t"], row["r"]) != (str(t), str(r)):
            findings.fail(key, f"dir modes ({row['t']}, {row['r']}) != ({t}, {r})")
        if not _close(f_dir, f, F_DIR_TOL):
            findings.fail(key, f"dir F_avg {f_dir!r} != 1/2 + (1 - lam_t) P/2 = {f!r}")
    for p in cfg["p"]:
        at_p = {r["strategy"]: r for r in rows if r["strategy"] != "dir"
                and float(r["p_target"]) == float(p)}
        if f_dir is not None and "pur" in at_p:
            h = _heralded(at_p["pur"])
            if h < f_dir - ORDER_TOL:
                findings.fail(key, f"p={p}: heralded pur {h!r} < dir {f_dir!r}")
        if "sym" in at_p:
            f_sym = float(at_p["sym"]["F_avg"])
            if "div" in at_p and float(at_p["div"]["F_avg"]) < f_sym - ORDER_TOL:
                findings.fail(key, f"p={p}: div F_avg {at_p['div']['F_avg']} < sym {f_sym!r}")
            if "blind" in at_p and float(at_p["blind"]["F_avg"]) > f_sym + ORDER_TOL:
                findings.fail(key, f"p={p}: blind F_avg {at_p['blind']['F_avg']} > sym {f_sym!r}")


def _check_aggregate(out_dir: Path, groups: dict, findings: Findings) -> None:
    seen = set()
    for row in read_csv(out_dir / "aggregate.csv"):
        gkey = (row["symmetry"], float(row["Z"]), int(row["N"]), float(row["eta"]),
                float(row["p"]), row["strategy"])
        seen.add(gkey)
        recs = groups.get(gkey)
        if recs is None:
            findings.fail(None, f"aggregate.csv row {gkey} has no records")
            continue
        f = [float(r["F_avg"]) for r in recs]
        fs = [_heralded(r) for r in recs]
        js = [float(r["J_index"]) for r in recs if r["J_index"] != ""]
        se = statistics.stdev(f) / math.sqrt(len(f)) if len(f) > 1 else 0.0
        want = {
            "F_avg_mean": statistics.fmean(f),
            "F_avg_se": se,
            "F_success_mean": statistics.fmean(fs),
            "J_mean": statistics.fmean(js) if js else None,
        }
        for col, value in want.items():
            got = _num(row[col])
            if (got is None) != (value is None) or (
                value is not None and not _close(got, value, DERIVED_TOL)
            ):
                findings.fail(None, f"aggregate.csv {gkey} {col} {row[col]} != {value!r}")
        if int(row["n_samples"]) != len(recs):
            findings.fail(None, f"aggregate.csv {gkey} n_samples {row['n_samples']} != {len(recs)}")
    for gkey in set(groups) - seen:
        findings.fail(None, f"aggregate.csv lacks group {gkey}")


SURROGATE_TOL = 1e-9
CLONER_FIDELITY_TOL = 1e-5
RAYLEIGH_TOL = 1e-6


def check_gamma_point(key, gamma, surrogate: float, choi_fids, closed_fids,
                      findings: Findings) -> None:
    """One point of the gamma scan: the surrogate is a fidelity bound, and
    the cloner built by SDP matches the closed-form fidelities on the
    supported clones and beats the maximally mixed 1/2 on the others."""
    if not 0.5 - SURROGATE_TOL <= surrogate <= 1.0 + SURROGATE_TOL:
        findings.fail(key, f"surrogate {surrogate!r} outside [1/2, 1]")
    for k, (g, fc, fx) in enumerate(zip(gamma, choi_fids, closed_fids)):
        if g > 1e-12 and not _close(fc, fx, CLONER_FIDELITY_TOL):
            findings.fail(key, f"clone {k + 1}: cloner_choi fidelity {fc!r}"
                               f" != closed form {fx!r}")
        if g <= 1e-12 and fc < 0.5 - SURROGATE_TOL:
            findings.fail(key, f"unsupported clone {k + 1} fidelity {fc!r} < 1/2")


def check_rayleigh_bound(key, surrogate: float, p: float, f_success: float,
                         findings: Findings) -> None:
    """The Rayleigh quotient bounds the purification SDP's heralded fidelity."""
    if f_success > surrogate + RAYLEIGH_TOL:
        findings.fail(key, f"p={p}: SDP F_success {f_success!r} > surrogate {surrogate!r}")
