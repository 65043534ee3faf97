"""Reproducible experiment runner for the three operating regimes.

``run_grid_regime`` drives the fixed_z and scaling regimes and
``run_stochastic`` the stochastic one; both write every CSV through
``_write_csv`` and a manifest (``_write_manifest``).  One design per
channel, decoders per p: a design (``decoder.Design``: the asymmetry, the
cloner, the modes and the cascade operators) does not depend on p, so a
task builds it once, through ``strategies.strategy_design`` in both
regimes, and solves one decoder SDP per p; the realization panel builds
its own design at (``box_eta``, mean vector 0, ``box_p``), once for every
mu.  A grid task is one distinct channel of a cell: a symmetric cell is
one channel for every mean vector (as are most N = 1 draws), evaluated
once at its first mean_id, and its rows are written once per mean_id
with that mean_id's seed.  A mean vector is a lambda tuple, a row of
``noise.sample_mean_allocations``' array.  A stochastic task is one mean
vector, with one design per eta, its realizations and panel clusters drawn
once as arrays of lambda rows (each cluster projected onto the capped
simplex in one call), and one ``decoder.realized_values`` call per design.
In both regimes a pool task is a chunk of up to ``TASK_CHUNK`` tasks
(``_run_chunks``), whose designs are built first and whose decoder SDPs
are then solved in one batched call; a task's arithmetic does not depend
on its chunk, so the bytes do not depend on the worker count.  The
strategies return only what they compute; ``run_grid_regime`` holds the
run context and writes it into ``records.csv`` (``csv_header``).
``run_stochastic`` draws nothing: it writes each gain sample once, in
``gain_samples.csv``, every cluster's variance, and mean vector 0's
panel and ``allocations.csv``.
Configs are single JSON documents (schema below).  Every sampled object
derives its seed from the master seed and its task coordinates through
SHA-256, so outputs are byte-identical across runs and worker counts.
An error inside a task is re-raised as ``QumimoError`` naming the task
and its coordinates (in a chunk, the first task that fails when run
alone).

Config schema: a JSON object with the keys of ``CONFIG_KEYS``, the one list
of keys; any other key is a ``ConfigError`` at its own path.  A key of
another regime is ignored: a run names it on stderr and lists it in the
manifest's ``ignored_keys`` (a sorted list, empty when none is).  The
entries of a list are distinct: an entry equal to an earlier one (``1``
and ``1.0`` are equal) is a ``ConfigError`` at its own index.  Keys
marked (s) are stochastic-only, (g) read by the grid regimes fixed_z and
scaling only, (f) fixed_z-only, (x) scaling-only::

    regime             "fixed_z" | "scaling" | "stochastic"
    N                  (f,x) list of mode counts (M = K = N per point);
                       (s) single int
    Z                  (f) list of total budgets; (s) single float in (0, N]
    Lambda_x           (x) list of per-branch budgets (Z = N * Lambda_x)
    mu                 (s) fluctuation strengths for the realization panel
    num_realizations   (s) R >= 2, realizations per mean vector (default 50)
    eta                list of crosstalk strengths in [0, 1]
    delta              spatial decay exponent, > 0
    p                  list of purification success probabilities in (0, 1]
    channel_symmetry   (g) list from {"symmetric", "asymmetric"}; the
                       stochastic regime draws asymmetric means
    num_mean_vectors   L, mean allocations per cell (default 50)
    strategies         (g) subset of {dir, pur, div, sym, blind}; the
                       stochastic regime evaluates div and dir
    seed               master seed (unsigned 64-bit)
    heatmap_mu         (s) fluctuation strength of the gain heatmap
                       (default 0.5)
    box_p, box_eta     (s) operating point of the realization panel
                       (defaults 0.8, 0.8)
    output_dir         optional default output directory

Stochastic-regime semantics: instantaneous realizations are unknown to
both endpoints, so the cloning asymmetry, mode selection and decoders
are designed on the *mean* channel (the only statistic available), as
the grid regimes design ``div``, and evaluated on each realization with
their realized acceptance probability.  The gain
heatmap column ``G`` compares conditional (success) fidelities of the
probabilistic and deterministic designs on the same realization, so the
p = 1 column is identically zero; ``G_avg`` carries the
average-fidelity accounting, and ``baseline.csv`` holds the
deterministic fidelity on the mean vectors themselves, with each
design's transmit and receive modes ``t`` and ``r``.  Realization
``realization_id`` of mean vector ``mean_id`` is drawn from seed
``derive_seed(seed, "stochastic", "xi", heatmap_mu, mean_id,
realization_id)`` (``"box-xi"`` and the panel's mu for the panel).  Every
output lists eta and mu ascending, whatever the config's order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import decoder as dec_mod
from .channel import ChannelParams, branch_fidelities, channel_choi, coupling_report
from .cloner import boundary_steps, feasible_boundary
from .errors import ConfigError, QumimoError
from .metrics import asymmetry_index, empirical_density
from .noise import (
    cluster_variance,
    derive_seed,
    make_rng,
    project_capped_simplex,
    sample_fluctuation,
    sample_mean_allocations,
)
from .strategies import STRATEGIES, FidelityRecord, run_strategies, select_modes, strategy_design

REGIMES = ("fixed_z", "scaling", "stochastic")
SYMMETRY_CLASSES = ("symmetric", "asymmetric")
SEED_RULE = "sha256('|'.join(repr(part) for part in (master_seed, *coords)))[:8 bytes, little-endian]"
CROSSTALK_NOTE = "P = (1 - eta) * I + eta * C; reporting-only mode-level mixing model"
# Tasks per pool task, their decoder SDPs solved as stacks.  With all
# five strategies (three solve SDPs) 8 grid tasks make stacks of up to 24
# problems per (K, p), where a K <= 4 problem costs a fifth to two fifths
# of a one-problem solve (CHANGES.md), and configs/fixed_z.json's 262
# tasks still split into 33 chunks to keep two workers evenly loaded; 8
# stochastic tasks (mean vectors, 5 eta each) make stacks of 40 per p.
TASK_CHUNK = 8


@dataclass(frozen=True)
class ExperimentConfig:
    regime: str
    n_list: tuple
    z_list: tuple
    lambda_x: tuple
    eta: tuple
    delta: float
    p: tuple
    mu: tuple
    heatmap_mu: Optional[float]
    box_p: Optional[float]
    box_eta: Optional[float]
    channel_symmetry: tuple
    num_mean_vectors: int
    num_realizations: int
    strategies: tuple
    seed: int
    output_dir: Optional[str]
    ignored_keys: tuple
    raw: dict = field(default_factory=dict, repr=False)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# A finite number that converts to a float: NaN, Infinity and an int
# beyond the float range (float(x) would raise) are rejected.
def _is_num(x) -> bool:
    return (_is_int(x) and abs(x) <= sys.float_info.max
            or isinstance(x, float) and math.isfinite(x))


def _one_of(names: tuple) -> tuple:
    return lambda x, v: x in names, f"one of {names}", False


# Checks of a config value or list entry: (accepts(x, the values checked
# so far), what it accepts, formatted with those values, read as a float).
_POSITIVE = (lambda x, v: _is_num(x) and x > 0, "a positive number", True)
_UNIT = (lambda x, v: _is_num(x) and 0 <= x <= 1, "a number in [0, 1]", True)
_PROB = (lambda x, v: _is_num(x) and 0 < x <= 1, "a number in (0, 1]", True)
_MODES = (lambda x, v: _is_int(x) and 1 <= x <= v["n_cap"],
          "an int in 1..{n_cap} (profile {profile})", False)
GRID = ("fixed_z", "scaling")
STOCHASTIC = ("stochastic",)
REQUIRED = object()
# The one list of config keys, in the order they are checked: (key, the
# regimes that check it, its default or REQUIRED, a nonempty list of
# distinct entries (else a scalar), the check).  N and Z have one row per
# regime group; a stochastic Z is checked against its N, before mu.  The
# cluster variance of a mean vector needs two realizations.
CONFIG_KEYS = (
    ("regime", REGIMES, REQUIRED, False, _one_of(REGIMES)),
    ("N", GRID, REQUIRED, True, _MODES),
    ("N", STOCHASTIC, REQUIRED, False, _MODES),
    ("Z", ("fixed_z",), REQUIRED, True, _POSITIVE),
    ("Z", STOCHASTIC, REQUIRED, False,
     (lambda x, v: _is_num(x) and 0 < x <= v["N"], "a number in (0, N] = (0, {N}]", True)),
    ("Lambda_x", ("scaling",), REQUIRED, True, _PROB),
    ("mu", STOCHASTIC, [0.25, 0.5, 0.75, 1.0], True, _POSITIVE),
    ("num_realizations", STOCHASTIC, 50, False,
     (lambda x, v: _is_int(x) and x >= 2, "an int >= 2", False)),
    ("eta", REGIMES, REQUIRED, True, _UNIT),
    ("delta", REGIMES, REQUIRED, False, _POSITIVE),
    ("p", REGIMES, REQUIRED, True, _PROB),
    ("channel_symmetry", GRID, ["asymmetric"], True, _one_of(SYMMETRY_CLASSES)),
    ("num_mean_vectors", REGIMES, 50, False,
     (lambda x, v: _is_int(x) and x >= 1, "a positive int", False)),
    ("strategies", GRID, list(STRATEGIES), True, _one_of(STRATEGIES)),
    ("seed", REGIMES, REQUIRED, False,
     (lambda x, v: _is_int(x) and 0 <= x < 2 ** 64, "an unsigned 64-bit int", False)),
    ("heatmap_mu", STOCHASTIC, 0.5, False, _POSITIVE),
    ("box_p", STOCHASTIC, 0.8, False, _PROB),
    ("box_eta", STOCHASTIC, 0.8, False, _UNIT),
    ("output_dir", REGIMES, None, False,
     (lambda x, v: x is None or isinstance(x, str), "a string path", False)),
)


def validate_config(cfg: dict, profile: str = "ci") -> ExperimentConfig:
    """Fail-fast validation against ``CONFIG_KEYS``, with JSON-path-precise
    messages: a key no row names is an error, a key of another regime is
    ignored and listed in ``ignored_keys``."""
    if profile not in ("ci", "full"):
        raise ConfigError("$profile", f"unknown profile {profile!r}")
    if not isinstance(cfg, dict):
        raise ConfigError("$", "config must be a JSON object")
    known = {row[0] for row in CONFIG_KEYS}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"$.{key}", "unknown key")

    v = {"n_cap": 4 if profile == "ci" else 5, "profile": profile}
    for key, regimes, default, is_list, (check, expected, as_float) in CONFIG_KEYS:
        if "regime" in v and v["regime"] not in regimes:
            continue
        value = cfg.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"$.{key}", "missing required key")
        expected = expected.format(**v)
        if not is_list:
            if not check(value, v):
                raise ConfigError(f"$.{key}", f"expected {expected}, got {value!r}")
            v[key] = float(value) if as_float else value
            continue
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"$.{key}", "expected a nonempty list")
        for i, x in enumerate(value):
            if not check(x, v):
                raise ConfigError(f"$.{key}[{i}]", f"expected {expected}, got {x!r}")
        value = tuple(float(x) if as_float else x for x in value)
        for i, x in enumerate(value):
            if x in value[:i]:
                raise ConfigError(f"$.{key}[{i}]", f"repeats an earlier entry, {x!r}")
        v[key] = value

    read = {key for key, regimes, *_ in CONFIG_KEYS if v["regime"] in regimes}
    as_tuple = lambda x: x if isinstance(x, tuple) else (x,)
    return ExperimentConfig(
        regime=v["regime"], n_list=as_tuple(v["N"]), z_list=as_tuple(v.get("Z", ())),
        lambda_x=v.get("Lambda_x", ()), eta=tuple(sorted(v["eta"])), delta=v["delta"], p=v["p"],
        mu=tuple(sorted(v.get("mu", ()))), heatmap_mu=v.get("heatmap_mu"), box_p=v.get("box_p"),
        box_eta=v.get("box_eta"), channel_symmetry=v.get("channel_symmetry", ()),
        num_mean_vectors=v["num_mean_vectors"], num_realizations=v.get("num_realizations", 0),
        strategies=v.get("strategies", ()), seed=v["seed"], output_dir=v["output_dir"],
        ignored_keys=tuple(sorted(set(cfg) - read)), raw=dict(cfg),
    )


def load_config(path, profile: str = "ci") -> ExperimentConfig:
    """The UTF-8 JSON config at ``path``; an unreadable file is a ``ConfigError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"$ (line {exc.lineno}, col {exc.colno})", exc.msg) from exc
    except (OSError, UnicodeDecodeError) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise ConfigError("$", f"cannot read {path}: {why}") from exc
    return validate_config(raw, profile=profile)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return "" if x is None else str(x)


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: fields joined by commas, CRLF line ends (no field
    holds a comma, quote or line break).  ``rows`` is a list of rows, fields
    by ``_fmt``, or a float64 array, by ``_fmt``'s ``%.12g`` per 4,096 rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if not isinstance(rows, np.ndarray):
            fh.writelines(",".join(map(_fmt, row)) + "\r\n" for row in rows)
            return
        line = ",".join(["%.12g"] * rows.shape[1]) + "\r\n"
        for block in np.split(rows, range(4096, len(rows), 4096)):
            fh.write("".join(line % tuple(row) for row in block.tolist()))


def _mean_se(values) -> tuple:
    """Sample mean and its standard error (0 for a single sample)."""
    x = np.array(values)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0


def _modes(modes) -> str:
    return ";".join(str(x) for x in modes)


def csv_header(m_max: int) -> list[str]:
    """The ``records.csv`` columns of the grid regimes.  A strategy computes
    the ``FidelityRecord`` fields; N, Z, regime, eta, delta, mean_id and
    seed are the run context ``run_grid_regime`` holds; mu and realization_id
    stay empty, which keeps the schema stable."""
    return [
        "strategy", "N", "M", "K", "Z", "regime", "eta", "delta", "p_target", "p_real", "mu",
        "mean_id", "realization_id", "F_avg", "J_index",
        *(f"gamma_{i + 1}" for i in range(m_max)), "t", "r", "seed",
    ]


def csv_row(rec: FidelityRecord, m_max: int, n, z, regime, eta, delta, mean_id, seed) -> list:
    """One ``records.csv`` row."""
    gammas = list(rec.gamma) + [None] * (m_max - len(rec.gamma))
    return [
        rec.strategy, n, rec.m, rec.k, z, regime, eta, delta, rec.p_target, rec.p_real,
        None, mean_id, None, rec.f_avg, rec.j_index, *gammas, _modes(rec.t), _modes(rec.r), seed,
    ]


def _channel(cfg: ExperimentConfig, eta: float, lam: tuple):
    return channel_choi(ChannelParams(n=len(lam), eta=eta, lam=lam, delta=cfg.delta))


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _mean_vectors(cfg: ExperimentConfig, sym: str, z: float, n: int) -> list:
    """The cell's mean vectors, one lambda tuple each."""
    # Seeded by (symmetry, Z, N) only, so regimes that land on the same
    # budget draw identical ensembles (scaling at Z = N * Lambda_x
    # coincides with fixed_z at that Z).
    if sym == "symmetric":
        return [tuple([z / n] * n)] * cfg.num_mean_vectors
    seed = derive_seed(cfg.seed, "means", sym, round(z, 12), n)
    return list(map(tuple, sample_mean_allocations(
        n, z, cfg.num_mean_vectors, make_rng(seed)).tolist()))


def _grid_cells(cfg: ExperimentConfig):
    cells, skipped = [], []
    for sym in cfg.channel_symmetry:
        if cfg.regime == "fixed_z":
            pairs = [(z, None) for z in cfg.z_list]
        else:
            pairs = [(None, lx) for lx in cfg.lambda_x]
        for z_fixed, lx in pairs:
            for n in cfg.n_list:
                z = float(z_fixed) if z_fixed is not None else round(n * lx, 12)
                if z > n + 1e-12:
                    skipped.append({"symmetry": sym, "Z": z, "N": n, "reason": "Z > N"})
                    continue
                for eta in cfg.eta:
                    cells.append((sym, z, lx, n, eta))
    return cells, skipped


def _eval_cells(tasks):
    """A chunk of (symmetry, Z, lambda_x, N, eta, lambda) tasks of a grid
    regime: one design per task and strategy, then the decoders of every
    task and p in one batched solve (``run_strategies``).  Each task's
    records come in p-major order (``dir`` only in the first p block).
    ``mean_id`` is the first mean vector of the cell with this lambda; it
    only names the task in an error."""
    jobs = []
    for cfg, *_, eta, _, lam in tasks:
        chan = _channel(cfg, eta, lam)
        jobs += [(s, chan, cfg.p) for s in cfg.strategies]
    by_job = iter(run_strategies(jobs))
    out = []
    for cfg, *_ in tasks:
        by_strategy = [next(by_job) for _ in cfg.strategies]
        out.append([recs[pi] for pi in range(len(cfg.p))
                    for recs in by_strategy if pi < len(recs)])
    return out


# Names of the task fields after the config, per pool worker.
_TASK_FIELDS = {
    "_eval_cells": ("symmetry", "Z", "lambda_x", "N", "eta", "mean_id", "lambda"),
    "_mean_vector_tasks": ("mean_id", "lambda", "Z"),
}


def _run_chunk(worker, chunk):
    """One pool task: ``worker`` on a chunk of tasks in one call.  On an
    error each task is run alone, and the first that fails is named with
    its coordinates: a task's arithmetic does not depend on the rest of its
    chunk, so it fails alone as it failed there."""
    try:
        return worker(chunk)
    except Exception as exc:
        name = worker.__name__
        for task in chunk:
            try:
                worker([task])
            except Exception as alone:
                coords = ", ".join(f"{k}={v!r}" for k, v in zip(_TASK_FIELDS[name], task[1:]))
                raise QumimoError(
                    f"{name}({coords}) failed: {type(alone).__name__}: {alone}") from alone
        raise QumimoError(f"a chunk of {len(chunk)} {name} tasks failed, and none of them "
                          f"fails alone: {type(exc).__name__}: {exc}") from exc


def _run_chunks(worker, tasks, workers: int) -> list:
    """``worker``'s output for every task, in order.  A pool task is a chunk
    of at most ``TASK_CHUNK`` tasks (``_run_chunk``), and no worker is left
    without one."""
    size = max(1, min(TASK_CHUNK, -(-len(tasks) // workers)))
    chunks = [tasks[lo:lo + size] for lo in range(0, len(tasks), size)]
    run = functools.partial(_run_chunk, worker)
    return [out for outs in _run_pool(chunks, run, workers) for out in outs]


def _run_pool(tasks, run, workers: int):
    """``run`` on every task, in order, on at most ``workers`` processes and
    never more processes than tasks (a forking pool starts all of them at
    once)."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [run(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, tasks, chunksize=1))


def _write_crosstalk_csv(path, cfg: ExperimentConfig) -> None:
    rows = []
    for n in sorted(set(cfg.n_list)):
        if n < 2:
            continue
        for eta in cfg.eta:
            p_mat = coupling_report(ChannelParams(n=n, eta=eta, lam=(0.0,) * n, delta=cfg.delta))
            for i in range(n):
                for j in range(n):
                    rows.append([n, eta, cfg.delta, i + 1, j + 1, p_mat[i, j]])
    _write_csv(path, ["N", "eta", "delta", "i", "j", "P_ij"], rows)


def _write_manifest(out_dir: Path, files, fields: dict) -> dict:
    """The one manifest writer: ``fields`` and the SHA-256 of each of
    ``files``, in ``manifest.json``."""
    manifest = dict(fields, files={name: _hash_file(out_dir / name) for name in sorted(files)})
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _start(cfg: ExperimentConfig, out_dir):
    """A regime run's output directory and start time; the config keys it
    ignores are named on stderr."""
    if cfg.ignored_keys:
        print(f"qumimo {cfg.regime}: ignored config keys of other regimes: "
              f"{', '.join(cfg.ignored_keys)}", file=sys.stderr)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, time.time()


def _finish(cfg: ExperimentConfig, out_dir, files, t0, extra=None) -> dict:
    return _write_manifest(out_dir, files, {
        "package_version": __version__,
        "regime": cfg.regime,
        "config": cfg.raw,
        "master_seed": cfg.seed,
        "task_seed_rule": SEED_RULE,
        "notes": {"crosstalk": CROSSTALK_NOTE},
        "ignored_keys": list(cfg.ignored_keys),
        **(extra or {}),
        "timing": {"wall_clock_seconds": time.time() - t0, "finished_unix": time.time()},
    })


def run_grid_regime(cfg: ExperimentConfig, out_dir, workers: int = 1) -> dict:
    """Shared driver for the fixed_z and scaling regimes."""
    out_dir, t0 = _start(cfg, out_dir)

    # One task per distinct channel of a cell, run at the first mean_id
    # that draws it: a symmetric cell draws one lambda for every mean_id,
    # and asymmetric draws can repeat (N = 1, or clipped at Z near N).
    # Its records serve every mean_id that draws the same lambda.
    cells, skipped = _grid_cells(cfg)
    tasks, mean_ids = [], []
    for sym, z, lx, n, eta in cells:
        task_of = {}
        for mean_id, lam in enumerate(_mean_vectors(cfg, sym, z, n)):
            if lam not in task_of:
                task_of[lam] = len(tasks)
                tasks.append((cfg, sym, z, lx, n, eta, mean_id, lam))
                mean_ids.append([])
            mean_ids[task_of[lam]].append(mean_id)
    # The decoders of a chunk of tasks are solved together.  A run holds
    # one regime, so lambda_x is None on every key or a float on every key.
    records = _run_chunks(_eval_cells, tasks, workers)
    results = sorted(
        ((task[1:6] + (mean_id,), recs)
         for task, ids, recs in zip(tasks, mean_ids, records) for mean_id in ids),
        key=lambda kr: kr[0],
    )

    # records.csv in its run context, and the records grouped per cell
    # and strategy for the aggregates.
    m_max = max(cfg.n_list)
    rows, groups = [], {}
    for (sym, z, lx, n, eta, mean_id), recs in results:
        seed = derive_seed(cfg.seed, cfg.regime, sym, round(z, 12), n, eta, mean_id)
        for rec in recs:
            rows.append(csv_row(rec, m_max, n, z, cfg.regime, eta, cfg.delta, mean_id, seed))
            groups.setdefault((sym, z, lx, n, eta, rec.p_target, rec.strategy), []).append(rec)
    _write_csv(out_dir / "records.csv", csv_header(m_max), rows)

    agg_rows = []
    for gkey in sorted(groups, key=_agg_sort_key):
        recs = groups[gkey]
        sym, z, lx, n, eta, p, strategy = gkey
        f_mean, f_se = _mean_se([r.f_avg for r in recs])
        agg_rows.append([
            sym, z, lx, n, n, eta, p, strategy, f_mean, f_se,
            float(np.mean([r.f_success for r in recs])),
            float(np.mean([r.j_index for r in recs])), len(recs),
        ])
    _write_csv(
        out_dir / "aggregate.csv",
        ["symmetry", "Z", "lambda_x", "N", "M", "eta", "p", "strategy",
         "F_avg_mean", "F_avg_se", "F_success_mean", "J_mean", "n_samples"],
        agg_rows,
    )

    files = ["records.csv", "aggregate.csv"]

    # Asymmetry-index densities of the adaptive strategy.
    if "div" in cfg.strategies:
        dens_rows = []
        for gkey in sorted(groups, key=_agg_sort_key):
            sym, z, lx, n, eta, p, strategy = gkey
            if strategy != "div" or n < 2:
                continue
            js = [r.j_index for r in groups[gkey]]
            if len(js) < 2:
                continue
            grid, dens = empirical_density(js, (1.0 / n, 1.0))
            for x, d in zip(grid, dens):
                dens_rows.append([sym, z, lx, n, eta, p, x, d])
        _write_csv(
            out_dir / "jdensity.csv",
            ["symmetry", "Z", "lambda_x", "N", "eta", "p", "x", "density"],
            dens_rows,
        )
        files.append("jdensity.csv")

    if max(cfg.n_list) >= 2:
        _write_crosstalk_csv(out_dir / "crosstalk.csv", cfg)
        files.append("crosstalk.csv")

    return _finish(cfg, out_dir, files, t0, extra={"skipped_cells": skipped})


def _agg_sort_key(gkey):
    return gkey[:-1] + (STRATEGIES.index(gkey[-1]),)


# ---------------------------------------------------------------------------
# Stochastic regime


def _realizations(cfg: ExperimentConfig, lam: tuple, z: float, mean_id: int, mu: float,
                  tag: str) -> np.ndarray:
    """The realizations around the mean vector ``lam`` (total ``z``) at
    strength mu, the heatmap's (tag ``"xi"``) or the panel's
    (``"box-xi"``): row ``rid`` is the mean times the fluctuation drawn
    from its own seed; the rows are projected onto the capped simplex in
    one call."""
    xi = np.array([sample_fluctuation(
        mu, len(lam), make_rng(derive_seed(cfg.seed, "stochastic", tag, mu, mean_id, rid)))
        for rid in range(cfg.num_realizations)])
    return project_capped_simplex(np.asarray(lam) * xi, z)


def _mean_vector_tasks(tasks):
    """A chunk of mean-vector tasks of the stochastic regime: the ``div``
    design on each mean channel at every eta, then the decoders of every
    design and p in one batched solve.  Per task: per eta, its
    ``baseline.csv`` row and its gain samples on its realizations (drawn
    once) as one float64 array in (realization, p) order, from one
    ``decoder.realized_values`` call; its cluster variances per mu; and
    mean vector 0's panel, else None."""
    cfg = tasks[0][0]
    p_eval = tuple(sorted(set(cfg.p) | {1.0}))
    chans = [_channel(cfg, eta, lam) for _, _, lam, _ in tasks for eta in cfg.eta]
    designs = [strategy_design("div", chan) for chan in chans]
    sols = iter(dec_mod.purification_sdps((d.qr, p) for d in designs for p in p_eval))
    designed, out = iter(zip(chans, designs)), []
    for cfg, mean_id, lam, z in tasks:
        lams = _realizations(cfg, lam, z, mean_id, cfg.heatmap_mu, "xi")
        heat = []
        for eta, (chan, design) in zip(cfg.eta, designed):
            js = [next(sols).j for _ in p_eval]
            # The p = 1 decoder (p_eval's last) on the cascade it was designed on.
            _, base_fs, base_favg = dec_mod.evaluate_decoder(js[-1], design.qr)
            baseline_row = [eta, mean_id, base_fs, base_favg, asymmetry_index(
                design.enc.fidelities), *design.gamma, _modes(design.t), _modes(design.r)]
            p_real, fs, favg = dec_mod.realized_values(design, chan, lams, js)
            cols = (eta, np.array(p_eval), mean_id, np.arange(len(lams))[:, None],
                    fs - fs[:, -1:], favg - favg[:, -1:], fs, favg, p_real)
            heat.append((baseline_row, np.stack(np.broadcast_arrays(*cols), -1).reshape(-1, 9)))
        clusters = [(mu, _realizations(cfg, lam, z, mean_id, mu, "box-xi")) for mu in cfg.mu]
        cvs = [cluster_variance(lam, cluster) for _, cluster in clusters]
        out.append((heat, cvs, _panel(cfg, lam, clusters) if mean_id == 0 else None))
    return out


def _panel(cfg: ExperimentConfig, lam: tuple, clusters) -> tuple:
    """The realization panel around the mean vector ``lam``: one ``div``
    design and decoder at the box operating point, evaluated on its
    clusters, one per mu, in one ``decoder.realized_values`` call.  Its
    ``boxplot.csv`` and ``allocations.csv`` rows."""
    chan = _channel(cfg, cfg.box_eta, lam)
    design = strategy_design("div", chan)
    [dec] = dec_mod.purification_sdps([(design.qr, cfg.box_p)])
    (t_dir,), (r_dir,) = select_modes(chan, 1)
    lams = np.concatenate([cluster for _, cluster in clusters])
    values = iter(dec_mod.realized_values(design, chan, lams, [dec.j])[:, :, 0].T.tolist())
    box_rows, alloc_rows = [], [[0, "", 0.0, *lam]]
    for mu, cluster in clusters:
        for rid, row in enumerate(cluster.tolist()):
            p_real, fs, favg = next(values)
            f_dir = branch_fidelities(_channel(cfg, cfg.box_eta, tuple(row)))[t_dir - 1, r_dir - 1]
            box_rows.append([mu, rid, float(f_dir), fs, favg, p_real])
            alloc_rows.append([0, rid, mu, *row])
    return box_rows, alloc_rows


def run_stochastic(cfg: ExperimentConfig, out_dir, workers: int = 1) -> dict:
    if cfg.regime != "stochastic":
        raise ConfigError("$.regime", f"expected stochastic, got {cfg.regime}")
    out_dir, t0 = _start(cfg, out_dir)

    n, z = cfg.n_list[0], cfg.z_list[0]
    means = _mean_vectors(cfg, "asymmetric", z, n)
    heats, cvs, panels = zip(*_run_chunks(
        _mean_vector_tasks, [(cfg, mean_id, lam, z) for mean_id, lam in enumerate(means)],
        workers))

    files = []

    def write(name, header, rows):
        _write_csv(out_dir / name, header, rows)
        files.append(name)

    # Baseline rows and gain samples in (eta, mean_id) order; the gain
    # heatmap over (p, eta) grids, at the p every task evaluates (the
    # config's and 1), read from the first task's samples.
    by_eta = [heat[i] for i in range(len(cfg.eta)) for heat in heats]
    gains = np.concatenate([samples for _, samples in by_eta])
    p_eval = sorted(set(by_eta[0][1][:, 1].tolist()))
    heat_rows = []
    for eta in cfg.eta:
        for p in p_eval:
            sel = gains[(gains[:, 0] == eta) & (gains[:, 1] == p)]
            g_mean, g_se = _mean_se(sel[:, 4])
            heat_rows.append([p, eta, g_mean, g_se, float(np.mean(sel[:, 5])), len(sel)])
    write("gain_heatmap.csv", ["p", "eta", "G", "G_se", "G_avg", "n_samples"], heat_rows)
    write("gain_samples.csv", ["eta", "p", "mean_id", "realization_id", "G", "G_avg",
                               "F_success", "F_avg", "p_real"], gains)
    write("baseline.csv", ["eta", "mean_id", "F_success_p1", "F_avg_p1", "J_index"]
          + [f"gamma_{i + 1}" for i in range(n)] + ["t", "r"], [row for row, _ in by_eta])

    # Every mean vector's cluster variances and their densities; mean
    # vector 0's panel and allocations.csv.
    box_rows, alloc_rows = panels[0]
    write("boxplot.csv", ["mu", "realization_id", "F_dir", "F_div_success", "F_div_avg",
                          "p_real"], box_rows)
    write("cluster_variance.csv", ["mean_id", "mu", "v"],
          [[mean_id, mu, task_cvs[i]] for i, mu in enumerate(cfg.mu)
           for mean_id, task_cvs in enumerate(cvs)])
    kde_rows = []
    for mu, vals in zip(cfg.mu, zip(*cvs)):
        if len(vals) >= 2:
            grid, dens = empirical_density(vals, (0.0, max(max(vals) * 1.05, 1e-6)))
            kde_rows += [[mu, x, d] for x, d in zip(grid, dens)]
    write("cv_kde.csv", ["mu", "x", "density"], kde_rows)
    write("allocations.csv", ["mean_id", "realization_id", "mu"]
          + [f"lambda_{i + 1}" for i in range(n)], alloc_rows)
    if n >= 2:
        _write_crosstalk_csv(out_dir / "crosstalk.csv", cfg)
        files.append("crosstalk.csv")
    return _finish(cfg, out_dir, files, t0)


def run_boundary(out_dir, m_values=(2, 3), resolution: float = 0.05) -> dict:
    """Cloning trade-off surfaces as CSV, one file per clone count; every
    surface is built, and its arguments checked, before any output.  The
    manifest records the grid step sampled, ``1 / boundary_steps``."""
    surfaces = {m: feasible_boundary(m, resolution) for m in m_values}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for m, surface in surfaces.items():
        rows = [list(fv.gamma.gamma) + list(fv.fidelities) for fv in surface]
        name = f"boundary_M{m}.csv"
        _write_csv(
            out_dir / name,
            [f"gamma_{i + 1}" for i in range(m)] + [f"F_{i + 1}" for i in range(m)],
            rows,
        )
        files.append(name)
    return _write_manifest(out_dir, files, {
        "package_version": __version__, "emitter": "boundary",
        "resolution": 1 / boundary_steps(resolution),
    })
