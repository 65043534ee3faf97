"""Reproducible experiment runner for the three operating regimes.

``run_grid_regime`` drives the fixed_z and scaling regimes and
``run_stochastic`` the stochastic one; both write every CSV through
``_write_csv`` and a manifest (``_write_manifest``).  One design per
channel, decoders per p: a design (``decoder.Design``: the asymmetry, the
cloner, the modes and the cascade operators) does not depend on p, so a
task builds it once, through ``strategies.strategy_design`` in both
regimes, and solves one decoder SDP per p; the realization panel is
designed once for every mu.  A grid task is one
distinct channel of a cell: a symmetric cell is one channel for every
mean vector (as are most N = 1 draws), evaluated once at its first
mean_id, and its rows are written once per mean_id with that mean_id's
seed.  A pool task is a chunk of up to ``TASK_CHUNK`` grid tasks, whose
designs are built first and whose decoder SDPs are then solved in one
batched call (``strategies.run_strategies``); a task's arithmetic does not
depend on its chunk, so the bytes do not depend on the worker count.  The
strategies return only what they compute; ``run_grid_regime`` holds the
run context and writes it into ``records.csv`` (``csv_header``).
``run_stochastic`` writes each gain sample once, in ``gain_samples.csv``.
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
realization_id)`` (``"box-xi"`` and the panel's mu for the panel).
"""

from __future__ import annotations

import csv
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
from .cloner import feasible_boundary
from .errors import ConfigError, QumimoError
from .metrics import asymmetry_index, empirical_density
from .noise import (
    MeanAllocation,
    cluster_variance,
    derive_seed,
    make_rng,
    perturb_and_project,
    sample_fluctuation,
    sample_mean_allocations,
)
from .strategies import STRATEGIES, FidelityRecord, run_strategies, select_modes, strategy_design

REGIMES = ("fixed_z", "scaling", "stochastic")
SYMMETRY_CLASSES = ("symmetric", "asymmetric")
SEED_RULE = "sha256('|'.join(repr(part) for part in (master_seed, *coords)))[:8 bytes, little-endian]"
CROSSTALK_NOTE = "P = (1 - eta) * I + eta * C; reporting-only mode-level mixing model"
# Grid tasks per pool task, their decoder SDPs solved as stacks.  With
# all five strategies (three solve SDPs) 8 tasks make stacks of up to 24
# problems per (K, p), where a K <= 4 problem costs a fifth to two fifths
# of a one-problem solve (CHANGES.md), and configs/fixed_z.json's 262
# tasks still split into 33 chunks to keep two workers evenly loaded.
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
        lambda_x=v.get("Lambda_x", ()), eta=v["eta"], delta=v["delta"], p=v["p"],
        mu=v.get("mu", ()), heatmap_mu=v.get("heatmap_mu"), box_p=v.get("box_p"),
        box_eta=v.get("box_eta"), channel_symmetry=v.get("channel_symmetry", ()),
        num_mean_vectors=v["num_mean_vectors"], num_realizations=v.get("num_realizations", 0),
        strategies=v.get("strategies", ()), seed=v["seed"], output_dir=v["output_dir"],
        ignored_keys=tuple(sorted(set(cfg) - read)), raw=dict(cfg),
    )


def load_config(path, profile: str = "ci") -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"$ (line {exc.lineno}, col {exc.colno})", exc.msg) from exc
    return validate_config(raw, profile=profile)


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: floats as ``.12g``, ``None`` as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


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


def _mean_vectors(cfg: ExperimentConfig, sym: str, z: float, n: int):
    # Seeded by (symmetry, Z, N) only, so regimes that land on the same
    # budget draw identical ensembles (scaling at Z = N * Lambda_x
    # coincides with fixed_z at that Z).
    if sym == "symmetric":
        lam = tuple([z / n] * n)
        return [MeanAllocation(lam=lam, z=z)] * cfg.num_mean_vectors
    seed = derive_seed(cfg.seed, "means", sym, round(z, 12), n)
    return sample_mean_allocations(n, z, cfg.num_mean_vectors, make_rng(seed))


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


def _eval_cell(task):
    """One grid task alone."""
    return _eval_cells([task])[0]


# Names of the task fields after the config, per pool worker.
_TASK_FIELDS = {
    "_eval_cell": ("symmetry", "Z", "lambda_x", "N", "eta", "mean_id", "lambda"),
    "_stochastic_task": ("eta", "mean_id", "lambda", "Z"),
    "_boxplot_task": ("mean_id", "lambda", "Z"),
}


def _run_task(worker, task):
    """Run one task; an error is re-raised naming the task."""
    try:
        return worker(task)
    except Exception as exc:
        name = worker.__name__
        coords = ", ".join(f"{k}={v!r}" for k, v in zip(_TASK_FIELDS[name], task[1:]))
        raise QumimoError(f"{name}({coords}) failed: {type(exc).__name__}: {exc}") from exc


def _run_chunk(chunk):
    """One pool task of a grid regime: a chunk of grid tasks in one call.
    On an error each task is run alone, and the first that fails is named:
    a task's arithmetic does not depend on the rest of its chunk, so it
    fails alone as it failed there."""
    try:
        return _eval_cells(chunk)
    except Exception as exc:
        for task in chunk:
            _run_task(_eval_cell, task)
        raise QumimoError(f"a chunk of {len(chunk)} grid tasks failed, and none of them "
                          f"fails alone: {type(exc).__name__}: {exc}") from exc


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
        for mean_id, mean in enumerate(_mean_vectors(cfg, sym, z, n)):
            if mean.lam not in task_of:
                task_of[mean.lam] = len(tasks)
                tasks.append((cfg, sym, z, lx, n, eta, mean_id, mean.lam))
                mean_ids.append([])
            mean_ids[task_of[mean.lam]].append(mean_id)
    # A pool task is a chunk of at most TASK_CHUNK grid tasks, whose
    # decoders are solved together, and no worker is left without one.
    size = max(1, min(TASK_CHUNK, -(-len(tasks) // workers)))
    chunks = [tasks[lo:lo + size] for lo in range(0, len(tasks), size)]
    records = [recs for out in _run_pool(chunks, _run_chunk, workers) for recs in out]
    results = sorted(
        ((task[1:6] + (mean_id,), recs)
         for task, ids, recs in zip(tasks, mean_ids, records) for mean_id in ids),
        key=lambda kr: _cell_sort_key(kr[0]),
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
            sym, z, "" if lx is None else lx, n, n, eta, p, strategy, f_mean, f_se,
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
                dens_rows.append([sym, z, "" if lx is None else lx, n, eta, p, x, d])
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


def _cell_sort_key(key):
    sym, z, lx, n, eta, mean_id = key
    return (sym, z, -1.0 if lx is None else lx, n, eta, mean_id)


def _agg_sort_key(gkey):
    sym, z, lx, n, eta, p, strategy = gkey
    return (sym, z, -1.0 if lx is None else lx, n, eta, p, STRATEGIES.index(strategy))


# ---------------------------------------------------------------------------
# Stochastic regime


def _design_on_mean(cfg: ExperimentConfig, eta: float, mean: MeanAllocation, p_eval):
    """The ``div`` design on the mean channel (``strategies.strategy_design``)
    and its decoders, one per p."""
    design = strategy_design("div", _channel(cfg, eta, mean.lam))
    return design, dict(zip(p_eval, dec_mod.purification_sdps((design.qr, p) for p in p_eval)))


def _realized_cascade(design: dec_mod.Design, chan_x):
    """The cascade of a design's cloner and modes on the channel ``chan_x``
    of one realization."""
    return dec_mod.build_qr(dec_mod.compose_effective_map(design.enc, chan_x, design.t, design.r))


def _stochastic_task(args):
    """The heatmap rows of one (eta, mean vector): its ``baseline.csv`` row
    and its gain samples."""
    cfg, eta, mean_id, lam, z = args
    mean = MeanAllocation(lam=lam, z=z)
    p_eval = tuple(sorted(set(cfg.p) | {1.0}))
    design, decoders = _design_on_mean(cfg, eta, mean, p_eval)

    # The p = 1 decoder on the cascade it was designed on.
    _, base_fs, base_favg = dec_mod.evaluate_decoder(decoders[1.0].j, design.qr)
    baseline_row = [eta, mean_id, base_fs, base_favg, asymmetry_index(design.enc.fidelities),
                    *design.gamma, _modes(design.t), _modes(design.r)]

    rows = []
    for rid in range(cfg.num_realizations):
        seed = derive_seed(cfg.seed, "stochastic", "xi", cfg.heatmap_mu, mean_id, rid)
        xi = sample_fluctuation(cfg.heatmap_mu, mean.n, make_rng(seed))
        qr_x = _realized_cascade(design, _channel(cfg, eta, perturb_and_project(mean, xi).lam))
        evals = {p: dec_mod.evaluate_decoder(dec.j, qr_x) for p, dec in decoders.items()}
        p1_real, p1_fs, p1_favg = evals[1.0]
        for p in p_eval:
            p_real, fs, favg = evals[p]
            rows.append([eta, p, mean_id, rid, fs - p1_fs, favg - p1_favg, fs, favg, p_real])
    # The realization panel's design, when this task already made it.
    box = None
    if eta == cfg.box_eta and mean_id == 0 and cfg.box_p in p_eval:
        box = design, decoders
    return (eta, mean_id), baseline_row, rows, box


def _box_realizations(cfg: ExperimentConfig, mean: MeanAllocation, mean_id: int, mu: float):
    """Realizations of the panel around one mean vector at strength mu."""
    cluster = []
    for rid in range(cfg.num_realizations):
        seed = derive_seed(cfg.seed, "stochastic", "box-xi", mu, mean_id, rid)
        cluster.append(perturb_and_project(mean, sample_fluctuation(mu, mean.n, make_rng(seed))))
    return cluster


def _boxplot_task(args):
    """The realization panel around one mean vector: one design at the
    box operating point (made here unless a heatmap task passed it in),
    evaluated on the realizations of every mu."""
    cfg, mean_id, lam, z, box = args
    mean = MeanAllocation(lam=lam, z=z)
    design, decoders = box or _design_on_mean(cfg, cfg.box_eta, mean, (cfg.box_p,))
    (t_dir,), (r_dir,) = select_modes(_channel(cfg, cfg.box_eta, lam), 1)
    panels = []
    for mu in sorted(cfg.mu):
        cluster = _box_realizations(cfg, mean, mean_id, mu)
        rows = []
        for rid, x in enumerate(cluster):
            chan_x = _channel(cfg, cfg.box_eta, x.lam)
            qr_x = _realized_cascade(design, chan_x)
            p_real, fs, favg = dec_mod.evaluate_decoder(decoders[cfg.box_p].j, qr_x)
            f_dir = float(branch_fidelities(chan_x)[t_dir - 1, r_dir - 1])
            rows.append([mu, rid, f_dir, fs, favg, p_real])
        panels.append((mu, rows, cluster))
    return panels


def run_stochastic(cfg: ExperimentConfig, out_dir, workers: int = 1) -> dict:
    if cfg.regime != "stochastic":
        raise ConfigError("$.regime", f"expected stochastic, got {cfg.regime}")
    out_dir, t0 = _start(cfg, out_dir)

    n = cfg.n_list[0]
    z = cfg.z_list[0]
    means = _mean_vectors(cfg, "asymmetric", z, n)

    # Gain heatmap over (p, eta) grids.
    tasks = [
        (cfg, eta, mean_id, mean.lam, z)
        for eta in cfg.eta
        for mean_id, mean in enumerate(means)
    ]
    results = _run_pool(tasks, functools.partial(_run_task, _stochastic_task), workers)
    results.sort(key=lambda out: out[0])

    baseline_rows = [res[1] for res in results]
    gain_rows = [row for res in results for row in res[2]]

    # Gain samples per (eta, p), in row order.
    by_cell: dict = {}
    for row in gain_rows:
        by_cell.setdefault((row[0], row[1]), []).append(row)
    p_eval = tuple(sorted(set(cfg.p) | {1.0}))
    heat_rows = []
    for eta in cfg.eta:
        for p in p_eval:
            sel = by_cell[eta, p]
            g_mean, g_se = _mean_se([r[4] for r in sel])
            heat_rows.append([p, eta, g_mean, g_se, float(np.mean([r[5] for r in sel])), len(sel)])
    _write_csv(
        out_dir / "gain_heatmap.csv",
        ["p", "eta", "G", "G_se", "G_avg", "n_samples"], heat_rows,
    )
    _write_csv(
        out_dir / "gain_samples.csv",
        ["eta", "p", "mean_id", "realization_id", "G", "G_avg",
         "F_success", "F_avg", "p_real"],
        gain_rows,
    )
    _write_csv(
        out_dir / "baseline.csv",
        ["eta", "mean_id", "F_success_p1", "F_avg_p1", "J_index"]
        + [f"gamma_{i + 1}" for i in range(n)] + ["t", "r"],
        baseline_rows,
    )

    # Realization panel at the box operating point, mean vector 0.
    box = next((res[3] for res in results if res[3] is not None), None)
    panels = _run_task(_boxplot_task, (cfg, 0, means[0].lam, z, box))
    box_rows, alloc_rows, kde_rows = [], [[0, "", 0.0, *means[0].lam]], []
    for mu, rows, cluster in panels:
        box_rows.extend(rows)
        for rid, x in enumerate(cluster):
            alloc_rows.append([0, rid, mu, *x.lam])
    # Cluster variances of every mean vector, and their density per mu.
    cv_rows = [[mean_id, mu, cluster_variance(mean, _box_realizations(cfg, mean, mean_id, mu))]
               for mu in sorted(cfg.mu) for mean_id, mean in enumerate(means)]
    for mu in cfg.mu:
        vals = [v for _, mu_v, v in cv_rows if mu_v == mu]
        if len(vals) >= 2:
            hi = max(max(vals) * 1.05, 1e-6)
            grid, dens = empirical_density(vals, (0.0, hi))
            for x, d in zip(grid, dens):
                kde_rows.append([mu, x, d])

    _write_csv(
        out_dir / "boxplot.csv",
        ["mu", "realization_id", "F_dir", "F_div_success", "F_div_avg", "p_real"],
        box_rows,
    )
    _write_csv(out_dir / "cluster_variance.csv", ["mean_id", "mu", "v"], cv_rows)
    _write_csv(out_dir / "cv_kde.csv", ["mu", "x", "density"], kde_rows)
    _write_csv(
        out_dir / "allocations.csv",
        ["mean_id", "realization_id", "mu"] + [f"lambda_{i + 1}" for i in range(n)],
        alloc_rows,
    )

    files = [
        "gain_heatmap.csv", "gain_samples.csv", "baseline.csv", "boxplot.csv",
        "cluster_variance.csv", "cv_kde.csv", "allocations.csv",
    ]
    if n >= 2:
        _write_crosstalk_csv(out_dir / "crosstalk.csv", cfg)
        files.append("crosstalk.csv")
    return _finish(cfg, out_dir, files, t0)


def run_boundary(out_dir, m_values=(2, 3), resolution: float = 0.05) -> dict:
    """Cloning trade-off surfaces as CSV, one file per clone count."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for m in m_values:
        rows = []
        for fv in feasible_boundary(m, resolution):
            rows.append(list(fv.gamma.gamma) + list(fv.fidelities))
        name = f"boundary_M{m}.csv"
        _write_csv(
            out_dir / name,
            [f"gamma_{i + 1}" for i in range(m)] + [f"F_{i + 1}" for i in range(m)],
            rows,
        )
        files.append(name)
    return _write_manifest(out_dir, files, {
        "package_version": __version__, "emitter": "boundary", "resolution": resolution,
    })
