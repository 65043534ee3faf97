"""Span tracing of qumimo's layers from outside the package.

`Tracer.install` wraps the public functions listed in `TARGETS`.  Several
of them are imported by name into other modules (`cloner_choi` into
`decoder`, `strategies` and `experiments`; `channel_choi` into
`strategies` and `experiments`; `run_strategy` and `select_modes` into
`experiments`), so every binding of the function object in any loaded
`qumimo` module is replaced, not only the one in the defining module.
Calls made through a module attribute (`sdp.solve`, `dec_mod.build_qr`)
go through the same wrapper.

Each span records its name, start, end, parent span and one attribute
(`sdp.solve`: iterations and whether the solve was soft-accepted;
`strategies.run_strategy`: the strategy).  Spans are kept in memory and
written out with `write`.  A span's self time is its duration minus the
time its child spans cover; the process is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time

TARGETS = (
    ("sdp", "solve"),
    ("cloner", "cloner_choi"),
    ("channel", "channel_choi"),
    ("decoder", "compose_effective_map"),
    ("decoder", "build_qr"),
    ("decoder", "rayleigh_bound"),
    ("decoder", "purification_sdp"),
    ("decoder", "evaluate_gamma_surrogate"),
    ("decoder", "optimize_gamma"),
    ("strategies", "select_modes"),
    ("strategies", "run_strategy"),
    ("experiments", "run_grid_regime"),
    ("noise", "sample_mean_allocations"),
)

STRATEGIES = ("dir", "pur", "div", "sym", "blind")
SOFT_ACCEPT = "relaxed tolerance"

NAME, START, END, PARENT, ATTR = range(5)


def _attr(name, args, kwargs, out):
    if name == "sdp.solve":
        return (out.iterations, SOFT_ACCEPT in (out.message or ""))
    if name == "strategies.run_strategy":
        return args[0] if args else kwargs.get("strategy")
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[ATTR] = _attr(name, args, kwargs, out)
            return out

        return wrapped

    def install(self) -> None:
        """Wrap every target and rebind it wherever a qumimo module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qumimo" or n.startswith("qumimo."))]
        for layer, attr in TARGETS:
            home = sys.modules.get(f"qumimo.{layer}")
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{layer}.{attr}", fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "attr"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                writer.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                                 s[PARENT], "" if s[ATTR] is None else s[ATTR]])

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        dur = [s[END] - s[START] for s in spans]
        self_time = [d - c for d, c in zip(dur, child_time)]

        def sel(name):
            return [i for i, s in enumerate(spans) if s[NAME] == name]

        def parent_layer(i):
            p = spans[i][PARENT]
            return spans[p][NAME].split(".")[0] if p >= 0 else ""

        def outermost(prefix):
            # Spans of a layer not nested in another span of the same layer.
            out = []
            for i, s in enumerate(spans):
                if s[NAME].startswith(prefix):
                    p = s[PARENT]
                    while p >= 0 and not spans[p][NAME].startswith(prefix):
                        p = spans[p][PARENT]
                    if p < 0:
                        out.append(i)
            return out

        def solve_info(i):
            return spans[i][ATTR] or (0, False)

        m: dict = {}
        solves = sel("sdp.solve")
        choi = sel("cloner.cloner_choi")
        cloner_solves = [i for i in solves if parent_layer(i) == "cloner"]
        m["cloner.choi_calls"] = (len(choi), "count")
        m["cloner.choi_sdp_solves"] = (len(cloner_solves), "count")
        m["cloner.cache_hit_ratio"] = (
            1.0 - len(cloner_solves) / len(choi) if choi else 0.0, "ratio")
        m["cloner.choi_busy_s"] = (sum(dur[i] for i in choi), "s")
        m["cloner.choi_self_s"] = (sum(self_time[i] for i in choi), "s")

        def sdp_block(prefix, idx):
            m[f"{prefix}solves"] = (len(idx), "count")
            m[f"{prefix}iterations"] = (sum(solve_info(i)[0] for i in idx), "count")
            m[f"{prefix}busy_s"] = (sum(dur[i] for i in idx), "s")

        sdp_block("sdp.", solves)
        sdp_block("sdp.cloner_", cloner_solves)
        sdp_block("sdp.decoder_", [i for i in solves if parent_layer(i) == "decoder"])
        m["sdp.soft_accepts"] = (sum(1 for i in solves if solve_info(i)[1]), "count")

        pur = sel("decoder.purification_sdp")
        m["decoder.purification_calls"] = (len(pur), "count")
        m["decoder.purification_busy_s"] = (sum(dur[i] for i in pur), "s")
        m["decoder.purification_self_s"] = (sum(self_time[i] for i in pur), "s")
        pur_set = set(pur)
        m["decoder.purification_iterations"] = (
            sum(solve_info(i)[0] for i in solves if spans[i][PARENT] in pur_set), "count")
        compose = sel("decoder.compose_effective_map")
        m["decoder.compose_calls"] = (len(compose), "count")
        m["decoder.compose_busy_s"] = (sum(dur[i] for i in compose), "s")
        m["decoder.build_qr_busy_s"] = (sum(dur[i] for i in sel("decoder.build_qr")), "s")
        rayleigh = sel("decoder.rayleigh_bound")
        m["decoder.rayleigh_calls"] = (len(rayleigh), "count")
        m["decoder.rayleigh_busy_s"] = (sum(dur[i] for i in rayleigh), "s")
        m["decoder.surrogate_evals"] = (len(sel("decoder.evaluate_gamma_surrogate")), "count")
        opt = sel("decoder.optimize_gamma")
        m["decoder.optimize_gamma_calls"] = (len(opt), "count")
        m["decoder.optimize_gamma_self_s"] = (sum(self_time[i] for i in opt), "s")

        chan = sel("channel.channel_choi")
        m["channel.choi_calls"] = (len(chan), "count")
        m["channel.choi_busy_s"] = (sum(dur[i] for i in chan), "s")

        modes = sel("strategies.select_modes")
        m["strategies.select_modes_calls"] = (len(modes), "count")
        m["strategies.select_modes_busy_s"] = (sum(dur[i] for i in modes), "s")
        runs = sel("strategies.run_strategy")
        for s in STRATEGIES:
            times = [dur[i] for i in runs if spans[i][ATTR] == s]
            m[f"strategies.{s}_p50_ms"] = (1e3 * statistics.median(times) if times else 0.0, "ms")

        drivers = [i for i, s in enumerate(spans) if s[NAME].startswith("experiments.")]
        m["experiments.driver_self_s"] = (sum(self_time[i] for i in drivers), "s")
        m["noise.busy_s"] = (sum(dur[i] for i in outermost("noise.")), "s")
        return m
