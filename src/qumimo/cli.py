"""Command-line experiment runner.

Subcommands::

    qumimo fixed-z    --config cfg.json [--seed S] [--workers W] [--out DIR] [--profile ci|full]
    qumimo scaling    --config cfg.json [...]
    qumimo stochastic --config cfg.json [...]
    qumimo boundary   [--m 2 3] [--resolution 0.05] --out DIR
    qumimo validate   [--quick]

Grid/stochastic runs write plot-ready CSV plus manifest.json into the
output directory; `validate` executes the built-in invariant suite and
exits nonzero on any failure.  Exit status: 2 for an invalid config or
argument, 1 when a run fails (a failed task is named by its
coordinates), else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import __version__, cloner, experiments
from .errors import ConfigError, QumimoError


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_run_args(sub):
    sub.add_argument("--config", required=True, help="JSON experiment config")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="worker processes, at most one per task")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--profile", choices=("ci", "full"), default="ci")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qumimo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qumimo {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("fixed-z", "scaling", "stochastic"):
        _add_run_args(subs.add_parser(name))
    boundary = subs.add_parser("boundary")
    boundary.add_argument("--m", type=int, nargs="+", default=[2, 3])
    boundary.add_argument("--resolution", type=float, default=0.05, help="grid step in (0, 0.25], "
                          f"as 1/round(1/RESOLUTION), at most {cloner.MAX_BOUNDARY_STEPS} steps")
    boundary.add_argument("--out", required=True)
    # cloner.feasible_boundary checks --m and --resolution before any output
    boundary.set_defaults(usage_error=boundary.error)
    validate = subs.add_parser("validate")
    validate.add_argument("--quick", action="store_true", help="smaller sample counts")
    return parser


def _load(args, expected_regime: str):
    cfg = experiments.load_config(args.config, profile=args.profile)
    if cfg.regime != expected_regime:
        raise ConfigError("$.regime", f"config is {cfg.regime!r}, subcommand needs {expected_regime!r}")
    if args.seed is not None:
        cfg = experiments.validate_config({**cfg.raw, "seed": args.seed}, profile=args.profile)
    out = args.out or cfg.output_dir
    if not out:
        raise ConfigError("$.output_dir", "no output directory (config key or --out)")
    return cfg, out


def _run_checks(quick: bool) -> int:
    from . import channel, decoder, noise, sdp

    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    for m in (2, 3, 4):
        f = np.asarray(cloner.clone_fidelities(tuple([1 / m] * m)).fidelities)
        check(f"cloner symmetric M={m}", np.allclose(f, (2 * m + 1) / (3 * m), atol=1e-6))
    rng = np.random.default_rng(0)
    worst = max(
        abs(np.sum(np.square(b := np.asarray(cloner.clone_amplitudes(tuple(rng.dirichlet(np.ones(rng.integers(2, 6))))).beta))) + b.sum() ** 2 - 2.0)
        for _ in range(20 if quick else 100)
    )
    check("amplitude identity", worst < 1e-9, f"worst {worst:.1e}")

    # For every receive ordering the cascade's weights are a distribution
    # and it preserves trace; fewer receive modes are refused.  Leg
    # permutations leave Tr_out alone, so the cascade's Tr_out is the
    # weights' sum times that of j0.
    draws = 3 if quick else 10
    ok, worst = True, 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 4))
        params = channel.ChannelParams(
            n=n, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0, 1, n)),
            delta=float(rng.uniform(0.3, 2)),
        )
        ch = channel.channel_choi(params)
        m = int(rng.integers(1, n + 1))
        enc = cloner.cloner_choi(tuple(rng.dirichlet(np.ones(m))))
        for t in itertools.permutations(range(1, n + 1), m):
            for r in itertools.permutations(range(1, n + 1)):
                emap = decoder.compose_effective_map(enc, ch, t, r)
                ok &= bool(emap.weights.min() >= 0.0 and abs(emap.weights.sum() - 1.0) < 1e-12)
                tp = np.trace(emap.j0.reshape(2, 2 ** n, 2, 2 ** n), axis1=1, axis2=3)
                worst = max(worst, float(np.max(np.abs(emap.weights.sum() * tp - np.eye(2)))))
            try:
                decoder.compose_effective_map(enc, ch, t, r[:-1])
                ok = False
            except ValueError:
                pass
    check("cascade weights + trace preserving, K < N refused", ok and worst < 1e-12,
          f"worst |Tr_out J - I| {worst:.1e}")

    xi = noise.sample_fluctuation(0.5, 10_000 if quick else 100_000, noise.make_rng(7))
    check("fluctuation moments", abs(xi.mean() - 1) < 0.02 and abs(xi.var() - 0.25) < 0.02,
          f"mean {xi.mean():.4f} var {xi.var():.4f}")

    sanity = (("identity", 0.0, 1.0), ("depolarizing", 0.4, 0.8))
    decs = decoder.purification_sdps(
        (decoder.design_at((1.0,), channel.channel_choi(channel.ChannelParams(
            n=1, eta=0.0, lam=(lam,), delta=1.0)), (1,), (1,)).qr, 1.0) for _, lam, _ in sanity)
    for (name, _, want), dec in zip(sanity, decs):
        check(f"decoder {name} sanity", abs(dec.f_avg - want) < 1e-6, f"F={dec.f_avg:.8f}")

    n = int(rng.integers(4, 17))
    cs = [(a + a.T) / 2 for a in rng.standard_normal((2 if quick else 5, n, n))]
    sols = sdp.solve_many([cs], [np.eye(n)[None]], np.ones((len(cs), 1)))
    check("sdp eigenvalue oracle", all(
        sol.status == sdp.OPTIMAL and abs(sol.value - np.linalg.eigvalsh(c)[-1]) < 1e-7
        for c, sol in zip(cs, sols)), f"one stack, n = {n}")

    for n in (2, 3):
        ch = channel.channel_choi(channel.ChannelParams(
            n=n, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0, 1, n)),
            delta=float(rng.uniform(0.3, 2))))
        t, r = (tuple(int(x) + 1 for x in rng.permutation(n)) for _ in range(2))
        design = decoder.design_at(tuple(rng.dirichlet(np.ones(n))), ch, t, r)
        qr = decoder.build_qr(decoder.compose_effective_map(design.enc, ch, t, r))
        check(f"reduced decoder data real, N = {n}",
              not any(map(np.iscomplexobj, (qr.qt, qr.rt))), f"dtype {qr.qt.dtype}")
        err = max(np.max(np.abs(design.qr.qt - qr.qt)), np.max(np.abs(design.qr.rt - qr.rt)))
        check(f"design polynomial = cascade, N = {n}", err < 1e-13, f"worst {err:.1e}")

    # The blind decoder's closed form reaches the SDP optimum on its prior.
    cases = []
    for m in (2, 3):
        modes = tuple(range(1, m + 1))
        prior = channel.channel_choi(channel.ChannelParams(n=m, eta=0.0, lam=(0.0,) * m, delta=1.0))
        qr = decoder.design_at(tuple([1 / m] * m), prior, modes, modes).qr
        cases += [(m, qr, p) for p in (0.8, 1.0)]
    for (m, qr, p), dec in zip(cases, decoder.purification_sdps((qr, p) for _, qr, p in cases)):
        err = abs(decoder.evaluate_decoder(decoder.blind_choi(m, p), qr)[2] - dec.f_avg)
        check(f"blind decoder: closed form = identity-prior SDP, M = {m}, p = {p:g}",
              err < 1e-7, f"|dF| {err:.1e}")

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("fixed-z", "scaling", "stochastic"):
            cfg, out = _load(args, args.command.replace("-", "_"))
            run = (experiments.run_stochastic if cfg.regime == "stochastic"
                   else experiments.run_grid_regime)
            manifest = run(cfg, out, workers=args.workers)
        elif args.command == "boundary":
            try:
                manifest = experiments.run_boundary(args.out, m_values=tuple(args.m),
                                                    resolution=args.resolution)
            except ValueError as exc:
                args.usage_error(str(exc))
        elif args.command == "validate":
            return _run_checks(args.quick)
        else:  # pragma: no cover
            raise ValueError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QumimoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: manifest[k] for k in ("files",) if k in manifest}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
