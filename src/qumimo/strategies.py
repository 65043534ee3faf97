"""End-to-end evaluation of the five transmission strategies.

Strategies (all sharing the same channel and decoder machinery), with the
clone count M and receive count K that follow from the channel's N modes:

* ``dir``   - one copy on the best branch, deterministic receive, no map (1, 1).
* ``pur``   - one copy on the best branch, probabilistic purifier (1, N).
* ``div``   - asymmetric clones with the asymmetry optimized from CSI (N, N).
* ``sym``   - uniform clones, CSI-aware decoder (N, N).
* ``blind`` - uniform clones, the identity-channel-prior decoder in closed
  form (``decoder.blind_choi``), at its realized acceptance probability (N, N).

A cloning strategy's design on a channel (``decoder.Design``: gamma, the
cloner, the modes and the cascade) is built by :func:`strategy_design`,
which the stochastic regime also uses for its mean design.  A strategy
takes the channel (its ``ChannelParams`` included) and returns only what
it computes: one ``FidelityRecord`` per p.  The run context of a record
(budget, regime, mean and realization ids, seed) is held by the driver in
``experiments``, which also owns the ``records.csv`` layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import decoder as dec_mod
from .channel import Channel, branch_fidelities
from .metrics import asymmetry_index

STRATEGIES = ("dir", "pur", "div", "sym", "blind")


@dataclass(frozen=True)
class FidelityRecord:
    """What one strategy computes at one p on one channel."""

    strategy: str
    m: int
    k: int
    p_target: float
    p_real: float
    f_avg: float
    f_success: float
    j_index: float
    gamma: tuple
    t: tuple
    r: tuple
    surrogate: Optional[float] = None


def select_modes(chan: Channel, m: int, k: Optional[int] = None, table=None):
    """Transmit on the M least depolarized modes; receive on K modes
    (default K = M).

    With K = N every mode is received, in index order.  With K < N the
    receive modes are ranked by their best single-branch fidelity from
    a transmit mode (``table``, else ``branch_fidelities(chan)``).
    Deterministic: ties resolve by mode index, so with no crosstalk the
    receive set equals the transmit set.
    """
    lam = chan.params.lam
    n = len(lam)
    k = m if k is None else k
    if m > n:
        raise ValueError(f"cannot transmit {m} clones over {n} modes")
    order = sorted(range(1, n + 1), key=lambda i: (lam[i - 1], i))
    t = tuple(order[:m])
    if k == n:
        return t, tuple(range(1, n + 1))
    scores = (branch_fidelities(chan) if table is None else table)[[x - 1 for x in t]].max(axis=0)
    ranked = sorted(range(1, n + 1), key=lambda j: (-round(float(scores[j - 1]), 12), j))
    return t, tuple(ranked[:k])


def run_strategy(strategy: str, chan: Channel, ps: tuple) -> list[FidelityRecord]:
    """Evaluate one strategy on one channel realization: :func:`run_strategies`
    on one job."""
    return run_strategies([(strategy, chan, ps)])[0]


def strategy_design(strategy: str, chan: Channel, uniform: Optional[dict] = None):
    """The ``decoder.Design`` of a cloning strategy on ``chan``: ``div``
    through the gamma search, the others at the uniform gamma.  ``uniform``
    holds the uniform designs built so far, by channel and modes: ``sym``
    and ``blind`` on one channel share one."""
    m = 1 if strategy == "pur" else chan.n
    t, r = select_modes(chan, m, chan.n)
    if strategy == "div":
        return dec_mod.optimize_gamma(m, chan, t, r)
    uniform = {} if uniform is None else uniform
    key = (chan.params, t, r)
    if key not in uniform:
        uniform[key] = dec_mod.design_at(tuple([1.0 / m] * m), chan, t, r)
    return uniform[key]


def run_strategies(jobs) -> list[list[FidelityRecord]]:
    """Evaluate many ``(strategy, chan, ps)`` jobs, one record list
    per job, one record per success probability in ``ps`` (``dir`` is
    deterministic: one record at p = 1).

    The design (:func:`strategy_design`) depends on the channel only:
    every job's design is built first, once, and its cloner carries the
    clone fidelities of the J index.  Then each (job, p) adds one decoder
    SDP (``blind``: one evaluation of its closed-form decoder, no SDP),
    and all of them are solved in one call
    (:func:`decoder.purification_sdps`).
    """
    designs, uniform = [], {}
    for strategy, chan, _ in jobs:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        designs.append(None if strategy == "dir" else strategy_design(strategy, chan, uniform))
    sols = iter(dec_mod.purification_sdps(
        (design.qr, p) for (strategy, *_, ps), design in zip(jobs, designs)
        if strategy in ("pur", "div", "sym") for p in ps))

    out = []
    for (strategy, chan, ps), design in zip(jobs, designs):
        if strategy == "dir":
            table = branch_fidelities(chan)
            t, r = select_modes(chan, 1, table=table)
            f = float(table[t[0] - 1, r[0] - 1])
            out.append([FidelityRecord(
                strategy=strategy, m=1, k=1, p_target=1.0, p_real=1.0, f_avg=f, f_success=f,
                j_index=1.0, gamma=(1.0,), t=t, r=r,
            )])
            continue
        m, k = len(design.t), len(design.r)
        j_index = asymmetry_index(design.enc.fidelities)
        records = []
        for p in ps:
            if strategy == "blind":
                p_real, f_success, f_avg = dec_mod.evaluate_decoder(
                    dec_mod.blind_choi(m, p), design.qr)
            else:
                sol = next(sols)
                p_real, f_success, f_avg = p, sol.f_success, sol.f_avg
                if strategy == "div":
                    p_real = dec_mod.evaluate_decoder(sol.j, design.qr)[0]
            records.append(FidelityRecord(
                strategy=strategy, m=m, k=k, p_target=p, p_real=p_real, f_avg=f_avg,
                f_success=f_success, j_index=j_index, gamma=design.gamma, t=design.t,
                r=design.r, surrogate=design.surrogate,
            ))
        out.append(records)
    return out
