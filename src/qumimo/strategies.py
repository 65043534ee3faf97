"""End-to-end evaluation of the five transmission strategies.

Strategies (all sharing the same channel and decoder machinery):

* ``dir``   - one copy on the best branch, deterministic receive, no map.
* ``pur``   - one copy on the best branch, probabilistic K-mode purifier.
* ``div``   - asymmetric clones with the asymmetry optimized from CSI.
* ``sym``   - uniform clones, CSI-aware decoder.
* ``blind`` - uniform clones, the identity-channel-prior decoder in closed
  form (``decoder.blind_choi``), at its realized acceptance probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import decoder as dec_mod
from .channel import Channel, ChannelParams, branch_fidelities, channel_choi
from .cloner import clone_fidelities, cloner_choi
from .metrics import asymmetry_index

STRATEGIES = ("dir", "pur", "div", "sym", "blind")


@dataclass(frozen=True)
class FidelityRecord:
    strategy: str
    n: int
    m: int
    k: int
    z: float
    regime: str
    eta: float
    delta: float
    p_target: float
    p_real: float
    mu: Optional[float]
    mean_id: Optional[int]
    realization_id: Optional[int]
    f_avg: float
    j_index: Optional[float]
    gamma: Optional[tuple]
    t: tuple
    r: tuple
    seed: Optional[int]
    f_success: float = 0.0
    surrogate: Optional[float] = None


def select_modes(lam, m: int, chan: Channel, k: Optional[int] = None, table=None):
    """Transmit on the M least depolarized modes; receive on K modes
    (default K = M).

    With K = N every mode is received, in index order.  With K < N the
    receive modes are ranked by their best single-branch fidelity from
    a transmit mode (``table``, else ``branch_fidelities(chan)``).
    Deterministic: ties resolve by mode index, so with no crosstalk the
    receive set equals the transmit set.
    """
    lam = tuple(float(x) for x in lam)
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


def run_strategy(
    strategy: str,
    params: ChannelParams,
    m: int,
    k: int,
    ps: tuple,
    chan: Optional[Channel] = None,
    seed: Optional[int] = None,
    regime: str = "single",
    z: Optional[float] = None,
    mean_id: Optional[int] = None,
) -> list[FidelityRecord]:
    """Evaluate one strategy on one channel realization, one record per
    success probability in ``ps`` (``dir`` is deterministic: one record
    at p = 1).

    The modes, the cloner, the cascade operators and, for ``div``, the
    gamma search depend on the channel only and are built once; each p
    adds one decoder SDP (``blind``: one evaluation of its closed-form
    decoder, no SDP).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if chan is None:
        chan = channel_choi(params)
    lam = params.lam
    common = dict(
        strategy=strategy,
        n=params.n,
        z=float(sum(lam)) if z is None else float(z),
        regime=regime,
        eta=params.eta,
        delta=params.delta,
        mu=None,
        mean_id=mean_id,
        realization_id=None,
        seed=seed,
    )

    if strategy == "dir":
        table = branch_fidelities(chan)
        t, r = select_modes(lam, 1, chan, table=table)
        f = float(table[t[0] - 1, r[0] - 1])
        return [FidelityRecord(
            m=1, k=1, p_target=1.0, p_real=1.0, f_avg=f, f_success=f,
            j_index=1.0, gamma=(1.0,), t=t, r=r, **common,
        )]

    if strategy == "pur" and m != 1:
        raise ValueError("pur requires M = 1")
    if strategy in ("sym", "blind") and m != k:
        raise ValueError(f"{strategy} requires M = K")

    t, r = select_modes(lam, m, chan, k)
    surrogate = None
    if strategy == "div":
        opt = dec_mod.optimize_gamma(m, chan, t, r)
        gamma, surrogate, qr = opt.gamma.gamma, opt.surrogate, opt.qr
    else:
        gamma = tuple([1.0 / m] * m)
        qr = dec_mod.build_qr(dec_mod.compose_effective_map(cloner_choi(gamma), chan, t, r))
    j_index = asymmetry_index(clone_fidelities(gamma).fidelities)

    records = []
    for p in ps:
        if strategy == "blind":
            p_real, f_success, f_avg = dec_mod.evaluate_decoder(dec_mod.blind_choi(m, p), qr)
        else:
            sol = dec_mod.purification_sdp(qr, p)
            p_real, f_success, f_avg = p, sol.f_success, sol.f_avg
            if strategy == "div":
                p_real = dec_mod.evaluate_decoder(sol.j, qr)[0]
        records.append(FidelityRecord(
            m=m, k=k, p_target=p, p_real=p_real, f_avg=f_avg, f_success=f_success,
            j_index=j_index, gamma=gamma, t=t, r=r, surrogate=surrogate, **common,
        ))
    return records


# Stable CSV schema for strategy records; ``experiments`` writes the rows.
def csv_header(m_max: int) -> list[str]:
    return (
        [
            "strategy", "N", "M", "K", "Z", "regime", "eta", "delta",
            "p_target", "p_real", "mu", "mean_id", "realization_id",
            "F_avg", "J_index",
        ]
        + [f"gamma_{i + 1}" for i in range(m_max)]
        + ["t", "r", "seed"]
    )


def csv_row(rec: FidelityRecord, m_max: int) -> list:
    gammas = list(rec.gamma) if rec.gamma is not None else []
    gammas += [None] * (m_max - len(gammas))
    return (
        [
            rec.strategy, rec.n, rec.m, rec.k, rec.z, rec.regime, rec.eta,
            rec.delta, rec.p_target, rec.p_real, rec.mu, rec.mean_id,
            rec.realization_id, rec.f_avg, rec.j_index,
        ]
        + gammas
        + [";".join(str(x) for x in rec.t), ";".join(str(x) for x in rec.r), rec.seed]
    )
