"""N x N multi-mode qubit channel in factored form.

The channel depolarizes mode i by ``lam_i`` and then, with probability
eta, permutes the modes: ``(1 - eta) D + eta sum_pi w_pi P_pi o D``,
with product weights ``w_pi`` from a spatial coupling kernel.  Under pi
the value on mode i moves to mode ``pi(i)``, so receive mode j reads
source mode ``pi^{-1}(j)``, and depolarization keeps the I/2 of an
unused mode.  A cascade onto all N modes is therefore one Choi read
under a weighted set of mode permutations
(``decoder.compose_effective_map``), never the 4^N x 4^N channel Choi.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionLimitError

MAX_MODES = 6


@dataclass(frozen=True)
class ChannelParams:
    n: int
    eta: float
    lam: tuple
    delta: float

    def __post_init__(self):
        if not (1 <= self.n <= MAX_MODES):
            raise DimensionLimitError(f"mode count {self.n} outside 1..{MAX_MODES}")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta {self.eta} outside [0, 1]")
        if not 0.0 < self.delta < np.inf:
            raise ValueError(f"delta {self.delta} must be positive and finite")
        lam = tuple(float(x) for x in self.lam)
        if len(lam) != self.n:
            raise ValueError(f"lambda vector length {len(lam)} != N={self.n}")
        if not all(0.0 <= x <= 1.0 for x in lam):
            raise ValueError(f"lambda components outside [0, 1]: {lam}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class PermutationEnsemble:
    """The mode permutations pi (``pi[i - 1]`` is where mode i goes), the
    identity first, and their weights; ``table`` holds the permutations as
    one read-only integer array."""

    perms: tuple
    weights: tuple
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.array(self.perms)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class Channel:
    """The channel in factored form: its parameters and the permutation
    ensemble of its crosstalk (the identity alone at N = 1)."""

    params: ChannelParams
    ensemble: PermutationEnsemble

    @property
    def n(self) -> int:
        return self.params.n


def circular_distance(i: int, j: int, n: int) -> int:
    d = abs(i - j)
    return min(d, n - d)


def coupling_kernel(n: int, delta: float) -> np.ndarray:
    """Row-stochastic spatial coupling, exponential in circular distance."""
    if n < 2:
        raise ValueError("coupling kernel needs at least 2 modes")
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive and finite")
    d = np.array(
        [[circular_distance(i, j, n) for j in range(n)] for i in range(n)], dtype=float
    )
    w = np.exp(-delta * d)
    return w / w.sum(axis=1, keepdims=True)


def permutation_weights(c: np.ndarray) -> PermutationEnsemble:
    """Normalized product weights over all N! mode permutations of the
    coupling kernel ``c``."""
    n = c.shape[0]
    if n > MAX_MODES:
        raise DimensionLimitError(f"permutation enumeration capped at N={MAX_MODES}")
    perms, raw = [], []
    for pi in itertools.permutations(range(1, n + 1)):
        w = 1.0
        for i, target in enumerate(pi):
            w *= c[i, target - 1]
        perms.append(pi)
        raw.append(w)
    raw = np.asarray(raw)
    weights = raw / raw.sum()
    return PermutationEnsemble(perms=tuple(perms), weights=tuple(float(w) for w in weights))


def channel_choi(params: ChannelParams) -> Channel:
    """The channel of ``params`` in factored form: the parameters and the
    permutation ensemble of the crosstalk."""
    return Channel(params, _ensemble(params.n, params.delta))


@functools.cache
def _ensemble(n: int, delta: float) -> PermutationEnsemble:
    """The permutation ensemble of (N, delta), shared by every channel
    that differs from another only in eta or lambda."""
    if n == 1:
        return PermutationEnsemble(perms=((1,),), weights=(1.0,))
    return permutation_weights(coupling_kernel(n, delta))


def branch_fidelities(chan: Channel) -> np.ndarray:
    """Average fidelity of every single-branch map as an (N, N) array.

    Entry ``[t - 1, j - 1]`` belongs to the qubit map from input mode t,
    the other inputs fed I/2, to output mode j alone.  Mode j reads mode
    t, depolarized by ``lam_t`` (average fidelity ``1 - lam_t / 2``), with
    probability ``q_tj = (1 - eta) [t = j] + eta sum_{pi(t) = j} w_pi``,
    and otherwise a mode fed I/2 (fidelity 1/2).
    """
    n, eta = chan.n, chan.params.eta
    mass = np.zeros((n, n))
    np.add.at(mass, (np.arange(n), chan.ensemble.table - 1),
              np.array(chan.ensemble.weights)[:, None])
    q = eta * mass
    q[np.diag_indices(n)] += 1.0 - eta
    f_read = 1.0 - np.asarray(chan.params.lam) / 2.0
    return q * f_read[:, None] + (1.0 - q) / 2.0


def coupling_report(params: ChannelParams) -> np.ndarray:
    """Mode-level mixing matrix ``P = (1 - eta) I + eta C`` (plot data only)."""
    if params.n == 1:
        return np.ones((1, 1))
    c = coupling_kernel(params.n, params.delta)
    return (1.0 - params.eta) * np.eye(params.n) + params.eta * c
