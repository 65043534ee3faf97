"""N x N multi-mode qubit channel: per-branch depolarization composed
with a stochastic permutation-unitary crosstalk mixture.

The channel Choi operator lives on (N input qubits) (x) (N output
qubits), unnormalized (``Tr_out J = I``).  Crosstalk permutes the output
legs: noise first, then mode shuffling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionLimitError
from .tensor import DEFAULT_DIM_CAP, PHI_UNNORM, ModeSpace, partial_trace, perm_basis_map

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
        if self.delta <= 0:
            raise ValueError(f"delta {self.delta} must be positive")
        lam = tuple(float(x) for x in self.lam)
        if len(lam) != self.n:
            raise ValueError(f"lambda vector length {len(lam)} != N={self.n}")
        if any(x < 0.0 or x > 1.0 for x in lam):
            raise ValueError(f"lambda components outside [0, 1]: {lam}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class CouplingKernel:
    c: np.ndarray


@dataclass(frozen=True)
class PermutationEnsemble:
    perms: tuple
    weights: tuple


@dataclass(frozen=True)
class ChannelChoi:
    choi: np.ndarray
    params: ChannelParams

    @property
    def n(self) -> int:
        return self.params.n


def depolarizing_choi_1q(lam: float) -> np.ndarray:
    """Unnormalized single-qubit depolarizing Choi on (in, out)."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"depolarization strength {lam} outside [0, 1]")
    return (1.0 - lam) * PHI_UNNORM + lam * np.eye(4, dtype=complex) / 2.0


def circular_distance(i: int, j: int, n: int) -> int:
    d = abs(i - j)
    return min(d, n - d)


def coupling_kernel(n: int, delta: float) -> CouplingKernel:
    """Row-stochastic spatial coupling, exponential in circular distance."""
    if n < 2:
        raise ValueError("coupling kernel needs at least 2 modes")
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = np.array(
        [[circular_distance(i, j, n) for j in range(n)] for i in range(n)], dtype=float
    )
    w = np.exp(-delta * d)
    return CouplingKernel(c=w / w.sum(axis=1, keepdims=True))


def permutation_weights(kernel: CouplingKernel) -> PermutationEnsemble:
    """Normalized product weights over all N! mode permutations."""
    c = kernel.c
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


def _depolarizing_choi(lam: tuple) -> np.ndarray:
    """Choi of the tensor product of per-mode depolarizing maps,
    rearranged from the per-mode (in_i, out_i) pairing to the block
    layout (all inputs) (x) (all outputs)."""
    n = len(lam)
    t = depolarizing_choi_1q(lam[0])
    for x in lam[1:]:
        t = np.kron(t, depolarizing_choi_1q(x))
    if n == 1:
        return t
    # Qubit at interleaved position 2i-1 (in_i) moves to position i,
    # position 2i (out_i) moves to position n+i.
    perm = [0] * (2 * n)
    for i in range(1, n + 1):
        perm[2 * i - 2] = i
        perm[2 * i - 1] = n + i
    qmap = perm_basis_map(perm, 2 * n)
    out = np.zeros_like(t)
    out[np.ix_(qmap, qmap)] = t
    return out


def channel_choi(params: ChannelParams) -> ChannelChoi:
    """Complete channel Choi: depolarize every branch, then mix modes
    with probability eta according to the permutation ensemble."""
    n = params.n
    dim = 2 ** n
    if dim * dim > DEFAULT_DIM_CAP:
        raise DimensionLimitError(f"channel Choi dimension {dim * dim} exceeds cap")
    j_dep = _depolarizing_choi(params.lam)
    if params.eta == 0.0 or n == 1:
        return ChannelChoi(choi=j_dep, params=params)

    ens = permutation_weights(coupling_kernel(n, params.delta))
    mixed = np.zeros_like(j_dep)
    full = np.arange(dim * dim)
    in_idx, out_idx = full // dim, full % dim
    for pi, w in zip(ens.perms, ens.weights):
        qmap = perm_basis_map(pi, n)
        inv = np.empty_like(qmap)
        inv[qmap] = np.arange(dim)
        src = in_idx * dim + inv[out_idx]
        mixed += w * j_dep[np.ix_(src, src)]
    j = (1.0 - params.eta) * j_dep + params.eta * mixed
    return ChannelChoi(choi=j, params=params)


def branch_fidelities(chan: ChannelChoi) -> np.ndarray:
    """Average fidelity of every single-branch map as an (N, N) array.

    Entry ``[t - 1, j - 1]`` belongs to the qubit map from input mode t,
    the other inputs fed I/2, to output mode j alone.  Its Choi is
    ``J_tj = Tr_{in != t, out != j} J / 2^(N-1)``, and a qubit map with
    unnormalized Choi J has average fidelity ``(1 + <Phi|J|Phi>/2) / 3``
    (Horodecki, Horodecki, Horodecki, PRA 60, 1888 (1999)).
    """
    n = chan.n
    space = ModeSpace.qubits(range(1, 2 * n + 1))
    # Labels of the 1 -> N map from mode t: 0 is its input, 1..N the outputs.
    one_to_n = ModeSpace.qubits(range(n + 1))
    outputs = tuple(range(n + 1, 2 * n + 1))
    table = np.empty((n, n))
    for t in range(1, n + 1):
        j_t = partial_trace(chan.choi, space, (t,) + outputs) / 2 ** (n - 1)
        for j in range(1, n + 1):
            j_tj = partial_trace(j_t, one_to_n, (0, j))
            table[t - 1, j - 1] = (1.0 + np.real(np.trace(PHI_UNNORM @ j_tj)) / 2.0) / 3.0
    return table


def coupling_report(params: ChannelParams) -> np.ndarray:
    """Mode-level mixing matrix ``P = (1 - eta) I + eta C`` (plot data only)."""
    if params.n == 1:
        return np.ones((1, 1))
    c = coupling_kernel(params.n, params.delta).c
    return (1.0 - params.eta) * np.eye(params.n) + params.eta * c


def apply_channel(channel, rho: np.ndarray) -> np.ndarray:
    """Apply a Choi operator: ``Tr_in[J (rho^T (x) I_out)]``."""
    j = channel.choi if isinstance(channel, ChannelChoi) else channel
    dim_sq = j.shape[0]
    d_in = rho.shape[0]
    if dim_sq % d_in != 0:
        raise ValueError(f"Choi dim {dim_sq} incompatible with input dim {d_in}")
    d_out = dim_sq // d_in
    j4 = j.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("iokp,ik->op", j4, rho)
