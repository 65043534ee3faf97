"""Universal asymmetric 1 -> M qubit cloning.

The gamma-weighted optimal cloner in closed form: Stinespring amplitudes
``beta`` from the Perron eigenvector of a weight matrix give both the
per-clone fidelity vector ``F(gamma)`` and the covariant Choi operator
(the singlet-monogamy / Cerf-type construction; Kay, Kaszlikowski,
Ramanathan, PRL 103, 050501 (2009); Cwiklinski, Horodecki, Studzinski,
Phys. Lett. A 376, 2178 (2012)).

On simplex faces the optimum is degenerate; the construction used here
is the continuous extension: a clone with zero weight gets amplitude
zero and still receives the part of the state the supported clones
leave behind, so its fidelity follows the same formula as every other
clone and the cloner is continuous in gamma.

Choi convention: unnormalized, input leg first, so a map ``E`` acts as
``E(rho) = Tr_in[J (rho^T (x) I_out)]`` and trace preservation reads
``Tr_out J = I_2``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionLimitError, SimplexError
from .tensor import I2, PHI_UNNORM

SIMPLEX_TOL = 1e-10
# Most lattice steps per unit of the boundary grid: 20,301 points at M = 3.
MAX_BOUNDARY_STEPS = 200


@dataclass(frozen=True)
class AsymmetryVector:
    """Point on the M-simplex steering how fidelity is shared among clones."""

    gamma: tuple

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise SimplexError("gamma must be a nonempty vector")
        if not np.all(g >= -SIMPLEX_TOL):
            raise SimplexError(f"negative or NaN gamma component in {self.gamma}")
        if not abs(g.sum() - 1.0) <= SIMPLEX_TOL:
            raise SimplexError(f"gamma sums to {g.sum():.12f}, expected 1")
        object.__setattr__(self, "gamma", tuple(g.tolist()))

    @property
    def m(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class CloneAmplitudes:
    beta: tuple


@dataclass(frozen=True)
class CloneFidelityVector:
    fidelities: tuple
    gamma: AsymmetryVector


@dataclass(frozen=True)
class ClonerChoi:
    choi: np.ndarray
    m: int
    fidelities: tuple


def _as_gamma(gamma) -> AsymmetryVector:
    return gamma if isinstance(gamma, AsymmetryVector) else AsymmetryVector(tuple(gamma))


def clone_amplitudes(gamma) -> CloneAmplitudes:
    """One gamma's :func:`_amplitude_rows`: ``sum(beta^2) + sum(beta)^2 = 2``."""
    return CloneAmplitudes(tuple(_amplitude_rows([_as_gamma(gamma).gamma])[0]))


def _amplitude_rows(gammas) -> np.ndarray:
    """Stinespring amplitudes per row of ``gammas`` (alpha: the row
    normalized), the scaled Perron vector of ``A = alpha 1^T + diag(alpha)``.
    A is similar to ``S = sqrt(alpha) sqrt(alpha)^T + diag(alpha)``, so its
    Perron vector is ``sqrt(alpha) |v|`` (zero on a zero weight), v the top
    eigenvector of S (one stacked ``eigh``); norms and sums are per-row floats."""
    g = np.asarray(gammas, dtype=float)
    root = np.sqrt(np.clip(g / g.sum(axis=1, keepdims=True), 0.0, None))
    s = root[:, :, None] * root[:, None, :]
    s.reshape(len(s), -1)[:, :: root.shape[1] + 1] *= 2.0  # + diag(alpha), exactly
    u = root * np.abs(np.linalg.eigh(s)[1][:, :, -1])
    scale = []
    for row in u:
        row /= math.sqrt(row.dot(row))
        scale.append(math.sqrt(2.0 / (float(row.sum()) ** 2 + 1.0)))
    return np.array(scale)[:, None] * u


def _fidelities(beta: np.ndarray) -> np.ndarray:
    """The clone fidelities of each amplitude vector (rows on the last axis)."""
    return 1.0 / 3.0 + (beta + beta.sum(axis=-1, keepdims=True)) ** 2 / 6.0


def clone_fidelities(gamma) -> CloneFidelityVector:
    """Per-clone fidelity vector ``F_k = 1/3 + (beta_k + sum_j beta_j)^2 / 6``
    of the optimal asymmetric cloner; a clone with zero weight gets
    ``1/3 + (sum_j beta_j)^2 / 6``, at least the maximally mixed 1/2."""
    gamma = _as_gamma(gamma)
    beta = np.asarray(clone_amplitudes(gamma).beta)
    return CloneFidelityVector(fidelities=tuple(_fidelities(beta).tolist()), gamma=gamma)


@functools.cache
def _stinespring_basis(m: int) -> np.ndarray:
    """Read-only: ``B[k]`` is ``|Phi>_{in,k} (x) sum_w |D_w>_{clones != k} |w>_anc``
    as a ``2^(m+1) x m`` array (input and clones as rows, ancilla as
    columns), with ``D_w`` the normalized weight-w Dicke state."""
    basis = np.zeros((m, 2 ** (m + 1), m))
    for bits in itertools.product((0, 1), repeat=m + 1):
        row = int("".join(map(str, bits)), 2)
        for k in range(m):
            if bits[0] != bits[k + 1]:
                continue
            w = sum(bits[1:]) - bits[k + 1]
            basis[k, row, w] = 1.0 / np.sqrt(math.comb(m - 1, w))
    basis.setflags(write=False)
    return basis


def cloner_choi(gamma) -> ClonerChoi:
    """Covariant Choi operator of the gamma-weighted optimal cloner,
    ``J = (1/M) Tr_anc |chi><chi| = X X^T / M`` with
    ``|chi> = sum_k beta_k |Phi>_{in,k} (x) sum_w |D_w>_{clones != k} |w>_anc``
    and ``X = sum_k beta_k B_k`` its ``2^(M+1) x M`` Stinespring factor
    (:func:`_stinespring_basis`).

    Its clone fidelities are ``clone_fidelities(gamma)``.  The build is
    checked on ``X`` (:func:`_validate_cloner`); the check on the Choi
    itself (spectrum, partial traces) belongs to the test oracle, which
    runs it on its SDP-built cloner.
    """
    gamma = _as_gamma(gamma)
    m = gamma.m
    if m > 5:
        raise DimensionLimitError(f"cloner limited to M <= 5, got {m}")
    beta = np.asarray(clone_amplitudes(gamma).beta)
    x = np.tensordot(beta, _stinespring_basis(m), axes=1)
    _validate_cloner(x, m)
    j = x @ x.T / m
    return ClonerChoi(choi=j, m=m, fidelities=tuple(_fidelities(beta).tolist()))


@functools.cache
def _isotropy_tables(m: int) -> tuple:
    """Read-only: ``rows[k - 1]``, the rows of the factor that clone k's
    marginal reads, and the projector of row-major 4 x 4 operators onto the
    complement of span{I_4, Phi}, the residual of a least-squares fit."""
    index = np.arange(2 ** (m + 1))
    rows = np.stack([index.reshape(2, 2 ** (k - 1), 2, -1).transpose(0, 2, 1, 3).reshape(4, -1)
                     for k in range(1, m + 1)])
    span = np.stack([np.eye(4).ravel() / 2, (PHI_UNNORM - np.eye(4) / 2).ravel() / np.sqrt(3)])
    tables = rows, np.eye(16) - span.T @ span
    for x in tables:
        x.setflags(write=False)
    return tables


def _clone_marginals(x: np.ndarray, m: int) -> np.ndarray:
    """The (input, clone k) marginals ``Tr_{clones != k} X X^T / M``, k = 1..M,
    of Stinespring factor ``x``: one gather of its rows, one stacked product."""
    y = x[_isotropy_tables(m)[0]].reshape(m, 4, -1)
    return y @ y.swapaxes(1, 2) / m


def _validate_cloner(x: np.ndarray, m: int) -> None:
    """Check the cloner with Stinespring factor ``x`` (``J = x x^T / M``):
    ``Tr_out J = X_2 X_2^T / M = I_2`` (``X_2 = x.reshape(2, -1)``) and
    isotropic (input, clone) marginals, read by one fixed projector
    (:func:`_isotropy_tables`); J is a Gram matrix, so no eigenvalue floor."""
    x2 = x.reshape(2, -1)
    if not np.max(np.abs(x2 @ x2.T / m - I2)) <= 1e-8:
        raise ValueError("cloner Choi violates trace preservation")
    resid = _clone_marginals(x, m).reshape(m, 16) @ _isotropy_tables(m)[1]
    bad = np.flatnonzero(~(np.abs(resid).max(axis=1) <= 1e-7))
    if bad.size:
        raise ValueError(f"clone {bad[0] + 1} marginal not isotropic")


def simplex_grid(m: int, steps: int) -> list[tuple]:
    """All points of the simplex lattice {k/steps} with m coordinates."""
    pts = []
    for comp in itertools.combinations_with_replacement(range(m), steps):
        counts = [0] * m
        for c in comp:
            counts[c] += 1
        pts.append(tuple(c / steps for c in counts))
    return sorted(set(pts))


def boundary_steps(grid_resolution: float) -> int:
    """Lattice steps per unit of the boundary grid for ``grid_resolution``
    in (0, 0.25]: the grid samples multiples of ``1 / steps``, the nearest
    such step to the resolution asked for, with at most
    ``MAX_BOUNDARY_STEPS`` steps."""
    if not (0.0 < grid_resolution <= 0.25):
        raise ValueError(f"grid_resolution must lie in (0, 0.25], got {grid_resolution}")
    steps = int(round(1.0 / grid_resolution))
    if steps > MAX_BOUNDARY_STEPS:
        raise ValueError(f"grid_resolution {grid_resolution} asks for {steps} steps, "
                         f"more than {MAX_BOUNDARY_STEPS}")
    return steps


def feasible_boundary(m: int, grid_resolution: float) -> list[CloneFidelityVector]:
    """Fidelity trade-off surface sampled on a simplex grid
    (:func:`boundary_steps`).

    Every emitted point dominates the maximally mixed baseline of 1/2.
    """
    if m not in (2, 3):
        raise ValueError(f"boundary enumeration supports M in {{2, 3}}, got {m}")
    return [clone_fidelities(pt) for pt in simplex_grid(m, boundary_steps(grid_resolution))]
