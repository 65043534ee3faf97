"""Test-side oracle for the cloner: the optimal cloner built by SDP.

Maximizes the gamma-weighted Haar-averaged clone fidelities
``sum_k (gamma_k + eps) Tr[J G_k]`` over CPTP maps and projects the
input-transposed result onto the permutation algebra to enforce
universality.  The program runs the closed form in ``qumimo.cloner``;
the tests check it against this route.  The eps term resolves the
degenerate optimum at simplex vertices (and moves clones weighted about
eps or less off the optimum).

The result is checked on its Choi (:func:`validate_cloner_choi`:
eigenvalue floor, trace preservation and isotropic marginals by partial
traces); the run-time cloner checks the last two on its Stinespring
factor, where the first cannot fail.  :func:`least_squares_factor_check`
is the earlier route of that factor check, which the run-time projector
is tested against, and :func:`per_point_amplitudes` the earlier
one-gamma-at-a-time amplitude route, which the stacked rows are.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from qumimo import sdp
from qumimo.cloner import ClonerChoi, _as_gamma
from qumimo.errors import DimensionLimitError, SolverError
from qumimo.tensor import I2, PHI_UNNORM, dagger
from reference_ops import (SIGMA_X, SIGMA_Z, ModeSpace, _as_tensor, kron, partial_trace,
                           perm_basis_map)

FIDELITY_TIEBREAK_EPS = 1e-6
TWIRL_MAX_QUBITS = 6


def partial_transpose(x: np.ndarray, space: ModeSpace, subset) -> np.ndarray:
    """Transpose the listed modes only; involutive and trace-preserving."""
    sub_axes = set(space.axes(subset))
    n = len(space.dims)
    t = _as_tensor(np.asarray(x), space)
    perm = []
    for i in range(n):
        perm.append(i + n if i in sub_axes else i)
    for i in range(n):
        perm.append(i if i in sub_axes else i + n)
    return t.transpose(perm).reshape(space.dim, space.dim)


def embed_two_qubit(op4: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Embed a two-qubit operator on qubits ``(i, j)`` of ``n`` qubits."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"invalid qubit pair ({i}, {j}) for n={n}")
    rest = [q for q in range(1, n + 1) if q not in (i, j)]
    # Build on position order (i, j, rest...) then relabel positions.
    base = kron(op4, np.eye(2 ** (n - 2)))
    perm = [0] * n
    perm[0] = i
    perm[1] = j
    for pos, q in enumerate(rest, start=3):
        perm[pos - 1] = q
    qmap = perm_basis_map(perm, n)
    out = np.zeros_like(base)
    out[np.ix_(qmap, qmap)] = base
    return out


def fidelity_functionals(m: int) -> list[np.ndarray]:
    """Haar-averaged clone-fidelity functionals ``G_k`` with
    ``F_k = Tr[J G_k]`` for an unnormalized cloner Choi ``J``.

    ``G_k`` places ``(I + |Phi><Phi|)/6`` on the (input, clone-k) pair,
    identity elsewhere; the partial transpose of the two-qubit twirl
    identity is already folded in.
    """
    pair = (np.eye(4) + PHI_UNNORM) / 6.0
    return [embed_two_qubit(pair, m + 1, 1, k + 1) for k in range(1, m + 1)]


@functools.cache
def _twirl_data(n: int):
    dim = 2 ** n
    maps = np.array(
        [perm_basis_map(p, n) for p in itertools.permutations(range(1, n + 1))]
    )
    count = maps.shape[0]
    gram = np.zeros((count, count))
    for b in range(dim):
        col = maps[:, b]
        gram += col[:, None] == col[None, :]
    return maps, np.linalg.pinv(gram, rcond=1e-10)


def twirl_permutation_algebra(j: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projection onto ``span{P_sigma : sigma in S_n}``.

    Equals the Haar average over diagonal unitary conjugations
    ``U^(x)n (.) U^(x)n dagger`` by Schur-Weyl duality.  The permutation
    operators are linearly dependent for n > 2, so the Gram system is
    solved in the least-squares sense with a rank cutoff of 1e-10.
    """
    if n > TWIRL_MAX_QUBITS:
        raise DimensionLimitError(f"twirl limited to {TWIRL_MAX_QUBITS} qubits, got {n}")
    dim = 2 ** n
    if j.shape != (dim, dim):
        raise ValueError(f"operator shape {j.shape} does not match {n} qubits")
    maps, gram_pinv = _twirl_data(n)
    basis = np.arange(dim)
    overlaps = j[maps, basis[None, :]].sum(axis=1)
    coeff = gram_pinv @ overlaps
    out = np.zeros_like(j)
    for qmap, x in zip(maps, coeff):
        out[qmap, basis] += x
    return out


def validate_cloner_choi(j: np.ndarray, m: int, space: ModeSpace) -> None:
    """The cloner checks of ``cloner._validate_cloner`` on the Choi itself:
    eigenvalue floor, ``Tr_out J = I_2`` and an isotropic (input, clone)
    marginal for every clone, by generic partial traces.  The SDP-built
    cloner has no Stinespring factor to check them on."""
    floor = float(np.linalg.eigvalsh(j)[0])
    if floor < -1e-9:
        raise ValueError(f"cloner Choi eigenvalue floor {floor:.2e} below -1e-9")
    tp = partial_trace(j, space, (1,))
    if np.max(np.abs(tp - I2)) > 1e-8:
        raise ValueError("cloner Choi violates trace preservation")
    # Isotropic marginals: each (input, clone) pair lies in span{Phi, I4}.
    gram = np.array([[4.0, 2.0], [2.0, 4.0]])
    for k in range(2, m + 2):
        marg = partial_trace(j, space, (1, k))
        v = np.array([np.real(np.trace(marg)), np.real(np.trace(PHI_UNNORM @ marg))])
        c_i, c_phi = np.linalg.solve(gram, v)
        resid = marg - c_i * np.eye(4) - c_phi * PHI_UNNORM
        if np.max(np.abs(resid)) > 1e-7:
            raise ValueError(f"clone {k - 1} marginal not isotropic")


def cloner_choi_sdp(gamma) -> ClonerChoi:
    """Covariant Choi operator of the gamma-weighted optimal cloner, by SDP
    and permutation-algebra twirl.  The SDP is real: ``Tr_out J = I_2`` is
    imposed on its I, sigma_x and sigma_z components, as the sigma_y one
    vanishes on every real symmetric J."""
    gamma = _as_gamma(gamma)
    m = gamma.m
    g_ops = fidelity_functionals(m)
    objective = sum(
        (gamma.gamma[k] + FIDELITY_TIEBREAK_EPS) * g_ops[k] for k in range(m)
    )
    dim_out = 2 ** m
    constraints = np.array([np.kron(pauli, np.eye(dim_out))
                            for pauli in (I2, SIGMA_X.real, SIGMA_Z.real)])
    rhs = [2.0, 0.0, 0.0]
    sol = sdp.solve([objective], [constraints], rhs)
    if sol.status != sdp.OPTIMAL:
        raise SolverError(sol.status, f"cloner SDP failed: {sol.message}")

    space = ModeSpace.qubits(range(1, m + 2))
    k_tw = twirl_permutation_algebra(partial_transpose(sol.X_blocks[0], space, (1,)), m + 1)
    j = partial_transpose(k_tw, space, (1,))
    j = (j + dagger(j)) / 2.0
    validate_cloner_choi(j, m, space)
    fids = tuple(float(np.real(np.trace(j @ g))) for g in g_ops)
    return ClonerChoi(choi=j, m=m, fidelities=fids)


def least_squares_factor_check(x: np.ndarray, m: int) -> None:
    """The earlier form of ``cloner._validate_cloner``: trace preservation
    on the Stinespring factor ``x``, then each (input, clone k) marginal
    from its own contraction of ``x`` and fitted by least squares in
    span{I4, Phi} (Gram matrix [[4, 2], [2, 4]]), with the same tolerances
    and messages."""
    x2 = x.reshape(2, -1)
    if np.max(np.abs(x2 @ x2.T / m - I2)) > 1e-8:
        raise ValueError("cloner Choi violates trace preservation")
    margs = np.empty((m, 4, 4))
    for k in range(1, m + 1):
        y = x.reshape(2, 2 ** (k - 1), 2, -1).transpose(0, 2, 1, 3).reshape(4, -1)
        margs[k - 1] = y @ y.T / m
    v = np.stack([np.trace(margs, axis1=1, axis2=2), np.einsum("ab,kab->k", PHI_UNNORM, margs)])
    c_i, c_phi = np.linalg.solve(np.array([[4.0, 2.0], [2.0, 4.0]]), v)
    resid = margs - c_i[:, None, None] * np.eye(4) - c_phi[:, None, None] * PHI_UNNORM
    bad = np.flatnonzero(np.abs(resid).max(axis=(1, 2)) > 1e-7)
    if bad.size:
        raise ValueError(f"clone {bad[0] + 1} marginal not isotropic")


def per_point_amplitudes(gamma) -> tuple:
    """``beta`` of one gamma by the earlier per-point route of
    ``cloner.clone_amplitudes``: the top eigenvector of
    ``sqrt(alpha) sqrt(alpha)^T + diag(alpha)``, scaled by ``sqrt(alpha)``,
    normalized by ``np.linalg.norm`` and scaled by NumPy scalar arithmetic."""
    g = np.asarray(_as_gamma(gamma).gamma)
    root = np.sqrt(np.clip(g / g.sum(), 0.0, None))
    u = root * np.abs(np.linalg.eigh(np.outer(root, root) + np.diag(root * root))[1][:, -1])
    u /= np.linalg.norm(u)
    return tuple(np.sqrt(2.0 / (u.sum() ** 2 + 1.0)) * u)
