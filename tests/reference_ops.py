"""Test-side reference operators, samplers and routes.

The program does not call these.  Tests use them as independent
references for run-time code: the Pauli matrices, Haar sampling for
Monte Carlo checks, the permutation unitaries behind the channel's
crosstalk symmetry, the Kraus set of the depolarizing map, the rank-one
witness of the Rayleigh bound on the full ``Rt`` (the reference for
``decoder.rayleigh_bound``, which scores on ``sigma^T``), and the
compose -> ``build_qr`` route that ``channel.branch_fidelities``
replaces.
"""

from __future__ import annotations

import numpy as np

from qumimo import cloner, decoder
from qumimo.errors import DimensionLimitError, NotHermitianError, NotPsdError
from qumimo.tensor import (
    DEFAULT_DIM_CAP,
    I2,
    PHI_UNNORM,
    PSD_SUPPORT_TOL,
    dagger,
    is_hermitian,
    perm_basis_map,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)


def kron(a: np.ndarray, b: np.ndarray, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Kronecker product with a loud failure above the dimension cap."""
    a = np.asarray(a)
    b = np.asarray(b)
    out_rows = a.shape[0] * b.shape[0]
    out_cols = a.shape[1] * b.shape[1]
    if max(out_rows, out_cols) > dim_cap:
        raise DimensionLimitError(
            f"kron result {out_rows}x{out_cols} exceeds cap {dim_cap}"
        )
    return np.kron(a, b)


def haar_qubit(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random pure qubit state as a length-2 complex vector."""
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return z / np.linalg.norm(z)


def projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi).reshape(-1)
    return np.outer(psi, psi.conj())


def hermitian_eig(x: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns ``(w, v)`` with ``x @ v == v @ diag(w)``.  Backed by LAPACK's
    Hermitian solver; inputs failing the Hermiticity tolerance are
    rejected rather than silently symmetrized.
    """
    x = np.asarray(x, dtype=complex)
    if not is_hermitian(x):
        raise NotHermitianError(
            f"matrix deviates from Hermiticity by {np.max(np.abs(x - dagger(x))):.3e}"
        )
    return np.linalg.eigh((x + dagger(x)) / 2.0)


def psd_sqrt_pinv(x: np.ndarray, support_tol: float = PSD_SUPPORT_TOL) -> np.ndarray:
    """Inverse square root of a PSD matrix on its support, zero elsewhere.

    Eigenvalues in ``(-support_tol, support_tol]`` are treated as zero;
    anything below ``-support_tol`` raises.
    """
    w, v = hermitian_eig(x)
    if w[0] < -support_tol:
        raise NotPsdError(f"eigenvalue {w[0]:.3e} below -{support_tol:.1e}")
    inv_sqrt = np.where(w > support_tol, 1.0 / np.sqrt(np.clip(w, support_tol, None)), 0.0)
    return (v * inv_sqrt) @ dagger(v)


def support_projector(x: np.ndarray, support_tol: float = PSD_SUPPORT_TOL) -> np.ndarray:
    w, v = hermitian_eig(x)
    mask = (w > support_tol).astype(float)
    return (v * mask) @ dagger(v)


def permutation_unitary(pi, n: int) -> np.ndarray:
    """Unitary sending the value on mode i to mode pi(i)."""
    qmap = perm_basis_map(pi, n)
    dim = 2 ** n
    u = np.zeros((dim, dim), dtype=complex)
    u[qmap, np.arange(dim)] = 1.0
    return u


def depolarizing_kraus(lam: float) -> list[np.ndarray]:
    """Kraus set of ``rho -> (1 - lam) rho + lam I/2``."""
    w0 = np.sqrt(1.0 - 3.0 * lam / 4.0)
    w1 = np.sqrt(lam / 4.0)
    return [w0 * I2, w1 * SIGMA_X, w1 * SIGMA_Y, w1 * SIGMA_Z]


def choi_from_kraus(kraus) -> np.ndarray:
    """Unnormalized Choi on (in, out): ``sum_k (I (x) K) |Phi><Phi| (I (x) K)^dag``."""
    return sum(np.kron(I2, k) @ PHI_UNNORM @ dagger(np.kron(I2, k)) for k in kraus)


def rank_one_certificate(qr: decoder.QROperators, p: float) -> np.ndarray:
    """Relaxation witness ``p R^{-1/2} |v><v| R^{-1/2}``, with ``v`` the top
    eigenvector of ``R^{-1/2} Qt R^{-1/2}`` on the full ``Rt``; PSD and on
    budget, but free to violate the partial-trace dominance."""
    rinv = psd_sqrt_pinv(qr.rt)
    mat = rinv @ qr.qt @ rinv
    _, vecs = hermitian_eig((mat + dagger(mat)) / 2.0)
    v = support_projector(qr.rt) @ vecs[:, -1]
    nrm = np.linalg.norm(v)
    if nrm > 0:
        v = v / nrm
    return p * (rinv @ projector(v) @ rinv)


def branch_fidelity_via_compose(chan, t_mode: int, r_mode: int) -> float:
    """One single-branch fidelity through the full N-mode cascade: the
    M = 1 cloner composed with the channel, Haar operators, then
    ``Tr[Phi Qt]`` for the received qubit used as it is."""
    emap = decoder.compose_effective_map(cloner.cloner_choi((1.0,)), chan, (t_mode,), (r_mode,))
    return float(np.real(np.trace(PHI_UNNORM @ decoder.build_qr(emap).qt)))
