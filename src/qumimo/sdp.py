"""Dense semidefinite programming over Hermitian cones.

Solves problems of the form

    maximize    sum_b Tr[C_b X_b]
    subject to  sum_b Tr[A_{i,b} X_b] = b_i      (i = 1..m)
                X_b >= 0                          (Hermitian PSD blocks)

via a homogeneous self-dual primal-dual interior-point method (HKM
search direction, Mehrotra predictor-corrector, step fraction 0.98 to
the cone boundary).  Complex Hermitian data is embedded into real
symmetric matrices with :func:`realify`; the reported objective undoes
the factor of two introduced by the embedding.

The solver is deliberately small and dense: the problems in this
package have realified dimension at most a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import DimensionLimitError, NotHermitianError
from .tensor import dagger, is_hermitian

MAX_REALIFIED_DIM = 512

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITER = "max_iter"


def realify(h: np.ndarray) -> np.ndarray:
    """Embed a Hermitian matrix as ``[[Re H, -Im H], [Im H, Re H]]``.

    The embedding is real symmetric, doubles every eigenvalue's
    multiplicity and doubles the trace.
    """
    h = np.asarray(h)
    if not is_hermitian(h):
        raise NotHermitianError("realify requires a Hermitian input")
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def _complex_restore(r: np.ndarray) -> np.ndarray:
    """Project a real 2n x 2n block back to an n x n Hermitian matrix."""
    n = r.shape[0] // 2
    b11, b12 = r[:n, :n], r[:n, n:]
    b21, b22 = r[n:, :n], r[n:, n:]
    h = (b11 + b22) / 2.0 + 1j * (b21 - b12) / 2.0
    return (h + dagger(h)) / 2.0


@dataclass
class SdpProblem:
    """Block SDP in maximize form with Hermitian data.

    ``equalities`` is a list of ``(coeffs, rhs)`` where ``coeffs`` maps a
    block index to its Hermitian coefficient matrix (blocks absent from
    the mapping contribute zero).
    """

    block_dims: Sequence[int]
    objective: Sequence[np.ndarray]
    equalities: Sequence[tuple]

    def __post_init__(self):
        if len(self.objective) != len(self.block_dims):
            raise ValueError("one objective matrix per block required")
        for b, (dim, c) in enumerate(zip(self.block_dims, self.objective)):
            if c.shape != (dim, dim):
                raise ValueError(f"objective block {b} has shape {c.shape}, expected {dim}")
            if not is_hermitian(c):
                raise NotHermitianError(f"objective block {b} not Hermitian")
        for i, (coeffs, _) in enumerate(self.equalities):
            for b, a in coeffs.items():
                if a.shape != (self.block_dims[b], self.block_dims[b]):
                    raise ValueError(f"constraint {i} block {b} dimension mismatch")
                if not is_hermitian(a):
                    raise NotHermitianError(f"constraint {i} block {b} not Hermitian")

    @property
    def num_constraints(self) -> int:
        return len(self.equalities)


@dataclass
class SdpSolution:
    X_blocks: list
    y: np.ndarray
    status: str
    gap: float
    iterations: int
    value: float = 0.0
    dual_value: float = 0.0
    primal_residual: float = np.inf
    iteration_log: list = field(default_factory=list)
    message: str = ""


@dataclass
class VerifyReport:
    constraint_residuals: np.ndarray
    min_eigenvalues: list
    primal_value: float
    dual_value: float
    gap: float
    feasible: bool
    psd_floor: float


def _sym(v: np.ndarray) -> np.ndarray:
    return (v + v.T) / 2.0


class _RealProblem:
    """Realified min-form data: min <C,X> s.t. <A_i,X> = b_i, X >= 0."""

    def __init__(self, problem: SdpProblem):
        self.dims = [2 * d for d in problem.block_dims]
        if sum(self.dims) > MAX_REALIFIED_DIM:
            raise DimensionLimitError(
                f"total realified dimension {sum(self.dims)} exceeds {MAX_REALIFIED_DIM}"
            )
        self.nblocks = len(self.dims)
        self.m = problem.num_constraints
        # Maximize <C_ext, X> == minimize <-C_ext, X>.
        self.C = [-realify(c) for c in problem.objective]
        self.b = np.zeros(self.m)
        self.A = [np.zeros((self.m, d, d)) for d in self.dims]
        for i, (coeffs, rhs) in enumerate(problem.equalities):
            self.b[i] = 2.0 * float(rhs)
            for blk, a in coeffs.items():
                self.A[blk][i] = realify(a)
        self.nu = float(sum(self.dims))

    def a_apply(self, X: list) -> np.ndarray:
        out = np.zeros(self.m)
        for blk in range(self.nblocks):
            out += np.einsum("mij,ij->m", self.A[blk], X[blk])
        return out

    def a_adjoint(self, y: np.ndarray) -> list:
        return [np.einsum("m,mij->ij", y, self.A[blk]) for blk in range(self.nblocks)]

    def inner_c(self, X: list) -> float:
        return float(sum(np.tensordot(c, x) for c, x in zip(self.C, X)))


def _max_step(mat: np.ndarray, dmat: np.ndarray) -> float:
    """Largest alpha with mat + alpha*dmat >= 0, given mat > 0."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return 0.0
    w = sla.solve_triangular(chol, dmat, lower=True)
    w = sla.solve_triangular(chol, w.T, lower=True)
    lam_min = float(np.linalg.eigvalsh(_sym(w))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve(
    problem: SdpProblem,
    tol: float = 1e-8,
    max_iter: int = 200,
    soft_tol: float = 1e-7,
) -> SdpSolution:
    """Run the interior-point iteration until an optimal certificate,
    an infeasibility/unboundedness flag, or the iteration cap.

    If the iteration stalls in numerical noise after effectively
    converging, the best iterate is accepted as optimal provided it
    meets ``soft_tol`` (the certificate tolerances promised on an
    optimal status).
    """
    rp_ = _RealProblem(problem)
    m, nb = rp_.m, rp_.nblocks
    if m == 0:
        raise ValueError("at least one equality constraint is required")

    norm_b = max(1.0, float(np.linalg.norm(rp_.b)))
    norm_c = max(1.0, max(float(np.linalg.norm(c)) for c in rp_.C))
    norm_a = max(1.0, max(float(np.max(np.abs(a))) if a.size else 0.0 for a in rp_.A))

    xi_p = max(1.0, float(np.max(np.abs(rp_.b))))
    xi_d = max(1.0, max(float(np.linalg.norm(c)) for c in rp_.C) / np.sqrt(max(rp_.dims)))
    X = [xi_p * np.eye(d) for d in rp_.dims]
    S = [xi_d * np.eye(d) for d in rp_.dims]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    log = []
    status, message = MAX_ITER, ""
    it = 0
    best_merit = np.inf
    best = None

    for it in range(1, max_iter + 1):
        # Residuals of the homogeneous model.
        ax = rp_.a_apply(X)
        aty = rp_.a_adjoint(y)
        rp_vec = rp_.b * tau - ax
        rd_mats = [rp_.C[blk] * tau - aty[blk] - S[blk] for blk in range(nb)]
        cx = rp_.inner_c(X)
        by = float(rp_.b @ y)
        rg = by - cx - kappa

        xs = float(sum(np.tensordot(X[blk], S[blk]) for blk in range(nb)))
        mu = (xs + tau * kappa) / (rp_.nu + 1.0)

        # Normalized convergence checks.
        pobj, dobj = cx / tau, by / tau
        pres = float(np.linalg.norm(rp_.b - ax / tau)) / norm_b
        dres = max(
            float(np.linalg.norm(rp_.C[blk] - aty[blk] / tau - S[blk] / tau))
            for blk in range(nb)
        ) / norm_c
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        log.append((pobj, dobj, relgap, pres, dres, mu))

        merit = max(pres, dres, relgap)
        if merit < best_merit:
            best_merit = merit
            best = ([x.copy() for x in X], y.copy(), tau, pobj, dobj, relgap, pres)
        if merit <= tol:
            status = OPTIMAL
            break
        if best_merit <= soft_tol and merit > 10.0 * best_merit:
            # The iteration has entered numerical noise past the best point.
            status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"
            break

        # Homogeneous-embedding infeasibility flags.
        if tau <= 1e-9 * max(1.0, kappa) or (mu <= tol * 1e-4 and tau <= 1e-7 * kappa):
            ray_d = max(float(np.linalg.norm(aty[blk] + S[blk])) for blk in range(nb))
            ray_p = float(np.linalg.norm(ax))
            if by > 0 and ray_d <= 1e-6 * norm_a * max(1.0, by):
                status, message = INFEASIBLE, "dual improving ray found"
            elif cx < 0 and ray_p <= 1e-6 * norm_a * max(1.0, -cx):
                status, message = UNBOUNDED, "primal improving ray found"
            else:
                status, message = MAX_ITER, "tau collapsed without certificate"
            break

        # Factorizations shared by predictor and corrector.
        try:
            sinv = []
            for blk in range(nb):
                cf = sla.cho_factor(S[blk], lower=True, check_finite=False)
                sinv.append(sla.cho_solve(cf, np.eye(rp_.dims[blk]), check_finite=False))
        except np.linalg.LinAlgError:
            if best_merit <= soft_tol:
                status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"
            else:
                status, message = MAX_ITER, "dual block lost positive definiteness"
            break

        schur = np.zeros((m, m))
        t_store = []
        for blk in range(nb):
            t_blk = np.matmul(np.matmul(X[blk][None, :, :], rp_.A[blk]), sinv[blk][None, :, :])
            t_store.append(t_blk)
            schur += rp_.A[blk].reshape(m, -1) @ t_blk.reshape(m, -1).T
        schur = _sym(schur)
        jitter = 0.0
        for _ in range(4):
            try:
                schur_cf = sla.cho_factor(schur + jitter * np.eye(m), check_finite=False)
                break
            except np.linalg.LinAlgError:
                jitter = max(1e-12 * np.trace(schur) / m, 10.0 * jitter, 1e-14)
        else:
            status, message = MAX_ITER, "Schur complement not positive definite"
            break

        wc = [_sym(X[blk] @ rp_.C[blk] @ sinv[blk]) for blk in range(nb)]
        awc = rp_.a_apply(wc)
        cwc = float(sum(np.tensordot(rp_.C[blk], wc[blk]) for blk in range(nb)))

        def direction(sigma, corr_blocks, corr_tk):
            rc = [
                sigma * mu * np.eye(rp_.dims[blk]) - X[blk] @ S[blk]
                - (corr_blocks[blk] if corr_blocks is not None else 0.0)
                for blk in range(nb)
            ]
            rc_tau = sigma * mu - tau * kappa - corr_tk
            scale = 1.0 - sigma
            r1 = scale * rp_vec
            r2 = [scale * rd_mats[blk] for blk in range(nb)]
            r3 = scale * rg

            e_blocks = [_sym(rc[blk] @ sinv[blk]) for blk in range(nb)]
            wr2 = [_sym(X[blk] @ r2[blk] @ sinv[blk]) for blk in range(nb)]
            rhs1 = r1 - rp_.a_apply(e_blocks) + rp_.a_apply(wr2)
            g = sla.cho_solve(schur_cf, rhs1, check_finite=False)
            h = sla.cho_solve(schur_cf, awc + rp_.b, check_finite=False)

            ce = float(sum(np.tensordot(rp_.C[blk], e_blocks[blk]) for blk in range(nb)))
            wcr2 = float(sum(np.tensordot(wc[blk], r2[blk]) for blk in range(nb)))
            rhs2 = -r3 + ce - wcr2 + rc_tau / tau
            den = float((rp_.b - awc) @ h) + cwc + kappa / tau
            num = rhs2 - float((rp_.b - awc) @ g)
            dtau = num / den if abs(den) > 1e-14 else 0.0
            dy = g + h * dtau
            aty_d = rp_.a_adjoint(dy)
            ds = [rp_.C[blk] * dtau - aty_d[blk] + r2[blk] for blk in range(nb)]
            dx = [_sym((rc[blk] - X[blk] @ ds[blk]) @ sinv[blk]) for blk in range(nb)]
            dkappa = (rc_tau - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def max_alpha(dx, ds, dtau, dkappa):
            alpha = np.inf
            for blk in range(nb):
                alpha = min(alpha, _max_step(X[blk], dx[blk]))
                alpha = min(alpha, _max_step(S[blk], ds[blk]))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        dxa, dya, dsa, dtaua, dkappaa = direction(0.0, None, 0.0)
        alpha_aff = min(1.0, 0.98 * max_alpha(dxa, dsa, dtaua, dkappaa))
        xs_aff = float(
            sum(
                np.tensordot(X[blk] + alpha_aff * dxa[blk], S[blk] + alpha_aff * dsa[blk])
                for blk in range(nb)
            )
        )
        mu_aff = (xs_aff + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / (
            rp_.nu + 1.0
        )
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

        corr = [dxa[blk] @ dsa[blk] for blk in range(nb)]
        dx, dy, ds, dtau, dkappa = direction(sigma, corr, dtaua * dkappaa)
        alpha = min(1.0, 0.98 * max_alpha(dx, ds, dtau, dkappa))
        if alpha <= 1e-9:
            if best_merit <= soft_tol:
                status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"
            else:
                status, message = MAX_ITER, "step length collapsed"
            break

        for blk in range(nb):
            X[blk] = _sym(X[blk] + alpha * dx[blk])
            S[blk] = _sym(S[blk] + alpha * ds[blk])
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status == MAX_ITER and best_merit <= soft_tol:
        status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"

    # Translate back to the complex maximize convention.
    if status == OPTIMAL:
        x_best, y_best, tau_best, pobj, dobj, relgap, pres = best
        x_ext = [_complex_restore(x / tau_best) for x in x_best]
        y_ext = -y_best / tau_best
        value = -pobj / 2.0
        dual_value = -dobj / 2.0
        return SdpSolution(
            X_blocks=x_ext,
            y=y_ext,
            status=OPTIMAL,
            gap=abs(value - dual_value),
            iterations=it,
            value=value,
            dual_value=dual_value,
            primal_residual=pres,
            iteration_log=log,
            message=message,
        )
    return SdpSolution(
        X_blocks=[_complex_restore(x) for x in X],
        y=-y,
        status=status,
        gap=np.inf,
        iterations=it,
        iteration_log=log,
        message=message,
    )


def verify(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> VerifyReport:
    """Recompute feasibility residuals and eigenvalue floors from scratch.

    Independent of solver internals: uses only the problem data and the
    returned blocks.
    """
    res = np.zeros(problem.num_constraints)
    for i, (coeffs, rhs) in enumerate(problem.equalities):
        val = sum(
            float(np.real(np.trace(a @ solution.X_blocks[blk]))) for blk, a in coeffs.items()
        )
        res[i] = val - float(rhs)
    floors = [float(np.linalg.eigvalsh(x)[0]) if x.size else 0.0 for x in solution.X_blocks]
    pval = float(
        sum(
            np.real(np.trace(c @ x))
            for c, x in zip(problem.objective, solution.X_blocks)
        )
    )
    gap = abs(pval - solution.dual_value)
    feasible = bool(np.max(np.abs(res)) <= tol and min(floors) >= -1e-8)
    return VerifyReport(
        constraint_residuals=res,
        min_eigenvalues=floors,
        primal_value=pval,
        dual_value=solution.dual_value,
        gap=gap,
        feasible=feasible,
        psd_floor=min(floors),
    )
