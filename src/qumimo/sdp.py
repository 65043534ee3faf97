"""Semidefinite programming over Hermitian cones.

Solves problems of the form

    maximize    sum_b Tr[C_b X_b]
    subject to  sum_b Tr[A_{i,b} X_b] = b_i      (i = 1..m)
                X_b >= 0                          (Hermitian PSD blocks)

via a homogeneous self-dual primal-dual interior-point method (HKM
search direction, Mehrotra predictor-corrector, step fraction 0.98 to
the cone boundary).  The iterates are complex Hermitian blocks, paired
by ``<A, X> = Re Tr[A X]``; the dual vector, the Schur system and its
Cholesky factor are real.

A problem holds its constraints as one dense complex ``m x d x d`` stack
per block, row i of every stack and ``rhs[i]`` making constraint i (a
row that leaves a block out is zero there); the solver reads ``A(X)``,
``A*(y)`` and the HKM Schur matrix ``Re Tr[A_i X A_j S^-1]`` straight
off the stacks.  That suits problems with few constraints on small
blocks, such as the decoder problem after its symmetry reduction
(``decoder.purification_sdp``: at most 20 + 10 wide and 43 constraints
at K = 5).  ``MAX_DIM`` caps the total block width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import DimensionLimitError, NotHermitianError
from .tensor import dagger, is_hermitian

# Largest total block dimension the solver accepts.
MAX_DIM = 256

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITER = "max_iter"

# Merit (worst of the relative primal and dual residuals and gap) at
# which an iterate is optimal, and at which the best iterate of a
# stalled iteration is accepted instead.
TOL = 1e-8
SOFT_TOL = 1e-7
ITERATION_CAP = 200


@dataclass
class SdpProblem:
    """Block SDP in maximize form with Hermitian data: ``constraints[b]``
    is block b's ``m x d_b x d_b`` stack (zero where a constraint leaves
    the block out), ``rhs`` the m right-hand sides.  Both are kept as
    contiguous copies: the solver's reductions round by memory layout, so
    a strided ``rhs`` would move the last bits of a solve."""

    objective: Sequence[np.ndarray]
    constraints: Sequence[np.ndarray]
    rhs: np.ndarray

    def __post_init__(self):
        self.rhs = np.array(self.rhs, dtype=float)
        self.constraints = [np.ascontiguousarray(a, dtype=complex) for a in self.constraints]
        if self.rhs.ndim != 1:
            raise ValueError(f"rhs has shape {self.rhs.shape}, expected a vector")
        if len(self.constraints) != len(self.objective):
            raise ValueError("one constraint stack per objective block required")
        m = len(self.rhs)
        for b, (c, a) in enumerate(zip(self.objective, self.constraints)):
            dim = len(c)
            if c.shape != (dim, dim):
                raise ValueError(f"objective block {b} has shape {c.shape}, expected square")
            if not is_hermitian(c):
                raise NotHermitianError(f"objective block {b} not Hermitian")
            if a.shape != (m, dim, dim):
                raise ValueError(f"constraint stack {b} has shape {a.shape}, "
                                 f"expected {(m, dim, dim)}")
            for i, ai in enumerate(a):
                if not is_hermitian(ai):
                    raise NotHermitianError(f"constraint {i} block {b} not Hermitian")


@dataclass
class SdpSolution:
    X_blocks: list
    y: np.ndarray
    status: str
    gap: float
    iterations: int
    value: float = 0.0
    dual_value: float = 0.0
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


def _herm(v: np.ndarray) -> np.ndarray:
    return (v + dagger(v)) / 2.0


def _a_apply(A: list, X: list) -> np.ndarray:
    """``A(X)``: ``Re Tr[A_i X]`` summed over the blocks, for every row i."""
    return sum(np.einsum("mij,ji->m", a, x).real for a, x in zip(A, X))


def _a_adjoint(A: list, y: np.ndarray) -> list:
    """``A*(y)``: ``sum_i y_i A_i`` per block."""
    return [np.einsum("m,mij->ij", y, a) for a in A]


# SciPy's LAPACK Cholesky, triangular and Cholesky solves, called without
# the input-checking wrappers (no finite check, no array conversion):
# every matrix here is a finite iterate, and at the block sizes solved
# here the wrappers cost more than the factorizations.  The blocks are
# complex; the Schur system is real.
_zpotrf, _zpotrs, _ztrtrs = sla.lapack.zpotrf, sla.lapack.zpotrs, sla.lapack.ztrtrs
_dpotrf, _dpotrs = sla.lapack.dpotrf, sla.lapack.dpotrs


def _max_step(mat: np.ndarray, dmat: np.ndarray) -> float:
    """Largest alpha with mat + alpha*dmat >= 0, given mat > 0."""
    chol, info = _zpotrf(mat, lower=1)
    if info:
        return 0.0
    w = _ztrtrs(chol, dmat, lower=1)[0]
    w = _ztrtrs(chol, dagger(w), lower=1)[0]
    lam_min = float(np.linalg.eigvalsh(_herm(w))[0])
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration until an optimal certificate
    (merit at most ``TOL``), an infeasibility/unboundedness flag, or
    ``ITERATION_CAP`` iterations.

    If the iteration stalls in numerical noise after effectively
    converging, the best iterate is accepted as optimal provided it
    meets ``SOFT_TOL`` (the certificate tolerances promised on an
    optimal status).  The constraint stacks are read as they stand.
    """
    dims = [len(c) for c in problem.objective]
    if sum(dims) > MAX_DIM:
        raise DimensionLimitError(f"total block dimension {sum(dims)} exceeds {MAX_DIM}")
    A, b = problem.constraints, problem.rhs
    m, nb = len(b), len(dims)
    if m == 0:
        raise ValueError("at least one equality constraint is required")
    nu = float(sum(dims))
    # Maximize <C_ext, X> == minimize <-C_ext, X>.
    C = [-np.asarray(c, dtype=complex) for c in problem.objective]

    norm_b = max(1.0, float(np.linalg.norm(b)))
    norm_c = max(1.0, max(float(np.linalg.norm(c)) for c in C))
    norm_a = max(1.0, max(float(np.max(np.abs(a))) if a.size else 0.0 for a in A))

    xi_p = max(1.0, float(np.max(np.abs(b))))
    xi_d = max(1.0, max(float(np.linalg.norm(c)) for c in C) / np.sqrt(max(dims)))
    eyes = [np.eye(d, dtype=complex) for d in dims]
    X = [xi_p * e for e in eyes]
    S = [xi_d * e for e in eyes]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    log = []
    status, message = MAX_ITER, ""
    it = 0
    best_merit = np.inf
    best = None

    for it in range(1, ITERATION_CAP + 1):
        # Residuals of the homogeneous model.
        ax = _a_apply(A, X)
        aty = _a_adjoint(A, y)
        rp_vec = b * tau - ax
        rd_mats = [C[blk] * tau - aty[blk] - S[blk] for blk in range(nb)]
        cx = float(sum(np.vdot(c, x).real for c, x in zip(C, X)))
        by = float(b @ y)
        rg = by - cx - kappa

        xs = float(sum(np.vdot(X[blk], S[blk]).real for blk in range(nb)))
        mu = (xs + tau * kappa) / (nu + 1.0)

        # Normalized convergence checks.
        pobj, dobj = cx / tau, by / tau
        pres = float(np.linalg.norm(b - ax / tau)) / norm_b
        dres = max(
            float(np.linalg.norm(C[blk] - aty[blk] / tau - S[blk] / tau))
            for blk in range(nb)
        ) / norm_c
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        log.append((pobj, dobj, relgap, pres, dres, mu))

        merit = max(pres, dres, relgap)
        if merit < best_merit:
            best_merit = merit
            best = ([x.copy() for x in X], y.copy(), tau, pobj, dobj)
        if merit <= TOL:
            status = OPTIMAL
            break
        if best_merit <= SOFT_TOL and merit > 10.0 * best_merit:
            # The iteration has entered numerical noise past the best point.
            status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"
            break

        # Homogeneous-embedding infeasibility flags.
        if tau <= 1e-9 * max(1.0, kappa) or (mu <= TOL * 1e-4 and tau <= 1e-7 * kappa):
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
        sinv = []
        for blk in range(nb):
            chol, info = _zpotrf(S[blk], lower=1)
            if info:
                break
            sinv.append(_zpotrs(chol, eyes[blk], lower=1)[0])
        if len(sinv) < nb:
            status, message = MAX_ITER, "dual block lost positive definiteness"
            break

        # The HKM Schur matrix Re Tr[A_i X A_j S^-1], summed over the blocks.
        schur = np.zeros((m, m))
        for a, x, si in zip(A, X, sinv):
            t = np.matmul(np.matmul(x[None, :, :], a), si[None, :, :])
            schur += np.real(a.reshape(m, -1).conj() @ t.reshape(m, -1).T)
        schur = _herm(schur)
        jitter = 0.0
        for _ in range(4):
            schur_cf, info = _dpotrf(schur + jitter * np.eye(m), lower=0, clean=0)
            if not info:
                break
            jitter = max(1e-12 * np.trace(schur) / m, 10.0 * jitter, 1e-14)
        else:
            status, message = MAX_ITER, "Schur complement not positive definite"
            break

        wc = [_herm(X[blk] @ C[blk] @ sinv[blk]) for blk in range(nb)]
        awc = _a_apply(A, wc)
        cwc = float(sum(np.vdot(C[blk], wc[blk]).real for blk in range(nb)))

        def direction(sigma, corr_blocks, corr_tk):
            rc = [
                sigma * mu * eyes[blk] - X[blk] @ S[blk]
                - (corr_blocks[blk] if corr_blocks is not None else 0.0)
                for blk in range(nb)
            ]
            rc_tau = sigma * mu - tau * kappa - corr_tk
            scale = 1.0 - sigma
            r1 = scale * rp_vec
            r2 = [scale * rd_mats[blk] for blk in range(nb)]
            r3 = scale * rg

            e_blocks = [_herm(rc[blk] @ sinv[blk]) for blk in range(nb)]
            wr2 = [_herm(X[blk] @ r2[blk] @ sinv[blk]) for blk in range(nb)]
            rhs1 = r1 - _a_apply(A, e_blocks) + _a_apply(A, wr2)
            g = _dpotrs(schur_cf, rhs1, lower=0)[0]
            h = _dpotrs(schur_cf, awc + b, lower=0)[0]

            ce = float(sum(np.vdot(C[blk], e_blocks[blk]).real for blk in range(nb)))
            wcr2 = float(sum(np.vdot(wc[blk], r2[blk]).real for blk in range(nb)))
            rhs2 = -r3 + ce - wcr2 + rc_tau / tau
            den = float((b - awc) @ h) + cwc + kappa / tau
            num = rhs2 - float((b - awc) @ g)
            dtau = num / den if abs(den) > 1e-14 else 0.0
            dy = g + h * dtau
            aty_d = _a_adjoint(A, dy)
            ds = [C[blk] * dtau - aty_d[blk] + r2[blk] for blk in range(nb)]
            dx = [_herm((rc[blk] - X[blk] @ ds[blk]) @ sinv[blk]) for blk in range(nb)]
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
                np.vdot(X[blk] + alpha_aff * dxa[blk], S[blk] + alpha_aff * dsa[blk]).real
                for blk in range(nb)
            )
        )
        mu_aff = (xs_aff + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / (
            nu + 1.0
        )
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

        corr = [dxa[blk] @ dsa[blk] for blk in range(nb)]
        dx, dy, ds, dtau, dkappa = direction(sigma, corr, dtaua * dkappaa)
        alpha = min(1.0, 0.98 * max_alpha(dx, ds, dtau, dkappa))
        if alpha <= 1e-9:
            status, message = MAX_ITER, "step length collapsed"
            break

        for blk in range(nb):
            X[blk] = _herm(X[blk] + alpha * dx[blk])
            S[blk] = _herm(S[blk] + alpha * ds[blk])
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status == MAX_ITER and best_merit <= SOFT_TOL:
        status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"

    # Translate back to the maximize convention.
    if status == OPTIMAL:
        x_best, y_best, tau_best, pobj, dobj = best
        value, dual_value = -pobj, -dobj
        return SdpSolution(
            X_blocks=[x / tau_best for x in x_best],
            y=-y_best / tau_best,
            status=OPTIMAL,
            gap=abs(value - dual_value),
            iterations=it,
            value=value,
            dual_value=dual_value,
            iteration_log=log,
            message=message,
        )
    return SdpSolution(
        X_blocks=X,
        y=-y,
        status=status,
        gap=np.inf,
        iterations=it,
        iteration_log=log,
        message=message,
    )


def verify(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> VerifyReport:
    """Recompute feasibility residuals and eigenvalue floors from scratch.

    Uses only the problem data and the returned blocks, not the solver's
    iterates: the residuals are ``A(X) - rhs``.
    """
    res = _a_apply(problem.constraints, solution.X_blocks) - problem.rhs
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
