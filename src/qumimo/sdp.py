"""Semidefinite programming over symmetric and Hermitian cones.

Solves problems of the form

    maximize    sum_b Tr[C_b X_b]
    subject to  sum_b Tr[A_{i,b} X_b] = b_i      (i = 1..m)
                X_b >= 0                          (PSD blocks)

via a homogeneous self-dual primal-dual interior-point method (HKM
search direction, Mehrotra predictor-corrector, step fraction 0.98 to
the cone boundary), paired by ``<A, X> = Re Tr[A X]``.

A problem holds its constraints as one dense ``m x d x d`` stack per
block, row i of every stack and ``rhs[i]`` making constraint i (a row
that leaves a block out is zero there).  The solver merges the blocks
into one block-diagonal iterate, so ``A(X)`` and ``A*(y)`` are one
matrix product each on the flattened stack, and it works in the dtype
of the data: real symmetric ``float64`` when every objective and
constraint block is real, complex Hermitian ``complex128`` otherwise.
The dual vector and the Schur system are real either way.  That suits
problems with few constraints on small blocks, such as the decoder
problem after its symmetry reduction (``decoder.purification_sdp``: real
blocks of at most 20 + 10 and 27 constraints at K = 5).  ``MAX_DIM``
caps the total block width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionLimitError, NotHermitianError
from .tensor import HERMITIAN_RTOL, is_hermitian

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
        self.objective = [np.asarray(c, dtype=np.result_type(c, float)) for c in self.objective]
        self.constraints = [np.ascontiguousarray(a, dtype=np.result_type(a, float))
                            for a in self.constraints]
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
            # One check per stack, each row held to is_hermitian's tolerance.
            scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
            skew = np.abs(a - a.swapaxes(1, 2).conj()).max(axis=(1, 2), initial=0.0)
            bad = np.flatnonzero(skew > HERMITIAN_RTOL * scale)
            if bad.size:
                raise NotHermitianError(f"constraint {bad[0]} block {b} not Hermitian")


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
    return (v + v.swapaxes(-1, -2).conj()) / 2.0


def _block_diag(blocks) -> np.ndarray:
    """The blocks (square matrices, or ``m x d x d`` stacks) on the
    diagonal of one matrix (or stack), in the dtype of their data."""
    n = sum(x.shape[-1] for x in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n), dtype=np.result_type(*blocks, float))
    lo = 0
    for x in blocks:
        hi = lo + x.shape[-1]
        out[..., lo:hi, lo:hi] = x
        lo = hi
    return out


def _a_apply(a_conj: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A(X)``: ``Re Tr[A_i X]`` for every row i, from the conjugated
    flat stack (rows of ``conj(A_i)``) and a Hermitian X."""
    return (a_conj @ x.ravel()).real


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration until an optimal certificate
    (merit at most ``TOL``), an infeasibility/unboundedness flag, or
    ``ITERATION_CAP`` iterations.

    If the iteration stalls in numerical noise after effectively
    converging, the best iterate is accepted as optimal provided it
    meets ``SOFT_TOL`` (the certificate tolerances promised on an
    optimal status).  The residual norms behind the merit and the
    infeasibility flags are taken per block, the worst block counting.
    """
    dims = [len(c) for c in problem.objective]
    n = sum(dims)
    if n > MAX_DIM:
        raise DimensionLimitError(f"total block dimension {n} exceeds {MAX_DIM}")
    b = problem.rhs
    m = len(b)
    if m == 0:
        raise ValueError("at least one equality constraint is required")
    nu = float(n)
    # Maximize <C_ext, X> == minimize <-C_ext, X>, on the merged block.
    dtype = np.result_type(*problem.objective, *problem.constraints)
    C = -_block_diag(problem.objective).astype(dtype)
    a_flat = _block_diag(problem.constraints).reshape(m, n * n).astype(dtype)
    a_conj = a_flat.conj()
    eye = np.eye(n, dtype=dtype)
    edges = np.cumsum([0] + dims)
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]

    def block_norm(v):
        return max(float(np.linalg.norm(v[s, s])) for s in blocks)

    norm_b = max(1.0, float(np.linalg.norm(b)))
    norm_c = max(1.0, block_norm(C))
    norm_a = max(1.0, float(np.max(np.abs(a_flat))))

    xi_p = max(1.0, float(np.max(np.abs(b))))
    xi_d = max(1.0, block_norm(C) / np.sqrt(max(dims)))
    X = xi_p * eye
    S = xi_d * eye
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    log = []
    status, message = MAX_ITER, ""
    it = 0
    best_merit = np.inf
    best = None

    for it in range(1, ITERATION_CAP + 1):
        # Residuals of the homogeneous model.
        ax = _a_apply(a_conj, X)
        aty = (y @ a_flat).reshape(n, n)
        rp_vec = b * tau - ax
        rd = C * tau - aty - S
        cx = float(np.vdot(C, X).real)
        by = float(b @ y)
        rg = by - cx - kappa

        xs = float(np.vdot(X, S).real)
        mu = (xs + tau * kappa) / (nu + 1.0)

        # Normalized convergence checks.
        pobj, dobj = cx / tau, by / tau
        pres = float(np.linalg.norm(b - ax / tau)) / norm_b
        dres = block_norm(C - aty / tau - S / tau) / norm_c
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        log.append((pobj, dobj, relgap, pres, dres, mu))

        merit = max(pres, dres, relgap)
        if merit < best_merit:
            best_merit = merit
            best = (X.copy(), y.copy(), tau, pobj, dobj)
        if merit <= TOL:
            status = OPTIMAL
            break
        if best_merit <= SOFT_TOL and merit > 10.0 * best_merit:
            # The iteration has entered numerical noise past the best point.
            status, message = OPTIMAL, "accepted best iterate at relaxed tolerance"
            break

        # Homogeneous-embedding infeasibility flags.
        if tau <= 1e-9 * max(1.0, kappa) or (mu <= TOL * 1e-4 and tau <= 1e-7 * kappa):
            ray_d = block_norm(aty + S)
            ray_p = float(np.linalg.norm(ax))
            if by > 0 and ray_d <= 1e-6 * norm_a * max(1.0, by):
                status, message = INFEASIBLE, "dual improving ray found"
            elif cx < 0 and ray_p <= 1e-6 * norm_a * max(1.0, -cx):
                status, message = UNBOUNDED, "primal improving ray found"
            else:
                status, message = MAX_ITER, "tau collapsed without certificate"
            break

        # X and S factored once: L^-1 of both serve S^-1 and the step lengths.
        try:
            linv = np.linalg.inv(np.linalg.cholesky(np.stack([X, S])))
        except np.linalg.LinAlgError:
            status, message = MAX_ITER, "iterate lost positive definiteness"
            break
        linv_h = linv.swapaxes(1, 2).conj()
        sinv = linv_h[1] @ linv[1]

        # The HKM Schur matrix Re Tr[A_i X A_j S^-1], jittered until its
        # Cholesky factorization succeeds.  Its systems are solved by LU:
        # an explicit inverse lost the primal residual near the optimum.
        t = X @ a_flat.reshape(m, n, n) @ sinv
        schur = _herm((a_conj @ t.reshape(m, -1).T).real)
        jitter = 0.0
        for _ in range(4):
            try:
                np.linalg.cholesky(schur + jitter * np.eye(m))
                break
            except np.linalg.LinAlgError:
                jitter = max(1e-12 * np.trace(schur) / m, 10.0 * jitter, 1e-14)
        else:
            status, message = MAX_ITER, "Schur complement not positive definite"
            break
        schur += jitter * np.eye(m)

        # The sigma-independent parts of the direction.
        wc = _herm(X @ C @ sinv)
        awc = _a_apply(a_conj, wc)
        cwc = float(np.vdot(C, wc).real)
        h = np.linalg.solve(schur, awc + b)
        den = float((b - awc) @ h) + cwc + kappa / tau
        wrd = _herm(X @ rd @ sinv)
        rp_wrd = rp_vec + _a_apply(a_conj, wrd)
        wcrd = float(np.vdot(wc, rd).real)
        xs_mat = X @ S

        def direction(sigma, corr, corr_tk):
            rc = sigma * mu * eye - xs_mat - corr
            rc_tau = sigma * mu - tau * kappa - corr_tk
            scale = 1.0 - sigma
            e = _herm(rc @ sinv)
            g = np.linalg.solve(schur, scale * rp_wrd - _a_apply(a_conj, e))
            ce = float(np.vdot(C, e).real)
            rhs2 = -scale * rg + ce - scale * wcrd + rc_tau / tau
            num = rhs2 - float((b - awc) @ g)
            dtau = num / den if abs(den) > 1e-14 else 0.0
            dy = g + h * dtau
            ds = C * dtau - (dy @ a_flat).reshape(n, n) + scale * rd
            dx = _herm((rc - X @ ds) @ sinv)
            dkappa = (rc_tau - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def max_alpha(dx, ds, dtau, dkappa):
            # Smallest eigenvalue of L^-1 dM L^-H over X and S at once.
            lam_min = float(np.linalg.eigvalsh(_herm(linv @ np.stack([dx, ds]) @ linv_h)).min())
            alpha = np.inf if lam_min >= -1e-14 else -1.0 / lam_min
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        dxa, dya, dsa, dtaua, dkappaa = direction(0.0, 0.0, 0.0)
        alpha_aff = min(1.0, 0.98 * max_alpha(dxa, dsa, dtaua, dkappaa))
        xs_aff = float(np.vdot(X + alpha_aff * dxa, S + alpha_aff * dsa).real)
        mu_aff = (xs_aff + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / (
            nu + 1.0
        )
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

        dx, dy, ds, dtau, dkappa = direction(sigma, dxa @ dsa, dtaua * dkappaa)
        alpha = min(1.0, 0.98 * max_alpha(dx, ds, dtau, dkappa))
        if alpha <= 1e-9:
            status, message = MAX_ITER, "step length collapsed"
            break

        X = _herm(X + alpha * dx)
        S = _herm(S + alpha * ds)
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
            X_blocks=[x_best[s, s] / tau_best for s in blocks],
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
        X_blocks=[X[s, s] for s in blocks],
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
    m = len(problem.rhs)
    a_conj = _block_diag(problem.constraints).reshape(m, -1).conj()
    res = _a_apply(a_conj, _block_diag(solution.X_blocks)) - problem.rhs
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
