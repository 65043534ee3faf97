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
matrix product each on the flattened stack, while the steps whose cost
is cubic in the width (factorizations, eigenvalues, the Schur matrix)
go block by block.  It works in the dtype of the data: real symmetric
``float64`` when every objective and constraint block is real, complex
Hermitian ``complex128`` otherwise.  The dual vector and the Schur
system are real either way.  That suits
problems with few constraints on small blocks, such as the decoder
problem after its symmetry reduction (``decoder.purification_sdp``: real
blocks of at most 20 + 10 and 27 constraints at K = 5).  ``MAX_DIM``
caps the total block width.

Such a problem takes about ten iterations, and on blocks this small an
iteration's time goes to NumPy's per-call overhead.  So :func:`solve_many`
runs a stack of problems of one shape in one iteration: every iterate,
and every scalar of the method (tau, kappa, mu, sigma, the step lengths,
the merit, the best iterate, the Schur jitter), gains a leading axis of
one row per problem, and a problem leaves the stack when it stops, with
the status, message and iteration count it would get alone.
:func:`solve` is the stack of one.  The stack is batch invariant: every
matrix product is a product per problem (a stacked ``matmul``, never one
product across problems), every reduction stays within one problem's
row, and every factorization is LAPACK's on one problem's matrix, so a
problem's arithmetic, and its solution bit for bit, do not depend on what
else is in its stack or where.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
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
# The message of a solve accepted at SOFT_TOL.
SOFT_ACCEPT = "accepted best iterate at relaxed tolerance"


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
    """``A(X)``: ``Re Tr[A_i X]`` for every row i of every problem, from the
    conjugated flat stacks (rows of ``conj(A_i)``) and Hermitian iterates."""
    return (a_conj @ x.reshape(len(x), -1, 1))[..., 0].real


def _a_adjoint(y: np.ndarray, a_flat: np.ndarray) -> np.ndarray:
    """``A*(y) = sum_i y_i A_i`` of every problem, as flat matrices."""
    return (y[:, None] @ a_flat)[:, 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``Re <u, v>`` of every problem."""
    return (u.conj() * v).sum(axis=(1, 2)).real


def _col(v: np.ndarray) -> np.ndarray:
    return v[:, None, None]


def _is_pd(x: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(x)
        return True
    except np.linalg.LinAlgError:
        return False


def _jitter(schur: np.ndarray) -> float:
    """The first of 0 and three growing jitters that makes ``schur + jitter
    I`` positive definite, or NaN if none does."""
    m, jitter = len(schur), 0.0
    for _ in range(4):
        if _is_pd(schur + jitter * np.eye(m)):
            return jitter
        jitter = max(1e-12 * np.trace(schur) / m, 10.0 * jitter, 1e-14)
    return np.nan


@dataclass
class _Stack:
    """The problems of a stack still iterating, one row each: the row's
    position in the stack (``live``), its data, its iterate and its best
    iterate so far."""

    live: np.ndarray
    c: np.ndarray
    a: np.ndarray
    a_conj: np.ndarray
    a_blocks: list
    rhs: np.ndarray
    norm_b: np.ndarray
    norm_c: np.ndarray
    norm_a: np.ndarray
    x: np.ndarray
    s: np.ndarray
    dual: np.ndarray
    tau: np.ndarray
    kappa: np.ndarray
    best_merit: np.ndarray
    best_x: np.ndarray
    best_dual: np.ndarray
    best_tau: np.ndarray
    best_pobj: np.ndarray
    best_dobj: np.ndarray

    def take(self, rows) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(self, f.name, [v[rows] for v in value] if isinstance(value, list)
                    else value[rows])


def _solution(st: _Stack, row: int, blocks, status, message, it) -> SdpSolution:
    """Row ``row``'s result, in the maximize convention: its best iterate
    when optimal (a stop short of a certificate is accepted when the best
    iterate met ``SOFT_TOL``), else its last iterate."""
    if status == MAX_ITER and st.best_merit[row] <= SOFT_TOL:
        status, message = OPTIMAL, SOFT_ACCEPT
    if status == OPTIMAL:
        x_best, tau_best = st.best_x[row], st.best_tau[row]
        value, dual_value = -float(st.best_pobj[row]), -float(st.best_dobj[row])
        return SdpSolution(
            X_blocks=[x_best[s, s] / tau_best for s in blocks],
            y=-st.best_dual[row] / tau_best,
            status=OPTIMAL,
            gap=abs(value - dual_value),
            iterations=it,
            value=value,
            dual_value=dual_value,
            message=message,
        )
    return SdpSolution(
        X_blocks=[st.x[row][s, s] for s in blocks],
        y=-st.dual[row],
        status=status,
        gap=np.inf,
        iterations=it,
        message=message,
    )


def solve(problem: SdpProblem) -> SdpSolution:
    """:func:`solve_many` on a stack of one problem."""
    return solve_many([problem])[0]


def solve_many(problems) -> list:
    """Solve a stack of problems of one shape (block sizes, constraint
    count and dtype) in one interior-point run; one solution per problem,
    in order.

    Each problem iterates until an optimal certificate (merit at most
    ``TOL``), an infeasibility/unboundedness flag, lost definiteness, a
    collapsed step or ``ITERATION_CAP`` iterations, and then leaves the
    stack.  If its iteration stalls in numerical noise after effectively
    converging, its best iterate is accepted as optimal provided it meets
    ``SOFT_TOL`` (the certificate tolerances promised on an optimal
    status).  The residual norms behind the merit and the infeasibility
    flags are taken per block, the worst block counting.

    Every matrix product is a product per problem (a stacked ``matmul``)
    and every reduction runs within one problem's row, so a problem's
    arithmetic does not depend on what else is in its stack.
    """
    problems = list(problems)
    if not problems:
        return []
    dims = [len(c) for c in problems[0].objective]
    n, m = sum(dims), len(problems[0].rhs)
    if n > MAX_DIM:
        raise DimensionLimitError(f"total block dimension {n} exceeds {MAX_DIM}")
    if m == 0:
        raise ValueError("at least one equality constraint is required")
    dtype = np.result_type(*problems[0].objective, *problems[0].constraints)
    for prob in problems[1:]:
        if ([len(c) for c in prob.objective] != dims or len(prob.rhs) != m
                or np.result_type(*prob.objective, *prob.constraints) != dtype):
            raise ValueError("the problems of a stack must share their block sizes, "
                             "constraint count and dtype")
    nu = float(n)
    edges = np.cumsum([0] + dims)
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    # Column k marks the entries of block k: a product with it sums a
    # problem's squared entries per block.
    block_of = np.repeat(np.arange(len(dims)), dims)
    in_block = np.stack([np.outer(block_of == k, block_of == k).ravel()
                         for k in range(len(dims))], axis=1).astype(float)

    def block_norm(v):
        sq = (v.conj() * v).real.reshape(len(v), 1, n * n)
        return np.sqrt((sq @ in_block).max(axis=(1, 2)))

    # Maximize <C_ext, X> == minimize <-C_ext, X>, on the merged block,
    # each problem's blocks written in place.
    c = np.zeros((len(problems), n, n), dtype)
    a = np.zeros((len(problems), m, n, n), dtype)
    for i, prob in enumerate(problems):
        for blk, obj, con in zip(blocks, prob.objective, prob.constraints):
            c[i, blk, blk] = -obj
            a[i, :, blk, blk] = con
    a_blocks = [a[:, :, blk, blk].copy() for blk in blocks]
    a = a.reshape(-1, m, n * n)
    b = np.stack([p.rhs for p in problems])
    eye = np.eye(n, dtype=dtype)
    ones = np.ones(len(b))
    xi_p = np.maximum(1.0, np.abs(b).max(axis=1))
    xi_d = np.maximum(1.0, block_norm(c) / np.sqrt(max(dims)))
    st = _Stack(
        live=np.arange(len(b)), c=c, a=a, a_conj=a.conj(), a_blocks=a_blocks, rhs=b,
        norm_b=np.maximum(1.0, np.sqrt((b * b).sum(axis=1))),
        norm_c=np.maximum(1.0, block_norm(c)),
        norm_a=np.maximum(1.0, np.abs(a).max(axis=(1, 2))),
        x=_col(xi_p) * eye, s=_col(xi_d) * eye, dual=np.zeros(b.shape),
        tau=ones, kappa=ones,
        best_merit=np.full(len(b), np.inf), best_x=np.zeros(c.shape, dtype), best_dual=0 * b,
        best_tau=ones, best_pobj=0 * ones, best_dobj=0 * ones,
    )
    # The Schur products, m matrices per problem and block, are written
    # into buffers made once: fresh arrays of that size cost more than the
    # products.
    bufs = [(np.empty((len(b), m * d, d), dtype), np.empty((len(b), m, d, d), dtype))
            for d in dims]
    out = [None] * len(problems)
    it = 0

    def leave(stops, *arrays):
        """Finish the rows of ``stops`` (row: (status, message)), take them
        out of the stack, and return ``arrays`` without them."""
        for row, (status, message) in stops.items():
            out[st.live[row]] = _solution(st, row, blocks, status, message, it)
        keep = np.ones(len(st.live), dtype=bool)
        keep[list(stops)] = False
        st.take(keep)
        return [v[keep] for v in arrays]

    for it in range(1, ITERATION_CAP + 1):
        # Residuals of the homogeneous model.
        ax = _a_apply(st.a_conj, st.x)
        aty = _a_adjoint(st.dual, st.a).reshape(st.x.shape)
        rp = st.rhs * st.tau[:, None] - ax
        rd = st.c * _col(st.tau) - aty - st.s
        cx = _dot(st.c, st.x)
        by = (st.rhs * st.dual).sum(axis=1)
        rg = by - cx - st.kappa
        mu = (_dot(st.x, st.s) + st.tau * st.kappa) / (nu + 1.0)

        # Normalized convergence checks.
        pobj, dobj = cx / st.tau, by / st.tau
        r_p = st.rhs - ax / st.tau[:, None]
        pres = np.sqrt((r_p * r_p).sum(axis=1)) / st.norm_b
        dres = block_norm(st.c - (aty + st.s) / _col(st.tau)) / st.norm_c
        relgap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
        merit = np.maximum(np.maximum(pres, dres), relgap)

        # The best iterate so far (iterates are never changed in place).
        better = merit < st.best_merit
        if better.all():
            st.best_merit, st.best_x, st.best_dual = merit, st.x, st.dual
            st.best_tau, st.best_pobj, st.best_dobj = st.tau, pobj, dobj
        elif better.any():
            st.best_merit = np.where(better, merit, st.best_merit)
            st.best_x = np.where(_col(better), st.x, st.best_x)
            st.best_dual = np.where(better[:, None], st.dual, st.best_dual)
            st.best_tau = np.where(better, st.tau, st.best_tau)
            st.best_pobj = np.where(better, pobj, st.best_pobj)
            st.best_dobj = np.where(better, dobj, st.best_dobj)

        # Optimal; past the best point into numerical noise; or flagged by
        # the homogeneous embedding as infeasible or unbounded.
        optimal = merit <= TOL
        noise = (st.best_merit <= SOFT_TOL) & (merit > 10.0 * st.best_merit)
        flagged = (st.tau <= 1e-9 * np.maximum(1.0, st.kappa)) | (
            (mu <= TOL * 1e-4) & (st.tau <= 1e-7 * st.kappa))
        stops = {}
        for row in np.flatnonzero(optimal | noise | flagged).tolist():
            if optimal[row]:
                stops[row] = OPTIMAL, ""
            elif noise[row]:
                stops[row] = OPTIMAL, SOFT_ACCEPT
            elif (by[row] > 0 and block_norm(aty + st.s)[row]
                  <= 1e-6 * st.norm_a[row] * max(1.0, by[row])):
                stops[row] = INFEASIBLE, "dual improving ray found"
            elif (cx[row] < 0 and np.linalg.norm(ax[row])
                  <= 1e-6 * st.norm_a[row] * max(1.0, -cx[row])):
                stops[row] = UNBOUNDED, "primal improving ray found"
            else:
                stops[row] = MAX_ITER, "tau collapsed without certificate"
        if stops:
            rp, rd, rg, mu = leave(stops, rp, rd, rg, mu)
            if not len(st.live):
                break

        # X and S factored once, block by block: L^-1 of both serve S^-1
        # and the step lengths.  A row that cannot be factored leaves the
        # stack; its factors are those of I until then, so that the others
        # go on.
        xs = np.stack([st.x, st.s], axis=1)
        stops = {}
        try:
            chol = [np.linalg.cholesky(xs[..., blk, blk]) for blk in blocks]
        except np.linalg.LinAlgError:
            ok = np.array([_is_pd(v) for v in xs])
            stops = {row: (MAX_ITER, "iterate lost positive definiteness")
                     for row in np.flatnonzero(~ok).tolist()}
            xs = np.where(_col(ok)[..., None], xs, eye)
            chol = [np.linalg.cholesky(xs[..., blk, blk]) for blk in blocks]
        linv = np.zeros(xs.shape, dtype)
        for blk, factor in zip(blocks, chol):
            linv[..., blk, blk] = np.linalg.inv(factor)
        linv_h = linv.swapaxes(-1, -2).conj()
        sinv = linv_h[:, 1] @ linv[:, 1]

        # The HKM Schur matrix Re Tr[A_i X A_j S^-1], summed over blocks of
        # the inner products of the stacked A_i X and S^-1 A_j (the
        # conjugate transpose of A_j S^-1), jittered until its Cholesky
        # factorization succeeds.
        rows = len(st.live)
        schur = 0.0
        for blk, d, a_blk, (ax_buf, sa_buf) in zip(blocks, dims, st.a_blocks, bufs):
            ax_rows = np.matmul(a_blk.reshape(rows, m * d, d), st.x[:, blk, blk],
                                out=ax_buf[:rows])
            sa = np.matmul(sinv[:, None, blk, blk], a_blk, out=sa_buf[:rows])
            schur = schur + (ax_rows.reshape(rows, m, d * d)
                             @ sa.reshape(rows, m, d * d).conj().swapaxes(1, 2))
        schur = _herm(schur.real)
        jitter = np.zeros(rows)
        try:
            np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            jitter = np.array([_jitter(v) for v in schur])
            for row in np.flatnonzero(np.isnan(jitter)).tolist():
                stops.setdefault(row, (MAX_ITER, "Schur complement not positive definite"))
        if stops:
            rp, rd, rg, mu, linv, linv_h, sinv, schur, jitter = leave(
                stops, rp, rd, rg, mu, linv, linv_h, sinv, schur, jitter)
            if not len(st.live):
                break
        # Its systems are solved by LU: an explicit inverse lost the primal
        # residual near the optimum.
        schur = schur + _col(jitter) * np.eye(m)

        # The sigma-independent parts of the direction.
        x, s, c, b, tau, kappa = st.x, st.s, st.c, st.rhs, st.tau, st.kappa
        wc = _herm(x @ c @ sinv)
        awc = _a_apply(st.a_conj, wc)
        cwc = _dot(c, wc)
        b_awc = b - awc
        wrd = _herm(x @ rd @ sinv)
        rp_wrd = rp + _a_apply(st.a_conj, wrd)
        wcrd = _dot(wc, rd)
        xs_mat = x @ s

        tk = tau * kappa

        def direction(sigma, rc, rc_tau, e, g):
            """The step at centering sigma, from ``rc`` (``rc_tau``), the
            complementarity residual of X, S (tau, kappa), ``e = herm(rc
            S^-1)`` and g, the Schur system's solution for it."""
            scale = 1.0 - sigma
            num = (-scale * rg + _dot(c, e) - scale * wcrd + rc_tau / tau
                   - (b_awc * g).sum(axis=1))
            dtau = num / den
            dy = g + h * dtau[:, None]
            ds = c * _col(dtau) - _a_adjoint(dy, st.a).reshape(x.shape) + _col(scale) * rd
            dx = _herm((rc - x @ ds) @ sinv)
            dkappa = (rc_tau - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def max_alpha(dx, ds, dtau, dkappa):
            """0.98 of the step to the boundary of the cones, at most 1."""
            # Smallest eigenvalue of L^-1 dM L^-H over X and S at once, per
            # block: the matrix is block-diagonal, and eigvalsh is cubic.
            scaled = _herm(linv @ np.stack([dx, ds], axis=1) @ linv_h)
            lam_min = functools.reduce(np.minimum, (
                np.linalg.eigvalsh(scaled[..., blk, blk])[..., 0].min(axis=1) for blk in blocks))
            rate = np.minimum(np.minimum(np.where(lam_min < -1e-14, lam_min, 0.0), dtau / tau),
                              dkappa / kappa)
            return -0.98 / np.minimum(rate, -0.98)

        # Predictor (sigma = 0): its Schur system and h's in one solve.
        rc_aff = -xs_mat
        e_aff = _herm(rc_aff @ sinv)
        gh = np.linalg.solve(schur, np.stack([rp_wrd - _a_apply(st.a_conj, e_aff), awc + b], -1))
        h = gh[..., 1]
        den = (b_awc * h).sum(axis=1) + cwc + kappa / tau
        den = np.where(np.abs(den) > 1e-14, den, np.inf)  # dtau = 0 where den vanishes
        dxa, _, dsa, dtaua, dkappaa = direction(np.zeros(len(tau)), rc_aff, -tk, e_aff, gh[..., 0])
        alpha_aff = max_alpha(dxa, dsa, dtaua, dkappaa)
        xs_aff = _dot(x + _col(alpha_aff) * dxa, s + _col(alpha_aff) * dsa)
        mu_aff = (xs_aff + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / (
            nu + 1.0
        )
        ratio = np.maximum(mu_aff, 0.0) / mu
        sigma = np.minimum(np.maximum(ratio * ratio * ratio, 1e-8), 1.0 - 1e-8)

        # Corrector.
        rc = _col(sigma * mu) * eye - xs_mat - dxa @ dsa
        e = _herm(rc @ sinv)
        g = np.linalg.solve(schur, ((1.0 - sigma)[:, None] * rp_wrd
                                    - _a_apply(st.a_conj, e))[..., None])[..., 0]
        rc_tau = sigma * mu - tk - dtaua * dkappaa
        dx, dy, ds, dtau, dkappa = direction(sigma, rc, rc_tau, e, g)
        alpha = max_alpha(dx, ds, dtau, dkappa)
        collapsed = np.flatnonzero(alpha <= 1e-9).tolist()
        if collapsed:
            dx, dy, ds, dtau, dkappa, alpha = leave(
                {row: (MAX_ITER, "step length collapsed") for row in collapsed},
                dx, dy, ds, dtau, dkappa, alpha)
            if not len(st.live):
                break

        st.x = _herm(st.x + _col(alpha) * dx)
        st.s = _herm(st.s + _col(alpha) * ds)
        st.dual = st.dual + alpha[:, None] * dy
        st.tau = st.tau + alpha * dtau
        st.kappa = st.kappa + alpha * dkappa
    else:
        leave({row: (MAX_ITER, "") for row in range(len(st.live))})
    return out


def verify(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> VerifyReport:
    """Recompute feasibility residuals and eigenvalue floors from scratch.

    Uses only the problem data and the returned blocks, not the solver's
    iterates: the residuals are ``A(X) - rhs``.
    """
    m = len(problem.rhs)
    a_conj = _block_diag(problem.constraints).reshape(1, m, -1).conj()
    res = _a_apply(a_conj, _block_diag(solution.X_blocks)[None])[0] - problem.rhs
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
