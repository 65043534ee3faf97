"""Semidefinite programming over real symmetric cones.

Solves problems of the form

    maximize    sum_b Tr[C_b X_b]
    subject to  sum_b Tr[A_{i,b} X_b] = b_i      (i = 1..m)
                X_b >= 0                          (PSD blocks)

that are feasible and bounded, such as the decoder problem, by a
primal-dual path-following interior-point method: the HKM search
direction (Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 6,
342 (1996)), Mehrotra's predictor-corrector and a step fraction of 0.98
to the cone boundary, paired by ``<A, X> = Tr[A X]``.  It starts from
scaled identities ``X = xi_p I``, ``S = xi_d I`` and ``y = 0``, and each
step targets the primal and dual residuals ``b - A(X)`` and ``C - A*(y)
- S`` as they stand.  A problem that is infeasible or unbounded is never
certified: it ends ``max_iter``, as does any other stall.

A problem holds, per block, its objective and a dense ``m x d x d``
stack of constraint matrices, row i of every block and ``rhs[i]`` making
constraint i (a row that leaves a block out is zero there).  The solver
merges the blocks into one block-diagonal iterate, so ``A(X)`` and
``A*(y)`` are one matrix product each on the flattened stack, while the
steps whose cost is cubic in the width (factorizations, eigenvalues, the
Schur matrix) go block by block.  All data are real symmetric
``float64``, as are the decoder's (the cascade, the cloner and the
Schur-Weyl frame are real): the solver refuses complex data, which a
cast would silently truncate.  That suits problems with few constraints
on small blocks, such as the decoder problem after its symmetry
reduction (``decoder.purification_sdps``: blocks of at most 20 + 10 and
27 constraints at K = 5).  ``MAX_DIM`` caps the total block width.

Such a problem takes about ten iterations, and on blocks this small an
iteration's time goes to NumPy's per-call overhead.  So :func:`solve_many`
runs a stack of problems of one shape (each block's data shared by the
stack or given per problem) in one iteration: every iterate, and every
scalar of the method (mu, sigma, the step lengths, the merit, the Schur
jitter), gains a leading axis of one row per problem, and a problem
leaves the stack when it stops, with the status, message and iteration
count it would get alone.  One certificate stands behind an ``optimal``
status: the iterate returned is the one whose merit met ``TOL``, and its
value and dual value are that iterate's own.
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

import numpy as np

from .errors import DimensionLimitError, NotHermitianError
from .tensor import HERMITIAN_RTOL

# Largest total block dimension the solver accepts.
MAX_DIM = 256

OPTIMAL = "optimal"
MAX_ITER = "max_iter"

# Merit (worst of the relative primal and dual residuals and gap) at
# which an iterate is optimal.
TOL = 1e-9
ITERATION_CAP = 200


@dataclass
class SdpSolution:
    X_blocks: list
    y: np.ndarray
    status: str
    iterations: int
    value: float = 0.0
    dual_value: float = 0.0
    message: str = ""


def _sym(v: np.ndarray) -> np.ndarray:
    return (v + v.swapaxes(-1, -2)) / 2.0


def _a_apply(a_flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A(X)``: ``Tr[A_i X] = <A_i, X>`` for every row i of every
    problem, from the flat stacks and symmetric iterates."""
    return (a_flat @ x.reshape(len(x), -1, 1))[..., 0]


def _a_adjoint(y: np.ndarray, a_flat: np.ndarray) -> np.ndarray:
    """``A*(y) = sum_i y_i A_i`` of every problem, as flat matrices."""
    return (y[:, None] @ a_flat)[:, 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``<u, v>`` of every problem."""
    return (u * v).sum(axis=(1, 2))


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
    position in the stack (``live``), its data and its iterate."""

    live: np.ndarray
    c: np.ndarray
    a: np.ndarray
    a_blocks: list
    rhs: np.ndarray
    norm_b: np.ndarray
    norm_c: np.ndarray
    x: np.ndarray
    s: np.ndarray
    dual: np.ndarray

    def take(self, rows) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(self, f.name, [v[rows] for v in value] if isinstance(value, list)
                    else value[rows])


def _solution(st: _Stack, row: int, blocks, status, message, it) -> SdpSolution:
    """Row ``row``'s iterate, in the maximize convention, with its own
    primal and dual values."""
    one = slice(row, row + 1)
    return SdpSolution(
        X_blocks=[st.x[row][s, s] for s in blocks],
        y=-st.dual[row],
        status=status,
        iterations=it,
        value=-float(_dot(st.c[one], st.x[one])[0]),
        dual_value=-float((st.rhs[one] * st.dual[one]).sum(axis=1)[0]),
        message=message,
    )


def _asymmetric(x: np.ndarray) -> np.ndarray:
    """Indices of the matrices of ``x`` not symmetric to ``HERMITIAN_RTOL``."""
    scale = np.maximum(1.0, np.abs(x).max(axis=(-2, -1), initial=0.0))
    skew = np.abs(x - x.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return np.argwhere(~(skew <= HERMITIAN_RTOL * scale))


def solve(objective, constraints, rhs) -> SdpSolution:
    """:func:`solve_many` on a stack of one: ``rhs`` a vector, no stack axes."""
    return solve_many(objective, constraints, np.asarray(rhs)[None])[0]


def solve_many(objective, constraints, rhs) -> list:
    """Solve a stack of problems of one shape (block sizes and constraint
    count) in one interior-point run; one solution per row of ``rhs``,
    the P x m right-hand sides, in order.

    Block b's ``objective[b]`` and ``constraints[b]`` hold one ``d x d``
    and one ``m x d x d`` entry per problem, or one the whole stack shares.
    Complex data raise :class:`TypeError`, bad shapes :class:`ValueError`
    and a non-symmetric matrix :class:`NotHermitianError`, once per stack.

    Each problem iterates until an optimal certificate (merit at most
    ``TOL``), lost definiteness, a collapsed step, a failed Schur
    factorization or ``ITERATION_CAP`` iterations, and then leaves the
    stack.  Only the certificate gives ``optimal``, and the solution
    returned is the iterate that met it; every other stop is
    ``max_iter``.  The residual norms behind the merit are taken per
    block, the worst block counting.

    Every matrix product is a product per problem (a stacked ``matmul``)
    and every reduction runs within one problem's row, so a problem's
    arithmetic does not depend on what else is in its stack.
    """
    for name, data in (("objective", objective), ("constraints", constraints), ("rhs", [rhs])):
        if any(map(np.iscomplexobj, data)):
            raise TypeError(f"{name} data complex: the solver takes real data only")
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 2 or not b.shape[1]:
        raise ValueError(f"rhs has shape {b.shape}, expected problems x constraints (at least one)")
    if len(constraints) != len(objective):
        raise ValueError("one constraint stack per objective block required")
    count, m = b.shape
    objective = [np.asarray(c, dtype=float) for c in objective]
    constraints = [np.asarray(a, dtype=float) for a in constraints]
    dims = [c.shape[-1] if c.ndim else 0 for c in objective]
    for k, (c, a, d) in enumerate(zip(objective, constraints, dims)):
        if c.shape not in ((d, d), (count, d, d)) or a.shape not in ((m, d, d), (count, m, d, d)):
            raise ValueError(f"objective block {k} has shape {c.shape} and constraint stack {k} "
                             f"{a.shape}, expected {(d, d)} and {(m, d, d)}, or {count} of each")
        if len(_asymmetric(c)):
            raise NotHermitianError(f"objective block {k} not symmetric")
        bad = _asymmetric(a)
        if len(bad):
            raise NotHermitianError(f"constraint {bad[0][-1]} block {k} not symmetric")
    n = sum(dims)
    if n > MAX_DIM:
        raise DimensionLimitError(f"total block dimension {n} exceeds {MAX_DIM}")
    if not count:
        return []
    edges = np.cumsum([0] + dims)
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    # Column k marks the entries of block k: a product with it sums a
    # problem's squared entries per block.
    block_of = np.repeat(np.arange(len(dims)), dims)
    in_block = np.stack([np.outer(block_of == k, block_of == k).ravel()
                         for k in range(len(dims))], axis=1).astype(float)

    def block_norm(v):
        sq = (v * v).reshape(len(v), 1, n * n)
        return np.sqrt((sq @ in_block).max(axis=(1, 2)))

    # Maximize <C_ext, X> == minimize <-C_ext, X>, on the merged block,
    # every problem's blocks written in place (a shared block broadcast).
    c = np.zeros((count, n, n))
    a = np.zeros((count, m, n, n))
    for blk, obj, con in zip(blocks, objective, constraints):
        c[:, blk, blk] = -obj
        a[:, :, blk, blk] = con
    a_blocks = [a[:, :, blk, blk].copy() for blk in blocks]
    a = a.reshape(-1, m, n * n)
    eye = np.eye(n)
    xi_p = np.maximum(1.0, np.abs(b).max(axis=1))
    xi_d = np.maximum(1.0, block_norm(c) / np.sqrt(max(dims)))
    st = _Stack(
        live=np.arange(len(b)), c=c, a=a, a_blocks=a_blocks, rhs=b,
        norm_b=np.maximum(1.0, np.sqrt((b * b).sum(axis=1))),
        norm_c=np.maximum(1.0, block_norm(c)),
        x=_col(xi_p) * eye, s=_col(xi_d) * eye, dual=np.zeros(b.shape),
    )
    # The Schur products, m matrices per problem and block, are written
    # into buffers made once: fresh arrays of that size cost more than the
    # products.
    bufs = [(np.empty((len(b), m * d, d)), np.empty((len(b), m, d, d))) for d in dims]
    out = [None] * count
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
        # Primal and dual residuals, and the merit.
        rp = st.rhs - _a_apply(st.a, st.x)
        rd = st.c - _a_adjoint(st.dual, st.a).reshape(st.x.shape) - st.s
        mu = _dot(st.x, st.s) / n
        pobj, dobj = _dot(st.c, st.x), (st.rhs * st.dual).sum(axis=1)
        pres = np.sqrt((rp * rp).sum(axis=1)) / st.norm_b
        dres = block_norm(rd) / st.norm_c
        relgap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
        merit = np.maximum(np.maximum(pres, dres), relgap)
        optimal = np.flatnonzero(merit <= TOL).tolist()
        if optimal:
            rp, rd, mu = leave({row: (OPTIMAL, "") for row in optimal}, rp, rd, mu)
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
            ok = np.array([all(_is_pd(v[:, blk, blk]) for blk in blocks) for v in xs])
            stops = {row: (MAX_ITER, "iterate lost positive definiteness")
                     for row in np.flatnonzero(~ok).tolist()}
            xs = np.where(_col(ok)[..., None], xs, eye)
            chol = [np.linalg.cholesky(xs[..., blk, blk]) for blk in blocks]
        linv = np.zeros(xs.shape)
        for blk, factor in zip(blocks, chol):
            linv[..., blk, blk] = np.linalg.inv(factor)
        linv_t = linv.swapaxes(-1, -2)
        sinv = linv_t[:, 1] @ linv[:, 1]

        # The HKM Schur matrix Tr[A_i X A_j S^-1], summed over blocks of
        # the inner products of the stacked A_i X and S^-1 A_j (the
        # transpose of A_j S^-1), jittered until its Cholesky
        # factorization succeeds.
        rows = len(st.live)
        schur = 0.0
        for blk, d, a_blk, (ax_buf, sa_buf) in zip(blocks, dims, st.a_blocks, bufs):
            ax_rows = np.matmul(a_blk.reshape(rows, m * d, d), st.x[:, blk, blk],
                                out=ax_buf[:rows])
            sa = np.matmul(sinv[:, None, blk, blk], a_blk, out=sa_buf[:rows])
            schur = schur + (ax_rows.reshape(rows, m, d * d)
                             @ sa.reshape(rows, m, d * d).swapaxes(1, 2))
        schur = _sym(schur)
        jitter = np.zeros(rows)
        try:
            np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            jitter = np.array([_jitter(v) for v in schur])
            for row in np.flatnonzero(np.isnan(jitter)).tolist():
                stops.setdefault(row, (MAX_ITER, "Schur complement not positive definite"))
        if stops:
            rp, rd, mu, linv, linv_t, sinv, schur, jitter = leave(
                stops, rp, rd, mu, linv, linv_t, sinv, schur, jitter)
            if not len(st.live):
                break
        # Its systems are solved by LU: an explicit inverse lost the primal
        # residual near the optimum.
        schur = schur + _col(jitter) * np.eye(m)

        # The HKM direction for a complementarity residual rc: dS = rd -
        # A*(dy), dX = sym((rc - X dS) S^-1), and A(dX) = rp gives the
        # Schur system M dy = rp + A(sym(X rd S^-1)) - A(sym(rc S^-1)).
        x, s = st.x, st.s
        rp_wrd = rp + _a_apply(st.a, _sym(x @ rd @ sinv))
        xs_mat = x @ s

        def direction(rc):
            rhs = rp_wrd - _a_apply(st.a, _sym(rc @ sinv))
            dy = np.linalg.solve(schur, rhs[..., None])[..., 0]
            ds = rd - _a_adjoint(dy, st.a).reshape(x.shape)
            return _sym((rc - x @ ds) @ sinv), dy, ds

        def max_alpha(dx, ds):
            """0.98 of the step to the boundary of the cones, at most 1."""
            # Smallest eigenvalue of L^-1 dM L^-T over X and S at once, per
            # block: the matrix is block-diagonal, and eigvalsh is cubic.
            scaled = _sym(linv @ np.stack([dx, ds], axis=1) @ linv_t)
            lam_min = functools.reduce(np.minimum, (
                np.linalg.eigvalsh(scaled[..., blk, blk])[..., 0].min(axis=1) for blk in blocks))
            return -0.98 / np.minimum(np.where(lam_min < -1e-14, lam_min, 0.0), -0.98)

        # Predictor (sigma = 0), then the corrector at Mehrotra's sigma.
        dxa, _, dsa = direction(-xs_mat)
        alpha_aff = _col(max_alpha(dxa, dsa))
        ratio = np.maximum(_dot(x + alpha_aff * dxa, s + alpha_aff * dsa) / n, 0.0) / mu
        sigma = np.minimum(np.maximum(ratio * ratio * ratio, 1e-8), 1.0 - 1e-8)
        dx, dy, ds = direction(_col(sigma * mu) * eye - xs_mat - dxa @ dsa)
        alpha = max_alpha(dx, ds)
        collapsed = np.flatnonzero(~(alpha > 1e-9)).tolist()  # NaN collapses too
        if collapsed:
            dx, dy, ds, alpha = leave(
                {row: (MAX_ITER, "step length collapsed") for row in collapsed},
                dx, dy, ds, alpha)
            if not len(st.live):
                break

        st.x = _sym(st.x + _col(alpha) * dx)
        st.s = _sym(st.s + _col(alpha) * ds)
        st.dual = st.dual + alpha[:, None] * dy
    else:
        leave({row: (MAX_ITER, "") for row in range(len(st.live))})
    return out

