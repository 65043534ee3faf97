"""Haar-averaged decoder design and cloning-asymmetry optimization.

The composite encoder-channel map ``L`` (one qubit in, K selected modes
out) is summarized by two fixed operators on (K qubits) (x) (reference
qubit), stored with the partial transpose on the K-qubit factor already
applied:

    Qt = integral  L(psi)^T (x) psi  dpsi
    Rt = L(I/2)^T (x) I

With these, the Haar-averaged conditional fidelity of a probabilistic
decoder with Choi ``J`` (K qubits -> 1) is ``Tr[J Qt] / p`` subject to
``Tr[J Rt] = p``, ``J >= 0`` and ``Tr_B J <= I``; the transpose
convention is pinned by the identity-channel sanity value of exactly 1.
Dropping the partial-trace dominance yields a generalized Rayleigh
quotient whose top eigenvalue upper-bounds the SDP for every p.
The blind baseline's decoder needs no SDP: :func:`blind_choi`.

``Qt`` and ``Rt`` are block-diagonal by SU(2) spin on one real frame
(:func:`_frame`); the decoder SDP is solved, and the gamma search scored,
on those blocks.  A channel's design (:class:`Design`) is built once, by
:func:`design_at` or at gamma* by the gamma search; only the decoder SDP
is solved per p.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import sdp
from .channel import Channel, source_weights
from .cloner import (
    ClonerChoi,
    _fidelities,
    _stinespring_basis,
    clone_amplitudes,
    cloner_choi,
    simplex_grid,
)
from .errors import NotPsdError, SolverError
from .metrics import asymmetry_index
from .tensor import I2, PSD_SUPPORT_TOL, SWAP2, dagger, schur_weyl_basis

SURROGATE_TIE_TOL = 1e-6
GRID_STEP_DENOM = 20
# Lattice points per scoring batch.  At K = 5 the widest spin block is
# 9 x 9, so a batch stacks 1.3 MB per block array; an N = M = 5 search
# peaks at 52 MB RSS this way, 76 MB with the 10,626 points in one batch.
SCORE_CHUNK = 2048
POLISH_DENOM = 640
# Polish steps this close to the best step tie: above the float64 rounding
# of the surrogate (up to 7e-13 on crosstalk-only M = 4 channels), far
# below SURROGATE_TIE_TOL.
POLISH_TIE_TOL = 1e-10

# Largest entry of Qt or Rt off the SU(2) commutant, and largest
# imaginary part of their reduced blocks, relative to max(1, largest
# entry), that the decoder SDP accepts.
COVARIANCE_TOL = 1e-10
# The real spin flip: FLIP conj(U) FLIP^T = U for U in SU(2).
FLIP = np.array([[0.0, -1.0], [1.0, 0.0]])

# Haar second moment of psi (x) psi on two qubits.
TWIRL_SECOND_MOMENT = (np.eye(4) + SWAP2) / 6.0


@dataclass(frozen=True)
class EffectiveMap:
    """Choi of the encoder-channel cascade restricted to receive modes."""

    choi: np.ndarray
    k: int


@dataclass(frozen=True)
class QROperators:
    qt: np.ndarray
    rt: np.ndarray
    k: int


@dataclass(frozen=True)
class DecoderSolution:
    j: np.ndarray
    f_success: float
    f_avg: float


@dataclass(frozen=True)
class Design:
    """The asymmetry ``gamma``, its cloner ``enc`` (which carries the clone
    fidelities), the modes ``t`` and ``r``, and the cascade ``qr`` of
    ``enc`` on them; ``surrogate`` is set by :func:`optimize_gamma` only."""

    gamma: tuple
    enc: ClonerChoi
    t: tuple
    r: tuple
    qr: QROperators
    surrogate: Optional[float] = None


def design_at(gamma, chan: Channel, t, r) -> Design:
    """The design at ``gamma`` on transmit modes ``t`` and receive modes ``r``."""
    enc = cloner_choi(gamma)
    qr = build_qr(compose_effective_map(enc, chan, t, r))
    return Design(tuple(float(x) for x in gamma), enc, tuple(t), tuple(r), qr)


def compose_effective_map(encoder: ClonerChoi, chan: Channel, t, r) -> EffectiveMap:
    """The Choi of the encoder-channel cascade on (input) (x) (receive
    modes ``r``), built on 1 + K qubits.

    Clone k goes to mode ``t_k`` and is depolarized there by ``lam_{t_k}``;
    every other mode carries I/2, which the channel keeps.  For each source
    tuple s of ``r`` (:func:`channel.source_weights`) receive leg j holds
    the clone on mode ``s_j``, or I/2 where ``s_j`` carries no clone: the
    marginal of the depolarized cloner on the clones in s, its legs ordered
    by s and padded with I/2.  Source tuples that place the same clones on
    the same legs share one term.

    ``encoder.choi`` may carry a leading stack axis; a single Choi is a
    stack of one, and an entry's cascade does not depend on its stack.
    """
    t = tuple(int(x) for x in t)
    r = tuple(int(x) for x in r)
    n = chan.n
    m = encoder.m
    if len(t) != m or len(set(t)) != m:
        raise ValueError(f"transmit modes {t} must be {m} distinct indices")
    if len(set(r)) != len(r) or not r:
        raise ValueError(f"receive modes {r} must be distinct and nonempty")
    if any(not 1 <= x <= n for x in t + r):
        raise ValueError(f"mode indices outside 1..{n}")

    lead = encoder.choi.shape[:-2]
    jt = encoder.choi.reshape(-1, 2 ** (m + 1), 2 ** (m + 1))
    for c, mode in enumerate(t, start=1):
        # Depolarize clone c: (1 - lam) J + lam Tr_c J (x) I/2 on its leg.
        lam = chan.params.lam[mode - 1]
        x = jt.reshape(-1, 2 ** c, 2, 2 ** (m - c), 2 ** c, 2, 2 ** (m - c))
        half_tr = lam / 2.0 * (x[:, :, 0, :, :, 0] + x[:, :, 1, :, :, 1])
        x = (1.0 - lam) * x
        x[:, :, 0, :, :, 0] += half_tr
        x[:, :, 1, :, :, 1] += half_tr
        jt = x

    # A pattern holds, per receive leg, the clone its source carries (0: I/2).
    k = len(r)
    clone_on = np.zeros(n + 1, dtype=int)
    clone_on[list(t)] = np.arange(1, m + 1)
    src, w = source_weights(chan, r)
    shape = (m + 1,) * k
    weights = np.bincount(np.ravel_multi_index(clone_on[src].T, shape), weights=w)
    nz = np.flatnonzero(weights)
    patterns, weights = np.stack(np.unravel_index(nz, shape), axis=1), weights[nz]
    # Legs m + 1 .. q - 1 carry the I/2 the patterns need; leg a is einsum
    # label a on the ket side and q + a on the bra side, or a when traced.
    pads = int((patterns == 0).sum(axis=1).max())
    q = m + 1 + pads
    pad = np.eye(2 ** pads) / 2 ** pads
    jt = jt.reshape(-1, 2 ** (m + 1), 1, 2 ** (m + 1), 1) * pad[:, None]
    jt = jt.reshape(-1, *(2,) * (2 * q))
    out = np.zeros((len(jt),) + (2,) * (2 * k + 2))
    for pattern, weight in zip(patterns.tolist(), weights):
        free = iter(range(m + 1, q))
        ket = [0] + [c if c else next(free) for c in pattern]
        bra = [q + a if a in ket else a for a in range(q)]
        out += weight * np.einsum(jt, [..., *range(q), *bra], [..., *ket, *(q + a for a in ket)])
    dk = 2 ** k
    return EffectiveMap(choi=out.reshape(lead + (2 * dk, 2 * dk)), k=k)


def build_qr(emap: EffectiveMap) -> QROperators:
    """Haar-averaged operators of the cascade, input transpose folded in;
    a leading stack axis of ``emap.choi`` carries over to both."""
    dk = 2 ** emap.k
    lead = emap.choi.shape[:-2]
    jl4 = emap.choi.reshape(lead + (2, dk, 2, dk))
    w4 = TWIRL_SECOND_MOMENT.reshape(2, 2, 2, 2)
    q4 = np.einsum("...iojp,irjs->...orps", jl4, w4)
    qt = q4.swapaxes(-4, -2).reshape(lead + (2 * dk, 2 * dk))
    sigma = np.einsum("...iojp,ij->...op", jl4, I2 / 2.0)
    # Rt = sigma^T (x) I, one Kronecker product per stack entry.
    rt = (sigma.swapaxes(-1, -2)[..., :, None, :, None] * I2[:, None, :]).reshape(qt.shape)
    qt = (qt + dagger(qt)) / 2.0
    rt = (rt + dagger(rt)) / 2.0
    return QROperators(qt=qt, rt=rt, k=emap.k)


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """The ``d^2 x d x d`` stack of Hermitian units: ``E_kk``, then
    ``E_kl + E_lk`` and ``i E_kl - i E_lk`` for each pair k < l in
    row-major order."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    basis[diag, diag, diag] = 1.0
    k, l = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(k))
    basis[sym, k, l] = basis[sym, l, k] = 1.0
    basis[sym + 1, k, l], basis[sym + 1, l, k] = 1j, -1j
    return basis


def dense_purification_problem(qr: QROperators, p: float) -> sdp.SdpProblem:
    """The decoder SDP of :func:`purification_sdp` on the full space, one
    row of ``Tr_B J + S = I`` per Hermitian unit: the reference route
    that ``qumimo validate`` and the tests solve it against."""
    h = _hermitian_basis(2 ** qr.k)
    rows = (np.kron(h, I2), h, np.trace(h, axis1=1, axis2=2).real)
    return _decoder_problem(qr.qt, qr.rt, rows, p)


def _decoder_problem(c: np.ndarray, r: np.ndarray, rows, p: float) -> sdp.SdpProblem:
    """Maximize ``Tr[c J]`` with ``Tr[A_i J] + Tr[E_i S] = rhs_i`` for the
    stacked rows ``(A, E, rhs)`` and ``Tr[r J] = p``, J block 0 and S
    block 1; at p = 1, ``Tr[A_i J] = rhs_i`` alone."""
    a, e, rhs = rows
    if p == 1.0:
        return sdp.SdpProblem([c], [a], rhs)
    ws = e.shape[1]
    return sdp.SdpProblem(
        [c, np.zeros((ws, ws))],
        [np.concatenate([a, r[None]]), np.concatenate([e, np.zeros((1, ws, ws))])],
        np.append(rhs, p),
    )


def purification_sdp(qr: QROperators, p: float) -> DecoderSolution:
    """Optimal probabilistic purification map at success probability p.

    Maximizes ``Tr[J Qt]`` over decoder Choi matrices ``J >= 0`` with
    ``Tr[J Rt] = p`` and ``Tr_B J <= I``, the dominance encoded with a PSD
    slack block coupled by ``Tr_B J + S = I``.  At p = 1 the acceptance
    constraint pins ``Tr_B J = I`` exactly (``Rt`` has a full-rank state
    on its K-qubit factor), so the slack block is dropped and the trace
    constraint becomes that equality.

    Every stage of the cascade commutes with SU(2), so ``Qt`` and ``Rt``
    commute with ``conj(U)^{(x)K} (x) U``, and the problem is solved on
    that commutant (Gatermann and Parrilo, J. Pure Appl. Algebra 192, 95
    (2004)): ``J = (+)_j J_j (x) I_{2j+1}`` and ``S = (+)_j S_j (x)
    I_{2j+1}`` in the frames of :func:`_frame`, with ``Tr_B J + S = I``
    imposed on the ``S_j`` (:func:`_covariant_rows`).  The cascade and
    the frame are real, so the blocks are real symmetric and only the
    real symmetric units of that equality are kept.  At K = 4 the solver
    sees real blocks 10 + 6 wide and 11 constraints, where the same
    problem on the full space (:func:`dense_purification_problem`) has
    complex blocks 32 + 16 and 257.  A solve is about ten iterations, and
    many problems are solved as one stack (:func:`purification_sdps`).
    With one BLAS thread on a shared 2-core x86-64 machine a problem cost
    (p = 1 / p = 0.8, best of seven rounds on twelve random cascades), in
    a stack of one: 4.9 / 5.7 ms at K = 2, 6.0 / 7.3 ms at K = 3,
    6.7 / 10 ms at K = 4 and 7.4 / 11 ms at K = 5; in a stack of twelve:
    0.63 / 0.77, 0.85 / 1.3, 1.3 / 2.8 and 4.2 / 7.6 ms.  ``Qt`` or ``Rt``
    off the commutant, or reduced blocks with
    an imaginary part, by more than ``COVARIANCE_TOL`` raise
    ``ValueError``; the full ``J`` is rebuilt and validated.
    """
    return purification_sdps([(qr, p)])[0]


def purification_sdps(pairs) -> list:
    """:func:`purification_sdp` of many ``(qr, p)`` pairs, in order.

    The problems of one shape (one K, and whether p = 1) are solved as one
    stack (:func:`sdp.solve_many`), whose arithmetic per problem does not
    depend on the rest of the stack, so a pair's solution is the same
    whatever it is solved with.  The first pair without an optimal
    certificate raises :class:`SolverError`.
    """
    pairs = list(pairs)
    for _, p in pairs:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"success probability {p} outside (0, 1]")
    shapes = {}
    for i, (qr, p) in enumerate(pairs):
        shapes.setdefault((qr.k, p == 1.0), []).append(i)
    sols = [None] * len(pairs)
    for idx in shapes.values():
        for i, sol in zip(idx, sdp.solve_many([_covariant_problem(*pairs[i]) for i in idx])):
            sols[i] = sol

    out = []
    for (qr, p), sol in zip(pairs, sols):
        if sol.status != sdp.OPTIMAL:
            raise SolverError(sol.status, f"purification SDP: {sol.message}")
        j = _lift(_frame(qr.k + 1, qr.k)[0], sol.X_blocks[0])
        f_success = float(np.real(np.trace(j @ qr.qt))) / p
        _validate_decoder(j, qr, p)
        out.append(DecoderSolution(
            j=j,
            f_success=f_success,
            f_avg=p * f_success + (1.0 - p) / 2.0,
        ))
    return out


@functools.cache
def _frame(n: int, flip: int):
    """``(w, paths)``: the Schur-Weyl basis of n qubits
    (:func:`tensor.schur_weyl_basis`), its first ``flip`` qubits mapped by
    ``FLIP^T`` (``FLIP`` takes ``conj(U)`` to ``U``), cut into ``w[t]``,
    whose column a is the vector of path ``paths[a]`` (spin j) at
    ``m = j - t`` (zero for t > 2j).  All of it is real.  An operator on
    the commutant of ``conj(U)^{(x)flip} (x) U^{(x)(n - flip)}`` is
    ``sum_t w[t] X w[t]^T`` for one X, block-diagonal by spin: ``X_j`` on
    the paths of spin j."""
    v, blocks = schur_weyl_basis(n)
    flipper = functools.reduce(np.kron, [FLIP.T] * flip + [I2] * (n - flip))
    basis = flipper @ v
    two_j = np.array([tj for tj, paths in blocks for _ in paths])
    first = np.cumsum(two_j + 1) - two_j - 1
    w = np.zeros((two_j.max() + 1, 2 ** n, len(two_j)))
    for t in range(len(w)):
        w[t][:, two_j >= t] = basis[:, (first + t)[two_j >= t]]
    return w, tuple(path for _, paths in blocks for path in paths)


def _lift(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_t w[t] X w[t]^T`` of X, or of each X of a stack."""
    return np.sum(w @ x[..., None, :, :] @ w.transpose(0, 2, 1), axis=-3)


def _reduce(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The adjoint of :func:`_lift`: ``(2j + 1) X_j`` on the commutant."""
    return np.sum(w.transpose(0, 2, 1) @ x[..., None, :, :] @ w, axis=-3)


def covariant_operators(qr: QROperators):
    """``Qt`` and ``Rt`` reduced on the decoder's frame (the K-qubit leg
    flipped), and their largest entry off the commutant of
    ``conj(U)^{(x)K} (x) U``, relative to ``max(1, largest entry)``, of
    ``qr`` or of its whole stack."""
    w, paths = _frame(qr.k + 1, qr.k)
    two_j = np.array([path[-1] for path in paths])
    reduced, resid = [], 0.0
    for x in (qr.qt, qr.rt):
        red = _reduce(w, x) * (two_j[:, None] == two_j)
        off = float(np.max(np.abs(x - _lift(w, red / (two_j[:, None] + 1)))))
        resid = max(resid, off / max(1.0, float(np.max(np.abs(x)))))
        reduced.append((red + dagger(red)) / 2.0)
    return reduced, resid


def _covariant_blocks(qr: QROperators):
    """The real reduced ``Qt`` and ``Rt`` that the decoder SDP and the gamma
    search read; off the commutant, or with an imaginary part, by more
    than ``COVARIANCE_TOL``: ``ValueError``."""
    (c, r), resid = covariant_operators(qr)
    if resid > COVARIANCE_TOL:
        raise ValueError(f"Qt, Rt off the SU(2) commutant by {resid:.1e} (relative)")
    imag = max(float(np.max(np.abs(x.imag))) / max(1.0, float(np.max(np.abs(x)))) for x in (c, r))
    if imag > COVARIANCE_TOL:
        raise ValueError(f"reduced Qt, Rt not real: imaginary part {imag:.1e} (relative)")
    return c.real, r.real


def _spin_blocks(qr: QROperators) -> list:
    """``(Q_j, R_j)`` per spin j, with ``Qt = (+)_j Q_j (x) I_{2j+1}``
    and ``Rt`` alike on the decoder's frame (:func:`_covariant_blocks`),
    each with the stack axis of ``qr``."""
    q, r = _covariant_blocks(qr)
    two_j = np.array([path[-1] for path in _frame(qr.k + 1, qr.k)[1]])
    idx = [np.flatnonzero(two_j == tj) for tj in np.unique(two_j)]
    return [tuple(x[..., i[:, None], i] / (two_j[i[0]] + 1) for x in (q, r)) for i in idx]


@functools.cache
def _covariant_rows(k: int) -> tuple:
    """``Tr_B J + S = I`` on the commutant, stacked: ``(A, E, Tr E)`` over
    the real symmetric units E within one spin block of S, ``Tr[A J] =
    Tr[E Tr_B J]`` on the reduced blocks; the antisymmetric units' rows
    vanish on the real J and S of real data, so they are left out.  A
    path of J extends a path of S by one spin-1/2, so ``Tr_B (J_j (x)
    I_{2j+1})`` adds ``(2j+1)/(2j'+1)`` times the part of ``J_j`` on the
    paths through spin j' to ``S_j'``, and the rest cancels (Schur's
    lemma): ``A = P^T E P``, P the weighted path-prefix map, masked to
    the spin blocks of J.
    """
    paths_j, paths_s = _frame(k + 1, k)[1], _frame(k, k)[1]
    row = {path: i for i, path in enumerate(paths_s)}
    prefix = np.zeros((len(paths_s), len(paths_j)))
    for a, path in enumerate(paths_j):
        prefix[row[path[:-1]], a] = np.sqrt((path[-1] + 1) / (path[-2] + 1))
    spin_j, spin_s = (np.array([path[-1] for path in ps]) for ps in (paths_j, paths_s))
    units = _hermitian_basis(len(paths_s))
    in_block = ~units[:, spin_s[:, None] != spin_s].any(axis=1)
    e = units[in_block & ~units.imag.any(axis=(1, 2))].real
    a = (prefix.T @ e @ prefix) * (spin_j[:, None] == spin_j)
    return a, e, np.trace(e, axis1=1, axis2=2)


def _covariant_problem(qr: QROperators, p: float) -> sdp.SdpProblem:
    """The decoder SDP on the real reduced blocks of J and S."""
    return _decoder_problem(*_covariant_blocks(qr), _covariant_rows(qr.k), p)


def evaluate_decoder(j: np.ndarray, qr: QROperators) -> tuple[float, float, float]:
    """``(p_real, f_success, f_avg)`` of decoder Choi ``j`` on the cascade
    ``qr``: realized acceptance, heralded fidelity and averaged fidelity
    (a rejected run counts as the maximally mixed output)."""
    p_real = float(np.real(np.trace(j @ qr.rt)))
    accepted = float(np.real(np.trace(j @ qr.qt)))
    f_success = accepted / p_real if p_real > 1e-12 else 0.5
    return p_real, f_success, accepted + (1.0 - p_real) / 2.0


def _validate_decoder(j: np.ndarray, qr: QROperators, p: float) -> None:
    floor = float(np.linalg.eigvalsh(j)[0])
    if floor < -1e-8:
        raise ValueError(f"decoder Choi eigenvalue floor {floor:.2e}")
    da = j.shape[0] // 2
    tr_b = np.trace(j.reshape(da, 2, da, 2), axis1=1, axis2=3)
    top = float(np.linalg.eigvalsh((tr_b + dagger(tr_b)) / 2)[-1])
    if top > 1.0 + 1e-7:
        raise ValueError(f"decoder violates Tr_B J <= I by {top - 1.0:.2e}")
    acc = float(np.real(np.trace(j @ qr.rt)))
    if abs(acc - p) > 1e-7:
        raise ValueError(f"acceptance probability {acc:.9f} != target {p}")


def rayleigh_bound(qr: QROperators) -> float:
    """Spectral relaxation of the decoder problem: the top eigenvalue of
    ``Rt^{-1/2} Qt Rt^{-1/2}`` on the support of Rt, which dominates the
    SDP conditional fidelity for every p.

    Scored by :func:`_surrogates` on the full operators, with
    ``sigma^T = Rt[::2, ::2]``: valid because :func:`build_qr`, the only
    constructor of :class:`QROperators`, forms ``Rt = sigma^T (x) I`` and
    makes both operators Hermitian.  The gamma search scores on the spin
    blocks instead (:func:`_lattice_surrogates`), which agree to rounding;
    for one cascade already built, reducing it first costs more than it
    saves (one BLAS thread, shared 2-core x86-64: 0.36 against 0.06 ms at
    K = 2, 0.53 against 0.15 ms at K = 4).
    """
    return float(_surrogates(qr.qt[None], qr.rt[None, ::2, ::2])[0])


def blind_choi(m: int, p: float) -> np.ndarray:
    """The blind decoder (K = M), optimal under an identity-channel prior:
    ``p (2j+1)/(2j'+1)`` on each path of :func:`_frame` from a K-qubit
    spin j to its lowest spin j', the universal purifier (Keyl and Werner,
    Ann. Henri Poincare 2, 1 (2001)), so ``Tr_B J = p I`` on that spin.
    At p = 1 every path has it; at p < 1 only Sym^M does, which makes
    ``p (M+1)/M Pi_{(M-1)/2}`` there and rejection elsewhere."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability {p} outside (0, 1]")
    w, paths = _frame(m + 1, m)
    x = [p * (a[-2] + 1) / (a[-1] + 1) if a[-1] == abs(a[-2] - 1)
         and (p == 1.0 or a[:-1] == tuple(range(1, m + 1))) else 0.0 for a in paths]
    return _lift(w, np.diag(x))


def evaluate_gamma_surrogate(gamma, chan: Channel, t, r) -> float:
    return rayleigh_bound(design_at(gamma, chan, t, r).qr)


def _pair_weights(betas: np.ndarray) -> np.ndarray:
    """Quadratic-form weights ``w_kl beta_k beta_l`` (k <= l) per amplitude row."""
    rows, cols = np.triu_indices(betas.shape[1])
    return np.where(rows == cols, 1.0, 2.0) * betas[:, rows] * betas[:, cols]


def _amplitudes(points) -> np.ndarray:
    return np.array([clone_amplitudes(g).beta for g in points])


@functools.cache
def _lattice(m: int):
    """The 1/20 simplex lattice plus the exact uniform point (which the
    lattice misses at M = 3), each point's quadratic-form weights, and its
    rank in the tie-break order of :func:`optimize_gamma`."""
    points = simplex_grid(m, GRID_STEP_DENOM)
    uniform = tuple([1.0 / m] * m)
    if uniform not in points:
        points.append(uniform)
    betas = _amplitudes(points)
    order = sorted(range(len(points)),
                   key=lambda i: (-asymmetry_index(_fidelities(betas[i])), points[i]))
    return points, _pair_weights(betas), np.argsort(order)


def _surrogate_pieces(m: int, chan: Channel, t, r) -> list:
    """Per-spin pieces ``(Q_j,kl, R_j,kl)`` (k <= l) of the cascade, stacked
    over kl (:func:`_spin_blocks`).

    The cloner Choi is ``sum_{k<=l} w_kl beta_k beta_l J_kl`` with
    ``J_kl = (B_k B_l^T + B_l B_k^T) / 2M``, and ``Qt`` and ``Rt`` are
    linear in it, so both are quadratic forms in the clone amplitudes
    built from these pieces, whose cascades are built as one stack.
    """
    basis = _stinespring_basis(m)
    k, l = np.triu_indices(m)
    outer = basis[k] @ basis[l].swapaxes(1, 2)
    pieces = ClonerChoi(choi=(outer + outer.swapaxes(1, 2)) / (2 * m), m=m, fidelities=())
    return _spin_blocks(build_qr(compose_effective_map(pieces, chan, t, r)))


def _pinv_sqrt(r: np.ndarray):
    """``R^{-1/2}`` on the support of each stacked Hermitian R, and whether
    that support is nonempty.  Eigenvalues at or below ``PSD_SUPPORT_TOL``
    lie outside it; one below ``-PSD_SUPPORT_TOL`` raises :class:`NotPsdError`."""
    ev, vec = np.linalg.eigh(r)
    floor = ev[:, 0].min()
    if floor < -PSD_SUPPORT_TOL:
        raise NotPsdError(f"eigenvalue {floor:.3e} below -{PSD_SUPPORT_TOL:.1e}")
    inv_sqrt = np.where(ev > PSD_SUPPORT_TOL,
                        1.0 / np.sqrt(np.clip(ev, PSD_SUPPORT_TOL, None)), 0.0)
    return (vec * inv_sqrt[:, None, :]) @ vec.conj().swapaxes(1, 2), inv_sqrt.any(axis=1)


def _surrogates(qts, sts) -> np.ndarray:
    """The Rayleigh surrogate of each stacked pair ``(Qt, sigma^T)``, where
    ``Rt = sigma^T (x) I``: the top eigenvalue of ``R^{-1/2} Qt R^{-1/2}``,
    the square root taken on ``sigma^T`` (:func:`_pinv_sqrt`)."""
    s, support = _pinv_sqrt(sts)
    if not support.all():
        raise ValueError("Rt has empty support")
    rinv = (s[:, :, None, :, None] * I2[None, None, :, None, :]).reshape(qts.shape)
    return np.linalg.eigvalsh(rinv @ qts @ rinv)[:, -1]


def _lattice_surrogates(weights, pieces) -> np.ndarray:
    """The Rayleigh surrogate at every row of quadratic-form weights from
    the per-spin pieces of :func:`_surrogate_pieces`: the largest over j of
    the top eigenvalue of ``R_j^{-1/2} Q_j R_j^{-1/2}`` (:func:`_pinv_sqrt`),
    :func:`_surrogates` block by block.  Rows are scored in chunks of
    ``SCORE_CHUNK``, one BLAS product per block and chunk."""
    flat = [(q.reshape(len(q), -1), r.reshape(len(r), -1), q.shape[1:]) for q, r in pieces]
    out = np.empty(len(weights))
    for lo in range(0, len(weights), SCORE_CHUNK):
        w = weights[lo:lo + SCORE_CHUNK]
        tops, support = [], np.zeros(len(w), dtype=bool)
        for q, r, shape in flat:
            rinv, block_support = _pinv_sqrt((w @ r).reshape(len(w), *shape))
            tops.append(np.linalg.eigvalsh(rinv @ (w @ q).reshape(len(w), *shape) @ rinv)[:, -1])
            support |= block_support
        if not support.all():
            raise ValueError("Rt has empty support")
        out[lo:lo + len(w)] = np.max(tops, axis=0)
    return out


def _polish(start: tuple, pieces) -> tuple:
    """Compass search from a lattice point along the simplex edges
    ``e_i - e_j``: take the best step that gains more than the tie
    tolerance, else halve the step, from 1/40 down to 1/640.  Steps
    within ``POLISH_TIE_TOL`` of the best tie (mirror images on a
    symmetric channel, equal up to rounding), and the first in ``edges``
    order is taken."""
    m = len(start)
    counts = np.rint(np.asarray(start) * POLISH_DENOM).astype(int)
    edges = (np.eye(m, dtype=int)[:, None] - np.eye(m, dtype=int))[~np.eye(m, dtype=bool)]
    best = _lattice_surrogates(_pair_weights(_amplitudes([start])), pieces)[0]
    step = POLISH_DENOM // 40
    while step:
        moves = [c for c in counts + step * edges if c.min() >= 0]
        betas = _amplitudes([c / POLISH_DENOM for c in moves])
        vals = _lattice_surrogates(_pair_weights(betas), pieces)
        if vals.max() > best + SURROGATE_TIE_TOL:
            first = int(np.flatnonzero(vals >= vals.max() - POLISH_TIE_TOL)[0])
            counts, best = moves[first], vals[first]
        else:
            step //= 2
    return tuple(float(c) / POLISH_DENOM for c in counts)


def optimize_gamma(m: int, chan: Channel, t, r) -> Design:
    """Search the asymmetry simplex for the best Rayleigh surrogate.

    The design is p-independent: one search per channel, which returns
    :func:`design_at` gamma*; callers solve the decoder SDP on its ``qr``
    for each success probability they need.

    Every M scores the 1/20 lattice plus the exact uniform point on the
    SU(2) spin blocks of the cascade's quadratic-form pieces
    (:func:`_surrogate_pieces`).  Points within 1e-6 of the best tie, and
    the tie breaks toward the most uniform gamma (highest asymmetry index),
    then lexicographically smallest (ranks cached by :func:`_lattice`).
    At M >= 4 the winner is polished off the lattice (``_polish``), where
    the lattice alone fell up to 1.7e-4 short of a continuous search.  The
    surrogate returned is :func:`rayleigh_bound` at gamma*.

    Dominance over the single-branch strategies holds for the surrogate,
    not at an operating p: the candidates include the single-branch
    vertices, so the chosen surrogate is at least the one-copy value, but
    the chosen gamma's SDP fidelity at p can fall below one copy's.  On a
    noiseless N = 2 channel every non-uniform candidate ties at
    surrogate 1 and the tie-break picks gamma = (0.45, 0.55), whose
    heralded fidelity at p = 0.8 is 0.885 against 1.0 for one copy.
    """
    if m > 5:
        raise ValueError("gamma optimization limited to M <= 5")
    points, weights, rank = _lattice(m)
    pieces = _surrogate_pieces(m, chan, t, r)
    scores = _lattice_surrogates(weights, pieces)
    ties = np.flatnonzero(scores >= scores.max() - SURROGATE_TIE_TOL)
    gamma_star = points[ties[np.argmin(rank[ties])]]
    if m >= 4:
        gamma_star = _polish(gamma_star, pieces)
    design = design_at(gamma_star, chan, t, r)
    return replace(design, surrogate=rayleigh_bound(design.qr))
