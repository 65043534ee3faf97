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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sdp
from .channel import ChannelChoi
from .cloner import (
    AsymmetryVector,
    ClonerChoi,
    _stinespring_basis,
    clone_amplitudes,
    clone_fidelities,
    cloner_choi,
    simplex_grid,
)
from .errors import NotPsdError, SolverError
from .metrics import asymmetry_index
from .tensor import I2, PSD_SUPPORT_TOL, SWAP2, dagger, perm_basis_map

SURROGATE_TIE_TOL = 1e-6
GRID_STEP_DENOM = 20
# Lattice points per scoring batch: 8 MB of stacked Qt at K = 5 (0.7 GB unchunked).
SCORE_CHUNK = 128
POLISH_DENOM = 640

# Haar second moment of psi (x) psi on two qubits.
TWIRL_SECOND_MOMENT = (np.eye(4, dtype=complex) + SWAP2) / 6.0


@dataclass(frozen=True)
class EffectiveMap:
    """Choi of the encoder-channel cascade restricted to receive modes."""

    choi: np.ndarray
    t: tuple
    r: tuple
    k: int


@dataclass(frozen=True)
class QROperators:
    qt: np.ndarray
    rt: np.ndarray
    k: int


@dataclass(frozen=True)
class DecoderSolution:
    j: np.ndarray
    p_target: float
    f_success: float
    f_avg: float
    iterations: int = 0


@dataclass(frozen=True)
class GammaOptimum:
    gamma: AsymmetryVector
    surrogate: float
    qr: QROperators


def compose_effective_map(
    encoder: ClonerChoi, chan: ChannelChoi, t, r
) -> EffectiveMap:
    """Embed clones onto transmit modes, feed unused modes with I/2,
    push through the channel, keep the receive modes.

    Composition is the link product over the intermediate N-mode space.
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

    j_enc = encoder.choi
    if m < n:
        extra = np.eye(2 ** (n - m), dtype=complex) / 2 ** (n - m)
        j_enc = np.kron(j_enc, extra)
    # Route clone k to mode t_k; leftover modes take the I/2 legs.
    rest = [q for q in range(1, n + 1) if q not in t]
    perm = list(t) + rest
    if perm != list(range(1, n + 1)):
        qmap = perm_basis_map(perm, n)
        inv = np.empty_like(qmap)
        inv[qmap] = np.arange(2 ** n)
        dim = 2 ** n
        flat = np.arange(2 * dim)
        src = (flat // dim) * dim + inv[flat % dim]
        j_enc = j_enc[np.ix_(src, src)]

    dim = 2 ** n
    je4 = j_enc.reshape(2, dim, 2, dim)
    jh4 = chan.choi.reshape(dim, dim, dim, dim)
    jc4 = np.einsum("imjn,monp->iojp", je4, jh4)

    keep_axes = [x - 1 for x in r]
    drop_axes = [x for x in range(n) if x not in keep_axes]
    tens = jc4.reshape([2] + [2] * n + [2] + [2] * n)
    for ax in sorted(drop_axes, reverse=True):
        tens = np.trace(tens, axis1=1 + ax, axis2=1 + tens.ndim // 2 + ax)
    # Reorder kept output axes to follow the order of r.
    kept_sorted = sorted(keep_axes)
    pos = [kept_sorted.index(x) for x in keep_axes]
    half = 1 + len(keep_axes)
    axes = [0] + [1 + p for p in pos] + [half] + [half + 1 + p for p in pos]
    tens = tens.transpose(axes)
    k = len(r)
    dk = 2 ** k
    return EffectiveMap(choi=tens.reshape(2 * dk, 2 * dk), t=t, r=r, k=k)


def build_qr(emap: EffectiveMap) -> QROperators:
    """Haar-averaged operators of the cascade, input transpose folded in."""
    dk = 2 ** emap.k
    jl4 = emap.choi.reshape(2, dk, 2, dk)
    w4 = TWIRL_SECOND_MOMENT.reshape(2, 2, 2, 2)
    q4 = np.einsum("iojp,irjs->orps", jl4, w4)
    qt = q4.transpose(2, 1, 0, 3).reshape(2 * dk, 2 * dk)
    sigma = np.einsum("iojp,ij->op", jl4, I2 / 2.0)
    rt = np.kron(sigma.T, I2)
    qt = (qt + dagger(qt)) / 2.0
    rt = (rt + dagger(rt)) / 2.0
    return QROperators(qt=qt, rt=rt, k=emap.k)


@functools.cache
def _hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[i, j] = x[j, i] = 1.0
            basis.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[i, j] = 1j
            y[j, i] = -1j
            basis.append(y)
    return basis


def dense_purification_problem(qr: QROperators, p: float) -> sdp.SdpProblem:
    """The decoder SDP of :func:`purification_sdp` with every constraint
    written out as Hermitian matrices, in the same order: the reference
    route that ``qumimo validate`` and the tests solve it against."""
    da = qr.qt.shape[0] // 2
    equalities = []
    for h in _hermitian_basis(da):
        coeff = {0: np.kron(h, I2)}
        if p < 1.0:
            coeff[1] = h
        equalities.append((coeff, float(np.real(np.trace(h)))))
    if p < 1.0:
        equalities.append(({0: qr.rt}, p))
        return sdp.SdpProblem(
            block_dims=[2 * da, da], objective=[qr.qt, np.zeros((da, da), dtype=complex)],
            equalities=equalities,
        )
    return sdp.SdpProblem(block_dims=[2 * da], objective=[qr.qt], equalities=equalities)


def purification_sdp(qr: QROperators, p: float) -> DecoderSolution:
    """Optimal probabilistic purification map at success probability p.

    Maximizes ``Tr[J Qt]`` over decoder Choi matrices ``J >= 0`` with
    ``Tr[J Rt] = p`` and ``Tr_B J <= I``, the dominance encoded with a PSD
    slack block coupled by ``Tr_B J + S = I``.  At p = 1 the acceptance
    constraint pins ``Tr_B J = I`` exactly (``Rt`` has a full-rank state
    on its K-qubit factor), so the slack block is dropped and the trace
    constraint becomes that equality.  The constraints are read through
    :class:`sdp.PartialTraceOperator`, which forms the solver's Schur
    matrix from partial traces without storing a constraint matrix; the
    same problem written out densely is :func:`dense_purification_problem`.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability {p} outside (0, 1]")
    sol = sdp.solve(sdp.PartialTraceOperator(qr.qt, qr.rt, p))
    if sol.status != sdp.OPTIMAL:
        raise SolverError(sol.status, f"purification SDP: {sol.message}")

    j = sol.X_blocks[0]
    f_success = float(np.real(np.trace(j @ qr.qt))) / p
    f_avg = p * f_success + (1.0 - p) / 2.0
    _validate_decoder(j, qr, p)
    return DecoderSolution(
        j=j,
        p_target=p,
        f_success=f_success,
        f_avg=f_avg,
        iterations=sol.iterations,
    )


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

    Scored by :func:`_surrogates` on ``sigma^T = Rt[::2, ::2]``: valid
    because :func:`build_qr`, the only constructor of
    :class:`QROperators`, forms ``Rt = sigma^T (x) I`` and makes both
    operators Hermitian.
    """
    return float(_surrogates(qr.qt[None], qr.rt[None, ::2, ::2])[0])


@functools.cache
def blind_qr(m: int, k: int) -> QROperators:
    """Haar operators of the symmetric cloner under an identity-channel
    prior; the non-adaptive decoder design point."""
    if m != k:
        raise ValueError(f"blind design requires M == K, got {m} != {k}")
    enc = cloner_choi(tuple([1.0 / m] * m))
    emap = EffectiveMap(choi=enc.choi, t=tuple(range(1, m + 1)), r=tuple(range(1, m + 1)), k=m)
    return build_qr(emap)


def blind_decoder(m: int, p: float) -> DecoderSolution:
    return _blind_decoder(m, round(p, 12))


@functools.cache
def _blind_decoder(m: int, p: float) -> DecoderSolution:
    return purification_sdp(blind_qr(m, m), p)


def evaluate_gamma_surrogate(gamma, chan: ChannelChoi, t, r) -> float:
    return rayleigh_bound(build_qr(compose_effective_map(cloner_choi(gamma), chan, t, r)))


def _pair_weights(points) -> np.ndarray:
    """Quadratic-form weights ``w_kl beta_k beta_l`` (k <= l) of each gamma."""
    rows, cols = np.triu_indices(len(points[0]))
    betas = np.array([clone_amplitudes(g).beta for g in points])
    return np.where(rows == cols, 1.0, 2.0) * betas[:, rows] * betas[:, cols]


@functools.cache
def _lattice(m: int):
    """The 1/20 simplex lattice plus the exact uniform point (which the
    lattice misses at M = 3), and each point's quadratic-form weights."""
    points = simplex_grid(m, GRID_STEP_DENOM)
    uniform = tuple([1.0 / m] * m)
    if uniform not in points:
        points.append(uniform)
    return points, _pair_weights(points)


def _surrogate_pieces(m: int, chan: ChannelChoi, t, r):
    """Stacked ``Qt_kl`` and ``sigma_kl^T`` (k <= l) of the cascade.

    The cloner Choi is ``sum_{k<=l} w_kl beta_k beta_l J_kl`` with
    ``J_kl = (B_k B_l^T + B_l B_k^T) / 2M``, and ``Qt`` and ``sigma``
    (``Rt = sigma^T (x) I``) are linear in it, so both are quadratic forms
    in the clone amplitudes built from these pieces.
    """
    basis = _stinespring_basis(m)
    qts, sts = [], []
    for k, l in zip(*np.triu_indices(m)):
        outer = basis[k] @ basis[l].T
        piece = ClonerChoi(choi=((outer + outer.T) / (2 * m)).astype(complex), m=m, fidelities=())
        qr = build_qr(compose_effective_map(piece, chan, t, r))
        qts.append(qr.qt)
        sts.append(qr.rt[::2, ::2])
    return np.array(qts), np.array(sts)


def _surrogates(qts, sts) -> np.ndarray:
    """The Rayleigh surrogate of each stacked pair ``(Qt, sigma^T)``, where
    ``Rt = sigma^T (x) I``: the top eigenvalue of ``R^{-1/2} Qt R^{-1/2}``,
    with the pseudo-inverse square root taken on ``sigma^T``.  Eigenvalues
    at or below ``PSD_SUPPORT_TOL`` lie outside the support; one below
    ``-PSD_SUPPORT_TOL`` raises :class:`NotPsdError`."""
    ev, vec = np.linalg.eigh(sts)
    floor = ev[:, 0].min()
    if floor < -PSD_SUPPORT_TOL:
        raise NotPsdError(f"eigenvalue {floor:.3e} below -{PSD_SUPPORT_TOL:.1e}")
    inv_sqrt = np.where(ev > PSD_SUPPORT_TOL,
                        1.0 / np.sqrt(np.clip(ev, PSD_SUPPORT_TOL, None)), 0.0)
    if not inv_sqrt.any(axis=1).all():
        raise ValueError("Rt has empty support")
    s = (vec * inv_sqrt[:, None, :]) @ vec.conj().swapaxes(1, 2)
    rinv = (s[:, :, None, :, None] * I2[None, None, :, None, :]).reshape(qts.shape)
    return np.linalg.eigvalsh(rinv @ qts @ rinv)[:, -1]


def _lattice_surrogates(weights, qts, sts) -> np.ndarray:
    """:func:`_surrogates` of the cascade at every row of quadratic-form
    weights, scored in chunks of ``SCORE_CHUNK`` rows.  Weights act on the
    float view of the pieces: one BLAS product, where a real-by-complex
    matmul is far slower."""
    q_flat, s_flat = (x.reshape(len(x), -1).view(float) for x in (qts, sts))
    out = np.empty(len(weights))
    for lo in range(0, len(weights), SCORE_CHUNK):
        w = weights[lo:lo + SCORE_CHUNK]
        qt = (w @ q_flat).view(complex).reshape(len(w), *qts.shape[1:])
        st = (w @ s_flat).view(complex).reshape(len(w), *sts.shape[1:])
        out[lo:lo + len(w)] = _surrogates(qt, st)
    return out


def _polish(start: tuple, pieces) -> tuple:
    """Compass search from a lattice point along the simplex edges
    ``e_i - e_j``: take the best step that gains more than the tie
    tolerance, else halve the step, from 1/40 down to 1/640."""
    m = len(start)
    counts = np.rint(np.asarray(start) * POLISH_DENOM).astype(int)
    edges = (np.eye(m, dtype=int)[:, None] - np.eye(m, dtype=int))[~np.eye(m, dtype=bool)]
    best, step = _lattice_surrogates(_pair_weights([start]), *pieces)[0], POLISH_DENOM // 40
    while step:
        moves = [c for c in counts + step * edges if c.min() >= 0]
        vals = _lattice_surrogates(_pair_weights([c / POLISH_DENOM for c in moves]), *pieces)
        if vals.max() > best + SURROGATE_TIE_TOL:
            counts, best = moves[int(np.argmax(vals))], vals.max()
        else:
            step //= 2
    return tuple(float(c) / POLISH_DENOM for c in counts)


def optimize_gamma(m: int, chan: ChannelChoi, t, r) -> GammaOptimum:
    """Search the asymmetry simplex for the best Rayleigh surrogate.

    The design is p-independent: one search per channel, whose result
    carries the cascade operators ``qr`` at gamma*; callers solve the
    decoder SDP on ``qr`` for each success probability they need.

    Every M scores the 1/20 lattice plus the exact uniform point from the
    cascade's quadratic-form pieces.  Points within 1e-6 of the best tie,
    and the tie breaks toward the most uniform gamma (highest asymmetry
    index), then lexicographically smallest.  At M >= 4 the winner is
    polished off the lattice (``_polish``), where the lattice alone fell
    up to 1.7e-4 short of a continuous search.

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
    points, weights = _lattice(m)
    pieces = _surrogate_pieces(m, chan, t, r)
    scores = _lattice_surrogates(weights, *pieces)
    ties = np.flatnonzero(scores >= scores.max() - SURROGATE_TIE_TOL)
    gamma_star = min((points[i] for i in ties),
                     key=lambda g: (-asymmetry_index(clone_fidelities(g).fidelities), g))
    if m >= 4:
        gamma_star = _polish(gamma_star, pieces)
    qr = build_qr(compose_effective_map(cloner_choi(gamma_star), chan, t, r))
    return GammaOptimum(AsymmetryVector(gamma_star), rayleigh_bound(qr), qr)
