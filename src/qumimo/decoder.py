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
(:func:`_frame`), the only form :func:`build_qr` returns: every reader
works on those blocks, a decoder is its reduced Choi, and only the
test references lift them back to the full space.  They are quadratic
forms in the clone amplitudes, whose pieces on a channel are contracted
once from the corner table of its (M, N) (:func:`_corner_table`) and
cached (:func:`_channel_pieces`): the gamma search scores them, and every
design (:class:`Design`) is one product with them; only the decoder SDP
is solved per p.  A design is read on realizations of its channel's
lambda by traces with its corner cascades (:func:`realized_values`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import sdp
from .channel import Channel, ChannelParams, channel_choi
from .cloner import (
    ClonerChoi,
    _amplitude_rows,
    _fidelities,
    _stinespring_basis,
    cloner_choi,
    simplex_grid,
)
from .errors import NotPsdError, SolverError
from .metrics import asymmetry_index
from .tensor import I2, PSD_SUPPORT_TOL, SWAP2, dagger, read_only, schur_weyl_basis

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
# Channels whose pieces stay cached: a task rereads only its own (16 KB each at N = M = 4).
PIECE_CACHE_SIZE = 8

# The real spin flip: FLIP conj(U) FLIP^T = U for U in SU(2).
FLIP = np.array([[0.0, -1.0], [1.0, 0.0]])

# Haar second moment of psi (x) psi on two qubits.
TWIRL_SECOND_MOMENT = (np.eye(4) + SWAP2) / 6.0


@dataclass(frozen=True)
class EffectiveMap:
    """The cascade ``sum_s weights[s] P_s j0 P_s^T`` on (input) (x) (K = N
    receive legs), over the leg permutations of :func:`_leg_table`; ``j0``
    (:func:`compose_effective_map`) may carry a leading stack axis."""

    j0: np.ndarray
    weights: np.ndarray
    k: int


@dataclass(frozen=True)
class QROperators:
    """``Qt = (+)_j Q_j (x) I_{2j+1}`` and ``Rt`` alike, reduced on the
    decoder's frame (:func:`_frame`) to the real ``(+)_j (2j + 1) Q_j``, so
    ``Tr[J Qt] = Tr[X qt]`` for ``J = (+)_j X_j (x) I_{2j+1}``."""

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
    """The design at ``gamma`` on transmit modes ``t`` and receive modes ``r``:
    its amplitude pairs (:func:`_pair_weights`) times the channel's pieces."""
    enc, t, r = cloner_choi(gamma), tuple(t), tuple(r)
    x = _channel_pieces(enc.m, chan.params, t, r)
    qt, rt = (_pair_weights(enc.beta[None]) @ x.reshape(len(x), -1)).reshape(x.shape[1:])
    return Design(tuple(float(g) for g in gamma), enc, t, r, QROperators(qt=qt, rt=rt, k=chan.n))


def realized_values(design: Design, chan: Channel, lams, js) -> np.ndarray:
    """``[3, row, decoder]``: :func:`evaluate_decoder` of each reduced decoder
    of ``js`` on the cascade of ``design`` on ``chan`` at lambda ``lams[row]``:
    the traces with the design's 2^M leg-permuted corner cascades
    (:func:`_corner_table`), weighted per row (:func:`_corner_weights`)."""
    m, table = design.enc.m, _corner_table(design.enc.m, chan.n)
    kl, _, s, d, _ = table.shape
    corners = (_pair_weights(design.enc.beta[None]) @ table.reshape(kl, -1)).reshape(2, s, d, d)
    corners = _permute_legs(corners, _leg_weights(chan, m, design.t, design.r), chan.n)
    traces = corners.reshape(2 * s, -1) @ np.reshape(js, (len(js), -1)).T
    accepted, p_real = _corner_weights(lams, design.t, m) @ traces.reshape(2, s, -1)
    return _decoder_values(p_real, accepted)


def compose_effective_map(encoder: ClonerChoi, chan: Channel, t, r) -> EffectiveMap:
    """The cascade of ``encoder`` on transmit modes ``t`` and a receive
    ordering ``r`` of all N modes (else :class:`ValueError`).

    ``j0`` holds clone c on leg c, depolarized by ``lam_{t_c}``, and I/2 on
    legs M+1..N, the other modes in index order.  Under the channel's
    permutation pi, mode i is read by the receive leg of ``pi(i)`` in
    ``r``: one leg permutation of ``j0``, weighted ``eta w_pi``, plus
    ``1 - eta`` at the identity.  ``encoder.choi`` may carry a leading
    stack axis; an entry's cascade does not depend on its stack.
    """
    n, m = chan.n, encoder.m
    weights = _leg_weights(chan, m, t, r)
    lead = encoder.choi.shape[:-2]
    jt = encoder.choi.reshape(-1, 2 ** (m + 1), 2 ** (m + 1))
    for c, mode in enumerate(t, start=1):
        # Depolarize clone c: (1 - lam) J + lam Tr_c J (x) I/2 on its leg.
        lam = chan.params.lam[int(mode) - 1]
        x = jt.reshape(-1, 2 ** c, 2, 2 ** (m - c), 2 ** c, 2, 2 ** (m - c))
        half_tr = lam / 2.0 * (x[:, :, 0, :, :, 0] + x[:, :, 1, :, :, 1])
        x = (1.0 - lam) * x
        x[:, :, 0, :, :, 0] += half_tr
        x[:, :, 1, :, :, 1] += half_tr
        jt = x
    pad = np.eye(2 ** (n - m)) / 2 ** (n - m)
    j0 = jt.reshape(-1, 2 ** (m + 1), 1, 2 ** (m + 1), 1) * pad[:, None]
    return EffectiveMap(j0=j0.reshape(lead + (2 ** (n + 1),) * 2), weights=weights, k=n)


def _leg_weights(chan: Channel, m: int, t, r) -> np.ndarray:
    """The weights of :func:`compose_effective_map`, its modes checked."""
    t, r, n = tuple(int(x) for x in t), tuple(int(x) for x in r), chan.n
    if len(t) != m or len(set(t)) != m or any(not 1 <= x <= n for x in t):
        raise ValueError(f"transmit modes {t} must be {m} distinct indices in 1..{n}")
    if sorted(r) != list(range(1, n + 1)):
        raise ValueError(f"receive modes {r} must be an ordering of all {n} modes")
    # Under pi leg c lands on slot[pi(modes[c])]; the identity comes first.
    modes = np.array(t + tuple(x for x in range(1, n + 1) if x not in t))
    slot = np.zeros(n + 1, dtype=int)
    slot[list(r)] = np.arange(n)
    codes = _leg_table(n)[0]
    tau = slot[chan.ensemble.table[:, modes - 1]]
    rows = np.searchsorted(codes, tau @ n ** np.arange(n - 1, -1, -1))
    eta = chan.params.eta
    weights = np.bincount(rows, weights=eta * np.asarray(chan.ensemble.weights),
                          minlength=len(codes))
    weights[rows[0]] += 1.0 - eta
    return weights


@functools.cache
def _leg_table(k: int) -> tuple:
    """Read-only ``(codes, blocks)`` of the K! leg permutations tau,
    lexicographic (``j0`` leg c lands on receive leg ``tau_c``): the raveled
    taus; per spin of :func:`_frame` below the symmetric one (which every
    tau fixes), its path slice and ``D_j(s) = w[0]^T w[0][idx_s]`` on it,
    raveled, as (K, (K - 1)!, d^2), where ket index i of tau's permuted
    operator reads index ``idx_s[i]``.
    Leg permutations commute with SU(2), so they act on the spin blocks by
    these orthogonal matrices (Bacon, Chuang and Harrow, PRL 97, 170502
    (2006))."""
    taus = np.array(list(itertools.permutations(range(k))))
    codes = taus @ k ** np.arange(k - 1, -1, -1)
    bits = np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    idx = (bits[:, taus] @ (1 << np.arange(k - 1, -1, -1))).T
    w, paths = _frame(k + 1, k)
    d = w[0].T @ w[0][(2 * idx[:, :, None] + np.arange(2)).reshape(len(taus), -1)]
    two_j = [path[-1] for path in paths]
    blocks = []
    for tj in sorted(set(two_j), reverse=True)[1:]:
        at = slice(two_j.index(tj), two_j.index(tj) + two_j.count(tj))
        blocks.append((at, d[:, at, at].reshape(k, -1, (at.stop - at.start) ** 2)))
    read_only(codes, *(a for _, a in blocks))
    return codes, tuple(blocks)


def _twirl(choi: np.ndarray, k: int) -> tuple:
    """The Haar-averaged ``Qt`` and ``Rt`` of a (stack of) cascade Choi on
    1 + K qubits, input transpose folded in."""
    dk = 2 ** k
    lead = choi.shape[:-2]
    jl4 = choi.reshape(lead + (2, dk, 2, dk))
    w4 = TWIRL_SECOND_MOMENT.reshape(2, 2, 2, 2)
    q4 = np.einsum("...iojp,irjs->...orps", jl4, w4)
    qt = q4.swapaxes(-4, -2).reshape(lead + (2 * dk, 2 * dk))
    sigma = np.einsum("...iojp,ij->...op", jl4, I2 / 2.0)
    # Rt = sigma^T (x) I, one Kronecker product per stack entry.
    rt = (sigma.swapaxes(-1, -2)[..., :, None, :, None] * I2[:, None, :]).reshape(qt.shape)
    return (qt + dagger(qt)) / 2.0, (rt + dagger(rt)) / 2.0


def build_qr(emap: EffectiveMap) -> QROperators:
    """The reduced ``Qt`` and ``Rt`` of the cascade (:class:`QROperators`):
    ``j0`` twirled and reduced once, then leg-permuted (:func:`_permute_legs`)."""
    x = _reduce(_frame(emap.k + 1, emap.k)[0], np.stack(_twirl(emap.j0, emap.k)))
    qt, rt = _permute_legs(x, emap.weights, emap.k)
    return QROperators(qt=qt, rt=rt, k=emap.k)


def _permute_legs(x: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """``X_j -> sum_s w_s D_j(s) X_j D_j(s)^T`` on the spin blocks of ``x``
    below the symmetric one (:func:`_leg_table`), as ``G = sum_s w_s D_j(s)
    (x) D_j(s)`` on the block, then symmetrized.  G is summed per ``tau_1``,
    then over those K sums: 1.6e-15 lost at K = 6, 8.6e-15 in one sum."""
    out = np.zeros_like(x)
    out[..., 0, 0] = x[..., 0, 0]
    w = weights.reshape(k, 1, -1)
    for at, a in _leg_table(k)[1]:
        d = at.stop - at.start
        g = ((a.swapaxes(1, 2) * w) @ a).sum(axis=0).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        block = x[..., at, at]
        # One product per stack entry, for bits independent of the stack.
        out[..., at, at] = (g.reshape(d * d, -1) @ block.reshape(-1, d * d, 1)).reshape(block.shape)
    return (out + out.swapaxes(-1, -2)) / 2.0


@functools.cache
def _symmetric_basis(d: int) -> np.ndarray:
    """Read-only: the ``d(d+1)/2 x d x d`` stack of real symmetric units:
    ``E_kk``, then ``E_kl + E_lk`` for each pair k < l in row-major order."""
    k, l = np.triu_indices(d, 1)
    basis = np.zeros((d + len(k), d, d))
    diag = np.arange(d)
    basis[diag, diag, diag] = 1.0
    sym = d + np.arange(len(k))
    basis[sym, k, l] = basis[sym, l, k] = 1.0
    return read_only(basis)


def _decoder_problem(qts, rts, rows, ps) -> tuple:
    """The decoder SDPs of matching ``qts``, ``rts`` and ``ps`` as one stack
    (:func:`sdp.solve_many`'s arguments): maximize ``Tr[qt J]`` with ``Tr[A_i
    J] + Tr[E_i S] = rhs_i`` for the shared rows ``(A, E, rhs)`` and ``Tr[rt
    J] = p``, J block 0 and S block 1; at p = 1, ``Tr[A_i J] = rhs_i`` alone."""
    (a, e, rhs), qts, rts = rows, np.asarray(qts), np.asarray(rts)
    rhs = np.broadcast_to(rhs, (len(ps), len(rhs)))
    if all(p == 1.0 for p in ps):
        return [qts], [a], rhs
    ws = e.shape[1]
    return ([qts, np.zeros((ws, ws))],
            [np.concatenate([np.broadcast_to(a, (len(ps),) + a.shape), rts[:, None]], axis=1),
             np.concatenate([e, np.zeros((1, ws, ws))])], np.column_stack([rhs, ps]))


def purification_sdp(qr: QROperators, p: float) -> DecoderSolution:
    """:func:`purification_sdps` of one pair: the stack of one."""
    return purification_sdps([(qr, p)])[0]


def purification_sdps(pairs) -> list:
    """Optimal probabilistic purification maps of many ``(qr, p)`` pairs,
    in order, one per success probability p.

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
    sees blocks 10 + 6 wide and 11 constraints, where the same problem on
    the full space has blocks 32 + 16 and 137.  The decoder returned,
    ``DecoderSolution.j``, is the reduced J, checked on the blocks
    (:func:`_validate_decoder`).

    The problems of one shape (one K, and whether p = 1) are solved as one
    stack that shares K's constraint tables (:func:`_decoder_problem`),
    whose arithmetic per problem does not depend on the rest of the stack,
    so a pair's solution is the same whatever it is solved with.  The
    first pair without an optimal certificate raises :class:`SolverError`.
    """
    pairs, shapes = list(pairs), {}
    for i, (qr, p) in enumerate(pairs):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"success probability {p} outside (0, 1]")
        shapes.setdefault((qr.k, p == 1.0), []).append(i)
    sols = {}
    for (k, _), idx in shapes.items():
        qrs, ps = zip(*(pairs[i] for i in idx))
        stack = _decoder_problem([qr.qt for qr in qrs], [qr.rt for qr in qrs],
                                 _covariant_rows(k)[0], ps)
        sols.update(zip(idx, sdp.solve_many(*stack)))

    out = []
    for i, (qr, p) in enumerate(pairs):
        sol = sols[i]
        if sol.status != sdp.OPTIMAL:
            raise SolverError(sol.status, f"purification SDP: {sol.message}")
        x = sol.X_blocks[0]
        f_success = float(np.vdot(x, qr.qt)) / p
        _validate_decoder(x, qr, p)
        out.append(DecoderSolution(
            j=x,
            f_success=f_success,
            f_avg=p * f_success + (1.0 - p) / 2.0,
        ))
    return out


@functools.cache
def _frame(n: int, flip: int):
    """``(w, paths)``: the Schur-Weyl basis of n qubits
    (:func:`tensor.schur_weyl_basis`), its first ``flip`` qubits mapped by
    ``FLIP^T`` (``FLIP`` takes ``conj(U)`` to ``U``), cut into read-only
    ``w[t]``, whose column a is the vector of path ``paths[a]`` (spin j) at
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
    return read_only(w), tuple(path for _, paths in blocks for path in paths)


def _reduce(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(2j + 1) X_j`` on the commutant: the adjoint of the lift
    ``sum_t w[t] X w[t]^T`` (:func:`_frame`)."""
    return np.sum(w.transpose(0, 2, 1) @ x[..., None, :, :] @ w, axis=-3)


def _per_spin(qr: QROperators) -> list:
    """``(Q_j, R_j)`` per spin j, ascending, with the stack axis of ``qr``:
    its blocks divided by 2j + 1, so their eigenvalues are those of ``Qt``
    and ``Rt``."""
    two_j = np.array([path[-1] for path in _frame(qr.k + 1, qr.k)[1]])
    return [tuple(x[..., two_j == tj, :][..., two_j == tj] / (tj + 1) for x in (qr.qt, qr.rt))
            for tj in sorted(set(two_j.tolist()))]


@functools.cache
def _covariant_rows(k: int) -> tuple:
    """Read-only ``((A, E, Tr E), P)``: ``Tr_B J + S = I`` on the commutant,
    stacked over the real symmetric units E within one spin block of S,
    ``Tr[A J] = Tr[E Tr_B J]`` on the reduced blocks (J and S are real
    symmetric, so no other units are needed).  A path of J extends a path
    of S by one spin-1/2, so ``Tr_B (J_j (x) I_{2j+1})`` adds
    ``(2j+1)/(2j'+1)`` times the part of ``J_j`` on the paths through spin
    j' to ``S_j'``, and the rest cancels (Schur's lemma): ``Tr_B J`` is
    ``P J P^T`` on the spin blocks of S, and ``A = P^T E P``, P the
    weighted path-prefix map, masked to those of J.
    """
    paths_j, paths_s = _frame(k + 1, k)[1], _frame(k, k)[1]
    row = {path: i for i, path in enumerate(paths_s)}
    prefix = np.zeros((len(paths_s), len(paths_j)))
    for a, path in enumerate(paths_j):
        prefix[row[path[:-1]], a] = np.sqrt((path[-1] + 1) / (path[-2] + 1))
    spin_j, spin_s = (np.array([path[-1] for path in ps]) for ps in (paths_j, paths_s))
    units = _symmetric_basis(len(paths_s))
    e = units[~units[:, spin_s[:, None] != spin_s].any(axis=1)]
    a = (prefix.T @ e @ prefix) * (spin_j[:, None] == spin_j)
    *rows, prefix = read_only(a, e, np.trace(e, axis1=1, axis2=2), prefix)
    return tuple(rows), prefix


def evaluate_decoder(j: np.ndarray, qr: QROperators) -> tuple[float, float, float]:
    """``(p_real, f_success, f_avg)`` of the reduced decoder ``j`` on ``qr``:
    realized acceptance, heralded fidelity and averaged fidelity (a rejected
    run counts as the maximally mixed output), ``Tr[J Qt] = <j, qt>``."""
    return tuple(_decoder_values(np.vdot(j, qr.rt), np.vdot(j, qr.qt)).tolist())


def _decoder_values(p_real, accepted) -> np.ndarray:
    """:func:`evaluate_decoder` stacked from the traces of decoders with
    ``Rt`` and ``Qt``: ``f_success`` is 1/2 where ``p_real <= 1e-12``."""
    ok = p_real > 1e-12
    f_success = np.where(ok, accepted / np.where(ok, p_real, 1.0), 0.5)
    return np.stack([p_real, f_success, accepted + (1.0 - p_real) / 2.0])


def _validate_decoder(j: np.ndarray, qr: QROperators, p: float) -> None:
    """The reduced decoder ``j`` is a decoder of ``qr`` at p: ``J >= 0``,
    ``Tr_B J <= I`` (on the spin blocks of S, :func:`_covariant_rows`) and
    ``Tr[J Rt] = p``."""
    floor = float(np.linalg.eigvalsh(j)[0])
    if not floor >= -1e-8:
        raise ValueError(f"decoder Choi eigenvalue floor {floor:.2e}")
    prefix = _covariant_rows(qr.k)[1]
    spin = np.array([path[-1] for path in _frame(qr.k, qr.k)[1]])
    top = float(np.linalg.eigvalsh(prefix @ j @ prefix.T * (spin[:, None] == spin))[-1])
    if not top <= 1.0 + 1e-7:
        raise ValueError(f"decoder violates Tr_B J <= I by {top - 1.0:.2e}")
    acc = float(np.vdot(j, qr.rt))
    if not abs(acc - p) <= 1e-7:
        raise ValueError(f"acceptance probability {acc:.9f} != target {p}")


def rayleigh_bound(qr: QROperators) -> float:
    """Spectral relaxation of the decoder problem: the top eigenvalue of
    ``Rt^{-1/2} Qt Rt^{-1/2}`` on the support of Rt, which dominates the
    SDP conditional fidelity for every p, from ``(+)_j Q_j`` and ``(+)_j
    R_j`` (block j of :class:`QROperators` over 2j + 1, the same spectra)."""
    dim = _spin_dims(qr.k)
    top, support = _rayleigh_tops((qr.qt / dim)[None], (qr.rt / dim)[None])
    if not support.all():
        raise ValueError("Rt has empty support")
    return float(top[0])


@functools.cache
def _spin_dims(k: int) -> np.ndarray:
    """Read-only ``2j + 1`` per path of :func:`_frame` (K + 1 qubits)."""
    return read_only(np.array([path[-1] + 1 for path in _frame(k + 1, k)[1]]))


def blind_choi(m: int, p: float) -> np.ndarray:
    """The reduced blind decoder (K = M), optimal under an identity-channel
    prior: ``p (2j+1)/(2j'+1)`` on each path of :func:`_frame` from a
    K-qubit spin j to its lowest spin j', the universal purifier (Keyl and
    Werner, Ann. Henri Poincare 2, 1 (2001)), so ``Tr_B J = p I`` on that
    spin.  At p = 1 every path has it; at p < 1 only Sym^M does, which
    makes ``p (M+1)/M Pi_{(M-1)/2}`` there and rejection elsewhere."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"success probability {p} outside (0, 1]")
    paths = _frame(m + 1, m)[1]
    return np.diag([p * (a[-2] + 1) / (a[-1] + 1) if a[-1] == abs(a[-2] - 1)
                    and (p == 1.0 or a[:-1] == tuple(range(1, m + 1))) else 0.0 for a in paths])


def evaluate_gamma_surrogate(gamma, chan: Channel, t, r) -> float:
    """:func:`rayleigh_bound` of :func:`design_at` gamma: one point of the
    gamma search scored alone, on the pieces the search reads, to 1e-12
    its :func:`_lattice_surrogates`."""
    return rayleigh_bound(design_at(gamma, chan, t, r).qr)


def _pair_weights(betas: np.ndarray) -> np.ndarray:
    """Quadratic-form weights ``w_kl beta_k beta_l`` (k <= l) per amplitude row."""
    rows, cols, w = _pairs(betas.shape[1])
    return w * betas[:, rows] * betas[:, cols]


@functools.cache
def _pairs(m: int) -> tuple:
    """Read-only ``(k, l, w_kl)`` of the pairs k <= l, ``w_kl`` 1 if k = l, else 2."""
    rows, cols = np.triu_indices(m)
    return read_only(rows, cols, np.where(rows == cols, 1.0, 2.0))


@functools.cache
def _lattice(m: int):
    """Read-only: the 1/20 simplex lattice plus the exact uniform point
    (which the lattice misses at M = 3), each point's quadratic-form
    weights, and its rank in the tie-break order of :func:`optimize_gamma`."""
    points = simplex_grid(m, GRID_STEP_DENOM)
    uniform = tuple([1.0 / m] * m)
    if uniform not in points:
        points.append(uniform)
    betas = _amplitude_rows(points)
    index = asymmetry_index(_fidelities(betas))
    order = sorted(range(len(points)), key=lambda i: (-index[i], points[i]))
    weights, rank = read_only(_pair_weights(betas), np.argsort(order))
    return tuple(points), weights, rank


def _surrogate_pieces(m: int, chan: Channel, t, r) -> list:
    """:func:`_per_spin` of the channel's pieces (:func:`_channel_pieces`)."""
    x = _channel_pieces(m, chan.params, tuple(t), tuple(r))
    return _per_spin(QROperators(qt=x[:, 0], rt=x[:, 1], k=chan.n))


@functools.lru_cache(maxsize=PIECE_CACHE_SIZE)
def _channel_pieces(m: int, params: ChannelParams, t: tuple, r: tuple) -> np.ndarray:
    """Read-only ``[kl, q]`` (q = 0 for ``Qt``, k <= l): the cascade of cloner
    piece kl on ``t`` and ``r`` of the channel of ``params``.  ``Qt`` and
    ``Rt`` are linear in the cloner Choi ``sum_{k<=l} w_kl beta_k beta_l
    J_kl``, ``J_kl = (B_k B_l^T + B_l B_k^T) / 2M``, quadratic in beta."""
    weights, table = _leg_weights(channel_choi(params), m, t, r), _corner_table(m, params.n)
    kl, _, s, d, _ = table.shape
    x = _corner_weights([params.lam], t, m) @ table.reshape(kl, 2, s, d * d)
    return read_only(_permute_legs(x.reshape(kl, 2, 1, d, d), weights, params.n)[:, :, 0])


@functools.cache
def _corner_table(m: int, n: int) -> np.ndarray:
    """Read-only ``C[kl, q, S]``: :func:`build_qr` (q = 0 for ``Qt``) of the
    cascade of piece kl (:func:`_channel_pieces`), lambda 1 on the clones
    in S (clone 1 the top bit) and 0 on the rest, I/2 on legs M+1..N, no
    crosstalk.  Depolarizing is linear in lambda, so a cascade is ``sum_S
    prod_{c in S} lambda_c prod_{c not in S} (1 - lambda_c) C[S]``, leg-permuted."""
    basis, (k, l, _) = _stinespring_basis(m), _pairs(m)
    outer = basis[k] @ basis[l].swapaxes(1, 2)
    pieces = ClonerChoi(choi=(outer + outer.swapaxes(1, 2)) / (2 * m), m=m, fidelities=())
    modes, corners = tuple(range(1, n + 1)), []
    for s in itertools.product((0.0, 1.0), repeat=m):
        chan = channel_choi(ChannelParams(n=n, eta=0.0, lam=s + (0.0,) * (n - m), delta=1.0))
        corners.append(build_qr(compose_effective_map(pieces, chan, modes[:m], modes)))
    return read_only(np.array([(c.qt, c.rt) for c in corners]).transpose(2, 1, 0, 3, 4).copy())


def _corner_weights(lams, t, m: int) -> np.ndarray:
    """``[row, S]``: ``prod_{c in S} lambda_c prod_{c not in S} (1 - lambda_c)``,
    lambda ``lams[row]`` of transmit mode ``t[c]`` on clone c, per corner S
    of :func:`_corner_table`."""
    lam = np.asarray(lams, dtype=float)[:, [int(x) - 1 for x in t], None]
    bits = (np.arange(2 ** m) >> np.arange(m - 1, -1, -1)[:, None] & 1).astype(bool)
    return np.where(bits, lam, 1.0 - lam).prod(axis=1)


def _rayleigh_tops(q: np.ndarray, r: np.ndarray):
    """The top eigenvalue of ``R^{-1/2} Q R^{-1/2}`` per stacked Q and R, on
    R's support (eigenvalues above ``PSD_SUPPORT_TOL``; one below its
    negative raises :class:`NotPsdError`), and whether that support is nonempty."""
    ev, vec = np.linalg.eigh(r)
    floor = ev[:, 0].min()
    if floor < -PSD_SUPPORT_TOL:
        raise NotPsdError(f"eigenvalue {floor:.3e} below -{PSD_SUPPORT_TOL:.1e}")
    inv_sqrt = np.where(ev > PSD_SUPPORT_TOL,
                        1.0 / np.sqrt(np.clip(ev, PSD_SUPPORT_TOL, None)), 0.0)
    rinv = (vec * inv_sqrt[:, None, :]) @ vec.conj().swapaxes(1, 2)
    return np.linalg.eigvalsh(rinv @ q @ rinv)[:, -1], inv_sqrt.any(axis=1)


def _lattice_surrogates(weights, pieces) -> np.ndarray:
    """The Rayleigh surrogate at every row of quadratic-form weights from
    the per-spin pieces of :func:`_surrogate_pieces`: the largest over j of
    the top eigenvalue of ``R_j^{-1/2} Q_j R_j^{-1/2}`` (:func:`_rayleigh_tops`).
    Rows are scored in chunks of ``SCORE_CHUNK``, one BLAS product per
    block and chunk."""
    flat = [(q.reshape(len(q), -1), r.reshape(len(r), -1), q.shape[1:]) for q, r in pieces]
    out = np.empty(len(weights))
    for lo in range(0, len(weights), SCORE_CHUNK):
        w = weights[lo:lo + SCORE_CHUNK]
        tops, support = [], np.zeros(len(w), dtype=bool)
        for q, r, shape in flat:
            top, block_support = _rayleigh_tops((w @ q).reshape(len(w), *shape),
                                                (w @ r).reshape(len(w), *shape))
            tops.append(top)
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
    best = _lattice_surrogates(_pair_weights(_amplitude_rows([start])), pieces)[0]
    step = POLISH_DENOM // 40
    while step:
        moves = [c for c in counts + step * edges if c.min() >= 0]
        betas = _amplitude_rows([c / POLISH_DENOM for c in moves])
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
    SU(2) spin blocks of the channel's cached quadratic-form pieces
    (:func:`_surrogate_pieces` of :func:`_channel_pieces`).  Points within
    1e-6 of the best tie, and the tie breaks toward the most uniform gamma
    (highest asymmetry index), then lexicographically smallest (ranks
    cached by :func:`_lattice`).  At M >= 4 the winner is polished off the
    lattice (``_polish``), where the lattice alone fell up to 1.7e-4 short
    of a continuous search.  The design returned contracts the same pieces
    at gamma*, and its surrogate is :func:`rayleigh_bound` there.

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
