"""Test-side reference operators, samplers and routes.

The program does not call these.  Tests use them as independent
references for run-time code: the Pauli matrices, the labeled mode
space and its generic partial trace (the program traces the legs of its
own fixed layouts with ``reshape`` and ``trace``), Haar sampling for
Monte Carlo checks, the permutation unitaries behind the channel's
crosstalk symmetry, the Kraus set of the depolarizing map, the rank-one
witness of the Rayleigh bound on the lifted ``Qt`` and ``Rt`` (the
reference for ``decoder.rayleigh_bound``, which scores on spin blocks),
the dense route to one branch fidelity, the dense channel route: the
4^N x 4^N channel Choi, its action on states, its partial-trace branch
table and the link product with the cloner (:func:`dense_compose`),
which ``decoder.compose_effective_map`` replaces by one padded cloner
read under the channel's leg permutations, and the earlier route of the
cascade on 1 + K qubits: the weights of the source tuples that receive
modes read (:func:`source_weights`) and one ``einsum`` per source
pattern (:func:`einsum_compose`), the pattern oracle at every K.

The full-space route of the Haar operators is kept here as the oracle of
the spin blocks that ``decoder.build_qr`` returns: :func:`dense_cascade`
sums the cascade term by term, :func:`full_operators` twirls it,
:func:`lift` and :func:`lift_operators` take spin blocks back to the full
space, :class:`FullQR` holds the full ``Qt`` and ``Rt``,
:func:`covariant_operators` and :func:`spin_blocks` are the earlier
run-time reduction (with its check that the operators lie on the SU(2)
commutant), and :func:`validate_full_decoder` is the earlier full-space
check of a decoder, against which the block check is tested.
:func:`dense_purification_stack` is the decoder SDP on the full space,
the reference of the covariant problem that ``decoder.purification_sdps``
solves (:func:`covariant_stack`), :func:`stack_entry` cuts a problem
from a stack and :func:`block_diag` merges blocks as the solver does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from qumimo import channel, cloner, decoder
from qumimo.errors import DimensionLimitError, NotHermitianError, NotPsdError, QumimoError
from qumimo.tensor import HERMITIAN_RTOL, I2, PHI_UNNORM, PSD_SUPPORT_TOL, dagger

# Any single constructed matrix is capped at this dimension so that a
# misconfigured reference fails loudly instead of thrashing memory.
DEFAULT_DIM_CAP = 2 ** 14

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class LabelError(QumimoError, KeyError):
    """A tensor-mode label does not exist in the given mode space."""


@dataclass(frozen=True)
class ModeSpace:
    """Ordered collection of labeled local modes.

    ``labels[i]`` names the i-th tensor factor (most significant first)
    and ``dims[i]`` is its local dimension (2 for qubits).
    """

    labels: tuple
    dims: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate mode labels: {self.labels}")

    @staticmethod
    def qubits(labels: Iterable) -> "ModeSpace":
        labels = tuple(labels)
        return ModeSpace(labels=labels, dims=(2,) * len(labels))

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.dims else 1

    def axes(self, subset: Iterable) -> list[int]:
        subset = tuple(subset)
        missing = [s for s in subset if s not in self.labels]
        if missing:
            raise LabelError(f"unknown mode labels {missing}; have {self.labels}")
        return [self.labels.index(s) for s in subset]


def _as_tensor(x: np.ndarray, space: ModeSpace) -> np.ndarray:
    if x.shape != (space.dim, space.dim):
        raise ValueError(f"matrix shape {x.shape} does not match space dim {space.dim}")
    return x.reshape(space.dims + space.dims)


def partial_trace(x: np.ndarray, space: ModeSpace, keep: Iterable) -> np.ndarray:
    """Trace out every mode not listed in ``keep`` (order of ``keep`` kept)."""
    keep = tuple(keep)
    keep_axes = space.axes(keep)
    n = len(space.dims)
    traced_axes = [i for i in range(n) if i not in keep_axes]
    t = _as_tensor(np.asarray(x), space)
    perm = keep_axes + traced_axes + [a + n for a in keep_axes] + [a + n for a in traced_axes]
    t = t.transpose(perm)
    dk = int(np.prod([space.dims[a] for a in keep_axes], dtype=np.int64)) if keep_axes else 1
    dt = space.dim // dk
    t = t.reshape(dk, dt, dk, dt)
    return np.einsum("abcb->ac", t)


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
    skew = np.max(np.abs(x - dagger(x)))
    if not skew <= HERMITIAN_RTOL * max(1.0, float(np.max(np.abs(x))) if x.size else 0.0):
        raise NotHermitianError(f"matrix deviates from Hermiticity by {skew:.3e}")
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


def perm_basis_map(perm, n: int) -> np.ndarray:
    """Basis-index action of a qubit permutation.

    ``perm`` is 1-indexed with ``perm[i-1] = pi(i)``: the value held by
    qubit ``i`` moves to qubit ``pi(i)``.  Returns ``map`` such that the
    permutation unitary acts as ``U |b> = |map[b]>`` on computational
    basis indices (mode 1 = most significant bit).
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")
    dim = 2 ** n
    out = np.zeros(dim, dtype=np.int64)
    basis = np.arange(dim, dtype=np.int64)
    for i, target in enumerate(perm, start=1):
        bits = (basis >> (n - i)) & 1
        out |= bits << (n - target)
    return out


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
    eigenvector of ``R^{-1/2} Qt R^{-1/2}`` on the full ``Rt``, both lifted
    from the blocks ``qr``; PSD and on budget, but free to violate the
    partial-trace dominance."""
    qt, rt = lift_operators(qr)
    rinv = psd_sqrt_pinv(rt)
    mat = rinv @ qt @ rinv
    _, vecs = hermitian_eig((mat + dagger(mat)) / 2.0)
    v = support_projector(rt) @ vecs[:, -1]
    nrm = np.linalg.norm(v)
    if nrm > 0:
        v = v / nrm
    return p * (rinv @ projector(v) @ rinv)


def branch_fidelity_via_compose(chan, t_mode: int, r_mode: int) -> float:
    """One single-branch fidelity through the dense cascade: the M = 1
    cloner linked with the dense channel Choi (:func:`dense_compose`),
    receive mode ``r_mode`` kept, its Haar ``Qt``, then ``Tr[Phi Qt]`` for
    the received qubit used as it is."""
    choi = dense_compose(cloner.cloner_choi((1.0,)), dense_channel_choi(chan.params), chan.n,
                         (t_mode,), (r_mode,))
    return float(np.real(np.trace(PHI_UNNORM @ decoder._twirl(choi, 1)[0])))


def dense_cascade(emap: decoder.EffectiveMap) -> np.ndarray:
    """The cascade Choi on 2^(K+1), term by term: ``sum_s w_s P_s j0
    P_s^T`` over the leg permutations of ``decoder._leg_table``."""
    legs = decoder._leg_table(emap.k)[1]
    out = np.zeros_like(emap.j0)
    for s in np.flatnonzero(emap.weights):
        out += emap.weights[s] * emap.j0[..., legs[s][:, None], legs[s]]
    return out


def full_operators(emap: decoder.EffectiveMap) -> tuple:
    """The full ``Qt`` and ``Rt`` of :func:`dense_cascade`."""
    return decoder._twirl(dense_cascade(emap), emap.k)


def lift(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_t w[t] X w[t]^T`` of X, or of each X of a stack: the adjoint
    of ``decoder._reduce``."""
    return np.sum(w @ x[..., None, :, :] @ w.transpose(0, 2, 1), axis=-3)


def lift_operators(qr: decoder.QROperators) -> tuple:
    """The full ``Qt`` and ``Rt`` of the spin blocks ``qr``."""
    w, paths = decoder._frame(qr.k + 1, qr.k)
    dim = np.array([path[-1] + 1 for path in paths])
    return lift(w, qr.qt / dim), lift(w, qr.rt / dim)


def covariant_stack(qrs, p: float) -> tuple:
    """The decoder SDPs of ``qrs`` (one K) at p on their spin blocks, as
    ``decoder.purification_sdps`` stacks them for ``sdp.solve_many``."""
    return decoder._decoder_problem([qr.qt for qr in qrs], [qr.rt for qr in qrs],
                                    decoder._covariant_rows(qrs[0].k)[0], [p] * len(qrs))


def dense_purification_stack(qrs, p: float) -> tuple:
    """:func:`covariant_stack` on the full space (:func:`lift_operators`),
    one row of ``Tr_B J + S = I`` per real symmetric unit.  The data are
    real, so the mean of a complex optimum and its conjugate is a real
    one, and the real problem has the complex problem's value."""
    h = decoder._symmetric_basis(2 ** qrs[0].k)
    rows = (np.kron(h, I2), h, np.trace(h, axis1=1, axis2=2))
    return decoder._decoder_problem(*zip(*map(lift_operators, qrs)), rows, [p] * len(qrs))


def stack_entry(stack, i: int) -> tuple:
    """Problem i of a stack as ``sdp.solve``'s arguments: its entry of each
    stacked block, and the shared blocks."""
    objective, constraints, rhs = stack
    return ([c[i] if c.ndim == 3 else c for c in objective],
            [a[i] if a.ndim == 4 else a for a in constraints], rhs[i])


def block_diag(blocks) -> np.ndarray:
    """The blocks (square matrices, or ``m x d x d`` stacks) on the
    diagonal of one matrix (or stack), as the solver merges them."""
    n = sum(x.shape[-1] for x in blocks)
    out = np.zeros(blocks[0].shape[:-2] + (n, n))
    lo = 0
    for x in blocks:
        hi = lo + x.shape[-1]
        out[..., lo:hi, lo:hi] = x
        lo = hi
    return out


# Largest entry of Qt or Rt off the SU(2) commutant, and largest imaginary
# part of their reduced blocks, relative to max(1, largest entry), that
# the earlier run-time reduction accepted.
COVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class FullQR:
    """The full 2^(K+1)-square ``Qt`` and ``Rt`` of a cascade (or of a
    stack of them), as ``decoder.build_qr`` returned them before it
    returned spin blocks."""

    qt: np.ndarray
    rt: np.ndarray
    k: int


def full_qr(emap: decoder.EffectiveMap) -> FullQR:
    return FullQR(*full_operators(emap), k=emap.k)


def covariant_operators(qr: FullQR):
    """``Qt`` and ``Rt`` reduced on the decoder's frame (the K-qubit leg
    flipped), and their largest entry off the commutant of
    ``conj(U)^{(x)K} (x) U``, relative to ``max(1, largest entry)``, of
    ``qr`` or of its whole stack."""
    w, paths = decoder._frame(qr.k + 1, qr.k)
    two_j = np.array([path[-1] for path in paths])
    reduced, resid = [], 0.0
    for x in (qr.qt, qr.rt):
        red = decoder._reduce(w, x) * (two_j[:, None] == two_j)
        off = float(np.max(np.abs(x - lift(w, red / (two_j[:, None] + 1)))))
        resid = max(resid, off / max(1.0, float(np.max(np.abs(x)))))
        reduced.append((red + dagger(red)) / 2.0)
    return reduced, resid


def covariant_blocks(qr: FullQR):
    """The real reduced ``Qt`` and ``Rt``; off the commutant, or with an
    imaginary part, by more than ``COVARIANCE_TOL``: ``ValueError``."""
    (c, r), resid = covariant_operators(qr)
    if resid > COVARIANCE_TOL:
        raise ValueError(f"Qt, Rt off the SU(2) commutant by {resid:.1e} (relative)")
    imag = max(float(np.max(np.abs(x.imag))) / max(1.0, float(np.max(np.abs(x)))) for x in (c, r))
    if imag > COVARIANCE_TOL:
        raise ValueError(f"reduced Qt, Rt not real: imaginary part {imag:.1e} (relative)")
    return c.real, r.real


def spin_blocks(qr: FullQR) -> list:
    """``(Q_j, R_j)`` per spin j, with ``Qt = (+)_j Q_j (x) I_{2j+1}``
    and ``Rt`` alike on the decoder's frame (:func:`covariant_blocks`),
    each with the stack axis of ``qr``."""
    q, r = covariant_blocks(qr)
    two_j = np.array([path[-1] for path in decoder._frame(qr.k + 1, qr.k)[1]])
    idx = [np.flatnonzero(two_j == tj) for tj in np.unique(two_j)]
    return [tuple(x[..., i[:, None], i] / (two_j[i[0]] + 1) for x in (q, r)) for i in idx]


def lift_decoder(j: np.ndarray, k: int) -> np.ndarray:
    """The full Choi ``(+)_j X_j (x) I_{2j+1}`` of a reduced decoder."""
    return lift(decoder._frame(k + 1, k)[0], j)


def validate_full_decoder(j: np.ndarray, rt: np.ndarray, p: float) -> None:
    """The full-space check of a decoder Choi ``j`` on the full ``Rt``:
    ``J >= 0``, ``Tr_B J <= I`` and ``Tr[J Rt] = p``, each to the
    tolerance of ``decoder._validate_decoder``."""
    floor = float(np.linalg.eigvalsh(j)[0])
    if floor < -1e-8:
        raise ValueError(f"decoder Choi eigenvalue floor {floor:.2e}")
    da = j.shape[0] // 2
    tr_b = np.trace(j.reshape(da, 2, da, 2), axis1=1, axis2=3)
    top = float(np.linalg.eigvalsh((tr_b + dagger(tr_b)) / 2)[-1])
    if top > 1.0 + 1e-7:
        raise ValueError(f"decoder violates Tr_B J <= I by {top - 1.0:.2e}")
    acc = float(np.real(np.trace(j @ rt)))
    if abs(acc - p) > 1e-7:
        raise ValueError(f"acceptance probability {acc:.9f} != target {p}")


def depolarizing_choi_1q(lam: float) -> np.ndarray:
    """Unnormalized single-qubit depolarizing Choi on (in, out)."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"depolarization strength {lam} outside [0, 1]")
    return (1.0 - lam) * PHI_UNNORM + lam * np.eye(4, dtype=complex) / 2.0


def _depolarizing_choi(lam: tuple) -> np.ndarray:
    """Choi of the tensor product of per-mode depolarizing maps,
    rearranged from the per-mode (in_i, out_i) pairing to the block
    layout (all inputs) (x) (all outputs)."""
    n = len(lam)
    t = depolarizing_choi_1q(lam[0])
    for x in lam[1:]:
        t = np.kron(t, depolarizing_choi_1q(x))
    if n == 1:
        return t
    # Qubit at interleaved position 2i-1 (in_i) moves to position i,
    # position 2i (out_i) moves to position n+i.
    perm = [0] * (2 * n)
    for i in range(1, n + 1):
        perm[2 * i - 2] = i
        perm[2 * i - 1] = n + i
    qmap = perm_basis_map(perm, 2 * n)
    out = np.zeros_like(t)
    out[np.ix_(qmap, qmap)] = t
    return out


def dense_channel_choi(params: channel.ChannelParams) -> np.ndarray:
    """The channel's Choi on (N input qubits) (x) (N output qubits),
    unnormalized: depolarize every branch, then mix modes with
    probability eta, one gathered copy of the Choi per permutation."""
    n = params.n
    dim = 2 ** n
    if dim * dim > DEFAULT_DIM_CAP:
        raise DimensionLimitError(f"channel Choi dimension {dim * dim} exceeds cap")
    j_dep = _depolarizing_choi(params.lam)
    if params.eta == 0.0 or n == 1:
        return j_dep
    ens = channel.permutation_weights(channel.coupling_kernel(n, params.delta))
    mixed = np.zeros_like(j_dep)
    full = np.arange(dim * dim)
    in_idx, out_idx = full // dim, full % dim
    for pi, w in zip(ens.perms, ens.weights):
        qmap = perm_basis_map(pi, n)
        inv = np.empty_like(qmap)
        inv[qmap] = np.arange(dim)
        src = in_idx * dim + inv[out_idx]
        mixed += w * j_dep[np.ix_(src, src)]
    return (1.0 - params.eta) * j_dep + params.eta * mixed


def apply_choi(j: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a Choi operator: ``Tr_in[J (rho^T (x) I_out)]``."""
    dim_sq = j.shape[0]
    d_in = rho.shape[0]
    if dim_sq % d_in != 0:
        raise ValueError(f"Choi dim {dim_sq} incompatible with input dim {d_in}")
    d_out = dim_sq // d_in
    j4 = j.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("iokp,ik->op", j4, rho)


def dense_branch_fidelities(j: np.ndarray, n: int) -> np.ndarray:
    """The branch table of ``channel.branch_fidelities`` from partial
    traces of the dense channel Choi: ``J_tj = Tr_{in != t, out != j} J /
    2^(N-1)``, and a qubit map with unnormalized Choi J has average
    fidelity ``(1 + <Phi|J|Phi>/2) / 3`` (Horodecki, Horodecki,
    Horodecki, PRA 60, 1888 (1999))."""
    space = ModeSpace.qubits(range(1, 2 * n + 1))
    # Labels of the 1 -> N map from mode t: 0 is its input, 1..N the outputs.
    one_to_n = ModeSpace.qubits(range(n + 1))
    outputs = tuple(range(n + 1, 2 * n + 1))
    table = np.empty((n, n))
    for t in range(1, n + 1):
        j_t = partial_trace(j, space, (t,) + outputs) / 2 ** (n - 1)
        for r in range(1, n + 1):
            j_tr = partial_trace(j_t, one_to_n, (0, r))
            table[t - 1, r - 1] = (1.0 + np.real(np.trace(PHI_UNNORM @ j_tr)) / 2.0) / 3.0
    return table


def dense_compose(encoder: cloner.ClonerChoi, j_chan: np.ndarray, n: int, t, r) -> np.ndarray:
    """The cascade Choi by the link product over the N-mode space: clone k routed to mode ``t_k``, unused
    modes fed I/2, the dense channel Choi applied, every mode outside
    ``r`` traced out, the kept legs ordered by r."""
    m = encoder.m
    j_enc = encoder.choi
    if m < n:
        extra = np.eye(2 ** (n - m), dtype=complex) / 2 ** (n - m)
        j_enc = np.kron(j_enc, extra)
    # Route clone k to mode t_k; leftover modes take the I/2 legs.
    rest = [q for q in range(1, n + 1) if q not in t]
    perm = list(t) + rest
    dim = 2 ** n
    if perm != list(range(1, n + 1)):
        qmap = perm_basis_map(perm, n)
        inv = np.empty_like(qmap)
        inv[qmap] = np.arange(dim)
        flat = np.arange(2 * dim)
        src = (flat // dim) * dim + inv[flat % dim]
        j_enc = j_enc[np.ix_(src, src)]

    je4 = j_enc.reshape(2, dim, 2, dim)
    jh4 = j_chan.reshape(dim, dim, dim, dim)
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
    dk = 2 ** len(r)
    return tens.transpose(axes).reshape(2 * dk, 2 * dk)


def source_weights(chan: channel.Channel, r) -> tuple[np.ndarray, np.ndarray]:
    """``(src, w)``: the distinct source tuples of receive modes ``r``, one
    per row of ``src`` (1-indexed), and their weights.

    Under permutation pi receive mode ``r_j`` reads source mode
    ``s_j = pi^{-1}(r_j)``, so ``W_s = (1 - eta) [s = r] + eta sum_{pi:
    pi^{-1}(r) = s} w_pi``.  Tuples of zero weight are dropped; the
    weights sum to 1.
    """
    ens, eta = chan.ensemble, chan.params.eta
    shape = (chan.n,) * len(r)
    r0 = np.asarray(r) - 1
    code = np.ravel_multi_index(np.argsort(np.array(ens.perms), axis=1)[:, r0].T, shape)
    home = int(np.ravel_multi_index(r0, shape))
    codes = np.array(sorted({*code.tolist(), home}))
    w = eta * np.bincount(code, weights=ens.weights, minlength=np.prod(shape))[codes]
    w[np.searchsorted(codes, home)] += 1.0 - eta
    nz = np.flatnonzero(w)
    return np.stack(np.unravel_index(codes[nz], shape), axis=1) + 1, w[nz]


def einsum_compose(encoder: cloner.ClonerChoi, chan: channel.Channel, t, r) -> np.ndarray:
    """The cascade Choi of ``decoder.compose_effective_map`` by its earlier
    route, one ``einsum`` per source pattern (the clones that the source
    tuples of :func:`source_weights` put on each receive leg) on the
    I/2-padded cloner Choi; at K < N patterns trace legs.  The spin blocks
    of the run-time route are checked against its twirl at N = 6, where
    the dense channel Choi is 4^6 square."""
    n, m = chan.n, encoder.m
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
    return out.reshape(lead + (2 * dk, 2 * dk))
