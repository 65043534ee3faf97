import math
import time
import warnings

import numpy as np
import pytest

from qumimo import channel, cloner, decoder, sdp, strategies, tensor
from qumimo.errors import NotPsdError
from qumimo.metrics import asymmetry_index
from qumimo.tensor import I2, PHI_UNNORM, SWAP2, dagger
import reference_ops
from reference_ops import (
    FullQR,
    ModeSpace,
    block_diag,
    covariant_blocks,
    covariant_operators,
    covariant_stack,
    dense_cascade,
    dense_channel_choi,
    dense_compose,
    dense_purification_stack,
    depolarizing_choi_1q,
    einsum_compose,
    full_qr,
    haar_qubit,
    lift,
    lift_decoder,
    lift_operators,
    partial_trace,
    projector,
    rank_one_certificate,
    spin_blocks,
    stack_entry,
    validate_full_decoder,
)


def identity_qr():
    enc = cloner.cloner_choi((1.0,))
    ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(0.0,), delta=1.0))
    emap = decoder.compose_effective_map(enc, ch, (1,), (1,))
    return decoder.build_qr(emap)


def random_cascade(rng, n=2):
    m = n
    gamma = tuple(rng.dirichlet(np.ones(m)))
    params = channel.ChannelParams(
        n=n, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0, 1, n)),
        delta=float(rng.uniform(0.3, 2.0)),
    )
    enc = cloner.cloner_choi(gamma)
    ch = channel.channel_choi(params)
    emap = decoder.compose_effective_map(enc, ch, tuple(range(1, m + 1)), tuple(range(1, n + 1)))
    return decoder.build_qr(emap), emap


def lift_residual(emap):
    """The largest entry of the lifted blocks of ``emap``'s cascade off its
    full ``Qt`` and ``Rt``, relative to ``max(1, largest entry)``."""
    lifted = lift_operators(decoder.build_qr(emap))
    return max(float(np.max(np.abs(x - y))) / max(1.0, float(np.max(np.abs(x))))
               for x, y in zip(reference_ops.full_operators(emap), lifted))


def lattice_channel(n, eta, lam):
    return channel.channel_choi(channel.ChannelParams(n=n, eta=eta, lam=lam, delta=1.0))


def assert_scorer_matches(m, ch, t, r, index=None):
    points, weights, _ = decoder._lattice(m)
    index = range(len(points)) if index is None else index
    scores = decoder._lattice_surrogates(weights[index], decoder._surrogate_pieces(m, ch, t, r))
    for i, score in zip(index, scores):
        assert abs(score - decoder.evaluate_gamma_surrogate(points[i], ch, t, r)) < 1e-12


class TestCompose:
    def test_identity_composition(self):
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(0.0,), delta=1.0))
        emap = decoder.compose_effective_map(enc, ch, (1,), (1,))
        assert np.max(np.abs(dense_cascade(emap) - PHI_UNNORM)) < 1e-6

    def test_single_branch_marginal(self):
        # marginal factorization oracle: mode 1 carries dep(0.4), mode 2 is noise
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.0, lam=(0.4, 0.77), delta=1.0)
        )
        emap = decoder.compose_effective_map(enc, ch, (1,), (1, 2))
        marginal = partial_trace(dense_cascade(emap), ModeSpace.qubits(range(3)), (0, 1))
        assert np.max(np.abs(marginal - depolarizing_choi_1q(0.4))) < 1e-8

    def test_transmit_mode_routing(self):
        # clone routed to mode 2 and received there sees dep(0.1)
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.0, lam=(0.9, 0.1), delta=1.0)
        )
        emap = decoder.compose_effective_map(enc, ch, (2,), (2, 1))
        marginal = partial_trace(dense_cascade(emap), ModeSpace.qubits(range(3)), (0, 1))
        assert np.max(np.abs(marginal - depolarizing_choi_1q(0.1))) < 1e-8

    def test_cptp_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            qr, emap = random_cascade(rng, n=int(rng.integers(1, 4)))
            k = emap.k
            space = ModeSpace.qubits(range(1, k + 2))
            tr_out = partial_trace(dense_cascade(emap), space, (1,))
            assert np.max(np.abs(tr_out - I2)) < 1e-8

    def test_six_modes(self):
        # No dense channel route reaches N = 6: its channel Choi is
        # 4096 x 4096, gathered once per each of 720 permutations.
        params = channel.ChannelParams(
            n=6, eta=0.8, lam=tuple(np.linspace(0.05, 0.55, 6)), delta=1.0)
        enc = cloner.cloner_choi(tuple(np.random.default_rng(15).dirichlet(np.ones(5))))
        start = time.perf_counter()
        emap = decoder.compose_effective_map(
            enc, channel.channel_choi(params), (2, 4, 6, 1, 3), (6, 1, 5, 2, 4, 3))
        assert time.perf_counter() - start < 1.0
        tr_out = partial_trace(dense_cascade(emap), ModeSpace.qubits(range(7)), (0,))
        assert np.max(np.abs(tr_out - I2)) < 1e-12
        assert covariant_operators(full_qr(emap))[1] <= 1e-12
        assert lift_residual(emap) <= 1e-14

    def test_rejects_overlap(self):
        enc = cloner.cloner_choi((0.5, 0.5))
        ch = channel.channel_choi(channel.ChannelParams(n=2, eta=0.0, lam=(0.1, 0.1), delta=1.0))
        with pytest.raises(ValueError):
            decoder.compose_effective_map(enc, ch, (1, 1), (1, 2))
        # a design checks its modes as its cascade does
        with pytest.raises(ValueError, match="transmit modes"):
            decoder.design_at((0.5, 0.5), ch, (1, 1), (1, 2))

    @pytest.mark.parametrize("r", [(1, 2), (2,), (1, 1, 2), (1, 2, 2), (1, 2, 4), (0, 1, 2)])
    def test_receive_modes_are_an_ordering_of_all_modes(self, r):
        # K < N, a repeated mode, a mode outside 1..N
        enc = cloner.cloner_choi((0.5, 0.5))
        ch = channel.channel_choi(channel.ChannelParams(n=3, eta=0.5, lam=(0.1,) * 3, delta=1.0))
        with pytest.raises(ValueError, match="ordering of all 3 modes"):
            decoder.compose_effective_map(enc, ch, (1, 2), r)
        with pytest.raises(ValueError, match="ordering of all 3 modes"):
            decoder.design_at((0.5, 0.5), ch, (1, 2), r)

    def test_one_weight_per_leg_permutation(self):
        # every ensemble permutation, and the identity at 1 - eta, reads j0
        # under its own leg permutation: K! nonnegative weights summing to 1
        rng = np.random.default_rng(16)
        for n in (1, 2, 3, 4):
            for eta in (0.0, 0.4, 1.0):
                ch = channel.channel_choi(channel.ChannelParams(
                    n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)), delta=0.8))
                gamma = (1.0,) if n == 1 else (0.3, 0.7)
                t = tuple(int(x) + 1 for x in rng.permutation(n)[:len(gamma)])
                r = tuple(int(x) + 1 for x in rng.permutation(n))
                w = decoder.compose_effective_map(cloner.cloner_choi(gamma), ch, t, r).weights
                assert w.shape == (len(ch.ensemble.perms),) and w.min() >= 0.0
                assert abs(w.sum() - 1.0) < 1e-12
                assert np.count_nonzero(w) == (1 if eta == 0.0 else len(w))


class TestBuildQR:
    def test_identity_values(self):
        qt, rt = lift_operators(identity_qr())
        assert np.max(np.abs(qt - (np.eye(4) + PHI_UNNORM) / 6.0)) < 1e-7
        assert np.max(np.abs(rt - np.eye(4) / 2.0)) < 1e-7
        # transpose-convention regression: max eigenvalue 1/2, ratio 1
        assert abs(np.linalg.eigvalsh(qt)[-1] - 0.5) < 1e-7

    def test_traces(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            qr, _ = random_cascade(rng, n=int(rng.integers(1, 4)))
            assert abs(np.trace(qr.qt).real - 1.0) < 1e-8
            assert abs(np.trace(qr.rt).real - 2.0) < 1e-8
            assert np.linalg.eigvalsh(qr.rt)[0] > -1e-9

    def test_fully_depolarizing(self):
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(1.0,), delta=1.0))
        qr = decoder.build_qr(decoder.compose_effective_map(enc, ch, (1,), (1,)))
        assert abs(decoder.rayleigh_bound(qr) - 0.5) < 1e-9

    def test_monte_carlo_agreement(self):
        # 1e4-sample Haar estimate of the averaged operator, 3 standard
        # errors per entry (real and imaginary parts separately)
        rng = np.random.default_rng(2)
        qr, emap = random_cascade(rng, n=2)
        dk = 2 ** emap.k
        j4 = dense_cascade(emap).reshape(2, dk, 2, dk)
        n_samp = 10_000
        terms = np.empty((n_samp, 2 * dk, 2 * dk), dtype=complex)
        for s in range(n_samp):
            psi = haar_qubit(rng)
            rho = projector(psi)
            lam_out = np.einsum("iokp,ik->op", j4, rho)
            terms[s] = np.kron(lam_out.T, rho)
        mean = terms.mean(axis=0)
        se = terms.std(axis=0) / np.sqrt(n_samp)
        diff = np.abs(mean - lift_operators(qr)[0])
        assert np.all(diff <= 3.0 * np.abs(se) + 3e-4)


def stacked_cascade(chois, m, ch, t, r):
    enc = cloner.ClonerChoi(choi=chois, m=m, fidelities=())
    return decoder.build_qr(decoder.compose_effective_map(enc, ch, t, r))


def piece_chois(m):
    basis = cloner._stinespring_basis(m)
    out = []
    for k, l in zip(*np.triu_indices(m)):
        outer = basis[k] @ basis[l].T
        out.append((outer + outer.T) / (2 * m))
    return np.array(out)


class TestStackedCascade:
    """``compose_effective_map`` and ``build_qr`` on a stack of Choi
    operators: each entry's cascade bit for bit what the single call
    gives, whatever else is in the stack and wherever it sits."""

    @pytest.mark.parametrize("n, m, k", [(1, 1, 1), (2, 2, 2), (2, 1, 2), (3, 3, 3), (3, 2, 1),
                                         (4, 4, 4), (4, 3, 2), (5, 5, 5), (5, 4, 3)])
    @pytest.mark.parametrize("eta", [0.0, 0.6])
    def test_batch_invariance(self, n, m, k, eta):
        rng = np.random.default_rng(100 * n + 10 * k + int(10 * eta))
        ch = channel.channel_choi(channel.ChannelParams(
            n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)), delta=float(rng.uniform(0.3, 2.0))))
        t = tuple(int(x) + 1 for x in rng.permutation(n)[:m])
        r = tuple(int(x) + 1 for x in rng.permutation(n)[:k])
        # the surrogate pieces, and two cloners
        chois = np.concatenate([piece_chois(m), [
            cloner.cloner_choi(tuple(rng.dirichlet(np.ones(m)))).choi for _ in range(2)]])
        if k < n:
            # a stack, like one cascade, is refused fewer than all N
            # receive modes; the rest runs on an ordering of all N
            with pytest.raises(ValueError, match="ordering of all"):
                stacked_cascade(chois, m, ch, t, r)
            r += tuple(x for x in range(1, n + 1) if x not in r)
        alone = [decoder.build_qr(decoder.compose_effective_map(
            cloner.ClonerChoi(choi=c, m=m, fidelities=()), ch, t, r)) for c in chois]
        count = len(chois)
        orders = [list(range(count)), list(range(count))[::-1], [count - 1, 0, 0], [1 % count]]
        for order in orders:
            qr = stacked_cascade(chois[order], m, ch, t, r)
            assert qr.qt.shape[0] == len(order) and qr.k == n
            for row, i in enumerate(order):
                assert np.array_equal(qr.qt[row], alone[i].qt)
                assert np.array_equal(qr.rt[row], alone[i].rt)
        # a stack of one is the single call
        one = stacked_cascade(chois[:1], m, ch, t, r)
        assert one.qt.shape == (1,) + alone[0].qt.shape
        assert np.array_equal(one.qt[0], alone[0].qt) and np.array_equal(one.rt[0], alone[0].rt)
        # the stacked blocks are the full-space route's reduction
        emap = decoder.compose_effective_map(
            cloner.ClonerChoi(choi=chois, m=m, fidelities=()), ch, t, r)
        (c, rr), resid = covariant_operators(full_qr(emap))
        qr = decoder.build_qr(emap)
        assert relative_gap((qr.qt, qr.rt), (c, rr)) <= 1e-14 and resid <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_surrogate_pieces_are_the_per_piece_cascades(self, m):
        # to 1e-14 the single cascades of the pieces (the corner table's
        # contraction against compose_effective_map and build_qr), and
        # their full-space route
        ch = lattice_channel(m, 0.5, tuple(np.linspace(0.1, 0.7, m)))
        t, r = strategies.select_modes(ch, m)
        maps = [decoder.compose_effective_map(
            cloner.ClonerChoi(choi=c, m=m, fidelities=()), ch, t, r) for c in piece_chois(m)]
        alone = [decoder.build_qr(emap) for emap in maps]
        want = decoder._per_spin(decoder.QROperators(
            qt=np.array([qr.qt for qr in alone]), rt=np.array([qr.rt for qr in alone]), k=len(r)))
        full = [full_qr(emap) for emap in maps]
        full_want = spin_blocks(FullQR(
            qt=np.array([qr.qt for qr in full]), rt=np.array([qr.rt for qr in full]), k=len(r)))
        got = decoder._surrogate_pieces(m, ch, t, r)
        assert len(got) == len(want) == len(full_want)
        for (q, rr), (q_want, r_want), pair in zip(got, want, full_want):
            assert relative_gap((q, rr), (q_want, r_want)) <= 1e-14
            assert relative_gap((q, rr), pair) <= 1e-14


def pattern_route_blocks(chois: np.ndarray, k: int) -> tuple:
    """The reduced ``Qt`` and ``Rt`` of cascade Chois on 1 + K qubits by the
    earlier route: the full twirl, then ``_reduce``, mask and symmetrize
    (``reference_ops.covariant_operators``)."""
    return covariant_operators(FullQR(*decoder._twirl(chois, k), k=k))[0]


def relative_gap(got, want) -> float:
    """The largest entry of ``got - want`` over pairs of arrays, relative to
    the largest entry of ``want``."""
    return max(float(np.max(np.abs(x - y))) / float(np.max(np.abs(y))) for x, y in zip(got, want))


class TestSpinCascade:
    """The spin blocks of one padded cloner under the leg permutations of
    the channel (``build_qr`` of ``compose_effective_map``) against the
    earlier route: the cascade Choi by the dense channel (``dense_compose``)
    or one ``einsum`` per source pattern (``einsum_compose``), twirled,
    reduced, masked and symmetrized."""

    @staticmethod
    def random_channel(n, eta, rng):
        return channel.ChannelParams(
            n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)), delta=float(rng.uniform(0.3, 2.0)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_lossless_against_pattern_route(self, n, eta):
        # random transmit modes and receive orderings, one cloner and the
        # gamma search's pieces
        rng = np.random.default_rng(10 * n + int(10 * eta))
        params = self.random_channel(n, eta, rng)
        ch, dense = channel.channel_choi(params), dense_channel_choi(params)
        for m in sorted({1, n}):
            t = tuple(int(x) + 1 for x in rng.permutation(n)[:m])
            r = tuple(int(x) + 1 for x in rng.permutation(n))
            for chois in (cloner.cloner_choi(tuple(rng.dirichlet(np.ones(m)))).choi[None],
                          piece_chois(m)):
                enc = cloner.ClonerChoi(choi=chois, m=m, fidelities=())
                qr = decoder.build_qr(decoder.compose_effective_map(enc, ch, t, r))
                want = np.array([dense_compose(cloner.ClonerChoi(choi=c, m=m, fidelities=()),
                                               dense, n, t, r) for c in chois]).real
                assert relative_gap((qr.qt, qr.rt), pattern_route_blocks(want, n)) <= 1e-14

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_lossless_at_six_modes(self, eta):
        # N = 6, M = 5: the pieces and one cloner, against the pattern oracle
        rng = np.random.default_rng(66 + int(10 * eta))
        ch = channel.channel_choi(self.random_channel(6, eta, rng))
        t = tuple(int(x) + 1 for x in rng.permutation(6)[:5])
        r = tuple(int(x) + 1 for x in rng.permutation(6))
        gamma = tuple(rng.dirichlet(np.ones(5)))
        chois = np.concatenate([piece_chois(5), [cloner.cloner_choi(gamma).choi]])
        enc = cloner.ClonerChoi(choi=chois, m=5, fidelities=())
        emap = decoder.compose_effective_map(enc, ch, t, r)
        want = einsum_compose(enc, ch, t, r)
        assert np.max(np.abs(dense_cascade(emap) - want)) <= 1e-15
        qr = decoder.build_qr(emap)
        assert relative_gap((qr.qt, qr.rt), pattern_route_blocks(want, 6)) <= 1e-14

    def test_leg_table_acts_on_the_spin_blocks(self):
        # D_j(s) is orthogonal, and the identity is the first row
        for k in (1, 2, 3, 4):
            codes, blocks = decoder._leg_table(k)
            legs = reference_ops.leg_maps(k)
            assert len(codes) == len(legs) == math.factorial(k)
            assert np.array_equal(legs[0], np.arange(2 ** (k + 1)))
            for at, a in blocks:
                d = at.stop - at.start
                ds = a.reshape(-1, d, d)
                assert np.max(np.abs(ds @ ds.swapaxes(1, 2) - np.eye(d))) < 1e-14
                assert np.max(np.abs(ds[0] - np.eye(d))) < 1e-14


class TestGatherPlan:
    def test_cached_tables_are_read_only(self):
        # the tables the cascade gathers through: the per-K leg table with
        # its spin-block D_j(s), the cloner's isotropy tables, and the
        # corner table every design contracts
        for k in (1, 3, 4):
            codes, blocks = decoder._leg_table(k)
            tables = [codes, *(a for _, a in blocks), *cloner._isotropy_tables(k),
                      decoder._corner_table(min(k, 2), k)]
            for table in tables:
                with pytest.raises(ValueError, match="read-only"):
                    table.flat[0] = 0


class TestPurificationSdp:
    def test_identity_p1(self):
        qr = identity_qr()
        sol = decoder.purification_sdp(qr, 1.0)
        assert abs(sol.f_avg - 1.0) < 1e-6
        assert np.max(np.abs(lift_decoder(sol.j, 1) - PHI_UNNORM)) < 1e-4

    def test_depolarizing_p1(self):
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(0.4,), delta=1.0))
        qr = decoder.build_qr(decoder.compose_effective_map(enc, ch, (1,), (1,)))
        sol = decoder.purification_sdp(qr, 1.0)
        assert abs(sol.f_avg - 0.8) < 1e-6

    def test_depolarizing_beats_all_unitary_decoders(self):
        # brute-force oracle: no unitary decoder does better than leaving
        # the depolarized qubit alone
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(0.4,), delta=1.0))
        qr = decoder.build_qr(decoder.compose_effective_map(enc, ch, (1,), (1,)))
        rng = np.random.default_rng(3)
        best = -np.inf
        for _ in range(200):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(z)
            # Choi of rho -> U rho U^dag: J = sum_ij |i><j| (x) U|i><j|U^dag
            blocks = []
            for i in range(2):
                row = []
                for j in range(2):
                    unit = np.zeros((2, 2), dtype=complex)
                    unit[i, j] = 1.0
                    row.append(u @ unit @ dagger(u))
                blocks.append(row)
            j_u = np.block(blocks)
            best = max(best, float(np.real(np.trace(j_u @ lift_operators(qr)[0]))))
        sol = decoder.purification_sdp(qr, 1.0)
        assert sol.f_avg >= best - 1e-9

    def test_success_probability_nesting(self):
        rng = np.random.default_rng(4)
        qr, _ = random_cascade(rng, n=2)
        f999 = decoder.purification_sdp(qr, 0.999).f_success
        f1 = decoder.purification_sdp(qr, 1.0).f_success
        assert f999 >= f1 - 1e-7

    def test_monotone_in_p(self):
        rng = np.random.default_rng(5)
        qr, _ = random_cascade(rng, n=2)
        values = [decoder.purification_sdp(qr, p).f_success for p in (0.2, 0.5, 0.8, 1.0)]
        for a, b in zip(values, values[1:]):
            assert a >= b - 1e-7

    def test_constraint_satisfaction(self):
        rng = np.random.default_rng(6)
        qr, _ = random_cascade(rng, n=2)
        sol = decoder.purification_sdp(qr, 0.7)
        j = lift_decoder(sol.j, qr.k)
        qt, rt = lift_operators(qr)
        da = qt.shape[0] // 2
        assert abs(np.real(np.trace(j @ rt)) - 0.7) < 1e-7
        assert abs(np.real(np.trace(j @ qt)) - 0.7 * sol.f_success) < 1e-10
        tr_b = np.trace(j.reshape(da, 2, da, 2), axis1=1, axis2=3)
        assert np.linalg.eigvalsh((tr_b + dagger(tr_b)) / 2)[-1] <= 1 + 1e-7
        assert np.linalg.eigvalsh(j)[0] >= -1e-8
        assert abs(sol.f_avg - (0.7 * sol.f_success + 0.3 / 2)) < 1e-10

    def test_rejects_bad_p(self):
        qr = identity_qr()
        with pytest.raises(ValueError):
            decoder.purification_sdp(qr, 0.0)
        with pytest.raises(ValueError):
            decoder.purification_sdp(qr, 1.2)


def symmetric_coords(g):
    """Coefficients of a real symmetric ``g`` in ``decoder._symmetric_basis``
    order: the diagonal, then ``g_kl`` for each k < l."""
    return np.concatenate([np.diag(g), g[np.triu_indices(len(g), 1)]])


def row_image(w, e):
    """``e`` lifted to the full space, and ``2j + 1`` of the block it sits in."""
    g = lift(w, e)
    return g, float(np.trace(g @ g) / np.trace(e @ e))


def apply_rows(constraints, blocks):
    """``A(X)`` of one problem's ``constraints`` on ``blocks``, as the solver
    reads it on the merged block-diagonal stack (a stack of one problem)."""
    a_flat = block_diag(constraints).reshape(1, len(constraints[0]), -1)
    return sdp._a_apply(a_flat, block_diag(blocks)[None])[0]


def adjoint_blocks(constraints, y):
    """``A*(y)`` of one problem's ``constraints``, cut into its blocks."""
    merged = np.tensordot(y, block_diag(constraints), axes=1)
    edges = np.cumsum([0] + [a.shape[-1] for a in constraints])
    return [merged[lo:hi, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def random_reduced(rng, paths):
    """A random real symmetric matrix on the spin blocks of a frame's paths."""
    spin = np.array([path[-1] for path in paths])
    x = rng.standard_normal((len(spin),) * 2)
    return (x + x.T) * (spin[:, None] == spin[None, :])


class TestPartialTraceOperator:
    """The decoder SDP's constraint operator, ``Tr_B J + S`` and
    ``Tr[Rt J]``, as the covariant route reads it on the Schur-Weyl
    blocks, against the dense stacks of the same problem on the full
    space; and the covariant route's decoders against the dense route's."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.6, 1.0])
    def test_matches_dense_operator(self, k, p):
        # row i of the reduced A(X) is Tr[lift(E_i) (Tr_B J + S)] / (2j + 1)
        # on the lifted blocks, read off the dense route's unit rows
        # (lift(E_i) is real symmetric); the objective and the Rt row agree too
        rng = np.random.default_rng(10 + k)
        qr, _ = random_cascade(rng, n=k)
        (w_j, paths_j), (w_s, paths_s) = decoder._frame(k + 1, k), decoder._frame(k, k)
        units = decoder._covariant_rows(k)[0][1]
        reduced = stack_entry(covariant_stack([qr], p), 0)
        dense = stack_entry(dense_purification_stack([qr], p), 0)
        x_red = [random_reduced(rng, paths_j), random_reduced(rng, paths_s)]
        x_full = [lift(w_j, x_red[0]), lift(w_s, x_red[1])]
        nb = len(reduced[0])
        got = apply_rows(reduced[1], x_red[:nb])
        want = apply_rows(dense[1], x_full[:nb])
        nh = 2 ** k * (2 ** k + 1) // 2
        for i, e in enumerate(units):
            g, d = row_image(w_s, e)
            assert abs(got[i] - want[:nh] @ symmetric_coords(g) / d) < 1e-11
        assert len(got) == len(units) + (p < 1.0)
        if p < 1.0:
            assert abs(got[-1] - want[-1]) < 1e-11
        assert abs(np.vdot(reduced[0][0], x_red[0]) - np.vdot(dense[0][0], x_full[0])) < 1e-11

    @pytest.mark.parametrize("p", [0.6, 1.0])
    def test_adjoint(self, p):
        # the reduced A*(y) is the reduction of the dense A* at the
        # full-space image of y, block by block
        rng = np.random.default_rng(20)
        for k in (1, 2, 3):
            qr, _ = random_cascade(rng, n=k)
            w_j, w_s = decoder._frame(k + 1, k)[0], decoder._frame(k, k)[0]
            units = decoder._covariant_rows(k)[0][1]
            reduced = stack_entry(covariant_stack([qr], p), 0)
            dense = stack_entry(dense_purification_stack([qr], p), 0)
            for _ in range(3):
                y = rng.standard_normal(len(reduced[2]))
                y_full = np.zeros(len(dense[2]))
                nh = 2 ** k * (2 ** k + 1) // 2
                for yi, e in zip(y, units):
                    g, d = row_image(w_s, e)
                    y_full[:nh] += yi * symmetric_coords(g) / d
                if p < 1.0:
                    y_full[-1] = y[-1]
                got = adjoint_blocks(reduced[1], y)
                want = adjoint_blocks(dense[1], y_full)
                for w, a, b in zip((w_j, w_s), got, want):
                    assert np.max(np.abs(a - decoder._reduce(w, b))) < 1e-12

    def test_matches_dense_route_on_criterion4_sweep(self):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(50):
            qr, _ = random_cascade(rng, n=int(rng.integers(1, 3)))
            for p in (0.2, 0.5, 0.8, 1.0):
                dec = decoder.purification_sdp(qr, p)
                ref = sdp.solve_many(*dense_purification_stack([qr], p))[0]
                worst = max(worst, abs(dec.f_success * p - ref.value))
        assert worst < 1e-7

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
    def test_matches_dense_route_k3(self, p):
        rng = np.random.default_rng(33)
        qr, _ = random_cascade(rng, n=3)
        dec = decoder.purification_sdp(qr, p)
        ref = sdp.solve_many(*dense_purification_stack([qr], p))[0]
        assert abs(dec.f_success * p - ref.value) < 1e-7

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
    def test_matches_dense_route_k4(self, p):
        rng = np.random.default_rng(44)
        qr, _ = random_cascade(rng, n=4)
        dec = decoder.purification_sdp(qr, p)
        ref = sdp.solve_many(*dense_purification_stack([qr], p))[0]
        assert abs(dec.f_success * p - ref.value) < 1e-7

    @pytest.mark.parametrize("p, value", [(0.8, 0.5822981591901222), (1.0, 0.7237125498041763)])
    def test_dense_route_reaches_complex_optimum_k3(self, p, value):
        # the optimum over complex Hermitian J of test_matches_dense_route_k3's
        # cascade, from the earlier dense route on all 65 Hermitian units:
        # keeping only the real symmetric units loses nothing
        qr, _ = random_cascade(np.random.default_rng(33), n=3)
        assert abs(sdp.solve_many(*dense_purification_stack([qr], p))[0].value - value) < 1e-9

    def test_every_solve_is_validated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decoder, "_validate_decoder", lambda *a: calls.append(a))
        qr, _ = random_cascade(np.random.default_rng(8), n=2)
        for p in (0.5, 1.0):
            decoder.purification_sdp(qr, p)
        assert [c[2] for c in calls] == [0.5, 1.0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rejects_non_covariant(self, k):
        # a generic symmetric perturbation of 1e-6 leaves the commutant:
        # the blocks cannot carry it, and the lifted blocks' residual (the
        # lossless sweep's measure) shows it
        rng = np.random.default_rng(50 + k)
        _, emap = random_cascade(rng, n=k)
        assert lift_residual(emap) < 1e-14
        a = rng.standard_normal((2 ** (k + 1),) * 2)
        bend = 1e-6 * (a + a.T) / 2
        full = reference_ops.full_operators

        def bent(emap):
            qt, rt = full(emap)
            return qt + bend, rt

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reference_ops, "full_operators", bent)
            assert lift_residual(emap) > 1e-7
            with pytest.raises(ValueError, match="SU\\(2\\) commutant"):
                covariant_blocks(full_qr(emap))

    def test_k5_decoder(self):
        # K = 5: real blocks 20 + 10 wide, 27 constraints; the lifted J
        # passes the full-space check and stays under the Rayleigh surrogate
        rng = np.random.default_rng(55)
        qr, _ = random_cascade(rng, n=5)
        ray = decoder.rayleigh_bound(qr)
        objective, _, rhs = stack_entry(covariant_stack([qr], 0.8), 0)
        assert [len(c) for c in objective] == [20, 10] and len(rhs) == 27
        for p in (0.8, 1.0):
            dec = decoder.purification_sdp(qr, p)
            assert dec.j.shape == (20, 20)
            validate_full_decoder(lift_decoder(dec.j, 5), lift_operators(qr)[1], p)
            assert dec.f_success <= ray + 1e-7


class TestRealData:
    """The cascade, its frame and the reduced decoder data are real; the
    covariant route refuses reduced data with an imaginary part."""

    def test_flip_maps_conjugate_to_u(self):
        # FLIP conj(U) FLIP^T = U on SU(2): the real frame's flipped legs
        rng = np.random.default_rng(80)
        for _ in range(20):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u = np.array([[a, b], [-np.conj(b), np.conj(a)]]) / np.hypot(abs(a), abs(b))
            assert np.max(np.abs(decoder.FLIP @ u.conj() @ decoder.FLIP.T - u)) < 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_reduced_operators_real(self, k, eta):
        rng = np.random.default_rng(60 + k)
        params = channel.ChannelParams(n=k, eta=eta, lam=tuple(rng.uniform(0, 1, k)), delta=1.0)
        enc = cloner.cloner_choi(tuple(rng.dirichlet(np.ones(k))))
        modes = tuple(range(1, k + 1))
        emap = decoder.compose_effective_map(enc, channel.channel_choi(params), modes, modes)
        qr = decoder.build_qr(emap)
        full = full_qr(emap)
        assert covariant_operators(full)[1] < 1e-12
        # real dtype: the imaginary part is exactly 0, not small
        for x in (full.qt, full.rt, qr.qt, qr.rt, decoder.purification_sdp(qr, 0.8).j):
            assert not np.iscomplexobj(x)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rejects_imaginary_part_on_commutant(self, k):
        # i A, A real antisymmetric inside one spin block, lifted: a
        # Hermitian imaginary part, which the real units of the decoder SDP
        # cannot see, so the SDP of a cascade that carries one is refused
        rng = np.random.default_rng(70 + k)
        _, emap = random_cascade(rng, n=k)
        w, paths = decoder._frame(k + 1, k)
        spin = np.array([path[-1] for path in paths])
        a, b = np.flatnonzero(spin == np.flatnonzero(np.bincount(spin) >= 2)[0])[:2]
        anti = np.zeros((len(spin),) * 2)
        anti[a, b], anti[b, a] = 1.0, -1.0
        bent = decoder.EffectiveMap(j0=emap.j0 + 1e-6 * lift(w, 1j * anti),
                                    weights=emap.weights, k=k)
        qr = decoder.build_qr(bent)
        assert np.iscomplexobj(qr.qt)
        with pytest.raises(TypeError, match="data complex"):
            decoder.purification_sdp(qr, 0.8)


def sweep():
    """The seeded channels of the block-route sweep: N = 1..5, M in {1, N},
    eta in {0, 0.3, 0.8, 1}, every mode received (K = N), as at run time."""
    rng = np.random.default_rng(2600)
    for n in range(1, 6):
        for m in sorted({1, n}):
            for eta in (0.0, 0.3, 0.8, 1.0):
                ch = channel.channel_choi(channel.ChannelParams(
                    n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)),
                    delta=float(rng.uniform(0.3, 2.0))))
                t = tuple(int(x) + 1 for x in rng.permutation(n)[:m])
                yield m, ch, t, tuple(range(1, n + 1)), tuple(rng.dirichlet(np.ones(m)))


class TestBlockRoute:
    """``build_qr`` returns spin blocks only: they are the earlier full-space
    route's reduction to 1e-14 (``reference_ops.covariant_operators`` and
    ``spin_blocks``), the stacked pieces are each piece's own cascade to
    1e-14, and they lose nothing (lifted, they are the full operators),
    which is where the earlier per-solve commutant check went."""

    def test_bitwise_and_lossless_on_sweep(self):
        count = 0
        for m, ch, t, r, gamma in sweep():
            emap = decoder.compose_effective_map(cloner.cloner_choi(gamma), ch, t, r)
            qr = decoder.build_qr(emap)
            assert relative_gap((qr.qt, qr.rt), covariant_blocks(full_qr(emap))) <= 1e-14
            assert lift_residual(emap) <= 1e-14
            pieces = cloner.ClonerChoi(choi=piece_chois(m), m=m, fidelities=())
            piece_map = decoder.compose_effective_map(pieces, ch, t, r)
            got = decoder._surrogate_pieces(m, ch, t, r)
            alone = [decoder.build_qr(decoder.compose_effective_map(
                cloner.ClonerChoi(choi=c, m=m, fidelities=()), ch, t, r)) for c in piece_chois(m)]
            bits = decoder._per_spin(decoder.QROperators(
                qt=np.array([x.qt for x in alone]), rt=np.array([x.rt for x in alone]), k=len(r)))
            want = spin_blocks(full_qr(piece_map))
            assert len(got) == len(bits) == len(want)
            for pair, pair_bits, pair_want in zip(got, bits, want):
                assert relative_gap(pair, pair_bits) <= 1e-14
                assert relative_gap(pair, pair_want) <= 1e-14
            assert lift_residual(piece_map) <= 1e-14
            count += 1
        assert count == 36

    def test_block_check_is_the_full_space_check(self):
        # _validate_decoder on the blocks accepts and refuses what the
        # full-space check of the lifted decoder does, for the same reason
        rng = np.random.default_rng(2601)
        for k in (1, 2, 3, 4):
            qr, _ = random_cascade(rng, n=k)
            rt = lift_operators(qr)[1]
            for p in (0.6, 1.0):
                x = decoder.purification_sdp(qr, p).j
                j = lift_decoder(x, k)
                da = len(j) // 2
                top = np.linalg.eigvalsh(np.trace(j.reshape(da, 2, da, 2), axis1=1, axis2=3))[-1]
                over = x * (1 + 1e-6) / top
                cases = [(x, p, None), (x, p + 1e-6, "acceptance"),
                         (over, float(np.vdot(over, qr.rt)), "Tr_B J <= I"),
                         (x - 1e-6 * np.eye(len(x)), p, "eigenvalue floor")]
                for y, p_check, match in cases:
                    if match is None:
                        decoder._validate_decoder(y, qr, p_check)
                        validate_full_decoder(lift_decoder(y, k), rt, p_check)
                        continue
                    with pytest.raises(ValueError, match=match):
                        decoder._validate_decoder(y, qr, p_check)
                    with pytest.raises(ValueError, match=match):
                        validate_full_decoder(lift_decoder(y, k), rt, p_check)

    def test_nan_decoder_is_refused(self):
        # NaN fails every comparison: each check is written so that it fails
        qr, _ = random_cascade(np.random.default_rng(2602), n=1)
        with pytest.raises(ValueError, match="eigenvalue floor"):
            decoder._validate_decoder(np.full((2, 2), np.nan), qr, 0.8)

    def test_rayleigh_bound_is_the_full_space_bound(self):
        # the padded stack of blocks against the top eigenvalue of
        # Rt^{-1/2} Qt Rt^{-1/2} on the lifted operators
        rng = np.random.default_rng(2602)
        for k in (1, 2, 3, 4, 5):
            qr, _ = random_cascade(rng, n=k)
            qt, rt = lift_operators(qr)
            want = decoder._rayleigh_tops(qt[None], rt[None])[0][0]
            assert abs(decoder.rayleigh_bound(qr) - want) < 1e-12


def test_cached_arrays_are_read_only():
    arrays = [cloner._stinespring_basis(3), decoder._frame(3, 2)[0], *decoder._covariant_rows(2)[0],
              decoder._covariant_rows(2)[1], decoder._symmetric_basis(4), *decoder._lattice(3)[1:],
              tensor.schur_weyl_basis(3)[0], decoder._spin_dims(3), *decoder._pairs(3)]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 0
    assert type(decoder._lattice(3)[0]) is tuple


class TestRayleigh:
    def test_identity_value(self):
        # 1e-7 covers the SDP-built encoder's certificate slop
        assert abs(decoder.rayleigh_bound(identity_qr()) - 1.0) < 1e-7

    def test_proportional_operators(self):
        qr = identity_qr()
        prop = decoder.QROperators(qt=qr.rt / 2.0, rt=qr.rt, k=qr.k)
        assert abs(decoder.rayleigh_bound(prop) - 0.5) < 1e-10

    def test_dominates_sdp(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            qr, _ = random_cascade(rng, n=2)
            ray = decoder.rayleigh_bound(qr)
            for p in (0.2, 0.5, 0.8, 1.0):
                assert ray >= decoder.purification_sdp(qr, p).f_success - 1e-6


class TestRankOneCertificate:
    def test_identity(self):
        qr = identity_qr()
        j_ray = rank_one_certificate(qr, 1.0)
        assert np.max(np.abs(j_ray - PHI_UNNORM)) < 1e-8

    def test_budget_and_value(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            qr, _ = random_cascade(rng, n=2)
            p = float(rng.uniform(0.2, 1.0))
            j_ray = rank_one_certificate(qr, p)
            ray = decoder.rayleigh_bound(qr)
            qt, rt = lift_operators(qr)
            assert np.linalg.eigvalsh(j_ray)[0] >= -1e-12
            assert abs(np.real(np.trace(j_ray @ rt)) - p) < 1e-9
            assert abs(np.real(np.trace(j_ray @ qt)) / p - ray) < 1e-9


class TestOptimizeGamma:
    def test_identity_channel_attains_one(self):
        # On a noiseless channel the spectral surrogate saturates at 1;
        # the vertices attain it (analytically F(e_k) = 1) and the
        # tie-broken result is deterministic.  The surrogate also equals
        # 1 for generic asymmetric points (vanishing-acceptance filters
        # recover the input exactly whenever beta_1 != beta_2), so the
        # winning gamma is whatever the documented tie-break selects.
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.0, lam=(0.0, 0.0), delta=1.0)
        )
        opt = decoder.optimize_gamma(2, ch, (1, 2), (1, 2))
        assert abs(opt.surrogate - 1.0) < 1e-6
        for vertex in ((1.0, 0.0), (0.0, 1.0)):
            assert abs(decoder.evaluate_gamma_surrogate(vertex, ch, (1, 2), (1, 2)) - 1.0) < 1e-6
        # deterministic result
        b = decoder.optimize_gamma(2, ch, (1, 2), (1, 2)).gamma
        assert opt.gamma == b

    def test_design_at_is_the_one_constructor(self):
        # the search returns design_at(gamma*) with its surrogate; a point's
        # surrogate is rayleigh_bound of design_at's cascade, bit for bit,
        # and its cloner carries the clone fidelities
        ch = channel.channel_choi(
            channel.ChannelParams(n=3, eta=0.6, lam=(0.1, 0.3, 0.6), delta=1.0))
        t, r = (1, 2, 3), (1, 2, 3)
        opt = decoder.optimize_gamma(3, ch, t, r)
        at = decoder.design_at(opt.gamma, ch, t, r)
        assert (at.gamma, at.t, at.r, at.surrogate) == (opt.gamma, t, r, None)
        assert np.array_equal(at.qr.qt, opt.qr.qt) and np.array_equal(at.qr.rt, opt.qr.rt)
        assert opt.surrogate == decoder.rayleigh_bound(opt.qr)
        rng = np.random.default_rng(5)
        for g in [tuple(rng.dirichlet(np.ones(3))) for _ in range(4)] + [(1.0, 0.0, 0.0)]:
            design = decoder.design_at(g, ch, t, r)
            assert decoder.evaluate_gamma_surrogate(g, ch, t, r) == decoder.rayleigh_bound(
                design.qr)
            assert design.enc.fidelities == cloner.clone_fidelities(g).fidelities
            assert type(design.gamma) is tuple and design.gamma == tuple(g)

    def test_symmetric_channel_prefers_uniform_tie(self):
        # strongly mixed symmetric three-branch channel: the surrogate
        # tops out at the uniform point and the tie-break keeps it
        ch = channel.channel_choi(
            channel.ChannelParams(n=3, eta=0.8, lam=(0.8, 0.8, 0.8), delta=1.0)
        )
        opt = decoder.optimize_gamma(3, ch, (1, 2, 3), (1, 2, 3))
        assert np.allclose(opt.gamma, (1 / 3, 1 / 3, 1 / 3))

    def test_returns_cascade_at_optimum(self):
        # the design carries the cascade operators at gamma* (to 1e-14 the
        # cascade of its cloner), from which the surrogate is read and
        # every per-p decoder is solved
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.4, lam=(0.5, 0.2), delta=1.0)
        )
        opt = decoder.optimize_gamma(2, ch, (2, 1), (1, 2))
        enc = cloner.cloner_choi(opt.gamma)
        want = decoder.build_qr(decoder.compose_effective_map(enc, ch, (2, 1), (1, 2)))
        assert relative_gap((opt.qr.qt, opt.qr.rt), (want.qt, want.rt)) <= 1e-14
        assert decoder.rayleigh_bound(opt.qr) == opt.surrogate

    def test_argmax_invariant_in_p(self):
        # surrogate ignores p: one search serves every p, so the records
        # of one channel carry one gamma
        params = channel.ChannelParams(n=2, eta=0.4, lam=(0.5, 0.2), delta=1.0)
        recs = strategies.run_strategy("div", channel.channel_choi(params), (0.5, 0.9))
        assert [r.p_target for r in recs] == [0.5, 0.9]
        assert recs[0].gamma == recs[1].gamma
        assert recs[0].surrogate == recs[1].surrogate

    def test_lattice_argmax_n4(self):
        # the M = 4 search starts its polish from the point the per-point
        # cascade scores best on the lattice under the documented tie rule
        lam = (0.15, 0.35, 0.5, 0.7)
        ch = lattice_channel(4, 0.6, lam)
        t, r = strategies.select_modes(ch, 4)
        points = decoder._lattice(4)[0]
        vals = [decoder.evaluate_gamma_surrogate(g, ch, t, r) for g in points]
        ties = [g for g, v in zip(points, vals) if v >= max(vals) - decoder.SURROGATE_TIE_TOL]
        start = min(ties, key=lambda g: (-asymmetry_index(cloner.clone_fidelities(g).fidelities), g))
        opt = decoder.optimize_gamma(4, ch, t, r)
        assert opt.gamma == decoder._polish(start, decoder._surrogate_pieces(4, ch, t, r))
        assert opt.surrogate >= max(vals) - 1e-12
        again = decoder.optimize_gamma(4, ch, t, r)
        assert again.gamma == opt.gamma and again.surrogate == opt.surrogate
        assert np.array_equal(again.qr.qt, opt.qr.qt) and np.array_equal(again.qr.rt, opt.qr.rt)

    def test_polish_reaches_off_lattice_optimum(self):
        # the optimum lies on an edge between lattice points: the best
        # lattice point (0.85, 0.15, 0, 0) is 1.7e-4 below a continuous
        # search's (0.8232, 0.1768, 0, 0)
        lam = (0.38487011085303435, 0.015129889146965558, 1.0, 1.0)
        ch = lattice_channel(4, 0.8, lam)
        t, r = strategies.select_modes(ch, 4)
        opt = decoder.optimize_gamma(4, ch, t, r)
        ref = decoder.evaluate_gamma_surrogate((0.8232, 0.1768, 0.0, 0.0), ch, t, r)
        lattice = decoder.evaluate_gamma_surrogate((0.85, 0.15, 0.0, 0.0), ch, t, r)
        assert lattice < ref - 1e-4
        assert opt.surrogate >= ref - 1e-6

    def test_symmetric_crosstalk_n4_dominates_vertices_and_uniform(self):
        ch = lattice_channel(4, 0.5, (0.6,) * 4)
        modes = (1, 2, 3, 4)
        opt = decoder.optimize_gamma(4, ch, modes, modes)
        for g in [tuple(np.eye(4)[k]) for k in range(4)] + [(0.25,) * 4]:
            ref = decoder.evaluate_gamma_surrogate(g, ch, modes, modes)
            assert opt.surrogate >= ref - decoder.SURROGATE_TIE_TOL

    def test_polish_ties_survive_rounding(self, monkeypatch):
        # on an equal-lambda N = 4 channel the polish meets mirror-image
        # steps whose surrogates tie up to rounding; pieces perturbed at
        # 1e-15 relative must not move gamma* to the mirror design
        ch = channel.channel_choi(channel.ChannelParams(n=4, eta=0.3, lam=(0.2,) * 4, delta=2.0))
        modes = (1, 2, 3, 4)
        want = decoder.optimize_gamma(4, ch, modes, modes).gamma
        exact = decoder._surrogate_pieces

        for seed in range(6):
            rng = np.random.default_rng(seed)

            def bend(x):
                f = rng.uniform(-1.0, 1.0, x.shape)
                return x * (1.0 + 1e-15 * (f + f.swapaxes(-1, -2)) / 2)

            def perturbed(*args):
                return [(bend(q), bend(r)) for q, r in exact(*args)]

            monkeypatch.setattr(decoder, "_surrogate_pieces", perturbed)
            assert decoder.optimize_gamma(4, ch, modes, modes).gamma == want


class TestChannelPieces:
    """Every design is its amplitude pairs times its channel's pieces,
    cached per (M, channel, modes) (``_channel_pieces``): the gamma search
    and the designs read one array."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_design_is_the_beta_first_cascade(self, n):
        # the design's blocks are within 1e-13 (relative) of the full-space
        # reference, and its realized values at its own lambda (the cloner's
        # corner cascades, beta first, weighted) within 1e-14 of the
        # evaluation of its blocks, for random PSD decoders
        rng = np.random.default_rng(3600 + n)
        for eta in (0.3, 1.0):
            ch = channel.channel_choi(channel.ChannelParams(
                n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)), delta=float(rng.uniform(0.3, 2.0))))
            for m in sorted({1, n - 1, n}):
                t = tuple(int(x) + 1 for x in rng.permutation(n)[:m])
                r = tuple(int(x) + 1 for x in rng.permutation(n))
                design = decoder.design_at(tuple(rng.dirichlet(np.ones(m))), ch, t, r)
                emap = decoder.compose_effective_map(design.enc, ch, t, r)
                want = covariant_blocks(full_qr(emap))
                assert relative_gap((design.qr.qt, design.qr.rt), want) <= 1e-13
                vecs = np.linalg.qr(rng.normal(size=(2,) + design.qr.qt.shape))[0]
                js = (vecs * rng.uniform(0, 1, (2, 1, len(vecs[0])))) @ vecs.swapaxes(1, 2)
                got = decoder.realized_values(design, ch, [ch.params.lam], js)[:, 0]
                ref = [decoder.evaluate_decoder(j, design.qr) for j in js]
                assert np.max(np.abs(got - np.transpose(ref))) < 1e-14

    def test_search_returns_the_scored_matrix(self):
        # optimize_gamma's design is the pieces its search scored, contracted
        # at gamma*, bit for bit
        ch = lattice_channel(4, 0.6, (0.15, 0.35, 0.5, 0.7))
        t, r = strategies.select_modes(ch, 4)
        opt = decoder.optimize_gamma(4, ch, t, r)
        pieces = decoder._channel_pieces(4, ch.params, t, r)
        want = decoder._pair_weights(opt.enc.beta[None]) @ pieces.reshape(len(pieces), -1)
        assert np.array_equal(np.stack([opt.qr.qt, opt.qr.rt]), want.reshape(pieces.shape[1:]))
        scored = decoder._per_spin(decoder.QROperators(qt=pieces[:, 0], rt=pieces[:, 1], k=4))
        for got, pair in zip(decoder._surrogate_pieces(4, ch, t, r), scored):
            assert all(np.array_equal(x, y) for x, y in zip(got, pair))
        score = decoder._lattice_surrogates(decoder._pair_weights(opt.enc.beta[None]), scored)
        assert abs(score[0] - opt.surrogate) < 1e-12

    def test_cache_is_bounded_and_read_only(self):
        size = decoder.PIECE_CACHE_SIZE
        params = [channel.ChannelParams(n=2, eta=0.5, lam=(0.01 * i, 0.4), delta=1.0)
                  for i in range(size + 1)]
        decoder._channel_pieces.cache_clear()
        for p in params:
            decoder.design_at((0.3, 0.7), channel.channel_choi(p), (1, 2), (2, 1))
        info = decoder._channel_pieces.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (size, size, size + 1)
        for p in params[1:]:
            pieces = decoder._channel_pieces(2, p, (1, 2), (2, 1))
            with pytest.raises(ValueError, match="read-only"):
                pieces.flat[0] = 0
        assert decoder._channel_pieces.cache_info().hits == info.hits + size
        # the first channel was dropped; a bad call raises every time
        decoder._channel_pieces(2, params[0], (1, 2), (2, 1))
        assert decoder._channel_pieces.cache_info().misses == size + 2
        for _ in range(2):
            with pytest.raises(ValueError, match="transmit modes"):
                decoder.design_at((0.3, 0.7), channel.channel_choi(params[1]), (1, 1), (1, 2))
        assert decoder._channel_pieces.cache_info().currsize == size


class TestRealizedValues:
    def test_rejecting_decoder_reads_as_mixed(self):
        # a decoder that rejects every run (J = 0) accepts with probability
        # 0, and a rejected run counts as the maximally mixed output: both
        # fidelities are 1/2, in the scalar and the realized form, with no
        # division warning
        ch = channel.channel_choi(channel.ChannelParams(n=2, eta=0.5, lam=(0.2, 0.6), delta=1.0))
        design = decoder.design_at((0.3, 0.7), ch, (1, 2), (2, 1))
        j = np.zeros_like(design.qr.qt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decoder.evaluate_decoder(j, design.qr) == (0.0, 0.5, 0.5)
            got = decoder.realized_values(design, ch, [(0.2, 0.6), (1.0, 0.0)], [j, j, j])
        assert got.shape == (3, 2, 3)
        assert got.tolist() == [[[v] * 3] * 2 for v in (0.0, 0.5, 0.5)]


def rescore_all_gamma(m, ch, t, r):
    """The search's choice with every point in the tie band rescored per
    point through ``evaluate_gamma_surrogate``, then polished at M >= 4:
    the reference for the tie rule on the lattice scores."""
    points, weights, _ = decoder._lattice(m)
    pieces = decoder._surrogate_pieces(m, ch, t, r)
    scores = decoder._lattice_surrogates(weights, pieces)
    near = np.flatnonzero(scores >= scores.max() - decoder.SURROGATE_TIE_TOL - 1e-9)
    vals = {i: decoder.evaluate_gamma_surrogate(points[i], ch, t, r) for i in near}
    best = max(vals.values())
    ties = [points[i] for i, v in vals.items() if v >= best - decoder.SURROGATE_TIE_TOL]
    gamma = min(ties, key=lambda g: (-asymmetry_index(cloner.clone_fidelities(g).fidelities), g))
    return decoder._polish(gamma, pieces) if m >= 4 else gamma


RULE_CHANNELS = [
    (2, 0.0, (0.0, 0.0), (1, 2), (1, 2)),
    (3, 0.0, (0.0, 0.0, 0.0), (1, 2, 3), (1, 2, 3)),
    (3, 0.8, (0.8, 0.8, 0.8), (1, 2, 3), (1, 2, 3)),
    (2, 0.4, (0.5, 0.2), (2, 1), (1, 2)),
    (4, 0.6, (0.15, 0.35, 0.5, 0.7), None, None),
    (4, 0.8, (0.38487011085303435, 0.015129889146965558, 1.0, 1.0), None, None),
    (4, 0.5, (0.6,) * 4, (1, 2, 3, 4), (1, 2, 3, 4)),
    (4, 0.0, (0.0,) * 4, (1, 2, 3, 4), (1, 2, 3, 4)),
    (3, 1.0, (0.2, 0.55, 0.9), None, None),
]

class TestTieRescoring:
    @pytest.mark.parametrize("n, eta, lam, t, r", RULE_CHANNELS)
    def test_equals_rescore_all_rule(self, n, eta, lam, t, r):
        ch = lattice_channel(n, eta, lam)
        if t is None:
            t, r = strategies.select_modes(ch, n)
        want = rescore_all_gamma(n, ch, t, r)
        opt = decoder.optimize_gamma(n, ch, t, r)
        assert opt.gamma == want
        assert opt.surrogate == decoder.evaluate_gamma_surrogate(want, ch, t, r)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lattice_ranks_follow_per_point_rule(self, m):
        # the ranks come from one array evaluation of the asymmetry index,
        # and order the points as each point's own index would
        points, _, rank = decoder._lattice(m)
        order = sorted(range(len(points)), key=lambda i: (
            -asymmetry_index(cloner.clone_fidelities(points[i]).fidelities), points[i]))
        assert np.array_equal(rank, np.argsort(order))


SCORER_CHANNELS = [
    (2, 1.0, (0.7, 0.2)),
    (3, 0.0, (0.3, 0.3, 0.3)),
    (3, 0.4, (0.0, 0.0, 0.0)),
    (3, 1.0, (1.0, 1.0, 1.0)),
]


class TestLatticeScorer:
    """The block scorer against ``rayleigh_bound`` on the full operators,
    within 1e-12 on every channel, crosstalk-only M = 4 ones included."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_point_m_le_3(self, m):
        lam = (0.7, 0.2, 0.45)[:m]
        ch = lattice_channel(m, 0.7, lam)
        t, r = strategies.select_modes(ch, m)
        assert_scorer_matches(m, ch, t, r)

    @pytest.mark.parametrize("m, eta, lam", SCORER_CHANNELS)
    def test_every_point_more_channels(self, m, eta, lam):
        # full crosstalk, equal-lambda, crosstalk-only and fully
        # depolarized channels
        ch = lattice_channel(m, eta, lam)
        t, r = strategies.select_modes(ch, m)
        assert_scorer_matches(m, ch, t, r)

    def test_noiseless_rank_deficient(self):
        # on a noiseless channel sigma loses rank at the uniform point;
        # the support rule must still match rayleigh_bound's
        assert_scorer_matches(2, lattice_channel(2, 0.0, (0.0, 0.0)), (1, 2), (1, 2))

    def test_m4_vertices_faces_interior(self):
        points = decoder._lattice(4)[0]
        index = [i for i, g in enumerate(points) if i % 8 == 0 or max(g) == 1.0]
        assert len(index) >= 200
        assert sum(min(points[i]) == 0.0 for i in index) >= 100
        assert sum(min(points[i]) > 0.0 for i in index) >= 50
        lam = (0.4, 0.1, 0.8, 0.3)
        ch = lattice_channel(4, 0.8, lam)
        t, r = strategies.select_modes(ch, 4)
        assert_scorer_matches(4, ch, t, r, index)

    def test_m4_crosstalk_only(self):
        # lambda = 0, eta > 0: sigma is nearly singular near the uniform point
        points = decoder._lattice(4)[0]
        index = [i for i, g in enumerate(points) if i % 8 == 0 or max(g) - min(g) <= 0.15]
        modes = (1, 2, 3, 4)
        assert_scorer_matches(4, lattice_channel(4, 0.6, (0.0,) * 4), modes, modes, index)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_blocks_lift_to_full_operators(self, k):
        # Qt = (+)_j Q_j (x) I_{2j+1} and Rt alike, on the decoder's frame
        qr, emap = random_cascade(np.random.default_rng(90 + k), n=k)
        blocks = decoder._per_spin(qr)
        w, paths = decoder._frame(k + 1, k)
        spin = np.array([path[-1] for path in paths])
        assert len(blocks) == len(set(spin))
        for side, full in enumerate(reference_ops.full_operators(emap)):
            x = np.zeros((len(spin),) * 2)
            for tj, block in zip(sorted(set(spin)), blocks):
                idx = np.flatnonzero(spin == tj)
                x[np.ix_(idx, idx)] = block[side]
            assert np.max(np.abs(lift(w, x) - full)) < 1e-14


def score_with_sigma(route, triplet, singlet):
    """The surrogate of a K = 2 cascade's ``Qt`` against the covariant
    ``Rt = sigma^T (x) I``, ``sigma^T`` with eigenvalue ``triplet`` on the
    symmetric subspace and ``singlet`` on the antisymmetric one, through
    the per-cascade or the block scorer."""
    qt = random_cascade(np.random.default_rng(3), n=2)[0].qt
    eye = np.eye(4)
    w, paths = decoder._frame(3, 2)
    spin = np.array([path[-1] for path in paths])
    rt = decoder._reduce(w, np.kron(triplet * (eye + SWAP2) / 2 + singlet * (eye - SWAP2) / 2, I2))
    qr = decoder.QROperators(qt=qt, rt=rt * (spin[:, None] == spin), k=2)
    if route == "rayleigh_bound":
        return decoder.rayleigh_bound(qr)
    blocks = [(q[None], r[None]) for q, r in decoder._per_spin(qr)]
    return decoder._lattice_surrogates(np.ones((1, 1)), blocks)[0]


@pytest.mark.parametrize("route", ["rayleigh_bound", "lattice"])
class TestScorerGuards:
    def test_negative_eigenvalue_raises(self, route):
        with pytest.raises(NotPsdError):
            score_with_sigma(route, 1 / 3, -1e-9)

    def test_empty_support_raises(self, route):
        with pytest.raises(ValueError, match="Rt has empty support"):
            score_with_sigma(route, 0.0, 0.0)


def prior_qr(m, eps=0.0):
    """The blind decoder's prior: uniform cloner, every mode depolarized
    by ``eps`` (0: the identity channel), every clone received."""
    modes = tuple(range(1, m + 1))
    ch = channel.channel_choi(channel.ChannelParams(n=m, eta=0.0, lam=(eps,) * m, delta=1.0))
    enc = cloner.cloner_choi(tuple([1 / m] * m))
    return decoder.build_qr(decoder.compose_effective_map(enc, ch, modes, modes))


class TestBlind:
    def test_degenerate_single_mode(self):
        # one clone: the closed form accepts with p and passes the qubit
        for p in (0.5, 1.0):
            j = decoder.blind_choi(1, p)
            assert np.max(np.abs(lift_decoder(j, 1) - p * PHI_UNNORM)) < 1e-12
            assert decoder.evaluate_decoder(j, identity_qr())[:2] == pytest.approx((p, 1.0))

    def test_contracts(self):
        # feasible, and optimal: the identity-prior SDP is the oracle
        for m in range(1, 6):
            qr = prior_qr(m)
            for p in (0.2, 0.5, 0.8, 1.0):
                j = decoder.blind_choi(m, p)
                decoder._validate_decoder(j, qr, p)
                validate_full_decoder(lift_decoder(j, m), lift_operators(qr)[1], p)
                sol = decoder.purification_sdp(qr, p)
                assert abs(np.trace(j @ qr.qt) - p * sol.f_success) < 1e-7

    def test_matches_csi_on_identity_channel(self):
        # on its prior the blind decoder accepts with p and purifies to
        # the symmetric cloner's fidelity (2M + 1) / 3M
        for m in range(1, 6):
            qr = prior_qr(m)
            for p in (0.2, 0.5, 0.8, 1.0):
                p_real, f_success, _ = decoder.evaluate_decoder(decoder.blind_choi(m, p), qr)
                assert abs(p_real - p) < 1e-12
                assert abs(f_success - (2 * m + 1) / (3 * m)) < 1e-12

    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_limit_of_depolarized_prior(self, p):
        # the identity-prior optimum is degenerate; a depolarized prior's
        # is not, and tends to the closed form as the noise vanishes
        j = decoder.purification_sdp(prior_qr(2, eps=1e-3), p).j
        assert np.max(np.abs(j - decoder.blind_choi(2, p))) < 1e-3

    def test_blind_never_beats_csi(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            params = channel.ChannelParams(
                n=2, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0, 1, 2)),
                delta=1.0,
            )
            ch = channel.channel_choi(params)
            enc = cloner.cloner_choi((0.5, 0.5))
            qr_true = decoder.build_qr(
                decoder.compose_effective_map(enc, ch, (1, 2), (1, 2))
            )
            csi = decoder.purification_sdp(qr_true, 0.8)
            f_blind = decoder.evaluate_decoder(decoder.blind_choi(2, 0.8), qr_true)[2]
            assert f_blind <= csi.f_avg + 1e-6

    def test_run_strategy_solves_no_sdp(self, monkeypatch):
        def no_solve(problems):
            raise AssertionError("blind solved an SDP")

        monkeypatch.setattr(sdp, "solve_many", no_solve)
        rng = np.random.default_rng(4)
        for m in (2, 3):
            params = channel.ChannelParams(n=m, eta=float(rng.uniform(0, 1)),
                                           lam=tuple(rng.uniform(0, 1, m)), delta=1.0)
            ch = channel.channel_choi(params)
            records = strategies.run_strategy("blind", ch, (0.5, 0.8, 1.0))
            assert [rec.p_target for rec in records] == [0.5, 0.8, 1.0]
            assert all(rec.p_real <= rec.p_target + 1e-12 for rec in records)
