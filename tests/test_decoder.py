import time

import numpy as np
import pytest

from qumimo import channel, cloner, decoder, sdp, strategies
from qumimo.errors import NotPsdError
from qumimo.metrics import asymmetry_index
from qumimo.tensor import I2, PHI_UNNORM, SWAP2, dagger
from reference_ops import (
    ModeSpace,
    depolarizing_choi_1q,
    haar_qubit,
    partial_trace,
    projector,
    rank_one_certificate,
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
        assert np.max(np.abs(emap.choi - PHI_UNNORM)) < 1e-6

    def test_single_branch_marginal(self):
        # marginal factorization oracle: mode 1 carries dep(0.4), mode 2 is noise
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.0, lam=(0.4, 0.77), delta=1.0)
        )
        emap = decoder.compose_effective_map(enc, ch, (1,), (1,))
        want = depolarizing_choi_1q(0.4)
        assert np.max(np.abs(emap.choi - want)) < 1e-8

    def test_transmit_mode_routing(self):
        # clone routed to mode 2 and received there sees dep(0.1)
        enc = cloner.cloner_choi((1.0,))
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.0, lam=(0.9, 0.1), delta=1.0)
        )
        emap = decoder.compose_effective_map(enc, ch, (2,), (2,))
        want = depolarizing_choi_1q(0.1)
        assert np.max(np.abs(emap.choi - want)) < 1e-8

    def test_cptp_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            qr, emap = random_cascade(rng, n=int(rng.integers(1, 4)))
            k = emap.k
            space = ModeSpace.qubits(range(1, k + 2))
            tr_out = partial_trace(emap.choi, space, (1,))
            assert np.max(np.abs(tr_out - I2)) < 1e-8

    def test_six_modes(self):
        # No dense route reaches N = 6: its channel Choi is 4096 x 4096,
        # gathered once per each of 720 permutations.
        params = channel.ChannelParams(
            n=6, eta=0.8, lam=tuple(np.linspace(0.05, 0.55, 6)), delta=1.0)
        enc = cloner.cloner_choi(tuple(np.random.default_rng(15).dirichlet(np.ones(5))))
        start = time.perf_counter()
        emap = decoder.compose_effective_map(
            enc, channel.channel_choi(params), (2, 4, 6, 1, 3), (6, 1, 5, 2, 4, 3))
        assert time.perf_counter() - start < 1.0
        tr_out = partial_trace(emap.choi, ModeSpace.qubits(range(7)), (0,))
        assert np.max(np.abs(tr_out - I2)) < 1e-12
        assert decoder.covariant_operators(decoder.build_qr(emap))[1] <= 1e-12

    def test_rejects_overlap(self):
        enc = cloner.cloner_choi((0.5, 0.5))
        ch = channel.channel_choi(channel.ChannelParams(n=2, eta=0.0, lam=(0.1, 0.1), delta=1.0))
        with pytest.raises(ValueError):
            decoder.compose_effective_map(enc, ch, (1, 1), (1, 2))


class TestBuildQR:
    def test_identity_values(self):
        qr = identity_qr()
        assert np.max(np.abs(qr.qt - (np.eye(4) + PHI_UNNORM) / 6.0)) < 1e-7
        assert np.max(np.abs(qr.rt - np.eye(4) / 2.0)) < 1e-7
        # transpose-convention regression: max eigenvalue 1/2, ratio 1
        assert abs(np.linalg.eigvalsh(qr.qt)[-1] - 0.5) < 1e-7

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
        j4 = emap.choi.reshape(2, dk, 2, dk)
        n_samp = 10_000
        terms = np.empty((n_samp, 2 * dk, 2 * dk), dtype=complex)
        for s in range(n_samp):
            psi = haar_qubit(rng)
            rho = projector(psi)
            lam_out = np.einsum("iokp,ik->op", j4, rho)
            terms[s] = np.kron(lam_out.T, rho)
        mean = terms.mean(axis=0)
        se = terms.std(axis=0) / np.sqrt(n_samp)
        diff = np.abs(mean - qr.qt)
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
        alone = [decoder.build_qr(decoder.compose_effective_map(
            cloner.ClonerChoi(choi=c, m=m, fidelities=()), ch, t, r)) for c in chois]
        count = len(chois)
        orders = [list(range(count)), list(range(count))[::-1], [count - 1, 0, 0], [1 % count]]
        for order in orders:
            qr = stacked_cascade(chois[order], m, ch, t, r)
            assert qr.qt.shape[0] == len(order) and qr.k == k
            for row, i in enumerate(order):
                assert np.array_equal(qr.qt[row], alone[i].qt)
                assert np.array_equal(qr.rt[row], alone[i].rt)
        # a stack of one is the single call
        one = stacked_cascade(chois[:1], m, ch, t, r)
        assert one.qt.shape == (1,) + alone[0].qt.shape
        assert np.array_equal(one.qt[0], alone[0].qt) and np.array_equal(one.rt[0], alone[0].rt)
        # the stacked reduction is the per-entry one
        stacked = decoder.covariant_operators(stacked_cascade(chois, m, ch, t, r))
        for i, qr in enumerate(alone):
            (c, rr), resid = decoder.covariant_operators(qr)
            assert np.array_equal(stacked[0][0][i], c) and np.array_equal(stacked[0][1][i], rr)
            assert resid <= stacked[1] <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_surrogate_pieces_are_the_per_piece_cascades(self, m):
        ch = lattice_channel(m, 0.5, tuple(np.linspace(0.1, 0.7, m)))
        t, r = strategies.select_modes(ch, m)
        per_piece = [decoder.build_qr(decoder.compose_effective_map(
            cloner.ClonerChoi(choi=c, m=m, fidelities=()), ch, t, r)) for c in piece_chois(m)]
        want = decoder._spin_blocks(decoder.QROperators(
            qt=np.array([qr.qt for qr in per_piece]), rt=np.array([qr.rt for qr in per_piece]),
            k=len(r)))
        got = decoder._surrogate_pieces(m, ch, t, r)
        assert len(got) == len(want)
        for (q, rr), (q_want, r_want) in zip(got, want):
            assert np.array_equal(q, q_want) and np.array_equal(rr, r_want)


class TestPurificationSdp:
    def test_identity_p1(self):
        qr = identity_qr()
        sol = decoder.purification_sdp(qr, 1.0)
        assert abs(sol.f_avg - 1.0) < 1e-6
        assert np.max(np.abs(sol.j - PHI_UNNORM)) < 1e-4

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
            best = max(best, float(np.real(np.trace(j_u @ qr.qt))))
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
        da = qr.qt.shape[0] // 2
        assert abs(np.real(np.trace(sol.j @ qr.rt)) - 0.7) < 1e-7
        tr_b = np.trace(sol.j.reshape(da, 2, da, 2), axis1=1, axis2=3)
        assert np.linalg.eigvalsh((tr_b + dagger(tr_b)) / 2)[-1] <= 1 + 1e-7
        assert np.linalg.eigvalsh(sol.j)[0] >= -1e-8
        assert abs(sol.f_avg - (0.7 * sol.f_success + 0.3 / 2)) < 1e-10

    def test_rejects_bad_p(self):
        qr = identity_qr()
        with pytest.raises(ValueError):
            decoder.purification_sdp(qr, 0.0)
        with pytest.raises(ValueError):
            decoder.purification_sdp(qr, 1.2)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + dagger(a)) / 2


def hermitian_coords(g):
    """Coefficients of a Hermitian ``g`` in ``decoder._hermitian_basis``
    order: the diagonal, then ``(Re g_kl, Im g_kl)`` for each k < l."""
    ku, lu = np.triu_indices(len(g), 1)
    return np.concatenate([np.diag(g).real, np.stack([g[ku, lu].real, g[ku, lu].imag], 1).ravel()])


def row_image(w, e):
    """``e`` lifted to the full space, and ``2j + 1`` of the block it sits in."""
    g = decoder._lift(w, e)
    return g, float(np.real(np.trace(g @ g) / np.trace(e @ e)))


def apply_rows(problem, blocks):
    """``A(X)`` of ``problem`` on ``blocks``, as the solver reads it on the
    merged block-diagonal stack (a stack of one problem)."""
    a_conj = sdp._block_diag(problem.constraints).reshape(1, len(problem.rhs), -1).conj()
    return sdp._a_apply(a_conj, sdp._block_diag(blocks)[None])[0]


def adjoint_blocks(problem, y):
    """``A*(y)`` of ``problem`` on the merged stack, cut into its blocks."""
    merged = np.tensordot(y, sdp._block_diag(problem.constraints), axes=1)
    edges = np.cumsum([0] + [len(c) for c in problem.objective])
    return [merged[lo:hi, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


def random_reduced(rng, paths):
    """A random Hermitian matrix on the spin blocks of a frame's paths."""
    spin = np.array([path[-1] for path in paths])
    x = rng.standard_normal((len(spin),) * 2) + 1j * rng.standard_normal((len(spin),) * 2)
    return (x + dagger(x)) * (spin[:, None] == spin[None, :])


class TestPartialTraceOperator:
    """The decoder SDP's constraint operator, ``Tr_B J + S`` and
    ``Tr[Rt J]``, as the covariant route reads it on the Schur-Weyl
    blocks, against the dense stacks of the same problem on the full
    space; and the covariant route's decoders against the dense route's."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.6, 1.0])
    def test_matches_dense_operator(self, k, p):
        # row i of the reduced A(X) is Tr[lift(E_i) (Tr_B J + S)] / (2j + 1)
        # on the lifted blocks, read off the dense route's real symmetric
        # unit rows (lift(E_i) is real); the objective and the Rt row agree too
        rng = np.random.default_rng(10 + k)
        qr, _ = random_cascade(rng, n=k)
        (w_j, paths_j), (w_s, paths_s) = decoder._frame(k + 1, k), decoder._frame(k, k)
        units = decoder._covariant_rows(k)[1]
        reduced = decoder._covariant_problem(qr, p)
        dense = decoder.dense_purification_problem(qr, p)
        x_red = [random_reduced(rng, paths_j), random_reduced(rng, paths_s)]
        x_full = [decoder._lift(w_j, x_red[0]), decoder._lift(w_s, x_red[1])]
        nb = len(reduced.objective)
        got = apply_rows(reduced, x_red[:nb])
        want = apply_rows(dense, x_full[:nb])
        nh = 4 ** k
        real = ~decoder._hermitian_basis(2 ** k).imag.any(axis=(1, 2))
        for i, e in enumerate(units):
            g, d = row_image(w_s, e)
            assert abs(got[i] - want[:nh][real] @ hermitian_coords(g)[real] / d) < 1e-11
        assert len(got) == len(units) + (p < 1.0)
        if p < 1.0:
            assert abs(got[-1] - want[-1]) < 1e-11
        assert abs(np.vdot(reduced.objective[0], x_red[0]).real
                   - np.vdot(dense.objective[0], x_full[0]).real) < 1e-11

    @pytest.mark.parametrize("p", [0.6, 1.0])
    def test_adjoint(self, p):
        # the reduced A*(y) is the reduction of the dense A* at the
        # full-space image of y (on the real symmetric unit rows), block
        # by block
        rng = np.random.default_rng(20)
        for k in (1, 2, 3):
            qr, _ = random_cascade(rng, n=k)
            w_j, w_s = decoder._frame(k + 1, k)[0], decoder._frame(k, k)[0]
            units = decoder._covariant_rows(k)[1]
            reduced = decoder._covariant_problem(qr, p)
            dense = decoder.dense_purification_problem(qr, p)
            for _ in range(3):
                y = rng.standard_normal(len(reduced.rhs))
                y_full = np.zeros(len(dense.rhs))
                for yi, e in zip(y, units):
                    g, d = row_image(w_s, e)
                    y_full[:4 ** k] += yi * hermitian_coords(g) / d
                if p < 1.0:
                    y_full[-1] = y[-1]
                got = adjoint_blocks(reduced, y)
                want = adjoint_blocks(dense, y_full)
                for w, a, b in zip((w_j, w_s), got, want):
                    assert np.max(np.abs(a - decoder._reduce(w, b))) < 1e-12

    def test_matches_dense_route_on_criterion4_sweep(self):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(50):
            qr, _ = random_cascade(rng, n=int(rng.integers(1, 3)))
            for p in (0.2, 0.5, 0.8, 1.0):
                dec = decoder.purification_sdp(qr, p)
                ref = sdp.solve(decoder.dense_purification_problem(qr, p))
                worst = max(worst, abs(dec.f_success * p - ref.value))
        assert worst < 1e-7

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
    def test_matches_dense_route_k3(self, p):
        rng = np.random.default_rng(33)
        qr, _ = random_cascade(rng, n=3)
        dec = decoder.purification_sdp(qr, p)
        ref = sdp.solve(decoder.dense_purification_problem(qr, p))
        assert abs(dec.f_success * p - ref.value) < 1e-7

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
    def test_matches_dense_route_k4(self, p):
        rng = np.random.default_rng(44)
        qr, _ = random_cascade(rng, n=4)
        dec = decoder.purification_sdp(qr, p)
        ref = sdp.solve(decoder.dense_purification_problem(qr, p))
        assert abs(dec.f_success * p - ref.value) < 1e-7

    def test_every_solve_is_validated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decoder, "_validate_decoder", lambda *a: calls.append(a))
        qr, _ = random_cascade(np.random.default_rng(8), n=2)
        for p in (0.5, 1.0):
            decoder.purification_sdp(qr, p)
        assert [c[2] for c in calls] == [0.5, 1.0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rejects_non_covariant(self, k):
        # a generic Hermitian perturbation of 1e-6 leaves the commutant;
        # the route raises instead of solving another problem
        rng = np.random.default_rng(50 + k)
        qr, _ = random_cascade(rng, n=k)
        assert decoder.covariant_operators(qr)[1] < 1e-14
        bent = decoder.QROperators(qt=qr.qt + 1e-6 * random_hermitian(rng, 2 ** (k + 1)),
                                   rt=qr.rt, k=k)
        for p in (0.8, 1.0):
            with pytest.raises(ValueError, match="SU\\(2\\) commutant"):
                decoder.purification_sdp(bent, p)

    def test_k5_decoder(self):
        # K = 5: real blocks 20 + 10 wide, 27 constraints; the full J passes
        # _validate_decoder and stays under the Rayleigh surrogate
        rng = np.random.default_rng(55)
        qr, _ = random_cascade(rng, n=5)
        ray = decoder.rayleigh_bound(qr)
        problem = decoder._covariant_problem(qr, 0.8)
        assert [len(c) for c in problem.objective] == [20, 10] and len(problem.rhs) == 27
        for p in (0.8, 1.0):
            dec = decoder.purification_sdp(qr, p)
            decoder._validate_decoder(dec.j, qr, p)
            assert dec.j.shape == (64, 64)
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
        qr = decoder.build_qr(
            decoder.compose_effective_map(enc, channel.channel_choi(params), modes, modes))
        reduced, resid = decoder.covariant_operators(qr)
        assert resid < 1e-12
        # real dtype: the imaginary part is exactly 0, not small
        for x in (qr.qt, qr.rt, *reduced, decoder.purification_sdp(qr, 0.8).j):
            assert not np.iscomplexobj(x)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rejects_imaginary_part_on_commutant(self, k):
        # i A, A real antisymmetric inside one spin block, lifts onto the
        # commutant: it passes the commutant check and fails the realness one
        rng = np.random.default_rng(70 + k)
        qr, _ = random_cascade(rng, n=k)
        w, paths = decoder._frame(k + 1, k)
        spin = np.array([path[-1] for path in paths])
        a, b = np.flatnonzero(spin == np.flatnonzero(np.bincount(spin) >= 2)[0])[:2]
        anti = np.zeros((len(spin),) * 2)
        anti[a, b], anti[b, a] = 1.0, -1.0
        bent = decoder.QROperators(qt=qr.qt + 1e-6 * decoder._lift(w, 1j * anti), rt=qr.rt, k=k)
        assert decoder.covariant_operators(bent)[1] < 1e-14
        for p in (0.8, 1.0):
            with pytest.raises(ValueError, match="not real"):
                decoder.purification_sdp(bent, p)


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
            assert np.linalg.eigvalsh(j_ray)[0] >= -1e-12
            assert abs(np.real(np.trace(j_ray @ qr.rt)) - p) < 1e-9
            assert abs(np.real(np.trace(j_ray @ qr.qt)) / p - ray) < 1e-9


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
        # the design carries the cascade operators at gamma*, from which
        # the surrogate is read and every per-p decoder is solved
        ch = channel.channel_choi(
            channel.ChannelParams(n=2, eta=0.4, lam=(0.5, 0.2), delta=1.0)
        )
        opt = decoder.optimize_gamma(2, ch, (2, 1), (1, 2))
        enc = cloner.cloner_choi(opt.gamma)
        want = decoder.build_qr(decoder.compose_effective_map(enc, ch, (2, 1), (1, 2)))
        assert np.array_equal(opt.qr.qt, want.qt) and np.array_equal(opt.qr.rt, want.rt)
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
        qr, _ = random_cascade(np.random.default_rng(90 + k), n=k)
        stacked = decoder.QROperators(qt=qr.qt[None], rt=qr.rt[None], k=k)
        blocks = decoder._spin_blocks(stacked)
        w, paths = decoder._frame(k + 1, k)
        spin = np.array([path[-1] for path in paths])
        assert len(blocks) == len(set(spin))
        for side, full in enumerate((qr.qt, qr.rt)):
            x = np.zeros((len(spin),) * 2)
            for tj, block in zip(sorted(set(spin)), blocks):
                idx = np.flatnonzero(spin == tj)
                x[np.ix_(idx, idx)] = block[side][0]
            assert np.max(np.abs(decoder._lift(w, x) - full)) < 1e-14

    def test_pieces_off_commutant_raise(self, monkeypatch):
        # the gamma search reduces its pieces through the decoder SDP's
        # commutant check: a 1e-6 Hermitian perturbation of the stacked
        # pieces raises instead of being scored
        rng = np.random.default_rng(52)
        qr, _ = random_cascade(rng, n=3)
        bend = 1e-6 * random_hermitian(rng, 16).real
        stacked = decoder.QROperators(qt=np.stack([qr.qt, qr.qt + bend]), rt=qr.rt[None], k=3)
        with pytest.raises(ValueError, match="SU\\(2\\) commutant"):
            decoder._spin_blocks(stacked)
        build = decoder.build_qr

        def bent_pieces(emap):
            qr = build(emap)
            if qr.qt.ndim == 2:
                return qr
            return decoder.QROperators(qt=qr.qt + bend, rt=qr.rt, k=qr.k)

        monkeypatch.setattr(decoder, "build_qr", bent_pieces)
        ch = lattice_channel(3, 0.5, (0.2, 0.4, 0.6))
        with pytest.raises(ValueError, match="SU\\(2\\) commutant"):
            decoder.optimize_gamma(3, ch, (1, 2, 3), (1, 2, 3))


def score_with_sigma(route, triplet, singlet):
    """The surrogate of a K = 2 cascade's ``Qt`` against the covariant
    ``Rt = sigma^T (x) I``, ``sigma^T`` with eigenvalue ``triplet`` on the
    symmetric subspace and ``singlet`` on the antisymmetric one, through
    the per-cascade or the block scorer."""
    qt = random_cascade(np.random.default_rng(3), n=2)[0].qt
    eye = np.eye(4)
    rt = np.kron(triplet * (eye + SWAP2) / 2 + singlet * (eye - SWAP2) / 2, I2)
    if route == "rayleigh_bound":
        return decoder.rayleigh_bound(decoder.QROperators(qt=qt, rt=rt, k=2))
    blocks = decoder._spin_blocks(decoder.QROperators(qt=qt[None], rt=rt[None], k=2))
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
            assert np.max(np.abs(j - p * PHI_UNNORM)) < 1e-12
            assert decoder.evaluate_decoder(j, identity_qr())[:2] == pytest.approx((p, 1.0))

    def test_contracts(self):
        # feasible, and optimal: the identity-prior SDP is the oracle
        for m in range(1, 6):
            qr = prior_qr(m)
            for p in (0.2, 0.5, 0.8, 1.0):
                j = decoder.blind_choi(m, p)
                decoder._validate_decoder(j, qr, p)
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
        def no_solve(problem):
            raise AssertionError("blind solved an SDP")

        monkeypatch.setattr(sdp, "solve", no_solve)
        rng = np.random.default_rng(4)
        for m in (2, 3):
            params = channel.ChannelParams(n=m, eta=float(rng.uniform(0, 1)),
                                           lam=tuple(rng.uniform(0, 1, m)), delta=1.0)
            ch = channel.channel_choi(params)
            records = strategies.run_strategy("blind", ch, (0.5, 0.8, 1.0))
            assert [rec.p_target for rec in records] == [0.5, 0.8, 1.0]
            assert all(rec.p_real <= rec.p_target + 1e-12 for rec in records)
