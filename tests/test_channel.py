import itertools

import numpy as np
import pytest

from qumimo import channel, cloner, decoder
from qumimo.errors import DimensionLimitError
from qumimo.tensor import I2, PHI_UNNORM, SWAP2, dagger
from reference_ops import (
    ModeSpace,
    apply_choi,
    branch_fidelity_via_compose,
    choi_from_kraus,
    dense_branch_fidelities,
    dense_cascade,
    dense_channel_choi,
    dense_compose,
    depolarizing_choi_1q,
    depolarizing_kraus,
    haar_qubit,
    partial_trace,
    permutation_unitary,
    projector,
    source_weights,
)


def rand_params(rng, n=None):
    n = n if n is not None else int(rng.integers(1, 5))
    return channel.ChannelParams(
        n=n,
        eta=float(rng.uniform(0, 1)),
        lam=tuple(rng.uniform(0, 1, n)),
        delta=float(rng.uniform(0.2, 3.0)),
    )


class TestDepolarizingKraus:
    """The oracle's ``depolarizing_choi_1q`` against the Choi of the Kraus set."""

    def test_identity_limit(self):
        assert np.max(np.abs(depolarizing_choi_1q(0.0) - PHI_UNNORM)) < 1e-15
        assert np.max(np.abs(choi_from_kraus(depolarizing_kraus(0.0)) - PHI_UNNORM)) < 1e-15

    def test_completeness(self):
        for lam in (0.0, 0.3, 1.0):
            ks = depolarizing_kraus(lam)
            total = sum(dagger(k) @ k for k in ks)
            assert np.max(np.abs(total - I2)) < 1e-12
            j = depolarizing_choi_1q(lam)
            assert np.max(np.abs(j - choi_from_kraus(ks))) < 1e-12

    def test_haar_fidelity(self):
        # analytic: mean fidelity of rho -> (1-lam) rho + lam I/2 is 1 - lam/2;
        # Monte Carlo cross-check, applying the Choi and the Kraus set
        rng = np.random.default_rng(0)
        for lam, want in ((1.0, 0.5), (0.4, 0.8)):
            ks = depolarizing_kraus(lam)
            j = depolarizing_choi_1q(lam)
            fids = []
            for _ in range(400):
                psi = haar_qubit(rng)
                rho = projector(psi)
                out = apply_choi(j, rho)
                assert np.max(np.abs(out - sum(k @ rho @ dagger(k) for k in ks))) < 1e-12
                fids.append(float(np.real(psi.conj() @ out @ psi)))
            assert abs(np.mean(fids) - want) < 0.02
            assert np.allclose(np.mean(fids), want, atol=5 * np.std(fids) / 20 + 1e-9)

    def test_range_check(self):
        with pytest.raises(ValueError):
            depolarizing_choi_1q(1.5)


class TestCouplingKernel:
    def test_sharp_decay_is_identity(self):
        k = channel.coupling_kernel(4, 50.0)
        assert np.max(np.abs(k - np.eye(4))) < 1e-9

    def test_uniform_limit(self):
        k = channel.coupling_kernel(5, 1e-9)
        assert np.max(np.abs(k - 0.2)) < 1e-8

    def test_frozen_value(self):
        # direct evaluation of the kernel formula for N=5, delta=1
        k = channel.coupling_kernel(5, 1.0)
        want = 1.0 / (1.0 + 2 * np.exp(-1.0) + 2 * np.exp(-2.0))
        assert abs(k[0, 0] - want) < 1e-12
        assert abs(want - 0.498398) < 1e-6

    def test_row_stochastic_circulant(self):
        k = channel.coupling_kernel(6, 0.7)
        assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)
        for i in range(6):
            assert np.allclose(np.roll(k[0], i), k[i], atol=1e-12)


class TestPermutationWeights:
    def test_two_mode_uniform(self):
        ens = channel.permutation_weights(np.full((2, 2), 0.5))
        assert np.allclose(ens.weights, [0.5, 0.5])

    def test_normalized(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(0.1, 1.0, (4, 4))
        c /= c.sum(axis=1, keepdims=True)
        ens = channel.permutation_weights(c)
        assert abs(sum(ens.weights) - 1.0) < 1e-12
        assert len(ens.perms) == 24

    def test_identity_dominates_sharp_kernel(self):
        ens = channel.permutation_weights(channel.coupling_kernel(3, 8.0))
        ident = ens.perms.index((1, 2, 3))
        assert ens.weights[ident] > 0.99
        assert ens.weights[ident] == max(ens.weights)

    def test_one_ensemble_per_n_and_delta(self):
        # channels that differ only in eta or lambda share one ensemble
        # object, the identity first
        a = channel.channel_choi(channel.ChannelParams(n=4, eta=0.3, lam=(0.1,) * 4, delta=0.7))
        b = channel.channel_choi(channel.ChannelParams(n=4, eta=0.9, lam=(0.5,) * 4, delta=0.7))
        c = channel.channel_choi(channel.ChannelParams(n=4, eta=0.3, lam=(0.1,) * 4, delta=0.8))
        assert a.ensemble is b.ensemble and a.ensemble is not c.ensemble
        assert a.ensemble == channel.permutation_weights(channel.coupling_kernel(4, 0.7))
        assert a.ensemble.perms[0] == (1, 2, 3, 4)
        # the permutations as one read-only integer array, made with the
        # ensemble
        assert np.array_equal(a.ensemble.table, a.ensemble.perms)
        assert a.ensemble.table.dtype.kind == "i" and not a.ensemble.table.flags.writeable


class TestPermutationUnitary:
    def test_swap_action(self):
        u = permutation_unitary((2, 1), 2)
        ket01 = np.zeros(4)
        ket01[1] = 1.0
        ket10 = np.zeros(4)
        ket10[2] = 1.0
        assert np.allclose(u @ ket01, ket10)

    def test_group_homomorphism(self):
        rng = np.random.default_rng(2)
        perms = list(itertools.permutations((1, 2, 3)))
        for _ in range(20):
            pi = perms[rng.integers(len(perms))]
            sigma = perms[rng.integers(len(perms))]
            composed = tuple(pi[sigma[i] - 1] for i in range(3))
            u = permutation_unitary(pi, 3) @ permutation_unitary(sigma, 3)
            assert np.array_equal(u, permutation_unitary(composed, 3))

    def test_unitarity_exact(self):
        u = permutation_unitary((3, 1, 2), 3)
        assert np.array_equal(dagger(u) @ u, np.eye(8).astype(complex))


class TestChannelChoi:
    """The dense channel Choi of the test oracle, which the factored route
    is checked against."""

    def test_identity_channel(self):
        params = channel.ChannelParams(n=1, eta=0.0, lam=(0.0,), delta=1.0)
        assert np.allclose(dense_channel_choi(params), PHI_UNNORM)

    def test_full_depolarization_absorbs_mixing(self):
        rng = np.random.default_rng(3)
        params = channel.ChannelParams(n=2, eta=0.7, lam=(1.0, 1.0), delta=1.0)
        ch = dense_channel_choi(params)
        for _ in range(5):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            out = apply_choi(ch, projector(psi))
            assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-10

    def test_uniform_two_mode_swap_mixture(self):
        # delta -> 0 limit: equal-weight identity and swap
        params = channel.ChannelParams(n=2, eta=1.0, lam=(0.0, 0.0), delta=1e-12)
        ch = dense_channel_choi(params)
        rng = np.random.default_rng(4)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((4, 4), dtype=complex)
                unit[i, j] = 1.0
                got = apply_choi(ch, unit)
                want = (unit + SWAP2 @ unit @ SWAP2) / 2
                assert np.max(np.abs(got - want)) < 1e-9

    def test_cptp_and_unital(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = rand_params(rng)
            ch = dense_channel_choi(params)
            n = params.n
            space = ModeSpace.qubits(range(1, 2 * n + 1))
            tr_out = partial_trace(ch, space, tuple(range(1, n + 1)))
            assert np.max(np.abs(tr_out - np.eye(2 ** n))) < 1e-8
            ident = np.eye(2 ** n) / 2 ** n
            assert np.max(np.abs(apply_choi(ch, ident) - ident)) < 1e-8
            assert np.linalg.eigvalsh((ch + dagger(ch)) / 2)[0] > -1e-9

    def test_linear_in_eta(self):
        rng = np.random.default_rng(6)
        lam = tuple(rng.uniform(0, 1, 3))
        mk = lambda eta: dense_channel_choi(
            channel.ChannelParams(n=3, eta=eta, lam=lam, delta=0.9)
        )
        j0, j1, jh = mk(0.0), mk(1.0), mk(0.35)
        assert np.max(np.abs(jh - 0.65 * j0 - 0.35 * j1)) < 1e-12

    def test_circulant_symmetry(self):
        # uniform lambda: cyclic mode relabeling leaves the Choi invariant
        params = channel.ChannelParams(n=3, eta=0.6, lam=(0.3, 0.3, 0.3), delta=1.1)
        ch = dense_channel_choi(params)
        cyc = (2, 3, 1)
        u = permutation_unitary(cyc, 3)
        big = np.kron(u.conj(), u)  # acts on (in x out) with Ubar on the input leg
        rotated = big @ ch @ dagger(big)
        assert np.max(np.abs(rotated - ch)) < 1e-8

    def test_single_branch_marginal_fidelity(self):
        # eta = 0 factorization: marginal fidelity on mode i is 1 - lam_i/2
        rng = np.random.default_rng(7)
        lam = (0.15, 0.6, 0.35)
        params = channel.ChannelParams(n=3, eta=0.0, lam=lam, delta=1.0)
        ch = dense_channel_choi(params)
        space_out = ModeSpace.qubits(range(1, 4))
        for i in range(3):
            for _ in range(5):
                psi = haar_qubit(rng)
                state = [I2 / 2] * 3
                state[i] = projector(psi)
                rho = np.kron(np.kron(state[0], state[1]), state[2])
                out = apply_choi(ch, rho)
                marg = partial_trace(out, space_out, (i + 1,))
                fid = float(np.real(psi.conj() @ marg @ psi))
                # average over Haar would be 1 - lam/2; per-state it is exact
                # for depolarizing maps
                assert abs(fid - (1 - lam[i] / 2)) < 1e-8

    def test_apply_examples(self):
        params = channel.ChannelParams(n=1, eta=0.0, lam=(0.4,), delta=1.0)
        ch = dense_channel_choi(params)
        out = apply_choi(ch, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(np.diag(out).real, [0.8, 0.2])
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = z @ dagger(z)
            rho /= np.trace(rho)
            assert abs(np.trace(apply_choi(ch, rho)) - 1.0) < 1e-10

    def test_mode_cap(self):
        with pytest.raises(DimensionLimitError):
            channel.ChannelParams(n=7, eta=0.1, lam=(0.1,) * 7, delta=1.0)

    @pytest.mark.parametrize("eta, lam, delta, match", [
        (float("nan"), (0.1, 0.2), 1.0, "eta"),
        (0.5, (float("nan"), 0.2), 1.0, "lambda"),
        (0.5, (0.1, 0.2), float("nan"), "delta"),
        (0.5, (0.1, 0.2), float("inf"), "delta"),
    ])
    def test_rejects_non_finite(self, eta, lam, delta, match):
        with pytest.raises(ValueError, match=match):
            channel.ChannelParams(n=2, eta=eta, lam=lam, delta=delta)
        if match == "delta":
            with pytest.raises(ValueError, match=match):
                channel.coupling_kernel(2, delta)


class TestCouplingReport:
    def test_limits(self):
        p0 = channel.coupling_report(channel.ChannelParams(n=4, eta=0.0, lam=(0.1,) * 4, delta=1.0))
        assert np.allclose(p0, np.eye(4))
        p1 = channel.coupling_report(channel.ChannelParams(n=4, eta=1.0, lam=(0.1,) * 4, delta=1.0))
        assert np.allclose(p1, channel.coupling_kernel(4, 1.0))

    def test_rows_stochastic(self):
        p = channel.coupling_report(channel.ChannelParams(n=5, eta=0.3, lam=(0.1,) * 5, delta=0.8))
        assert np.allclose(p.sum(axis=1), 1.0)


class TestBranchFidelities:
    def test_matches_compose_route(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 4):
            for _ in range(3 if n < 4 else 2):
                ch = channel.channel_choi(rand_params(rng, n=n))
                table = channel.branch_fidelities(ch)
                assert table.shape == (n, n)
                want = np.array([
                    [branch_fidelity_via_compose(ch, t, j) for j in range(1, n + 1)]
                    for t in range(1, n + 1)
                ])
                assert np.max(np.abs(table - want)) < 1e-12

    def test_no_crosstalk_closed_form(self):
        # eta = 0: mode t keeps 1 - lam_t/2, every other mode carries I/2
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            lam = tuple(rng.uniform(0, 1, n))
            ch = channel.channel_choi(channel.ChannelParams(n=n, eta=0.0, lam=lam, delta=1.0))
            want = np.full((n, n), 0.5)
            np.fill_diagonal(want, 1.0 - np.asarray(lam) / 2.0)
            assert np.max(np.abs(channel.branch_fidelities(ch) - want)) < 1e-12

    def test_matches_dense_partial_traces(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            for eta in (0.0, 0.37, 1.0):
                params = channel.ChannelParams(
                    n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)),
                    delta=float(rng.uniform(0.2, 3.0)))
                got = channel.branch_fidelities(channel.channel_choi(params))
                want = dense_branch_fidelities(dense_channel_choi(params), n)
                assert np.max(np.abs(got - want)) < 1e-14


class TestSourceWeights:
    """The source-tuple weights of the pattern oracle (``einsum_compose``)."""

    def test_distribution_over_distinct_tuples(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            ch = channel.channel_choi(rand_params(rng, n=n))
            for k in range(1, n + 1):
                for r in itertools.permutations(range(1, n + 1), k):
                    src, w = source_weights(ch, r)
                    assert src.shape == (len(w), k)
                    assert len({tuple(s) for s in src}) == len(src)
                    assert all(len(set(s)) == k for s in src)
                    assert w.min() > 0.0 and abs(w.sum() - 1.0) < 1e-12

    def test_single_mode_and_no_crosstalk_read_r(self):
        for params in (channel.ChannelParams(n=1, eta=0.6, lam=(0.3,), delta=1.0),
                       channel.ChannelParams(n=3, eta=0.0, lam=(0.3,) * 3, delta=1.0)):
            src, w = source_weights(channel.channel_choi(params), (1,))
            assert src.tolist() == [[1]] and w.tolist() == [1.0]

    def test_uniform_two_mode_swap(self):
        # delta -> 0 at eta = 1: identity and swap, half each
        ch = channel.channel_choi(channel.ChannelParams(n=2, eta=1.0, lam=(0.0, 0.0), delta=1e-12))
        src, w = source_weights(ch, (1, 2))
        assert src.tolist() == [[1, 2], [2, 1]]
        assert np.allclose(w, 0.5, atol=1e-12)


class TestDenseOracle:
    """The factored cascade, every mode received in a random order, against
    the link product with the dense channel Choi of the test oracle; and
    ``Tr_out`` of the cascade against the weights' sum times ``Tr_out j0``
    (leg permutations leave ``Tr_out`` alone), the identity by which
    ``qumimo validate`` checks trace preservation without the cascade."""

    def test_compose_sweep(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4):
            for eta in (0.0, 0.37, 1.0):
                params = channel.ChannelParams(
                    n=n, eta=eta, lam=tuple(rng.uniform(0, 1, n)),
                    delta=float(rng.uniform(0.2, 3.0)))
                chan, dense = channel.channel_choi(params), dense_channel_choi(params)
                for m in range(1, n + 1):
                    enc = cloner.cloner_choi(tuple(rng.dirichlet(np.ones(m))))
                    for _ in range(2):
                        t = tuple(int(x) + 1 for x in rng.permutation(n)[:m])
                        r = tuple(int(x) + 1 for x in rng.permutation(n))
                        emap = decoder.compose_effective_map(enc, chan, t, r)
                        got = dense_cascade(emap)
                        assert np.max(np.abs(got - dense_compose(enc, dense, n, t, r))) < 1e-14
                        tr_out = [np.trace(x.reshape(2, 2 ** n, 2, 2 ** n), axis1=1, axis2=3)
                                  for x in (got, emap.j0)]
                        assert np.max(np.abs(tr_out[0] - emap.weights.sum() * tr_out[1])) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    def test_design_route_sweep(self, n, eta):
        # a design's blocks (its channel's pieces contracted) are build_qr of
        # its cascade, and its realized values (its corner traces weighted
        # per lambda row) are evaluate_decoder on build_qr of each realized
        # cascade: random lambda, a corner of the lambda cube, random modes
        # and random PSD decoders
        rng = np.random.default_rng(20 * n + int(100 * eta))
        delta = float(rng.uniform(0.2, 3.0))
        lams = [tuple(rng.uniform(0, 1, n)) for _ in range(2)] + [
            tuple(float(x) for x in rng.integers(0, 2, n))]
        chans = [channel.channel_choi(channel.ChannelParams(n=n, eta=eta, lam=lam, delta=delta))
                 for lam in lams]
        for m in sorted({1, n}):
            t = tuple(int(x) + 1 for x in rng.permutation(n)[:m])
            r = tuple(int(x) + 1 for x in rng.permutation(n))
            design = decoder.design_at(tuple(rng.dirichlet(np.ones(m))), chans[0], t, r)
            want = [decoder.build_qr(decoder.compose_effective_map(design.enc, ch, t, r))
                    for ch in chans]
            assert np.max(np.abs(design.qr.qt - want[0].qt)) < 1e-14
            assert np.max(np.abs(design.qr.rt - want[0].rt)) < 1e-14
            vecs = np.linalg.qr(rng.normal(size=(3,) + design.qr.qt.shape))[0]
            js = (vecs * rng.uniform(0, 1, (3, 1, len(vecs[0])))) @ vecs.swapaxes(1, 2)
            got = decoder.realized_values(design, chans[0], np.array(lams), js)
            ref = [[decoder.evaluate_decoder(j, qr) for j in js] for qr in want]
            assert np.max(np.abs(got - np.transpose(ref, (2, 0, 1)))) < 1e-14
