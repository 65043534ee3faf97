import numpy as np
import pytest

import cloner_oracle as oracle
from qumimo import cloner
from qumimo.errors import DimensionLimitError, SimplexError
from qumimo.tensor import I2, PHI_UNNORM, dagger
from reference_ops import ModeSpace, haar_qubit, partial_trace, projector

UNIT3 = 1.0 / np.sqrt(3.0)


def weight_matrix(gamma) -> np.ndarray:
    """Rank-one-plus-diagonal weight matrix ``alpha 1^T + diag(alpha)``,
    whose Perron vector ``clone_amplitudes`` scales to ``beta``."""
    gamma = cloner.AsymmetryVector(tuple(gamma))
    alpha = np.asarray(gamma.gamma) / sum(gamma.gamma)
    return np.outer(alpha, np.ones(gamma.m)) + np.diag(alpha)


def face_points(m):
    """Vertices and points with one or two zero weights."""
    pts = [tuple(float(i == k) for i in range(m)) for k in range(m)]
    rng = np.random.default_rng(100 + m)
    for zeros in (1, 2):
        if zeros >= m:
            continue
        for _ in range(3):
            g = rng.dirichlet(np.ones(m))
            g[rng.choice(m, zeros, replace=False)] = 0.0
            pts.append(tuple(g / g.sum()))
    return pts


def clone_fidelity_from_choi(j, m, k, psi):
    """Fidelity of clone k for input psi, straight from the Choi."""
    space = ModeSpace.qubits(range(1, m + 2))
    marg = partial_trace(j, space, (1, k + 1))
    rho_in = projector(psi)
    out = np.einsum("iokp,ik->op", marg.reshape(2, 2, 2, 2), rho_in)
    return float(np.real(psi.conj() @ out @ psi))


class TestWeightMatrix:
    def test_symmetric_two(self):
        a = weight_matrix((0.5, 0.5))
        assert np.allclose(a, [[1.0, 0.5], [0.5, 1.0]])

    def test_vertex(self):
        a = weight_matrix((1.0, 0.0))
        assert np.allclose(a, [[2.0, 1.0], [0.0, 0.0]])

    def test_rank_one_plus_diagonal_structure(self):
        rng = np.random.default_rng(0)
        g = rng.dirichlet(np.ones(4))
        a = weight_matrix(tuple(g))
        columns = a - np.diag(g)
        for j in range(4):
            assert np.allclose(columns[:, j], g)

    def test_simplex_violation(self):
        with pytest.raises(SimplexError):
            weight_matrix((0.5, 0.2))
        with pytest.raises(SimplexError):
            weight_matrix((1.2, -0.2))

    def test_nan_is_off_the_simplex(self):
        for gamma in ((float("nan"), 1.0), (0.5, 0.5, float("nan"))):
            with pytest.raises(SimplexError):
                cloner.AsymmetryVector(gamma)
            with pytest.raises(SimplexError):
                cloner.cloner_choi(gamma)

    def test_nan_factor_fails_the_cloner_check(self):
        with pytest.raises(ValueError, match="trace preservation"):
            cloner._validate_cloner(np.full((8, 4), np.nan), 2)

    def test_perron_pair(self):
        # the eigen-solve of the symmetric similar matrix returns the
        # Perron pair of A itself, faces included: beta is a nonnegative
        # eigenvector of A whose eigenvalue is A's spectral radius
        rng = np.random.default_rng(12)
        points = [tuple(rng.dirichlet(np.ones(m))) for m in (1, 2, 3, 4, 5) for _ in range(20)]
        points += [g for m in (2, 3, 4, 5) for g in face_points(m)]
        for g in points:
            beta = np.asarray(cloner.clone_amplitudes(g).beta)
            u = beta / np.linalg.norm(beta)
            value = u @ weight_matrix(g) @ u
            assert np.all(u >= 0)
            assert np.max(np.abs(weight_matrix(g) @ u - value * u)) < 1e-12
            assert value >= np.max(np.abs(np.linalg.eigvals(weight_matrix(g)))) - 1e-12


class TestCloneAmplitudes:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rows_match_the_per_point_route(self, m):
        # the stacked form gives the earlier one-gamma-at-a-time arithmetic
        # bit for bit on the gamma search's lattice, faces and polish grid
        rng = np.random.default_rng(30 + m)
        points = cloner.simplex_grid(m, 20) + face_points(m)
        points += [tuple(c / 640 for c in rng.multinomial(640, rng.dirichlet(np.ones(m))))
                   for _ in range(200)]
        beta = cloner._amplitude_rows(points)
        for i, g in enumerate(points):
            want = oracle.per_point_amplitudes(g)
            assert tuple(beta[i]) == want
            if i % 50 == 0:
                assert cloner.clone_amplitudes(g).beta == want

    def test_symmetric_two(self):
        # power iteration on [[1,.5],[.5,1]] gives u = (1,1)/sqrt(2);
        # scale sqrt(2/((sqrt2)^2+1)) = sqrt(2/3)
        amp = cloner.clone_amplitudes((0.5, 0.5))
        assert np.allclose(amp.beta, [UNIT3, UNIT3], atol=1e-10)

    def test_vertex(self):
        amp = cloner.clone_amplitudes((1.0, 0.0))
        assert np.allclose(amp.beta, [1.0, 0.0], atol=1e-12)

    def test_symmetric_three(self):
        amp = cloner.clone_amplitudes((1 / 3, 1 / 3, 1 / 3))
        assert np.allclose(amp.beta, [1 / np.sqrt(6)] * 3, atol=1e-10)

    def test_normalization_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = int(rng.integers(2, 6))
            beta = np.asarray(cloner.clone_amplitudes(tuple(rng.dirichlet(np.ones(m)))).beta)
            assert abs(beta @ beta + beta.sum() ** 2 - 2.0) < 1e-9


class TestCloneFidelities:
    def test_symmetric_two(self):
        f = cloner.clone_fidelities((0.5, 0.5)).fidelities
        assert np.allclose(f, [5 / 6, 5 / 6], atol=1e-10)

    def test_vertex(self):
        f = cloner.clone_fidelities((1.0, 0.0)).fidelities
        assert np.allclose(f, [1.0, 0.5], atol=1e-10)

    def test_symmetric_three(self):
        f = cloner.clone_fidelities((1 / 3, 1 / 3, 1 / 3)).fidelities
        assert np.allclose(f, [7 / 9] * 3, atol=1e-10)

    def test_symmetric_closed_form(self):
        for m in (2, 3, 4):
            f = cloner.clone_fidelities(tuple([1 / m] * m)).fidelities
            assert np.allclose(f, (2 * m + 1) / (3 * m), atol=1e-6)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            f = np.asarray(cloner.clone_fidelities(tuple(rng.dirichlet(np.ones(m)))).fidelities)
            assert np.all(f >= 0.5 - 1e-12) and np.all(f <= 1.0 + 1e-12)

    def test_monotone_in_own_weight(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            g = rng.dirichlet(np.ones(m))
            k = int(rng.integers(m))
            bump = np.array(g)
            bump[k] += 0.05
            bump /= bump.sum()
            f0 = cloner.clone_fidelities(tuple(g)).fidelities[k]
            f1 = cloner.clone_fidelities(tuple(bump)).fidelities[k]
            assert f1 >= f0 - 1e-8


class TestClonerChoi:
    def test_single_clone_is_identity_channel(self):
        ch = cloner.cloner_choi((1.0,))
        assert np.max(np.abs(ch.choi - PHI_UNNORM)) < 1e-6

    def test_symmetric_two_fidelity(self):
        ch = cloner.cloner_choi((0.5, 0.5))
        assert np.allclose(ch.fidelities, [5 / 6, 5 / 6], atol=1e-6)

    def test_asymmetric_two_against_analytic(self):
        # analytic M=2 cloner oracle: alpha^2 + beta^2 + alpha beta = 1,
        # F_A = 1 - beta^2/2, F_B = 1 - alpha^2/2
        gamma = (0.8, 0.2)
        beta = np.asarray(cloner.clone_amplitudes(gamma).beta)
        assert abs(beta[0] ** 2 + beta[1] ** 2 + beta[0] * beta[1] - 1.0) < 1e-9
        ch = cloner.cloner_choi(gamma)
        assert abs(ch.fidelities[0] - (1 - beta[1] ** 2 / 2)) < 1e-6
        assert abs(ch.fidelities[1] - (1 - beta[0] ** 2 / 2)) < 1e-6

    def test_symmetric_two_against_stinespring_state(self):
        """Independent oracle: the explicit symmetric Stinespring state
        |Psi> = a |psi>_A |Phi+>_BE + a |psi>_B |Phi+>_AE, a = 1/sqrt(3),
        reproduces the 5/6 marginals for Haar inputs."""
        rng = np.random.default_rng(4)
        a = UNIT3
        for _ in range(20):
            psi = haar_qubit(rng)
            phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
            # qubit order (A, B, E)
            term_a = np.einsum("a,be->abe", psi, phi_plus.reshape(2, 2))
            term_b = np.einsum("b,ae->abe", psi, phi_plus.reshape(2, 2))
            state = (a * term_a + a * term_b).reshape(-1)
            rho = projector(state)
            space = ModeSpace.qubits("ABE")
            for label in "AB":
                marg = partial_trace(rho, space, (label,))
                fid = float(np.real(psi.conj() @ marg @ psi))
                assert abs(fid - 5 / 6) < 1e-12

    def test_choi_matches_closed_form_sweep(self):
        # the SDP oracle reaches the closed-form fidelities
        rng = np.random.default_rng(5)
        for trial in range(50):
            m = 2 if trial % 2 == 0 else 3
            g = tuple(rng.dirichlet(np.ones(m)))
            ch = oracle.cloner_choi_sdp(g)
            cf = cloner.clone_fidelities(g).fidelities
            assert np.max(np.abs(np.asarray(ch.fidelities) - np.asarray(cf))) < 1e-6

    def test_invariants(self):
        ch = cloner.cloner_choi((0.6, 0.3, 0.1))
        space = ModeSpace.qubits(range(1, 5))
        assert np.linalg.eigvalsh(ch.choi)[0] >= -1e-9
        assert np.max(np.abs(partial_trace(ch.choi, space, (1,)) - I2)) < 1e-8

    def test_universality_constant_fidelity(self):
        ch = cloner.cloner_choi((0.7, 0.3))
        rng = np.random.default_rng(6)
        for k in (1, 2):
            fids = [
                clone_fidelity_from_choi(ch.choi, 2, k, haar_qubit(rng))
                for _ in range(100)
            ]
            assert max(fids) - min(fids) < 1e-6
            assert abs(np.mean(fids) - ch.fidelities[k - 1]) < 1e-6


def stinespring_factor(gamma):
    """The factor ``X`` of ``cloner_choi``: ``J = X X^T / M``."""
    beta = np.asarray(cloner.clone_amplitudes(gamma).beta)
    return np.tensordot(beta, cloner._stinespring_basis(len(beta)), axes=1)


class TestFactorCheck:
    """``cloner._validate_cloner`` checks the build on its Stinespring
    factor; the Choi-form check runs on the oracle's SDP cloner."""

    def test_rejects_trace_violation(self):
        x = stinespring_factor((0.6, 0.3, 0.1))
        with pytest.raises(ValueError, match="trace preservation"):
            cloner._validate_cloner(1.01 * x, 3)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rejects_non_isotropic_marginal(self, m):
        # swapping the clones' basis states |0..01> and |0..10> for input
        # |0> keeps Tr_out J = I_2 but breaks covariance
        x = stinespring_factor(tuple(np.random.default_rng(m).dirichlet(np.ones(m))))
        x[[1, 2]] = x[[2, 1]]
        with pytest.raises(ValueError, match="marginal not isotropic"):
            cloner._validate_cloner(x, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rejects_rotated_clone_leg(self, m):
        # a small real rotation of one clone's leg acts on the output alone,
        # so Tr_out J = I_2 holds, but it breaks that clone's isotropy; the
        # projector and the earlier least-squares fit both name that clone
        rng = np.random.default_rng(40 + m)
        x = stinespring_factor(tuple(rng.dirichlet(np.ones(m))))
        for check in (cloner._validate_cloner, oracle.least_squares_factor_check):
            check(x, m)
        k = int(rng.integers(1, m + 1))
        c, s = np.cos(0.01), np.sin(0.01)
        rotated = (np.array([[c, -s], [s, c]]) @ x.reshape(2 ** k, 2, -1)).reshape(x.shape)
        for check in (cloner._validate_cloner, oracle.least_squares_factor_check):
            with pytest.raises(ValueError, match=f"^clone {k} marginal not isotropic$"):
                check(rotated, m)

    def test_marginals_match_partial_trace(self):
        rng = np.random.default_rng(17)
        points = [tuple(rng.dirichlet(np.ones(m))) for m in (1, 2, 3, 4, 5) for _ in range(3)]
        points += [g for m in (2, 3, 4, 5) for g in face_points(m)]
        for g in points:
            m = len(g)
            x = stinespring_factor(g)
            j = cloner.cloner_choi(g).choi
            space = ModeSpace.qubits(range(1, m + 2))
            for k, marg in enumerate(cloner._clone_marginals(x, m), start=1):
                assert np.max(np.abs(marg - partial_trace(j, space, (1, k + 1)))) < 1e-14

    def test_oracle_checks_the_choi(self):
        j = cloner.cloner_choi((0.6, 0.3, 0.1)).choi
        space = ModeSpace.qubits(range(1, 5))
        oracle.validate_cloner_choi(j, 3, space)
        with pytest.raises(ValueError, match="eigenvalue floor"):
            oracle.validate_cloner_choi(j - 1e-8 * np.eye(16), 3, space)


class TestTwirl:
    def test_projection_idempotent(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (a + dagger(a)) / 2
        once = oracle.twirl_permutation_algebra(h, 3)
        twice = oracle.twirl_permutation_algebra(once, 3)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_fixed_point_in_span(self):
        # an element already in span{P_sigma} is untouched
        from reference_ops import perm_basis_map

        dim = 8
        el = np.zeros((dim, dim), dtype=complex)
        for perm, w in [((1, 2, 3), 0.5), ((2, 1, 3), 0.3), ((3, 2, 1), 0.2)]:
            qmap = perm_basis_map(perm, 3)
            el[qmap, np.arange(dim)] += w
        out = oracle.twirl_permutation_algebra(el, 3)
        assert np.max(np.abs(out - el)) < 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = (a + dagger(a)) / 2
        out = oracle.twirl_permutation_algebra(h, 4)
        assert abs(np.trace(out) - np.trace(h)) < 1e-9

    def test_output_commutes_with_tensor_unitaries(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out = oracle.twirl_permutation_algebra((a + dagger(a)) / 2, 3)
        for _ in range(20):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            u, _ = np.linalg.qr(z)
            u3 = np.kron(np.kron(u, u), u)
            comm = out @ u3 - u3 @ out
            assert np.max(np.abs(comm)) < 1e-8

    def test_objective_values_preserved(self):
        gamma = (0.5, 0.3, 0.2)
        g_ops = oracle.fidelity_functionals(3)
        ch = cloner.cloner_choi(gamma)
        space = ModeSpace.qubits(range(1, 5))
        k_op = oracle.partial_transpose(ch.choi, space, (1,))
        k_tw = oracle.twirl_permutation_algebra(k_op, 4)
        j_again = oracle.partial_transpose(k_tw, space, (1,))
        for g_k, f in zip(g_ops, ch.fidelities):
            assert abs(np.real(np.trace(j_again @ g_k)) - f) < 1e-9

    def test_dimension_cap(self):
        with pytest.raises(DimensionLimitError):
            oracle.twirl_permutation_algebra(np.eye(2 ** 7, dtype=complex), 7)


class TestFeasibleBoundary:
    def test_contains_vertices_and_symmetric_point(self):
        pts = cloner.feasible_boundary(2, 0.05)
        fids = {tuple(np.round(p.fidelities, 9)) for p in pts}
        assert (1.0, 0.5) in fids and (0.5, 1.0) in fids
        sym = tuple(np.round([5 / 6, 5 / 6], 9))
        assert sym in fids

    def test_baseline_bound(self):
        for m in (2, 3):
            for p in cloner.feasible_boundary(m, 0.25):
                assert min(p.fidelities) >= 0.5 - 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cloner.feasible_boundary(4, 0.05)
        with pytest.raises(ValueError):
            cloner.feasible_boundary(2, 0.5)

    def test_step_cap(self):
        cap = cloner.MAX_BOUNDARY_STEPS
        assert cloner.boundary_steps(1 / cap) == cap
        with pytest.raises(ValueError, match=f"more than {cap}"):
            cloner.boundary_steps(1 / (cap + 1))


class TestClosedFormConvention:
    """The run-time cloner is the closed-form Stinespring construction,
    continuously extended onto simplex faces."""

    @staticmethod
    def choi_fidelities(ch):
        return np.array([np.real(np.trace(ch.choi @ g)) for g in oracle.fidelity_functionals(ch.m)])

    def test_fidelities_are_closed_form(self):
        rng = np.random.default_rng(13)
        points = [tuple(rng.dirichlet(np.ones(m))) for m in (1, 2, 3, 4, 5) for _ in range(10)]
        points += [g for m in (2, 3, 4, 5) for g in face_points(m)]
        for g in points:
            ch = cloner.cloner_choi(g)
            cf = np.asarray(cloner.clone_fidelities(g).fidelities)
            assert np.max(np.abs(np.asarray(ch.fidelities) - cf)) < 1e-12
            assert np.max(np.abs(self.choi_fidelities(ch) - cf)) < 1e-12

    @pytest.mark.parametrize("gamma", [(0.6, 0.4 - 1e-6, 1e-6, 0.0), (0.512, 0.111, 0.377, 0.0)])
    def test_reported_fidelities_match_composed_cloner(self, gamma):
        # a clone weighted 1e-6, and an unsupported clone, get the
        # fidelity of the cloner that is composed with the channel
        ch = cloner.cloner_choi(gamma)
        cf = np.asarray(cloner.clone_fidelities(gamma).fidelities)
        assert np.max(np.abs(self.choi_fidelities(ch) - cf)) < 1e-9
        assert cf[3] > 0.5 + 1e-3

    def test_continuous_at_faces(self):
        rng = np.random.default_rng(14)
        for m in (2, 3, 4):
            for g in face_points(m):
                d = rng.dirichlet(np.ones(m)) - np.asarray(g)
                j0 = cloner.cloner_choi(g).choi
                steps = []
                for eps in (1e-4, 1e-6, 1e-8):
                    g_eps = tuple(np.asarray(g) + eps * d)
                    steps.append(np.max(np.abs(cloner.cloner_choi(g_eps).choi - j0)) / eps)
                # bounded difference quotient: O(eps), not O(sqrt(eps))
                assert max(steps) < 10.0, (g, steps)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_sdp_oracle_agrees_in_interior(self, m):
        rng = np.random.default_rng(15 + m)
        for _ in range(3 if m < 5 else 1):
            g = tuple(rng.dirichlet(np.ones(m)))
            got = cloner.cloner_choi(g).choi
            want = oracle.cloner_choi_sdp(g).choi
            assert np.max(np.abs(got - want)) < 1e-6

    def test_flat_spectrum(self):
        # eigenvalue 2/M with multiplicity M, zero elsewhere
        rng = np.random.default_rng(16)
        for m in (2, 3, 4, 5):
            w = np.linalg.eigvalsh(cloner.cloner_choi(tuple(rng.dirichlet(np.ones(m)))).choi)
            assert np.allclose(w[-m:], 2.0 / m, atol=1e-12)
            assert np.allclose(w[:-m], 0.0, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(DimensionLimitError):
            cloner.cloner_choi(tuple([1 / 6] * 6))
