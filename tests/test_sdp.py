import numpy as np
import pytest

from qumimo import channel, cloner, decoder, sdp
from qumimo.errors import DimensionLimitError, NotHermitianError
from qumimo.tensor import dagger
from reference_ops import SIGMA_X


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + dagger(a)) / 2


def lambda_max_problem(c):
    n = c.shape[0]
    return sdp.SdpProblem(objective=[c], constraints=[np.eye(n, dtype=complex)[None]], rhs=[1.0])


class TestSolve:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            lambda_max_problem(bad)
        with pytest.raises(NotHermitianError):
            sdp.SdpProblem([np.eye(2, dtype=complex)], [bad[None]], [1.0])

    def test_diagonal_objective(self):
        sol = sdp.solve(lambda_max_problem(np.diag([1.0, 2.0]).astype(complex)))
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.value - 2.0) < 1e-7
        x = sol.X_blocks[0]
        assert abs(x[1, 1] - 1.0) < 1e-6 and abs(x[0, 0]) < 1e-6

    def test_sigma_x_objective(self):
        sol = sdp.solve(lambda_max_problem(SIGMA_X))
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.value - 1.0) < 1e-7

    def test_eigenvalue_oracle_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 33))
            c = random_hermitian(rng, n)
            sol = sdp.solve(lambda_max_problem(c))
            lam = np.linalg.eigvalsh(c)[-1]  # independent eigen-oracle
            assert sol.status == sdp.OPTIMAL
            assert abs(sol.value - lam) < 1e-7

    def test_infeasible(self):
        prob = sdp.SdpProblem(
            [np.zeros((3, 3), dtype=complex)], [np.eye(3, dtype=complex)[None]], [-1.0]
        )
        assert sdp.solve(prob).status == sdp.INFEASIBLE

    def test_unbounded(self):
        prob = sdp.SdpProblem(
            [np.eye(2, dtype=complex)], [np.diag([1.0, -1.0]).astype(complex)[None]], [0.0]
        )
        assert sdp.solve(prob).status == sdp.UNBOUNDED

    def test_multiblock_coupling(self):
        # maximize Tr[C X] s.t. Tr[X] + Tr[S] = 1 with both PSD:
        # optimum puts all mass on the larger top-eigenvalue block.
        c = np.diag([1.0, 3.0]).astype(complex)
        eye = np.eye(2, dtype=complex)[None]
        prob = sdp.SdpProblem([c, np.zeros((2, 2), dtype=complex)], [eye, eye], [1.0])
        sol = sdp.solve(prob)
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.value - 3.0) < 1e-7

    def test_scaling_invariance_of_argmax(self):
        rng = np.random.default_rng(2)
        c = random_hermitian(rng, 6)
        sol1 = sdp.solve(lambda_max_problem(c))
        sol5 = sdp.solve(lambda_max_problem(5.0 * c))
        assert abs(sol5.value - 5.0 * sol1.value) < 1e-6
        assert np.max(np.abs(sol5.X_blocks[0] - sol1.X_blocks[0])) < 1e-6

    def test_dual_value_within_certified_gap(self):
        # an optimal stop certifies a relative gap of at most TOL (SOFT_TOL
        # for a soft accept) between its primal and dual objectives
        rng = np.random.default_rng(3)
        for n in (2, 5, 8, 12):
            c = random_hermitian(rng, n)
            sol = sdp.solve(lambda_max_problem(c))
            assert sol.status == sdp.OPTIMAL
            tol = sdp.SOFT_TOL if sol.message == sdp.SOFT_ACCEPT else sdp.TOL
            scale = 1.0 + abs(sol.value) + abs(sol.dual_value)
            assert abs(sol.dual_value - sol.value) <= tol * scale
            assert sol.gap == abs(sol.value - sol.dual_value)

    def test_dimension_cap(self):
        n = 300  # total block dimension 300 > 256
        with pytest.raises(DimensionLimitError):
            sdp.solve(lambda_max_problem(np.eye(n, dtype=complex)))


class TestProblemFormat:
    def test_rejects_mismatched_shapes(self):
        eye2 = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="constraint stack 0"):
            sdp.SdpProblem([eye2], [np.eye(3, dtype=complex)[None]], [1.0])
        with pytest.raises(ValueError, match="constraint stack 0"):
            sdp.SdpProblem([eye2], [np.stack([eye2, eye2])], [1.0])
        with pytest.raises(ValueError, match="one constraint stack per objective block"):
            sdp.SdpProblem([eye2, eye2], [eye2[None]], [1.0])
        with pytest.raises(ValueError, match="rhs"):
            sdp.SdpProblem([eye2], [eye2[None]], [[1.0]])

    def test_rejects_non_hermitian_row(self):
        eye2 = np.eye(2, dtype=complex)
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError, match="constraint 1 block 1"):
            sdp.SdpProblem([eye2, eye2], [np.stack([eye2, eye2]), np.stack([eye2, bad])],
                           [1.0, 2.0])

    def test_strided_rhs_solves_bit_for_bit(self):
        # The K = 3 decoder problem at p = 1, its rhs the traces of its
        # units read through a strided .real view.  A solve that read the
        # view in place would round differently in its last bits.
        enc = cloner.cloner_choi((0.2, 0.3, 0.5))
        params = channel.ChannelParams(n=3, eta=0.6, lam=(0.1, 0.3, 0.2), delta=1.0)
        chan = channel.channel_choi(params)
        qr = decoder.build_qr(decoder.compose_effective_map(enc, chan, (1, 2, 3), (1, 2, 3)))
        (c, _), _ = decoder.covariant_operators(qr)
        a, e, _ = decoder._covariant_rows(3)
        view = np.trace(e.astype(complex), axis1=1, axis2=2).real
        assert not view.flags.c_contiguous
        sol_view = sdp.solve(sdp.SdpProblem([c], [a], view))
        sol_copy = sdp.solve(sdp.SdpProblem([c], [a], view.copy()))
        assert sol_view.status == sol_copy.status == sdp.OPTIMAL
        assert sol_view.iterations == sol_copy.iterations
        assert sol_view.value == sol_copy.value
        assert np.array_equal(sol_view.X_blocks[0], sol_copy.X_blocks[0])


class TestVerify:
    def test_reports_clean_solution(self):
        rng = np.random.default_rng(4)
        c = random_hermitian(rng, 8)
        prob = lambda_max_problem(c)
        sol = sdp.solve(prob)
        report = sdp.verify(prob, sol)
        assert report.feasible
        assert report.gap <= 1e-6
        assert len(report.constraint_residuals) == 1
        assert report.psd_floor >= -1e-8

    def test_flags_constructed_violation(self):
        rng = np.random.default_rng(5)
        c = random_hermitian(rng, 4)
        prob = lambda_max_problem(c)
        sol = sdp.solve(prob)
        bad = sdp.SdpSolution(
            X_blocks=[sol.X_blocks[0] + 0.1 * np.eye(4)],
            y=sol.y, status=sdp.OPTIMAL, gap=sol.gap,
            iterations=sol.iterations, value=sol.value, dual_value=sol.dual_value,
        )
        assert not sdp.verify(prob, bad).feasible


def decoder_problems(k, p, count, seed):
    """Covariant decoder problems of random K-mode cascades at p."""
    rng = np.random.default_rng(seed)
    modes = tuple(range(1, k + 1))
    out = []
    for _ in range(count):
        params = channel.ChannelParams(n=k, eta=float(rng.uniform(0, 1)),
                                       lam=tuple(rng.uniform(0, 0.9, k)), delta=1.0)
        enc = cloner.cloner_choi(tuple(rng.dirichlet(np.ones(k))))
        qr = decoder.build_qr(decoder.compose_effective_map(
            enc, channel.channel_choi(params), modes, modes))
        out.append(decoder._covariant_problem(qr, p))
    return out


def assert_same_solution(a, b):
    assert (a.status, a.message, a.iterations) == (b.status, b.message, b.iterations)
    assert a.value == b.value and a.dual_value == b.dual_value
    assert np.array_equal(a.y, b.y)
    assert len(a.X_blocks) == len(b.X_blocks)
    assert all(np.array_equal(x, y) for x, y in zip(a.X_blocks, b.X_blocks))


class TestStack:
    """``solve_many``: one interior-point run for a stack of problems."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0.6, 1.0])
    def test_batch_invariance(self, k, p):
        # bit for bit: a problem's solution does not depend on what else
        # is in its stack, nor on its place there
        probs = decoder_problems(k, p, 4, seed=10 * k + int(10 * p))
        alone = [sdp.solve(prob) for prob in probs]
        stacks = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0], [1, 1, 3, 0, 2, 3]]
        for order in stacks:
            for i, sol in zip(order, sdp.solve_many([probs[i] for i in order])):
                assert_same_solution(sol, alone[i])

    def test_batch_invariance_complex(self):
        # the complex Hermitian (dense) route: the full-space decoder problem
        probs = [decoder.dense_purification_problem(qr, 0.7) for qr in (
            decoder.build_qr(decoder.compose_effective_map(
                cloner.cloner_choi(g), channel.channel_choi(channel.ChannelParams(
                    n=2, eta=eta, lam=lam, delta=1.0)), (1, 2), (1, 2)))
            for g, eta, lam in [((0.3, 0.7), 0.4, (0.1, 0.5)), ((0.5, 0.5), 0.9, (0.3, 0.2)),
                                ((0.8, 0.2), 0.0, (0.6, 0.05))])]
        assert all(np.iscomplexobj(prob.constraints[0]) for prob in probs)
        alone = [sdp.solve(prob) for prob in probs]
        for order in ([0, 1, 2], [2, 0, 1, 0]):
            for i, sol in zip(order, sdp.solve_many([probs[i] for i in order])):
                assert_same_solution(sol, alone[i])

    def test_mixed_statuses(self):
        # an infeasible and an unbounded problem beside feasible ones of the
        # same shape: each keeps its own status, the feasible their optima
        rng = np.random.default_rng(6)
        eye = np.eye(3, dtype=complex)
        infeasible = sdp.SdpProblem([np.zeros((3, 3), dtype=complex)], [eye[None]], [-1.0])
        unbounded = sdp.SdpProblem([eye], [np.diag([1.0, -1.0, 0.0]).astype(complex)[None]], [0.0])
        feasible = [lambda_max_problem(random_hermitian(rng, 3)) for _ in range(3)]
        stack = [feasible[0], infeasible, feasible[1], unbounded, feasible[2]]
        sols = sdp.solve_many(stack)
        assert [s.status for s in sols] == [sdp.OPTIMAL, sdp.INFEASIBLE, sdp.OPTIMAL,
                                            sdp.UNBOUNDED, sdp.OPTIMAL]
        for prob, sol in zip(feasible, sols[::2]):
            assert abs(sol.value - np.linalg.eigvalsh(prob.objective[0])[-1]) < 1e-7
        for prob, sol in zip(stack, sols):
            assert_same_solution(sol, sdp.solve(prob))

    def test_rejects_mixed_shapes(self):
        eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
        base = sdp.SdpProblem([eye2], [eye2[None]], [1.0])
        others = [
            sdp.SdpProblem([eye3], [eye3[None]], [1.0]),  # block size
            sdp.SdpProblem([eye2], [np.stack([eye2, eye2])], [1.0, 2.0]),  # constraints
            sdp.SdpProblem([eye2.real], [eye2.real[None]], [1.0]),  # dtype
            sdp.SdpProblem([eye2, eye2], [eye2[None], eye2[None]], [1.0]),  # blocks
        ]
        for other in others:
            with pytest.raises(ValueError, match="must share"):
                sdp.solve_many([base, other])
        assert sdp.solve_many([]) == []

    def test_soft_accept_message(self, monkeypatch):
        # no iterate meets TOL = 0: each problem stalls in numerical noise
        # and leaves with its best iterate, accepted at SOFT_TOL; the
        # benchmark's tracer counts these by the message's wording
        monkeypatch.setattr(sdp, "TOL", 0.0)
        rng = np.random.default_rng(7)
        probs = [lambda_max_problem(random_hermitian(rng, 6)) for _ in range(3)]
        for prob, sol in zip(probs, sdp.solve_many(probs)):
            assert sol.status == sdp.OPTIMAL
            assert "relaxed tolerance" in sol.message
            assert abs(sol.value - np.linalg.eigvalsh(prob.objective[0])[-1]) < 1e-7
            assert_same_solution(sol, sdp.solve(prob))
