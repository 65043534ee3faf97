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

    def test_weak_duality_each_iteration(self):
        # internal min form: dual <= primal; reported gap covers the gap,
        # so (max convention) dual >= primal - gap at every logged step.
        rng = np.random.default_rng(3)
        sol = sdp.solve(lambda_max_problem(random_hermitian(rng, 8)))
        for pobj, dobj, relgap, _, _, _ in sol.iteration_log:
            primal_ext, dual_ext = -pobj, -dobj
            gap = abs(primal_ext - dual_ext)
            assert dual_ext >= primal_ext - gap - 1e-15

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
