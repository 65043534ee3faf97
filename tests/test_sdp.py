import numpy as np
import pytest

from qumimo import channel, cloner, decoder, sdp
from qumimo.errors import DimensionLimitError, NotHermitianError, SolverError
from reference_ops import SIGMA_X, covariant_stack, dense_purification_stack, stack_entry


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def lambda_max_problem(c):
    return [c], [np.eye(len(c))[None]], [1.0]


class TestSolve:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            sdp.solve(*lambda_max_problem(bad))
        with pytest.raises(NotHermitianError):
            sdp.solve([np.eye(2)], [bad[None]], [1.0])

    def test_diagonal_objective(self):
        sol = sdp.solve(*lambda_max_problem(np.diag([1.0, 2.0])))
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.value - 2.0) < 1e-7
        x = sol.X_blocks[0]
        assert abs(x[1, 1] - 1.0) < 1e-6 and abs(x[0, 0]) < 1e-6

    def test_sigma_x_objective(self):
        sol = sdp.solve(*lambda_max_problem(SIGMA_X.real))
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.value - 1.0) < 1e-7

    def test_eigenvalue_oracle_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 33))
            c = random_symmetric(rng, n)
            sol = sdp.solve(*lambda_max_problem(c))
            lam = np.linalg.eigvalsh(c)[-1]  # independent eigen-oracle
            assert sol.status == sdp.OPTIMAL
            assert abs(sol.value - lam) < 1e-7

    # the solver assumes a feasible, bounded problem: on one that is not,
    # no iterate meets TOL, so it is never reported optimal
    def test_infeasible(self):
        sol = sdp.solve([np.zeros((3, 3))], [np.eye(3)[None]], [-1.0])
        assert sol.status == sdp.MAX_ITER
        assert sol.message

    def test_unbounded(self):
        sol = sdp.solve([np.eye(2)], [np.diag([1.0, -1.0])[None]], [0.0])
        assert sol.status == sdp.MAX_ITER
        assert sol.message

    def test_multiblock_coupling(self):
        # maximize Tr[C X] s.t. Tr[X] + Tr[S] = 1 with both PSD:
        # optimum puts all mass on the larger top-eigenvalue block.
        c = np.diag([1.0, 3.0])
        eye = np.eye(2)[None]
        sol = sdp.solve([c, np.zeros((2, 2))], [eye, eye], [1.0])
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.value - 3.0) < 1e-7

    def test_scaling_invariance_of_argmax(self):
        rng = np.random.default_rng(2)
        c = random_symmetric(rng, 6)
        sol1 = sdp.solve(*lambda_max_problem(c))
        sol5 = sdp.solve(*lambda_max_problem(5.0 * c))
        assert abs(sol5.value - 5.0 * sol1.value) < 1e-6
        assert np.max(np.abs(sol5.X_blocks[0] - sol1.X_blocks[0])) < 1e-6

    def test_dual_value_within_certified_gap(self):
        # an optimal stop certifies a relative gap of at most TOL between
        # its primal and dual objectives, on the eigenvalue problems and on
        # the covariant decoder problems
        rng = np.random.default_rng(3)
        probs = [lambda_max_problem(random_symmetric(rng, n)) for n in (2, 5, 8, 12)]
        for k in range(1, 6):
            for p in (0.6, 1.0):
                stack = covariant_stack(decoder_cascades(k, 2, seed=40 + 10 * k + int(10 * p)), p)
                probs += [stack_entry(stack, i) for i in range(2)]
        for prob in probs:
            sol = sdp.solve(*prob)
            assert sol.status == sdp.OPTIMAL
            scale = 1.0 + abs(sol.value) + abs(sol.dual_value)
            assert abs(sol.dual_value - sol.value) <= sdp.TOL * scale

    def test_dimension_cap(self):
        n = 300  # total block dimension 300 > 256
        with pytest.raises(DimensionLimitError):
            sdp.solve(*lambda_max_problem(np.eye(n)))


class TestProblemFormat:
    def test_rejects_mismatched_shapes(self):
        eye2 = np.eye(2)
        with pytest.raises(ValueError, match="constraint stack 0"):
            sdp.solve([eye2], [np.eye(3)[None]], [1.0])
        with pytest.raises(ValueError, match="constraint stack 0"):
            sdp.solve([eye2], [np.stack([eye2, eye2])], [1.0])
        with pytest.raises(ValueError, match="one constraint stack per objective block"):
            sdp.solve([eye2, eye2], [eye2[None]], [1.0])
        with pytest.raises(ValueError, match="rhs"):
            sdp.solve([eye2], [eye2[None]], [[1.0]])

    def test_rejects_non_hermitian_row(self):
        eye2 = np.eye(2)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError, match="constraint 1 block 1"):
            sdp.solve([eye2, eye2], [np.stack([eye2, eye2]), np.stack([eye2, bad])], [1.0, 2.0])

    @pytest.mark.parametrize("field", ["objective", "constraints", "rhs"])
    def test_rejects_complex_data(self, field):
        # complex data, even with a zero imaginary part, are refused: a cast
        # to float64 would drop an imaginary part with only a warning
        data = {"objective": [np.eye(2)], "constraints": [np.eye(2)[None]], "rhs": [1.0]}
        data[field] = [x + 0j for x in data[field]]
        with pytest.raises(TypeError, match=f"{field} data complex"):
            sdp.solve(**data)

    def test_strided_rhs_solves_bit_for_bit(self):
        # The K = 3 decoder problems at p = 1 of two cascades, their rhs
        # the traces of the units read through a strided .real view, solve
        # bit for bit as with a contiguous copy: no rounding of the solver
        # follows the memory layout of its data.
        enc = cloner.cloner_choi((0.2, 0.3, 0.5))
        c = np.stack([decoder.build_qr(decoder.compose_effective_map(enc, channel.channel_choi(
            channel.ChannelParams(n=3, eta=eta, lam=(0.1, 0.3, 0.2), delta=1.0)),
            (1, 2, 3), (1, 2, 3))).qt for eta in (0.6, 0.3)])
        a, e, _ = decoder._covariant_rows(3)[0]
        view = np.trace(np.stack([e, e]).astype(complex), axis1=2, axis2=3).real
        assert not view.flags.c_contiguous
        for sol_view, sol_copy in zip(sdp.solve_many([c], [a], view),
                                      sdp.solve_many([c], [a], view.copy())):
            assert sol_view.status == sdp.OPTIMAL
            assert_same_solution(sol_view, sol_copy)


def decoder_cascades(k, count, seed):
    """The reduced operators of random K-mode cascades."""
    rng = np.random.default_rng(seed)
    modes = tuple(range(1, k + 1))
    out = []
    for _ in range(count):
        params = channel.ChannelParams(n=k, eta=float(rng.uniform(0, 1)),
                                       lam=tuple(rng.uniform(0, 0.9, k)), delta=1.0)
        enc = cloner.cloner_choi(tuple(rng.dirichlet(np.ones(k))))
        out.append(decoder.build_qr(decoder.compose_effective_map(
            enc, channel.channel_choi(params), modes, modes)))
    return out


def take(stack, order):
    """The problems ``order`` of a stack, every block with a stack axis."""
    objective, constraints, rhs = stack
    return ([np.broadcast_to(c, rhs.shape[:1] + c.shape[-2:])[order] for c in objective],
            [np.broadcast_to(a, rhs.shape[:1] + a.shape[-3:])[order] for a in constraints],
            rhs[order])


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
        # is in its stack, nor on its place there, nor on whether a block
        # is shared by the stack (the decoder's stack shares its E block
        # and zero objective at p < 1, its A block at p = 1) or replicated
        shared = covariant_stack(decoder_cascades(k, 4, seed=10 * k + int(10 * p)), p)
        alone = [sdp.solve(*stack_entry(shared, i)) for i in range(4)]
        stacks = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0], [1, 1, 3, 0, 2, 3]]
        runs = [(order, take(shared, order)) for order in stacks] + [(range(4), shared)]
        for order, stack in runs:
            for i, sol in zip(order, sdp.solve_many(*stack)):
                assert_same_solution(sol, alone[i])

    def test_batch_invariance_complex(self):
        # the dense route: the full-space decoder problem, 8 + 4 wide with
        # 11 rows
        stack = dense_purification_stack([
            decoder.build_qr(decoder.compose_effective_map(
                cloner.cloner_choi(g), channel.channel_choi(channel.ChannelParams(
                    n=2, eta=eta, lam=lam, delta=1.0)), (1, 2), (1, 2)))
            for g, eta, lam in [((0.3, 0.7), 0.4, (0.1, 0.5)), ((0.5, 0.5), 0.9, (0.3, 0.2)),
                                ((0.8, 0.2), 0.0, (0.6, 0.05))]], 0.7)
        assert stack[1][0].shape == (3, 11, 8, 8)
        alone = [sdp.solve(*stack_entry(stack, i)) for i in range(3)]
        for order in ([0, 1, 2], [2, 0, 1, 0]):
            for i, sol in zip(order, sdp.solve_many(*take(stack, order))):
                assert_same_solution(sol, alone[i])

    def test_mixed_statuses(self):
        # an infeasible and an unbounded problem beside feasible ones of the
        # same shape: the two end max_iter, the feasible keep their optima,
        # and every row is bit for bit its solve alone
        rng = np.random.default_rng(6)
        eye = np.eye(3)
        feasible = [random_symmetric(rng, 3) for _ in range(3)]
        stack = ([np.stack([feasible[0], np.zeros((3, 3)), feasible[1], eye, feasible[2]])],
                 [np.stack([eye, eye, eye, np.diag([1.0, -1.0, 0.0]), eye])[:, None]],
                 np.array([[1.0], [-1.0], [1.0], [0.0], [1.0]]))
        sols = sdp.solve_many(*stack)
        assert [s.status for s in sols] == [sdp.OPTIMAL, sdp.MAX_ITER, sdp.OPTIMAL,
                                            sdp.MAX_ITER, sdp.OPTIMAL]
        for c, sol in zip(feasible, sols[::2]):
            assert abs(sol.value - np.linalg.eigvalsh(c)[-1]) < 1e-7
        for i, sol in enumerate(sols):
            assert_same_solution(sol, sdp.solve(*stack_entry(stack, i)))

    def test_rejects_mixed_shapes(self):
        # a block's stack axis must hold one entry per row of rhs, and its
        # matrices one width; an empty stack solves to no solutions
        eye2, rhs = np.eye(2), np.ones((3, 1))
        with pytest.raises(ValueError, match="objective block 0"):
            sdp.solve_many([np.stack([eye2, eye2])], [eye2[None]], rhs)
        with pytest.raises(ValueError, match="constraint stack 0"):
            sdp.solve_many([eye2], [np.stack([eye2[None], eye2[None]])], rhs)
        with pytest.raises(ValueError, match="constraint stack 1"):
            sdp.solve_many([eye2, np.eye(3)], [eye2[None], eye2[None]], rhs)
        assert sdp.solve_many([eye2], [eye2[None]], np.ones((0, 1))) == []

    def test_block_that_does_not_factor_leaves_the_stack(self, monkeypatch):
        # a row whose merged [X, S] factors but one of whose blocks does
        # not: it ends max_iter, and no LinAlgError escapes the stack.  The
        # factorization is patched to refuse one row's J block (2 x 6 x 6
        # at K = 3) at the third iteration, wherever that block is met
        stack = covariant_stack(decoder_cascades(3, 3, seed=26), 0.6)
        alone = [sdp.solve(*stack_entry(stack, i)) for i in range(3)]
        cholesky, bad, calls = np.linalg.cholesky, [], [0]

        def refusing(x):
            if x.ndim == 4 and x.shape[-1] == 6:
                calls[0] += 1
                if calls[0] == 3:
                    bad.append(x[1].copy())
            if bad and any(v.shape == bad[0].shape and np.array_equal(v, bad[0])
                           for v in (x, *x.reshape(-1, *x.shape[-3:]))):
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(x)

        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        sols = sdp.solve_many(*stack)
        assert bad and sols[1].status == sdp.MAX_ITER
        assert sols[1].message == "iterate lost positive definiteness"
        assert sols[1].iterations == 3
        for i in (0, 2):
            assert_same_solution(sols[i], alone[i])

    def test_unreachable_tol_is_not_optimal(self, monkeypatch):
        # no iterate meets TOL = 0, so no problem is certified: each ends
        # max_iter through a stop of its own, bit for bit as when solved
        # alone, and the decoder raises rather than use such a map
        monkeypatch.setattr(sdp, "TOL", 0.0)
        rng = np.random.default_rng(7)
        stack = ([np.stack([random_symmetric(rng, 6) for _ in range(3)])], [np.eye(6)[None]],
                 np.ones((3, 1)))
        for i, sol in enumerate(sdp.solve_many(*stack)):
            assert sol.status == sdp.MAX_ITER
            assert sol.message
            assert_same_solution(sol, sdp.solve(*stack_entry(stack, i)))
        qr = decoder.build_qr(decoder.compose_effective_map(
            cloner.cloner_choi((0.4, 0.6)),
            channel.channel_choi(channel.ChannelParams(n=2, eta=0.5, lam=(0.2, 0.3), delta=1.0)),
            (1, 2), (1, 2)))
        with pytest.raises(SolverError, match="purification SDP"):
            decoder.purification_sdps([(qr, 0.8)])
