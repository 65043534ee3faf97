from functools import reduce
from math import comb

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from cloner_oracle import partial_transpose
from qumimo import tensor
from qumimo.errors import DimensionLimitError, NotHermitianError, NotPsdError
from qumimo.tensor import I2, PHI_UNNORM, SWAP2, dagger
from reference_ops import (
    SIGMA_X,
    SIGMA_Z,
    LabelError,
    ModeSpace,
    haar_qubit,
    hermitian_eig,
    kron,
    partial_trace,
    perm_basis_map,
    projector,
    psd_sqrt_pinv,
)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + dagger(a)) / 2


def brute_partial_trace(x, dims, keep):
    """Independent index-summation oracle for partial traces."""
    n = len(dims)
    keep = list(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    full = [range(d) for d in dims]
    import itertools

    def flat(idx):
        val = 0
        for i, d in enumerate(dims):
            val = val * d + idx[i]
        return val

    def kept_flat(idx):
        val = 0
        for i in keep:
            val = val * dims[i] + idx[i]
        return val

    for row in itertools.product(*full):
        for col in itertools.product(*full):
            if all(row[i] == col[i] for i in traced):
                out[kept_flat(row), kept_flat(col)] += x[flat(row), flat(col)]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_sigma_z_identity(self):
        assert np.array_equal(kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # oracle: direct multiplication of the traces
        expected = np.trace(a) * np.trace(b)
        assert abs(np.trace(kron(a, b)) - expected) < 1e-12

    def test_dimension_cap(self):
        big = np.eye(2 ** 7)
        with pytest.raises(DimensionLimitError):
            kron(big, big, dim_cap=2 ** 13)


class TestPartialTrace:
    def test_bell_marginal(self):
        space = ModeSpace.qubits((1, 2))
        bell = PHI_UNNORM / 2.0
        assert np.allclose(partial_trace(bell, space, (1,)), I2 / 2)

    def test_product_rule(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        space = ModeSpace.qubits((1, 2))
        assert np.allclose(partial_trace(np.kron(a, b), space, (1,)), a * np.trace(b))

    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        x = random_hermitian(rng, 4)
        space = ModeSpace.qubits(("a", "b"))
        for keep, axes in [(("a",), [0]), (("b",), [1]), (("a", "b"), [0, 1])]:
            got = partial_trace(x, space, keep)
            want = brute_partial_trace(x, [2, 2], axes)
            assert np.allclose(got, want, atol=1e-13)
            assert abs(np.trace(got) - np.trace(x)) < 1e-12

    def test_three_qubit_reorder(self):
        rng = np.random.default_rng(3)
        x = random_hermitian(rng, 8)
        space = ModeSpace.qubits((1, 2, 3))
        got = partial_trace(x, space, (3, 1))
        ref = brute_partial_trace(x, [2, 2, 2], [2, 0])
        assert np.allclose(got, ref, atol=1e-13)

    def test_unknown_label(self):
        space = ModeSpace.qubits((1, 2))
        with pytest.raises(LabelError):
            partial_trace(np.eye(4), space, (7,))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        space = ModeSpace.qubits((1, 2))
        assert np.allclose(partial_transpose(partial_transpose(x, space, (1,)), space, (1,)), x)

    def test_swap_becomes_phi(self):
        # explicit 4x4 oracle: (S^{T_A})_{(i,j),(k,l)} = S_{(k,j),(i,l)}
        space = ModeSpace.qubits((1, 2))
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        oracle[2 * i + j, 2 * k + l] = SWAP2[2 * k + j, 2 * i + l]
        got = partial_transpose(SWAP2, space, (1,))
        assert np.allclose(got, oracle)
        assert np.allclose(got, PHI_UNNORM)
        assert abs(np.linalg.eigvalsh(got)[-1] - 2.0) < 1e-12

    def test_empty_subset(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))
        space = ModeSpace.qubits((1, 2))
        assert np.array_equal(partial_transpose(x, space, ()), x)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(6)
        x = random_hermitian(rng, 8)
        space = ModeSpace.qubits((1, 2, 3))
        y = partial_transpose(x, space, (2,))
        assert abs(np.trace(y) - np.trace(x)) < 1e-12
        assert np.max(np.abs(y - dagger(y))) < 1e-12


class TestHermitianEig:
    def test_sigma_x(self):
        w, _ = hermitian_eig(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_diagonal_sorted(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        x = random_hermitian(rng, 16)
        w, v = hermitian_eig(x)
        assert np.linalg.norm(x @ v - v @ np.diag(w)) <= 1e-10 * np.linalg.norm(x)
        assert np.max(np.abs(v @ dagger(v) - np.eye(16))) < 1e-10
        assert abs(w.sum() - np.trace(x).real) < 1e-10 * max(1, abs(np.trace(x)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdSqrtPinv:
    def test_identity(self):
        assert np.allclose(psd_sqrt_pinv(np.eye(3, dtype=complex)), np.eye(3))

    def test_singular_diagonal(self):
        got = psd_sqrt_pinv(np.diag([4.0, 0.0]).astype(complex), support_tol=1e-10)
        assert np.allclose(got, np.diag([0.5, 0.0]))

    def test_support_projector_property(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        r = b @ dagger(b)  # PSD, rank 3
        rinv = psd_sqrt_pinv(r)
        sandwich = rinv @ r @ rinv
        # eigen-based oracle for the support projector
        w, v = np.linalg.eigh(r)
        proj = (v * (w > 1e-10)) @ dagger(v)
        assert np.max(np.abs(sandwich - proj)) < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError):
            psd_sqrt_pinv(np.diag([1.0, -1.0]).astype(complex))


class TestHaarSampling:
    def test_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            assert abs(np.linalg.norm(haar_qubit(rng)) - 1.0) < 1e-12

    def test_first_moment(self):
        # Monte Carlo oracle: mean projector converges to I/2
        rng = np.random.default_rng(10)
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            acc += projector(haar_qubit(rng))
        mean = acc / n
        assert np.linalg.norm(mean - I2 / 2, ord=2) < 0.02

    def test_second_moment_matches_twirl(self):
        # Monte Carlo vs the two-qubit twirl identity (I + S) / 6
        rng = np.random.default_rng(11)
        acc = np.zeros((4, 4), dtype=complex)
        n = 10_000
        for _ in range(n):
            psi = haar_qubit(rng)
            acc += projector(np.kron(psi, psi))
        mean = acc / n
        target = (np.eye(4) + SWAP2) / 6.0
        assert np.max(np.abs(mean - target)) < 0.02
        # 3-sigma elementwise check at the Monte Carlo rate
        sigma = 1.0 / np.sqrt(n)
        assert np.max(np.abs(mean - target)) < 3.5 * sigma


class TestPermBasisMap:
    def test_identity(self):
        assert np.array_equal(perm_basis_map((1, 2, 3), 3), np.arange(8))

    def test_swap_two_qubits(self):
        qmap = perm_basis_map((2, 1), 2)
        # |01> (index 1) -> |10> (index 2)
        assert qmap[1] == 2 and qmap[2] == 1 and qmap[0] == 0 and qmap[3] == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            perm_basis_map((1, 1), 2)


def spin_matrices(two_j):
    """``(J_x, J_y, J_z)`` of spin j in the basis ``m = j, ..., -j``
    (Condon-Shortley: ``J_+`` has nonnegative entries)."""
    m = two_j / 2 - np.arange(two_j + 1)
    j = two_j / 2
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    return (up + up.T) / 2, (up - up.T) / 2j, np.diag(m)


class TestSchurWeylBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_unitary_and_multiplicities(self, n):
        v, blocks = tensor.schur_weyl_basis(n)
        assert np.max(np.abs(v.T @ v - np.eye(2 ** n))) < 1e-14
        for two_j, paths in blocks:
            k = (n - two_j) // 2
            assert len(paths) == comb(n, k) - (comb(n, k - 1) if k else 0)
            assert all(len(path) == n and path[-1] == two_j for path in paths)
        assert sum(len(paths) * (two_j + 1) for two_j, paths in blocks) == 2 ** n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_block_diagonalizes_su2(self, n):
        # v^T U^{(x)n} v = (+)_j I_{m_j} (x) D^j(U), with D^j = exp(-i t a.J)
        # for U = exp(-i t a.sigma / 2)
        rng = np.random.default_rng(n)
        v, blocks = tensor.schur_weyl_basis(n)
        for _ in range(3):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, 4.0 * np.pi)

            def rep(two_j):
                return expm(-1j * angle * sum(a * s for a, s in zip(axis, spin_matrices(two_j))))

            u_n = reduce(np.kron, [rep(1)] * n)
            want = block_diag(*[np.kron(np.eye(len(paths)), rep(two_j)) for two_j, paths in blocks])
            assert np.max(np.abs(v.T @ u_n @ v - want)) < 1e-12

    def test_rebuilt_bytes_equal(self):
        v, blocks = tensor.schur_weyl_basis(4)
        tensor.schur_weyl_basis.cache_clear()
        again, blocks_again = tensor.schur_weyl_basis(4)
        assert again.tobytes() == v.tobytes() and blocks_again == blocks
