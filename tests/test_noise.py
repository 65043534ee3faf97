import collections

import numpy as np
import pytest

from qumimo import channel, experiments, noise
from reference_ops import project_one_row


class TestGammaShape:
    def test_mu_one(self):
        assert abs(noise.gamma_shape(1.0) - (1 + np.sqrt(2))) < 1e-12

    def test_small_mu_series(self):
        mu = 1e-4
        c = noise.gamma_shape(mu)
        assert abs(c * mu * mu / 2 - 1.0) < 1e-4

    def test_variance_identity(self):
        # moment algebra for the product of two unit-mean Gamma(c, 1/c)
        # factors: Var = 2/c + 1/c^2
        for mu in (0.25, 0.5, 0.75, 1.0):
            c = noise.gamma_shape(mu)
            assert abs(2.0 / c + 1.0 / c ** 2 - mu * mu) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise.gamma_shape(0.0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            noise.gamma_shape(mu)


class TestFluctuations:
    def test_positive(self):
        xi = noise.sample_fluctuation(0.5, 1000, noise.make_rng(0))
        assert np.all(xi > 0)

    def test_moments(self):
        xi = noise.sample_fluctuation(0.5, 100_000, noise.make_rng(1))
        assert abs(xi.mean() - 1.0) < 0.01
        assert abs(xi.var() - 0.25) < 0.0125

    def test_moments_across_mu(self):
        for mu in (0.25, 0.75, 1.0):
            xi = noise.sample_fluctuation(mu, 100_000, noise.make_rng(hash(mu) % 2 ** 32))
            assert abs(xi.mean() - 1.0) < 0.01 * 1.0
            assert abs(xi.var() - mu * mu) < 0.05 * mu * mu


class TestMeanAllocations:
    def test_budget_respected(self):
        rng = noise.make_rng(2)
        for z, n in ((1.0, 3), (2.5, 3), (0.4, 2)):
            lams = noise.sample_mean_allocations(n, z, 50, rng)
            assert lams.dtype == np.float64 and lams.shape == (50, n)
            for lam in lams:
                assert abs(lam.sum() - z) < 1e-10
                assert np.all(lam >= -1e-12) and np.all(lam <= 1 + 1e-12)

    def test_component_mean(self):
        # Dirichlet symmetry: each component averages Z/N
        rng = noise.make_rng(3)
        lam = noise.sample_mean_allocations(3, 1.0, 10_000, rng)
        assert np.max(np.abs(lam.mean(axis=0) - 1 / 3)) < 0.01

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            noise.sample_mean_allocations(2, 2.5, 1, noise.make_rng(4))

    @pytest.mark.parametrize("lam, z", [
        ((float("nan"), 0.5), 1.0), ((0.5, 0.5), float("nan")), ((0.5, 0.5), float("inf"))])
    def test_rejects_nan(self, lam, z):
        # a NaN compares False with every bound, so each check is written
        # to fail on it: the channel a lambda row parametrizes refuses a
        # NaN component, the sampler a NaN or infinite budget (each case
        # has one bad value, so exactly one of the two calls raises)
        with pytest.raises(ValueError, match="lambda components|budget"):
            channel.ChannelParams(n=2, eta=0.0, lam=lam, delta=1.0)
            noise.sample_mean_allocations(2, z, 1, noise.make_rng(4))

    def test_rows_are_the_per_draw_loop(self):
        # one Dirichlet call of L rows, then one projection of the rows
        # above the cap, bit for bit L single draws projected one by one
        for seed in range(40):
            for n in range(1, 7):
                z = float(noise.make_rng(seed).uniform(0.05, n))
                got = noise.sample_mean_allocations(n, z, 25, noise.make_rng(seed))
                rng = noise.make_rng(seed)
                want = []
                for _ in range(25):
                    raw = rng.dirichlet(np.ones(n)) * z
                    want.append(project_one_row(raw, z) if np.any(raw > 1.0) else raw)
                assert got.tobytes() == np.array(want).tobytes(), (seed, n)


def perturbed(lam, z, xi):
    """Realizations around the mean vector ``lam``: the mean times the
    fluctuations ``xi`` (one row each), projected onto the capped simplex."""
    return noise.project_capped_simplex(np.asarray(lam) * xi, z)


class TestProjection:
    def test_no_perturbation_is_identity(self):
        lam = (0.4, 0.3, 0.3)
        out = perturbed(lam, 1.0, np.ones((1, 3)))
        assert np.allclose(out, [lam], atol=1e-15)

    def test_documented_example(self):
        out = perturbed((0.5, 0.25, 0.25), 1.0, np.array([[2.0, 1.0, 1.0]]))
        # raw (1.0, 0.25, 0.25) sums to 1.5; rescale by 2/3
        assert np.allclose(out, [(2 / 3, 1 / 6, 1 / 6)], atol=1e-12)

    def test_feasibility_sweep(self):
        rng = noise.make_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            z = float(rng.uniform(0.1, n))
            [mean] = noise.project_capped_simplex(rng.dirichlet(np.ones(n)) * z, z)
            xi = noise.sample_fluctuation(1.0, n, rng)
            [lam] = perturbed(mean, z, xi)
            assert abs(lam.sum() - z) < 1e-10
            assert np.all(lam >= -1e-12) and np.all(lam <= 1 + 1e-12)

    def test_rows_are_the_one_row_projection(self):
        # every row bitwise the one-row oracle, over N = 1..6, a budget up
        # to N and Gamma-Gamma factors of mu = 0.25..2: rows that need no
        # clip, rows clipped once and rows clipped over several passes
        rng = noise.make_rng(7)
        kinds = collections.Counter()
        for n in range(1, 7):
            for mu in (0.25, 1.0, 2.0):
                for _ in range(40):
                    z = float(rng.uniform(0.05, n))
                    mean = noise.sample_mean_allocations(n, z, 1, rng)
                    xi = np.array([noise.sample_fluctuation(mu, n, rng) for _ in range(30)])
                    raw = mean * xi
                    got = noise.project_capped_simplex(raw, z)
                    assert got.shape == raw.shape
                    for row, out in zip(raw, got):
                        assert out.tobytes() == project_one_row(row, z).tobytes()
                        # capped by the first pass, and in the end
                        first = int(np.sum(row * (z / row.sum()) > 1.0))
                        capped = int(np.sum(out == 1.0))
                        kinds["none" if not capped else "one" if capped == first
                              else "several"] += 1
        assert kinds["none"] and kinds["one"] and kinds["several"]

    def test_even_split_when_the_free_entries_are_zero(self):
        # a row whose free entries are all 0 splits its remainder evenly,
        # and a row beside it that needs no clip is only rescaled
        raw = np.array([[5.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.0, 3.0, 1.0]])
        got = noise.project_capped_simplex(raw, 1.5)
        for row, out in zip(raw, got):
            assert out.tobytes() == project_one_row(row, 1.5).tobytes()
        assert got[0].tolist() == [1.0, 0.25, 0.25]
        assert got[2].tolist() == [0.0, 1.0, 0.5]

    def test_rejects_infeasible_rows(self):
        with pytest.raises(ValueError, match="infeasible"):
            noise.project_capped_simplex(np.ones((2, 2)), 2.5)
        with pytest.raises(ValueError, match="nonpositive"):
            noise.project_capped_simplex(np.array([[0.5, 0.5], [0.0, 0.0]]), 1.0)


class TestClusterVariance:
    def test_zero_at_mean(self):
        lam = (0.4, 0.6)
        assert noise.cluster_variance(lam, np.array([lam] * 3)) == 0.0

    def test_hand_evaluated(self):
        lam = (0.4, 0.3, 0.3)
        lams = np.array([(0.5, 0.2, 0.3), (0.3, 0.4, 0.3)])
        # each realization deviates by (+-0.1, -+0.1, 0): sum sq = 0.02 each
        want = (0.02 + 0.02) / (2 * 3)
        assert abs(noise.cluster_variance(lam, lams) - want) < 1e-12

    def test_deviation_from_the_mean_vector(self):
        # the deviation is taken from the mean vector, not from the
        # realizations' sample mean: two equal rows off the mean vary
        lams = np.array([(0.5, 0.5), (0.5, 0.5)])
        assert abs(noise.cluster_variance((0.4, 0.6), lams) - 0.01) < 1e-15

    def test_grows_with_mu(self):
        rng = noise.make_rng(6)
        means = noise.sample_mean_allocations(3, 1.0, 10, rng)
        v_small, v_large = [], []
        for lam in means:
            small = perturbed(lam, 1.0, np.array(
                [noise.sample_fluctuation(0.25, 3, rng) for _ in range(50)]))
            large = perturbed(lam, 1.0, np.array(
                [noise.sample_fluctuation(1.0, 3, rng) for _ in range(50)]))
            v_small.append(noise.cluster_variance(lam, small))
            v_large.append(noise.cluster_variance(lam, large))
        assert np.mean(v_large) > np.mean(v_small)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            noise.cluster_variance((1.0,), np.array([(1.0,)]))


class TestDeterminism:
    def test_identical_streams(self):
        a = noise.sample_fluctuation(0.5, 1000, noise.make_rng(noise.derive_seed(1, "x")))
        b = noise.sample_fluctuation(0.5, 1000, noise.make_rng(noise.derive_seed(1, "x")))
        assert a.tobytes() == b.tobytes()

    def test_derive_seed_stable(self):
        assert noise.derive_seed(5, "means", 1.0) == noise.derive_seed(5, "means", 1.0)
        assert noise.derive_seed(5, "means", 1.0) != noise.derive_seed(5, "means", 2.0)

    def test_split_streams_independent_of_order(self):
        s1 = noise.sample_fluctuation(0.5, 4, noise.make_rng(noise.derive_seed(9, 0, 1)))
        # drawing another task first must not change task (0, 1)
        _ = noise.sample_fluctuation(0.5, 4, noise.make_rng(noise.derive_seed(9, 0, 0)))
        s2 = noise.sample_fluctuation(0.5, 4, noise.make_rng(noise.derive_seed(9, 0, 1)))
        assert s1.tobytes() == s2.tobytes()


class TestCsv:
    def test_schema(self, tmp_path):
        # allocations.csv of a stochastic run: the mean vector, then its
        # realizations at each fluctuation strength
        cfg = experiments.validate_config({
            "regime": "stochastic", "N": 2, "Z": 0.8, "eta": [0.0], "delta": 1.0,
            "p": [1.0], "mu": [0.5], "num_mean_vectors": 1, "num_realizations": 2,
            "seed": 3,
        })
        experiments.run_stochastic(cfg, tmp_path)
        lines = (tmp_path / "allocations.csv").read_text().strip().splitlines()
        assert lines[0] == "mean_id,realization_id,mu,lambda_1,lambda_2"
        assert lines[1].startswith("0,,0,")
        assert [ln.split(",")[:3] for ln in lines[2:]] == [["0", "0", "0.5"], ["0", "1", "0.5"]]
        for ln in lines[1:]:
            assert abs(sum(float(x) for x in ln.split(",")[3:]) - 0.8) < 1e-9
