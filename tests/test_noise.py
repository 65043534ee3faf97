import numpy as np
import pytest

from qumimo import experiments, noise


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
            for alloc in noise.sample_mean_allocations(n, z, 50, rng):
                lam = np.asarray(alloc.lam)
                assert abs(lam.sum() - z) < 1e-10
                assert np.all(lam >= -1e-12) and np.all(lam <= 1 + 1e-12)

    def test_component_mean(self):
        # Dirichlet symmetry: each component averages Z/N
        rng = noise.make_rng(3)
        allocs = noise.sample_mean_allocations(3, 1.0, 10_000, rng)
        lam = np.array([a.lam for a in allocs])
        assert np.max(np.abs(lam.mean(axis=0) - 1 / 3)) < 0.01

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            noise.sample_mean_allocations(2, 2.5, 1, noise.make_rng(4))

    @pytest.mark.parametrize("lam, z", [
        ((float("nan"), 0.5), 1.0), ((0.5, 0.5), float("nan")), ((0.5, 0.5), float("inf"))])
    def test_rejects_nan(self, lam, z):
        # a NaN compares False with every bound, so each check is written
        # to fail on it
        with pytest.raises(ValueError, match="allocation"):
            noise.MeanAllocation(lam=lam, z=z)


def perturbed(mean, xi):
    """A realization around ``mean``: the mean times the fluctuation ``xi``,
    projected onto the mean's capped simplex."""
    return noise.project_capped_simplex(np.asarray(mean.lam) * xi, mean.z)


class TestProjection:
    def test_no_perturbation_is_identity(self):
        mean = noise.MeanAllocation(lam=(0.4, 0.3, 0.3), z=1.0)
        out = perturbed(mean, np.ones(3))
        assert np.allclose(out, mean.lam, atol=1e-15)

    def test_documented_example(self):
        mean = noise.MeanAllocation(lam=(0.5, 0.25, 0.25), z=1.0)
        out = perturbed(mean, np.array([2.0, 1.0, 1.0]))
        # raw (1.0, 0.25, 0.25) sums to 1.5; rescale by 2/3
        assert np.allclose(out, (2 / 3, 1 / 6, 1 / 6), atol=1e-12)

    def test_feasibility_sweep(self):
        rng = noise.make_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            z = float(rng.uniform(0.1, n))
            mean_vec = rng.dirichlet(np.ones(n)) * z
            mean_vec = noise.project_capped_simplex(mean_vec, z)
            mean = noise.MeanAllocation(lam=tuple(mean_vec), z=z)
            xi = noise.sample_fluctuation(1.0, n, rng)
            lam = perturbed(mean, xi)
            assert abs(lam.sum() - z) < 1e-10
            assert np.all(lam >= -1e-12) and np.all(lam <= 1 + 1e-12)


class TestClusterVariance:
    def test_zero_at_mean(self):
        mean = noise.MeanAllocation(lam=(0.4, 0.6), z=1.0)
        assert noise.cluster_variance(mean, np.array([mean.lam] * 3)) == 0.0

    def test_hand_evaluated(self):
        mean = noise.MeanAllocation(lam=(0.4, 0.3, 0.3), z=1.0)
        lams = np.array([(0.5, 0.2, 0.3), (0.3, 0.4, 0.3)])
        # each realization deviates by (+-0.1, -+0.1, 0): sum sq = 0.02 each
        want = (0.02 + 0.02) / (2 * 3)
        assert abs(noise.cluster_variance(mean, lams) - want) < 1e-12

    def test_grows_with_mu(self):
        rng = noise.make_rng(6)
        means = noise.sample_mean_allocations(3, 1.0, 10, rng)
        v_small, v_large = [], []
        for mean in means:
            small = np.array([perturbed(mean, noise.sample_fluctuation(0.25, 3, rng))
                              for _ in range(50)])
            large = np.array([perturbed(mean, noise.sample_fluctuation(1.0, 3, rng))
                              for _ in range(50)])
            v_small.append(noise.cluster_variance(mean, small))
            v_large.append(noise.cluster_variance(mean, large))
        assert np.mean(v_large) > np.mean(v_small)

    def test_needs_two(self):
        mean = noise.MeanAllocation(lam=(1.0,), z=1.0)
        with pytest.raises(ValueError):
            noise.cluster_variance(mean, np.array([mean.lam]))


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
