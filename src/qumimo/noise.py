"""Depolarization budget sampling and Gamma-Gamma channel fluctuations.

Mean allocations live on the capped simplex
``A_Z = [0,1]^N intersect {sum = Z}`` and are drawn uniformly
(Dirichlet with unit concentration, scaled).  Stochastic realizations
multiply the mean by unit-mean Gamma-Gamma factors and project back
onto ``A_Z``.

All sampling goes through counter-based Philox generators so that
streams derived from (seed, mean index, realization index) are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-10


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from an arbitrary tuple of printable parts."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class MeanAllocation:
    lam: tuple
    z: float

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lam)
        if not all(-FEASIBILITY_TOL <= x <= 1.0 + FEASIBILITY_TOL for x in lam):
            raise ValueError(f"allocation outside [0,1]^N: {lam}")
        if not (np.isfinite(self.z)
                and abs(sum(lam) - self.z) <= FEASIBILITY_TOL * max(1.0, self.z)):
            raise ValueError(f"allocation sums to {sum(lam)}, expected {self.z}")
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return len(self.lam)


def gamma_shape(mu: float) -> float:
    """Gamma shape giving the product of two unit-mean factors variance mu^2."""
    if not 0.0 < mu < np.inf:
        raise ValueError(f"fluctuation strength must be positive and finite, got {mu}")
    return (1.0 + np.sqrt(1.0 + mu * mu)) / (mu * mu)


def project_capped_simplex(raw: np.ndarray, z: float) -> np.ndarray:
    """Rescale to total ``z``, then clip to [0,1] redistributing the excess
    proportionally among unclipped components (at most N passes)."""
    raw = np.asarray(raw, dtype=float)
    n = raw.size
    if z > n + FEASIBILITY_TOL:
        raise ValueError(f"budget {z} infeasible for {n} modes")
    total = raw.sum()
    if total <= 0:
        raise ValueError("cannot project a nonpositive allocation")
    x = raw * (z / total)
    capped = np.zeros(n, dtype=bool)
    for _ in range(n):
        over = ~capped & (x > 1.0)
        if not over.any():
            break
        capped |= over
        x[capped] = 1.0
        free = ~capped
        remaining = z - float(capped.sum())
        s = x[free].sum()
        if s > 0:
            x[free] *= remaining / s
        elif free.any():
            x[free] = remaining / int(free.sum())
    return np.clip(x, 0.0, 1.0)


def sample_mean_allocations(
    n: int, z: float, count: int, rng: np.random.Generator
) -> list[MeanAllocation]:
    """Uniform (unit-concentration Dirichlet) draws on the capped simplex."""
    if not (0.0 < z <= n):
        raise ValueError(f"budget {z} outside (0, {n}]")
    out = []
    for _ in range(count):
        raw = rng.dirichlet(np.ones(n)) * z
        if np.any(raw > 1.0):
            raw = project_capped_simplex(raw, z)
        out.append(MeanAllocation(lam=tuple(raw), z=z))
    return out


def sample_fluctuation(mu: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean fluctuation factors ``xi_i = g1_i g2_i`` with variance mu^2."""
    c = gamma_shape(mu)
    g = rng.gamma(shape=c, scale=1.0 / c, size=(2, n))
    return g[0] * g[1]


def perturb_and_project(mean: MeanAllocation, xi: np.ndarray) -> MeanAllocation:
    xi = np.asarray(xi, dtype=float)
    if xi.size != mean.n:
        raise ValueError(f"fluctuation length {xi.size} != {mean.n}")
    x = project_capped_simplex(np.asarray(mean.lam) * xi, mean.z)
    return MeanAllocation(lam=tuple(x), z=mean.z)


def cluster_variance(mean: MeanAllocation, realizations) -> float:
    """Mean squared deviation of realizations from their mean allocation."""
    if len(realizations) < 2:
        raise ValueError("cluster variance needs at least two realizations")
    lam = np.asarray(mean.lam)
    sq = 0.0
    for r in realizations:
        sq += float(np.sum((np.asarray(r.lam) - lam) ** 2))
    return sq / (len(realizations) * mean.n)
