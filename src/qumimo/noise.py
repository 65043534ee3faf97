"""Depolarization budget sampling and Gamma-Gamma channel fluctuations.

Mean allocations live on the capped simplex
``A_Z = [0,1]^N intersect {sum = Z}``.  Every allocation is a lambda row
of a float64 array: the mean vectors are drawn uniformly in one call
(Dirichlet with unit concentration, scaled, then projected where a
component exceeds 1), and stochastic realizations multiply a mean by
unit-mean Gamma-Gamma factors and are projected back onto ``A_Z`` as
rows (:func:`project_capped_simplex`, one call per cluster).

All sampling goes through counter-based Philox generators so that
streams derived from (seed, mean index, realization index) are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np

FEASIBILITY_TOL = 1e-10


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from an arbitrary tuple of printable parts."""
    text = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def gamma_shape(mu: float) -> float:
    """Gamma shape giving the product of two unit-mean factors variance mu^2."""
    if not 0.0 < mu < np.inf:
        raise ValueError(f"fluctuation strength must be positive and finite, got {mu}")
    return (1.0 + np.sqrt(1.0 + mu * mu)) / (mu * mu)


def project_capped_simplex(raw: np.ndarray, z: float) -> np.ndarray:
    """Each row of ``raw`` (an ``(R, N)`` array; a vector is one row)
    rescaled to total ``z``, then clipped to [0,1] with the excess
    redistributed proportionally among its unclipped components.  A pass
    caps every component above 1 and rescales only the rows that gained a
    cap (their free sum reads the capped entries as 0); a row whose free
    components sum to 0 splits its remainder evenly.  At most N passes."""
    x = np.array(raw, dtype=float, ndmin=2)
    n = x.shape[1]
    if z > n + FEASIBILITY_TOL:
        raise ValueError(f"budget {z} infeasible for {n} modes")
    total = x.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise ValueError("cannot project a nonpositive allocation")
    x *= z / total
    capped = np.zeros(x.shape, dtype=bool)
    for _ in range(n):
        over = ~capped & (x > 1.0)
        gained = over.any(axis=1, keepdims=True)
        if not gained.any():
            break
        capped |= over
        free = ~capped
        remaining = z - capped.sum(axis=1, keepdims=True)
        s = np.where(free, x, 0.0).sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            fill = np.where(s > 0, x * (remaining / s), remaining / free.sum(axis=1, keepdims=True))
        x = np.where(capped, 1.0, np.where(gained, fill, x))
    return np.clip(x, 0.0, 1.0)


def sample_mean_allocations(
    n: int, z: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` uniform (unit-concentration Dirichlet) draws on the capped
    simplex, one float64 row each: the rows with a component above 1 are
    projected (:func:`project_capped_simplex`)."""
    if not (0.0 < z <= n):
        raise ValueError(f"budget {z} outside (0, {n}]")
    lams = rng.dirichlet(np.ones(n), size=count) * z
    over = np.any(lams > 1.0, axis=1)
    lams[over] = project_capped_simplex(lams[over], z)
    return lams


def sample_fluctuation(mu: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean fluctuation factors ``xi_i = g1_i g2_i`` with variance mu^2."""
    c = gamma_shape(mu)
    g = rng.gamma(shape=c, scale=1.0 / c, size=(2, n))
    return g[0] * g[1]


def cluster_variance(lam, lams) -> float:
    """Mean squared deviation of the realizations (rows of ``lams``) from
    the mean vector ``lam`` they were drawn around, not from their sample
    mean, per realization and component."""
    if len(lams) < 2:
        raise ValueError("cluster variance needs at least two realizations")
    lam = np.asarray(lam, dtype=float)
    sq = 0.0
    for row in np.asarray(lams, dtype=float):
        sq += float(np.sum((row - lam) ** 2))
    return sq / (len(lams) * lam.size)
