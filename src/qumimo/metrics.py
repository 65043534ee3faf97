"""Summary metrics: asymmetry index and empirical densities."""

from __future__ import annotations

import numpy as np

from .errors import UndefinedIndexError

DENSITY_GRID_POINTS = 512
BANDWIDTH_FLOOR = 1e-3


def asymmetry_index(fidelities):
    """Jain-style fairness of a clone-fidelity vector.

    Contributions are rescaled as ``F~ = ((F - 1/2) / (1/2)) * F`` so that
    branches at or below the maximally mixed baseline are suppressed
    (negative values clamp to zero).  Returns a value in ``[1/M, 1]``:
    ``1/M`` for a single useful branch, 1 when all branches contribute
    equally.  Given vectors as rows on the last axis, returns one index per
    row, each row checked as a vector would be.
    """
    f = np.asarray(fidelities, dtype=float)
    if f.ndim == 0 or f.shape[-1] == 0:
        raise ValueError("fidelity vector must be nonempty, its entries on the last axis")
    rows = f.reshape(-1, f.shape[-1])
    outside = ~((rows >= -1e-9) & (rows <= 1.0 + 1e-9)).all(axis=1)
    if outside.any():
        raise ValueError(f"fidelities outside [0, 1]: {rows[outside][0]}")
    eff = np.clip((rows - 0.5) / 0.5, 0.0, None) * rows
    denom = (eff ** 2).sum(axis=1)
    if (denom <= 0.0).any():
        raise UndefinedIndexError("all branches at or below the mixed baseline")
    # Squared one by one as Python floats, as the index of one vector
    # always was: NumPy's array square differs in the last bit on a few.
    num = np.array([x ** 2 for x in eff.sum(axis=1).tolist()])
    index = num / (rows.shape[1] * denom)
    return float(index[0]) if f.ndim == 1 else index.reshape(f.shape[:-1])


def silverman_bandwidth(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    n = values.size
    sigma = float(np.std(values, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    h = 0.9 * spread * n ** (-0.2)
    return max(h, BANDWIDTH_FLOOR)


def empirical_density(values, bounds):
    """Gaussian KDE with boundary reflection on a bounded support.

    Returns ``(grid, density)`` on ``DENSITY_GRID_POINTS`` evenly spaced
    points; the density integrates to 1 over the support up to
    reflection leakage (within 1e-3 for well-scaled bandwidths).
    """
    values = np.asarray(values, dtype=float)
    lo, hi = float(bounds[0]), float(bounds[1])
    if values.size < 2:
        raise ValueError("density estimation needs at least two values")
    if not lo < hi:
        raise ValueError(f"invalid bounds ({lo}, {hi})")
    h = silverman_bandwidth(values)
    grid = np.linspace(lo, hi, DENSITY_GRID_POINTS)
    # Reflect once across each boundary to remove edge bias.
    sources = np.concatenate([values, 2 * lo - values, 2 * hi - values])
    z = (grid[:, None] - sources[None, :]) / h
    dens = np.exp(-0.5 * z ** 2).sum(axis=1) / (values.size * h * np.sqrt(2 * np.pi))
    return grid, dens
