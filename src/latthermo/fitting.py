"""Log-log rate fitting used by decay tests and convergence sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RateFit", "fit_rate", "envelope_decay"]


@dataclass
class RateFit:
    exponent: float
    intercept: float
    ci95: float                 # half-width of the 95% interval on the exponent
    residual: float             # rms residual of the log-log fit
    n_points: int
    log_power: float = 0.0
    dropped: int = 0            # nonpositive values filtered out

    @property
    def converging(self) -> bool:
        return self.exponent < -0.2


def fit_rate(x: np.ndarray, err: np.ndarray, log_power: float = 0.0) -> RateFit:
    """Least squares of log err - q log log x against log x, q = ``log_power``
    (0, a pure power law, by default).

    Nonpositive errors (exact zeros) are filtered with a notice in the
    result. The fitted exponent is invariant under err -> c * err.
    """
    x = np.asarray(x, dtype=float)
    err = np.asarray(err, dtype=float)
    keep = err > 0
    dropped = int((~keep).sum())
    x, err = x[keep], err[keep]
    if x.size < 3:
        raise ValueError("rate fit needs at least 3 positive error values")
    ly = np.log(err) - log_power * np.log(np.log(np.maximum(x, np.e)))
    lx = np.log(x)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    fitted = A @ coef
    dof = max(x.size - 2, 1)
    s2 = float(np.sum((ly - fitted) ** 2)) / dof
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = np.sqrt(s2 / sxx) if sxx > 0 else np.inf
    # two-sided 95% t-quantiles for small samples
    tq = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
          8: 2.306, 9: 2.262, 10: 2.228}.get(dof, 2.0)
    return RateFit(exponent=slope, intercept=intercept, ci95=tq * stderr,
                   residual=float(np.sqrt(s2)), n_points=int(x.size),
                   log_power=log_power, dropped=dropped)


def envelope_decay(radii: np.ndarray, values: np.ndarray,
                   window: tuple[float, float], n_bins: int = 12) -> RateFit:
    """Decay exponent of the radial envelope max|value| over log-spaced bins.

    Using the per-shell maximum removes directional anisotropy from the fit,
    leaving the envelope exponent.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    lo, hi = window
    keep = (radii >= lo) & (radii <= hi) & (values > 0)
    if keep.sum() < 3:
        raise ValueError("not enough points in the fit window")
    r, v = radii[keep], values[keep]
    edges = np.geomspace(lo, hi * (1 + 1e-12), n_bins + 1)
    rs, vs = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (r >= a) & (r < b)
        if np.any(sel):
            j = np.argmax(v[sel])
            rs.append(r[sel][j])
            vs.append(v[sel][j])
    return fit_rate(np.array(rs), np.array(vs))
