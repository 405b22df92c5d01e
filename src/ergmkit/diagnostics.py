"""MCMC output analysis.

Batch-means estimation of the asymptotic covariance, the determinant-
ratio multivariate effective sample size, a two-window multivariate
convergence test of the Geweke type (realized as a Hotelling T^2 with
batch-means window covariances), and the geometric-decay burn-in fit
x_s ~ b0 + b1 * 2^(-s/s0).

Constant (degenerate) columns are dropped before any determinant is
taken; offsets with infinite coefficients routinely freeze statistics
exactly, and the determinant ratio is then computed on the non-
degenerate subspace with the dimension reduced accordingly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["EssReport", "BurninFit", "batch_means_cov", "multivariate_ess",
           "univariate_ess", "geweke_test", "estimate_burnin"]

_DEGENERATE_REL_TOL = 1e-12


@dataclass
class EssReport:
    ess: float
    S: int
    sigma_det: float
    lambda_det: float
    batch_size: int
    n_batches: int
    p_effective: int


@dataclass
class BurninFit:
    s0: float
    beta0: float
    beta1: float
    sse: float


def _as_matrix(sample):
    x = np.asarray(getattr(sample, "values", sample), dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DataError("sample must be a draws-by-statistics matrix")
    return x


def _drop_degenerate(x):
    """Remove columns whose variation is negligible relative to scale."""
    span = x.max(axis=0) - x.min(axis=0)
    scale = np.maximum(np.abs(x).max(axis=0), 1.0)
    keep = span > _DEGENERATE_REL_TOL * scale
    return x[:, keep], keep


def batch_means_cov(sample, batch_size=None):
    """Batch-means estimate of the asymptotic covariance Sigma.

    For a chain mean xbar, Cov(xbar) ~ Sigma / S.  Batch size defaults
    to floor(sqrt(S)); the leading remainder draws are discarded so all
    batches are complete.
    """
    x = _as_matrix(sample)
    S = x.shape[0]
    if S < 8:
        raise DataError("batch-means covariance needs at least 8 draws")
    b = int(math.isqrt(S)) if batch_size is None else int(batch_size)
    a = S // b
    if a < 2:
        raise DataError("too few batches; reduce the batch size")
    x = x[S - a * b:]
    means = x.reshape(a, b, x.shape[1]).mean(axis=1)
    centered = means - x.mean(axis=0)
    sigma = b * (centered.T @ centered) / (a - 1)
    return sigma


def multivariate_ess(sample):
    """Determinant-ratio effective sample size.

    ess = S * (det Lambda / det Sigma)^(1/p) with Lambda the sample
    covariance and Sigma the batch-means asymptotic covariance, both
    restricted to the non-degenerate column subspace.
    """
    x = _as_matrix(sample)
    S = x.shape[0]
    x, keep = _drop_degenerate(x)
    p = x.shape[1]
    if p == 0:
        raise DataError("all statistic columns are constant")
    b = int(math.isqrt(S))
    sigma = batch_means_cov(x, b)
    lam = np.cov(x, rowvar=False).reshape(p, p)

    # reduce to the subspace where Lambda is numerically nonsingular
    evals, evecs = np.linalg.eigh(lam)
    tol = max(evals.max(), 0.0) * 1e-12
    mask = evals > tol
    if not mask.any():
        raise DataError("sample covariance has rank zero")
    basis = evecs[:, mask]
    lam_r = basis.T @ lam @ basis
    sigma_r = basis.T @ sigma @ basis
    p_eff = int(mask.sum())

    sign_l, logdet_l = np.linalg.slogdet(lam_r)
    sign_s, logdet_s = np.linalg.slogdet(sigma_r)
    if sign_s <= 0:
        # pathological batch-means estimate; fall back to trace ratio
        ess = S * float(np.trace(lam_r) / max(np.trace(sigma_r), 1e-300))
    else:
        ess = S * math.exp((logdet_l - logdet_s) / p_eff)
    return EssReport(ess=float(ess), S=S, sigma_det=float(sign_s * math.exp(logdet_s)),
                     lambda_det=float(sign_l * math.exp(logdet_l)),
                     batch_size=b, n_batches=S // b, p_effective=p_eff)


def univariate_ess(series):
    """Effective sample size of a single series (p = 1 special case)."""
    x = np.asarray(series, dtype=float).ravel()
    S = x.size
    if x.max() - x.min() <= _DEGENERATE_REL_TOL * max(abs(x).max(), 1.0):
        return float(S)
    b = int(math.isqrt(S))
    sigma = batch_means_cov(x[:, None], b)[0, 0]
    lam = x.var(ddof=1)
    if sigma <= 0:
        return float(S)
    return float(S * lam / sigma)


def geweke_test(sample, frac_first=0.1, frac_last=0.5):
    """Two-window convergence diagnostic, multivariate.

    Compares the mean of the first `frac_first` of the chain with the
    mean of the last `frac_last` via a Hotelling-type statistic whose
    window covariances come from batch means.  Returns the p-value; the
    F reference uses the pooled batch count as its degrees of freedom.
    """
    x = _as_matrix(sample)
    S = x.shape[0]
    if frac_first + frac_last > 1.0:
        raise DataError("Geweke windows must not overlap")
    n1 = int(S * frac_first)
    n2 = int(S * frac_last)
    if n1 < 8 or n2 < 8:
        raise DataError("Geweke windows too small")
    first, last = x[:n1], x[S - n2:]
    both = np.vstack([first, last])
    _, keep = _drop_degenerate(both)
    if not keep.any():
        return 1.0
    first, last = first[:, keep], last[:, keep]
    p = first.shape[1]
    s1 = batch_means_cov(first)
    s2 = batch_means_cov(last)
    delta = first.mean(axis=0) - last.mean(axis=0)
    cov = s1 / n1 + s2 / n2
    try:
        sol = np.linalg.solve(cov, delta)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(cov, delta, rcond=None)[0]
    t2 = float(delta @ sol)
    # Welch-Satterthwaite effective degrees of freedom for the combined
    # window covariance, from the batch counts of the two windows
    a1 = n1 // int(math.isqrt(n1))
    a2 = n2 // int(math.isqrt(n2))
    q1, q2 = 1.0 / n1, 1.0 / n2
    nu = (q1 + q2) ** 2 / (q1 * q1 / (a1 - 1) + q2 * q2 / (a2 - 1))
    from scipy.special import chdtrc, fdtrc
    if nu - p + 1 <= 0:
        return float(chdtrc(p, t2))
    f_stat = t2 * (nu - p + 1) / (nu * p)
    return float(fdtrc(p, nu - p + 1, f_stat))


def _decay_sse(x, s_index, s0):
    """Closed-form least squares of x on (1, 2^(-s/s0)); returns (sse, b0, b1)."""
    r = np.exp2(-s_index / s0)
    r_mean = r.mean()
    x_mean = x.mean()
    rc = r - r_mean
    denom = float(rc @ rc)
    if denom <= 1e-300:
        resid = x - x_mean
        return float(resid @ resid), x_mean, 0.0
    b1 = float(rc @ (x - x_mean)) / denom
    b0 = x_mean - b1 * r_mean
    resid = x - b0 - b1 * r
    return float(resid @ resid), b0, b1


def estimate_burnin(sample, direction=None):
    """Fit x_s = b0 + b1 * 2^(-s/s0) to the scalarized chain.

    The candidate s0 minimizing the SSE is located by a golden-section
    search on log(s0) over [1, S], seeded from a coarse grid so the
    bracket contains the global pattern.  s0 is the number of steps
    needed to halve the expected distance from equilibrium.
    """
    x = _as_matrix(sample)
    S = x.shape[0]
    if S < 16:
        raise DataError("burn-in fit needs at least 16 draws")
    if direction is None:
        xs = x[:, 0] if x.shape[1] == 1 else x.mean(axis=1)
    else:
        direction = np.asarray(direction, dtype=float)
        xs = x @ direction
    s_index = np.arange(1, S + 1, dtype=float)

    lo, hi = 0.0, math.log(S)
    grid = np.linspace(lo, hi, 17)
    sses = [_decay_sse(xs, s_index, math.exp(g))[0] for g in grid]
    k = int(np.argmin(sses))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _decay_sse(xs, s_index, math.exp(c))[0]
    fd = _decay_sse(xs, s_index, math.exp(d))[0]
    for _ in range(60):
        if b - a < 1e-10:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _decay_sse(xs, s_index, math.exp(c))[0]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _decay_sse(xs, s_index, math.exp(d))[0]
    best_log = c if fc < fd else d
    s0 = math.exp(best_log)
    sse, b0, b1 = _decay_sse(xs, s_index, s0)
    return BurninFit(s0=s0, beta0=b0, beta1=b1, sse=sse)
