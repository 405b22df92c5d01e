"""MCMC output analysis.

Batch-means estimation of the asymptotic covariance, the determinant-
ratio multivariate effective sample size, a two-window multivariate
convergence test of the Geweke type (realized as a Hotelling T^2 with
batch-means window covariances), and the geometric-decay burn-in fit
x_s ~ b0 + b1 * 2^(-s/s0).

The Hotelling p-values take the F and chi-square upper tails from
pure-Python continued fractions on `math` (the regularized incomplete
beta and upper incomplete gamma), so numpy is the only numerical
dependency.

Constant (degenerate) columns are dropped before any determinant is
taken; offsets with infinite coefficients routinely freeze statistics
exactly, and the determinant ratio is then computed on the non-
degenerate subspace with the dimension reduced accordingly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

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


def batch_means_cov(sample):
    """Batch-means estimate of the asymptotic covariance Sigma.

    For a chain mean xbar, Cov(xbar) ~ Sigma / S.  The batch size is
    floor(sqrt(S)), so S >= 8 draws give at least two batches; the
    leading remainder draws are discarded so all batches are complete.
    """
    x = _as_matrix(sample)
    S = x.shape[0]
    if S < 8:
        raise DataError("batch-means covariance needs at least 8 draws")
    b = int(math.isqrt(S))
    a = S // b
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
    sigma = batch_means_cov(x)
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
    sigma = batch_means_cov(x[:, None])[0, 0]
    lam = x.var(ddof=1)
    if sigma <= 0:
        return float(S)
    return float(S * lam / sigma)


# a continued fraction stops once a step changes it by less than
# _TAIL_EPS relative; _TAIL_TINY keeps Lentz's denominators off zero
_TAIL_EPS = 1e-15
_TAIL_TINY = 1e-300
_TAIL_MAXIT = 100000


def _lentz(terms):
    """Modified Lentz evaluation of the continued fraction
    1 / (1 + a1 / (1 + a2 / (1 + ...))) from an iterator of the a_m."""
    c = 1.0 / _TAIL_TINY
    d = 1.0
    h = 1.0
    for aa in terms:
        d = 1.0 + aa * d
        d = 1.0 / (d if abs(d) >= _TAIL_TINY else _TAIL_TINY)
        c = 1.0 + aa / c
        c = c if abs(c) >= _TAIL_TINY else _TAIL_TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _TAIL_EPS:
            return h
    raise NumericalError("tail continued fraction did not converge")


def _lgamma_shift(b, a):
    """lgamma(b + a) - lgamma(b).  From b = 10 on, Stirling's series is
    differenced instead: at df2 = 2b near 1e4 the plain difference is
    1.3e-11 off, which moves the F tail by as much."""
    if b < 10.0:
        return math.lgamma(b + a) - math.lgamma(b)

    def tail(z):
        # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), z >= 10
        u = 1.0 / (z * z)
        return (1.0 / 12.0 - u * (1.0 / 360.0 - u * (1.0 / 1260.0 - u * (
            1.0 / 1680.0 - u / 1188.0)))) / z

    return ((b - 0.5) * math.log1p(a / b) + a * math.log(b + a) - a
            + tail(b + a) - tail(b))


def _beta_cf_terms(a, b, x):
    # the coefficients d_1, d_2, ... of the continued fraction for
    # I_x(a, b) = x^a (1-x)^b / (a B(a, b)) / (1 + d_1 / (1 + d_2 / ...))
    # (DLMF 8.17.22)
    yield -(a + b) * x / (a + 1.0)
    for m in range(1, _TAIL_MAXIT):
        yield m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        yield -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))


def _f_tail(d1, d2, x):
    """P(F > x) for an F(d1, d2) variable: the regularized incomplete
    beta I_w(d2/2, d1/2) at w = d2 / (d2 + d1 x).

    Whichever of I_w(d2/2, d1/2) and its complement I_{1-w}(d1/2, d2/2)
    sits below the distribution's bulk is evaluated by its continued
    fraction; that one is the small tail whenever the p-value is small,
    so tiny p-values keep their relative accuracy.  A negative x gives
    NaN: no F variable lies below zero.
    """
    if math.isnan(x) or x < 0.0:
        return math.nan
    if x == 0.0:
        return 1.0
    a, b = 0.5 * d1, 0.5 * d2
    r = d1 * x / d2                          # w = 1/(1+r), 1-w = r/(1+r)
    if math.isinf(r):                        # x = inf, or near the float max
        log_w, log_1mw = math.log(d2) - math.log(d1) - math.log(x), 0.0
    else:
        log_w = -math.log1p(r)
        log_1mw = math.log(r) + log_w
    front = math.exp(_lgamma_shift(b, a) - math.lgamma(a)
                     + b * log_w + a * log_1mw)
    if r > (a + 1.0) / (b + 1.0):
        # w below the switch point of I_w(b, a): that is the small side
        return front * _lentz(_beta_cf_terms(b, a, 1.0 / (1.0 + r))) / b
    return 1.0 - front * _lentz(_beta_cf_terms(a, b, r / (1.0 + r))) / a


def _chi2_tail(k, x):
    """P(X > x) for a chi-square variable on k degrees of freedom: the
    regularized upper incomplete gamma Q(k/2, x/2).

    Below x/2 = k/2 + 1 the lower tail's power series gives 1 - P;
    above, the continued fraction gives Q itself, the small tail.  A
    negative x gives NaN.
    """
    if math.isnan(x) or x < 0.0:
        return math.nan
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a, y = 0.5 * k, 0.5 * x
    front = math.exp(a * math.log(y) - y - math.lgamma(a))
    if y < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) >= abs(total) * _TAIL_EPS:
            n += 1.0
            term *= y / n
            total += term
        return 1.0 - front * total
    # Q = front / (y + 1 - a - 1(1-a) / (y + 3 - a - 2(2-a) / ...))
    c = y + 1.0 - a
    return front / c * _lentz(
        -m * (m - a) / ((c + 2 * m - 2) * (c + 2 * m))
        for m in range(1, _TAIL_MAXIT))


def _hotelling_pvalue(t2, p, nu):
    """Upper-tail p-value of a Hotelling T^2 on p dimensions with nu
    degrees of freedom: F reference, or chi-square when nu is too small."""
    if nu - p + 1 <= 0:
        return _chi2_tail(p, t2)
    return _f_tail(p, nu - p + 1, t2 * (nu - p + 1) / (nu * p))


_GEWEKE_FIRST = 0.1
_GEWEKE_LAST = 0.5


def geweke_test(sample):
    """Two-window convergence diagnostic, multivariate.

    Compares the mean of the first tenth of the chain with the mean of
    the last half via a Hotelling-type statistic whose window
    covariances come from batch means.  Returns the p-value; the F
    reference uses the pooled batch count as its degrees of freedom.
    """
    x = _as_matrix(sample)
    S = x.shape[0]
    n1 = int(S * _GEWEKE_FIRST)
    n2 = int(S * _GEWEKE_LAST)
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
    return _hotelling_pvalue(t2, p, nu)


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
