"""Log-likelihood evaluation.

The null deviance of a binary model is 2 N log 2 exactly.  For a model
with dyad-dependent terms, the log-likelihood at the fit is recovered
as the exact logistic log-likelihood of the dyad-independent sub-model
(all dyad-dependent coefficients fixed at zero) plus a bridge-sampling
estimate of the difference: simulate at parameters interpolated along
the line between the two coefficient vectors and average the shifted
statistics tilted by the direction of travel.  Under a blocks
constraint the likelihood is that of the constrained sample space: N,
the sub-model's fit and its sum cover only the dyads the blocks leave
free, which are the rows ``mple_rows`` builds.  Degree caps admit no
exact baseline and are rejected.

One loop runs the bridge in passes of interpolation points.  The first
pass is the midpoint grid; when a target standard error is set, each
further pass is shifted by a Kronecker (golden-ratio) offset and every
point is reweighted by the length of its Voronoi cell on the unit
interval, until the Monte Carlo standard error undercuts the target.
Every pass continues one live chain: the bridge starts one ``Chain``,
on one copy of the network, with one proposal.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import batch_means_cov
from .errors import DataError
from .estimate import _default_interval, _determined_rows, logistic_fit, \
    mple_rows, pseudo_loglik
# make_proposal and run_chain are not called here, but stay module
# attributes: perfbench/spans.py traces them by name
from .proposals import make_proposal
from .sampler import Chain, SamplerConfig, _offset_shift, run_chain

__all__ = ["BridgePlan", "LoglikResult", "null_deviance",
           "dyad_independent_loglik", "bridge_loglik", "evaluate_loglik"]

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class BridgePlan:
    J: int = 16
    K: int = 1000
    interval: int = None       # steps between draws; default half the dyads
    target_se: float = None    # add passes until mc_se reaches it
    max_passes: int = 64
    seed: int = 0


@dataclass
class PointEstimate:
    u: float
    mean: float
    se: float
    weight: float = 0.0


@dataclass
class LoglikResult:
    delta_loglik: float
    mc_se: float
    baseline_loglik: float = float("nan")
    loglik: float = float("nan")
    null_deviance: float = float("nan")
    aic: float = float("nan")
    bic: float = float("nan")
    passes: int = 1
    converged: bool = True
    points: list = field(default_factory=list)


def null_deviance(N):
    """-2 log-likelihood of the all-zero coefficient vector: 2 N log 2."""
    if N < 0:
        raise DataError("dyad count must be nonnegative")
    return 2.0 * N * math.log(2.0)


@dataclass
class DyadIndependentBaseline:
    theta: np.ndarray      # full-length coefficients (dyad-dependent at 0)
    loglik: float
    boundary: bool = False
    dyads: int = 0         # the dyads the fit used: those not frozen


def dyad_independent_loglik(net, model, offset_coefs=(), constraints=None,
                            attrs=None):
    """Exact MLE and log-likelihood of the dyad-independent sub-model.

    Dyad-dependent free coefficients are fixed at zero; the remaining
    fit is a logistic regression whose Bernoulli product is the exact
    likelihood.  Under a blocks constraint the likelihood is defined on
    the constrained space: the fit, the sum and the dyad count cover the
    dyads the blocks do not freeze.  Dyads an infinite offset fixes are
    left out of the fit and the count alike, so the same space spelled
    either way gives the same baseline.  A degenerate response over those
    dyads (no edges, or all tied) sits on the parameter-space boundary:
    the supremum 0 is reported with the boundary flag set.  Infinite
    coefficients on dyad-dependent offsets and degree caps are
    rejected: they make the sample space depend on the whole network,
    and no closed-form baseline exists.
    """
    for c, k in zip(offset_coefs, model.offset_index):
        if math.isinf(c) and not model.dyad_independent_mask[k]:
            raise DataError("infinite dyad-dependent offsets admit no "
                            "closed-form baseline log-likelihood")
    if constraints is not None and constraints.degree_capped():
        raise DataError("degree caps admit no closed-form baseline "
                        "log-likelihood")
    rows = mple_rows(net, model, "compressed", constraints, attrs)
    shift = _offset_shift(rows.offsets, list(offset_coefs))
    free = model.free_index
    di_cols = [c for c, k in enumerate(free) if model.dyad_independent_mask[k]]
    X = rows.predictor[:, di_cols]

    # rows an infinite offset determines are fixed relations, like the
    # dyads blocks freeze: they leave the response counts and the dyads
    y, w = rows.response, rows.weights
    live = ~_determined_rows(y, shift)
    ones, dyads = (w * y)[live].sum(), w[live].sum()
    theta = np.zeros(model.p)
    for k, c in zip(model.offset_index, offset_coefs):
        theta[k] = c
    if ones == 0.0 or ones == dyads:
        return DyadIndependentBaseline(theta=theta, loglik=0.0, boundary=True,
                                       dyads=int(dyads))

    beta, _ = logistic_fit(X, y, w, shift)
    ll = pseudo_loglik(X, y, w, shift, beta)
    for c, col in enumerate(di_cols):
        theta[free[col]] = beta[c]
    return DyadIndependentBaseline(theta=theta, loglik=ll, dyads=int(dyads))


def _point_mean_se(series):
    x = np.asarray(series, dtype=float)
    mean = float(x.mean())
    if x.size >= 8 and x.max() > x.min():
        sigma = batch_means_cov(x[:, None])[0, 0]
        se = math.sqrt(max(sigma, 0.0) / x.size)
    else:
        se = 0.0 if x.max() == x.min() else float(x.std(ddof=1) / math.sqrt(x.size))
    return mean, se


def kronecker_shift(l):
    """The l-th golden-ratio lattice shift v_l, with v_1 = 0."""
    return math.fmod((l - 1) / _PHI + 0.5, 1.0) - 0.5


def voronoi_weights(us):
    """Cell lengths of the points' Voronoi partition of (0, 1)."""
    order = np.argsort(us)
    sorted_u = np.asarray(us)[order]
    bounds = np.concatenate([[0.0], (sorted_u[1:] + sorted_u[:-1]) / 2.0, [1.0]])
    w = np.diff(bounds)
    out = np.empty(len(us))
    out[order] = w
    return out


def bridge_loglik(net, model, theta_hat, theta_tilde, plan=None,
                  constraints=None, attrs=None, g_obs=None):
    """Bridge estimate of loglik(theta_hat) - loglik(theta_tilde).

    Pass l simulates K draws at each of the J points
    u = (j - 1/2 + v_l)/J on the linear coefficient path; pass one
    (v_1 = 0) is the midpoint grid, visited in ascending order.  Within
    a pass the points are visited in nearest-neighbor order from the
    last point simulated.  Every pass continues one live chain on one
    copy of the network: the first point burns in for 16 K steps, and
    each later point for `interval` steps from where the last one
    stopped.  Points are weighted by the lengths of their Voronoi cells
    on the unit interval and the standard error pools per-point
    batch-means errors.  Without plan.target_se one pass runs; with it,
    passes are added until the error reaches the target or
    plan.max_passes have run (then the result is flagged unconverged).
    """
    plan = plan or BridgePlan()
    if plan.J < 1 or plan.K < 1 or plan.max_passes < 1:
        raise DataError("bridge J, K and max_passes must be at least 1")
    if plan.target_se is not None and plan.target_se <= 0:
        raise DataError("target_se must be positive")
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if theta_hat.shape != (model.p,) or theta_tilde.shape != (model.p,):
        raise DataError(f"endpoint coefficient vectors must have length {model.p}")
    for k in model.offset_index:
        if theta_hat[k] != theta_tilde[k]:
            raise DataError("offset coefficients must agree at both endpoints")
    # only free coefficients move: offsets agree, and may be infinite
    free = model.free_index
    direction = np.zeros(model.p)
    direction[free] = theta_hat[free] - theta_tilde[free]
    if not np.any(direction):
        return LoglikResult(delta_loglik=0.0, mc_se=0.0, passes=0)
    chain = Chain.start(net, model, constraints, attrs, random.Random(plan.seed))
    g_obs = np.asarray(model.summary(net) if g_obs is None else g_obs, dtype=float)
    interval = _default_interval(net) if plan.interval is None else plan.interval
    passes = 1 if plan.target_se is None else plan.max_passes

    points = []      # PointEstimate records across passes
    for l in range(1, passes + 1):
        v = kronecker_shift(l)
        remaining = [(j - 0.5 + v) / plan.J for j in range(1, plan.J + 1)]
        anchor = points[-1].u if points else remaining[0]
        while remaining:
            u = min(remaining, key=lambda x: abs(x - anchor))
            remaining.remove(u)
            anchor = u
            burnin = interval if points else 16 * plan.K
            coefs = list(theta_tilde + u * direction)
            cfg = SamplerConfig(samplesize=plan.K, interval=interval,
                                burnin=burnin)
            sm = chain.run(coefs, cfg)
            mean, se = _point_mean_se((sm.values - g_obs) @ direction)
            points.append(PointEstimate(u=u, mean=mean, se=se))
        # the midpoint grid's cells are exactly 1/J long, which the
        # Voronoi midpoint sums miss in the last bit unless J is 2^k
        weights = ([1.0 / plan.J] * plan.J if l == 1
                   else voronoi_weights([pt.u for pt in points]))
        for pt, w in zip(points, weights):
            pt.weight = float(w)
        delta = -sum(pt.weight * pt.mean for pt in points)
        mc_se = math.sqrt(sum((pt.weight * pt.se) ** 2 for pt in points))
        if plan.target_se is None or mc_se <= plan.target_se:
            return LoglikResult(delta_loglik=delta, mc_se=mc_se, passes=l,
                                points=points)
    return LoglikResult(delta_loglik=delta, mc_se=mc_se, passes=passes,
                        converged=False, points=points)


def evaluate_loglik(net, model, theta_hat, offset_coefs=(), plan=None,
                    constraints=None, attrs=None, g_obs=None):
    """Full log-likelihood report at theta_hat.

    Computes the exact dyad-independent baseline, bridges the
    difference, and fills in the null deviance, AIC and BIC.  `d`, the
    number of non-fixed potential relations, is the baseline's dyad
    count: dyads frozen by blocks or fixed by an infinite offset are
    left out.  Degree caps raise DataError (see
    ``dyad_independent_loglik``).
    """
    baseline = dyad_independent_loglik(net, model, offset_coefs,
                                       constraints, attrs)
    if baseline.boundary:
        raise DataError("degenerate observed network: baseline likelihood "
                        "sits on the boundary, bridge endpoints undefined")
    res = bridge_loglik(net, model, theta_hat, baseline.theta, plan,
                        constraints=constraints, attrs=attrs, g_obs=g_obs)
    res.baseline_loglik = baseline.loglik
    res.loglik = baseline.loglik + res.delta_loglik
    d = baseline.dyads
    res.null_deviance = null_deviance(d)
    p_free = len(model.free_index)
    res.aic = -2.0 * res.loglik + 2.0 * p_free
    res.bic = -2.0 * res.loglik + p_free * math.log(max(d, 1))
    return res
