"""Log-likelihood evaluation.

The null deviance of a binary model is 2 N log 2 exactly.  For a model
with dyad-dependent terms, the log-likelihood at the fit is recovered
as the exact logistic log-likelihood of the dyad-independent sub-model
(all dyad-dependent coefficients fixed at zero) plus a bridge-sampling
estimate of the difference: simulate at parameters interpolated along
the line between the two coefficient vectors and average the shifted
statistics tilted by the direction of travel.

The adaptive mode keeps adding passes of interpolation points, each
pass shifted by a Kronecker (golden-ratio) offset, reweighting every
point by the length of its Voronoi cell on the unit interval, until the
Monte Carlo standard error undercuts the requested target.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import batch_means_cov
from .errors import DataError
from .estimate import logistic_fit, mple_rows, pseudo_loglik
from .formula import ConstraintSpec
from .proposals import make_proposal
from .sampler import SamplerConfig, _offset_shift, run_chain

__all__ = ["BridgePlan", "LoglikResult", "null_deviance",
           "dyad_independent_loglik", "bridge_loglik", "adaptive_bridge",
           "evaluate_loglik"]

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class BridgePlan:
    J: int = 16
    K: int = 1000
    interval: int = None       # steps between draws; default half the dyads
    burnin_first: int = None   # steps before the first point; default 16*K
    target_se: float = None
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


def dyad_independent_loglik(net, model, offset_coefs=()):
    """Exact MLE and log-likelihood of the dyad-independent sub-model.

    Dyad-dependent free coefficients are fixed at zero; the remaining
    fit is a logistic regression whose Bernoulli product is the exact
    likelihood.  A degenerate response (no edges, or all dyads tied)
    sits on the parameter-space boundary: the supremum 0 is reported
    with the boundary flag set.  Infinite coefficients on
    dyad-dependent offsets are rejected: they change the sample space,
    and no closed-form baseline exists.
    """
    for c, k in zip(offset_coefs, model.offset_index):
        if math.isinf(c) and not model.dyad_independent_mask[k]:
            raise DataError("infinite dyad-dependent offsets admit no "
                            "closed-form baseline log-likelihood")
    rows = mple_rows(net, model, mode="compressed")
    shift = _offset_shift(rows.offsets, list(offset_coefs))
    free = model.free_index
    di_cols = [c for c, k in enumerate(free) if model.dyad_independent_mask[k]]
    X = rows.predictor[:, di_cols]

    y, w = rows.response, rows.weights
    ones = (w * y).sum()
    if ones == 0.0 or ones == w.sum():
        theta = np.zeros(model.p)
        for k, c in zip(model.offset_index, offset_coefs):
            theta[k] = c
        return DyadIndependentBaseline(theta=theta, loglik=0.0, boundary=True)

    beta, _ = logistic_fit(X, y, w, shift)
    ll = pseudo_loglik(X, y, w, shift, beta)
    theta = np.zeros(model.p)
    for c, col in enumerate(di_cols):
        theta[free[col]] = beta[c]
    for k, coef in zip(model.offset_index, offset_coefs):
        theta[k] = coef
    return DyadIndependentBaseline(theta=theta, loglik=ll, boundary=False)


def _point_mean_se(series):
    x = np.asarray(series, dtype=float)
    mean = float(x.mean())
    if x.size >= 8 and x.max() > x.min():
        sigma = batch_means_cov(x[:, None])[0, 0]
        se = math.sqrt(max(sigma, 0.0) / x.size)
    else:
        se = 0.0 if x.max() == x.min() else float(x.std(ddof=1) / math.sqrt(x.size))
    return mean, se


def _simulate_point(net, model, coefs, proposal, checker, direction, g_obs,
                    K, interval, burnin, rng):
    """K draws of direction' (g(Y) - g_obs) at one path point."""
    cfg = SamplerConfig(samplesize=K, interval=interval, burnin=burnin, seed=0)
    sm = run_chain(net, model, list(coefs), proposal, cfg, checker=checker,
                   rng=rng)
    tilted = (sm.values - g_obs) @ direction
    return _point_mean_se(tilted)


def _bridge_context(net, model, theta_hat, theta_tilde, constraints, attrs):
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if theta_hat.shape != (model.p,) or theta_tilde.shape != (model.p,):
        raise DataError(f"endpoint coefficient vectors must have length {model.p}")
    for k in model.offset_index:
        if theta_hat[k] != theta_tilde[k]:
            raise DataError("offset coefficients must agree at both endpoints")
    direction = theta_hat - theta_tilde
    for k in model.offset_index:
        direction[k] = 0.0
    spec = constraints if constraints is not None else ConstraintSpec()
    sim_net = net.copy()
    proposal, checker = make_proposal(sim_net, spec, attrs)
    return theta_hat, theta_tilde, direction, sim_net, proposal, checker


def _path_coefs(theta_tilde, direction, u, offset_index):
    coefs = theta_tilde + u * direction
    for k in offset_index:
        coefs[k] = theta_tilde[k]
    return list(coefs)


def bridge_loglik(net, model, theta_hat, theta_tilde, plan=None,
                  constraints=None, attrs=None, g_obs=None):
    """Fixed-grid bridge estimate of loglik(theta_hat) - loglik(theta_tilde).

    J midpoints on the unit interval, K draws each, linear coefficient
    path; the chain warm-starts along the sorted path after a long
    burn-in at the first point.  The standard error pools per-point
    batch-means errors.
    """
    plan = plan or BridgePlan()
    theta_hat, theta_tilde, direction, sim_net, proposal, checker = \
        _bridge_context(net, model, theta_hat, theta_tilde, constraints, attrs)
    if not np.any(direction):
        return LoglikResult(delta_loglik=0.0, mc_se=0.0, passes=0)
    g_obs = np.asarray(model.summary(net) if g_obs is None else g_obs, dtype=float)
    interval = plan.interval or max(1, net.dyad_count() // 2)
    burnin_first = plan.burnin_first if plan.burnin_first is not None else 16 * plan.K
    rng = random.Random(plan.seed)

    points = []
    for j in range(1, plan.J + 1):
        u = (j - 0.5) / plan.J
        coefs = _path_coefs(theta_tilde, direction, u, model.offset_index)
        burnin = burnin_first if j == 1 else interval
        mean, se = _simulate_point(sim_net, model, coefs, proposal, checker,
                                   direction, g_obs, plan.K, interval, burnin,
                                   rng)
        points.append(PointEstimate(u=u, mean=mean, se=se, weight=1.0 / plan.J))
    delta = -sum(pt.weight * pt.mean for pt in points)
    mc_se = math.sqrt(sum((pt.weight * pt.se) ** 2 for pt in points))
    return LoglikResult(delta_loglik=delta, mc_se=mc_se, points=points)


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


def adaptive_bridge(net, model, theta_hat, theta_tilde, target_se, J=16,
                    K=1000, plan=None, constraints=None, attrs=None,
                    g_obs=None):
    """Bridge sampling with golden-ratio-shifted passes until the Monte
    Carlo standard error drops below target_se.

    Every pass adds J points u = (j - 1/2 + v_l)/J; the accumulated
    points are reweighted by their Voronoi cell lengths.  Within a pass
    the points are visited in a nearest-neighbor order continuing from
    the previous pass's last point, and each chain warm-starts from the
    stored state of the nearest already-simulated point.
    """
    if target_se is not None and target_se <= 0:
        raise DataError("target_se must be positive")
    plan = plan or BridgePlan(J=J, K=K, target_se=target_se)
    plan.J, plan.K, plan.target_se = J, K, target_se
    theta_hat, theta_tilde, direction, sim_net, proposal, checker = \
        _bridge_context(net, model, theta_hat, theta_tilde, constraints, attrs)
    if not np.any(direction):
        return LoglikResult(delta_loglik=0.0, mc_se=0.0, passes=0)
    g_obs = np.asarray(model.summary(net) if g_obs is None else g_obs, dtype=float)
    interval = plan.interval or max(1, net.dyad_count() // 2)
    burnin_first = plan.burnin_first if plan.burnin_first is not None else 16 * plan.K
    rng = random.Random(plan.seed)

    points = []      # PointEstimate records across passes
    states = []      # final network per simulated point
    delta = 0.0
    mc_se = math.inf
    last_u = None
    for l in range(1, plan.max_passes + 1):
        v = kronecker_shift(l)
        us = [(j - 0.5 + v) / plan.J for j in range(1, plan.J + 1)]
        # nearest-neighbor visiting order, chaining from the last point
        remaining = list(us)
        ordered = []
        anchor = last_u if last_u is not None else min(remaining)
        while remaining:
            nxt = min(remaining, key=lambda u: abs(u - anchor))
            remaining.remove(nxt)
            ordered.append(nxt)
            anchor = nxt
        for u in ordered:
            coefs = _path_coefs(theta_tilde, direction, u, model.offset_index)
            if points:
                nearest = min(range(len(points)),
                              key=lambda q: abs(points[q].u - u))
                sim_net = states[nearest].copy()
                burnin = interval
            else:
                burnin = burnin_first
            proposal, checker = make_proposal(sim_net,
                                              constraints or ConstraintSpec(),
                                              attrs)
            mean, se = _simulate_point(sim_net, model, coefs, proposal,
                                       checker, direction, g_obs, plan.K,
                                       interval, burnin, rng)
            points.append(PointEstimate(u=u, mean=mean, se=se))
            states.append(sim_net.copy())
            last_u = u
        weights = voronoi_weights([pt.u for pt in points])
        for pt, w in zip(points, weights):
            pt.weight = float(w)
        delta = -sum(pt.weight * pt.mean for pt in points)
        mc_se = math.sqrt(sum((pt.weight * pt.se) ** 2 for pt in points))
        if plan.target_se is not None and mc_se <= plan.target_se:
            return LoglikResult(delta_loglik=delta, mc_se=mc_se, passes=l,
                                points=points)
    return LoglikResult(delta_loglik=delta, mc_se=mc_se, passes=plan.max_passes,
                        converged=False, points=points)


def _blocked_dyad_count(net, level, forbid):
    """Free dyads whose endpoints' levels the blocks matrix `forbid`
    forbids, from per-level vertex counts (per mode when bipartite)."""
    L = len(forbid)
    if net.bipartite:
        first, second = [0] * L, [0] * L
        for v, a in enumerate(level):
            (first if v < net.bipartite else second)[a] += 1
        return sum(first[a] * second[c] for a in range(L) for c in range(L)
                   if forbid[a][c])
    count = [0] * L
    for a in level:
        count[a] += 1
    ordered = sum(count[a] * (count[c] - (a == c)) for a in range(L)
                  for c in range(L) if forbid[a][c])
    # undirected blocks matrices are symmetric: each dyad counted twice
    return ordered if net.directed else ordered // 2


def evaluate_loglik(net, model, theta_hat, offset_coefs=(), plan=None,
                    constraints=None, attrs=None, g_obs=None):
    """Full log-likelihood report at theta_hat.

    Computes the exact dyad-independent baseline, bridges the
    difference (adaptively when the plan carries a target_se), and
    fills in the null deviance, AIC and BIC.  `d`, the number of
    non-fixed potential relations, excludes dyads frozen by blocks.
    """
    plan = plan or BridgePlan()
    baseline = dyad_independent_loglik(net, model, offset_coefs)
    if baseline.boundary:
        raise DataError("degenerate observed network: baseline likelihood "
                        "sits on the boundary, bridge endpoints undefined")
    theta_hat = np.asarray(theta_hat, dtype=float)
    if plan.target_se is not None:
        res = adaptive_bridge(net, model, theta_hat, baseline.theta,
                              plan.target_se, J=plan.J, K=plan.K, plan=plan,
                              constraints=constraints, attrs=attrs, g_obs=g_obs)
    else:
        res = bridge_loglik(net, model, theta_hat, baseline.theta, plan,
                            constraints=constraints, attrs=attrs, g_obs=g_obs)
    res.baseline_loglik = baseline.loglik
    res.loglik = baseline.loglik + res.delta_loglik
    d = net.dyad_count()
    if constraints is not None and constraints.blocks_attr is not None:
        from .proposals import ConstraintChecker
        checker = ConstraintChecker(net, ConstraintSpec(
            blocks_attr=constraints.blocks_attr,
            blocks_levels2=constraints.blocks_levels2), attrs)
        d -= _blocked_dyad_count(net, checker.block_level, checker.forbid)
    res.null_deviance = null_deviance(d)
    p_free = len(model.free_index)
    res.aic = -2.0 * res.loglik + 2.0 * p_free
    res.bic = -2.0 * res.loglik + p_free * math.log(max(d, 1))
    return res
