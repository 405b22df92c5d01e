"""Estimation: pseudo-likelihood, Monte-Carlo MLE, contrastive divergence.

The pseudo-likelihood treats each free dyad as an independent Bernoulli
draw whose log-odds is the coefficient vector dotted with the dyad's
change score; maximizing it is a weighted logistic regression.  Naive
standard errors invert the negative Hessian J; the sandwich correction
J^-1 V(U) J^-1 estimates V(U) as the covariance of the estimating
function over an MCMC sample drawn with the fitted value as the truth.

The Monte-Carlo MLE update maximizes the importance-sampled likelihood
ratio against the previous iterate; the observed statistic is first
pulled toward the simulated-sample centroid until it is deep inside the
sample's convex hull, which guarantees a finite unique maximizer.
Three stopping rules are provided: an autocorrelation-adjusted
Hotelling test of a zero estimating function, the two-consecutive-
iterations hull-depth rule, and an equivalence test on an upper
confidence bound of the Mahalanobis distance.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .diagnostics import _hotelling_pvalue, batch_means_cov
from .errors import ConstraintError, DataError, SeparationError, SingularityError
from .hull import _DEPTH, _pull_inside, boundary_multiplier
# make_proposal, mh_step and run_chain are not called here, but stay
# module attributes: perfbench/spans.py traces them by name
from .proposals import blocks_rule, make_proposal
from .sampler import (Chain, SampleMatrix, SamplerConfig, _offset_shift,
                      adaptive_run, mh_step, run_chain)

__all__ = ["MpleRows", "FitResult", "McmleControl", "mple_rows",
           "logistic_fit", "mple", "mcmle_step", "check_termination",
           "mcmle_fit", "cd_fit"]

_INF = math.inf

# Free dyads per block of the full-dyad sweeps: the sweeps hold
# O(_BLOCK_DYADS * p) floats at a time, whatever the network size.
# Measured at n=300 over 32 MPLE fits in one process: from 2048 up the
# peak RSS kept growing from fit to fit (by 0.4 MB at 2048, 1 MB at
# 4096), while 1536 kept it flat and runs within 10 % of 2048.
_BLOCK_DYADS = 1536


@dataclass
class MpleRows:
    """Response/predictor extraction over the free dyads.

    compressed: unique (response, predictor, offset-change) rows with
    multiplicities; array: tail x head x statistic cube with NaN where
    no free dyad exists; dyadlist: one row per free dyad with 1-based
    endpoints.  Predictor columns are the non-offset statistics; the
    offset statistics' change scores are kept alongside so fixed
    coefficients enter the fit as per-row shifts.
    """

    mode: str
    response: np.ndarray
    predictor: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    names: list
    offset_names: list
    dyads: np.ndarray = None
    array: np.ndarray = None


@dataclass
class FitResult:
    coefs: np.ndarray          # full length p, offsets at their fixed values
    vcov: np.ndarray           # over free coordinates
    names: list
    free_index: list
    se_kind: str = "naive"
    iterations: int = 0
    converged: bool = True
    termination: str = ""
    termination_stat: float = float("nan")
    sample: object = None      # SampleMatrix, last iteration, free columns

    @property
    def free_coefs(self):
        return np.asarray([self.coefs[k] for k in self.free_index])

    def standard_errors(self):
        return np.sqrt(np.clip(np.diag(self.vcov), 0.0, None))


def _dyad_blocks(net, model, frozen=None):
    """Yield (tails, heads, present, delta) for blocks of whole rows of
    free dyads, in dyads() order; delta holds the change scores.  The
    dyads `frozen` marks (see ``_frozen_dyads``) are dropped after their
    block is scored, as ``model.changes`` takes whole rows; an edge on
    one raises ConstraintError."""
    for r0, r1 in net.row_blocks(_BLOCK_DYADS):
        tails, heads = net.dyad_rows(r0, r1)
        present = net.edge_mask(tails, heads)
        delta = model.changes(net, tails, heads, present)
        if frozen is not None:
            keep = ~frozen(tails, heads)
            bad = np.flatnonzero(present & ~keep)
            if bad.size:
                i, j = tails[bad[0]] + 1, heads[bad[0]] + 1
                raise ConstraintError(f"edge ({i}, {j}) violates blocks")
            tails, heads, present, delta = (
                tails[keep], heads[keep], present[keep], delta[keep])
        yield tails, heads, present, delta


def _distinct_rows(block):
    """(first index, count) of each distinct row of a 2-d float array,
    in first-seen order; rows are equal when their floats compare equal."""
    order = np.lexsort(block.T)      # stable: a group starts at its first row
    ranked = block[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    count = np.zeros(len(ranked), dtype=np.int64)
    count[order[starts]] = np.diff(starts, append=len(ranked))
    first = np.flatnonzero(count)
    return first, count[first]


def mple_rows(net, model, mode="compressed", constraints=None, attrs=None):
    """Enumerate free dyads: response, change scores, multiplicities.

    The dyads are scored a block of whole rows at a time (up to
    ``_BLOCK_DYADS`` dyads), so apart from the output the sweep holds
    O(block * p) floats.  Dyads frozen by a blocks constraint leave at
    that sweep: every mode covers only the dyads the constraints leave
    free (the array holds NaN on the others), and an edge on a frozen
    dyad raises ConstraintError.  Compressed rows keep the order in
    which each distinct row is first seen in dyads() order.
    """
    if mode not in ("compressed", "array", "dyadlist"):
        raise DataError(f"unknown MPLE output mode {mode!r}")
    blocks = _dyad_blocks(net, model, _frozen_dyads(net, constraints, attrs))
    free = model.free_index
    off = model.offset_index
    names = [model.names[k] for k in free]
    offset_names = [model.names[k] for k in off]

    if mode == "array":
        cube = np.full((net.n, net.n, model.p), np.nan)
        for tails, heads, _, delta in blocks:
            cube[tails, heads, :] = delta
            if not net.directed:
                cube[heads, tails, :] = delta
        return MpleRows(mode=mode, response=None, predictor=None, weights=None,
                        offsets=None, names=list(model.names),
                        offset_names=offset_names, array=cube)

    if mode == "dyadlist":
        tails, heads, present, delta = map(np.concatenate, zip(*blocks))
        return MpleRows(mode=mode, response=present.astype(float),
                        predictor=np.ascontiguousarray(delta[:, free]),
                        weights=np.ones(len(tails)),
                        offsets=np.ascontiguousarray(delta[:, off]), names=names,
                        offset_names=offset_names,
                        dyads=np.column_stack([tails + 1, heads + 1]))

    # each distinct (response, free changes, offset changes) row, with its
    # count, in first-seen order; blocks merge into one dict so that the
    # order and the float equality of keys are those of a dyad-by-dyad pass
    counts = {}
    for _, _, present, delta in blocks:
        block = np.column_stack([present, delta[:, free + off]])
        first, seen = _distinct_rows(block)
        for key, c in zip(map(tuple, block[first].tolist()), seen.tolist()):
            counts[key] = counts.get(key, 0) + c
    table = np.array(list(counts), dtype=float).reshape(len(counts), 1 + model.p)
    nf = len(free)
    return MpleRows(mode=mode, response=table[:, 0].copy(),
                    predictor=table[:, 1:1 + nf].copy(),
                    weights=np.array(list(counts.values()), dtype=float),
                    offsets=table[:, 1 + nf:].copy(), names=names,
                    offset_names=offset_names)


_LOGISTIC_TOL = 1e-10
_LOGISTIC_MAX_ITER = 100


def _determined_rows(response, shift):
    """The rows an infinite shift determines; DataError when the
    observed response contradicts one of them."""
    determined = np.isinf(shift)
    if (determined & np.where(shift < 0, response > 0.5, response < 0.5)).any():
        raise DataError("observed state contradicts an infinite offset "
                        "coefficient (a dyad it forbids hosts an edge, "
                        "or one it forces is empty)")
    return determined


def logistic_fit(predictor, response, weights=None, shift=None):
    """Weighted logistic regression by Newton-Raphson.

    Returns (coefs, J) with J the negative Hessian at the optimum.
    Rows whose shift is -inf (or +inf) are structurally determined: the
    response must match, and the row drops out of the fit.  Divergence
    with a non-vanishing gradient raises SeparationError; a rank-
    deficient design raises SingularityError naming a null direction.
    """
    X = np.asarray(predictor, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=float)
    o = np.zeros(len(y)) if shift is None else np.asarray(shift, dtype=float)

    determined = _determined_rows(y, o)
    if determined.any():
        keep = ~determined
        X, y, w, o = X[keep], y[keep], w[keep], o[keep]
    if len(y) == 0 or X.shape[1] == 0:
        return np.zeros(X.shape[1]), np.zeros((X.shape[1], X.shape[1]))

    sw = np.sqrt(w)
    sv = np.linalg.svd(X * sw[:, None], full_matrices=False)
    if sv[1][-1] <= 1e-10 * max(sv[1][0], 1.0):
        null = sv[2][-1]
        raise SingularityError(
            f"design matrix is column-rank deficient; null direction {null}")

    beta = np.zeros(X.shape[1])
    for _ in range(_LOGISTIC_MAX_ITER):
        eta = X @ beta + o
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
        grad = X.T @ (w * (y - p))
        if np.abs(grad).max() < _LOGISTIC_TOL:
            break
        wt = w * p * (1.0 - p)
        H = (X * wt[:, None]).T @ X
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            raise SeparationError("logistic Hessian became singular "
                                  "(separated data)")
        beta = beta + step
        if np.abs(beta).max() > 50.0 and np.abs(grad).max() > 1e-6:
            raise SeparationError("coefficients diverging; data are separable")
    else:
        if np.abs(grad).max() > 1e-6:
            raise SeparationError("logistic fit failed to converge")
    eta = X @ beta + o
    p = 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))
    if np.abs(beta).max() > 15.0 and np.abs(y - p).max() < 1e-7:
        # the maximizer ran to the boundary: a perfect fit with huge
        # log-odds means the data are separated
        raise SeparationError("coefficients diverging; data are separable")
    wt = w * p * (1.0 - p)
    J = (X * wt[:, None]).T @ X
    return beta, J


def pseudo_loglik(predictor, response, weights, shift, beta):
    """Weighted Bernoulli log-likelihood of the dyad-wise model."""
    keep = ~np.isinf(shift)
    eta = predictor[keep] @ beta + shift[keep]
    y = response[keep]
    w = weights[keep]
    return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))


def _frozen_dyads(net, constraints, attrs):
    """A blocks constraint as a function of (tails, heads) index arrays
    that marks the dyads it freezes; None without a blocks constraint."""
    rule = blocks_rule(net, constraints, attrs)
    if rule is None:
        return None
    lev, forbid = np.asarray(rule[0]), np.asarray(rule[1], dtype=bool)
    return lambda tails, heads: forbid[lev[tails], lev[heads]]


def _edge_probability(eta):
    """Logistic of a log-odds, exactly 1 or 0 at +-inf."""
    if eta == _INF:
        return 1.0
    if eta == -_INF:
        return 0.0
    return 1.0 / (1.0 + math.exp(-min(max(eta, -700.0), 700.0)))


def mple(net, model, offset_coefs=(), se="naive", constraints=None, attrs=None,
         samplesize=1000, interval=None, seed=0):
    """Maximum pseudo-likelihood fit with naive or sandwich variance.

    Degree-cap constraints are ignored at this stage (the logistic fit
    cannot express them); the dyads a blocks constraint freezes leave
    the design at the block sweep (see ``mple_rows``).  The sandwich
    middle term is the covariance of the pseudo-likelihood estimating
    function over an MCMC sample drawn with the fitted coefficients as
    the true values, after a burn-in of ten sampling intervals; it needs
    at least two draws.  The estimating function sums over the dyads the
    fit uses, so the same sweep leaves the frozen dyads out of it too.
    Both the design and each draw's estimating function are swept in
    blocks of whole rows, holding O(block * p) floats at a time; the
    per-dyad terms are added in dyads() order, so the sums are those of
    a dyad-by-dyad pass.
    """
    # a NaN offset would run the Newton loop to its cap on NaN shifts
    if any(map(math.isnan, offset_coefs)):
        raise DataError("offset coefficients must not be NaN")
    rows = mple_rows(net, model, "compressed", constraints, attrs)
    shift = _offset_shift(rows.offsets, list(offset_coefs))
    beta, J = logistic_fit(rows.predictor, rows.response, rows.weights, shift)
    try:
        vcov = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        vcov = np.linalg.pinv(J)
    coefs = model.assemble_coefs(beta, list(offset_coefs))
    result = FitResult(coefs=np.asarray(coefs), vcov=vcov, names=model.names,
                       free_index=model.free_index, se_kind=se, iterations=1,
                       termination="mple")
    if se == "naive":
        return result
    if se != "sandwich":
        raise DataError(f"unknown se kind {se!r}")
    if samplesize < 2:
        raise DataError("the sandwich variance needs at least 2 draws")

    if interval is None:
        interval = _default_interval(net)
    chain = Chain.start(net, model, constraints, attrs, random.Random(seed))
    free = model.free_index
    frozen = _frozen_dyads(net, constraints, attrs)

    def score(nw):
        u = np.zeros((1, len(free)))
        for _, _, present, delta in _dyad_blocks(nw, model, frozen):
            eta, where = np.unique(_offset_shift(delta, coefs),
                                   return_inverse=True)
            p = np.array([_edge_probability(e) for e in eta.tolist()])
            resid = present - p[where]
            # a running sum, so that the additions happen in dyad order
            u = np.add.accumulate(
                np.vstack([u, delta[:, free] * resid[:, None]]))[-1:]
        return u[0]

    cfg = SamplerConfig(samplesize=samplesize, interval=interval,
                        burnin=10 * interval)
    _, scores = chain.run(list(coefs), cfg, collect=score)
    V = np.cov(np.asarray(scores), rowvar=False).reshape(len(free), len(free))
    result.vcov = vcov @ V @ vcov
    return result


@dataclass
class McmleControl:
    samplesize: int = 1024
    interval: int = None           # default: half the free-dyad count
    burnin: int = None             # default: 16 * interval on first round
    target_ess: float = None       # adaptive sampling when set
    maxit: int = 60
    termination: str = "confidence"
    seed: int = 0


@dataclass
class _IterationRecord:
    theta: np.ndarray
    sample: np.ndarray        # free columns, absolute statistics
    g_obs: np.ndarray
    gamma: float


def _reduce_support(sample):
    """Orthonormal basis of the sample's spanned directions."""
    mean = sample.mean(axis=0)
    centered = sample - mean
    if centered.shape[0] < 2:
        raise DataError("need at least two draws")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    keep = svals > 1e-10 * scale
    return mean, vt[keep].T   # p_free x r


_MCMLE_TOL = 1e-8
_MCMLE_MAX_ITER = 200


def mcmle_step(theta_t, sample, g_obs):
    """One Monte-Carlo MLE update from a sample drawn at theta_t.

    Maximizes <theta - theta_t, g_obs> - log mean exp<theta - theta_t,
    g_s> by Newton with backtracking, after pulling g_obs toward the
    sample centroid so the maximizer exists.  Returns (theta_next,
    info) where info carries the hull multiplier, the tilted
    covariance, and the surrogate objective gain.
    """
    theta_t = np.asarray(theta_t, dtype=float)
    sample = np.asarray(sample, dtype=float)
    g_obs = np.asarray(g_obs, dtype=float)
    mean, basis = _reduce_support(sample)
    resid = (g_obs - mean) - basis @ (basis.T @ (g_obs - mean))
    scale = max(float(np.abs(sample).max()), 1.0)
    if np.abs(resid).max() > 1e-6 * scale:
        raise SingularityError("observed statistic is not spanned by the "
                               "simulated sample")
    gamma = boundary_multiplier(sample, g_obs)
    g_work = _pull_inside(g_obs, mean, gamma)

    Z = (sample - mean) @ basis
    z_obs = (g_work - mean) @ basis
    delta = np.zeros(Z.shape[1])

    def objective(d):
        t = Z @ d
        m = t.max()
        return float(d @ z_obs - (m + math.log(np.mean(np.exp(t - m)))))

    f_cur = objective(delta)
    f0 = f_cur
    for _ in range(_MCMLE_MAX_ITER):
        t = Z @ delta
        t -= t.max()
        w = np.exp(t)
        w /= w.sum()
        g_mean = w @ Z
        grad = z_obs - g_mean
        if np.abs(grad).max() < _MCMLE_TOL * max(1.0, np.abs(z_obs).max()):
            break
        centered = Z - g_mean
        H = (centered * w[:, None]).T @ centered
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        lam = 1.0
        while lam > 1e-8:
            cand = delta + lam * step
            f_new = objective(cand)
            if f_new >= f_cur - 1e-12:
                delta = cand
                f_cur = f_new
                break
            lam *= 0.5
        else:
            break
    theta_next = theta_t + basis @ delta
    t = Z @ delta
    t -= t.max()
    w = np.exp(t)
    w /= w.sum()
    g_mean = w @ Z
    centered = Z - g_mean
    H = (centered * w[:, None]).T @ centered
    tilted_cov = basis @ H @ basis.T
    info = {"gamma": gamma, "objective_gain": f_cur - f0,
            "tilted_cov": tilted_cov}
    return theta_next, info


# hotelling stops once its p-value exceeds _HOTELLING_ALPHA, confidence
# once its upper (1 - _CONFIDENCE_ALPHA) bound is below _CONFIDENCE_DELTA;
# _CONFIDENCE_Z is the standard normal (1 - _CONFIDENCE_ALPHA) quantile,
# correctly rounded (0x1.a515209676abbp+0)
_HOTELLING_ALPHA = 0.5
_CONFIDENCE_ALPHA = 0.05
_CONFIDENCE_Z = 1.6448536269514722
_CONFIDENCE_DELTA = 0.25


def check_termination(kind, history):
    """Evaluate a stopping rule on the iteration history.

    Returns (stop, statistic) where the statistic is the p-value for
    hotelling, the hull multiplier for hummel, and the Mahalanobis
    upper confidence bound for confidence.  The p-value comes from the
    pure-Python F and chi-square tails of `diagnostics`, and the bound's
    normal quantile is the literal `_CONFIDENCE_Z`.
    """
    if kind not in ("hotelling", "hummel", "confidence"):
        raise DataError(f"unknown termination rule {kind!r}")
    if not history:
        return False, float("nan")
    rec = history[-1]
    sample = rec.sample
    S = len(sample)
    U = rec.g_obs - sample.mean(axis=0)

    if kind == "hummel":
        if len(history) < 2:
            return False, rec.gamma
        need = 1.0 / _DEPTH
        ok = history[-1].gamma >= need and history[-2].gamma >= need
        return ok, rec.gamma

    mean, basis = _reduce_support(sample)
    u_r = basis.T @ U
    resid = U - basis @ u_r
    if np.abs(resid).max() > 1e-6 * max(1.0, float(np.abs(sample).max())):
        return False, 0.0 if kind == "hotelling" else math.inf
    Z = (sample - mean) @ basis
    p = Z.shape[1]

    if kind == "hotelling":
        sigma = batch_means_cov(Z)
        cov_mean = sigma / S
        try:
            t2 = float(u_r @ np.linalg.solve(cov_mean, u_r))
        except np.linalg.LinAlgError:
            t2 = float(u_r @ np.linalg.pinv(cov_mean) @ u_r)
        pval = _hotelling_pvalue(t2, p, S // int(math.isqrt(S)) - 1)
        return pval > _HOTELLING_ALPHA, pval

    # confidence: equivalence test on the Mahalanobis distance bound
    lam = np.cov(Z, rowvar=False).reshape(p, p)
    sigma = batch_means_cov(Z) / S
    try:
        lam_inv = np.linalg.inv(lam)
    except np.linalg.LinAlgError:
        lam_inv = np.linalg.pinv(lam)
    d2 = float(u_r @ lam_inv @ u_r)
    inner = lam_inv @ sigma
    var_d2 = float(4.0 * u_r @ lam_inv @ sigma @ lam_inv @ u_r
                   + 2.0 * np.trace(inner @ inner))
    ucb = math.sqrt(max(d2, 0.0)
                    + _CONFIDENCE_Z * math.sqrt(max(var_d2, 0.0)))
    return ucb < _CONFIDENCE_DELTA, ucb


def _default_interval(net):
    return max(1, net.dyad_count() // 2)


def mcmle_fit(net, model, g_obs=None, offset_coefs=(), constraints=None,
              attrs=None, init="mple", control=None):
    """Iterated Monte-Carlo maximum likelihood.

    `net` is the starting (and observed) network; pass `g_obs` to
    target other sufficient statistics, e.g. from an annealed starting
    network.  `init` is "mple", "cd", or an explicit free-coefficient
    vector.  Returns a FitResult whose covariance is the inverse of the
    tilted statistic covariance at the final iterate.

    Each iteration takes its `mcmle_step` before the stopping check, so
    the rules read the hull multiplier of the step, and the step is
    dropped when the rule stops.  Taking it first changes no outcome:
    the step raises only when the observed statistic is not spanned by
    the sample, and under that same test the hotelling and confidence
    rules never stop and the hummel multiplier is about 0.
    """
    control = control or McmleControl()
    if control.maxit < 1:
        raise DataError("maxit must be at least 1")
    full_obs = np.asarray(model.summary(net) if g_obs is None else g_obs,
                          dtype=float)
    if full_obs.shape != (model.p,):
        raise DataError(f"observed statistics must have length {model.p}")
    if not np.isfinite(full_obs).all():
        raise DataError("observed statistics must be finite")
    free = model.free_index
    obs_free = full_obs[free]

    if isinstance(init, str):
        degree_caps = constraints is not None and constraints.degree_capped()
        if init == "mple" and not degree_caps:
            start = mple(net, model, offset_coefs, constraints=constraints,
                         attrs=attrs)
            theta = start.free_coefs
        elif init in ("mple", "cd"):
            theta = cd_fit(net, model, offset_coefs=offset_coefs,
                           constraints=constraints, attrs=attrs,
                           seed=control.seed)
        else:
            raise DataError(f"unknown init method {init!r}")
    else:
        theta = np.asarray(init, dtype=float)
        if theta.shape != (len(free),):
            raise DataError(f"init vector must have length {len(free)}")

    chain = Chain.start(net, model, constraints, attrs,
                        random.Random(control.seed))
    interval = (_default_interval(net) if control.interval is None
                else control.interval)
    burnin = control.burnin if control.burnin is not None else 16 * interval

    history = []
    converged = False
    stat = float("nan")
    for it in range(1, control.maxit + 1):
        coefs = model.assemble_coefs(theta, list(offset_coefs))
        cfg = SamplerConfig(samplesize=control.samplesize, interval=interval,
                            burnin=burnin if it == 1 else interval,
                            target_ess=control.target_ess)
        if control.target_ess is not None:
            sm, _adiag = adaptive_run(chain, coefs, cfg)
        else:
            sm = chain.run(coefs, cfg)
        sample_free = sm.values[:, free]
        # the step solves the iteration's one hull LP
        theta_next, step_info = mcmle_step(theta, sample_free, obs_free)
        history.append(_IterationRecord(theta=theta.copy(), sample=sample_free,
                                        g_obs=obs_free,
                                        gamma=step_info["gamma"]))
        stop, stat = check_termination(control.termination, history)
        if stop:
            converged = True
            break
        theta, info = theta_next, step_info

    rec = history[-1]
    if converged:
        # at termination the sample was drawn at the final iterate, so
        # the Fisher information estimate is the plain sample covariance
        fisher = np.cov(rec.sample, rowvar=False).reshape(len(free), len(free))
    else:
        fisher = info["tilted_cov"]
    try:
        vcov = np.linalg.inv(fisher)
    except np.linalg.LinAlgError:
        vcov = np.linalg.pinv(fisher)
    coefs = model.assemble_coefs(theta, list(offset_coefs))
    return FitResult(coefs=np.asarray(coefs), vcov=vcov, names=model.names,
                     free_index=free, se_kind="fisher", iterations=len(history),
                     converged=converged,
                     termination=f"{control.termination}" +
                                 ("" if converged else " (iteration cap)"),
                     termination_stat=stat,
                     sample=SampleMatrix(rec.sample,
                                         [model.names[k] for k in free],
                                         interval=sm.interval,
                                         burnin=sm.burnin))


# the Robbins-Monro gain of cd_fit's round m is _CD_GAIN / (1 + m / 20)
_CD_GAIN = 0.5


def cd_fit(net, model, offset_coefs=(), k=8, rounds=160, minibatch=24,
           constraints=None, attrs=None, seed=0):
    """Contrastive-divergence estimate from k-step restarts at the data.

    Robbins-Monro on the k-step score: each round runs `minibatch`
    chains of k Metropolis-Hastings steps from the observed network and
    moves the coefficients along the (covariance-whitened) difference
    between observed and simulated statistics.  Intended as a starting
    value where the pseudo-likelihood is unavailable, e.g. under
    dyad-dependent sample-space constraints.
    """
    if k < 1 or rounds < 1 or minibatch < 2:
        raise DataError("cd_fit needs k >= 1, rounds >= 1 and minibatch >= 2")
    g_obs = np.asarray(model.summary(net), dtype=float)
    free = model.free_index
    obs_free = g_obs[free]
    rng = random.Random(seed)
    theta = np.zeros(len(free))
    trail = []

    for m in range(1, rounds + 1):
        coefs = model.assemble_coefs(theta, list(offset_coefs))
        sims = np.empty((minibatch, len(free)))
        for b in range(minibatch):
            advance = Chain.start(net, model, constraints, attrs,
                                  rng).kernel(coefs)
            stats_vec = advance(list(g_obs), k)
            sims[b] = [stats_vec[c] for c in free]
        u = obs_free - sims.mean(axis=0)
        cov = np.cov(sims, rowvar=False).reshape(len(free), len(free))
        ridge = 1e-3 * max(float(np.trace(cov)) / max(len(free), 1), 1e-6)
        try:
            direction = np.linalg.solve(cov + ridge * np.eye(len(free)), u)
        except np.linalg.LinAlgError:
            direction = u / max(float(np.trace(cov)), 1.0)
        a_m = _CD_GAIN / (1.0 + m / 20.0)
        theta = theta + a_m * direction
        if np.abs(theta).max() > 50.0:
            raise SeparationError("contrastive divergence diverged")
        if m > rounds // 2:
            trail.append(theta.copy())
    return np.mean(trail, axis=0) if trail else theta
