"""Simulated annealing toward target statistics.

The search minimizes the quadratic energy (g(y) - targets)' W
(g(y) - targets) over the non-offset statistics, with an acceptance
probability exp(-dE/T + <eta, dg>) where eta holds the infinite offset
coefficients (finite entries are ignored), summed by the chain's one
0 * inf rule: a zero change adds nothing, and a NaN bias (opposite
infinities) forbids the move like -inf.  The temperature
decays linearly to zero at the last run, where energy-increasing moves
are rejected outright and ties are decided by the offset bias alone.
After every run the weight matrix is recomputed as the normalized
Moore-Penrose pseudoinverse of the covariance of the proposed
statistic differences stored during the run, accepted or not (a run
that stored fewer than two, or fewer than the energy statistics, keeps
its weights).  The search steps through the Metropolis-Hastings
chain's one loop, ``sampler.Chain.kernel``, with this acceptance as
its ``anneal``.
"""

import math
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .proposals import make_proposal
from .sampler import Chain, _run_tilt

__all__ = ["SanConfig", "SanTrace", "energy", "san_weight_update", "san_run"]

_INF = math.inf
# the most negative float: exp() of it is 0.0, so the uniform is drawn
_LOWEST = -sys.float_info.max
# the reservoir of proposed statistic differences behind the weight update
_MAX_STORED_DIFFS = 100_000


@dataclass
class SanConfig:
    targets: object                  # length = number of non-offset stats
    runs: int = 4
    steps_per_run: int = None        # default: max(4096, 8 * dyad count)
    tau0: float = None               # default: number of energy statistics
    offset_coefs: tuple = ()
    invcov_override: object = None   # fixed W, never updated
    trace_interval: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.trace_interval < 1 or self.runs < 1 or (
                self.steps_per_run is not None and self.steps_per_run < 1):
            raise DataError("trace_interval, runs and steps_per_run must be "
                            "positive")
        if self.tau0 is not None and not 0.0 <= self.tau0 < _INF:
            raise DataError("tau0 must be a finite nonnegative temperature")


@dataclass
class SanTrace:
    rows: list = field(default_factory=list)   # (proposals, stats..., energy)
    proposals: int = 0
    accepted: int = 0
    runs_completed: int = 0
    exited_early: bool = False
    final_energy: float = float("nan")


def energy(g, targets, W):
    """Quadratic deviation energy; zero exactly at the target."""
    dev = np.asarray(g, dtype=float) - np.asarray(targets, dtype=float)
    W = np.asarray(W, dtype=float)
    if W.shape != (dev.size, dev.size):
        raise DataError("weight matrix dimension mismatch")
    return float(dev @ W @ dev)


def san_weight_update(diffs):
    """W = pinv(S) / trace(pinv(S)) from the stored proposal differences."""
    diffs = np.asarray(diffs, dtype=float)
    cov = np.cov(diffs, rowvar=False).reshape(diffs.shape[1], diffs.shape[1])
    pinv = np.linalg.pinv(cov)
    tr = float(np.trace(pinv))
    if tr <= 0.0:
        return np.eye(diffs.shape[1]) / diffs.shape[1]
    return pinv / tr


def _check_weights(W):
    """A fixed weight matrix must be finite, symmetric and positive
    semi-definite: with a NaN energy every T = 0 move reads as an
    improvement, and a negative direction anneals away from the
    targets.  Symmetry and the eigenvalues are judged to a rounding
    tolerance relative to W's largest entry."""
    if not np.isfinite(W).all():
        raise DataError("invcov_override must be finite")
    tol = 1e-12 * np.abs(W).max(initial=0.0) * max(len(W), 1)
    if np.abs(W - W.T).max(initial=0.0) > tol:
        raise DataError("invcov_override must be symmetric")
    if W.size and np.linalg.eigvalsh(W).min() < -tol:
        raise DataError("invcov_override must be positive semi-definite")


def san_run(net, model, config, constraints=None, attrs=None, rng=None):
    """Anneal `net` in place toward the configured targets.

    The proposal is chosen from the constraint spec exactly as for
    MCMC, and the search steps through one ``sampler.Chain`` on `net`:
    its kernel draws, applies the checker's rule (a disallowed proposal
    is consumed and rejected) and flips, and the annealing acceptance
    enters it as ``kernel``'s ``anneal``.  Returns (net, SanTrace); the
    trace records statistic rows every trace_interval proposals and the
    acceptance counts.
    """
    if rng is None:
        rng = random.Random(config.seed)
    chain = Chain(net, model, *make_proposal(net, constraints, attrs), rng)

    free = model.free_index
    offs = model.offset_index
    targets = np.asarray(config.targets, dtype=float)
    if targets.shape != (len(free),):
        raise DataError(f"need {len(free)} target values (non-offset statistics)")
    if not np.isfinite(targets).all():
        raise DataError("target values must be finite")
    if len(config.offset_coefs) != len(offs):
        raise DataError(f"need {len(offs)} offset coefficients")
    if any(map(math.isnan, config.offset_coefs)):
        raise DataError("offset coefficients must not be NaN")
    p = len(free)
    if config.invcov_override is not None:
        W = np.asarray(config.invcov_override, dtype=float)
        if W.shape != (p, p):
            raise DataError("invcov_override dimension mismatch")
        _check_weights(W)
    else:
        W = np.eye(p) / max(p, 1)
    tau0 = config.tau0 if config.tau0 is not None else float(max(p, 1))
    steps_per_run = config.steps_per_run or max(4096, 8 * net.dyad_count())
    # the offset bias <eta, dg> counts only infinite offset coefficients,
    # summed as the chain step sums its tilt; with none it is exactly 0.0
    # and is not computed
    eta = [0.0] * model.p
    for k, c in zip(offs, config.offset_coefs):
        if math.isinf(c):
            eta[k] = c
    biased = any(eta)

    stats = model.summary(net)
    dev = np.array([stats[k] for k in free]) - targets
    e = float(dev @ W @ dev)    # the current energy, kept with dev and W
    trace = SanTrace()
    runs = config.runs
    new_dev = new_e = None

    def anneal(delta, present):
        """The log acceptance of toggling a dyad in state `present` with
        change score `delta`; stores the proposed difference and leaves
        the move's deviation and energy in new_dev and new_e."""
        nonlocal seen, new_dev, new_e
        dfree = np.array([delta[k] for k in free]) * (-1.0 if present else 1.0)

        # reservoir subsample of the proposed differences
        seen += 1
        if len(stored) < _MAX_STORED_DIFFS:
            stored.append(dfree)
        else:
            slot = rng.randrange(seen)
            if slot < _MAX_STORED_DIFFS:
                stored[slot] = dfree

        new_dev = dev + dfree
        new_e = float(new_dev @ W @ new_dev)
        dE = new_e - e
        bias = _run_tilt(eta, delta) if biased else 0.0
        if present:
            bias = -bias
        # opposite infinities sum to NaN: forbidden, like -inf
        if not bias > -_INF:
            return -_INF
        if T == 0.0:
            if dE > 0.0:
                return -_INF
            return bias if dE == 0.0 else _INF
        if bias == _INF:
            return _INF
        log_alpha = -dE / T + bias
        # a -inf or NaN score still draws its uniform before rejecting
        return log_alpha if log_alpha > -_INF else _LOWEST

    advance = chain.kernel(eta, anneal)
    for r in range(runs):
        if runs > 1:
            T = tau0 * (1.0 - r / (runs - 1.0))
        else:
            T = tau0
        stored = []
        seen = 0
        for _ in range(steps_per_run):
            if not dev.any():
                trace.exited_early = True
                trace.final_energy = 0.0
                trace.runs_completed = r
                return net, trace
            trace.proposals += 1
            if trace.proposals % config.trace_interval == 0:
                trace.rows.append((trace.proposals, list(stats), e))
            moved = advance(stats, 1)
            if moved is not stats:
                stats, dev, e = moved, new_dev, new_e
                trace.accepted += 1
        trace.runs_completed = r + 1
        # one stored difference has no covariance
        if config.invcov_override is None and len(stored) >= max(p, 2):
            W = san_weight_update(np.asarray(stored))
            e = float(dev @ W @ dev)
    trace.final_energy = e
    trace.exited_early = not dev.any()
    return net, trace
