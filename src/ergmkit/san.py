"""Simulated annealing toward target statistics.

The search minimizes the quadratic energy (g(y) - targets)' W
(g(y) - targets) over the non-offset statistics, with an acceptance
probability exp(-dE/T + <eta, dg>) where eta holds the infinite offset
coefficients (finite entries are ignored) and the product of an
infinite coefficient with a zero change is zero.  The temperature
decays linearly to zero at the last run, where energy-increasing moves
are rejected outright and ties are decided by the offset bias alone.
After every run the weight matrix is recomputed as the normalized
Moore-Penrose pseudoinverse of the covariance of the proposed
statistic differences stored during the run, accepted or not.
"""

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .proposals import make_proposal
from .sampler import _log_tilt

__all__ = ["SanConfig", "SanTrace", "energy", "san_weight_update", "san_run"]

_INF = math.inf


@dataclass
class SanConfig:
    targets: object                  # length = number of non-offset stats
    runs: int = 4
    steps_per_run: int = None        # default: max(4096, 8 * dyad count)
    tau0: float = None               # default: number of energy statistics
    offset_coefs: tuple = ()
    invcov_override: object = None   # fixed W, never updated
    trace_interval: int = 1000
    max_stored_diffs: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.trace_interval < 1 or self.runs < 1 or (
                self.steps_per_run is not None and self.steps_per_run < 1):
            raise DataError("trace_interval, runs and steps_per_run must be "
                            "positive")


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


def san_run(net, model, config, constraints=None, attrs=None, rng=None):
    """Anneal `net` in place toward the configured targets.

    The proposal is chosen from the constraint spec exactly as for
    MCMC; proposals a checker disallows are consumed and rejected.
    Returns (net, SanTrace); the trace records statistic rows every
    trace_interval proposals and the acceptance counts.
    """
    if rng is None:
        rng = random.Random(config.seed)
    proposal, checker = make_proposal(net, constraints, attrs)
    draw = proposal.bind(net, rng)

    free = model.free_index
    offs = model.offset_index
    targets = np.asarray(config.targets, dtype=float)
    if targets.shape != (len(free),):
        raise DataError(f"need {len(free)} target values (non-offset statistics)")
    if len(config.offset_coefs) != len(offs):
        raise DataError(f"need {len(offs)} offset coefficients")
    p = len(free)
    if config.invcov_override is not None:
        W = np.asarray(config.invcov_override, dtype=float)
        if W.shape != (p, p):
            raise DataError("invcov_override dimension mismatch")
    else:
        W = np.eye(p) / max(p, 1)
    tau0 = config.tau0 if config.tau0 is not None else float(max(p, 1))
    steps_per_run = config.steps_per_run or max(4096, 8 * net.dyad_count())
    # the offset bias <eta, dg> counts only infinite offset coefficients
    eta = [0.0] * model.p
    for k, c in zip(offs, config.offset_coefs):
        if math.isinf(c):
            eta[k] = c

    stats = model.summary(net)
    dev = np.array([stats[k] for k in free]) - targets
    trace = SanTrace()
    runs = config.runs

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
            i, j, _logq = draw()
            trace.proposals += 1
            if trace.proposals % config.trace_interval == 0:
                trace.rows.append((trace.proposals, list(stats),
                                   float(dev @ W @ dev)))
            if checker is not None and not checker.allowed(net, i, j):
                continue
            adding = not net.has_edge(i, j)
            sign = 1.0 if adding else -1.0
            delta = model.change(net, i, j)
            dfree = np.array([delta[k] for k in free]) * sign

            # reservoir subsample of the proposed differences
            seen += 1
            if len(stored) < config.max_stored_diffs:
                stored.append(dfree)
            else:
                slot = rng.randrange(seen)
                if slot < config.max_stored_diffs:
                    stored[slot] = dfree

            new_dev = dev + dfree
            dE = float(new_dev @ W @ new_dev) - float(dev @ W @ dev)
            bias = _log_tilt(eta, delta, 1 if adding else -1)
            if bias == -_INF:
                continue
            if T == 0.0:
                if dE > 0.0:
                    continue
                log_alpha = bias if dE == 0.0 else _INF
            else:
                log_alpha = _INF if bias == _INF else (-dE / T + bias)
            if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                net.toggle(i, j)
                proposal.commit(net, i, j, adding)
                for k in range(model.p):
                    stats[k] += sign * delta[k]
                dev = new_dev
                trace.accepted += 1
        trace.runs_completed = r + 1
        if config.invcov_override is None and len(stored) >= p:
            W = san_weight_update(np.asarray(stored))
    trace.final_energy = float(dev @ W @ dev)
    trace.exited_early = not dev.any()
    return net, trace
