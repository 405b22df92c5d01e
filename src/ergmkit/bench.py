"""Desk-scale efficiency benchmarks.

A synthetic heterosexual-population generator stands in for survey-
derived data: alternating sexes, categorical race with configurable
frequencies, uniform ages with squared and square-root derived
columns.  On top of it, trace benchmarks (statistics against
proposal count, from an empty start) and effective-sample-size
benchmarks (per-statistic ESS and ESS per second at equal proposal
counts) compare proposal variants that share one stationary
distribution.
"""

import random
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import univariate_ess
from .errors import DataError
from .network import Network, VertexAttributes
from .sampler import Chain, SamplerConfig

__all__ = ["PopulationSpec", "generate_population", "mixing_benchmark",
           "ess_benchmark", "san_benchmark"]


# the uniform age range of generate_population
_AGE_LOW = 18.0
_AGE_HIGH = 60.0


@dataclass
class PopulationSpec:
    n: int = 1000
    race_freqs: dict = field(default_factory=lambda: {"A": 0.5, "B": 0.3, "C": 0.2})


def generate_population(spec, seed=0):
    """Empty network plus sampled demographics, deterministic in seed."""
    freqs = spec.race_freqs.values()
    if not all(f >= 0.0 for f in freqs) or abs(sum(freqs) - 1.0) > 1e-9:
        raise DataError("race frequencies must be nonnegative and sum to 1")
    rng = np.random.default_rng(seed)
    n = spec.n
    net = Network(n)
    attrs = VertexAttributes(n)
    sex = ["M" if v % 2 == 0 else "F" for v in range(n)]
    races = sorted(spec.race_freqs)
    race = list(rng.choice(races, size=n, p=[spec.race_freqs[k] for k in races]))
    age = rng.uniform(_AGE_LOW, _AGE_HIGH, size=n)
    attrs.add_categorical("sex", sex)
    attrs.add_categorical("race", race)
    attrs.add_numeric("age", age)
    attrs.add_numeric("agesq", age ** 2)
    attrs.add_numeric("sqrt.age", np.sqrt(age))
    return net, attrs


def mixing_benchmark(net, attrs, model, coefs, proposals, total_proposals,
                     trace_interval=1000, seed=0):
    """Statistic traces against proposal count for each proposal variant.

    `proposals` maps a display name to a ConstraintSpec; every chain
    starts from a copy of `net` (typically empty) and runs for the same
    number of proposals, so the traces are directly comparable.  Each
    trace holds rows of (proposal_count, stats) every trace_interval
    proposals.
    """
    _check_trace(total_proposals, trace_interval)
    out = {}
    draws = total_proposals // trace_interval
    for name, spec in proposals.items():
        sm = Chain.start(net, model, spec, attrs, random.Random(seed)).run(
            coefs, SamplerConfig(samplesize=draws, interval=trace_interval))
        out[name] = [((s + 1) * trace_interval, list(row))
                     for s, row in enumerate(sm.values)]
    return out


def _check_trace(total_proposals, trace_interval):
    """A trace needs at least one row: total_proposals >= trace_interval >= 1."""
    if trace_interval < 1 or total_proposals < trace_interval:
        raise DataError("trace_interval must be positive and total_proposals "
                        "at least trace_interval")


def ess_benchmark(net, attrs, model, coefs, proposals, samplesize,
                  interval=100, seed=0, warmup=None):
    """Per-statistic ESS and ESS per second at equal proposal counts.

    A warm-up run of `warmup` proposals (default one sampling interval
    worth) is discarded before timing starts; timing is wall-clock and
    single-threaded.
    """
    results = {}
    burn = warmup if warmup is not None else interval
    for name, spec in proposals.items():
        chain = Chain.start(net, model, spec, attrs, random.Random(seed))
        chain.kernel(coefs)([0.0] * model.p, burn)
        cfg = SamplerConfig(samplesize=samplesize, interval=interval)
        t0 = time.perf_counter()
        values = chain.run(coefs, cfg).values
        elapsed = time.perf_counter() - t0
        ess = np.array([univariate_ess(values[:, k]) for k in range(model.p)])
        results[name] = {
            "ess": ess,
            "ess_per_second": ess / max(elapsed, 1e-9),
            "seconds": elapsed,
            "values": values,
        }
    return results


def san_benchmark(net, attrs, model, targets, proposals, total_proposals,
                  trace_interval=1000, seed=0):
    """Annealing traces at fixed temperature zero for each proposal.

    The weight matrix is the diagonal of reciprocal squared targets,
    normalized; statistics are recorded every trace_interval
    proposals so the approach to the targets can be compared.
    """
    from .san import SanConfig, san_run
    _check_trace(total_proposals, trace_interval)
    out = {}
    targets = np.asarray(targets, dtype=float)
    with np.errstate(divide="ignore"):
        diag = 1.0 / np.where(targets != 0.0, targets, 1.0) ** 2
    invcov = np.diag(diag / diag.sum())
    for name, spec in proposals.items():
        chain = net.copy()
        config = SanConfig(targets=targets, runs=1, tau0=0.0,
                           invcov_override=invcov,
                           steps_per_run=total_proposals,
                           trace_interval=trace_interval, seed=seed)
        _, trace = san_run(chain, model, config, constraints=spec, attrs=attrs)
        out[name] = trace
    return out
