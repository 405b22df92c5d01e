"""Tracing of ergmkit from outside the library.

The tracer replaces a library entry point, at the place where callers
look it up (a module attribute such as ``ergmkit.estimate.run_chain``, or
a method on its class), with a wrapper that times the call.  Calls are
aggregated per name: count, inclusive time, and self time (inclusive
time minus the time of wrapped calls made inside it).  Phase-level entry
points additionally record one span each (name, start, end, parent,
job), kept in memory and written out with the run record.  Time spent
in wrapped calls made with no wrapped caller is the *root busy* time,
which should account for a job's wall time up to the tracing overhead.
"""

import math
import time

from ergmkit import estimate, hull, loglik, proposals, sampler, san, terms
from ergmkit.network import Network


class CallStat:
    """Aggregate of one traced name; `hits` and `low` are name-specific
    (accepted MH steps, checker rejections, smallest hull multiplier)."""

    __slots__ = ("calls", "total", "self_time", "hits", "low")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hits = 0
        self.low = math.inf


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.root_busy = 0.0
        self.job = None
        self._frames = []       # per open call: [child time, span index]
        self._patches = []

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = CallStat()
        return self.stats[name]

    def traced(self, fn, name, span=False, on_result=None, before=None):
        """A wrapper of `fn` that accounts its calls under `name`."""
        frames, clock = self._frames, time.perf_counter
        tracer = self
        stat = self.stat(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(kwargs)
            index = None
            if span:
                index = len(tracer.spans)
                parent = next((f[1] for f in reversed(frames)
                               if f[1] is not None), None)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.job])
            frames.append([0.0, index])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = frames.pop()[0]
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if frames:
                    frames[-1][0] += dt
                else:
                    tracer.root_busy += dt
                if index is not None:
                    tracer.spans[index][1:3] = [t0, t1]
            if on_result is not None:
                on_result(stat, result)
            return result

        return wrapper

    def wrap(self, owner, attr, name, **options):
        original = getattr(owner, attr)
        setattr(owner, attr, self.traced(original, name, **options))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_accepted(stat, result):
    stat.hits += bool(result[0])


def _count_rejected(stat, result):
    stat.hits += not result


def _track_low(stat, gamma):
    if math.isfinite(gamma) and gamma < stat.low:
        stat.low = gamma


def install(tracer):
    """Wrap every traced entry point of ergmkit.

    Each name is wrapped where its callers look it up: a function
    imported into several modules is wrapped in each of them, under one
    traced name.  The ``collect`` callback that ``mple`` hands to
    ``run_chain`` (the sandwich score sweep) is wrapped per call.
    """
    wrap = tracer.wrap
    tracer.stat("estimate.sandwich_score")

    def wrap_collect(kwargs):
        if kwargs.get("collect") is not None:
            kwargs["collect"] = tracer.traced(kwargs["collect"],
                                              "estimate.sandwich_score")

    # network
    wrap(Network, "random_dyad", "network.random_dyad")
    wrap(Network, "dyad_at", "network.dyad_at")
    wrap(Network, "toggle", "network.toggle")
    # formula
    wrap(terms, "bind", "formula.bind", span=True)
    # terms
    wrap(terms.BoundModel, "change", "terms.change")
    wrap(terms.BoundModel, "summary", "terms.summary")
    # proposals
    for cls in (proposals.UniformProposal, proposals.TntProposal,
                proposals.BDStratTNT):
        wrap(cls, "propose", "proposals.propose")
        wrap(cls, "commit", "proposals.commit")
    wrap(proposals.ConstraintChecker, "allowed", "proposals.checker",
         on_result=_count_rejected)
    for module in (proposals, estimate, loglik, san):
        wrap(module, "make_proposal", "proposals.build")
    # sampler
    for module in (sampler, estimate):
        wrap(module, "mh_step", "sampler.mh_step", on_result=_count_accepted)
    wrap(sampler, "run_chain", "sampler.run_chain", span=True)
    wrap(estimate, "run_chain", "sampler.run_chain", span=True,
         before=wrap_collect)
    wrap(loglik, "run_chain", "sampler.run_chain", span=True)
    # diagnostics, at the library's call sites only: the benchmark's own
    # ESS computation (diagnostics.univariate_ess) stays untraced
    for module in (estimate, loglik):
        wrap(module, "batch_means_cov", "diagnostics.batch_means_cov")
    wrap(sampler, "multivariate_ess", "diagnostics.multivariate_ess")
    # hull
    for module in (estimate, hull):
        wrap(module, "boundary_multiplier", "hull.boundary_multiplier",
             on_result=_track_low)
    # estimate
    for module in (estimate, loglik):
        wrap(module, "mple_rows", "estimate.mple_rows", span=True)
        wrap(module, "logistic_fit", "estimate.logistic_fit", span=True)
    for attr in ("mple", "cd_fit", "mcmle_fit", "mcmle_step"):
        wrap(estimate, attr, f"estimate.{attr}", span=True)
    # loglik
    wrap(loglik, "bridge_loglik", "loglik.bridge", span=True)
    wrap(loglik, "evaluate_loglik", "loglik.evaluate_loglik", span=True)
    # san
    wrap(san, "san_run", "san.san_run", span=True)
