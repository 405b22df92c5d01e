"""Measurement of one benchmark run: cycles of setup and job, checks,
metrics, and the run record.  ``run.py`` is the entry point."""

import itertools
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy
import scipy
from ergmkit.diagnostics import univariate_ess

import clock
import spans
import workloads

# Before each job the setup is repeated for at least SETUP_SECONDS_PER_JOB
# (at least once, at most SETUP_MAX_REPS times); setup_s is the median
# over all repetitions of the run.
SETUP_SECONDS_PER_JOB = 0.02
SETUP_MAX_REPS = 100


def git_rev(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


class JobRecord:
    """One cycle: setups, then one job, with its checks and ESS figures."""

    def __init__(self, rep):
        self.rep = rep
        self.setups = []        # raw seconds per setup repetition
        self.setup_scale = 1.0  # rescales them to the reference speed
        self.wall = 0.0         # raw seconds of the job's library calls
        self.wall_scaled = 0.0  # the same at the reference speed
        self.digest = None      # of the job's outputs; None if it raised
        self.facts = {}
        self.ess_parts = {}     # label -> stopwatch part of the ESS chain
        self.problems = []
        self.root_busy = 0.0
        self.gamma_low = math.inf
        self.ess = {}           # label -> min ESS over statistics
        self.rates = {}         # label -> min ESS per second, reference speed

    def scale(self):
        """Factor from this job's raw seconds to the reference speed."""
        return self.wall_scaled / self.wall if self.wall else 1.0


def run_cycle(wl, seed, rep, setup_tracer=None, job_tracer=None):
    """Set up (timed, repeated), run the job on the last setup's state
    (timed call by call), then check and score it."""
    rec = JobRecord(rep)

    def setups():
        if setup_tracer is not None:
            spans.install(setup_tracer)
        try:
            while not rec.setups or (sum(rec.setups) < SETUP_SECONDS_PER_JOB
                                     and len(rec.setups) < SETUP_MAX_REPS):
                t0 = time.perf_counter()
                inp = wl.setup(seed)
                rec.setups.append(time.perf_counter() - t0)
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        return inp

    sw = clock.Stopwatch()
    inp = sw.call(setups)
    rec.setup_scale = clock.REFERENCE_SECONDS / sw.parts[0][1]
    if job_tracer is not None:
        job_tracer.job = rep
        job_tracer.stat("hull.boundary_multiplier").low = math.inf
        busy0 = job_tracer.root_busy
        spans.install(job_tracer)
    out = None
    try:
        out = wl.job(inp, workloads.rep_seed(seed, rep), sw)
    except Exception as exc:   # a failed operation: recorded, run goes on
        traceback.print_exc(file=sys.stderr)
        rec.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        if job_tracer is not None:
            job_tracer.uninstall()
    job_parts = sw.parts[1:]
    rec.wall = sum(seconds for seconds, _ in job_parts)
    rec.wall_scaled = sw.scaled(job_parts)
    if out is None:
        return rec
    # the outputs are dropped with this frame, so that memory does not
    # grow with the number of cycles
    rec.digest, rec.facts = out.digest, out.facts
    if job_tracer is not None:
        rec.root_busy = job_tracer.root_busy - busy0
        rec.gamma_low = job_tracer.stats["hull.boundary_multiplier"].low
    try:
        rec.problems += wl.check(inp, out)
        for label, (draws, part) in out.chains.items():
            rec.ess_parts[label] = part
            ess = min(univariate_ess(draws[:, k]) for k in range(draws.shape[1]))
            rec.ess[label] = ess
            rec.rates[label] = ess / sw.scaled([part])
    except Exception as exc:   # a check that cannot run is a failed check
        traceback.print_exc(file=sys.stderr)
        rec.problems.append(f"check raised {type(exc).__name__}: {exc}")
    return rec


def run_cycles(wl, seed, seconds=None, reps=None, **tracers):
    """Cycles rep 0, 1, ...: exactly `reps` of them, or while the next one
    is expected to end within `seconds`."""
    records, durations = [], []
    start = time.perf_counter()
    for rep in itertools.count():
        if reps is not None:
            if rep >= reps:
                break
        elif durations:
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > seconds:
                break
        t0 = time.perf_counter()
        records.append(run_cycle(wl, seed, rep, **tracers))
        durations.append(time.perf_counter() - t0)
    return records


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(records):
    """Medians over the run's cycles, in seconds at the reference speed;
    failed jobs are left out of the job figures."""
    ok = [r for r in records if not r.problems]
    return {
        "setup_s": statistics.median(t * r.setup_scale for r in records
                                     for t in r.setups),
        "wall_s": median_or_zero(r.wall_scaled for r in ok),
        "ess_per_s": median_or_zero(r.rates["ess"] for r in ok),
        "tnt_ess_per_s": median_or_zero(r.rates["tnt_ess"] for r in ok),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(setup_stats, job_stats, traced, untraced):
    """Per-layer figures of the traced jobs.

    ``.us`` figures are self time per call of a hot per-step entry point;
    ``.ms`` figures are inclusive time per call; ``.s`` and ``.count``
    figures are per job; ratios are over the traced jobs.  Layer times
    are raw traced seconds; the ``trace.*`` figures and steps per second
    are at the reference speed, like the end-to-end metrics, so that the
    tracing overhead is not confounded with a change in machine load.
    """
    jobs = max(len(traced), 1)
    s = job_stats

    def per_call(name, scale, self_time=False, stats=s):
        st = stats[name]
        if not st.calls:
            return 0.0
        return (st.self_time if self_time else st.total) / st.calls * scale

    def per_job(name, attr="calls"):
        return getattr(s[name], attr) / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    def fact(name):
        return median_or_zero(r.facts.get(name, 0.0) for r in traced)

    build_calls = setup_stats["proposals.build"].calls + s["proposals.build"].calls
    build_time = setup_stats["proposals.build"].total + s["proposals.build"].total
    steps = s["sampler.mh_step"].calls
    untraced_wall = median_or_zero(r.wall_scaled for r in untraced)
    traced_wall = median_or_zero(r.wall_scaled for r in traced)
    lows = [r.gamma_low for r in traced if math.isfinite(r.gamma_low)]
    return {
        "network.random_dyad.us": per_call("network.random_dyad", 1e6, True),
        "network.dyad_at.us": per_call("network.dyad_at", 1e6, True),
        "network.dyad_at.count": per_job("network.dyad_at"),
        "network.toggle.us": per_call("network.toggle", 1e6, True),
        "network.toggle.count": per_job("network.toggle"),
        "formula.bind.ms": per_call("formula.bind", 1e3, stats=setup_stats),
        "terms.change.us": per_call("terms.change", 1e6, True),
        "terms.change.count": per_job("terms.change"),
        "terms.summary.ms": per_call("terms.summary", 1e3),
        "proposals.propose.us": per_call("proposals.propose", 1e6, True),
        "proposals.commit.us": per_call("proposals.commit", 1e6, True),
        "proposals.commit_per_step": ratio(s["proposals.commit"].calls, steps),
        "proposals.checker_reject_ratio": ratio(s["proposals.checker"].hits,
                                                s["proposals.checker"].calls),
        "proposals.build.ms": ratio(build_time, build_calls) * 1e3,
        "sampler.mh_step.us": per_call("sampler.mh_step", 1e6, True),
        "sampler.steps": steps / jobs,
        "sampler.steps_per_s": ratio(steps / jobs, untraced_wall),
        "sampler.accept_ratio": ratio(s["sampler.mh_step"].hits, steps),
        "sampler.chains": per_job("sampler.run_chain"),
        "diagnostics.batch_means_cov.ms": per_call("diagnostics.batch_means_cov", 1e3),
        "diagnostics.batch_means_cov.count": per_job("diagnostics.batch_means_cov"),
        "diagnostics.multivariate_ess.ms": per_call("diagnostics.multivariate_ess", 1e3),
        "hull.boundary_multiplier.ms": per_call("hull.boundary_multiplier", 1e3),
        "hull.boundary_multiplier.count": per_job("hull.boundary_multiplier"),
        "hull.gamma_min": median_or_zero(lows),
        "estimate.mple_rows.s": per_job("estimate.mple_rows", "total"),
        "estimate.sandwich_score.s": per_job("estimate.sandwich_score", "total"),
        "estimate.logistic_fit.ms": per_call("estimate.logistic_fit", 1e3),
        "estimate.cd_fit.s": per_job("estimate.cd_fit", "total"),
        "estimate.mcmle_step.ms": per_call("estimate.mcmle_step", 1e3),
        "estimate.mcmle_iterations": fact("estimate.mcmle_iterations"),
        "loglik.bridge.s": per_job("loglik.bridge", "total"),
        "loglik.points": fact("loglik.points"),
        "loglik.mc_se": fact("loglik.mc_se"),
        "san.san_run.s": per_job("san.san_run", "total"),
        "san.proposals": fact("san.proposals"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.root_busy_s": median_or_zero(r.root_busy * r.scale()
                                            for r in traced),
    }


def aggregates(stats):
    return {name: {"calls": st.calls, "total_s": st.total,
                   "self_s": st.self_time, "hits": st.hits}
            for name, st in sorted(stats.items()) if st.calls}


def run(args, root, declared, pinned_env):
    """Run one workload; returns (record, result) as JSON-ready dicts."""
    wl = workloads.WORKLOADS[args.workload]
    record = {}
    if not args.trace:
        all_records = run_cycles(wl, args.seed, seconds=args.seconds)
        values = end_to_end_metrics(all_records)
        declared_metrics = declared["end_to_end"]
    else:
        untraced = run_cycles(wl, args.seed, seconds=args.seconds / 2)
        setup_tracer, job_tracer = spans.Tracer(), spans.Tracer()
        traced = run_cycles(wl, args.seed, reps=len(untraced),
                            setup_tracer=setup_tracer, job_tracer=job_tracer)
        for before, after in zip(untraced, traced):
            if None not in (before.digest, after.digest) \
                    and after.digest != before.digest:
                after.problems.append("traced job's outputs differ from the "
                                      "untraced job's")
        done = [r for r in traced if r.digest is not None]
        values = layer_metrics(setup_tracer.stats, job_tracer.stats, done,
                               untraced)
        declared_metrics = declared["per_layer"]
        all_records = untraced + traced
        unaccounted = median_or_zero((r.wall - r.root_busy) * r.scale()
                                     for r in done)
        record.update({
            "traced_root_busy_s": [r.root_busy for r in traced],
            "unaccounted_s": unaccounted,
            "roots_account_for_wall": unaccounted <= values["trace.overhead_s"],
            "setup_calls": aggregates(setup_tracer.stats),
            "job_calls": aggregates(job_tracer.stats),
            "spans": job_tracer.spans,
        })

    failed = [r for r in all_records if r.problems]
    first = all_records[0] if all_records else None
    ess_by_label = {label: [r.ess.get(label) for r in all_records if r.ess]
                    for label in ("ess", "tnt_ess")}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_env": pinned_env,
        "digest": first.digest if first is not None else None,
        "jobs": len(all_records),
        "failed": len(failed),
        "error_rate": len(failed) / max(len(all_records), 1),
        "problems": [f"rep {r.rep}: {p}" for r in failed for p in r.problems][:20],
        "reference_seconds": clock.REFERENCE_SECONDS,
        "setup_reps": [len(r.setups) for r in all_records],
        "setup_s_median": [statistics.median(r.setups) for r in all_records],
        "setup_scale": [r.setup_scale for r in all_records],
        "job_wall_s": [r.wall for r in all_records],
        "job_wall_scaled_s": [r.wall_scaled for r in all_records],
        "ess_parts": {label: [r.ess_parts.get(label) for r in all_records]
                      for label in ("ess", "tnt_ess")},
        "min_ess": ess_by_label,
        **record,
    }
    if args.workload == "strat_ess":
        ratios = [r.ess["ess"] / r.ess["tnt_ess"] for r in all_records
                  if r.ess and r.ess["tnt_ess"] > 0]
        record["strat_over_tnt_min_ess"] = median_or_zero(ratios)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared_metrics}
    return record, {
        "correct": bool(all_records) and not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": metrics,
    }
