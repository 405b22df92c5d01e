"""Batch command-line front end.

Subcommands: simulate, san, mple, fit, loglik, ess, bench.  All tabular
output is TSV with a `.` decimal point and NA for undefined values;
identical invocations with identical seeds produce byte-identical
output, except for the wall-clock `seconds` and `eps.*` columns of
`bench ess`.  Exit codes: 0 ok, 2 usage, 3 data error, 4 numerical
error, 5 nonconvergence.
"""

import argparse
import math
import random
import sys

import numpy as np

from . import bench as bench_mod
from .errors import DataError, ErgmError, NonconvergenceError, NumericalError
from .estimate import McmleControl, mcmle_fit, mple
from .formula import parse_constraint_formula, parse_model_formula
from .loglik import BridgePlan, evaluate_loglik
from .network import Network, network_text, read_attributes, read_network
from .proposals import make_proposal
from .sampler import Chain, SamplerConfig, sample_chains, adaptive_run
from .san import SanConfig, san_run
from .diagnostics import multivariate_ess, univariate_ess
from .terms import bind

__all__ = ["main"]


def _fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, (np.integer,)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "NA"
        if math.isinf(x):
            return "Inf" if x > 0 else "-Inf"
        return repr(x)
    return str(x)


class _Out:
    def __init__(self, path):
        self.path = path
        self.fh = open(path, "w", encoding="utf-8") if path else sys.stdout

    def line(self, *fields):
        self.fh.write("\t".join(_fmt(f) for f in fields) + "\n")

    def close(self):
        if self.path:
            self.fh.close()


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parse_vector(text):
    """Comma/whitespace separated reals, or @file indirection."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise DataError(f"not a number: {tok!r}") from None
    return out


def _load_pmat(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(x) for x in line.replace(",", " ").split()])
            except ValueError:
                raise DataError(f"{path}: non-numeric pmat entry") from None
    return rows


def _load_inputs(args):
    if args.network:
        net = read_network(args.network)
    elif args.n:
        net = Network(args.n, directed=args.directed)
    else:
        raise DataError("provide --network or --n")
    attrs = read_attributes(args.attrs, net.n) if args.attrs else None
    spec = parse_model_formula(args.formula)
    constraints = parse_constraint_formula(args.constraints or ".")
    if isinstance(constraints.strat_pmat, str):
        constraints.strat_pmat = _load_pmat(constraints.strat_pmat)
    model = bind(spec, net, attrs)
    return net, attrs, model, constraints


def _offset_coefs(args, model):
    coefs = _parse_vector(args.offset_coef) if args.offset_coef else []
    if len(coefs) != len(model.offset_index):
        raise DataError(f"need {len(model.offset_index)} offset coefficients, "
                        f"got {len(coefs)}")
    return coefs


def _full_coefs(model, coefs, offsets):
    """The full coefficient vector from free (or all p) coefficients."""
    full = model.assemble_coefs(coefs, offsets) if len(coefs) == model.n_free \
        else list(coefs)
    if len(full) != model.p:
        raise DataError(f"need {model.n_free} coefficients (or {model.p} "
                        "including offsets)")
    return full


def _check_targets(model, achieved, targets, hint):
    """Raise unless annealing hit every non-offset target exactly."""
    for slot, k in enumerate(model.free_index):
        if achieved[k] != targets[slot]:
            raise NonconvergenceError(
                f"annealing missed target {model.names[k]}: {achieved[k]} vs "
                f"{targets[slot]} ({hint})")


def _write_stats(out, sample, chains):
    if chains > 1:
        out.line("chain", *sample.names)
        for cid, row in zip(sample.chain_ids, sample.values):
            out.line(cid, *row)
    else:
        out.line(*sample.names)
        for row in sample.values:
            out.line(*row)


def _write_fit(out, fit):
    out.line("# coefficients")
    out.line("name", "estimate", "se", "offset")
    se = fit.standard_errors()
    se_map = dict(zip(fit.free_index, se))
    for k, name in enumerate(fit.names):
        if k in se_map:
            out.line(name, fit.coefs[k], se_map[k], 0)
        else:
            out.line(name, fit.coefs[k], None, 1)
    out.line("# vcov")
    free_names = [fit.names[k] for k in fit.free_index]
    out.line("name", *free_names)
    for name, row in zip(free_names, fit.vcov):
        out.line(name, *row)
    out.line("# termination")
    out.line("converged", 1 if fit.converged else 0)
    out.line("iterations", fit.iterations)
    out.line("criterion", fit.termination)
    out.line("statistic", fit.termination_stat)


def _write_loglik(out, res):
    out.line("# loglik")
    out.line("delta_loglik", res.delta_loglik)
    out.line("mc_se", res.mc_se)
    out.line("baseline_loglik", res.baseline_loglik)
    out.line("loglik", res.loglik)
    out.line("null_deviance", res.null_deviance)
    out.line("aic", res.aic)
    out.line("bic", res.bic)
    out.line("passes", res.passes)


def _cmd_simulate(args):
    net, attrs, model, constraints = _load_inputs(args)
    full = _full_coefs(model, _parse_vector(args.coef),
                       _offset_coefs(args, model))
    if args.target_ess is not None and args.chains > 1:
        raise DataError("adaptive sampling (--target-ess) runs a single chain")
    cfg = SamplerConfig(samplesize=args.nsim, interval=args.interval,
                        burnin=args.burnin, seed=args.seed, chains=args.chains,
                        target_ess=args.target_ess)
    out = _Out(args.out)
    try:
        if args.target_ess is not None:
            chain = Chain(net, model, *make_proposal(net, constraints, attrs),
                          random.Random(args.seed))
            sample, diag = adaptive_run(chain, full, cfg)
            finals = [net]
            if not diag.converged:
                _write_stats(out, sample, 1)
                raise NonconvergenceError("target effective size not reached")
        else:
            sample, finals = sample_chains(net, model, full, cfg,
                                           workers=args.workers,
                                           constraints=constraints,
                                           attrs=attrs)
        if args.output == "stats":
            _write_stats(out, sample, args.chains)
        elif args.output == "network":
            for c, final in enumerate(finals):
                if len(finals) > 1:
                    out.line(f"%chain {c}")
                out.fh.write(network_text(final))
        elif args.output == "edgelist":
            if args.chains > 1:
                out.line("chain", "tail", "head")
                for c, final in enumerate(finals):
                    for i, j in sorted(final.edge_set()):
                        out.line(c, i + 1, j + 1)
            else:
                out.line("tail", "head")
                for i, j in sorted(finals[0].edge_set()):
                    out.line(i + 1, j + 1)
    finally:
        out.close()
    return 0


def _cmd_san(args):
    net, attrs, model, constraints = _load_inputs(args)
    targets = _parse_vector(args.targets)
    offsets = _offset_coefs(args, model)
    config = SanConfig(targets=targets, runs=args.runs,
                       steps_per_run=args.steps, tau0=args.tau,
                       offset_coefs=tuple(offsets), seed=args.seed,
                       trace_interval=args.trace_interval)
    final, trace = san_run(net, model, config, constraints=constraints,
                           attrs=attrs)
    if not args.allow_inexact:
        _check_targets(model, model.summary(final), targets,
                       "pass --allow-inexact to accept")
    out = _Out(args.out)
    try:
        out.fh.write(network_text(final))
    finally:
        out.close()
    if args.trace:
        tout = _Out(args.trace)
        try:
            tout.line("proposals", *model.names, "energy")
            for proposals, stats, e in trace.rows:
                tout.line(proposals, *stats, e)
        finally:
            tout.close()
    return 0


def _cmd_mple(args):
    net, attrs, model, constraints = _load_inputs(args)
    offsets = _offset_coefs(args, model)
    fit = mple(net, model, offset_coefs=offsets, se=args.se,
               constraints=constraints, attrs=attrs,
               samplesize=args.samplesize, interval=args.interval,
               seed=args.seed)
    out = _Out(args.out)
    try:
        _write_fit(out, fit)
    finally:
        out.close()
    return 0


def _cmd_fit(args):
    net, attrs, model, constraints = _load_inputs(args)
    offsets = _offset_coefs(args, model)
    g_obs = None
    if args.target_stats:
        targets = _parse_vector(args.target_stats)
        config = SanConfig(targets=targets, offset_coefs=tuple(offsets),
                           seed=args.seed, steps_per_run=args.san_steps)
        net, _trace = san_run(net, model, config, constraints=constraints,
                              attrs=attrs)
        achieved = model.summary(net)
        if not args.allow_inexact_targets:
            _check_targets(model, achieved, targets,
                           "pass --allow-inexact-targets")
        # interleave the requested targets with the achieved offset stats
        g_obs = model.assemble_coefs(targets,
                                     [achieved[k] for k in model.offset_index])
    control = McmleControl(samplesize=args.samplesize, interval=args.interval,
                           burnin=args.burnin, maxit=args.maxit,
                           termination=args.termination,
                           target_ess=args.target_ess, seed=args.seed)
    init = args.init
    if init not in ("mple", "cd"):
        init = _parse_vector(init)
    fit = mcmle_fit(net, model, g_obs=g_obs, offset_coefs=offsets,
                    constraints=constraints, attrs=attrs, init=init,
                    control=control)
    out = _Out(args.out)
    try:
        _write_fit(out, fit)
        if args.eval_loglik:
            plan = BridgePlan(J=args.bridge_j, K=args.bridge_k,
                              target_se=args.target_se,
                              interval=args.interval, seed=args.seed)
            res = evaluate_loglik(net, model, fit.coefs, offset_coefs=offsets,
                                  plan=plan, constraints=constraints,
                                  attrs=attrs, g_obs=g_obs)
            _write_loglik(out, res)
    finally:
        out.close()
    if not fit.converged:
        raise NonconvergenceError("iteration cap reached before termination")
    return 0


def _cmd_loglik(args):
    net, attrs, model, constraints = _load_inputs(args)
    offsets = _offset_coefs(args, model)
    full = _full_coefs(model, _parse_vector(args.coef), offsets)
    plan = BridgePlan(J=args.bridge_j, K=args.bridge_k,
                      target_se=args.target_se, interval=args.interval,
                      seed=args.seed)
    res = evaluate_loglik(net, model, np.asarray(full), offset_coefs=offsets,
                          plan=plan, constraints=constraints, attrs=attrs)
    out = _Out(args.out)
    try:
        _write_loglik(out, res)
    finally:
        out.close()
    return 0


def _cmd_ess(args):
    with open(args.stats, encoding="utf-8") as fh:
        header = fh.readline().strip().split("\t")
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                row = [float(x) for x in line.strip().split("\t")]
            except ValueError:
                raise DataError(f"{args.stats}:{lineno}: non-numeric field") \
                    from None
            if not all(map(math.isfinite, row)):
                raise DataError(f"{args.stats}:{lineno}: non-finite field")
            if len(row) != len(header):
                raise DataError(f"{args.stats}:{lineno}: {len(row)} fields, "
                                f"the header names {len(header)}")
            rows.append(row)
    if not rows:
        raise DataError(f"{args.stats}: no draws")
    values = np.asarray(rows)
    if header and header[0] == "chain":
        values = values[:, 1:]
        header = header[1:]
    report = multivariate_ess(values)
    out = _Out(args.out)
    try:
        out.line("# ess")
        out.line("multivariate_ess", report.ess)
        out.line("draws", report.S)
        out.line("effective_dimension", report.p_effective)
        out.line("# per_statistic")
        out.line("name", "ess")
        for k, name in enumerate(header):
            out.line(name, univariate_ess(values[:, k]))
    finally:
        out.close()
    return 0


def _bench_population(args):
    spec = bench_mod.PopulationSpec(n=args.n)
    if args.race_freqs:
        freqs = {}
        for part in args.race_freqs.split(","):
            name, _, val = part.partition(":")
            try:
                freqs[name] = float(val)
            except ValueError:
                raise DataError("race frequencies are NAME:VALUE pairs; "
                                f"got {part!r}") from None
        spec.race_freqs = freqs
    return bench_mod.generate_population(spec, seed=args.seed)


def _parse_proposal_list(args):
    out = {}
    for item in args.proposals.split(";"):
        name, _, text = item.partition("=")
        if not text:
            raise DataError("proposals are NAME=constraint-formula; "
                            f"got {item!r}")
        out[name] = parse_constraint_formula(text)
    return out


def _cmd_bench(args):
    option = "targets" if args.what == "san" else "coef"
    if getattr(args, option) is None:
        raise DataError(f"bench {args.what} needs --{option}")
    if args.what != "ess" and args.total_proposals < args.trace_interval:
        args.usage_error("--total-proposals must be at least --trace-interval")
    vector = _parse_vector(getattr(args, option))
    net, attrs = _bench_population(args)
    spec = parse_model_formula(args.formula)
    model = bind(spec, net, attrs)
    proposals = _parse_proposal_list(args)
    out = _Out(args.out)
    try:
        if args.what == "mixing":
            traces = bench_mod.mixing_benchmark(
                net, attrs, model, vector, proposals, args.total_proposals,
                trace_interval=args.trace_interval, seed=args.seed)
            out.line("proposal", "proposals", *model.names)
            for name, rows in traces.items():
                for count, stats in rows:
                    out.line(name, count, *stats)
        elif args.what == "ess":
            results = bench_mod.ess_benchmark(
                net, attrs, model, vector, proposals, args.nsim,
                interval=args.interval, seed=args.seed)
            out.line("proposal", "seconds",
                     *[f"ess.{n}" for n in model.names],
                     *[f"eps.{n}" for n in model.names])
            for name, res in results.items():
                out.line(name, res["seconds"], *res["ess"],
                         *res["ess_per_second"])
        elif args.what == "san":
            traces = bench_mod.san_benchmark(
                net, attrs, model, vector, proposals, args.total_proposals,
                trace_interval=args.trace_interval, seed=args.seed)
            out.line("proposal", "proposals", *model.names, "energy")
            for name, trace in traces.items():
                for proposals_count, stats, e in trace.rows:
                    out.line(name, proposals_count, *stats, e)
    finally:
        out.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ergmkit",
        description="Simulate, anneal and estimate exponential-family "
                    "random graph models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--network", help="network file")
        p.add_argument("--n", type=_positive_int, help="empty network size "
                                                     "(alternative to --network)")
        p.add_argument("--directed", action="store_true",
                       help="with --n: make the empty network directed")
        p.add_argument("--attrs", help="vertex attribute CSV")
        p.add_argument("--formula", required=True, help="model formula")
        p.add_argument("--constraints", default=".",
                       help="constraint/hint formula (default: '.')")
        p.add_argument("--offset-coef", default=None,
                       help="offset coefficients, e.g. '-Inf,-Inf' (default: none)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("simulate", help="draw networks or statistics by MCMC")
    common(p)
    p.add_argument("--coef", required=True, help="coefficients, inline or @file")
    p.add_argument("--nsim", type=int, default=100,
                   help="retained draws (default 100)")
    p.add_argument("--interval", type=int, default=1000,
                   help="steps between draws (default 1000)")
    p.add_argument("--burnin", type=int, default=10000,
                   help="burn-in steps (default 10000)")
    p.add_argument("--output", choices=["stats", "network", "edgelist"],
                   default="stats", help="output mode (default stats)")
    p.add_argument("--chains", type=int, default=1,
                   help="independent chains (default 1)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for the chains (default 1); "
                        "output is identical for any worker count")
    p.add_argument("--target-ess", type=float, default=None,
                   help="adaptive sampling to this effective size")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("san", help="anneal a network toward target statistics")
    common(p)
    p.add_argument("--targets", required=True,
                   help="target statistics (non-offset terms), inline or @file")
    p.add_argument("--runs", type=_positive_int, default=4,
                   help="annealing runs (default 4)")
    p.add_argument("--steps", type=_positive_int, default=None,
                   help="proposals per run (default max(4096, 8*dyads))")
    p.add_argument("--tau", type=float, default=None,
                   help="initial temperature (default: statistic count)")
    p.add_argument("--trace", default=None, help="trace TSV output file")
    p.add_argument("--trace-interval", type=_positive_int, default=1000,
                   help="proposals between trace rows (default 1000)")
    p.add_argument("--allow-inexact", action="store_true",
                   help="accept a final network missing the targets")
    p.set_defaults(func=_cmd_san)

    p = sub.add_parser("mple", help="maximum pseudo-likelihood fit")
    common(p)
    p.add_argument("--se", choices=["naive", "sandwich"], default="naive",
                   help="standard errors (default naive)")
    p.add_argument("--samplesize", type=int, default=1000,
                   help="MCMC draws for the sandwich middle term, at least 2 "
                        "(default 1000)")
    p.add_argument("--interval", type=int, default=None,
                   help="steps between draws (default: half the dyads)")
    p.set_defaults(func=_cmd_mple)

    p = sub.add_parser("fit", help="Monte-Carlo maximum likelihood fit")
    common(p)
    p.add_argument("--target-stats", default=None,
                   help="fit these sufficient statistics (annealed start)")
    p.add_argument("--allow-inexact-targets", action="store_true",
                   help="proceed when annealing misses the targets")
    p.add_argument("--san-steps", type=_positive_int, default=None,
                   help="annealing proposals per run for --target-stats")
    p.add_argument("--init", default="mple",
                   help="mple, cd, or explicit coefficients (default mple)")
    p.add_argument("--termination",
                   choices=["hotelling", "hummel", "confidence"],
                   default="confidence",
                   help="stopping rule (default confidence)")
    p.add_argument("--target-ess", type=float, default=None,
                   help="adaptive sampling to this effective size")
    p.add_argument("--samplesize", type=int, default=1024,
                   help="draws per iteration (default 1024)")
    p.add_argument("--interval", type=_positive_int, default=None,
                   help="steps between draws (default: half the dyads)")
    p.add_argument("--burnin", type=int, default=None,
                   help="first-iteration burn-in (default 16*interval)")
    p.add_argument("--maxit", type=_positive_int, default=60,
                   help="iteration cap (default 60)")
    p.add_argument("--eval-loglik", action="store_true",
                   help="append a bridge-sampled log-likelihood report")
    p.add_argument("--bridge-j", type=int, default=16,
                   help="bridge path points (default 16)")
    p.add_argument("--bridge-k", type=int, default=1000,
                   help="draws per path point (default 1000)")
    p.add_argument("--target-se", type=float, default=None,
                   help="adaptive bridge target standard error")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("loglik", help="bridge-sampled log-likelihood report")
    common(p)
    p.add_argument("--coef", required=True, help="fitted coefficients")
    p.add_argument("--bridge-j", type=int, default=16,
                   help="bridge path points (default 16)")
    p.add_argument("--bridge-k", type=int, default=1000,
                   help="draws per path point (default 1000)")
    p.add_argument("--target-se", type=float, default=None,
                   help="adaptive bridge target standard error")
    p.add_argument("--interval", type=_positive_int, default=None,
                   help="steps between draws (default: half the dyads)")
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser("ess", help="effective sample size of a stats TSV")
    p.add_argument("--stats", required=True, help="stats TSV (from simulate)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_ess)

    p = sub.add_parser("bench", help="proposal-efficiency benchmarks")
    p.add_argument("what", choices=["mixing", "ess", "san"])
    p.add_argument("--n", type=_positive_int, default=1000,
                   help="population size (default 1000)")
    p.add_argument("--race-freqs", default=None,
                   help="e.g. A:0.5,B:0.3,C:0.2")
    p.add_argument("--formula", required=True)
    p.add_argument("--coef", default=None, help="coefficients (mixing, ess)")
    p.add_argument("--targets", default=None, help="targets (san)")
    p.add_argument("--proposals", required=True,
                   help="semicolon list NAME=constraint-formula")
    p.add_argument("--total-proposals", type=_positive_int, default=100_000,
                   help="proposals per trace (default 100000)")
    p.add_argument("--trace-interval", type=_positive_int, default=1000,
                   help="proposals between trace rows (default 1000)")
    p.add_argument("--nsim", type=int, default=10_000,
                   help="retained draws for ess (default 10000)")
    p.add_argument("--interval", type=int, default=100,
                   help="steps between draws for ess (default 100)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench, usage_error=p.error)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonconvergenceError as exc:
        print(f"error: nonconvergence: {exc}", file=sys.stderr)
        return 5
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except ErgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
