"""The benchmark's four workloads: inputs from a seed, one job, output checks.

Each workload has three parts:

* ``setup(seed)`` generates the inputs from the workload seed, parses and
  binds the formulas and builds the proposals: everything before the
  first MH step or fit call.  Its time is ``setup_s``.  The networks and
  proposals it returns are the mutable state of exactly one job.
* ``job(inputs, rep_seed, stopwatch)`` is one user-visible operation,
  driven through the library entry points the matching CLI subcommand
  calls.  It makes each of those calls through ``stopwatch.call`` (see
  ``clock.py``); their summed time is ``wall_s``.  It returns a
  ``JobOutput``: the chains whose retained draws give the ESS figures,
  the byte-level outputs that are digested, and the values the output
  checks read.

Library entry points are looked up as module attributes at call time
(``sampler.run_chain``, not a name imported once), so the traced run can
wrap them from outside the library.

``check(inputs, output)`` returns a list of problems; an empty list means
the job's outputs are correct.  Comparisons are explicit, never through
``Network.check_consistency``, whose ``assert``s vanish under ``-O``.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ergmkit import bench, estimate, formula, loglik, proposals, sampler, san, terms
from ergmkit.errors import ConstraintError

# -- workload parameters -------------------------------------------------

# simulate: large-sparse fixed-schedule TNT chain (mean degree about 2)
SIM_N = 2000
SIM_FORMULA = 'edges + nodematch("race") + concurrent + gwesp(decay=0.5, fixed=true)'
SIM_COEFS = [-7.0, 0.5, -0.3, 0.2]
SIM_SCHEDULE = dict(samplesize=200, interval=100, burnin=2000)

# strat_ess: the criterion-12 population and coefficients
STRAT_N = 2000
STRAT_RACES = {"A": 0.55, "B": 0.25, "C": 0.15, "D": 0.05}
STRAT_FORMULA = 'edges + nodematch("race", diff=true)'
STRAT_COEFS = [-8.0, 1.2, 2.2, 3.2, 4.6]
HETERO = 'bd(maxout=1) + blocks(attr="sex", levels2=diag)'
STRAT_PMAT = [[0.30, 0.04, 0.03, 0.02],
              [0.04, 0.14, 0.02, 0.01],
              [0.03, 0.02, 0.12, 0.01],
              [0.02, 0.01, 0.01, 0.18]]
STRAT_SCHEDULE = dict(samplesize=200, interval=100, burnin=5000)
# The chains start from a cross-sex matching close to their equilibrium
# (measured from a 200k-step warm-up): per race, the share of the
# smaller sex matched within the race, plus cross-race pairs per vertex.
# This replaces the long warm-up from the empty network.
STRAT_WITHIN_SHARE = {"A": 0.28, "B": 0.28, "C": 0.37, "D": 0.46}
STRAT_CROSS_PER_VERTEX = 0.038

# fit: the README estimation pipeline at n=30
FIT_N = 30
SAN_FORMULA = 'edges + nodematch("sex") + triangle'
SAN_TARGETS = [45.0, 25.0, 6.0]
FIT_FORMULA = 'edges + nodematch("sex") + gwesp(decay=0.5, fixed=true)'
# A 40-round contrastive-divergence start is rough enough that MCMLE
# takes at least one hull-scaled step before the confidence rule stops
# it; the default 160 rounds often stop it at the start.
CD_ROUNDS = 40
MCMLE_CONTROL = dict(samplesize=1024, interval=50)
BRIDGE_PLAN = dict(J=16, K=200, interval=25)
FIT_CHAIN_SCHEDULE = dict(samplesize=4000, interval=5, burnin=1000)

# mple_sweep: MPLE with sandwich errors on an n=300 clustered network
SWEEP_N = 300
SWEEP_FORMULA = SIM_FORMULA
SWEEP_TRIANGLES_PER_VERTEX = 1 / 6
SANDWICH = dict(samplesize=3, interval=1000)
SWEEP_CHAIN_SCHEDULE = dict(samplesize=1000, interval=10, burnin=2000)

# Tolerance for comparing a chain's running statistics, accumulated from
# float change scores (gwesp), with an exact summary of its final network.
STAT_RTOL = 1e-9


@dataclass
class Inputs:
    """What setup produces, for one job."""
    attrs: object
    nets: dict
    models: dict
    constraints: dict
    # label -> (network, proposal, checker) a job's chain runs on
    states: dict = field(default_factory=dict)


@dataclass
class JobOutput:
    # label -> (retained draws, stopwatch part that drew them); "ess" is
    # the workload's primary chain, "tnt_ess" its plain-TNT chain
    chains: dict
    digest: str
    values: dict
    # per-job figures the traced run reports as per-layer metrics
    facts: dict = field(default_factory=dict)


def rep_seed(seed, rep):
    """Seed of the rep-th job of a run; rep 0 is the digested one."""
    return (seed * 1_000_003 + rep) % 2 ** 31


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _edge_list(net):
    return sorted(net.edges)


def _bernoulli_start(net, mean_degree, rng):
    """Add a uniformly random edge set of the given expected mean degree."""
    n_dyads = net.dyad_count()
    m = int(rng.binomial(n_dyads, mean_degree / (net.n - 1)))
    for k in rng.choice(n_dyads, size=m, replace=False):
        net.toggle(*net.dyad_at(int(k)))


def _run_chain(sw, net, model, coefs, proposal, checker, schedule, seed):
    """A fixed-schedule chain; returns (retained draws, stopwatch part)."""
    cfg = sampler.SamplerConfig(seed=seed, **schedule)
    sample = sw.call(sampler.run_chain, net, model, list(coefs), proposal,
                     cfg, checker=checker)
    return sample.values, sw.parts[-1]


def _check_chain(model, net, values, label):
    """The final network's summary matches the last retained draw, and
    the network's degree and edge-slot counters match its adjacency."""
    problems = []
    got = np.asarray(model.summary(net), dtype=float)
    last = values[-1]
    if not np.allclose(got, last, rtol=STAT_RTOL, atol=STAT_RTOL):
        problems.append(f"{label}: final summary {got.tolist()} != last draw "
                        f"{last.tolist()}")
    if [len(s) for s in net.adj] != net.deg:
        problems.append(f"{label}: degree counters diverged from adjacency")
    if sum(net.deg) != 2 * len(net.edges):
        problems.append(f"{label}: degree sum != twice the edge count")
    slots = net._edge_pos
    if len(slots) != len(net.edges) or any(
            net.edges[slot] != d for d, slot in slots.items()):
        problems.append(f"{label}: edge-slot map diverged from the edge list")
    if any(j not in net.adj[i] or i not in net.adj[j] for i, j in net.edges):
        problems.append(f"{label}: edge list disagrees with adjacency")
    return problems


# -- simulate ------------------------------------------------------------

def setup_simulate(seed):
    spec = bench.PopulationSpec(n=SIM_N)
    net, attrs = bench.generate_population(spec, seed=seed)
    _bernoulli_start(net, 2.0, np.random.default_rng([seed, 1]))
    model = terms.bind(formula.parse_model_formula(SIM_FORMULA), net, attrs)
    cons = formula.parse_constraint_formula(".")
    proposal, checker = proposals.make_proposal(net, cons, attrs)
    return Inputs(attrs=attrs, nets={"start": net}, models={"sim": model},
                  constraints={"sim": cons},
                  states={"sim": (net, proposal, checker)})


def job_simulate(inp, seed, sw):
    net, proposal, checker = inp.states["sim"]
    values, part = _run_chain(sw, net, inp.models["sim"], SIM_COEFS, proposal,
                              checker, SIM_SCHEDULE, seed)
    return JobOutput(chains={"ess": (values, part), "tnt_ess": (values, part)},
                     digest=_digest(values, _edge_list(net)),
                     values={"net": net, "draws": values})


def check_simulate(inp, out):
    return _check_chain(inp.models["sim"], out.values["net"],
                        out.values["draws"], "simulate")


# -- strat_ess -----------------------------------------------------------

def _matched_start(net, attrs, rng):
    """A random cross-sex matching near the strat_ess equilibrium."""
    sex, race = attrs.columns["sex"], attrs.columns["race"]
    pools = {}
    for v in rng.permutation(net.n):
        v = int(v)
        pools.setdefault((sex[v], race[v]), []).append(v)
    for r, share in STRAT_WITHIN_SHARE.items():
        males, females = pools.get(("M", r), []), pools.get(("F", r), [])
        for _ in range(round(share * min(len(males), len(females)))):
            net.toggle(males.pop(), females.pop())
    males = [v for r in sorted(STRAT_RACES) for v in pools.get(("M", r), [])]
    females = [v for r in sorted(STRAT_RACES) for v in pools.get(("F", r), [])]
    males = [males[k] for k in rng.permutation(len(males))]
    females = [females[k] for k in rng.permutation(len(females))]
    want = round(STRAT_CROSS_PER_VERTEX * net.n)
    for m in males:
        if want == 0:
            break
        for slot, f in enumerate(females):
            if race[f] != race[m]:
                net.toggle(m, females.pop(slot))
                want -= 1
                break


def setup_strat_ess(seed):
    spec = bench.PopulationSpec(n=STRAT_N, race_freqs=dict(STRAT_RACES))
    net, attrs = bench.generate_population(spec, seed=seed)
    _matched_start(net, attrs, np.random.default_rng([seed, 2]))
    model = terms.bind(formula.parse_model_formula(STRAT_FORMULA), net, attrs)
    tnt = formula.parse_constraint_formula(f"tnt + {HETERO}")
    strat = formula.parse_constraint_formula(f'{HETERO} + strat(attr="race")')
    strat.strat_pmat = [list(row) for row in STRAT_PMAT]
    cons = {"tnt": tnt, "strat": strat}
    states = {}
    for arm, c in cons.items():
        arm_net = net.copy()
        states[arm] = (arm_net, *proposals.make_proposal(arm_net, c, attrs))
    return Inputs(attrs=attrs, nets={"start": net}, models={"strat": model},
                  constraints=cons, states=states)


def job_strat_ess(inp, seed, sw):
    model = inp.models["strat"]
    chains, parts, values = {}, [], {}
    # both arms run the same number of steps from the same start
    for label, arm in (("tnt_ess", "tnt"), ("ess", "strat")):
        net, proposal, checker = inp.states[arm]
        draws, part = _run_chain(sw, net, model, STRAT_COEFS, proposal,
                                 checker, STRAT_SCHEDULE, seed)
        chains[label] = (draws, part)
        parts += [draws, _edge_list(net)]
        values[arm] = (net, proposal, draws)
    return JobOutput(chains=chains, digest=_digest(*parts), values=values)


def check_strat_ess(inp, out):
    model = inp.models["strat"]
    problems = []
    for arm, (net, proposal, draws) in out.values.items():
        problems += _check_chain(model, net, draws, f"strat_ess/{arm}")
        checker = proposals.ConstraintChecker(net, inp.constraints[arm],
                                              inp.attrs)
        try:
            checker.validate_network(net)
        except ConstraintError as exc:
            problems.append(f"strat_ess/{arm}: {exc}")
    net, proposal, _ = out.values["strat"]
    fresh = proposals.BDStratTNT(net, inp.constraints["strat"], inp.attrs)
    if proposal.snapshot() != fresh.snapshot():
        problems.append("strat_ess/strat: BDStratTNT state differs from a "
                        "fresh rebuild on the final network")
    return problems


# -- fit -----------------------------------------------------------------

def setup_fit(seed):
    spec = bench.PopulationSpec(n=FIT_N)
    net, attrs = bench.generate_population(spec, seed=seed)
    models = {"san": terms.bind(formula.parse_model_formula(SAN_FORMULA),
                                net, attrs),
              "fit": terms.bind(formula.parse_model_formula(FIT_FORMULA),
                                net, attrs)}
    cons = formula.parse_constraint_formula(".")
    return Inputs(attrs=attrs, nets={"empty": net}, models=models,
                  constraints={"fit": cons})


def job_fit(inp, seed, sw):
    net, cons, attrs = inp.nets["empty"], inp.constraints["fit"], inp.attrs
    model = inp.models["fit"]
    annealed, trace = sw.call(
        san.san_run, net, inp.models["san"],
        san.SanConfig(targets=SAN_TARGETS, seed=seed),
        constraints=cons, attrs=attrs)
    theta0 = sw.call(estimate.cd_fit, annealed, model, rounds=CD_ROUNDS,
                     constraints=cons, attrs=attrs, seed=seed)
    fit = sw.call(estimate.mcmle_fit, annealed, model, constraints=cons,
                  attrs=attrs, init=theta0,
                  control=estimate.McmleControl(seed=seed, **MCMLE_CONTROL))
    ll = sw.call(loglik.evaluate_loglik, annealed, model, fit.coefs,
                 plan=loglik.BridgePlan(seed=seed, **BRIDGE_PLAN),
                 constraints=cons, attrs=attrs)
    # a chain from the fitted model, started at the observed network,
    # gives the workload's ESS figures
    chain = annealed.copy()
    proposal, checker = proposals.make_proposal(chain, cons, attrs)
    draws, part = _run_chain(sw, chain, model, fit.coefs, proposal, checker,
                             FIT_CHAIN_SCHEDULE, seed)
    return JobOutput(
        chains={"ess": (draws, part), "tnt_ess": (draws, part)},
        digest=_digest(_edge_list(annealed), np.asarray(fit.coefs),
                       np.asarray([ll.loglik, ll.mc_se]), draws),
        values={"annealed": annealed, "fit": fit, "loglik": ll,
                "chain": chain, "draws": draws},
        facts={"estimate.mcmle_iterations": fit.iterations,
               "loglik.points": len(ll.points), "loglik.mc_se": ll.mc_se,
               "san.proposals": trace.proposals})


def check_fit(inp, out):
    v = out.values
    problems = []
    achieved = inp.models["san"].summary(v["annealed"])
    if achieved != SAN_TARGETS:
        problems.append(f"fit: SAN reached {achieved}, targets {SAN_TARGETS}")
    fit, ll = v["fit"], v["loglik"]
    if not fit.converged:
        problems.append(f"fit: MCMLE did not converge ({fit.termination})")
    if not np.all(np.isfinite(fit.coefs)):
        problems.append(f"fit: non-finite coefficients {list(fit.coefs)}")
    if not (math.isfinite(ll.loglik) and math.isfinite(ll.mc_se)
            and ll.mc_se >= 0.0):
        problems.append(f"fit: loglik {ll.loglik} with mc_se {ll.mc_se}")
    problems += _check_chain(inp.models["fit"], v["chain"], v["draws"],
                             "fit/chain")
    return problems


# -- mple_sweep ----------------------------------------------------------

def _plant_triangles(net, per_vertex, rng):
    """Close random vertex triples into triangles."""
    for _ in range(round(per_vertex * net.n)):
        a, b, c = (int(x) for x in rng.choice(net.n, size=3, replace=False))
        for i, j in ((a, b), (a, c), (b, c)):
            if not net.has_edge(i, j):
                net.toggle(i, j)


def setup_mple_sweep(seed):
    spec = bench.PopulationSpec(n=SWEEP_N)
    net, attrs = bench.generate_population(spec, seed=seed)
    rng = np.random.default_rng([seed, 3])
    _bernoulli_start(net, 2.0, rng)
    _plant_triangles(net, SWEEP_TRIANGLES_PER_VERTEX, rng)
    model = terms.bind(formula.parse_model_formula(SWEEP_FORMULA), net, attrs)
    cons = formula.parse_constraint_formula(".")
    return Inputs(attrs=attrs, nets={"observed": net},
                  models={"sweep": model}, constraints={"sweep": cons})


def job_mple_sweep(inp, seed, sw):
    net, model = inp.nets["observed"], inp.models["sweep"]
    cons, attrs = inp.constraints["sweep"], inp.attrs
    fit = sw.call(estimate.mple, net, model, se="sandwich", constraints=cons,
                  attrs=attrs, seed=seed, **SANDWICH)
    chain = net.copy()
    proposal, checker = proposals.make_proposal(chain, cons, attrs)
    draws, part = _run_chain(sw, chain, model, fit.coefs, proposal, checker,
                             SWEEP_CHAIN_SCHEDULE, seed)
    return JobOutput(
        chains={"ess": (draws, part), "tnt_ess": (draws, part)},
        digest=_digest(np.asarray(fit.coefs), np.asarray(fit.vcov), draws),
        values={"fit": fit, "chain": chain, "draws": draws})


def check_mple_sweep(inp, out):
    fit = out.values["fit"]
    vcov = np.asarray(fit.vcov)
    problems = []
    if not np.all(np.isfinite(fit.coefs)):
        problems.append(f"mple_sweep: non-finite coefficients {list(fit.coefs)}")
    if not (np.all(np.isfinite(vcov))
            and np.allclose(vcov, vcov.T, rtol=STAT_RTOL, atol=0.0)):
        problems.append("mple_sweep: sandwich vcov is not symmetric")
    if not np.all(np.diag(vcov) > 0.0):
        problems.append(f"mple_sweep: vcov diagonal {np.diag(vcov).tolist()} "
                        "is not positive")
    problems += _check_chain(inp.models["sweep"], out.values["chain"],
                             out.values["draws"], "mple_sweep/chain")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    job: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("simulate", setup_simulate, job_simulate, check_simulate),
    Workload("strat_ess", setup_strat_ess, job_strat_ess, check_strat_ess),
    Workload("fit", setup_fit, job_fit, check_fit),
    Workload("mple_sweep", setup_mple_sweep, job_mple_sweep,
             check_mple_sweep),
)}
