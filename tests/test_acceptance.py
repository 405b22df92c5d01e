"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import signal

from helpers import CheckedProposal, all_networks, batch_means_se, \
    exact_log_normalizer, exact_moments, random_dyad
from ergmkit.bench import PopulationSpec, ess_benchmark, generate_population
from ergmkit.diagnostics import estimate_burnin, geweke_test, multivariate_ess
from ergmkit.estimate import (McmleControl, check_termination, logistic_fit,
                              mcmle_fit, mple, mple_rows, _IterationRecord)
from ergmkit.formula import ConstraintSpec, parse_constraint_formula
from ergmkit.hull import boundary_multiplier, in_hull, scale_into_hull
from ergmkit.loglik import BridgePlan, bridge_loglik, null_deviance
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import (BDStratTNT, ConstraintChecker, TntProposal,
                               UniformProposal)
from ergmkit.san import SanConfig, san_run
from ergmkit.sampler import SamplerConfig, run_chain
from ergmkit.terms import bind


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} [FAIL] {label}")
        raise
    print(f"criterion {number:>2} [pass] {label}")


def alternating_sex(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("age", [20.0 + (v * 7) % 13 for v in range(n)])
    attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(n)])
    return attrs


def test_criterion_01_exact_stationarity():
    """n=5 edges+triangle vs full enumeration, three proposals, <2 min."""
    with criterion(1, "exact stationarity for uniform, TNT, BDStratTNT"):
        theta = (-0.5, 0.3)
        exact, count = exact_moments(5, "edges + triangle", None, theta)
        assert count == 1024
        t0 = time.perf_counter()
        draws = 1_000_000
        for name in ("uniform", "tnt", "bdstrat"):
            net = Network(5)
            model = bind("edges + triangle", net)
            if name == "uniform":
                prop = UniformProposal()
            elif name == "tnt":
                prop = TntProposal()
            else:
                prop = BDStratTNT(net, ConstraintSpec(), None)  # trivial strata
            cfg = SamplerConfig(samplesize=draws, burnin=2000, interval=1,
                                seed=101)
            sm = run_chain(net, model, list(theta), prop, cfg)
            for k in range(2):
                se = batch_means_se(sm.values[:, k])
                err = abs(sm.values[:, k].mean() - exact[k])
                assert err < 3 * se, f"{name} stat {k}: {err} vs 3se {3 * se}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.0f}s exceeds 2 minutes"


def test_criterion_02_constrained_stationarity():
    """n=6 monogamous heterosexual space: exact means, no violations."""
    with criterion(2, "constrained stationarity over 1e7 steps"):
        n = 6
        attrs = alternating_sex(n)
        spec = parse_constraint_formula(
            'bd(maxout=1) + blocks(attr="sex", levels2=diag) + strat(attr="grp")')
        theta = (0.3, -0.1)
        formula = 'edges + absdiff("age")'
        checker = ConstraintChecker(Network(n), spec, attrs)

        def admissible(net):
            try:
                checker.validate_network(net)
                return True
            except Exception:
                return False

        exact, count = exact_moments(n, formula, attrs, theta, keep=admissible)
        assert count == 34

        # the production chain, 1e7 steps retained every 10th, in ten
        # chunks on one RNG; every proposal is asserted legal, and the
        # network is validated after each chunk of 1e6 steps
        net = Network(n)
        model = bind(formula, net, attrs)
        prop = CheckedProposal(BDStratTNT(net, spec, attrs), checker)
        rng = random.Random(202)
        chunk_steps, retain_every = 1_000_000, 10
        cfg = SamplerConfig(samplesize=chunk_steps // retain_every,
                            interval=retain_every)
        chunks = []
        for _ in range(10):
            chunks.append(run_chain(net, model, list(theta), prop, cfg,
                                    rng=rng).values)
            checker.validate_network(net)
        values = np.concatenate(chunks)
        for k in range(2):
            se = batch_means_se(values[:, k])
            err = abs(values[:, k].mean() - exact[k])
            assert err < 3 * se, f"stat {k}: {err} vs 3se {3 * se}"


def test_criterion_03_mple_identities():
    """Weights sum, closed-form MPLE, weighting identity, grid oracle."""
    with criterion(3, "pseudo-likelihood identities"):
        # directed 4-node: weights sum to 4*3
        rng = random.Random(33)
        net4 = Network(4, directed=True)
        for k in range(net4.dyad_count()):
            if rng.random() < 0.5:
                net4.toggle(*net4.dyad_at(k))
        rows = mple_rows(net4, bind("edges + triangle", net4))
        assert rows.weights.sum() == 12

        # edges-only MPLE equals logit(density) exactly
        net = Network(10)
        while net.edge_count < 30:
            i, j = random_dyad(net, rng)
            if not net.has_edge(i, j):
                net.toggle(i, j)
        fit = mple(net, bind("edges", net))
        assert abs(fit.coefs[0] - math.log(2.0)) < 1e-10

        # weighted fit equals replicated fit to 1e-12
        nprng = np.random.default_rng(3)
        X = nprng.normal(size=(25, 2))
        y = (nprng.random(25) < 0.5).astype(float)
        w = nprng.integers(1, 6, size=25).astype(float)
        bw, _ = logistic_fit(X, y, w)
        br, _ = logistic_fit(np.repeat(X, w.astype(int), axis=0),
                             np.repeat(y, w.astype(int)))
        assert np.abs(bw - br).max() < 1e-12

        # p<=2 dyad-independent fit matches the golden-section grid oracle
        from test_estimate import grid_oracle_pseudolik, sex_attrs
        net8 = Network(8)
        for k in range(net8.dyad_count()):
            if rng.random() < 0.4:
                net8.toggle(*net8.dyad_at(k))
        model = bind('edges + nodematch("sex")', net8, sex_attrs(8))
        rows = mple_rows(net8, model)
        beta, _ = logistic_fit(rows.predictor, rows.response, rows.weights)
        oracle = grid_oracle_pseudolik(rows, np.zeros(len(rows.response)))
        assert np.abs(beta - oracle).max() < 1e-6


def test_criterion_04_sandwich_simplification():
    """Dyad-independent model: sandwich within 10% of the naive vcov."""
    with criterion(4, "sandwich variance simplifies when dyads are independent"):
        rng = random.Random(44)
        net = Network(20)
        attrs = alternating_sex(20)
        for k in range(net.dyad_count()):
            if rng.random() < 0.3:
                net.toggle(*net.dyad_at(k))
        model = bind('edges + nodematch("sex")', net, attrs)
        naive = mple(net, model, se="naive")
        sand = mple(net, model, se="sandwich", samplesize=10_000, seed=4)
        rel = np.linalg.norm(sand.vcov - naive.vcov) / np.linalg.norm(naive.vcov)
        assert rel < 0.10, f"relative Frobenius difference {rel:.3f}"


def test_criterion_05_simulation_moments():
    """Independent-edge model at coef log 2: known edge/triangle means."""
    with criterion(5, "simulation moments match the independence analysis"):
        net = Network(10)
        model = bind("edges + triangle", net)
        cfg = SamplerConfig(samplesize=10_000, burnin=2000, interval=20,
                            seed=55)
        sm = run_chain(net, model, [math.log(2.0), 0.0], TntProposal(), cfg)
        want_edges = 45 * (2 / 3)
        want_tri = 120 * (2 / 3) ** 3
        se_e = batch_means_se(sm.values[:, 0])
        se_t = batch_means_se(sm.values[:, 1])
        assert abs(sm.values[:, 0].mean() - want_edges) < 3 * se_e
        assert abs(sm.values[:, 1].mean() - want_tri) < 3 * se_t


def test_criterion_06_san_example():
    """100-node annealing example: exactly (30, 0, 0), 99/100 seeds, <5s."""
    with criterion(6, "annealing reaches (30, 0, 0) reliably and fast"):
        attrs = alternating_sex(100)
        check_model = None
        hits = 0
        worst = 0.0
        for seed in range(100):
            net = Network(100)
            model = bind('edges + offset(nodematch("sex")) + offset(concurrent)',
                         net, attrs)
            config = SanConfig(targets=[30.0],
                               offset_coefs=(-math.inf, -math.inf), seed=seed)
            t0 = time.perf_counter()
            out, _ = san_run(net, model, config, attrs=attrs)
            worst = max(worst, time.perf_counter() - t0)
            if check_model is None:
                check_model = bind('edges + nodematch("sex") + concurrent',
                                   out, attrs)
            if check_model.summary(out) == [30.0, 0.0, 0.0]:
                hits += 1
        assert hits >= 99, f"only {hits}/100 seeds reached the targets"
        assert worst < 5.0, f"slowest run took {worst:.2f}s"


def test_criterion_07_null_deviance():
    """2 N log 2, exactly."""
    with criterion(7, "null deviance is 2 N log 2"):
        for N in (0, 12, 45):
            assert null_deviance(N) == 2.0 * N * math.log(2.0)


def test_criterion_08_bridge_sampling():
    """n=5 oracle, antisymmetry, additivity, adaptive target s.e."""
    with criterion(8, "bridge log-likelihood differences"):
        rng = random.Random(88)
        net = Network(5)
        for k in range(net.dyad_count()):
            if rng.random() < 0.45:
                net.toggle(*net.dyad_at(k))
        model = bind("edges + triangle", net)
        g_obs = model.summary(net)

        def exact_ll(theta):
            kappa = exact_log_normalizer(5, "edges + triangle", None, theta)
            return sum(t * g for t, g in zip(theta, g_obs)) - kappa

        theta_hat = np.array([-0.4, 0.25])
        theta_tilde = np.array([0.1, 0.0])
        want = exact_ll(tuple(theta_hat)) - exact_ll(tuple(theta_tilde))
        plan = BridgePlan(J=16, K=10_000, interval=5, seed=8)
        res = bridge_loglik(net, model, theta_hat, theta_tilde, plan)
        assert abs(res.delta_loglik - want) < 0.05

        # antisymmetry within 3 combined standard errors
        p1 = BridgePlan(J=8, K=4000, interval=5, seed=9)
        p2 = BridgePlan(J=8, K=4000, interval=5, seed=10)
        fwd = bridge_loglik(net, model, theta_hat, theta_tilde, p1)
        rev = bridge_loglik(net, model, theta_tilde, theta_hat, p2)
        tol = 3 * math.hypot(fwd.mc_se, rev.mc_se)
        assert abs(fwd.delta_loglik + rev.delta_loglik) < max(tol, 1e-3)

        # path additivity within 3 combined standard errors
        mid = np.array([-0.15, 0.125])
        p3 = BridgePlan(J=8, K=4000, interval=5, seed=11)
        p4 = BridgePlan(J=8, K=4000, interval=5, seed=12)
        leg1 = bridge_loglik(net, model, mid, theta_tilde, p3)
        leg2 = bridge_loglik(net, model, theta_hat, mid, p4)
        tol = 3 * math.sqrt(fwd.mc_se ** 2 + leg1.mc_se ** 2 + leg2.mc_se ** 2)
        assert abs(fwd.delta_loglik - (leg1.delta_loglik + leg2.delta_loglik)) \
            < max(tol, 2e-3)

        # adaptive refinement reaches the target standard error
        plan_a = BridgePlan(interval=5, seed=13, target_se=0.01, J=8, K=2000)
        res_a = bridge_loglik(net, model, theta_hat, theta_tilde, plan_a)
        assert res_a.mc_se <= 0.01
        assert abs(res_a.delta_loglik - want) < max(3 * res_a.mc_se, 0.03)


def test_criterion_09_hull_lp():
    """Membership vs feasibility oracle, homogeneity, idempotence."""
    with criterion(9, "convex-hull linear programming"):
        from test_hull import feasibility_membership
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            p = int(rng.integers(1, 5))
            S = int(rng.integers(p + 1, 51))
            points = rng.normal(size=(S, p))
            if rng.random() < 0.5:
                w = rng.dirichlet(np.ones(S))
                x = w @ points
            else:
                x = rng.normal(size=p) * 2.0
            assert in_hull(points, x) == feasibility_membership(points, x)
            checked += 1

        points = rng.normal(size=(30, 4))
        center = points.mean(axis=0)
        for _ in range(20):
            x = center + rng.normal(size=4)
            g1 = boundary_multiplier(points, x, center)
            g2 = boundary_multiplier(points, center + 2 * (x - center), center)
            assert abs(g1 - 2 * g2) <= 1e-9 * max(1.0, abs(g1))

        for _ in range(20):
            x = center + 10.0 * rng.normal(size=4)
            once = scale_into_hull(points, x)
            twice = scale_into_hull(points, once)
            assert np.allclose(once, twice, atol=1e-9)


def test_criterion_10_mcmle_end_to_end():
    """Recovery of log 2, Wald coverage, and all three stopping rules."""
    with criterion(10, "Monte-Carlo MLE end to end"):
        # edges-only with target statistic 30 recovers log 2
        net = Network(10)
        model = bind("edges", net)
        control = McmleControl(samplesize=512, interval=20, maxit=20, seed=7)
        fit = mcmle_fit(net, model, g_obs=[30.0], init=[0.0], control=control)
        assert fit.converged
        assert abs(fit.coefs[0] - math.log(2.0)) < 0.02

        # every stopping rule stops within 10 iterations at S = 2^9
        for rule in ("hotelling", "hummel", "confidence"):
            control = McmleControl(samplesize=512, interval=20, maxit=10,
                                   seed=8, termination=rule)
            f = mcmle_fit(net, model, g_obs=[30.0], init=[0.0], control=control)
            assert f.converged and f.iterations <= 10, rule

        # coverage of 95% Wald intervals over 200 replicates
        n = 16
        attrs = alternating_sex(n)
        theta_true = np.array([-1.0, 1.2])
        proto = Network(n)
        cov_model = bind('edges + nodematch("sex")', proto, attrs)
        reps = 200
        cover = np.zeros(2)
        for r in range(reps):
            sim = Network(n)
            cfg = SamplerConfig(samplesize=1, interval=1, burnin=3000,
                                seed=10_000 + r)
            run_chain(sim, cov_model, list(theta_true), TntProposal(), cfg)
            control = McmleControl(samplesize=384, interval=60, maxit=20,
                                   seed=r)
            f = mcmle_fit(sim, cov_model, control=control)
            se = f.standard_errors()
            est = f.free_coefs
            for k in range(2):
                if abs(est[k] - theta_true[k]) <= 1.96 * se[k]:
                    cover[k] += 1
        band = 4 * math.sqrt(0.95 * 0.05 / reps)
        for k in range(2):
            rate = cover[k] / reps
            assert abs(rate - 0.95) <= band, \
                f"coordinate {k} coverage {rate:.3f}"


def test_criterion_11_diagnostics_calibration():
    """ESS vs analytic values, test size, planted burn-in decay."""
    with criterion(11, "diagnostics calibration"):
        rng = np.random.default_rng(111)
        iid = rng.standard_normal((100_000, 2))
        assert abs(multivariate_ess(iid).ess - 100_000) / 100_000 < 0.15
        ar = signal.lfilter([1.0], [1.0, -0.5],
                            rng.standard_normal((100_000, 2)), axis=0)
        want = 100_000 / 3
        assert abs(multivariate_ess(ar).ess - want) / want < 0.15

        reps, alpha = 1000, 0.05
        rej = sum(geweke_test(rng.standard_normal((2000, 2))) < alpha
                  for _ in range(reps))
        assert abs(rej - reps * alpha) < 4 * math.sqrt(reps * alpha * (1 - alpha))

        s = np.arange(1, 2001)
        x = 5.0 + 3.0 * np.exp2(-s / 100.0) + 0.01 * rng.standard_normal(2000)
        fit = estimate_burnin(x[:, None])
        assert abs(fit.s0 - 100.0) / 100.0 < 0.10


def test_criterion_12_proposal_efficiency():
    """Stratified constrained proposal: at least 5x the min-statistic ESS."""
    with criterion(12, "proposal efficiency at n=2000 (>= 5x min ESS)"):
        hetero = 'bd(maxout=1) + blocks(attr="sex", levels2=diag)'
        spec = PopulationSpec(n=2000, race_freqs={"A": 0.55, "B": 0.25,
                                                  "C": 0.15, "D": 0.05})
        net, attrs = generate_population(spec, seed=0)
        model = bind('edges + nodematch("race", diff=true)', net, attrs)
        coefs = [-8.0, 1.2, 2.2, 3.2, 4.6]
        strat_spec = parse_constraint_formula(f'{hetero} + strat(attr="race")')
        strat_spec.strat_pmat = [[0.30, 0.04, 0.03, 0.02],
                                 [0.04, 0.14, 0.02, 0.01],
                                 [0.03, 0.02, 0.12, 0.01],
                                 [0.02, 0.01, 0.01, 0.18]]
        proposals = {
            "tnt": parse_constraint_formula(f"tnt + {hetero}"),
            "strat": strat_spec,
        }
        res = ess_benchmark(net, attrs, model, coefs, proposals,
                            samplesize=10_000, interval=100, seed=1,
                            warmup=200_000)
        for r in res.values():
            assert (r["ess"] <= 10_000 * 1.05).all()
        ratio = res["strat"]["ess"].min() / res["tnt"]["ess"].min()
        assert ratio >= 5.0, f"min-ESS ratio {ratio:.2f}"


def test_criterion_13_declared_exclusions():
    """Hour-scale, million-node comparisons are out of desk-scale scope."""
    with criterion(13, "declared non-reproducible results stand replaced"):
        # the million-node fit-time table and the 1e9-proposal
        # non-convergence claim are represented at desk scale by the
        # stationarity oracles (1, 2) and the efficiency ratio (12)
        import test_acceptance as me
        for name in ("test_criterion_01_exact_stationarity",
                     "test_criterion_02_constrained_stationarity",
                     "test_criterion_12_proposal_efficiency"):
            assert hasattr(me, name)
