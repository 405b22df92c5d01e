"""Chain driver: acceptance rule, stationarity, adaptive ESS loop."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import batch_means_se, exact_moments, reference_chain
from ergmkit.errors import DataError
from ergmkit.formula import parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import (BDStratTNT, ConstraintChecker, TntProposal,
                               UniformProposal, make_proposal)
from ergmkit.sampler import (SamplerConfig, adaptive_run, mh_step, run_chain,
                             sample_chains, _log_tilt, _mh_stepper,
                             _offset_shift)
from ergmkit.terms import bind


def grp_attrs(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(n)])
    attrs.add("age", [20.0 + (v * 7) % 13 for v in range(n)])
    return attrs


class TestMhStep:
    def test_zero_coefs_always_accept(self):
        net = Network(6)
        model = bind("edges", net)
        rng = random.Random(0)
        stats = [0.0]
        prop = UniformProposal()
        for _ in range(200):
            ok, stats = mh_step(net, model, [0.0], prop, stats, rng)
            assert ok

    def test_neg_inf_offset_rejects_forbidden(self):
        net = Network(6)
        attrs = grp_attrs(6)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        coefs = [5.0, -math.inf]
        rng = random.Random(1)
        stats = [0.0, 0.0]
        for _ in range(3000):
            _, stats = mh_step(net, model, coefs, UniformProposal(), stats, rng)
        assert stats[1] == 0.0
        assert all((i % 2) != (j % 2) for i, j in net.edges)

    def test_log2_add_always_accepted(self):
        net = Network(10)
        model = bind("edges", net)
        rng = random.Random(2)
        prop = UniformProposal()
        for _ in range(50):
            i, j = net.random_dyad(rng)
            if not net.has_edge(i, j):
                ok, _ = mh_step(net, model, [math.log(2)], prop, [0.0], rng)
                # an add-toggle has acceptance min(1, 2) = 1; removals may
                # reject, so only assert on adds
                if ok:
                    continue

    def test_stats_updated_incrementally(self):
        net = Network(8)
        model = bind("edges + triangle", net)
        rng = random.Random(3)
        stats = model.summary(net)
        prop = TntProposal()
        for _ in range(2000):
            _, stats = mh_step(net, model, [0.1, 0.05], prop, stats, rng)
        assert stats == model.summary(net)


COEF = st.one_of(st.sampled_from([math.inf, -math.inf]),
                 st.floats(-10.0, 10.0, allow_nan=False))
CHANGE = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-5.0, 5.0, allow_nan=False))


class TestOffsetArithmetic:
    """The scalar and the vectorized 0 * inf rule agree exactly."""

    @given(st.integers(0, 6).flatmap(lambda k: st.tuples(
        st.lists(COEF, min_size=k, max_size=k),
        st.lists(st.lists(CHANGE, min_size=k, max_size=k),
                 min_size=1, max_size=5))))
    @settings(max_examples=300, deadline=None)
    def test_scalar_matches_vectorized(self, case):
        coefs, rows = case
        shift = _offset_shift(np.array(rows).reshape(len(rows), len(coefs)),
                              coefs)
        for r, d in enumerate(rows):
            assert _log_tilt(coefs, d, 1) == shift[r]
            flipped = [-x for x in d]
            assert _log_tilt(coefs, d, -1) == _log_tilt(coefs, flipped, 1)


# terms valid on every network kind, and those for undirected ones only
ANY_TERMS = ["edges", "triangle", 'nodematch("sex")', 'nodefactor("grp")',
             'nodecov("age")', 'absdiff("age")']
UNDIRECTED_TERMS = ["concurrent", "degree(1)", "gwdegree(decay=0.5, fixed=true)",
                    "gwesp(decay=0.5, fixed=true)"]
OFFSET_COEF = st.sampled_from([math.inf, -math.inf, -0.7, 0.4])


@st.composite
def chain_cases(draw):
    """A network kind, formula, coefficients, proposal, constraints and
    schedule for one short chain."""
    kind = draw(st.sampled_from(["undirected", "directed", "bipartite"]))
    n = draw(st.integers(4, 9))
    pool = ANY_TERMS + (UNDIRECTED_TERMS if kind != "directed" else [])
    terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                          unique=True))
    offsets = draw(st.lists(st.booleans(), min_size=len(terms),
                            max_size=len(terms)))
    formula = " + ".join(f"offset({t})" if off else t
                         for t, off in zip(terms, offsets))
    proposals = ["uniform", "tnt"] + (["bdstrat"] if kind == "undirected" else [])
    proposal = draw(st.sampled_from(proposals))
    if proposal == "bdstrat":
        constraints = draw(st.sampled_from([
            'strat(attr="grp")', "bd(maxout=2)",
            'bd(maxout=1) + blocks(attr="sex", levels2=diag)',
            'bd(maxout=2) + strat(attr="grp")']))
    else:
        constraints = draw(st.sampled_from(
            [None, 'blocks(attr="sex", levels2=diag)']
            + (["bd(maxout=2)"] if kind == "undirected" else [])))
        atom = "dense" if proposal == "uniform" else "tnt"
        constraints = atom if constraints is None else f"{atom} + {constraints}"
    edges = draw(st.lists(st.integers(0, 10 ** 6), max_size=12))
    schedule = draw(st.tuples(st.integers(0, 20), st.integers(1, 8),
                              st.integers(1, 5)))
    return dict(kind=kind, n=n, formula=formula, constraints=constraints,
                edges=edges, schedule=schedule,
                free=draw(st.lists(st.floats(-1.5, 1.5), min_size=8,
                                   max_size=8)),
                offset_coefs=draw(st.lists(OFFSET_COEF, min_size=8,
                                           max_size=8)),
                seed=draw(st.integers(0, 2 ** 16)))


def build_chain_case(case):
    """(start network, attrs, model, coefficients, constraint spec); the
    start holds the drawn edges that the constraints admit."""
    n, kind = case["n"], case["kind"]
    net = Network(n, directed=kind == "directed",
                  bipartite=n // 2 if kind == "bipartite" else 0)
    attrs = grp_attrs(n)
    spec = parse_constraint_formula(case["constraints"])
    checker = ConstraintChecker(net, spec, attrs)
    for k in case["edges"]:
        i, j = net.dyad_at(k % net.dyad_count())
        if not net.has_edge(i, j) and checker.allowed(net, i, j):
            net.toggle(i, j)
    model = bind(case["formula"], net, attrs)
    coefs = []
    for t, term in enumerate(model.offset_mask):
        coefs.append(case["offset_coefs"][t % 8] if term else case["free"][t % 8])
    return net, attrs, model, coefs, spec


class TestBoundStep:
    """The chain step bound once per chain makes the same moves as a
    step that looks everything up per call."""

    @given(case=chain_cases())
    @settings(max_examples=150, deadline=None)
    def test_run_chain_matches_reference_loop(self, case):
        start, attrs, model, coefs, spec = build_chain_case(case)
        burnin, samplesize, interval = case["schedule"]
        runs = []
        for bound in (True, False):
            net = start.copy()
            proposal, checker = make_proposal(net, spec, attrs)
            rng = random.Random(case["seed"])
            if bound:
                cfg = SamplerConfig(samplesize=samplesize, burnin=burnin,
                                    interval=interval)
                draws = run_chain(net, model, coefs, proposal, cfg, checker,
                                  rng).values
            else:
                draws = reference_chain(net, model, coefs, proposal, burnin,
                                        samplesize, interval, rng, checker)
            snapshot = proposal.snapshot() if hasattr(proposal, "snapshot") \
                else None
            runs.append((draws.view(np.uint64).tolist(), list(net.edges),
                         [list(a) for a in net.adj], snapshot,
                         rng.getstate()))
        assert runs[0] == runs[1]

    @given(coefs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
           delta=st.lists(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
                          min_size=5, max_size=5),
           log_q=st.sampled_from([0.0, -0.25, 0.7]))
    @settings(max_examples=300, deadline=None)
    def test_finite_tilt_is_log_tilt(self, coefs, delta, log_q):
        """With finite coefficients the step's log acceptance ratio is
        _log_tilt's plus log_q, bit for bit, adding and removing.  The
        step's exp sees it whenever the move is not accepted outright."""
        delta = delta[:len(coefs)]

        class Term:
            def change(self, net, i, j):
                return delta

        class Model:
            p = len(coefs)

            def change_functions(self):
                return [Term().change]

        class Fixed:
            def bind(self, net, rng):
                return lambda: (0, 1, log_q)

            def commit(self, net, i, j, added):
                pass

        seen = []

        def exp(x):
            seen.append(x)
            return 0.0      # reject: the network keeps its state

        for present in (False, True):
            net = Network(3)
            if present:
                net.toggle(0, 1)
            real_exp, math.exp = math.exp, exp
            try:
                step = _mh_stepper(net, Model(), coefs, Fixed(), None,
                                   random.Random(0))
            finally:
                math.exp = real_exp
            seen.clear()
            stats = [0.0] * len(coefs)
            result = step(stats)
            want = _log_tilt(coefs, delta, -1 if present else 1) + log_q
            if want >= 0.0:
                assert result is not stats and not seen
            else:
                assert result is stats
                assert [x.hex() for x in seen] == [want.hex()]

    def test_nan_coefficient_rejected(self):
        net = Network(5)
        model = bind("edges + triangle", net)
        with pytest.raises(DataError, match="NaN"):
            run_chain(net, model, [0.1, math.nan], TntProposal(),
                      SamplerConfig(samplesize=3))
        with pytest.raises(DataError, match="coefficients"):
            mh_step(net, model, [0.1], TntProposal(), [0.0, 0.0],
                    random.Random(0))


class TestRunChain:
    def test_er_mean_edges(self):
        # coef log 2 => each dyad independently present w.p. 2/3
        net = Network(10)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=4000, burnin=500, interval=5, seed=4)
        sm = run_chain(net, model, [math.log(2)], TntProposal(), cfg)
        se = batch_means_se(sm.values[:, 0])
        assert abs(sm.values[:, 0].mean() - 30.0) < 3 * se

    def test_er_triangles(self):
        net = Network(10)
        model = bind("edges + triangle", net)
        cfg = SamplerConfig(samplesize=4000, burnin=500, interval=5, seed=5)
        sm = run_chain(net, model, [math.log(2), 0.0], TntProposal(), cfg)
        want = 120 * (2 / 3) ** 3   # C(10,3) p^3 = 35.55...
        se = batch_means_se(sm.values[:, 1])
        assert abs(sm.values[:, 1].mean() - want) < 3 * se

    def test_interval_invariance(self):
        net = Network(8)
        model = bind("edges", net)
        theta = [-0.4]
        means = []
        for interval, seed in [(1, 6), (10, 7)]:
            cfg = SamplerConfig(samplesize=4000, burnin=300, interval=interval,
                                seed=seed)
            sm = run_chain(Network(8), model, theta, TntProposal(), cfg)
            means.append((sm.values[:, 0].mean(), batch_means_se(sm.values[:, 0])))
        (m1, s1), (m2, s2) = means
        assert abs(m1 - m2) < 3 * math.hypot(s1, s2)

    def test_determinism(self):
        net = Network(8)
        model = bind("edges + triangle", net)
        cfg = SamplerConfig(samplesize=200, burnin=50, interval=3, seed=11)
        a = run_chain(net.copy(), model, [0.1, 0.02], TntProposal(), cfg)
        b = run_chain(net.copy(), model, [0.1, 0.02], TntProposal(), cfg)
        assert np.array_equal(a.values, b.values)

    def test_collect_mode(self):
        net = Network(6)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=50, interval=2, seed=12)
        sm, extras = run_chain(net, model, [0.0], TntProposal(), cfg,
                               collect=lambda nw: nw.edge_count)
        assert len(extras) == 50
        assert [e for e in extras] == [int(v) for v in sm.values[:, 0]]

    def test_multichain_merge(self):
        net = Network(6)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=40, interval=2, seed=13, chains=3)
        sm, finals = sample_chains(net, model, [0.2], cfg)
        assert sm.S == 120
        assert len(finals) == 3
        assert set(sm.chain_ids) == {0, 1, 2}
        # chain 0 alone must reproduce a single-chain run with the same seed
        solo = run_chain(net.copy(), model, [0.2], TntProposal(),
                         SamplerConfig(samplesize=40, interval=2, seed=13))
        assert np.array_equal(sm.values[sm.chain_ids == 0], solo.values)


class TestExactStationarity:
    """Long-run means vs full enumeration on n=5 (the master oracle)."""

    THETA = (-0.5, 0.3)
    FORMULA = "edges + triangle"

    def run_proposal(self, proposal_name, draws=200_000, seed=21):
        net = Network(5)
        model = bind(self.FORMULA, net)
        if proposal_name == "uniform":
            prop = UniformProposal()
        elif proposal_name == "tnt":
            prop = TntProposal()
        else:
            prop = BDStratTNT(net, parse_constraint_formula("strat(attr=\"grp\")"),
                              grp_attrs(5))
        cfg = SamplerConfig(samplesize=draws, burnin=2000, interval=1, seed=seed)
        return run_chain(net, model, list(self.THETA), prop, cfg)

    @pytest.mark.parametrize("proposal", ["uniform", "tnt", "bdstrat"])
    def test_means_match_enumeration(self, proposal):
        exact, count = exact_moments(5, self.FORMULA, None, self.THETA)
        assert count == 1024
        sm = self.run_proposal(proposal)
        for k in range(2):
            se = batch_means_se(sm.values[:, k])
            assert abs(sm.values[:, k].mean() - exact[k]) < 3 * se, \
                f"{proposal}: stat {k} off by more than 3 s.e."


class TestConstrainedStationarity:
    def test_bdstrat_matches_constrained_enumeration(self):
        n = 6
        attrs = grp_attrs(n)
        spec = parse_constraint_formula(
            'bd(maxout=1) + blocks(attr="sex", levels2=diag) + strat(attr="grp")')
        theta = (0.3, -0.1)
        formula = 'edges + absdiff("age")'
        checker = ConstraintChecker(Network(n), spec, attrs)

        def keep(net):
            try:
                checker.validate_network(net)
                return True
            except Exception:
                return False

        exact, count = exact_moments(n, formula, attrs, theta, keep=keep)
        assert count == 34
        net = Network(n)
        model = bind(formula, net, attrs)
        prop = BDStratTNT(net, spec, attrs)
        cfg = SamplerConfig(samplesize=150_000, burnin=1000, interval=1, seed=22)
        sm = run_chain(net, model, list(theta), prop, cfg)
        for k in range(2):
            se = batch_means_se(sm.values[:, k])
            assert abs(sm.values[:, k].mean() - exact[k]) < 3 * se

    def test_tnt_with_rejection_matches(self):
        # plain TNT + checker rejections must target the same law
        n = 6
        attrs = grp_attrs(n)
        spec = parse_constraint_formula('tnt + bd(maxout=1) + blocks(attr="sex", levels2=diag)')
        theta = (0.3,)
        checker = ConstraintChecker(Network(n), spec, attrs)

        def keep(net):
            try:
                checker.validate_network(net)
                return True
            except Exception:
                return False

        exact, _ = exact_moments(n, "edges", attrs, theta, keep=keep)
        net = Network(n)
        model = bind("edges", net, attrs)
        cfg = SamplerConfig(samplesize=120_000, burnin=1000, interval=1, seed=23)
        sm = run_chain(net, model, list(theta), TntProposal(), cfg, checker=checker)
        se = batch_means_se(sm.values[:, 0])
        assert abs(sm.values[:, 0].mean() - exact[0]) < 3 * se


class TestAdaptive:
    def test_fast_mixing_terminates(self):
        net = Network(10)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=256, interval=8, seed=31, target_ess=100)
        sm, diag = adaptive_run(net, model, [0.0], TntProposal(), cfg)
        assert diag.converged
        assert diag.ess >= 100
        assert sm.S <= 2 * 256 + 256

    def test_sticky_chain_doubles_interval(self):
        # interval=1 on a dependent model: the retained count must stay
        # bounded and the interval must double at least once
        net = Network(12)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=128, interval=1, seed=32, target_ess=120,
                            max_rounds=30)
        sm, diag = adaptive_run(net, model, [0.3], TntProposal(), cfg)
        assert diag.thinning_events >= 1
        assert sm.S <= 2 * 128

    def test_target_ess_64(self):
        net = Network(10)
        model = bind("edges + triangle", net)
        cfg = SamplerConfig(samplesize=128, interval=4, seed=33, target_ess=64)
        sm, diag = adaptive_run(net, model, [math.log(2), 0.0], TntProposal(), cfg)
        assert diag.converged and diag.ess >= 64

    @pytest.mark.parametrize("samplesize, max_rounds", [(10, 40), (40, 12)])
    def test_small_samplesize_converges(self, samplesize, max_rounds):
        # thinning keeps room for the two-window test's 80 draws, so a
        # small nominal size does not end every round too short
        net = Network(24)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=samplesize, interval=10, burnin=60,
                            seed=4, target_ess=50, max_rounds=max_rounds)
        sm, diag = adaptive_run(net, model, [-1.5], TntProposal(), cfg)
        assert diag.converged and diag.ess >= 50
        assert sm.S >= 80

    def test_nonconvergence_flagged(self):
        net = Network(10)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=64, interval=1, seed=34,
                            target_ess=1e7, max_rounds=3)
        sm, diag = adaptive_run(net, model, [0.0], TntProposal(), cfg)
        assert not diag.converged
        assert diag.rounds == 3
