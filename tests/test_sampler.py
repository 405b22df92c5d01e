"""Chain driver: acceptance rule, stationarity, adaptive ESS loop."""

import hashlib
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import _log_tilt, batch_means_se, exact_moments, reference_chain
from ergmkit.errors import DataError
from ergmkit.formula import parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import (BDStratTNT, ConstraintChecker, TntProposal,
                               UniformProposal, make_proposal)
from ergmkit.sampler import (Chain, SamplerConfig, adaptive_run, run_chain,
                             sample_chains, _offset_shift, _run_tilt)
from ergmkit.terms import bind


def grp_attrs(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(n)])
    attrs.add("age", [20.0 + (v * 7) % 13 for v in range(n)])
    return attrs


def _check_step_tilt(coefs, delta, log_q, infinite, width):
    """One step on dyad (0, 1) with change score `delta`, from a stub
    model whose class table covers its first `width` columns (none when
    width is 0): the log acceptance ratio the step tests is _log_tilt's
    plus log_q, bit for bit, adding and removing.  A NaN ratio (opposite
    infinities) rejects like _log_tilt's -inf, unseen by exp."""
    delta = delta[:len(coefs)]
    if infinite is not None:
        k, c = infinite
        coefs[k % len(coefs)] = c

    class Model:
        p = len(coefs)

        def class_table(self, net):
            if not width:
                return 0, 0, [0] * net.n, [[[]]]
            return 1, width, [0] * net.n, [[delta[:width]]]

        def change_functions(self, net, first=0):
            if not width:
                return [lambda i, j, present: delta][first:]
            return [lambda i, j, present: delta[:width],
                    lambda i, j, present: delta[width:]][first:]

    class Fixed:
        def bind(self, net, rng):
            return (lambda: (0, 1, log_q)), None

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
            step = Chain(net, Model(), Fixed(), None,
                         random.Random(0)).kernel(coefs)
        finally:
            math.exp = real_exp
        seen.clear()
        stats = [0.0] * len(coefs)
        result = step(stats)
        want = _log_tilt(coefs, delta, -1 if present else 1) + log_q
        if want >= 0.0:
            assert result is not stats and not seen
            # the full change score: the table's row, then the closures'
            assert result == [-x if present else x for x in delta]
        elif want == -math.inf:
            assert result is stats and not seen
        else:
            assert result is stats
            assert [x.hex() for x in seen] == [want.hex()]


class TestMhStep:
    def test_zero_coefs_always_accept(self):
        net = Network(6)
        model = bind("edges", net)
        step = Chain(net, model, UniformProposal(), None,
                     random.Random(0)).kernel([0.0])
        stats = [0.0]
        for _ in range(200):
            new = step(stats)
            assert new is not stats
            stats = new

    def test_neg_inf_offset_rejects_forbidden(self):
        net = Network(6)
        attrs = grp_attrs(6)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        cfg = SamplerConfig(samplesize=3000, seed=1)
        sm = run_chain(net, model, [5.0, -math.inf], UniformProposal(), cfg)
        assert not sm.values[:, 1].any()
        assert all((i % 2) != (j % 2) for i, j in net.edges)

    def test_log2_add_always_accepted(self):
        # at theta = log 2 an add has log ratio log 2 > 0 under the
        # symmetric uniform proposal, so the step accepts every one
        net = Network(10)
        model = bind("edges", net)
        proposed = []

        class Recording:
            def bind(self, net, rng):
                draw, commit = UniformProposal().bind(net, rng)

                def recorded():
                    i, j, log_q = draw()
                    proposed.append((i, j, j in net.adj[i], log_q))
                    return i, j, log_q

                return recorded, commit

        step = Chain(net, model, Recording(), None,
                     random.Random(2)).kernel([math.log(2)])
        stats, adds = [0.0], 0
        for _ in range(300):
            new = step(stats)
            i, j, present, log_q = proposed[-1]
            assert log_q == 0.0
            if not present:
                adds += 1
                assert new is not stats and net.has_edge(i, j)
            stats = new
        assert len(proposed) == 300 and adds >= 100

    def test_stats_updated_incrementally(self):
        net = Network(8)
        model = bind("edges + triangle", net)
        step = Chain(net, model, TntProposal(), None,
                     random.Random(3)).kernel([0.1, 0.05])
        stats = model.summary(net)
        for _ in range(2000):
            stats = step(stats)
        assert stats == model.summary(net)


COEF = st.one_of(st.sampled_from([math.inf, -math.inf]),
                 st.floats(-10.0, 10.0, allow_nan=False))
CHANGE = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-5.0, 5.0, allow_nan=False))
# k coefficients and one to five change-score rows of k columns
COEF_ROWS = st.integers(0, 6).flatmap(lambda k: st.tuples(
    st.lists(COEF, min_size=k, max_size=k),
    st.lists(st.lists(CHANGE, min_size=k, max_size=k), min_size=1,
             max_size=5)))


class TestOffsetArithmetic:
    """The library's IEEE tilt sums keep the 0 * inf rule of the
    oracle _log_tilt, with a NaN sum read as its -inf."""

    @given(COEF_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_scalar_matches_vectorized(self, case):
        coefs, rows = case
        shift = _offset_shift(np.array(rows).reshape(len(rows), len(coefs)),
                              coefs)
        for r, d in enumerate(rows):
            assert _log_tilt(coefs, d, 1) == shift[r]
            flipped = [-x for x in d]
            assert _log_tilt(coefs, d, -1) == _log_tilt(coefs, flipped, 1)

    @given(COEF_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_ieee_sums_are_log_tilt(self, case):
        """_run_tilt, with NaN read as -inf, is _log_tilt's sum, and
        _offset_shift is it row by row without a warning."""
        coefs, rows = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift = _offset_shift(
                np.array(rows).reshape(len(rows), len(coefs)), coefs)
        for r, d in enumerate(rows):
            want = _log_tilt(coefs, d, 1)
            tilt = _run_tilt(coefs, d)
            assert (-math.inf if math.isnan(tilt) else tilt) == want
            assert shift[r] == want

    def test_overflow_against_infinity_rejects(self):
        """The one move the IEEE rule decides unlike _log_tilt: finite
        products summing past the float range meet an infinity of the
        other sign.  _log_tilt reads the add as +inf and accepts it; the
        sum is NaN, and the step rejects the add (and the removal, as
        _log_tilt does) without drawing a uniform."""
        coefs, delta = [-1e308, -1e308, math.inf], [1.0, 1.0, 1.0]
        assert _log_tilt(coefs, delta, 1) == math.inf
        assert _log_tilt(coefs, delta, -1) == -math.inf
        assert math.isnan(_run_tilt(coefs, delta))
        with np.errstate(over="ignore"):
            assert _offset_shift(np.array([delta]), coefs)[0] == -math.inf

        class Model:
            p = 3

            def class_table(self, net):
                return 0, 0, [0] * net.n, [[[]]]

            def change_functions(self, net, first=0):
                return [lambda i, j, present: delta][first:]

        class Fixed:
            def bind(self, net, rng):
                return (lambda: (0, 1, 0.0)), None

        for present in (False, True):
            net = Network(3)
            if present:
                net.toggle(0, 1)
            rng = random.Random(0)
            state = rng.getstate()
            stats = [0.0] * 3
            step = Chain(net, Model(), Fixed(), None, rng).kernel(coefs)
            assert step(stats) is stats
            assert rng.getstate() == state
            assert net.has_edge(0, 1) == present


# terms valid on every network kind, and those for undirected ones only
ANY_TERMS = ["edges", "triangle", 'nodematch("sex")',
             'nodematch("grp", diff=true)', 'nodefactor("grp")',
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
        # degree caps on every kind: the chain's inline rule reads
        # in-degrees and in-caps on directed networks
        caps = {"undirected": "bd(maxout=2)", "bipartite": "bd(maxout=2)",
                "directed": "bd(maxout=2, maxin=1)"}[kind]
        constraints = draw(st.sampled_from(
            [None, 'blocks(attr="sex", levels2=diag)', caps,
             f'{caps} + blocks(attr="sex", levels2=diag)']))
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
            # every field the chain's flip writes, in iteration order
            runs.append((draws.view(np.uint64).tolist(), list(net.edges),
                         list(net._edge_pos.items()),
                         [list(a) for a in net.adj],
                         [list(a) for a in net.in_adj], list(net.deg),
                         list(net.in_deg), snapshot, rng.getstate()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("formula", [
        'nodematch("id") + edges + triangle',
        'edges + nodefactor("id") + nodematch("sex", diff=true) + triangle'])
    def test_over_the_class_bound_matches_reference_loop(self, formula):
        """A run with more vertex classes than the table's bound is
        empty: every term scores through its closure, in the same
        loop, and the chain still makes the reference loop's moves."""
        from ergmkit.terms import _MAX_CLASSES
        n = _MAX_CLASSES + 3
        attrs = grp_attrs(n)
        attrs.add("id", [f"v{v:02d}" for v in range(n)])
        start = Network(n)
        model = bind(formula, start, attrs)
        assert model.class_table(start)[:2] == (0, 0)
        coefs = [0.1 * (k % 7) - 0.3 for k in range(model.p)]
        coefs[0] = -1.1
        runs = []
        for bound in (True, False):
            net = start.copy()
            rng = random.Random(5)
            if bound:
                draws = run_chain(net, model, coefs, TntProposal(),
                                  SamplerConfig(samplesize=60, interval=7),
                                  rng=rng).values
            else:
                draws = reference_chain(net, model, coefs, TntProposal(), 0,
                                        60, 7, rng)
            runs.append((draws.view(np.uint64).tolist(), list(net.edges),
                         rng.getstate()))
        assert runs[0] == runs[1]

    def test_class_table_built_once_per_model(self, monkeypatch):
        """Binding a model builds no class table; the first Chain builds
        it and every later Chain and kernel reuses it."""
        from ergmkit.terms import BoundModel
        built = []
        tabulate = BoundModel._tabulate

        def spy(self, net):
            built.append(net)
            return tabulate(self, net)

        monkeypatch.setattr(BoundModel, "_tabulate", spy)
        net = Network(12)
        model = bind('edges + nodematch("grp", diff=true) + triangle', net,
                     grp_attrs(12))
        assert built == []
        for seed in (1, 2):
            chain = Chain(net.copy(), model, TntProposal(), None,
                          random.Random(seed))
            chain.kernel([-0.5, 0.2, 0.3, 0.1])([0.0] * 4, 50)
        assert len(built) == 1

    def test_class_pair_tilt_summed_on_first_use(self, monkeypatch):
        """A kernel sums a class pair's tilt on the first step that
        draws a dyad of that pair, not at bind: binding sums none, one
        step sums one, and a long run at most one per pair."""
        from ergmkit import sampler
        from ergmkit.terms import _MAX_CLASSES
        summed = []
        run_tilt = sampler._run_tilt

        def spy(coefs, row):
            summed.append(row)
            return run_tilt(coefs, row)

        monkeypatch.setattr(sampler, "_run_tilt", spy)
        n = 40
        attrs = grp_attrs(n)
        attrs.add("id", [f"v{v % _MAX_CLASSES:02d}" for v in range(n)])
        net = Network(n)
        model = bind('edges + nodefactor("id") + triangle', net, attrs)
        C = len(model.class_table(net)[3])
        assert C == _MAX_CLASSES
        coefs = [-1.0] + [0.05 * k for k in range(model.p - 1)]
        step = Chain(net, model, TntProposal(), None,
                     random.Random(4)).kernel(coefs)
        assert summed == []
        stats = step([0.0] * model.p)
        assert len(summed) == 1
        step(stats, 3000)
        assert C < len(summed) <= C * C

    def test_readme_offset_model_reads_class_table(self, monkeypatch):
        """The README's san and mple model, edges with nodematch("sex")
        and concurrent offsets at -inf, takes the one tilt path: under
        TNT the kernel reads the infinite nodematch column from the
        class-pair memo, summing at most C * C tilts over 2000 steps,
        and the chain makes the reference loop's moves draw for draw."""
        from ergmkit import sampler
        summed = []
        run_tilt = sampler._run_tilt

        def spy(coefs, row):
            summed.append(row)
            return run_tilt(coefs, row)

        monkeypatch.setattr(sampler, "_run_tilt", spy)
        n = 30
        attrs = grp_attrs(n)
        start = Network(n)
        script = random.Random(11)
        for _ in range(25):
            i, j = start.dyad_at(script.randrange(start.dyad_count()))
            if not start.has_edge(i, j):
                start.toggle(i, j)
        model = bind('edges + offset(nodematch("sex")) + offset(concurrent)',
                     start, attrs)
        k, width, _, rows = model.class_table(start)
        assert (k, width, len(rows)) == (2, 2, 2)
        coefs = [-1.0, -math.inf, -math.inf]
        runs = []
        for bound in (True, False):
            net = start.copy()
            rng = random.Random(6)
            if bound:
                draws = run_chain(net, model, coefs, TntProposal(),
                                  SamplerConfig(samplesize=100, interval=20),
                                  rng=rng).values
                assert 1 <= len(summed) <= len(rows) ** 2
            else:
                draws = reference_chain(net, model, coefs, TntProposal(), 0,
                                        100, 20, rng)
            runs.append((draws.view(np.uint64).tolist(), list(net.edges),
                         rng.getstate()))
        assert runs[0] == runs[1]
        # -inf forbids every same-sex add
        added = set(net.edges) - set(start.edges)
        assert added and all(i % 2 != j % 2 for i, j in added)

    @pytest.mark.parametrize("kind, text", [
        ("directed", 'bd(maxout=2, maxin=1) + blocks(attr="sex", levels2=diag)'),
        ("directed", "bd(maxin=1)"),
        ("bipartite", "bd(maxout=2)"),
        ("undirected", 'bd(maxout=2) + blocks(attr="sex", levels2=diag)')])
    def test_inline_rule_is_checker_allowed(self, kind, text):
        """The step's bound constraint rule moves exactly the dyads that
        ConstraintChecker.allowed admits, from every state it meets, and
        a rejection by the rule consumes no random number.  At a zero
        coefficient every admitted toggle is accepted outright."""
        n = 7
        net = Network(n, directed=kind == "directed",
                      bipartite=3 if kind == "bipartite" else 0)
        spec = parse_constraint_formula(text)
        checker = ConstraintChecker(net, spec, grp_attrs(n))
        script = random.Random(0)
        dyads = [net.dyad_at(k) for k in range(net.dyad_count())]
        proposed = []

        class Scripted:
            """Random dyads, each recorded with allowed's verdict."""

            def bind(self, net, rng):
                def draw():
                    i, j = script.choice(dyads)
                    proposed.append((i, j, checker.allowed(net, i, j)))
                    return i, j, 0.0
                return draw, None

        def blocked(i, j):
            if checker.blocked is None:
                return False
            level = checker.block_level
            return checker.forbid[level[i]][level[j]]

        rng = random.Random(1)
        state = rng.getstate()
        step = Chain(net, bind("edges", net), Scripted(), checker,
                     rng).kernel([0.0])
        stats, refused = [0.0], Counter()
        for _ in range(3000):
            new = step(stats)
            i, j, admitted = proposed[-1]
            assert (new is not stats) == admitted
            if new is stats:
                refused["block" if blocked(i, j) else "cap"] += 1
            stats = new
        assert rng.getstate() == state
        assert refused["cap"] > 100
        if checker.blocked is not None:
            assert refused["block"] > 100

    @given(coefs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
           delta=st.lists(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
                          min_size=5, max_size=5),
           log_q=st.sampled_from([0.0, -0.25, 0.7]),
           infinite=st.one_of(st.none(), st.tuples(
               st.integers(0, 4), st.sampled_from([math.inf, -math.inf]))))
    @settings(max_examples=300, deadline=None)
    def test_finite_tilt_is_log_tilt(self, coefs, delta, log_q, infinite):
        """The step's log acceptance ratio is _log_tilt's plus log_q, bit
        for bit, adding and removing, summed by the step itself whether
        or not a coefficient is infinite; a NaN sum meets the
        assertions of _log_tilt's -inf.  The step's exp sees it whenever
        the move is neither accepted outright nor certainly rejected."""
        _check_step_tilt(coefs, delta, log_q, infinite, width=0)

    @given(coefs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
           delta=st.lists(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
                          min_size=5, max_size=5),
           log_q=st.sampled_from([0.0, -0.25, 0.7]),
           infinite=st.one_of(st.none(), st.tuples(
               st.integers(0, 4), st.sampled_from([math.inf, -math.inf]))),
           width=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_prefix_tilt_is_log_tilt(self, coefs, delta, log_q, infinite,
                                     width):
        """As above, with the first `width` columns read from a class
        table: its tilt, continued over the remaining columns, is still
        _log_tilt's bit for bit, an infinite coefficient in the table's
        columns or after them included."""
        _check_step_tilt(coefs, delta, log_q, infinite,
                         width=min(width, len(coefs)))

    @pytest.mark.parametrize("constraints", [
        "tnt + bd(maxout=2)", 'bd(maxout=2) + blocks(attr="sex", levels2=diag)'],
        ids=["tnt-checker", "bdstrat"])
    def test_advance_in_chunks_is_one_step_at_a_time(self, constraints):
        """advance(stats, k) makes the moves of k one-step calls, and
        advance(stats, 0) returns stats itself and touches nothing: not
        the RNG, the network or the proposal's state."""
        attrs = grp_attrs(12)
        spec = parse_constraint_formula(constraints)
        model = bind("edges + triangle + concurrent", Network(12), attrs)
        runs = []
        for chunked in (True, False):
            net = Network(12)
            proposal, checker = make_proposal(net, spec, attrs)
            rng = random.Random(5)
            advance = Chain(net, model, proposal, checker,
                            rng).kernel([-0.5, 0.3, 0.2])

            def state():
                return (rng.getstate(), list(net.edges),
                        [list(a) for a in net.adj],
                        proposal.snapshot() if checker is None else None)

            stats, seen = [0.0] * 3, []
            schedule = random.Random(6)
            for _ in range(60):
                k = schedule.randint(0, 40)
                if chunked:
                    before = state()
                    assert advance(stats, 0) is stats
                    assert state() == before
                    stats = advance(stats, k)
                else:
                    for _ in range(k):
                        stats = advance(stats)
                seen.append(stats)
            runs.append((seen, list(net.edges), rng.getstate()))
        assert runs[0] == runs[1]
        assert stats == [x - y for x, y in zip(model.summary(net),
                                                model.summary(Network(12)))]

    @pytest.mark.parametrize("kind", ["undirected", "directed", "bipartite"])
    @pytest.mark.parametrize("proposal", [TntProposal, UniformProposal])
    def test_plain_proposals_draw_and_flip_inline(self, monkeypatch, kind,
                                                  proposal):
        """TNT and uniform chains draw and flip in the step itself: they
        make no call to Network.toggle, Network.dyad_at or the
        proposal's bound draw."""
        def refuse(*args):
            raise AssertionError("per-call path taken")

        bind_plain = proposal.bind

        def bind_refusing(self, net, rng):
            return refuse, bind_plain(self, net, rng)[1]

        monkeypatch.setattr(Network, "toggle", refuse)
        monkeypatch.setattr(Network, "dyad_at", refuse)
        monkeypatch.setattr(proposal, "bind", bind_refusing)
        net = Network(9, directed=kind == "directed",
                      bipartite=4 if kind == "bipartite" else 0)
        model = bind("edges", net)
        stats = Chain(net, model, proposal(), None,
                      random.Random(8)).kernel([0.0])([0.0], 300)
        assert 0 < net.edge_count == stats[0]
        net.check_consistency()

    def test_nan_coefficient_rejected(self):
        net = Network(5)
        model = bind("edges + triangle", net)
        with pytest.raises(DataError, match="NaN"):
            run_chain(net, model, [0.1, math.nan], TntProposal(),
                      SamplerConfig(samplesize=3))
        with pytest.raises(DataError, match="coefficients"):
            Chain(net, model, TntProposal(), None,
                  random.Random(0)).kernel([0.1])


def bdstrat_chain_digest(net, proposal, draws, rng):
    """SHA-256 over a BDStratTNT chain's draws (float64 bytes) and every
    order-bearing piece of state it leaves: the edge list and its
    position map, the adjacency-set iteration order, the proposal's
    lists, its canonical snapshot, the active weight's repr and the RNG
    state."""
    snap = proposal.snapshot()
    for key in ("unsat", "cell_edges"):
        snap[key] = [sorted(x) for x in snap[key]]
    # the digests were pinned with the snapshot's weight rounded to 12
    # places; its exact repr enters below
    snap["active_weight"] = round(snap["active_weight"], 12)
    h = hashlib.sha256(np.ascontiguousarray(draws, dtype=np.float64).tobytes())
    h.update(repr((list(net.edges), list(net._edge_pos.items()),
                   [list(a) for a in net.adj], proposal.unsat,
                   proposal.cell_edges, snap, repr(proposal.active_weight),
                   rng.getstate())).encode())
    return h.hexdigest()[:16]


class TestBDStratChainPinned:
    """Seeded BDStratTNT chains keep their bytes.  The digests were
    recorded with an earlier implementation of the proposal, one method
    per piece, the first two again when the draw became read-only.  The
    reference step in helpers binds the same ``draw`` and ``commit``
    closures as the chain, once per step, so it cannot catch a change
    to them."""

    @staticmethod
    def race_attrs(n):
        attrs = grp_attrs(n)
        attrs.add("race", [["A", "B", "C"][(v * 5 + v // 3) % 3] for v in range(n)])
        return attrs

    @pytest.mark.parametrize("n, text, pmat, formula, coefs, seed, want", [
        (14, 'bd(maxout=1) + blocks(attr="sex", levels2=diag) + strat(attr="race")',
         [[1.0, 0.5, 0.2], [0.5, 0.8, 0.1], [0.2, 0.1, 0.6]],
         'edges + nodematch("race")', [-0.4, 0.9], 701, "ff64b90403f8addc"),
        (16, 'bd(maxout=2) + strat(attr="race")', None,
         "edges + gwesp(decay=0.5, fixed=true)", [-1.0, 0.4], 702, "58600d53cb85fbae"),
        # test_proposals' stratum-emptied case: the X-X edge saturates
        # both X vertices and empties the X-Y stratum, so a D crosses
        # zero, and often back, inside one commit
        (6, 'bd(maxout=1) + strat(attr="grp") + blocks(attr="sex", levels2=diag)',
         [[1.0, 0.6], [0.6, 0.0]], "edges", [0.6], 703, "6bdbf9368e9420df"),
    ], ids=["bd1-blocks-strat-pmat", "bd2-strat-gwesp", "stratum-emptied"])
    def test_run_chain_digest(self, n, text, pmat, formula, coefs, seed, want):
        attrs = self.race_attrs(n)
        spec = parse_constraint_formula(text)
        spec.strat_pmat = pmat
        net = Network(n)
        model = bind(formula, net, attrs)
        proposal, checker = make_proposal(net, spec, attrs)
        assert isinstance(proposal, BDStratTNT) and checker is None
        rng = random.Random(seed)
        cfg = SamplerConfig(samplesize=300, burnin=200, interval=7)
        draws = run_chain(net, model, coefs, proposal, cfg, rng=rng).values
        assert bdstrat_chain_digest(net, proposal, draws, rng) == want


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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        net = Network(6)
        model = bind("edges", net)
        with pytest.raises(DataError):
            sample_chains(net, model, [0.2], SamplerConfig(samplesize=4),
                          workers=workers)


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

    def test_directed_maxin_through_make_proposal(self):
        # BDStratTNT is undirected only: make_proposal falls back to TNT
        # with a checker, which must target the constrained law
        n = 4
        attrs = grp_attrs(n)
        spec = parse_constraint_formula("bd(maxin=1)")
        theta = (0.4, -0.3)
        formula = 'edges + nodematch("grp")'

        def keep(net):
            return max(net.in_deg) <= 1

        exact, count = exact_moments(n, formula, attrs, theta, keep=keep,
                                     directed=True)
        assert count == 4 ** 4
        net = Network(n, directed=True)
        model = bind(formula, net, attrs)
        prop, checker = make_proposal(net, spec, attrs)
        assert isinstance(prop, TntProposal) and checker is not None
        cfg = SamplerConfig(samplesize=150_000, burnin=1000, interval=1, seed=24)
        sm = run_chain(net, model, list(theta), prop, cfg, checker=checker)
        assert max(net.in_deg) <= 1
        for k in range(2):
            se = batch_means_se(sm.values[:, k])
            assert abs(sm.values[:, k].mean() - exact[k]) < 3 * se


class TestAdaptive:
    def test_fast_mixing_terminates(self):
        net = Network(10)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=256, interval=8, seed=31, target_ess=100)
        sm, diag = adaptive_run(
            Chain(net, model, TntProposal(), None, random.Random(cfg.seed)),
            [0.0], cfg)
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
        sm, diag = adaptive_run(
            Chain(net, model, TntProposal(), None, random.Random(cfg.seed)),
            [0.3], cfg)
        assert diag.thinning_events >= 1
        assert sm.S <= 2 * 128

    def test_target_ess_64(self):
        net = Network(10)
        model = bind("edges + triangle", net)
        cfg = SamplerConfig(samplesize=128, interval=4, seed=33, target_ess=64)
        sm, diag = adaptive_run(
            Chain(net, model, TntProposal(), None, random.Random(cfg.seed)),
            [math.log(2), 0.0], cfg)
        assert diag.converged and diag.ess >= 64

    @pytest.mark.parametrize("samplesize, max_rounds", [(10, 40), (40, 12)])
    def test_small_samplesize_converges(self, samplesize, max_rounds):
        # thinning keeps room for the two-window test's 80 draws, so a
        # small nominal size does not end every round too short
        net = Network(24)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=samplesize, interval=10, burnin=60,
                            seed=4, target_ess=50, max_rounds=max_rounds)
        sm, diag = adaptive_run(
            Chain(net, model, TntProposal(), None, random.Random(cfg.seed)),
            [-1.5], cfg)
        assert diag.converged and diag.ess >= 50
        assert sm.S >= 80

    def test_nonconvergence_flagged(self):
        net = Network(10)
        model = bind("edges", net)
        cfg = SamplerConfig(samplesize=64, interval=1, seed=34,
                            target_ess=1e7, max_rounds=3)
        sm, diag = adaptive_run(
            Chain(net, model, TntProposal(), None, random.Random(cfg.seed)),
            [0.0], cfg)
        assert not diag.converged
        assert diag.rounds == 3

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_max_rounds_must_be_positive(self, max_rounds):
        # with no round adaptive_run returned a (0, 1) sample for a p=2
        # model, without an error
        with pytest.raises(DataError, match="max_rounds"):
            SamplerConfig(samplesize=64, target_ess=50, max_rounds=max_rounds)
