"""Term catalog: summaries, change scores, incremental maintenance.

The master oracle: for every term and dyad, the change score must equal
the difference of two full summaries (with the dyad present vs absent),
exactly for integer-valued terms and to 1e-12 for real-valued ones.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import change_score, random_dyad
from ergmkit.errors import DataError
from ergmkit.network import Network, VertexAttributes
from ergmkit.terms import bind

UNDIRECTED_FORMULA = ('edges + triangle + nodematch("grp") + nodematch("grp", diff=true)'
                      ' + nodefactor("grp") + nodecov("age") + absdiff("age")'
                      ' + concurrent + degree(2) + gwdegree(0.5, fixed=true)'
                      ' + gwesp(0.25, fixed=true)')
DIRECTED_FORMULA = ('edges + triangle + nodematch("grp") + nodefactor("grp", levels=[1])'
                    ' + nodecov("age") + absdiff("age")')


def make_attrs(n, seed=0):
    rng = random.Random(seed)
    attrs = VertexAttributes(n)
    attrs.add("grp", [rng.choice(["A", "B", "C"]) for _ in range(n)])
    attrs.add("age", [round(rng.uniform(18, 60), 2) for _ in range(n)])
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    return attrs


def random_net(n, directed=False, density=0.35, seed=0, bipartite=0):
    rng = random.Random(seed)
    net = Network(n, directed=directed, bipartite=bipartite)
    for k in range(net.dyad_count()):
        if rng.random() < density:
            net.toggle(*net.dyad_at(k))
    return net


def brute_force_change(net, model, i, j):
    """Two full summaries: g(y with edge) - g(y without edge)."""
    had = net.has_edge(i, j)
    if not had:
        net.toggle(i, j)
    g_with = model.summary(net)
    net.toggle(i, j)
    g_without = model.summary(net)
    if had:
        net.toggle(i, j)
    return [a - b for a, b in zip(g_with, g_without)]


class TestSummaries:
    def test_empty(self):
        net = Network(6)
        model = bind("edges + triangle", net)
        assert model.summary(net) == [0.0, 0.0]

    def test_complete_k4(self):
        net = Network(4)
        for k in range(6):
            net.toggle(*net.dyad_at(k))
        model = bind("edges + triangle", net)
        assert model.summary(net) == [6.0, 4.0]

    def test_monogamous_heterosexual_summary(self):
        # Constructed 100-node network: 30 disjoint cross-sex edges.
        net = Network(100)
        attrs = make_attrs(100)
        for k in range(30):
            net.toggle(2 * k, 2 * k + 1)  # even ids are M, odd are F
        model = bind('edges + nodematch("sex") + concurrent', net, attrs)
        assert model.summary(net) == [30.0, 0.0, 0.0]

    def test_k4_minus_edge_triangles(self):
        net = Network(4)
        for k in range(6):
            net.toggle(*net.dyad_at(k))
        model = bind("edges + triangle", net)
        delta = change_score(model, net)(0, 1)
        assert delta == [1.0, 2.0]
        stats = [c - d for c, d in zip([6.0, 4.0], delta)]
        assert stats == [5.0, 2.0]
        net.toggle(0, 1)
        assert model.summary(net) == stats


class TestChangeScores:
    def test_edges_always_one(self):
        net = random_net(6, seed=3)
        change = change_score(bind("edges", net), net)
        for k in range(net.dyad_count()):
            assert change(*net.dyad_at(k)) == [1.0]

    def test_triangle_is_common_neighbors(self):
        net = random_net(7, seed=4)
        change = change_score(bind("triangle", net), net)
        for k in range(net.dyad_count()):
            i, j = net.dyad_at(k)
            cn = len(net.adj[i] & net.adj[j])
            assert change(i, j) == [float(cn)]

    @pytest.mark.parametrize("seed", range(6))
    def test_brute_force_undirected(self, seed):
        n = random.Random(seed).randint(4, 8)
        net = random_net(n, density=0.45, seed=seed)
        model = bind(UNDIRECTED_FORMULA, net, make_attrs(n, seed))
        int_mask = [not name.startswith(("gwdegree", "gwesp", "nodecov", "absdiff"))
                    for name in model.names]
        change = change_score(model, net)
        for k in range(net.dyad_count()):
            i, j = net.dyad_at(k)
            fast = change(i, j)
            slow = brute_force_change(net, model, i, j)
            for f, s, is_int in zip(fast, slow, int_mask):
                if is_int:
                    assert f == s
                else:
                    assert abs(f - s) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_brute_force_directed(self, seed):
        n = random.Random(100 + seed).randint(4, 7)
        net = random_net(n, directed=True, density=0.4, seed=seed)
        model = bind(DIRECTED_FORMULA, net, make_attrs(n, seed))
        change = change_score(model, net)
        for k in range(net.dyad_count()):
            i, j = net.dyad_at(k)
            fast = change(i, j)
            slow = brute_force_change(net, model, i, j)
            assert all(abs(f - s) < 1e-12 for f, s in zip(fast, slow))

    @pytest.mark.parametrize("seed", range(4))
    def test_brute_force_bipartite(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(4, 8)
        net = random_net(n, density=0.5, seed=seed,
                         bipartite=rng.randint(1, n - 1))
        model = bind(UNDIRECTED_FORMULA, net, make_attrs(n, seed))
        change = change_score(model, net)
        for k in range(net.dyad_count()):
            i, j = net.dyad_at(k)
            fast = change(i, j)
            slow = brute_force_change(net, model, i, j)
            assert all(abs(f - s) < 1e-12 for f, s in zip(fast, slow))

    def test_state_independence(self):
        net = random_net(6, seed=8)
        model = bind(UNDIRECTED_FORMULA, net, make_attrs(6, 8))
        change = change_score(model, net)
        i, j = 1, 4
        before = change(i, j)
        net.toggle(i, j)
        after = change(i, j)
        assert all(abs(a - b) < 1e-12 for a, b in zip(before, after))


class TestBlockChanges:
    """The change closures bound per chain against the block rows, bit
    for bit, and against the brute-force oracle where they are the
    block path too."""

    @given(kind=st.sampled_from(["undirected", "directed", "bipartite"]),
           n=st.integers(2, 12), density=st.floats(0.0, 0.8),
           cuts=st.sets(st.integers(1, 11)), seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_change(self, kind, n, density, cuts, seed):
        net = random_net(n, directed=kind == "directed", density=density,
                         seed=seed,
                         bipartite=seed % (n - 1) + 1 if kind == "bipartite" else 0)
        formula = DIRECTED_FORMULA if kind == "directed" else UNDIRECTED_FORMULA
        rng = random.Random(seed)
        attrs = VertexAttributes(n)
        attrs.add("grp", rng.sample(["ABC"[v % 3] for v in range(n)], n))
        attrs.add("age", [rng.choice([-0.5, 0.1, 0.2, 18.3, 1e9])
                          for _ in range(n)])
        model = bind(formula, net, attrs)
        bound = model.change_functions(net)
        # the shared-partner terms' block rows call their closures, so
        # the brute-force summary difference is their oracle instead
        shared = [name.startswith(("triangle", "gwesp")) for name in model.names]
        for t in model._terms:
            if hasattr(t, "_powers"):   # Python float power, not np.power
                assert [x.hex() for x in t._powers(n)] == \
                    [(t.u ** k).hex() for k in range(n)]

        def closure(i, j):
            got = []
            for f in bound:
                got += f(i, j, net.has_edge(i, j))
            assert all(type(x) is float for x in got)
            return got

        def block_rows(tails, heads):
            return model.changes(net, tails, heads,
                                 net.edge_mask(tails, heads)).tolist()

        rows = {"undirected": n - 1, "directed": n, "bipartite": net.bipartite}[kind]
        bounds = [0] + sorted(c for c in cuts if c < rows) + [rows]
        for sweep in range(2):
            if sweep:   # the closures read the live network they were bound to
                for _ in range(rng.randint(1, 2 * n)):
                    net.toggle(*net.dyad_at(rng.randrange(net.dyad_count())))
            for r0, r1 in zip(bounds, bounds[1:]):
                tails, heads = net.dyad_rows(r0, r1)
                pairs = list(zip(tails.tolist(), heads.tolist()))
                for (i, j), row in zip(pairs, block_rows(tails, heads)):
                    assert [x.hex() for x in closure(i, j)] == \
                        [x.hex() for x in row]
                # the dyad in its other state: the block row recomputed
                # there, exact brute force for triangle, 1e-12 for gwesp
                for k, (i, j) in enumerate(pairs):
                    net.toggle(i, j)
                    got = closure(i, j)
                    row = block_rows(tails, heads)[k]
                    slow = brute_force_change(net, model, i, j)
                    for c, name in enumerate(model.names):
                        if not shared[c]:
                            assert got[c].hex() == row[c].hex(), name
                        elif name == "triangle":
                            assert got[c] == slow[c]
                        else:
                            assert abs(got[c] - slow[c]) < 1e-12
                    net.toggle(i, j)
        # a dyad-independent statistic is the sum of its change scores
        # over the edges
        scores = [closure(i, j) for i, j in net.edges]
        got = model.summary(net)
        for k, independent in enumerate(model.dyad_independent_mask):
            if independent:
                want = math.fsum(row[k] for row in scores)
                assert got[k].hex() == want.hex(), model.names[k]

    def test_disjoint_and_low_degree_dyads(self):
        """The shared constant change scores: triangle and gwesp on dyads
        without a shared partner, concurrent and degree on every
        degree pattern from -2 to 2, against the block rows bit for bit
        and the brute-force summary difference."""
        net = Network(9)
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (6, 7)]:
            net.toggle(i, j)
        model = bind("triangle + gwesp(0.25, fixed=true) + concurrent"
                     " + degree(0) + degree(1) + degree(2)", net)
        change = change_score(model, net)
        seen = [set() for _ in model.names]
        for k in range(net.dyad_count()):
            i, j = net.dyad_at(k)
            for _ in range(2):      # the dyad in both states
                tails, heads = net.dyad_rows(0, net.n - 1)
                rows = model.changes(net, tails, heads,
                                     net.edge_mask(tails, heads)).tolist()
                got = change(i, j)
                assert [x.hex() for x in got] == [x.hex() for x in rows[k]]
                slow = brute_force_change(net, model, i, j)
                assert got[0] == slow[0] and got[2:] == slow[2:]
                assert abs(got[1] - slow[1]) < 1e-12
                for c, x in enumerate(got):
                    seen[c].add(x)
                net.toggle(i, j)
        assert seen[0] == {0.0, 1.0} and 0.0 in seen[1]
        assert seen[2] == {0.0, 1.0, 2.0}
        assert seen[4] == {-2.0, -1.0, 0.0, 1.0, 2.0}

    def test_nodematch_diff_shared_rows(self):
        """nodematch(diff=true) returns one shared one-hot row per level
        and one shared zero row, equal to the block rows bit for bit and
        to the brute-force summary difference."""
        net = random_net(9, density=0.3, seed=7)
        attrs = make_attrs(9, 3)
        model = bind('nodematch("grp", diff=true)', net, attrs)
        f, = model.change_functions(net)
        _, lev = attrs.categorical("grp")
        rows_by_level, zeros = {}, set()
        tails, heads = net.dyad_rows(0, net.n - 1)
        for k in range(net.dyad_count()):
            i, j = net.dyad_at(k)
            for _ in range(2):      # the dyad in both states
                rows = model.changes(net, tails, heads,
                                     net.edge_mask(tails, heads)).tolist()
                got = f(i, j, net.has_edge(i, j))
                assert [x.hex() for x in got] == [x.hex() for x in rows[k]]
                assert got == brute_force_change(net, model, i, j)
                if lev[i] == lev[j]:
                    assert rows_by_level.setdefault(lev[i], got) is got
                else:
                    zeros.add(id(got))
                net.toggle(i, j)
        assert len(rows_by_level) == 3 and len(zeros) == 1
        for level, row in rows_by_level.items():
            assert row == [float(x == level) for x in range(3)]

    def test_nodematch_diff_and_nodefactor_levels(self):
        net = random_net(9, density=0.3, seed=5)
        model = bind('nodematch("grp", diff=true) + nodefactor("grp", levels=[1, 3])',
                     net, make_attrs(9, 5))
        tails, heads = net.dyad_rows(0, 8)
        block = model.changes(net, tails, heads, net.edge_mask(tails, heads))
        change = change_score(model, net)
        assert block.tolist() == [change(i, j) for i, j in net.dyads()]


class TestClassTable:
    """The leading run of tabular terms read from one class table:
    every dyad's row is its run closures' scores, bit for bit."""

    # formula, network kinds, terms in the leading run
    CASES = [
        ('edges + nodematch("grp") + nodematch("grp", diff=true)'
         ' + nodefactor("grp") + nodefactor("sex", levels=[1])', "any", 5),
        ('nodefactor("grp", levels=[-2]) + nodematch("sex", diff=true)'
         ' + triangle + edges', "any", 2),
        ('edges + nodematch("sex") + nodecov("age") + nodefactor("grp")',
         "any", 2),
        ('nodematch("grp", diff=true) + absdiff("age") + edges', "any", 1),
        ('nodefactor("grp") + edges + gwesp(0.25, fixed=true)',
         "undirected", 2),
        ('triangle + edges + nodematch("grp")', "any", 0),
    ]

    @given(case=st.integers(0, len(CASES) - 1),
           kind=st.sampled_from(["undirected", "directed", "bipartite"]),
           n=st.integers(3, 12), density=st.floats(0.0, 0.8),
           seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_run_closures(self, case, kind, n, density, seed):
        formula, kinds, run = self.CASES[case]
        if kinds == "undirected" and kind != "undirected":
            kind = "undirected"
        net = random_net(n, directed=kind == "directed", density=density,
                         seed=seed,
                         bipartite=seed % (n - 1) + 1 if kind == "bipartite" else 0)
        attrs = make_attrs(n, seed)
        # every grp level present, so that nodefactor keeps one
        attrs.add("grp", random.Random(seed).sample(
            ["ABC"[v % 3] for v in range(n)], n))
        model = bind(formula, net, attrs)
        k, width, classes, rows = model.class_table(net)
        assert k == run
        assert width == sum(t.dim for t in model._terms[:run])
        assert len(classes) == n and len(rows) == max(classes) + 1
        bound = model.change_functions(net)[:k]
        for d in range(net.dyad_count()):
            i, j = net.dyad_at(d)
            want = []
            for f in bound:
                want += f(i, j, net.has_edge(i, j))
            assert [x.hex() for x in rows[classes[i]][classes[j]]] == \
                [x.hex() for x in want]
        # one table per model, whatever network it is asked on
        assert model.class_table(net.copy()) is model.class_table(net)

    def test_class_bound(self):
        """Up to the bound the run is tabulated; above it the run is
        empty: one class and one empty row."""
        from ergmkit.terms import _MAX_CLASSES
        for levels, run in ((_MAX_CLASSES, 2), (_MAX_CLASSES + 1, 0)):
            n = 2 * levels
            net = Network(n)
            attrs = VertexAttributes(n)
            attrs.add("id", [f"v{v % levels:02d}" for v in range(n)])
            model = bind('edges + nodematch("id") + triangle', net, attrs)
            k, width, classes, rows = model.class_table(net)
            assert (k, width) == (run, run)
            if run:
                assert len(rows) == levels
            else:
                assert classes == [0] * n and rows == [[[]]]


class TestIncremental:
    def test_replay_long_run(self):
        # Random toggles with incremental updates stay exact for integer
        # terms and within 1e-9 drift for real ones.
        rng = random.Random(17)
        n = 12
        net = random_net(n, density=0.2, seed=17)
        model = bind(UNDIRECTED_FORMULA, net, make_attrs(n, 17))
        int_mask = [not name.startswith(("gwdegree", "gwesp", "nodecov", "absdiff"))
                    for name in model.names]
        stats = model.summary(net)
        change = change_score(model, net)
        for _ in range(100_000):
            i, j = random_dyad(net, rng)
            delta = change(i, j)
            adding = net.toggle(i, j)
            stats = [c + d if adding else c - d for c, d in zip(stats, delta)]
        exact = model.summary(net)
        for got, want, is_int in zip(stats, exact, int_mask):
            if is_int:
                assert got == want
            else:
                assert abs(got - want) <= 1e-9


class TestBinding:
    def test_missing_attribute(self):
        net = Network(5)
        with pytest.raises(DataError):
            bind('nodematch("race")', net, VertexAttributes(5))

    def test_free_decay_rejected(self):
        net = Network(5)
        with pytest.raises(DataError):
            bind("gwesp(0.25, fixed=false)", net)

    def test_directed_only_terms_rejected(self):
        net = Network(5, directed=True)
        for f in ("concurrent", "degree(2)", "gwdegree(0.5)", "gwesp(0.5)"):
            with pytest.raises(DataError):
                bind(f, net)

    def test_names(self):
        net = Network(6)
        attrs = make_attrs(6)
        model = bind('edges + nodematch("grp", diff=true) + nodefactor("grp")'
                     ' + gwesp(0.25, fixed=true)', net, attrs)
        assert model.names[0] == "edges"
        assert "nodematch.grp.A" in model.names
        assert "nodefactor.grp.B" in model.names  # first level A dropped
        assert "nodefactor.grp.A" not in model.names
        assert model.names[-1] == "gwesp.fixed.0.25"

    def test_nodefactor_levels(self):
        net = Network(6)
        attrs = make_attrs(6)
        keep_third = bind('nodefactor("grp", levels=[3])', net, attrs)
        assert keep_third.names == ["nodefactor.grp.C"]
        drop_last = bind('nodefactor("grp", levels=[-3])', net, attrs)
        assert drop_last.names == ["nodefactor.grp.A", "nodefactor.grp.B"]

    def test_assemble_coefs(self):
        net = Network(6)
        attrs = make_attrs(6)
        model = bind('edges + offset(nodematch("sex")) + offset(concurrent)',
                     net, attrs)
        coefs = model.assemble_coefs([0.5], [-math.inf, -math.inf])
        assert coefs[0] == 0.5
        assert coefs[1] == -math.inf and coefs[2] == -math.inf
