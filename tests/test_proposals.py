"""Proposal distributions: mixtures, constraint safety, state maintenance."""

import hashlib
import math
import random
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import CheckedProposal
from ergmkit.errors import ConstraintError, DataError, FrozenStateError
from ergmkit.formula import ConstraintSpec, parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import (BDStratTNT, ConstraintChecker, TntProposal,
                               UniformProposal, _below, make_proposal)


def alternating_sex(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(n)])
    return attrs


def hetero_monogamy():
    return parse_constraint_formula('bd(maxout=1) + blocks(attr="sex", levels2=diag)')


class TestBelow:
    def test_same_stream_as_randrange(self):
        # the proposals' integer draws must reproduce randrange on this
        # interpreter: same values, same final generator state
        sizes = {1, 2, 3, 7, 1999000}
        sizes.update(2 ** k + d for k in range(1, 41) for d in (-1, 0, 1))
        for n in sorted(sizes):
            ours, ref = random.Random(n), random.Random(n)
            below = _below(ours)
            assert [below(n) for _ in range(3000)] == \
                [ref.randrange(n) for _ in range(3000)], n
            assert ours.getstate() == ref.getstate(), n

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_rejected(self, n):
        with pytest.raises(ValueError):
            _below(random.Random(0))(n)


class TestUniform:
    def test_each_dyad_equally(self):
        net = Network(4)
        draw, _ = UniformProposal().bind(net, random.Random(0))
        counts = Counter(draw()[:2] for _ in range(60_000))
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - 10_000) < 4 * math.sqrt(60_000 * (1 / 6) * (5 / 6))

    def test_bipartite_only_cross(self):
        net = Network(5, bipartite=2)
        draw, _ = UniformProposal().bind(net, random.Random(1))
        seen = {draw()[:2] for _ in range(2000)}
        assert len(seen) == 6
        assert all(i < 2 <= j for i, j in seen)

    def test_chi_square(self):
        from scipy import stats
        net = Network(6)
        draw, _ = UniformProposal().bind(net, random.Random(2))
        N = net.dyad_count()
        counts = Counter(draw()[:2] for _ in range(100_000))
        observed = [counts.get(net.dyad_at(k), 0) for k in range(N)]
        expected = 100_000 / N
        chi2 = sum((o - expected) ** 2 / expected for o in observed)
        assert stats.chi2.sf(chi2, N - 1) > 0.001


class TestTnt:
    def test_mixture_single_edge(self):
        # E=1, N=3: proposing the edge has probability 1/2 + 1/6 = 2/3.
        net = Network(3)
        net.toggle(0, 1)
        draw, _ = TntProposal().bind(net, random.Random(3))
        draws = 120_000
        hits = sum(draw()[:2] == (0, 1) for _ in range(draws))
        sigma = math.sqrt(draws * (2 / 3) * (1 / 3))
        assert abs(hits - draws * 2 / 3) < 4 * sigma

    def test_nonedge_mass_below_half(self):
        net = Network(5)
        net.toggle(0, 1)
        draw, _ = TntProposal().bind(net, random.Random(4))
        draws = 50_000
        nonedge = sum(not net.has_edge(*draw()[:2]) for _ in range(draws))
        assert nonedge < draws / 2

    def test_empirical_mixture(self):
        net = Network(5)
        for d in [(0, 1), (1, 2), (2, 3)]:
            net.toggle(*d)
        E, N = 3, net.dyad_count()
        draw, _ = TntProposal().bind(net, random.Random(5))
        draws = 1_000_000
        counts = Counter(draw()[:2] for _ in range(draws))
        for k in range(N):
            d = net.dyad_at(k)
            p = (0.5 / E + 0.5 / N) if net.has_edge(*d) else 0.5 / N
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(counts.get(d, 0) - draws * p) < 4 * sigma

    def test_q_ratio_values(self):
        net = Network(3)
        net.toggle(0, 1)
        draw, _ = TntProposal().bind(net, random.Random(6))
        E, N = 1, 3
        for _ in range(50):
            i, j, logq = draw()
            if net.has_edge(i, j):
                # removal from E=1: reverse re-adds from the empty state
                want = math.log((1.0 / N) / (0.5 / E + 0.5 / N))
            else:
                want = math.log((0.5 / 2 + 0.5 / N) / (0.5 / N))
            assert abs(logq - want) < 1e-12

    def test_memoised_q_ratio_is_closed_form(self):
        """The bound draw's log q-ratio, memoised per edge count, is the
        closed form bit for bit at E = 0, 1 and 2, also when the chain
        comes back down to an edge count it has visited."""
        net = Network(5)
        N = net.dyad_count()
        draw, _ = TntProposal().bind(net, random.Random(8))

        def closed_form(E, is_edge):
            if is_edge:
                q_fwd, q_rev = 0.5 / E + 0.5 / N, (0.5 / N if E > 1 else 1.0 / N)
            else:
                q_fwd = 0.5 / N if E else 1.0 / N
                q_rev = 0.5 / (E + 1) + 0.5 / N
            return math.log(q_rev / q_fwd)

        visited = Counter()
        for toggle in [None, (0, 1), (2, 3), (2, 3), (0, 1), (1, 4), (0, 2),
                       (0, 2), (1, 4)]:
            if toggle is not None:
                net.toggle(*toggle)
            E = net.edge_count
            for _ in range(100):
                i, j, log_q = draw()
                is_edge = net.has_edge(i, j)
                assert log_q.hex() == closed_form(E, is_edge).hex()
                visited[E, is_edge] += 1
        assert set(visited) == {(0, False), (1, False), (1, True),
                                (2, False), (2, True)}

    def test_empty_network_fallback(self):
        net = Network(4)
        draw, _ = TntProposal().bind(net, random.Random(7))
        N = net.dyad_count()
        i, j, logq = draw()
        assert not net.has_edge(i, j)
        want = math.log((0.5 + 0.5 / N) / (1.0 / N))
        assert abs(logq - want) < 1e-12


class TestConstraintChecker:
    def test_blocks_and_caps(self):
        net = Network(6)
        attrs = alternating_sex(6)
        checker = ConstraintChecker(net, hetero_monogamy(), attrs)
        assert not checker.allowed(net, 0, 2)   # same sex (M-M)
        assert checker.allowed(net, 0, 1)
        net.toggle(0, 1)
        assert not checker.allowed(net, 0, 3)   # vertex 0 saturated
        assert checker.allowed(net, 0, 1)       # removal always fine

    def test_validate_network(self):
        net = Network(6)
        net.toggle(0, 2)
        attrs = alternating_sex(6)
        checker = ConstraintChecker(net, hetero_monogamy(), attrs)
        with pytest.raises(ConstraintError):
            checker.validate_network(net)


def brute_force_eligible(net, state):
    """Recount eligible dyads per stratum straight from definitions."""
    counts = [0] * len(state.strata)
    caps = state.caps
    for k in range(net.dyad_count()):
        i, j = net.dyad_at(k)
        cell = state._cell_of_dyad(i, j)
        if cell is None:
            continue
        s = state.cell_stratum[cell]
        if state.weights[s] <= 0.0:
            continue
        if net.has_edge(i, j) or (net.deg[i] < caps[i] and net.deg[j] < caps[j]):
            counts[s] += 1
    return counts


class TestBDStratInit:
    def test_trivial_strata_all_eligible(self):
        net = Network(100)
        attrs = alternating_sex(100)
        state = BDStratTNT(net, hetero_monogamy(), attrs)
        # one M-F stratum class; all 50*50 cross dyads eligible
        assert sum(state.strat_D) == 2500
        assert state.strat_E == [0]

    def test_thirty_disjoint_edges(self):
        net = Network(100)
        attrs = alternating_sex(100)
        for k in range(30):
            net.toggle(2 * k, 2 * k + 1)
        state = BDStratTNT(net, hetero_monogamy(), attrs)
        assert brute_force_eligible(net, state) == state.strat_D
        # 30 disjoint edges saturate 60 vertices; 20 M and 20 F stay
        # unsaturated, so 400 addable cross pairs plus the 30 edges
        assert state.strat_D[0] == 20 * 20 + 30

    def test_zero_weight_strata_never_proposed(self):
        net = Network(12)
        attrs = alternating_sex(12)
        spec = ConstraintSpec(strat_attr=("grp",))
        spec.strat_pmat = [[1.0, 0.0], [0.0, 1.0]]   # forbid X-Y mixing
        draw, _ = BDStratTNT(net, spec, attrs).bind(net, random.Random(8))
        grp = attrs.columns["grp"]
        for _ in range(4000):
            i, j, _ = draw()
            assert grp[i] == grp[j]

    def test_strat_levels_from_several_attributes(self):
        # a vertex's stratum label joins its levels with "."; combinations
        # that join to the same label share a stratum, sorted by label
        a = ["x.y", "x", "x", "z", "10", "9"] * 2
        b = ["w", "y.w", "q", "w", "w", "w"] * 2
        attrs = VertexAttributes(12)
        attrs.add_categorical("a", a)
        attrs.add_categorical("b", b)
        state = BDStratTNT(Network(12), ConstraintSpec(strat_attr=("a", "b")),
                           attrs)
        labels = [f"{x}.{y}" for x, y in zip(a, b)]
        assert state.strat_levels == ["10.w", "9.w", "x.q", "x.y.w", "z.w"]
        assert [state.strat_levels[state.class_key[c][0]]
                for c in state.class_of] == labels

    def test_pmat_file_path_rejected(self):
        # a path left in strat_pmat would otherwise fall back to uniform
        # weights, and zero weights change the sample space
        spec = parse_constraint_formula('strat(attr="grp", pmat="pm.tsv")')
        with pytest.raises(DataError):
            make_proposal(Network(12), spec, alternating_sex(12))

    def test_violating_initial_network(self):
        net = Network(6)
        attrs = alternating_sex(6)
        net.toggle(0, 2)  # M-M edge
        with pytest.raises(ConstraintError):
            BDStratTNT(net, hetero_monogamy(), attrs)
        net2 = Network(6)
        net2.toggle(0, 1)
        net2.toggle(0, 3)  # degree 2 > cap
        with pytest.raises(ConstraintError):
            BDStratTNT(net2, parse_constraint_formula("bd(maxout=1)"), attrs)

    def test_empirical_weights(self):
        net = Network(12)
        attrs = alternating_sex(12)
        net.toggle(0, 3)   # X-X edge (0 and 3 are both X)
        spec = ConstraintSpec(strat_attr=("grp",), strat_empirical=True)
        state = BDStratTNT(net, spec, attrs)
        xx = state.strata.index((0, 0))
        assert state.weights[xx] == 1.0  # the only observed mixing type

    def test_empirical_on_empty_warns(self):
        net = Network(12)
        attrs = alternating_sex(12)
        spec = ConstraintSpec(strat_attr=("grp",), strat_empirical=True)
        with pytest.warns(UserWarning):
            state = BDStratTNT(net, spec, attrs)
        assert all(w > 0 for w in state.weights)

    def test_directed_rejected(self):
        net = Network(5, directed=True)
        with pytest.raises(DataError):
            BDStratTNT(net, parse_constraint_formula("bd(maxout=1)"), None)


class TestBDStratDynamics:
    def run_accepted_toggles(self, net, attrs, spec, steps, seed):
        state = BDStratTNT(net, spec, attrs)
        checker = ConstraintChecker(net, spec, attrs)
        rng = random.Random(seed)
        draw, commit = CheckedProposal(state, checker).bind(net, rng)
        for _ in range(steps):
            i, j, _ = draw()
            if rng.random() < 0.5:   # arbitrary acceptance; state must track
                commit(i, j, net.toggle(i, j))
        return state

    def test_rebuild_oracle(self):
        net = Network(30)
        attrs = alternating_sex(30)
        spec = parse_constraint_formula(
            'bd(maxout=2) + blocks(attr="sex", levels2=diag) + strat(attr="grp")')
        state = self.run_accepted_toggles(net, attrs, spec, 10_000, seed=9)
        fresh = BDStratTNT(net, spec, attrs)
        assert state.snapshot() == fresh.snapshot()
        assert brute_force_eligible(net, state) == state.strat_D

    def test_rebuild_with_an_edge_in_a_zero_weight_cell(self):
        # a start edge across groups sits in a cell that is never
        # proposed, but its endpoints' saturation still moves its count
        net = Network(12)
        attrs = alternating_sex(12)
        net.toggle(0, 1)                  # grp X - grp Y
        spec = parse_constraint_formula('bd(maxout=2) + strat(attr="grp")')
        spec.strat_pmat = [[1.0, 0.0], [0.0, 1.0]]
        state = BDStratTNT(net, spec, attrs)
        rng = random.Random(11)
        draw, commit = state.bind(net, rng)
        for _ in range(300):
            i, j, _ = draw()
            if rng.random() < 0.5:
                commit(i, j, net.toggle(i, j))
            assert state.snapshot() == BDStratTNT(net, spec, attrs).snapshot()

    def test_rebuild_no_caps(self):
        net = Network(15)
        attrs = alternating_sex(15)
        spec = parse_constraint_formula('strat(attr="grp") + sparse')
        state = self.run_accepted_toggles(net, attrs, spec, 5_000, seed=10)
        fresh = BDStratTNT(net, spec, attrs)
        assert state.snapshot() == fresh.snapshot()

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("pmat", [[[1.0, 0.6], [0.6, 0.3]],
                                      [[0.2, 0.7], [0.7, 1.0]]])
    def test_active_weight_is_path_independent(self, n, pmat):
        # the q-ratio's W must be the rebuild's to the last bit at every
        # step: an incremental W - w + w drifts by an ulp
        attrs = alternating_sex(n)
        spec = parse_constraint_formula(
            'bd(maxout=1) + blocks(attr="sex", levels2=diag) + strat(attr="grp")')
        spec.strat_pmat = pmat
        net = Network(n)
        state = BDStratTNT(net, spec, attrs)
        rng = random.Random(n)
        draw, commit = state.bind(net, rng)
        for _ in range(400):
            i, j, _ = draw()
            if rng.random() < 0.5:
                commit(i, j, net.toggle(i, j))
            fresh = BDStratTNT(net, spec, attrs)
            assert repr(state.active_weight) == repr(fresh.active_weight)

    def test_saturation_add_remove_involution(self):
        net = Network(8)
        attrs = alternating_sex(8)
        spec = hetero_monogamy()
        state = BDStratTNT(net, spec, attrs)
        _, commit = state.bind(net, random.Random(0))
        before = state.snapshot()
        net.toggle(0, 1)
        commit(0, 1, True)
        # both endpoints saturated: their other incident dyads leave
        assert state.strat_D[0] < before["strat_D"][0]
        net.toggle(0, 1)
        commit(0, 1, False)
        assert state.snapshot() == before

    def test_reverse_probability_bookkeeping(self):
        # the reverse-move probability recomputed from the post-toggle
        # state must reproduce the value inside log_q_ratio
        net = Network(10)
        attrs = alternating_sex(10)
        spec = hetero_monogamy()
        state = BDStratTNT(net, spec, attrs)
        draw, commit = state.bind(net, random.Random(11))
        for _ in range(2000):
            W_before = state.active_weight
            i, j, logq = draw()
            cell = state._cell_of_dyad(i, j)
            s = state.cell_stratum[cell]
            E_s, D_s = state.strat_E[s], state.strat_D[s]
            was_edge = net.has_edge(i, j)
            q_fwd = (0.5 / E_s + 0.5 / D_s) if was_edge else \
                ((0.5 / D_s) if E_s else (1.0 / D_s))
            added = net.toggle(i, j)
            commit(i, j, added)
            E_r, D_r = state.strat_E[s], state.strat_D[s]
            q_rev = (0.5 / E_r + 0.5 / D_r) if added else \
                ((0.5 / D_r) if E_r else (1.0 / D_r))
            want = math.log((q_rev * W_before) / (q_fwd * state.active_weight))
            assert abs(logq - want) < 1e-12
            # leave the network wherever the toggle put it

    def test_frozen_state(self):
        # two vertices, saturated by the single edge, same stratum
        net = Network(2)
        attrs = VertexAttributes(2)
        attrs.add("sex", ["M", "F"])
        net.toggle(0, 1)
        spec = parse_constraint_formula("bd(maxout=1)")
        draw, _ = BDStratTNT(net, spec, attrs).bind(net, random.Random(0))
        # the edge is still proposable (removals always are)
        assert draw()[:2] == (0, 1)
        net2 = Network(3)
        spec2 = ConstraintSpec(bd_maxout=0)
        draw, _ = BDStratTNT(net2, spec2, None).bind(net2, random.Random(0))
        with pytest.raises(FrozenStateError):
            draw()


class _CountingRandom(random.Random):
    """A Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


class TestBDStratRejectionWorstCase:
    """The non-edge draw's rejection loop at a hit rate of 1/11.

    BDStratTNT draws an unsaturated non-edge by drawing ordered pairs
    (a, b) of unsaturated vertices, one below(m1) and one below(m2),
    until the pair is not one of the cell's edges.  On K12 minus a
    perfect matching under bd(maxout=11), all 12 vertices are
    unsaturated at degree 10 and the only non-edges are the 6 matching
    pairs: 12 of the 132 ordered pairs hit.  A non-edge draw then takes
    11 pairs on average.  Each pair is below(12) and below(11), both
    rejecting getrandbits(4) draws, 16/12 + 16/11 calls on average, so
    a non-edge draw costs 11 * (16/12 + 16/11) = 30.67 getrandbits
    calls, plus 128/66 = 1.94 for the below(66) that chose it (32.53
    measured over 4000 non-edge draws at seed 22).  There is no
    fallback to enumerating the non-edges yet.
    """

    N = 12

    def build(self):
        net = Network(self.N)
        for i in range(self.N):
            for j in range(i + 1, self.N):
                if not (i % 2 == 0 and j == i + 1):
                    net.toggle(i, j)
        spec = parse_constraint_formula(f"bd(maxout={self.N - 1})")
        return net, BDStratTNT(net, spec, None)

    def test_frequencies_match_forward_q(self):
        from scipy import stats
        net, state = self.build()
        E, D = net.edge_count, net.dyad_count()     # all 66 are eligible
        assert (E, D, state.strat_D) == (60, 66, [66])
        draw, _ = state.bind(net, random.Random(21))
        draws = 66_000
        counts = Counter(draw()[:2] for _ in range(draws))
        assert set(counts) == set(net.dyads())
        chi2 = 0.0
        for d in net.dyads():
            q = (0.5 / E + 0.5 / D) if net.has_edge(*d) else 0.5 / D
            chi2 += (counts[d] - draws * q) ** 2 / (draws * q)
        assert stats.chi2.sf(chi2, D - 1) > 0.001

    def test_getrandbits_per_non_edge_draw(self):
        net, state = self.build()
        rng = _CountingRandom(22)
        draw, _ = state.bind(net, rng)
        calls = []
        while len(calls) < 4000:
            before = rng.calls
            i, j, _ = draw()
            if not net.has_edge(i, j):
                calls.append(rng.calls - before)
        want = 11 * (16 / 12 + 16 / 11) + 128 / 66
        # a draw's count has standard deviation about 30
        assert abs(sum(calls) / len(calls) - want) < 4 * 30 / math.sqrt(4000)


def provisional_reverse_counts(state, net, commit, s, i, j):
    """Reference reverse-state counts: commit the toggle, read stratum
    s's counts and the active weight, then roll the toggle back."""
    added = net.toggle(i, j)
    commit(i, j, added)
    counts = (state.strat_E[s], list(state.strat_D), state.active_weight)
    net.toggle(i, j)
    commit(i, j, not added)
    return counts


def proposable_dyads(net, state):
    """Dyads BDStratTNT may propose, straight from the definition."""
    caps = state.caps
    out = []
    for i, j in net.dyads():
        cell = state._cell_of_dyad(i, j)
        if cell is None or state.weights[state.cell_stratum[cell]] <= 0.0:
            continue
        if net.has_edge(i, j) or (net.deg[i] < caps[i] and net.deg[j] < caps[j]):
            out.append((i, j))
    return out


def check_reverse_counts(state, net, i, j):
    """Closed-form reverse counts of (i, j) against the provisional
    commit; returns whether some stratum's D crosses zero."""
    s = state.cell_stratum[state._cell_of_dyad(i, j)]
    D_before, W = list(state.strat_D), state.active_weight
    edges_before = list(net.edges)
    _, commit, reverse_counts = state._bound(net)
    E_r, D_r, W_r = reverse_counts(s, i, j, not net.has_edge(i, j),
                                   D_before[s])
    assert state.strat_D == D_before and state.active_weight == W
    assert net.edges == edges_before
    want_E, want_D, want_W = provisional_reverse_counts(state, net, commit,
                                                        s, i, j)
    assert (E_r, D_r) == (want_E, want_D[s])
    assert W_r == want_W
    crosses = any((a == 0) != (b == 0) for a, b in zip(D_before, want_D))
    if not crosses:
        assert W_r == W
    return crosses


class TestBDStratReverseCounts:
    """The reverse-state counts inside log_q_ratio, read without
    writing state, equal those of a commit-and-rollback."""

    @staticmethod
    def build(n, cap, blocks, zero):
        attrs = alternating_sex(n)
        text = f'bd(maxout={cap}) + strat(attr="grp")'
        if blocks:
            text += ' + blocks(attr="sex", levels2=diag)'
        spec = parse_constraint_formula(text)
        spec.strat_pmat = [[1.0, 0.6], [0.6, 0.3]]
        a, b = zero
        spec.strat_pmat[a][b] = spec.strat_pmat[b][a] = 0.0
        net = Network(n)
        return net, attrs, spec, BDStratTNT(net, spec, attrs)

    def test_stratum_emptied(self):
        # X = {0, 3} (one M, one F): the X-X edge saturates both X
        # vertices at cap 1, leaving the X-Y stratum nothing to propose
        net, attrs, spec, state = self.build(6, 1, True, (1, 1))
        _, commit = state.bind(net, random.Random(0))
        assert check_reverse_counts(state, net, 0, 3)
        net.toggle(0, 3)
        commit(0, 3, True)
        xy = state.strata.index((0, 1))
        assert state.strat_D[xy] == 0
        assert check_reverse_counts(state, net, 0, 3)

    @pytest.mark.parametrize("text, want", [
        ('bd(maxout=2) + blocks(attr="sex", levels2=diag) + strat(attr="grp")',
         "ce08f0ff1c9a3e8d"),
        ("bd(maxout=1)", "97ebfff9b96ad207")],
        ids=["bd2-blocks-strat", "bd1"])
    def test_seeded_proposals_pinned(self, text, want):
        # the digests pin the seeded proposal sequence, dyads and log
        # q-ratios, which the RNG stream and the order of the edge and
        # unsaturated lists that the draws index decide
        net = Network(30)
        state = BDStratTNT(net, parse_constraint_formula(text), alternating_sex(30))
        rng = random.Random(5)
        draw, commit = state.bind(net, rng)
        seq = []
        for _ in range(3000):
            i, j, logq = draw()
            seq.append((i, j, round(logq, 9)))
            if rng.random() < 0.5:
                commit(i, j, net.toggle(i, j))
        assert hashlib.sha256(repr(seq).encode()).hexdigest()[:16] == want

    @given(n=st.integers(6, 12), cap=st.integers(1, 3), blocks=st.booleans(),
           zero=st.sampled_from([(0, 0), (0, 1), (1, 1)]),
           picks=st.lists(st.integers(0, 10 ** 6), max_size=40),
           seed=st.integers(0, 2 ** 16))
    @example(n=6, cap=1, blocks=True, zero=(1, 1), picks=[1, 0, 0], seed=0)
    @settings(max_examples=40, deadline=None)
    def test_against_provisional_commit(self, n, cap, blocks, zero, picks, seed):
        net, attrs, spec, state = self.build(n, cap, blocks, zero)
        draw, commit = state.bind(net, random.Random(seed))
        for pick in picks:
            legal = proposable_dyads(net, state)
            if not legal:
                break
            for i, j in legal:
                check_reverse_counts(state, net, i, j)
            before = state.snapshot()
            for _ in range(3):
                draw()
                assert state.snapshot() == before
            i, j = legal[pick % len(legal)]
            commit(i, j, net.toggle(i, j))
            fresh = BDStratTNT(net, spec, attrs)
            assert state.snapshot() == fresh.snapshot()
            assert repr(state.active_weight) == repr(fresh.active_weight)

    @given(n=st.integers(6, 16), cap=st.integers(1, 3), blocks=st.booleans(),
           zero=st.sampled_from([(0, 0), (0, 1), (1, 1)]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_draw_is_read_only(self, n, cap, blocks, zero, seed):
        # the bound draw writes nothing: not the network's lists, maps and
        # set orders (a set can reorder when an item leaves and comes
        # back), not the proposal's lists, counts or active weight
        net, attrs, spec, state = self.build(n, cap, blocks, zero)
        rng = random.Random(seed)
        draw, commit = state.bind(net, rng)

        def layout():
            return (list(net.edges), list(net._edge_pos.items()),
                    [list(a) for a in net.adj], list(net.deg),
                    [list(u) for u in state.unsat],
                    [list(p.items()) for p in state.unsat_pos],
                    [list(e) for e in state.cell_edges],
                    [list(p.items()) for p in state.cell_edge_pos],
                    state.snapshot(), repr(state.active_weight))

        for _ in range(200):
            before = layout()
            i, j, _ = draw()
            assert layout() == before
            if rng.random() < 0.5:
                commit(i, j, net.toggle(i, j))


class TestErgodicity:
    def constrained_reachability(self, n, spec, attrs):
        """BFS over proposal support must reach every admissible state."""
        from helpers import all_networks
        checker = ConstraintChecker(Network(n), spec, attrs)

        def admissible(net):
            try:
                checker.validate_network(net)
                return True
            except ConstraintError:
                return False

        states = [net for net in all_networks(n) if admissible(net)]
        index = {frozenset(net.edge_set()): k for k, net in enumerate(states)}
        start = index[frozenset()]
        seen = {start}
        queue = deque([start])
        while queue:
            k = queue.popleft()
            net = states[k].copy()
            state = BDStratTNT(net, spec, attrs)
            for d in range(net.dyad_count()):
                i, j = net.dyad_at(d)
                cell = state._cell_of_dyad(i, j)
                if cell is None:
                    continue
                if state.weights[state.cell_stratum[cell]] <= 0:
                    continue
                if not (net.has_edge(i, j) or
                        (net.deg[i] < state.caps[i] and net.deg[j] < state.caps[j])):
                    continue
                net2 = net.copy()
                net2.toggle(i, j)
                nxt = index[frozenset(net2.edge_set())]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen), len(states)

    def test_matching_space_reachable(self):
        attrs = alternating_sex(6)
        reached, total = self.constrained_reachability(6, hetero_monogamy(), attrs)
        assert reached == total
        # K(3,3) partial matchings: 1 + 9 + 18 + 6
        assert total == 34

    def test_bd_only_space(self):
        attrs = alternating_sex(6)
        spec = parse_constraint_formula("bd(maxout=1)")
        reached, total = self.constrained_reachability(6, spec, attrs)
        assert reached == total
        # partial matchings of K6: 1 + 15 + 45 + 15
        assert total == 76


class TestMakeProposal:
    def test_selection(self):
        net = Network(6)
        attrs = alternating_sex(6)
        p, c = make_proposal(net, parse_constraint_formula("."), attrs)
        assert isinstance(p, TntProposal) and c is None
        p, c = make_proposal(net, parse_constraint_formula("dense"), attrs)
        assert isinstance(p, UniformProposal)
        p, c = make_proposal(net, hetero_monogamy(), attrs)
        assert isinstance(p, BDStratTNT) and c is None
        p, c = make_proposal(net, parse_constraint_formula("tnt + bd(maxout=1)"), attrs)
        assert isinstance(p, TntProposal) and c is not None

    @pytest.mark.parametrize("net, text", [
        (Network(6, directed=True), "bd(maxin=1)"),
        (Network(6, bipartite=3), "bd(maxout=1)"),
    ], ids=["directed-maxin", "bipartite-maxout"])
    def test_constrained_non_unipartite_falls_back_to_tnt(self, net, text):
        # BDStratTNT serves undirected unipartite networks only
        p, c = make_proposal(net, parse_constraint_formula(text))
        assert isinstance(p, TntProposal) and isinstance(c, ConstraintChecker)

    def test_strat_on_directed_rejected(self):
        with pytest.raises(DataError, match="undirected unipartite"):
            make_proposal(Network(6, directed=True),
                          parse_constraint_formula('strat(attr="grp")'),
                          alternating_sex(6))

    @pytest.mark.parametrize("text", ["bd(maxin=1)", "tnt + bd(maxin=1)"],
                             ids=["bdstrat", "tnt"])
    def test_maxin_on_undirected_rejected(self, text):
        with pytest.raises(DataError, match="maxin"):
            make_proposal(Network(6), parse_constraint_formula(text))
