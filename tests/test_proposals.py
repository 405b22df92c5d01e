"""Proposal distributions: mixtures, constraint safety, state maintenance."""

import hashlib
import math
import random
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from ergmkit.errors import ConstraintError, DataError, FrozenStateError
from ergmkit.formula import ConstraintSpec, parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import (BDStratTNT, ConstraintChecker, TntProposal,
                               UniformProposal, make_proposal)


def alternating_sex(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(n)])
    return attrs


def hetero_monogamy():
    return parse_constraint_formula('bd(maxout=1) + blocks(attr="sex", levels2=diag)')


class TestUniform:
    def test_each_dyad_equally(self):
        net = Network(4)
        rng = random.Random(0)
        prop = UniformProposal()
        counts = Counter((prop.propose(net, rng)[:2]) for _ in range(60_000))
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c - 10_000) < 4 * math.sqrt(60_000 * (1 / 6) * (5 / 6))

    def test_bipartite_only_cross(self):
        net = Network(5, bipartite=2)
        rng = random.Random(1)
        prop = UniformProposal()
        seen = {prop.propose(net, rng)[:2] for _ in range(2000)}
        assert len(seen) == 6
        assert all(i < 2 <= j for i, j in seen)

    def test_chi_square(self):
        from scipy import stats
        net = Network(6)
        rng = random.Random(2)
        prop = UniformProposal()
        N = net.dyad_count()
        counts = Counter(prop.propose(net, rng)[:2] for _ in range(100_000))
        observed = [counts.get(net.dyad_at(k), 0) for k in range(N)]
        expected = 100_000 / N
        chi2 = sum((o - expected) ** 2 / expected for o in observed)
        assert stats.chi2.sf(chi2, N - 1) > 0.001


class TestTnt:
    def test_mixture_single_edge(self):
        # E=1, N=3: proposing the edge has probability 1/2 + 1/6 = 2/3.
        net = Network(3)
        net.toggle(0, 1)
        rng = random.Random(3)
        prop = TntProposal()
        draws = 120_000
        hits = sum(prop.propose(net, rng)[:2] == (0, 1) for _ in range(draws))
        sigma = math.sqrt(draws * (2 / 3) * (1 / 3))
        assert abs(hits - draws * 2 / 3) < 4 * sigma

    def test_nonedge_mass_below_half(self):
        net = Network(5)
        net.toggle(0, 1)
        rng = random.Random(4)
        prop = TntProposal()
        draws = 50_000
        nonedge = sum(not net.has_edge(*prop.propose(net, rng)[:2])
                      for _ in range(draws))
        assert nonedge < draws / 2

    def test_empirical_mixture(self):
        net = Network(5)
        for d in [(0, 1), (1, 2), (2, 3)]:
            net.toggle(*d)
        E, N = 3, net.dyad_count()
        rng = random.Random(5)
        prop = TntProposal()
        draws = 1_000_000
        counts = Counter(prop.propose(net, rng)[:2] for _ in range(draws))
        for k in range(N):
            d = net.dyad_at(k)
            p = (0.5 / E + 0.5 / N) if net.has_edge(*d) else 0.5 / N
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(counts.get(d, 0) - draws * p) < 4 * sigma

    def test_q_ratio_values(self):
        net = Network(3)
        net.toggle(0, 1)
        rng = random.Random(6)
        prop = TntProposal()
        E, N = 1, 3
        for _ in range(50):
            i, j, logq = prop.propose(net, rng)
            if net.has_edge(i, j):
                # removal from E=1: reverse re-adds from the empty state
                want = math.log((1.0 / N) / (0.5 / E + 0.5 / N))
            else:
                want = math.log((0.5 / 2 + 0.5 / N) / (0.5 / N))
            assert abs(logq - want) < 1e-12

    def test_empty_network_fallback(self):
        net = Network(4)
        rng = random.Random(7)
        prop = TntProposal()
        N = net.dyad_count()
        i, j, logq = prop.propose(net, rng)
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
        state = BDStratTNT(net, spec, attrs)
        rng = random.Random(8)
        grp = attrs.columns["grp"]
        for _ in range(4000):
            i, j, _ = state.propose(net, rng)
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
        for _ in range(steps):
            i, j, _ = state.propose(net, rng)
            assert checker.allowed(net, i, j), "proposal violates constraints"
            if rng.random() < 0.5:   # arbitrary acceptance; state must track
                added = net.toggle(i, j)
                state.commit(net, i, j, added)
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

    def test_rebuild_no_caps(self):
        net = Network(15)
        attrs = alternating_sex(15)
        spec = parse_constraint_formula('strat(attr="grp") + sparse')
        state = self.run_accepted_toggles(net, attrs, spec, 5_000, seed=10)
        fresh = BDStratTNT(net, spec, attrs)
        assert state.snapshot() == fresh.snapshot()

    def test_saturation_add_remove_involution(self):
        net = Network(8)
        attrs = alternating_sex(8)
        spec = hetero_monogamy()
        state = BDStratTNT(net, spec, attrs)
        before = state.snapshot()
        net.toggle(0, 1)
        state.commit(net, 0, 1, True)
        # both endpoints saturated: their other incident dyads leave
        assert state.strat_D[0] < before["strat_D"][0]
        net.toggle(0, 1)
        state.commit(net, 0, 1, False)
        assert state.snapshot() == before

    def test_reverse_probability_bookkeeping(self):
        # the reverse-move probability recomputed from the post-toggle
        # state must reproduce the value inside log_q_ratio
        net = Network(10)
        attrs = alternating_sex(10)
        spec = hetero_monogamy()
        state = BDStratTNT(net, spec, attrs)
        rng = random.Random(11)
        for _ in range(2000):
            W_before = state.active_weight
            i, j, logq = state.propose(net, rng)
            cell = state._cell_of_dyad(i, j)
            s = state.cell_stratum[cell]
            E_s, D_s = state.strat_E[s], state.strat_D[s]
            was_edge = net.has_edge(i, j)
            q_fwd = (0.5 / E_s + 0.5 / D_s) if was_edge else \
                ((0.5 / D_s) if E_s else (1.0 / D_s))
            added = net.toggle(i, j)
            state.commit(net, i, j, added)
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
        state = BDStratTNT(net, spec, attrs)
        # the edge is still proposable (removals always are)
        i, j, _ = state.propose(net, random.Random(0))
        assert (i, j) == (0, 1)
        net2 = Network(3)
        spec2 = ConstraintSpec(bd_maxout=0)
        state2 = BDStratTNT(net2, spec2, None)
        with pytest.raises(FrozenStateError):
            state2.propose(net2, random.Random(0))


def provisional_reverse_counts(state, net, s, i, j):
    """Reference reverse-state counts: commit the toggle, read stratum
    s's counts and the active weight, then roll the toggle back."""
    added = net.toggle(i, j)
    state.commit(net, i, j, added)
    counts = (state.strat_E[s], list(state.strat_D), state.active_weight)
    net.toggle(i, j)
    state.commit(net, i, j, not added)
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
    E_r, D_r, W_r, _ = state._reverse_counts(net, s, i, j,
                                             not net.has_edge(i, j))
    assert state.strat_D == D_before and state.active_weight == W
    assert net.edges == edges_before
    want_E, want_D, want_W = provisional_reverse_counts(state, net, s, i, j)
    assert (E_r, D_r) == (want_E, want_D[s])
    # the rollback may round W through W - w + w; the closed form does
    # no arithmetic on W unless a stratum's D crosses zero
    assert math.isclose(W_r, want_W, rel_tol=1e-12, abs_tol=1e-15)
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
        assert check_reverse_counts(state, net, 0, 3)
        net.toggle(0, 3)
        state.commit(net, 0, 3, True)
        xy = state.strata.index((0, 1))
        assert state.strat_D[xy] == 0
        assert check_reverse_counts(state, net, 0, 3)

    @pytest.mark.parametrize("text, want", [
        ('bd(maxout=2) + blocks(attr="sex", levels2=diag) + strat(attr="grp")',
         "7104f6f0e8232dd7"),
        ("bd(maxout=1)", "119ed08ae0976e5d")])
    def test_seeded_proposals_pinned(self, text, want):
        # reading the reverse counts must leave the edge and unsaturated
        # lists in the order a commit-and-rollback leaves them, or seeded
        # runs draw other dyads; the digests pin the proposal sequence
        net = Network(30)
        state = BDStratTNT(net, parse_constraint_formula(text), alternating_sex(30))
        rng = random.Random(5)
        seq = []
        for _ in range(3000):
            i, j, logq = state.propose(net, rng)
            seq.append((i, j, round(logq, 9)))
            if rng.random() < 0.5:
                state.commit(net, i, j, net.toggle(i, j))
        assert hashlib.sha256(repr(seq).encode()).hexdigest()[:16] == want

    @given(n=st.integers(6, 12), cap=st.integers(1, 3), blocks=st.booleans(),
           zero=st.sampled_from([(0, 0), (0, 1), (1, 1)]),
           picks=st.lists(st.integers(0, 10 ** 6), max_size=40),
           seed=st.integers(0, 2 ** 16))
    @example(n=6, cap=1, blocks=True, zero=(1, 1), picks=[1, 0, 0], seed=0)
    @settings(max_examples=40, deadline=None)
    def test_against_provisional_commit(self, n, cap, blocks, zero, picks, seed):
        net, attrs, spec, state = self.build(n, cap, blocks, zero)
        rng = random.Random(seed)
        for pick in picks:
            legal = proposable_dyads(net, state)
            if not legal:
                break
            for i, j in legal:
                check_reverse_counts(state, net, i, j)
            before = state.snapshot()
            for _ in range(3):
                state.propose(net, rng)
                assert state.snapshot() == before
            i, j = legal[pick % len(legal)]
            added = net.toggle(i, j)
            state.commit(net, i, j, added)
            fresh = BDStratTNT(net, spec, attrs)
            assert state.snapshot() == fresh.snapshot()

    @given(n=st.integers(6, 16), cap=st.integers(1, 3), blocks=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_propose_leaves_network_as_a_rollback(self, n, cap, blocks, seed):
        # propose must leave the edge list and the adjacency sets in the
        # order that toggling the dyad and toggling it back leaves them:
        # a set can reorder when an item leaves and comes back, or when
        # an insertion resizes it.  The mirror network is built by the
        # same toggles, not copied, since a copied set is laid out afresh.
        net, attrs, spec, state = self.build(n, cap, blocks, (0, 0))
        mirror = Network(n)
        rng = random.Random(seed)

        def layout(nw):
            return (list(nw.edges), list(nw._edge_pos.items()),
                    [list(a) for a in nw.adj], list(nw.deg))

        for _ in range(200):
            i, j, _ = state.propose(net, rng)
            mirror.toggle(i, j)
            mirror.toggle(i, j)
            assert layout(net) == layout(mirror)
            if rng.random() < 0.5:
                state.commit(net, i, j, net.toggle(i, j))
                mirror.toggle(i, j)


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
