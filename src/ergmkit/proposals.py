"""Metropolis-Hastings proposal distributions.

Three proposal families:

* uniform: a uniformly random free dyad, symmetric (log q-ratio 0);
* TNT ("tie / no tie"): with probability 1/2 a uniformly random current
  edge, else a uniformly random dyad, so a specific edge is proposed
  with probability 1/(2E) + 1/(2N) and a non-edge with 1/(2N);
* BDStratTNT: TNT generalized with stratification over attribute mixing
  cells, block (forbidden mixing-type) constraints, and bounded-degree
  constraints, implemented rejection-free by maintaining, per mixing
  cell, the edge lists and unsaturated-vertex sets that exact
  eligible-dyad counts are derived from.

A dyad is proposable under BDStratTNT iff it is not blocked and either
hosts a current edge or has both endpoints below their degree caps.
Within the drawn stratum the proposal is a 1/2-1/2 TNT mixture over
(stratum edges) and (stratum eligible dyads); the q-ratio accounts for
the stratum weights, the post-toggle eligibility counts, and the
renormalization over proposable strata.  Zero-weight strata freeze
their dyads' edge states, like blocks.

Every proposal's ``bind(net, rng)`` returns ``(draw, commit)``, built
once per chain: ``draw()`` returns ``(i, j, log_q_ratio)`` and writes
nothing to the network or to the sampling state, and ``commit(i, j,
added)`` updates the proposal's state after the chain toggles the dyad.
The contract: a drawn ``(i, j)`` is a canonical free dyad (in range,
no self-loop, across the modes if bipartite, ``i < j`` if undirected),
and ``sampler.Chain`` flips it as drawn, unvalidated.
``commit`` is None for the uniform and TNT proposals, which keep no
state in the proposal; a bound TNT draw memoises its log q-ratio
(``_tnt_log_q_ratio``) per edge count, one float per edge count the
chain visits.  A bound BDStratTNT draw memoises one thing, in one slot:
the drawn dyad's post-toggle active weight, cell and stratum, which its
commit reuses only for that very dyad with no commit in between (see
``BDStratTNT._bound``).  A ``sampler.Chain`` binds every proposal once
but draws uniform and TNT dyads in its own loop, with the same RNG
calls, the same dyads (``Network.decoder`` decodes as ``dyad_at``) and
the same q-ratio, so their bound draws serve ``propose`` and the tests'
reference step.  ``propose(net, rng)`` and ``commit(net, i, j, added)``
apply the same closures once.  Binding to a network with no free dyad
is a data error.  Every integer draw is ``_below``'s, which consumes
the RNG stream exactly as ``Random.randrange`` does; BDStratTNT's draw
and the chain loop make its getrandbits calls inline.
"""

import math
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple
from warnings import warn

from .errors import ConstraintError, DataError, FrozenStateError
from .formula import ConstraintSpec

__all__ = ["Proposal", "UniformProposal", "TntProposal", "BDStratTNT",
           "ConstraintChecker", "blocks_rule", "make_proposal"]


class Proposal(NamedTuple):
    i: int
    j: int
    log_q_ratio: float


_ZERO = 0.0
# BDStratTNT's empty memo: no drawn dyad matches it
_NO_DRAW = (-1, -1, None, None, None, None)


def _below(rng):
    """below(n) -> a uniform integer in [0, n) for n > 0, drawn from
    `rng` with the same getrandbits calls, and so the same values and
    the same final state, as ``rng.randrange(n)``: CPython's randrange
    rejects getrandbits(n.bit_length()) draws until one is below n.
    One call instead of randrange's three."""
    getrandbits = rng.getrandbits

    def below(n):
        if n <= 0:
            raise ValueError(f"below({n}): empty range")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _free_dyads(net):
    """The network's free-dyad count; a data error when there is none,
    since no proposal can draw from an empty dyad space."""
    N = net.dyad_count()
    if N == 0:
        raise DataError("the network has no dyad to propose")
    return N


def _tnt_log_q_ratio(N, E, is_edge):
    """TNT's log q-ratio, log q(reverse) / q(forward), for a toggle of a
    dyad that is (is_edge) or is not an edge of a network with E edges
    and N free dyads."""
    if is_edge:
        q_fwd = 0.5 / E + 0.5 / N
        q_rev = 0.5 / N if E > 1 else 1.0 / N
    else:
        # with no edges the dyad branch is forced
        q_fwd = 0.5 / N if E else 1.0 / N
        q_rev = 0.5 / (E + 1) + 0.5 / N
    return math.log(q_rev / q_fwd)


class UniformProposal:
    """Uniformly random free dyad; symmetric."""

    def bind(self, net, rng):
        """(draw, None): draw() -> (i, j, log_q_ratio) for chains on
        `net` drawing from `rng`; there is no state to commit."""
        below, dyad_at, N = _below(rng), net.dyad_at, _free_dyads(net)

        def draw():
            i, j = dyad_at(below(N))
            return i, j, _ZERO

        return draw, None

    def propose(self, net, rng):
        return Proposal(*self.bind(net, rng)[0]())

    def commit(self, net, i, j, added):
        pass


class TntProposal:
    """Tie/no-tie mixture with exact forward/backward ratio.

    With no edges the dyad branch fires with probability 1 and the
    reverse edge-branch term enters the ratio, so the chain remains
    exactly reversible from the empty network.
    """

    def bind(self, net, rng):
        """(draw, None): draw() -> (i, j, log_q_ratio) for chains on
        `net` drawing from `rng`; there is no state to commit.

        With the free-dyad count N fixed, the log q-ratio depends only
        on the edge count E and on whether the drawn dyad is an edge, so
        the bound draw computes it once per (E, branch) and keeps it in
        one of two dicts keyed by E.  The memo holds one float per edge
        count the chain visits, which is less than the network's own
        storage per edge."""
        random, below = rng.random, _below(rng)
        edges, adj, dyad_at = net.edges, net.adj, net.dyad_at
        N = _free_dyads(net)
        edge_memo, gap_memo = {}, {}

        def draw():
            E = len(edges)
            if E and random() < 0.5:
                i, j = edges[below(E)]
                is_edge = True
            else:
                i, j = dyad_at(below(N))
                is_edge = j in adj[i]
            known = edge_memo if is_edge else gap_memo
            log_q = known.get(E)
            if log_q is None:
                log_q = known[E] = _tnt_log_q_ratio(N, E, is_edge)
            return i, j, log_q

        return draw, None

    def propose(self, net, rng):
        return Proposal(*self.bind(net, rng)[0]())

    def commit(self, net, i, j, added):
        pass


class ConstraintChecker:
    """Validates toggles against bd caps and blocks.

    The one reader of a spec's caps and blocks: plain proposals use it
    to reject constraint-violating toggles (the target assigns them
    zero probability), BDStratTNT reads its caps and blocked level pairs
    from it, and tests wrap BDStratTNT in it.  A ``sampler.Chain`` binds
    its ``block_level``, ``forbid``, ``caps_out`` and ``caps_in`` once
    and applies ``allowed``'s rule inline, for MCMC and SAN alike; the
    tests call ``allowed``.  Undirected, ``caps_in`` is ``caps_out`` (as the
    network's ``in_deg`` is its ``deg``).
    """

    def __init__(self, net, constraints, attrs=None):
        n = net.n
        self.caps_out = _resolve_caps(constraints.bd_maxout, n)
        if net.directed:
            self.caps_in = _resolve_caps(constraints.bd_maxin, n)
        elif constraints.bd_maxin is not None:
            raise DataError("maxin applies to directed networks only")
        else:
            self.caps_in = self.caps_out
        self.blocked = blocks_rule(net, constraints, attrs)
        if self.blocked is not None:
            self.block_level, self.forbid = self.blocked

    def allowed(self, net, i, j):
        """May dyad (i, j) be toggled from the current state?  Removals
        never violate caps."""
        return not (self.blocked and self.forbid[self.block_level[i]][self.block_level[j]]) \
            and (j in net.adj[i] or net.deg[i] < self.caps_out[i] and net.in_deg[j] < self.caps_in[j])

    def validate_network(self, net):
        if self.blocked is not None:
            lev, forbid = self.block_level, self.forbid
            for i, j in net.edges:
                if forbid[lev[i]][lev[j]]:
                    raise ConstraintError(f"edge ({i + 1}, {j + 1}) violates blocks")
        for v, d, cap, d_in, cap_in in zip(range(net.n), net.deg, self.caps_out,
                                           net.in_deg, self.caps_in):
            if d > cap or d_in > cap_in:
                raise ConstraintError(f"vertex {v + 1} exceeds its degree cap")


def _resolve_caps(spec_cap, n):
    """Scalar, per-vertex sequence, or None (no cap) -> per-vertex list."""
    if spec_cap is None:
        return [n] * n
    if isinstance(spec_cap, int):
        if spec_cap < 0:
            raise DataError("degree caps must be nonnegative")
        return [spec_cap] * n
    caps = [int(c) for c in spec_cap]
    if len(caps) != n or any(c < 0 for c in caps):
        raise DataError("per-vertex caps need one nonnegative entry per vertex")
    return caps


def blocks_rule(net, constraints, attrs=None):
    """The dyads a blocks constraint freezes, as (level, forbid): dyad
    (i, j) is frozen when forbid[level[i]][level[j]].  None when there
    is no constraint spec or it has no blocks constraint."""
    if constraints is None or constraints.blocks_attr is None:
        return None
    if attrs is None or constraints.blocks_attr not in attrs:
        raise DataError(f"network has no attribute {constraints.blocks_attr!r}")
    levels, level = attrs.categorical(constraints.blocks_attr)
    L, levels2 = len(levels), constraints.blocks_levels2
    if levels2 == "diag":
        return level, [[a == b for b in range(L)] for a in range(L)]
    forbid = [[bool(x) for x in row] for row in levels2]
    if len(forbid) != L or any(len(row) != L for row in forbid):
        raise DataError(f"blocks matrix must be {L}x{L} over the attribute levels")
    if not net.directed:
        for a in range(L):
            for b in range(L):
                if forbid[a][b] != forbid[b][a]:
                    raise DataError("blocks matrix must be symmetric for undirected networks")
    return level, forbid


class BDStratTNT:
    """Stratified, degree-bounded, block-aware TNT proposal.

    The state is organized as mixing *cells*: unordered pairs of
    combined classes, where a vertex's combined class is its
    (stratification level, blocks level) pair.  Each cell belongs to
    the stratum given by its pair of stratification levels.  Per cell
    the proposal maintains the current edge list (with O(1) delete) and
    the count of edges whose endpoints are both unsaturated; per class
    it maintains the unsaturated-vertex set; per stratum the edge count.
    A stratum's eligible-dyad count is summed over its cells when needed.
    The active weight, over the strata with eligible dyads, is summed
    afresh only when a toggle can change it (see ``_bound``).  The
    degree caps and the blocked level pairs come from a
    ``ConstraintChecker``, which also validates the start network.

    ``bind(net, rng)`` binds this state, the network's degrees and
    adjacency sets and the RNG's methods once per chain, and returns
    ``(draw, commit)``.  ``commit`` updates the counts through one
    saturation routine that moves a vertex reaching its cap out of its
    class's unsaturated set, or one dropping below it back in.  ``draw``
    writes no sampling state: it reads the post-toggle counts of the
    q-ratio off the current state, and its one write is the memo
    ``_drawn`` that lets ``commit`` skip the active-weight sum for the
    drawn dyad.  ``propose`` and ``commit`` apply the same closures once.

    Undirected unipartite networks only.
    """

    def __init__(self, net, constraints, attrs=None):
        if net.directed or net.bipartite:
            raise DataError("BDStratTNT supports undirected unipartite networks")
        n = net.n
        checker = ConstraintChecker(net, constraints, attrs)
        checker.validate_network(net)
        self.caps = checker.caps_out
        blev, forbid = checker.blocked or ([0] * n, [[False]])

        # stratification level per vertex (cross-classification label)
        if constraints.strat_attr:
            cols = []
            for name in constraints.strat_attr:
                if attrs is None or name not in attrs:
                    raise DataError(f"network has no attribute {name!r}")
                levels, lev = attrs.categorical(name)
                cols.append((levels, lev))
            # one label per distinct combination of levels
            combos = list(zip(*(lev for _, lev in cols)))
            label = {combo: ".".join(levels[x] for (levels, _), x
                                     in zip(cols, combo))
                     for combo in set(combos)}
            self.strat_levels = sorted(set(label.values()))
            lut = {lab: s for s, lab in enumerate(self.strat_levels)}
            level_of = {combo: lut[lab] for combo, lab in label.items()}
            slev = [level_of[combo] for combo in combos]
        else:
            self.strat_levels = ["all"]
            slev = [0] * n
        L = len(self.strat_levels)

        # combined classes actually present
        class_lut = {}
        class_of = []
        for v in range(n):
            key = (slev[v], blev[v])
            if key not in class_lut:
                class_lut[key] = len(class_lut)
            class_of.append(class_lut[key])
        self.class_of = class_of
        self.class_key = list(class_lut)
        C = len(self.class_key)

        # strata: unordered strat-level pairs; cells: unordered class pairs
        self.strata = [(a, b) for a in range(L) for b in range(a, L)]
        strat_lut = {pair: s for s, pair in enumerate(self.strata)}
        S = len(self.strata)
        self.cell_c1 = []
        self.cell_c2 = []
        self.cell_stratum = []
        # per class pair: their cell, None when blocked; per stratum and
        # class: the other class of each of the stratum's cells it is in
        self.cell_of_pair = [[None] * C for _ in range(C)]
        self.partners = [[[] for _ in range(C)] for _ in range(S)]
        for c1 in range(C):
            s1, b1 = self.class_key[c1]
            for c2 in range(c1, C):
                s2, b2 = self.class_key[c2]
                if forbid[b1][b2]:
                    continue
                k = len(self.cell_c1)
                s = strat_lut[(min(s1, s2), max(s1, s2))]
                self.cell_c1.append(c1)
                self.cell_c2.append(c2)
                self.cell_stratum.append(s)
                self.cell_of_pair[c1][c2] = self.cell_of_pair[c2][c1] = k
                self.partners[s][c1].append(c2)
                if c2 != c1:
                    self.partners[s][c2].append(c1)
        K = len(self.cell_c1)
        self.strat_cells = [[] for _ in range(S)]
        for k in range(K):
            self.strat_cells[self.cell_stratum[k]].append(k)

        # weights over strata
        self.weights = self._stratum_weights(net, constraints, slev, S, strat_lut)
        self._cum_weights = list(accumulate(self.weights))

        # mutable per-class / per-cell / per-stratum state
        caps = self.caps
        self.unsat = [[] for _ in range(C)]
        self.unsat_pos = [{} for _ in range(C)]
        for v in range(n):
            if net.deg[v] < caps[v]:
                c = class_of[v]
                self.unsat_pos[c][v] = len(self.unsat[c])
                self.unsat[c].append(v)
        self.cell_edges = [[] for _ in range(K)]
        self.cell_edge_pos = [{} for _ in range(K)]
        self.cell_unsat_edges = [0] * K
        self.strat_E = [0] * S
        for (i, j) in net.edges:
            k = self._cell_of_dyad(i, j)
            # commit's saturation pass moves every cell's unsaturated count
            if net.deg[i] < caps[i] and net.deg[j] < caps[j]:
                self.cell_unsat_edges[k] += 1
            if self.weights[self.cell_stratum[k]] > 0.0:
                self.cell_edge_pos[k][(i, j)] = len(self.cell_edges[k])
                self.cell_edges[k].append((i, j))
                self.strat_E[self.cell_stratum[k]] += 1
        self.active_weight = self._counters()[1](list(map(len, self.unsat)))
        self._drawn = _NO_DRAW

    # -- construction helpers -------------------------------------------

    def _stratum_weights(self, net, constraints, slev, S, strat_lut):
        L = len(self.strat_levels)
        pmat = constraints.strat_pmat
        if isinstance(pmat, str):
            raise DataError(f"pmat file {pmat!r} is not loaded: set "
                            "strat_pmat to the matrix it holds")
        if pmat is not None:
            mat = [[float(x) for x in row] for row in pmat]
            if len(mat) != L or any(len(row) != L for row in mat):
                raise DataError(f"pmat must be {L}x{L} over the stratification levels "
                                f"{self.strat_levels}")
            weights = [0.0] * S
            for a in range(L):
                for b in range(a, L):
                    w = mat[a][b] if a == b else 0.5 * (mat[a][b] + mat[b][a])
                    if w < 0:
                        raise DataError("pmat entries must be nonnegative")
                    weights[strat_lut[(a, b)]] = w
        elif constraints.strat_empirical:
            weights = [0.0] * S
            if net.edge_count == 0:
                warn("empirical stratification weights requested on an empty "
                     "network; falling back to uniform weights")
                weights = [1.0] * S
            else:
                for i, j in net.edges:
                    a, b = slev[i], slev[j]
                    weights[strat_lut[(min(a, b), max(a, b))]] += 1.0
        else:
            weights = [1.0] * S
        # strata with no cells can never be proposed
        for s in range(S):
            if not self.strat_cells[s]:
                weights[s] = 0.0
        total = sum(weights)
        if total <= 0.0:
            raise ConstraintError("all strata have zero weight")
        return [w / total for w in weights]

    def _cell_of_dyad(self, i, j):
        return self.cell_of_pair[self.class_of[i]][self.class_of[j]]

    # -- the bound proposal ------------------------------------------------

    def bind(self, net, rng):
        """(draw, commit) for chains on `net` drawing from `rng`:
        draw() -> (i, j, log_q_ratio), and commit(i, j, added) for a
        toggle of (i, j) that the chain has just applied."""
        _free_dyads(net)
        return self._bound(net, rng)[:2]

    def propose(self, net, rng):
        return Proposal(*self.bind(net, rng)[0]())

    def commit(self, net, i, j, added):
        """Update all bookkeeping for a toggle that was just applied."""
        self._bound(net)[1](i, j, added)

    def _counters(self):
        """(eligible, weigh): eligible(k) counts cell k's edges and
        unsaturated non-edges.  weigh(size, s=None) sums, in stratum
        order, the weights of the strata holding an edge or an unsaturated
        pair when class c has size[c] unsaturated vertices, stratum s
        counting as active.  Every active weight is this one sum."""
        unsat, cell_unsat, cell_edges = self.unsat, self.cell_unsat_edges, self.cell_edges
        cell_c1, cell_c2, strat_cells = self.cell_c1, self.cell_c2, self.strat_cells
        E, weights = self.strat_E, self.weights

        def eligible(k):
            c1, c2 = cell_c1[k], cell_c2[k]
            u = len(unsat[c1])
            pairs = u * (u - 1) // 2 if c1 == c2 else u * len(unsat[c2])
            return pairs - cell_unsat[k] + len(cell_edges[k])

        # (stratum, weight, [(class, class, members each needs for a pair)])
        live = [(t, w, [(cell_c1[k], cell_c2[k], 1 + (cell_c1[k] == cell_c2[k]))
                        for k in strat_cells[t]])
                for t, w in enumerate(weights) if w > 0.0]

        def weigh(size, s=None):
            W = 0.0
            for t, w, pairs in live:
                if t == s or E[t]:
                    W += w
                    continue
                for a, b, m in pairs:
                    if size[a] >= m and size[b] >= m:
                        W += w
                        break
            return W

        return eligible, weigh

    @property
    def strat_D(self):
        """Each stratum's eligible-dyad count, derived from the cells."""
        eligible = self._counters()[0]
        return [sum(map(eligible, cells)) for cells in self.strat_cells]

    def _bound(self, net, rng=None):
        """The closures over this state, `net` and `rng`: (draw, commit,
        reverse_counts).  Without an rng, draw cannot run.

        reverse_counts(s, i, j, added, D_s) -> (E_r, D_r, W_r) are the
        edge and eligible counts of stratum s (eligible count D_s) and
        the active weight after toggling its dyad (i, j), which `added`
        says adds an edge.  They are read off the state before the toggle
        without writing it: the pass makes the endpoints' moves into or
        out of the unsaturated sets virtually, in commit's order.  draw,
        like reverse_counts, writes nothing.

        Stratum s is active before and after the toggle, and no other
        stratum's edge count moves, so the active weight can change only
        when a moved vertex's class keeps at most one other unsaturated
        vertex (a pair takes two in one class, or one in each of two).
        Only then does reverse_counts call weigh, and commit too unless
        the memo serves it.

        draw counts each drawn-stratum cell's eligible dyads once
        (``_counters``' eligible, inlined) and finds the cell of its draw
        from those counts.

        The memo: draw's only write is ``self._drawn``, one slot holding
        (i, j, added, W_r, cell, stratum) for the dyad it returns, with
        reverse_counts' post-toggle weight W_r.  commit
        takes W_r, cell and stratum from the slot only when it commits
        that (i, j, added); it clears the slot on every call, so a
        commit of any other toggle in between, through any binding,
        voids it.  On a miss commit derives them as it always has: the
        per-call ``commit`` and manual toggles need no draw.  Both
        paths set the same active weight, bit for bit: reverse_counts
        and commit make the same moves and call weigh with the same
        sizes.
        """
        deg, adj, log = net.deg, net.adj, math.log
        caps, class_of, partners = self.caps, self.class_of, self.partners
        cell_of_pair, cell_stratum = self.cell_of_pair, self.cell_stratum
        unsat, unsat_pos = self.unsat, self.unsat_pos
        cell_edges, cell_edge_pos = self.cell_edges, self.cell_edge_pos
        cell_unsat = self.cell_unsat_edges
        E, weights, cum = self.strat_E, self.weights, self._cum_weights
        S, total = len(cum), cum[-1]
        weigh = self._counters()[1]
        if rng is not None:
            random, getrandbits = rng.random, rng.getrandbits
            # per stratum, its cells as (cell, the unsaturated lists of its
            # two classes, one class?, edge list): the live lists commit
            # edits
            c1, c2 = self.cell_c1, self.cell_c2
            strat_rows = [[(k, unsat[c1[k]], unsat[c2[k]], c1[k] == c2[k],
                            cell_edges[k]) for k in cells]
                          for cells in self.strat_cells]

        def reverse_counts(s, i, j, added, D_s):
            pre, step = (1, -1) if added else (0, 1)   # add: degrees after it
            E_r = E[s] - step
            if deg[i] + pre == caps[i]:
                moved = (i, j) if deg[j] + pre == caps[j] else (i,)
            elif deg[j] + pre == caps[j]:
                moved = (j,)
            else:
                # both endpoints keep their saturation: D is unchanged
                return E_r, D_s, self.active_weight
            dS = 0 if added else -1
            few = False                 # may the active weight change?
            flipped = first = None      # the endpoint moved before v, its class
            for v in moved:
                c = class_of[v]
                # unsaturated pairs through v in s's cells touching class c,
                # and c's set size, without v and after `flipped` moved
                for o in partners[s][c]:
                    u = len(unsat[o])
                    if o == first:
                        u += step
                    if o == c and added:
                        u -= 1
                    dS += step * u
                # (a set of four or more keeps two whatever the moves)
                if not few and len(unsat[c]) < 4:
                    few = len(unsat[c]) + (step if c == first else 0) - added < 2
                # v's edges after the toggle to unsaturated partners leave
                # (join) the unsaturated-edge counts.  The toggled dyad is
                # one of them on an add, with a partner unsaturated before
                # it, and none on a removal.
                other = j if v == i else i
                row = cell_of_pair[c]
                for w in adj[v]:
                    if w == other:
                        continue
                    cw = class_of[w]
                    if cell_stratum[row[cw]] == s and \
                            (w in unsat_pos[cw]) != (w == flipped):
                        dS -= step
                if added and other != flipped:
                    dS -= step
                flipped, first = v, c
            W_r = self.active_weight
            if few:
                size = list(map(len, unsat))
                for v in moved:
                    size[class_of[v]] += step
                W_r = weigh(size, s)
            return E_r, D_s + dS, W_r

        def draw():
            W = self.active_weight
            if W <= 0.0:
                raise FrozenStateError("no stratum has a proposable dyad")
            while True:
                s = bisect_right(cum, random() * total)
                if s < S and weights[s] > 0.0:
                    # each cell's eligible count, once: edges plus
                    # unsaturated pairs that are not edges
                    rows, counts, D_s = strat_rows[s], [], 0
                    for k, u1, u2, same, edges in rows:
                        u = len(u1)
                        m = (u * (u - 1) // 2 if same else u * len(u2)) \
                            - cell_unsat[k] + len(edges)
                        counts.append(m)
                        D_s += m
                    if D_s > 0:
                        break
            E_s = E[s]
            # a uniform stratum edge, or a uniform eligible dyad: an edge,
            # or an unsaturated non-edge found by rejecting current edges.
            # Each integer draw is below(n) inlined: getrandbits of n's
            # bit length until one is below n
            if E_s and random() < 0.5:
                bits = E_s.bit_length()
                r = getrandbits(bits)
                while r >= E_s:
                    r = getrandbits(bits)
                for k, u1, u2, same, edges in rows:
                    if r < len(edges):
                        break
                    r -= len(edges)
                else:
                    raise AssertionError("stratum edge count diverged")
                is_edge = True
            else:
                bits = D_s.bit_length()
                r = getrandbits(bits)
                while r >= D_s:
                    r = getrandbits(bits)
                # D_s sums the cells' counts, so some cell takes r
                for row, m in zip(rows, counts):
                    if r < m:
                        break
                    r -= m
                k, u1, u2, same, edges = row
                is_edge = r < len(edges)
            if is_edge:
                i, j = edges[r]
                q_fwd = 0.5 / E_s + 0.5 / D_s
            else:
                pos = cell_edge_pos[k]
                m1 = len(u1)
                m2 = m1 - 1 if same else len(u2)
                bits1, bits2 = m1.bit_length(), m2.bit_length()
                while True:
                    a = getrandbits(bits1)
                    while a >= m1:
                        a = getrandbits(bits1)
                    b = getrandbits(bits2)
                    while b >= m2:
                        b = getrandbits(bits2)
                    if same and b >= a:
                        b += 1
                    i, j = u1[a], u2[b]
                    if j < i:
                        i, j = j, i
                    if (i, j) not in pos:
                        break
                q_fwd = (0.5 / D_s) if E_s else (1.0 / D_s)

            E_r, D_r, W_r = reverse_counts(s, i, j, not is_edge, D_s)
            # the one-slot memo commit reads; no sampling state is written
            self._drawn = (i, j, not is_edge, W_r, k, s)
            if is_edge:
                q_rev = (0.5 / D_r) if E_r else (1.0 / D_r)
            else:
                q_rev = 0.5 / E_r + 0.5 / D_r
            return i, j, log((q_rev * W) / (q_fwd * W_r))

        def commit(i, j, added):
            # the drawn dyad's post-toggle active weight, cell and stratum
            # if this toggle is the last one drawn; any commit clears them
            di, dj, d_added, W_r, k, s = self._drawn
            self._drawn = _NO_DRAW
            if di != i or dj != j or d_added != added:
                W_r = None
                k = cell_of_pair[class_of[i]][class_of[j]]
                s = cell_stratum[k]
            d = (i, j) if i < j else (j, i)
            edges, pos = cell_edges[k], cell_edge_pos[k]
            if added:
                # the new edge joins the cell's lists; both endpoints were
                # unsaturated before a legal add, so it counts as an
                # unsaturated edge until the saturation pass below corrects
                # for endpoints that just reached their cap
                pos[d] = len(edges)
                edges.append(d)
                E[s] += 1
                cell_unsat[k] += 1
                step, pre = -1, 0
            else:
                # O(1) delete: the last edge takes d's slot
                slot = pos.pop(d)
                last = edges.pop()
                if last != d:
                    edges[slot] = last
                    pos[last] = slot
                E[s] -= 1
                # endpoints that were at cap re-enter the unsat sets
                if deg[i] + 1 != caps[i] and deg[j] + 1 != caps[j]:
                    cell_unsat[k] -= 1
                    return
                step, pre = 1, 1
            # The saturation routine moves an endpoint that just reached
            # its cap (step -1) out of its class's unsaturated set, or one
            # that just dropped below it (step +1) in; its edges to
            # unsaturated partners leave (join) the unsaturated-edge counts.
            few = False
            for v in (i, j):
                if deg[v] + pre != caps[v]:
                    continue
                c = class_of[v]
                members, where = unsat[c], unsat_pos[c]
                if added:
                    slot = where.pop(v)
                    last = members.pop()
                    if last != v:
                        members[slot] = last
                        where[last] = slot
                if W_r is None and len(members) < 2:    # the set without v
                    few = True
                if not added:
                    where[v] = len(members)
                    members.append(v)
                row = cell_of_pair[c]
                for w in adj[v]:
                    cw = class_of[w]
                    if w in unsat_pos[cw]:
                        cell_unsat[row[cw]] += step
            if W_r is not None:
                self.active_weight = W_r
            elif few:
                self.active_weight = weigh(list(map(len, unsat)), s)

        return draw, commit, reverse_counts

    # -- test support ------------------------------------------------------

    def snapshot(self):
        """Canonical view of the mutable state, for rebuild comparisons."""
        return {
            "unsat": [frozenset(lst) for lst in self.unsat],
            "cell_edges": [frozenset(e) for e in self.cell_edges],
            "cell_unsat_edges": list(self.cell_unsat_edges),
            "strat_E": list(self.strat_E),
            "strat_D": self.strat_D,
            "active_weight": self.active_weight,
        }


def make_proposal(net, constraints=None, attrs=None):
    """Choose a proposal for a constraint spec; return (proposal, checker).

    No constraint spec means the unconstrained default.  The checker is
    None when the proposal itself respects the constraints (BDStratTNT);
    otherwise the sampler must reject toggles the checker disallows.
    BDStratTNT serves undirected unipartite networks only, so without
    `strat` other networks fall back to TNT with a checker.
    """
    if constraints is None:
        constraints = ConstraintSpec()
    forced = constraints.force_proposal
    if forced == "uniform":
        proposal = UniformProposal()
    elif forced is None and (constraints.strat_attr is not None or (
            constraints.constrained()
            and not (net.directed or net.bipartite))):
        return BDStratTNT(net, constraints, attrs), None
    else:
        proposal = TntProposal()
    if constraints.constrained():
        checker = ConstraintChecker(net, constraints, attrs)
        checker.validate_network(net)
        return proposal, checker
    return proposal, None
