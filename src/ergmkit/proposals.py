"""Metropolis-Hastings proposal distributions.

Three proposal families:

* uniform: a uniformly random free dyad, symmetric (log q-ratio 0);
* TNT ("tie / no tie"): with probability 1/2 a uniformly random current
  edge, else a uniformly random dyad, so a specific edge is proposed
  with probability 1/(2E) + 1/(2N) and a non-edge with 1/(2N);
* BDStratTNT: TNT generalized with stratification over attribute mixing
  cells, block (forbidden mixing-type) constraints, and bounded-degree
  constraints, implemented rejection-free by maintaining, per mixing
  cell, the unsaturated-vertex sets and an exact eligible-dyad count.

A dyad is proposable under BDStratTNT iff it is not blocked and either
hosts a current edge or has both endpoints below their degree caps.
Within the drawn stratum the proposal is a 1/2-1/2 TNT mixture over
(stratum edges) and (stratum eligible dyads); the q-ratio accounts for
the stratum weights, the post-toggle eligibility counts, and the
renormalization over proposable strata.  Zero-weight strata freeze
their dyads' edge states, like blocks.
"""

import math
import random
from bisect import bisect_right
from functools import partial
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


class UniformProposal:
    """Uniformly random free dyad; symmetric."""

    name = "uniform"

    def bind(self, net, rng):
        """draw() -> (i, j, log_q_ratio) for chains on `net` drawing
        from `rng`."""
        randrange, dyad_at, N = rng.randrange, net.dyad_at, net.dyad_count()

        def draw():
            i, j = dyad_at(randrange(N))
            return i, j, _ZERO

        return draw

    def propose(self, net, rng):
        return Proposal(*self.bind(net, rng)())

    def commit(self, net, i, j, added):
        pass


class TntProposal:
    """Tie/no-tie mixture with exact forward/backward ratio.

    With no edges the dyad branch fires with probability 1 and the
    reverse edge-branch term enters the ratio, so the chain remains
    exactly reversible from the empty network.
    """

    name = "tnt"

    def bind(self, net, rng):
        """draw() -> (i, j, log_q_ratio) for chains on `net` drawing
        from `rng`."""
        random, randrange, log = rng.random, rng.randrange, math.log
        edges, adj, dyad_at = net.edges, net.adj, net.dyad_at
        N = net.dyad_count()

        def draw():
            E = len(edges)
            if E and random() < 0.5:
                i, j = edges[randrange(E)]
                is_edge = True
            else:
                i, j = dyad_at(randrange(N))
                is_edge = j in adj[i]
            if is_edge:
                q_fwd = 0.5 / E + 0.5 / N
                q_rev = 0.5 / N if E > 1 else 1.0 / N
            else:
                # with no edges the dyad branch is forced
                q_fwd = 0.5 / N if E else 1.0 / N
                q_rev = 0.5 / (E + 1) + 0.5 / N
            return i, j, log(q_rev / q_fwd)

        return draw

    def propose(self, net, rng):
        return Proposal(*self.bind(net, rng)())

    def commit(self, net, i, j, added):
        pass


class ConstraintChecker:
    """Validates toggles against bd caps and blocks.

    Used to reject constraint-violating proposals from plain proposals
    (the target assigns them zero probability) and, in tests, to wrap
    BDStratTNT and assert it never emits a violating proposal.
    """

    def __init__(self, net, constraints, attrs=None):
        n = net.n
        self.caps_out = _resolve_caps(constraints.bd_maxout, n)
        if net.directed:
            self.caps_in = _resolve_caps(constraints.bd_maxin, n)
        else:
            if constraints.bd_maxin is not None:
                raise DataError("maxin applies to directed networks only")
            self.caps_in = None
        self.blocked = blocks_rule(net, constraints, attrs)
        if self.blocked is not None:
            self.block_level, self.forbid = self.blocked

    def allowed(self, net, i, j):
        """May dyad (i, j) be toggled from the current state?"""
        if self.blocked is not None and self.forbid[self.block_level[i]][self.block_level[j]]:
            return False
        if j in net.adj[i]:
            return True  # removals never violate caps
        if self.caps_in is None:
            return net.deg[i] < self.caps_out[i] and net.deg[j] < self.caps_out[j]
        return net.deg[i] < self.caps_out[i] and net.in_deg[j] < self.caps_in[j]

    def validate_network(self, net):
        if self.blocked is not None:
            lev, forbid = self.block_level, self.forbid
            for i, j in net.edges:
                if forbid[lev[i]][lev[j]]:
                    raise ConstraintError(f"edge ({i + 1}, {j + 1}) violates blocks")
        if self.caps_in is None:
            for v, d in enumerate(net.deg):
                if d > self.caps_out[v]:
                    raise ConstraintError(f"vertex {v + 1} exceeds its degree cap")
        else:
            for v in range(net.n):
                if net.deg[v] > self.caps_out[v] or net.in_deg[v] > self.caps_in[v]:
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
    it maintains the unsaturated-vertex set; per stratum the total edge
    and eligible-dyad counts.  All counts are updated incrementally by
    ``commit`` in time proportional to the affected cells; ``propose``
    reads the post-toggle counts of the q-ratio in the same time,
    without writing them.

    Undirected unipartite networks only.
    """

    name = "bdstrat"

    def __init__(self, net, constraints, attrs=None):
        if net.directed or net.bipartite:
            raise DataError("BDStratTNT supports undirected unipartite networks")
        n = net.n
        self.n = n
        self.caps = _resolve_caps(constraints.bd_maxout, n)
        if constraints.bd_maxin is not None:
            raise DataError("maxin applies to directed networks only")

        # blocks level per vertex
        blev, forbid = (blocks_rule(net, constraints, attrs)
                        or ([0] * n, [[False]]))

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
        self.class_key = [None] * len(class_lut)
        for key, c in class_lut.items():
            self.class_key[c] = key
        C = len(self.class_key)

        # strata: unordered strat-level pairs; cells: unordered class pairs
        self.strata = [(a, b) for a in range(L) for b in range(a, L)]
        strat_lut = {pair: s for s, pair in enumerate(self.strata)}
        self.cell_c1 = []
        self.cell_c2 = []
        self.cell_stratum = []
        # per class pair: their cell, None when blocked; per class: the
        # (stratum, partner class) of every cell the class belongs to
        self.cell_of_pair = [[None] * C for _ in range(C)]
        self.partners = [[] for _ in range(C)]
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
                self.partners[c1].append((s, c2))
                if c2 != c1:
                    self.partners[c2].append((s, c1))
        K = len(self.cell_c1)
        S = len(self.strata)
        self.strat_cells = [[] for _ in range(S)]
        for k in range(K):
            self.strat_cells[self.cell_stratum[k]].append(k)

        # weights over strata
        self.weights = self._stratum_weights(net, constraints, slev, S, strat_lut)

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
        for (i, j) in net.edges:
            if net.deg[i] > caps[i] or net.deg[j] > caps[j]:
                raise ConstraintError("initial network violates the degree caps")
            k = self._cell_of_dyad(i, j)
            if k is None:
                raise ConstraintError(f"initial edge ({i + 1}, {j + 1}) violates blocks")
            if self.weights[self.cell_stratum[k]] > 0.0:
                self.cell_edge_pos[k][(i, j)] = len(self.cell_edges[k])
                self.cell_edges[k].append((i, j))
                if net.deg[i] < caps[i] and net.deg[j] < caps[j]:
                    self.cell_unsat_edges[k] += 1

        self.strat_E = [0] * S
        self.strat_D = [0] * S
        for k in range(K):
            s = self.cell_stratum[k]
            self.strat_E[s] += len(self.cell_edges[k])
        for s in range(S):
            self.strat_D[s] = sum(self._cell_eligible(k) for k in self.strat_cells[s])
        self.active_weight = sum(w for s, w in enumerate(self.weights)
                                 if w > 0.0 and self.strat_D[s] > 0)
        self._cum_weights = []
        acc = 0.0
        for w in self.weights:
            acc += w
            self._cum_weights.append(acc)
        self._total_weight = acc
        if acc <= 0.0:
            raise ConstraintError("all strata have zero weight")

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

    def _cell_eligible(self, k):
        """Eligible dyads in cell k: current edges + unsaturated non-edges."""
        c1, c2 = self.cell_c1[k], self.cell_c2[k]
        if c1 == c2:
            u = len(self.unsat[c1])
            pairs = u * (u - 1) // 2
        else:
            pairs = len(self.unsat[c1]) * len(self.unsat[c2])
        return pairs - self.cell_unsat_edges[k] + len(self.cell_edges[k])

    # -- proposal --------------------------------------------------------

    def bind(self, net, rng):
        """draw() -> (i, j, log_q_ratio) for chains on `net` drawing
        from `rng`."""
        return partial(self.propose, net, rng)

    def propose(self, net, rng):
        if self.active_weight <= 0.0:
            raise FrozenStateError("no stratum has a proposable dyad")
        cum = self._cum_weights
        strat_D = self.strat_D
        while True:
            s = bisect_right(cum, rng.random() * self._total_weight)
            if s < len(strat_D) and strat_D[s] > 0 and self.weights[s] > 0.0:
                break
        E_s = self.strat_E[s]
        D_s = strat_D[s]
        if E_s and rng.random() < 0.5:
            dyad = self._draw_stratum_edge(s, rng)
            is_edge = True
        else:
            dyad, is_edge = self._draw_stratum_dyad(s, rng)
        i, j = dyad
        if is_edge:
            q_fwd = 0.5 / E_s + 0.5 / D_s
        else:
            q_fwd = (0.5 / D_s) if E_s else (1.0 / D_s)
        W = self.active_weight

        added = not is_edge
        E_r, D_r, W_r, moved = self._reverse_counts(net, s, i, j, added)
        # Leave the network and the lists in the order that toggling
        # the dyad, committing, and rolling both back would: a removed
        # edge, or the endpoints an added edge saturates, move to the
        # end of their lists, and the adjacency sets see the dyad leave
        # and come back (or come and leave), which can reorder them.
        # The order decides the dyads later draws pick and the order of
        # gwesp's sums, and this one keeps seeded runs byte-identical to
        # versions that read the reverse counts by such a rollback.
        net.toggle(i, j)
        net.toggle(i, j)
        if added:
            for v in moved:
                c = self.class_of[v]
                _swap_remove(self.unsat[c], self.unsat_pos[c], v)
            for v in moved:
                c = self.class_of[v]
                _append(self.unsat[c], self.unsat_pos[c], v)
        else:
            k = self._cell_of_dyad(i, j)
            _swap_remove(self.cell_edges[k], self.cell_edge_pos[k], dyad)
            _append(self.cell_edges[k], self.cell_edge_pos[k], dyad)

        if is_edge:
            q_rev = (0.5 / D_r) if E_r else (1.0 / D_r)
        else:
            q_rev = 0.5 / E_r + 0.5 / D_r
        return Proposal(i, j, math.log((q_rev * W) / (q_fwd * W_r)))

    def _reverse_counts(self, net, s, i, j, added):
        """(E_r, D_r, W_r, moved) after toggling dyad (i, j) of stratum
        s, which `added` says adds an edge, read off the state before
        the toggle without writing the network or the proposal.

        E_r and D_r are stratum s's edge and eligible counts and W_r the
        active weight that ``commit`` would leave.  ``moved`` lists the
        endpoints that reach their cap (added) or drop below it
        (removed), in the order commit moves them out of or into the
        unsaturated sets; the pass applies commit's deltas to D with
        those moves made virtually, one endpoint after the other.

        W changes only where a stratum's D crosses zero, and D never
        falls below the stratum's edge count.  An add only takes pairs
        out of the unsaturated sets, a removal only puts pairs in, and
        s keeps the toggled dyad eligible either way.  So only strata
        other than s that hold no edges can cross, and the pass tracks
        D for s and for those.
        """
        caps, deg, E, D = self.caps, net.deg, self.strat_E, self.strat_D
        pre, step = (1, -1) if added else (0, 1)   # add: degrees after it
        E_r = E[s] - step
        if deg[i] + pre == caps[i]:
            moved = (i, j) if deg[j] + pre == caps[j] else (i,)
        elif deg[j] + pre == caps[j]:
            moved = (j,)
        else:
            # both endpoints keep their saturation: D is unchanged
            return E_r, D[s], self.active_weight, ()
        dD = {s: 0 if added else -1}
        get = dD.get
        class_of, unsat, unsat_pos = self.class_of, self.unsat, self.unsat_pos
        cell_of_pair, cell_stratum = self.cell_of_pair, self.cell_stratum
        flipped = first = None      # the endpoint moved before v, its class
        for v in moved:
            c = class_of[v]
            # unsaturated pairs through v in every cell touching class c,
            # counted without v and after the move of `flipped`
            for t, o in self.partners[c]:
                if t == s or not E[t]:
                    u = len(unsat[o])
                    if o == first:
                        u += step
                    if o == c and added:
                        u -= 1
                    dD[t] = get(t, 0) + step * u
            # v's edges after the toggle to unsaturated partners leave
            # (join) the unsaturated-edge counts; other strata they touch
            # hold edges.  The toggled dyad is one of them on an add,
            # with a partner unsaturated before it, and none on a removal.
            other = j if v == i else i
            for w in net.adj[v]:
                if w == other:
                    continue
                cw = class_of[w]
                if cell_stratum[cell_of_pair[c][cw]] == s and \
                        (w in unsat_pos[cw]) != (w == flipped):
                    dD[s] -= step
            if added and other != flipped:
                dD[s] -= step
            flipped, first = v, c
        W_r = self.active_weight
        weights = self.weights
        for t, delta in dD.items():
            old = D[t]
            if (old == 0) != (old + delta == 0) and weights[t] > 0.0:
                W_r += weights[t] if old == 0 else -weights[t]
        return E_r, D[s] + dD[s], W_r, moved

    def _draw_stratum_edge(self, s, rng):
        r = rng.randrange(self.strat_E[s])
        for k in self.strat_cells[s]:
            m = len(self.cell_edges[k])
            if r < m:
                return self.cell_edges[k][r]
            r -= m
        raise AssertionError("stratum edge count diverged")

    def _draw_stratum_dyad(self, s, rng):
        r = rng.randrange(self.strat_D[s])
        for k in self.strat_cells[s]:
            m = self._cell_eligible(k)
            if r < m:
                edges = self.cell_edges[k]
                if r < len(edges):
                    return edges[r], True
                return self._draw_cell_nonedge(k, rng), False
            r -= m
        raise AssertionError("stratum eligible count diverged")

    def _draw_cell_nonedge(self, k, rng):
        """Uniform unsaturated non-edge in cell k (rejecting current edges)."""
        c1, c2 = self.cell_c1[k], self.cell_c2[k]
        u1 = self.unsat[c1]
        pos = self.cell_edge_pos[k]
        if c1 == c2:
            m = len(u1)
            while True:
                a = rng.randrange(m)
                b = rng.randrange(m - 1)
                if b >= a:
                    b += 1
                i, j = u1[a], u1[b]
                if j < i:
                    i, j = j, i
                if (i, j) not in pos:
                    return (i, j)
        u2 = self.unsat[c2]
        while True:
            i = u1[rng.randrange(len(u1))]
            j = u2[rng.randrange(len(u2))]
            if j < i:
                i, j = j, i
            if (i, j) not in pos:
                return (i, j)

    # -- incremental state maintenance ------------------------------------

    def commit(self, net, i, j, added):
        """Update all bookkeeping for a toggle that was just applied."""
        caps, deg = self.caps, net.deg
        k = self._cell_of_dyad(i, j)
        s = self.cell_stratum[k]
        if added:
            # the new edge joins the cell's lists; both endpoints were
            # unsaturated before a legal add, so it counts as an
            # unsaturated edge until the saturation pass below corrects
            # for endpoints that just reached their cap (the edge and
            # unsaturated-edge bumps to D cancel exactly)
            d = (i, j) if i < j else (j, i)
            _append(self.cell_edges[k], self.cell_edge_pos[k], d)
            self.strat_E[s] += 1
            self.cell_unsat_edges[k] += 1
            if deg[i] == caps[i]:
                self._saturate(net, i)
            if deg[j] == caps[j]:
                self._saturate(net, j)
        else:
            d = (i, j) if i < j else (j, i)
            _swap_remove(self.cell_edges[k], self.cell_edge_pos[k], d)
            self.strat_E[s] -= 1
            # endpoints that were at cap re-enter the unsat sets
            i_was_sat = deg[i] + 1 == caps[i]
            j_was_sat = deg[j] + 1 == caps[j]
            if i_was_sat or j_was_sat:
                self._add_D(s, -1)
                if i_was_sat:
                    self._unsaturate(net, i)
                if j_was_sat:
                    self._unsaturate(net, j)
            else:
                self.cell_unsat_edges[k] -= 1

    def _saturate(self, net, v):
        c = self.class_of[v]
        _swap_remove(self.unsat[c], self.unsat_pos[c], v)
        # unsaturated-pair counts shrink in every cell touching class c,
        # by v's unsaturated partners there
        unsat, cell_stratum = self.unsat, self.cell_stratum
        for t, o in self.partners[c]:
            u = len(unsat[o])
            if u:
                self._add_D(t, -u)
        # v's incident edges with an unsaturated partner stop being
        # unsaturated edges (their dyads stay eligible exactly once,
        # as edges)
        class_of, unsat_pos = self.class_of, self.unsat_pos
        cell_unsat = self.cell_unsat_edges
        for w in net.adj[v]:
            if w in unsat_pos[class_of[w]]:
                k = self._cell_of_dyad(v, w)
                cell_unsat[k] -= 1
                self._add_D(cell_stratum[k], 1)

    def _unsaturate(self, net, v):
        c = self.class_of[v]
        # pair counts grow, by v's unsaturated partners, before v is appended
        unsat, cell_stratum = self.unsat, self.cell_stratum
        for t, o in self.partners[c]:
            u = len(unsat[o])
            if u:
                self._add_D(t, u)
        _append(unsat[c], self.unsat_pos[c], v)
        class_of, unsat_pos = self.class_of, self.unsat_pos
        cell_unsat = self.cell_unsat_edges
        for w in net.adj[v]:
            if w in unsat_pos[class_of[w]]:
                k = self._cell_of_dyad(v, w)
                cell_unsat[k] += 1
                self._add_D(cell_stratum[k], -1)

    def _add_D(self, s, delta):
        D = self.strat_D
        old = D[s]
        new = old + delta
        D[s] = new
        if (old == 0) != (new == 0):
            w = self.weights[s]
            if w > 0.0:
                if old == 0:
                    self.active_weight += w
                else:
                    self.active_weight -= w

    # -- test support ------------------------------------------------------

    def snapshot(self):
        """Canonical view of the mutable state, for rebuild comparisons."""
        return {
            "unsat": [frozenset(lst) for lst in self.unsat],
            "cell_edges": [frozenset(e) for e in self.cell_edges],
            "cell_unsat_edges": list(self.cell_unsat_edges),
            "strat_E": list(self.strat_E),
            "strat_D": list(self.strat_D),
            "active_weight": round(self.active_weight, 12),
        }


def _swap_remove(lst, pos, x):
    """Delete x from a list kept with an item->slot map, in O(1): the
    last item takes x's slot."""
    slot = pos.pop(x)
    last = lst.pop()
    if last != x:
        lst[slot] = last
        pos[last] = slot


def _append(lst, pos, x):
    pos[x] = len(lst)
    lst.append(x)


def make_proposal(net, constraints=None, attrs=None):
    """Choose a proposal for a constraint spec; return (proposal, checker).

    No constraint spec means the unconstrained default.  The checker is
    None when the proposal itself respects the constraints (BDStratTNT);
    otherwise the sampler must reject toggles the checker disallows.
    """
    if constraints is None:
        constraints = ConstraintSpec()
    forced = constraints.force_proposal
    if forced == "uniform":
        proposal = UniformProposal()
    elif forced is None and (constraints.strat_attr is not None
                             or constraints.constrained()):
        return BDStratTNT(net, constraints, attrs), None
    else:
        proposal = TntProposal()
    if constraints.constrained():
        checker = ConstraintChecker(net, constraints, attrs)
        checker.validate_network(net)
        return proposal, checker
    return proposal, None
