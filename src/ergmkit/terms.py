"""Statistic term catalog: full summaries and change scores.

Every term knows its exact summary statistic g(y) and the change score
for a dyad, defined as g(y with the edge) - g(y without the edge) with
the rest of the network held fixed.  Change scores are therefore
independent of the dyad's current state; degree- and neighbor-based
terms explicitly discount the toggled dyad when reading the adjacency
structure.

Supported terms: edges; triangle (undirected common-neighbor triangles,
directed transitive triples); nodematch(attr, diff); nodefactor(attr,
levels); nodecov(attr); absdiff(attr); concurrent; degree(d);
gwdegree(decay, fixed=true); gwesp(decay, fixed=true).  The
geometrically weighted terms support fixed decay only.

For the MH chain, which SAN anneals through, each term binds its
change score to one network once per chain (``change_function``): a closure
``f(i, j, present) -> list`` over the network's live ``adj``, ``in_adj``
(``adj`` itself unless directed) and ``deg`` and the term's constants.  ``present`` is the dyad's state
before the toggle, which the step already knows.  The closure is each
term's one scalar change score: ``BoundModel.change`` binds the closures
for a single dyad, and the block sweep of the shared-partner terms calls
them on its support.  A closure may return one shared constant list,
because its callers only copy the elements out
(``delta += f(i, j, present)``) and never keep or mutate the list:
edges and nodematch always do (with diff, from a table of one-hot rows,
one per level, or one zero row); gwesp and undirected triangle return
a shared ``[0.0]`` on a dyad without a shared partner (most dyads of a
sparse network), and concurrent and degree pick their integer score,
-2 to 2, from a table of shared lists.  Binding does no O(n) work: the
power table of the geometrically weighted terms is built on their
first bind or block sweep and reused by every later one.

Each term also scores a block of dyads at once (``changes``), for the
full-dyad sweeps of the pseudo-likelihood, and the leading run of
tabular terms is also one class table (``BoundModel.class_table``), for
the MH step.  Closures, block rows and the class table are the three
consumers, and they agree bit for bit: the attribute and degree terms
do in numpy the float operations their closures do, elementwise; the
shared-partner terms are exactly 0.0 off the dyads with a shared
partner and call their closure on them; and the class table holds the
closures' own lists, from one call per pair of vertex classes.  A term
is tabular when its change score is a function of per-vertex
categorical levels alone (edges, nodematch, nodefactor), so one vertex
pair stands for every pair of its classes.  The arrays that
``changes`` reads are built on its first call, and the class table on
the first chain's, so binding a model does not pay for either.

A dyad-independent term's change score does not depend on the rest of
the network, so its summary is the sum of its block change scores over
the network's edges (``math.fsum`` per column); only the dyad-dependent
terms write their own ``summary``.
"""

import math

import numpy as np

from .errors import DataError
from .formula import parse_model_formula

__all__ = ["BoundModel", "bind"]


# shared constant change scores: _STEPS[k] is [float(k)] for k in -2..2,
# indexed by k itself (negative k from the end)
_STEPS = ([0.0], [1.0], [2.0], [-2.0], [-1.0])
_ZERO = _STEPS[0]


def _require_undirected(net, name):
    if net.directed:
        raise DataError(f"term {name!r} is defined for undirected networks only")


def _support_mask(net, tails, heads):
    """Dyads of the block that have a shared partner: a superset of
    those where a shared-partner count (triangle, gwesp) is nonzero."""
    adj, inn, directed = net.adj, net.in_adj, net.directed
    pair_tails, pair_heads = [], []
    for i in range(int(tails[0]), int(tails[-1]) + 1) if len(tails) else ():
        near = set()
        for k in adj[i]:
            near |= adj[k]
            if directed:
                near |= inn[k]
        if directed:
            for k in inn[i]:
                near |= adj[k]
        pair_tails += [i] * len(near)
        pair_heads += near
    return net.dyad_mask(tails, heads, pair_tails, pair_heads)


def _changes_on_support(term, net, tails, heads, present):
    """A one-column shared-partner term: 0.0 off the support, its bound
    change closure on it."""
    out = np.zeros((len(tails), 1))
    on = np.flatnonzero(_support_mask(net, tails, heads))
    f = term.change_function(net)
    out[on, 0] = [f(i, j, p)[0] for i, j, p in
                  zip(tails[on].tolist(), heads[on].tolist(),
                      present[on].tolist())]
    return out


def _free_degrees(net, tails, heads, present):
    """Degrees of both endpoints with the dyad itself discounted."""
    deg = np.asarray(net.deg)
    return deg[tails] - present, deg[heads] - present


def _resolve_levels(levels_arg, level_names, term):
    """Map a `levels` argument to retained 0-based level indices.

    Positive integers retain those (1-based, in sorted-level order),
    negative integers drop them; ``None`` drops the first level.
    """
    L = len(level_names)
    if levels_arg is None:
        keep = list(range(1, L))
    else:
        ints = (levels_arg,) if isinstance(levels_arg, int) else levels_arg
        if not isinstance(ints, tuple) or \
                not all(isinstance(x, int) and x != 0 for x in ints):
            raise DataError(f"{term}: levels must be nonzero integers")
        if all(x > 0 for x in ints):
            keep = [x - 1 for x in ints]
        elif all(x < 0 for x in ints):
            drop = {-x - 1 for x in ints}
            keep = [k for k in range(L) if k not in drop]
        else:
            raise DataError(f"{term}: cannot mix retained and dropped levels")
        if any(k < 0 or k >= L for k in keep):
            raise DataError(f"{term}: level index out of range (have {L} levels)")
    if not keep:
        raise DataError(f"{term}: no levels retained")
    return keep


class _DyadIndependent:
    """A term whose g(y) sums its change scores over y's edges."""

    dyad_independent = True
    # a tabular term's change score is a function of its per-vertex
    # categorical levels ``lev`` (None: of no vertex attribute)
    tabular = False

    def summary(self, net):
        edges = np.array(net.edges, dtype=np.intp).reshape(-1, 2)
        block = self.changes(net, edges[:, 0], edges[:, 1],
                             np.ones(len(edges), dtype=bool))
        return [math.fsum(col) for col in block.T.tolist()]


class _Edges(_DyadIndependent):
    tabular = True
    lev = None      # one class of vertices

    def __init__(self, term, net, attrs):
        self.names = ["edges"]
        self.dim = 1

    def change_function(self, net):
        one = [1.0]
        return lambda i, j, present: one

    def changes(self, net, tails, heads, present):
        return np.ones((len(tails), 1))


class _Triangle:
    dyad_independent = False

    def __init__(self, term, net, attrs):
        self.names = ["triangle"]
        self.dim = 1

    def summary(self, net):
        adj = net.adj
        if net.directed:
            out = adj
            total = sum(len(out[i] & out[j]) for i, j in net.edges)
            return [float(total)]
        total = sum(len(adj[i] & adj[j]) for i, j in net.edges)
        return [total / 3.0]

    def change_function(self, net):
        out = net.adj
        if net.directed:
            inn = net.in_adj
            return lambda i, j, present: [float(
                len(out[i] & out[j]) + len(inn[i] & inn[j])
                + len(out[i] & inn[j]))]

        def change(i, j, present):
            ai, aj = out[i], out[j]
            if ai.isdisjoint(aj):
                return _ZERO
            return [float(len(ai & aj))]

        return change

    def changes(self, net, tails, heads, present):
        return _changes_on_support(self, net, tails, heads, present)


class _Nodematch(_DyadIndependent):
    tabular = True

    def __init__(self, term, net, attrs):
        attr = term.arg("attr")
        if not isinstance(attr, str):
            raise DataError("nodematch needs a string attr")
        if attrs is None or attr not in attrs:
            raise DataError(f"network has no attribute {attr!r}")
        self.levels, self.lev = attrs.categorical(attr)
        self._lev = None
        self.diff = bool(term.arg("diff", False))
        if self.diff:
            self.names = [f"nodematch.{attr}.{l}" for l in self.levels]
            self.dim = len(self.levels)
        else:
            self.names = [f"nodematch.{attr}"]
            self.dim = 1

    def change_function(self, net):
        lev = self.lev
        if not self.diff:
            match, other = [1.0], [0.0]
            return lambda i, j, present: match if lev[i] == lev[j] else other
        # one shared one-hot row per level, and one shared zero row
        rows = [[float(k == l) for k in range(self.dim)] for l in range(self.dim)]
        zero = [0.0] * self.dim
        return lambda i, j, present: rows[lev[i]] if lev[i] == lev[j] else zero

    def changes(self, net, tails, heads, present):
        if self._lev is None:
            self._lev = np.asarray(self.lev)
        li, lj = self._lev[tails], self._lev[heads]
        match = li == lj
        if not self.diff:
            return match.astype(float)[:, None]
        out = np.zeros((len(tails), self.dim))
        out[match, li[match]] = 1.0
        return out


class _Nodefactor(_DyadIndependent):
    tabular = True

    def __init__(self, term, net, attrs):
        attr = term.arg("attr")
        if not isinstance(attr, str):
            raise DataError("nodefactor needs a string attr")
        if attrs is None or attr not in attrs:
            raise DataError(f"network has no attribute {attr!r}")
        self.levels, self.lev = attrs.categorical(attr)
        keep = _resolve_levels(term.arg("levels"), self.levels, "nodefactor")
        self.slot = {k: s for s, k in enumerate(keep)}
        self._slot = None
        self.names = [f"nodefactor.{attr}.{self.levels[k]}" for k in keep]
        self.dim = len(keep)

    def change_function(self, net):
        slot, lev, dim = self.slot.get, self.lev, self.dim

        def change(i, j, present):
            out = [0.0] * dim
            s = slot(lev[i])
            if s is not None:
                out[s] += 1.0
            s = slot(lev[j])
            if s is not None:
                out[s] += 1.0
            return out

        return change

    def changes(self, net, tails, heads, present):
        if self._slot is None:   # per vertex: its level's slot, or -1
            self._slot = np.array([self.slot.get(l, -1) for l in self.lev])
        out = np.zeros((len(tails), self.dim))
        rows = np.arange(len(tails))
        for ends in (tails, heads):
            s = self._slot[ends]
            kept = s >= 0
            out[rows[kept], s[kept]] += 1.0
        return out


class _NumericAttribute(_DyadIndependent):
    """A one-column term of a numeric vertex attribute."""

    def __init__(self, term, net, attrs):
        attr = term.arg("attr")
        if attrs is None or attr not in attrs:
            raise DataError(f"network has no attribute {attr!r}")
        try:
            self.x = attrs.numeric(attr)
        except TypeError as exc:
            raise DataError(f"{term.name}: {exc}") from None
        self._x = None
        self.names = [f"{term.name}.{attr}"]
        self.dim = 1


class _Nodecov(_NumericAttribute):
    def change_function(self, net):
        x = self.x
        return lambda i, j, present: [x[i] + x[j]]

    def changes(self, net, tails, heads, present):
        if self._x is None:
            self._x = np.asarray(self.x, dtype=float)
        return (self._x[tails] + self._x[heads])[:, None]


class _Absdiff(_NumericAttribute):
    def change_function(self, net):
        x = self.x
        return lambda i, j, present: [abs(x[i] - x[j])]

    def changes(self, net, tails, heads, present):
        if self._x is None:
            self._x = np.asarray(self.x, dtype=float)
        return np.abs(self._x[tails] - self._x[heads])[:, None]


class _Concurrent:
    dyad_independent = False

    def __init__(self, term, net, attrs):
        _require_undirected(net, "concurrent")
        self.names = ["concurrent"]
        self.dim = 1

    def summary(self, net):
        return [float(sum(1 for d in net.deg if d >= 2))]

    def change_function(self, net):
        deg, steps = net.deg, _STEPS
        return lambda i, j, present: steps[
            (deg[i] - present == 1) + (deg[j] - present == 1)]

    def changes(self, net, tails, heads, present):
        di, dj = _free_degrees(net, tails, heads, present)
        return ((di == 1).astype(float) + (dj == 1))[:, None]


class _Degree:
    dyad_independent = False

    def __init__(self, term, net, attrs):
        _require_undirected(net, "degree")
        d = term.arg("d")
        if not isinstance(d, int) or d < 0:
            raise DataError("degree(d) needs a nonnegative integer")
        self.d = d
        self.names = [f"degree{d}"]
        self.dim = 1

    def summary(self, net):
        d = self.d
        return [float(sum(1 for k in net.deg if k == d))]

    def change_function(self, net):
        d, deg, steps = self.d, net.deg, _STEPS

        def change(i, j, present):
            di = deg[i] - present
            dj = deg[j] - present
            return steps[(di + 1 == d) - (di == d) + (dj + 1 == d) - (dj == d)]

        return change

    def changes(self, net, tails, heads, present):
        d = self.d
        di, dj = _free_degrees(net, tails, heads, present)
        count = ((di + 1 == d).astype(np.int64) - (di == d)
                 + (dj + 1 == d) - (dj == d))
        return count.astype(float)[:, None]


def _fixed_decay(term, name):
    decay = term.arg("decay")
    if decay is None:
        raise DataError(f"{name} needs a decay value")
    try:
        decay = float(decay)
    except (TypeError, ValueError):
        decay = math.nan
    # the weights 1 - exp(-decay) must lie in [0, 1): above about 36.7
    # they round to 1 and the term degenerates
    if not (decay >= 0.0 and 1.0 - math.exp(-decay) < 1.0):
        raise DataError(f"{name} needs a nonnegative decay below about 36.7, "
                        f"got {term.arg('decay')!r}")
    if term.arg("fixed", True) is not True:
        raise DataError(f"{name} supports fixed decay only")
    return decay


class _GeometricallyWeighted:
    """A fixed-decay term weighted by powers of u = 1 - exp(-decay)."""

    dyad_independent = False

    def __init__(self, term, net, attrs):
        _require_undirected(net, self.kind)
        self.decay = _fixed_decay(term, self.kind)
        self.u = 1.0 - math.exp(-self.decay)
        self.scale = math.exp(self.decay)
        self._pow = None
        self.names = [f"{self.kind}.fixed.{self.decay:g}"]
        self.dim = 1

    def _powers(self, n):
        """u ** k for every degree or shared-partner count k < n, by
        Python's float power, which np.power need not match bit for bit;
        built on first use and kept."""
        if self._pow is None:
            u = self.u
            self._pow = [u ** k for k in range(n)]
        return self._pow


class _Gwdegree(_GeometricallyWeighted):
    kind = "gwdegree"

    def summary(self, net):
        u, scale = self.u, self.scale
        return [math.fsum(scale * (1.0 - u ** d) for d in net.deg if d > 0)]

    def change_function(self, net):
        pw, deg = self._powers(net.n), net.deg
        return lambda i, j, present: [pw[deg[i] - present] + pw[deg[j] - present]]

    def changes(self, net, tails, heads, present):
        pw = np.array(self._powers(net.n))
        di, dj = _free_degrees(net, tails, heads, present)
        return (pw[di] + pw[dj])[:, None]


class _Gwesp(_GeometricallyWeighted):
    kind = "gwesp"

    def summary(self, net):
        u, scale = self.u, self.scale
        adj = net.adj
        return [math.fsum(scale * (1.0 - u ** len(adj[i] & adj[j]))
                          for i, j in net.edges)]

    def change_function(self, net):
        # with the dyad present, j lies in ai & adj[k] and i in
        # aj & adj[k] for every common partner k: no exponent is < 0
        pw, scale, adj = self._powers(net.n), self.scale, net.adj

        def change(i, j, present):
            ai, aj = adj[i], adj[j]
            if ai.isdisjoint(aj):   # scale * (1.0 - pw[0]) is exactly 0.0
                return _ZERO
            common = ai & aj
            total = scale * (1.0 - pw[len(common)])
            for k in common:
                ak = adj[k]
                total += pw[len(ai & ak) - present] + pw[len(aj & ak) - present]
            return [total]

        return change

    def changes(self, net, tails, heads, present):
        return _changes_on_support(self, net, tails, heads, present)


# the most vertex classes a class table covers; with more, its run is
# empty.  At 16 classes binding a kernel's slot lists costs about one MH
# step, and the table's one-time build about half a Chain.start at
# n = 2000; at 32, one and a half steps and a whole Chain.start
_MAX_CLASSES = 16


_TERM_CLASSES = {
    "edges": _Edges,
    "triangle": _Triangle,
    "nodematch": _Nodematch,
    "nodefactor": _Nodefactor,
    "nodecov": _Nodecov,
    "absdiff": _Absdiff,
    "concurrent": _Concurrent,
    "degree": _Degree,
    "gwdegree": _Gwdegree,
    "gwesp": _Gwesp,
}


class BoundModel:
    """A ModelSpec resolved against a network's shape and attributes.

    A bound model is immutable and may be shared across cloned networks
    of the same shape; all evaluation methods are read-only (the class
    table is derived from the vertex levels, once, on first use).
    """

    def __init__(self, spec, net, attrs=None):
        if isinstance(spec, str):
            spec = parse_model_formula(spec)
        self.spec = spec
        self.n = net.n
        self.directed = net.directed
        self.bipartite = net.bipartite
        self._terms = []
        self.names = []
        self.offset_mask = []
        self.dyad_independent_mask = []
        for term in spec.terms:
            impl = _TERM_CLASSES[term.name](term, net, attrs)
            self._terms.append(impl)
            self.names.extend(impl.names)
            mask = [False] * impl.dim
            if term.offset:
                if term.offset_mask is None:
                    mask = [True] * impl.dim
                else:
                    for k in term.offset_mask:
                        if not (1 <= abs(k) <= impl.dim):
                            raise DataError(
                                f"offset mask entry {k} out of range for "
                                f"{term.name} (dim {impl.dim})")
                    if all(k > 0 for k in term.offset_mask):
                        for k in term.offset_mask:
                            mask[k - 1] = True
                    elif all(k < 0 for k in term.offset_mask):
                        mask = [True] * impl.dim
                        for k in term.offset_mask:
                            mask[-k - 1] = False
                    else:
                        raise DataError("offset mask cannot mix signs")
            self.offset_mask.extend(mask)
            self.dyad_independent_mask.extend([impl.dyad_independent] * impl.dim)
        self.p = len(self.names)
        self._class_table = None
        self.free_index = [k for k in range(self.p) if not self.offset_mask[k]]
        self.offset_index = [k for k in range(self.p) if self.offset_mask[k]]

    @property
    def n_free(self):
        return len(self.free_index)

    def summary(self, net):
        """Exact statistic vector g(y)."""
        out = []
        for t in self._terms:
            out.extend(t.summary(net))
        return out

    def change(self, net, i, j):
        """Change score for dyad (i, j), independent of its state: the
        closures of ``change_functions`` bound for this one call."""
        present = j in net.adj[i]
        out = []
        for t in self._terms:
            out += t.change_function(net)(i, j, present)
        return out

    def change_functions(self, net, first=0):
        """Each term's change score bound to `net`, in order, from term
        `first` on: closures f(i, j, present) -> list whose results,
        concatenated, are the change score of dyad (i, j) when `present`
        is its state.  The chain binds the terms after its class table's
        run once, for MCMC and SAN; they are not kept on the model,
        which multi-process chains pickle."""
        return [t.change_function(net) for t in self._terms[first:]]

    def class_table(self, net):
        """The leading run of tabular terms as one table, built on the
        first call and kept: (k, width, classes, rows).

        The run is the first k terms up to the first one that is not
        tabular (edges, nodematch, nodefactor), and width is the number
        of its statistics.  classes[v] numbers vertex v's class, its
        tuple of the run's levels, and rows[a][b] is the run's change
        score of any dyad from a class-a to a class-b vertex: the run's
        closures' lists concatenated, from one call each on one vertex
        pair of those classes, so they are the closures' floats.  With
        more than _MAX_CLASSES classes the run is empty (k = width = 0):
        one class, and one empty row.  The vertices' levels are fixed at
        bind, so the table serves every network of the model's shape.
        """
        if self._class_table is None:
            self._class_table = self._tabulate(net)
        return self._class_table

    def _tabulate(self, net):
        run = []
        for t in self._terms:
            if not getattr(t, "tabular", False):
                break
            run.append(t)
        levs = [t.lev for t in run if t.lev is not None]
        classes, reps = [0] * self.n, [0]
        if levs:
            ids, classes, reps = {}, [], []
            for v, key in enumerate(zip(*levs)):
                c = ids.get(key)
                if c is None:
                    c = ids[key] = len(reps)
                    reps.append(v)
                classes.append(c)
            if len(reps) > _MAX_CLASSES:
                run, classes, reps = [], [0] * self.n, [0]
        fs = [t.change_function(net) for t in run]
        rows = [[[x for f in fs for x in f(a, b, False)] for b in reps]
                for a in reps]
        return len(run), sum(t.dim for t in run), classes, rows

    def changes(self, net, tails, heads, present):
        """Change scores of a block of dyads as a (len(tails), p) array.

        `tails`/`heads` are a block of whole rows of free dyads
        (``Network.dyad_rows``) and `present` their edge states
        (``Network.edge_mask``).  Row k is bit-identical to
        ``change(net, tails[k], heads[k])``.
        """
        out = np.empty((len(tails), self.p))
        col = 0
        for t in self._terms:
            out[:, col:col + t.dim] = t.changes(net, tails, heads, present)
            col += t.dim
        return out

    def assemble_coefs(self, free_coefs, offset_coefs=()):
        """Interleave free and offset coefficients into a full vector;
        a NaN among them raises DataError."""
        if len(free_coefs) != len(self.free_index):
            raise DataError(f"need {len(self.free_index)} free coefficients")
        if len(offset_coefs) != len(self.offset_index):
            raise DataError(f"need {len(self.offset_index)} offset coefficients")
        out = [0.0] * self.p
        for k, v in zip(self.free_index, free_coefs):
            out[k] = float(v)
        for k, v in zip(self.offset_index, offset_coefs):
            out[k] = float(v)
        if any(map(math.isnan, out)):
            raise DataError("coefficients must not be NaN")
        return out


def bind(spec, net, attrs=None):
    return BoundModel(spec, net, attrs)
