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

Each term also scores a block of dyads at once (``changes``), for the
full-dyad sweeps of the pseudo-likelihood.  Block rows are bit-identical
to the scalar ``change``: attribute and degree terms do the same float
operations elementwise, and the shared-partner terms are exactly 0.0
off the dyads with a shared partner and call ``change`` on them.  The
arrays that ``changes`` reads are built on its first call, so binding
a model for the MH chain alone does not pay for them; they are set up
as None in ``__init__``, because an attribute added to an instance
later slows every attribute read of the scalar path by about 6 %.
"""

import math

import numpy as np

from .errors import DataError
from .formula import parse_model_formula

__all__ = ["BoundModel", "bind", "summary_stats", "change_stats",
           "apply_toggle_stats"]


def _require_undirected(net, name):
    if net.directed:
        raise DataError(f"term {name!r} is defined for undirected networks only")


def _support_mask(net, tails, heads):
    """Dyads of the block that have a shared partner: a superset of
    those where a shared-partner count (triangle, gwesp) is nonzero."""
    adj, inn = net.adj, net.in_adj
    pair_tails, pair_heads = [], []
    for i in range(int(tails[0]), int(tails[-1]) + 1) if len(tails) else ():
        near = set()
        for k in adj[i]:
            near |= adj[k]
            if inn is not None:
                near |= inn[k]
        if inn is not None:
            for k in inn[i]:
                near |= adj[k]
        pair_tails += [i] * len(near)
        pair_heads += near
    return net.dyad_mask(tails, heads, pair_tails, pair_heads)


def _changes_on_support(term, net, tails, heads):
    """A one-column shared-partner term: 0.0 off the support, the scalar
    change on it."""
    out = np.zeros((len(tails), 1))
    on = np.flatnonzero(_support_mask(net, tails, heads))
    out[on, 0] = [term.change(net, i, j)[0]
                  for i, j in zip(tails[on].tolist(), heads[on].tolist())]
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
        if isinstance(levels_arg, int):
            levels_arg = (levels_arg,)
        ints = [x for x in levels_arg]
        if not all(isinstance(x, int) and x != 0 for x in ints):
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


class _Edges:
    dyad_independent = True

    def __init__(self, term, net, attrs):
        self.names = ["edges"]
        self.dim = 1

    def summary(self, net):
        return [float(net.edge_count)]

    def change(self, net, i, j):
        return [1.0]

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

    def change(self, net, i, j):
        if net.directed:
            out, inn = net.adj, net.in_adj
            c = len(out[i] & out[j]) + len(inn[i] & inn[j]) + len(out[i] & inn[j])
            return [float(c)]
        return [float(len(net.adj[i] & net.adj[j]))]

    def changes(self, net, tails, heads, present):
        return _changes_on_support(self, net, tails, heads)


class _Nodematch:
    dyad_independent = True

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

    def summary(self, net):
        lev = self.lev
        if not self.diff:
            return [float(sum(1 for i, j in net.edges if lev[i] == lev[j]))]
        out = [0.0] * self.dim
        for i, j in net.edges:
            if lev[i] == lev[j]:
                out[lev[i]] += 1.0
        return out

    def change(self, net, i, j):
        lev = self.lev
        if not self.diff:
            return [1.0 if lev[i] == lev[j] else 0.0]
        out = [0.0] * self.dim
        if lev[i] == lev[j]:
            out[lev[i]] = 1.0
        return out

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


class _Nodefactor:
    dyad_independent = True

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

    def summary(self, net):
        out = [0.0] * self.dim
        lev, slot = self.lev, self.slot
        for i, j in net.edges:
            s = slot.get(lev[i])
            if s is not None:
                out[s] += 1.0
            s = slot.get(lev[j])
            if s is not None:
                out[s] += 1.0
        return out

    def change(self, net, i, j):
        out = [0.0] * self.dim
        s = self.slot.get(self.lev[i])
        if s is not None:
            out[s] += 1.0
        s = self.slot.get(self.lev[j])
        if s is not None:
            out[s] += 1.0
        return out

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


class _Nodecov:
    dyad_independent = True

    def __init__(self, term, net, attrs):
        attr = term.arg("attr")
        if attrs is None or attr not in attrs:
            raise DataError(f"network has no attribute {attr!r}")
        self.x = attrs.numeric(attr)
        self._x = None
        self.names = [f"nodecov.{attr}"]
        self.dim = 1

    def summary(self, net):
        x = self.x
        return [math.fsum(x[i] + x[j] for i, j in net.edges)]

    def change(self, net, i, j):
        return [self.x[i] + self.x[j]]

    def changes(self, net, tails, heads, present):
        if self._x is None:
            self._x = np.asarray(self.x, dtype=float)
        return (self._x[tails] + self._x[heads])[:, None]


class _Absdiff:
    dyad_independent = True

    def __init__(self, term, net, attrs):
        attr = term.arg("attr")
        if attrs is None or attr not in attrs:
            raise DataError(f"network has no attribute {attr!r}")
        self.x = attrs.numeric(attr)
        self._x = None
        self.names = [f"absdiff.{attr}"]
        self.dim = 1

    def summary(self, net):
        x = self.x
        return [math.fsum(abs(x[i] - x[j]) for i, j in net.edges)]

    def change(self, net, i, j):
        return [abs(self.x[i] - self.x[j])]

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

    def change(self, net, i, j):
        present = j in net.adj[i]
        di = net.deg[i] - present
        dj = net.deg[j] - present
        return [float((di == 1) + (dj == 1))]

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

    def change(self, net, i, j):
        d = self.d
        present = j in net.adj[i]
        di = net.deg[i] - present
        dj = net.deg[j] - present
        return [float((di + 1 == d) - (di == d) + (dj + 1 == d) - (dj == d))]

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
    decay = float(decay)
    if term.arg("fixed", True) is not True:
        raise DataError(f"{name} supports fixed decay only")
    return decay


class _Gwdegree:
    dyad_independent = False

    def __init__(self, term, net, attrs):
        _require_undirected(net, "gwdegree")
        self.decay = _fixed_decay(term, "gwdegree")
        self.u = 1.0 - math.exp(-self.decay)
        self._pow = None
        self.names = [f"gwdegree.fixed.{self.decay:g}"]
        self.dim = 1

    def summary(self, net):
        u, scale = self.u, math.exp(self.decay)
        return [math.fsum(scale * (1.0 - u ** d) for d in net.deg if d > 0)]

    def change(self, net, i, j):
        u = self.u
        present = j in net.adj[i]
        di = net.deg[i] - present
        dj = net.deg[j] - present
        return [u ** di + u ** dj]

    def changes(self, net, tails, heads, present):
        if self._pow is None:
            # u ** k for every possible degree k, by Python's float
            # power, which np.power need not match bit for bit
            self._pow = np.array([self.u ** k for k in range(net.n)])
        di, dj = _free_degrees(net, tails, heads, present)
        return (self._pow[di] + self._pow[dj])[:, None]


class _Gwesp:
    dyad_independent = False

    def __init__(self, term, net, attrs):
        _require_undirected(net, "gwesp")
        self.decay = _fixed_decay(term, "gwesp")
        self.u = 1.0 - math.exp(-self.decay)
        self.names = [f"gwesp.fixed.{self.decay:g}"]
        self.dim = 1

    def summary(self, net):
        u, scale = self.u, math.exp(self.decay)
        adj = net.adj
        return [math.fsum(scale * (1.0 - u ** len(adj[i] & adj[j]))
                          for i, j in net.edges)]

    def change(self, net, i, j):
        u, adj = self.u, net.adj
        ai, aj = adj[i], adj[j]
        common = ai & aj
        present = j in ai          # discount the toggled dyad itself
        total = math.exp(self.decay) * (1.0 - u ** len(common))
        for k in common:
            eik = len(ai & adj[k]) - present
            ejk = len(aj & adj[k]) - present
            total += u ** eik + u ** ejk
        return [total]

    def changes(self, net, tails, heads, present):
        return _changes_on_support(self, net, tails, heads)


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
    of the same shape; all evaluation methods are read-only.
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
        """Change score for dyad (i, j), independent of its state."""
        out = []
        for t in self._terms:
            out.extend(t.change(net, i, j))
        return out

    def change_functions(self):
        """Each term's change function, in order: `change` returns
        their results concatenated.  The MH step binds these once per
        chain."""
        return [t.change for t in self._terms]

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
        """Interleave free and offset coefficients into a full vector."""
        if len(free_coefs) != len(self.free_index):
            raise DataError(f"need {len(self.free_index)} free coefficients")
        if len(offset_coefs) != len(self.offset_index):
            raise DataError(f"need {len(self.offset_index)} offset coefficients")
        out = [0.0] * self.p
        for k, v in zip(self.free_index, free_coefs):
            out[k] = float(v)
        for k, v in zip(self.offset_index, offset_coefs):
            out[k] = float(v)
        return out


def bind(spec, net, attrs=None):
    return BoundModel(spec, net, attrs)


def summary_stats(net, model):
    return model.summary(net)


def change_stats(net, model, i, j):
    return model.change(net, i, j)


def apply_toggle_stats(current, delta, adding):
    """Update a statistic vector for a toggle with change score `delta`."""
    if adding:
        return [c + d for c, d in zip(current, delta)]
    return [c - d for c, d in zip(current, delta)]
