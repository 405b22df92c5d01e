"""Sparse binary network with O(1) toggling, dyad decode and edge sampling.

The edge set is kept both as per-vertex adjacency sets and as a dense
list of dyads with a dyad->slot map, so that toggling an edge and
drawing a uniformly random edge are both constant-time (deletion uses
swap-remove).  Free dyads are numbered row-major (upper triangle when
undirected) and an index decodes to its dyad in closed form, so drawing
a uniformly random dyad is constant-time too.  Undirected networks
alias ``in_adj``/``in_deg`` to ``adj``/``deg``, so one flip writes the
same four fields for every kind.  ``toggle`` is the validated flip;
``sampler.Chain`` writes the same fields in the same order itself, and
decodes through ``decoder()``, bound per network kind.  Full-dyad
sweeps read the dyads as numpy index arrays, a block of whole rows at
a time.  Vertex ids are 0-based internally and 1-based in files.
"""

import csv
import math

import numpy as np

from .errors import NetworkFormatError

__all__ = ["Network", "VertexAttributes", "read_network", "write_network",
           "network_text", "read_attributes", "write_attributes"]


class Network:
    """Simple binary graph: undirected, directed, or bipartite.

    Parameters
    ----------
    n : int
        Number of vertices (>= 1).
    directed : bool
        Whether dyads are ordered pairs.
    bipartite : int
        Count of first-mode vertices; 0 means unipartite.  Every edge
        of a bipartite network must join the two modes.

    Unless directed, ``in_adj`` and ``in_deg`` are the very lists ``adj``
    and ``deg``, in every copy and after unpickling.
    """

    __slots__ = ("n", "directed", "bipartite", "adj", "in_adj",
                 "edges", "_edge_pos", "deg", "in_deg")

    def __init__(self, n, directed=False, bipartite=0):
        if n < 1:
            raise ValueError("need at least one vertex")
        if bipartite and not (0 < bipartite < n):
            raise ValueError("bipartite boundary must satisfy 0 < b < n")
        if bipartite and directed:
            raise ValueError("bipartite networks are undirected here")
        self.n = n
        self.directed = directed
        self.bipartite = bipartite
        self.adj = [set() for _ in range(n)]       # out-neighbors if directed
        self.in_adj = [set() for _ in range(n)] if directed else self.adj
        self.edges = []                            # list of canonical dyads
        self._edge_pos = {}                        # dyad -> slot in `edges`
        self.deg = [0] * n                         # out-degree if directed
        self.in_deg = [0] * n if directed else self.deg

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    def dyad_count(self):
        """Number of free dyads."""
        n = self.n
        if self.bipartite:
            return self.bipartite * (n - self.bipartite)
        if self.directed:
            return n * (n - 1)
        return n * (n - 1) // 2

    def canonical(self, i, j):
        """Canonical form of a dyad: sorted when undirected."""
        if self.directed or i < j:
            return (i, j)
        return (j, i)

    def validate_dyad(self, i, j):
        """Raise unless (i, j) is a free dyad."""
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"vertex id out of range: ({i}, {j})")
        if i == j:
            raise ValueError(f"self-loop not allowed: {i}")
        if self.bipartite:
            b = self.bipartite
            if (i < b) == (j < b):
                raise ValueError(f"same-mode bipartite dyad: ({i}, {j})")

    def has_edge(self, i, j):
        return j in self.adj[i]

    # -- mutation ------------------------------------------------------

    def toggle(self, i, j):
        """Flip the state of dyad (i, j); return True if edge now present."""
        if i == j or not (0 <= i < self.n and 0 <= j < self.n) or \
                (self.bipartite and (i < self.bipartite) == (j < self.bipartite)):
            self.validate_dyad(i, j)  # raises with the precise reason
        if not self.directed and j < i:
            i, j = j, i
        d = (i, j)
        pos = self._edge_pos
        if d in pos:
            slot = pos.pop(d)
            last = self.edges.pop()
            if last != d:
                self.edges[slot] = last
                pos[last] = slot
            self.adj[i].discard(j)
            self.deg[i] -= 1
            self.in_adj[j].discard(i)
            self.in_deg[j] -= 1
            return False
        pos[d] = len(self.edges)
        self.edges.append(d)
        self.adj[i].add(j)
        self.deg[i] += 1
        self.in_adj[j].add(i)
        self.in_deg[j] += 1
        return True

    # -- sampling helpers ----------------------------------------------

    def decoder(self):
        """decode(k) -> the canonical free dyad of index k in
        [0, dyad_count), a closure with this network's kind and size
        bound in, so a chain decodes with one call and no kind test."""
        n, b = self.n, self.bipartite
        if b:
            cols = n - b

            def decode(k):
                i, c = divmod(k, cols)
                return (i, b + c)
        elif self.directed:
            cols = n - 1

            def decode(k):
                i, j = divmod(k, cols)
                return (i, j if j < i else j + 1)
        else:                   # dyad_at's closed form, constants hoisted
            last, rows, span = n * (n - 1) // 2 - 1, n - 2, 2 * n - 3
            isqrt = math.isqrt

            def decode(k):
                i = rows - (isqrt(8 * (last - k) + 1) - 1) // 2
                return (i, k - i * (span - i) // 2 + 1)
        return decode

    def dyad_at(self, k):
        """Decode index k in [0, dyad_count) to a canonical free dyad,
        as ``decoder()(k)`` does, without building a closure per call."""
        n = self.n
        if self.bipartite:
            b = self.bipartite
            return (k // (n - b), b + k % (n - b))
        if self.directed:
            i, j = divmod(k, n - 1)
            return (i, j if j < i else j + 1)
        # undirected: row-major upper triangle.  Counted from the end, the
        # rows of length 1..r hold r(r+1)/2 dyads, so the row holding the
        # m-th dyad from the end has length r+1 for r = floor((sqrt(8m+1)-1)/2).
        # Row i starts at index i(2n-i-1)/2, in column i+1.
        m = n * (n - 1) // 2 - 1 - k
        i = n - 2 - (math.isqrt(8 * m + 1) - 1) // 2
        return (i, k - i * (2 * n - i - 3) // 2 + 1)

    def dyads(self):
        """Yield every free dyad, in index order (as dyad_at decodes them)."""
        n = self.n
        if self.bipartite:
            cols = range(self.bipartite, n)
            for i in range(self.bipartite):
                for j in cols:
                    yield (i, j)
        elif self.directed:
            for i in range(n):
                for j in range(n):
                    if j != i:
                        yield (i, j)
        else:
            for i in range(n - 1):
                for j in range(i + 1, n):
                    yield (i, j)

    def random_dyad(self, rng):
        return self.dyad_at(rng.randrange(self.dyad_count()))

    def row_blocks(self, size):
        """Yield (r0, r1): consecutive ranges of whole rows, together
        covering every free dyad, each holding at most `size` dyads
        unless its single row holds more.  A network without free dyads
        gives one empty range."""
        n, b = self.n, self.bipartite
        if b:
            lengths = [n - b] * b
        elif self.directed:
            lengths = [n - 1] * n
        else:                       # the last vertex heads no row
            lengths = range(n - 1, 0, -1)
        r0, count = 0, 0
        for r, length in enumerate(lengths):
            if count and count + length > size:
                yield r0, r
                r0, count = r, 0
            count += length
        yield r0, len(lengths)

    def dyad_rows(self, r0, r1):
        """Free dyads of rows r0 <= i < r1 as int64 arrays (tails, heads),
        in the order dyads() yields them."""
        n, b = self.n, self.bipartite
        rows = np.arange(r0, r1, dtype=np.int64)
        if b:
            return np.repeat(rows, n - b), np.tile(np.arange(b, n), len(rows))
        if self.directed:
            tails = np.repeat(rows, n - 1)
            k = np.tile(np.arange(n - 1), len(rows))
            return tails, k + (k >= tails)
        lengths = n - 1 - rows
        tails = np.repeat(rows, lengths)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        return tails, np.arange(len(tails)) - starts + tails + 1

    def dyad_index(self, tails, heads):
        """Index in dyads() order of the canonical free dyads (tails[k],
        heads[k]), for int arrays or ints: dyad_at inverted."""
        n, b = self.n, self.bipartite
        if b:
            return tails * (n - b) + heads - b
        if self.directed:
            return tails * (n - 1) + heads - (heads > tails)
        return tails * (2 * n - tails - 1) // 2 + heads - tails - 1

    def dyad_mask(self, tails, heads, pair_tails, pair_heads):
        """Boolean array over a block (tails, heads) from dyad_rows: is
        each dyad among the vertex pairs (pair_tails[m], pair_heads[m])?

        Pairs outside the block's rows, pairs that are no free dyad and
        undirected pairs given as (larger, smaller) are ignored: the
        symmetric relations the callers list (adjacency, shared
        partners) hold each such pair as (smaller, larger) too.
        """
        mask = np.zeros(len(tails), dtype=bool)
        if not len(tails):
            return mask
        i = np.asarray(pair_tails, dtype=np.int64)
        j = np.asarray(pair_heads, dtype=np.int64)
        if self.bipartite:
            keep = j >= self.bipartite
        elif self.directed:
            keep = i != j
        else:
            keep = j > i
        marked = (self.dyad_index(i[keep], j[keep])
                  - self.dyad_index(tails[0], heads[0]))
        mask[marked[(marked >= 0) & (marked < len(mask))]] = True
        return mask

    def edge_mask(self, tails, heads):
        """Boolean array over a block (tails, heads) from dyad_rows: is
        each dyad an edge?"""
        pair_tails, pair_heads = [], []
        for i in range(int(tails[0]), int(tails[-1]) + 1) if len(tails) else ():
            pair_tails += [i] * len(self.adj[i])
            pair_heads += self.adj[i]
        return self.dyad_mask(tails, heads, pair_tails, pair_heads)

    # -- structure -----------------------------------------------------

    def copy(self):
        """Deep clone; chains own independent copies."""
        net = Network.__new__(Network)
        net.n = self.n
        net.directed = self.directed
        net.bipartite = self.bipartite
        net.adj = [set(s) for s in self.adj]
        net.in_adj = [set(s) for s in self.in_adj] if self.directed else net.adj
        net.edges = list(self.edges)
        net._edge_pos = dict(self._edge_pos)
        net.deg = list(self.deg)
        net.in_deg = list(self.in_deg) if self.directed else net.deg
        return net

    def edge_set(self):
        return set(self.edges)

    def check_consistency(self):
        """Verify counters against adjacency; used by tests."""
        assert [len(s) for s in self.adj] == self.deg, "degree counters diverged"
        assert [len(s) for s in self.in_adj] == self.in_deg
        assert sum(self.deg) == (1 if self.directed else 2) * len(self.edges)
        assert len(self._edge_pos) == len(self.edges)
        for d, slot in self._edge_pos.items():
            assert self.edges[slot] == d
        return True

    def __eq__(self, other):
        return (isinstance(other, Network) and self.n == other.n
                and self.directed == other.directed
                and self.bipartite == other.bipartite
                and self.edge_set() == other.edge_set())

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        bip = f", bipartite={self.bipartite}" if self.bipartite else ""
        return f"Network(n={self.n}, {kind}{bip}, edges={self.edge_count})"


class VertexAttributes:
    """Named per-vertex columns, either numeric or categorical.

    Categorical columns expose sorted level labels and precomputed
    per-vertex level indices; numeric columns are lists of floats.
    """

    def __init__(self, n):
        self.n = n
        self.columns = {}      # name -> list of values (str or float)
        self.kinds = {}        # name -> "numeric" | "categorical"
        self.levels = {}       # name -> sorted level labels (categorical)
        self.level_index = {}  # name -> per-vertex level index

    def add_numeric(self, name, values):
        values = [float(v) for v in values]
        if len(values) != self.n:
            raise ValueError(f"column {name!r} has {len(values)} entries, need {self.n}")
        self.columns[name] = values
        self.kinds[name] = "numeric"

    def add_categorical(self, name, values):
        values = [str(v) for v in values]
        if len(values) != self.n:
            raise ValueError(f"column {name!r} has {len(values)} entries, need {self.n}")
        levels = sorted(set(values))
        lut = {lev: k for k, lev in enumerate(levels)}
        self.columns[name] = values
        self.kinds[name] = "categorical"
        self.levels[name] = levels
        self.level_index[name] = [lut[v] for v in values]

    def add(self, name, values):
        """Add a column, inferring numeric when every entry parses as a real."""
        try:
            floats = [float(v) for v in values]
        except (TypeError, ValueError):
            self.add_categorical(name, values)
        else:
            self.add_numeric(name, floats)

    def numeric(self, name):
        if name not in self.columns:
            raise KeyError(f"no attribute {name!r}")
        if self.kinds[name] != "numeric":
            raise TypeError(f"attribute {name!r} is categorical, need numeric")
        return self.columns[name]

    def categorical(self, name):
        """Return (levels, per-vertex level index); numeric columns are
        coerced by treating each distinct value's string form as a level."""
        if name not in self.columns:
            raise KeyError(f"no attribute {name!r}")
        if self.kinds[name] == "numeric":
            vals = [repr(v) for v in self.columns[name]]
            levels = sorted(set(vals))
            lut = {lev: k for k, lev in enumerate(levels)}
            return levels, [lut[v] for v in vals]
        return self.levels[name], self.level_index[name]

    def __contains__(self, name):
        return name in self.columns


# -- file I/O ----------------------------------------------------------
#
# Network file: UTF-8 text, header lines `%n <count>`, `%directed <0|1>`,
# `%bipartite <0|count>`, then one `tail head` pair per line (1-based).
# Attribute file: CSV with a leading `vertex` column (1-based).

def network_text(net):
    """The network file format: the %n, %directed and %bipartite header
    lines, then one 1-based "tail head" line per edge."""
    lines = [f"%n {net.n}", f"%directed {1 if net.directed else 0}",
             f"%bipartite {net.bipartite}"]
    lines += [f"{i + 1} {j + 1}" for i, j in net.edges]
    return "\n".join(lines) + "\n"


def write_network(net, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(network_text(net))


def read_network(path):
    header = {}
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("%"):
                parts = line[1:].split()
                if len(parts) != 2 or parts[0] not in ("n", "directed", "bipartite"):
                    raise NetworkFormatError(f"{path}:{lineno}: bad header line {line!r}")
                try:
                    header[parts[0]] = int(parts[1])
                except ValueError:
                    raise NetworkFormatError(f"{path}:{lineno}: non-integer header value")
                if parts[0] == "directed" and header["directed"] not in (0, 1):
                    raise NetworkFormatError(f"{path}:{lineno}: %directed must be 0 or 1")
                continue
            parts = line.split()
            if len(parts) != 2:
                raise NetworkFormatError(f"{path}:{lineno}: expected 'tail head'")
            try:
                edges.append((int(parts[0]), int(parts[1]), lineno))
            except ValueError:
                raise NetworkFormatError(f"{path}:{lineno}: non-integer vertex id")
    if "n" not in header:
        raise NetworkFormatError(f"{path}: missing %n header")
    try:
        net = Network(header["n"], directed=bool(header.get("directed", 0)),
                      bipartite=header.get("bipartite", 0))
    except ValueError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None
    for t, h, lineno in edges:
        if not (1 <= t <= net.n and 1 <= h <= net.n):
            raise NetworkFormatError(f"{path}:{lineno}: vertex id out of range")
        try:
            net.validate_dyad(t - 1, h - 1)
        except ValueError as exc:
            raise NetworkFormatError(f"{path}:{lineno}: {exc}")
        if net.has_edge(t - 1, h - 1):
            raise NetworkFormatError(f"{path}:{lineno}: duplicate edge {t} {h}")
        net.toggle(t - 1, h - 1)
    return net


def write_attributes(attrs, path):
    names = list(attrs.columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex"] + names)
        for v in range(attrs.n):
            writer.writerow([v + 1] + [attrs.columns[name][v] for name in names])


def read_attributes(path, n):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader)
        except StopIteration:
            raise NetworkFormatError(f"{path}: empty attribute file")
        if not head or head[0] != "vertex":
            raise NetworkFormatError(f"{path}: first column must be 'vertex'")
        names = head[1:]
        rows = {}
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != len(names) + 1:
                raise NetworkFormatError(f"{path}:{lineno}: wrong field count")
            try:
                v = int(row[0])
            except ValueError:
                raise NetworkFormatError(f"{path}:{lineno}: non-integer vertex id")
            if not (1 <= v <= n):
                raise NetworkFormatError(f"{path}:{lineno}: vertex id out of range")
            if v in rows:
                raise NetworkFormatError(f"{path}:{lineno}: duplicate vertex {v}")
            rows[v] = row[1:]
    if len(rows) != n:
        raise NetworkFormatError(f"{path}: need one row per vertex (got {len(rows)} of {n})")
    attrs = VertexAttributes(n)
    for k, name in enumerate(names):
        attrs.add(name, [rows[v + 1][k] for v in range(n)])
    return attrs
