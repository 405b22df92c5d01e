"""Network storage: toggling, sampling, degrees, file round-trips."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from helpers import random_dyad
from ergmkit.network import Network, VertexAttributes, read_network, \
    write_network, read_attributes, write_attributes
from ergmkit.errors import NetworkFormatError


def random_net(n, directed=False, bipartite=0, density=0.3, seed=0):
    rng = random.Random(seed)
    net = Network(n, directed=directed, bipartite=bipartite)
    for k in range(net.dyad_count()):
        if rng.random() < density:
            net.toggle(*net.dyad_at(k))
    return net


class TestConstruction:
    def test_dyad_counts(self):
        assert Network(10).dyad_count() == 45
        assert Network(4, directed=True).dyad_count() == 12
        assert Network(5, bipartite=2).dyad_count() == 6

    def test_empty(self):
        net = Network(10)
        assert net.edge_count == 0

    def test_bad_bipartite(self):
        with pytest.raises(ValueError):
            Network(5, bipartite=5)
        with pytest.raises(ValueError):
            Network(5, bipartite=7)

    def test_dyad_at_covers_all(self):
        for net in (Network(6), Network(5, directed=True), Network(7, bipartite=3)):
            dyads = {net.dyad_at(k) for k in range(net.dyad_count())}
            assert len(dyads) == net.dyad_count()
            for i, j in dyads:
                net.validate_dyad(i, j)
                assert (i, j) == net.canonical(i, j)


def row_walk_dyad(n, k):
    """Reference undirected decode: walk the upper-triangle rows."""
    i = 0
    row = n - 1
    while k >= row:
        k -= row
        i += 1
        row -= 1
    return (i, i + 1 + k)


class TestDyadDecode:
    def test_every_index_small_n(self):
        for n in range(2, 65):
            net = Network(n)
            assert [net.dyad_at(k) for k in range(net.dyad_count())] == \
                [row_walk_dyad(n, k) for k in range(net.dyad_count())]

    @pytest.mark.parametrize("n", [2000, 100_000])
    def test_row_bounds_and_random_indices(self, n):
        # the square root must be exact at the first and last index of
        # every row, where an off-by-one would move the dyad across rows
        net = Network(n)
        first = 0
        for i in range(n - 1):
            last = first + n - 2 - i
            assert net.dyad_at(first) == (i, i + 1)
            assert net.dyad_at(last) == (i, n - 1)
            first = last + 1
        assert first == net.dyad_count()
        rng = random.Random(n)
        for _ in range(40):
            k = rng.randrange(net.dyad_count())
            assert net.dyad_at(k) == row_walk_dyad(n, k)

    def test_decoder_equals_dyad_at_every_index(self):
        for n in range(2, 13):
            for net in (Network(n), Network(n, directed=True),
                        Network(n, bipartite=n // 2)):
                decode, N = net.decoder(), net.dyad_count()
                assert [decode(k) for k in range(N)] == \
                    [net.dyad_at(k) for k in range(N)] == list(net.dyads())

    def test_decoder_at_row_bounds(self):
        # isqrt's row boundaries: the first and last index of every row
        n = 2000
        for net in (Network(n), Network(n, directed=True),
                    Network(n, bipartite=n // 2)):
            decode, first = net.decoder(), 0
            for i, r1 in net.row_blocks(1):     # one row each
                assert r1 == i + 1
                last = first + len(net.dyad_rows(i, r1)[0]) - 1
                assert decode(first) == net.dyad_at(first)
                assert decode(last) == net.dyad_at(last)
                assert decode(first)[0] == decode(last)[0] == i
                first = last + 1
            assert first == net.dyad_count()

    def test_dyads_in_index_order(self):
        for net in (Network(9), Network(6, directed=True), Network(8, bipartite=3),
                    Network(2), Network(2, directed=True), Network(2, bipartite=1)):
            assert list(net.dyads()) == \
                [net.dyad_at(k) for k in range(net.dyad_count())]

    @given(kind=st.sampled_from(["undirected", "directed", "bipartite"]),
           n=st.integers(1, 14), size=st.integers(1, 60),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_row_blocks_match_dyads(self, kind, n, size, density, seed):
        if kind == "bipartite" and n < 2:
            n = 2
        net = random_net(n, directed=kind == "directed",
                         bipartite=n // 2 if kind == "bipartite" else 0,
                         density=density, seed=seed)
        dyads, present = [], []
        for r0, r1 in net.row_blocks(size):
            tails, heads = net.dyad_rows(r0, r1)
            assert tails.dtype == heads.dtype == np.int64
            if r1 - r0 > 1:
                assert len(tails) <= size
            dyads += zip(tails.tolist(), heads.tolist())
            present += net.edge_mask(tails, heads).tolist()
        assert dyads == list(net.dyads())
        assert present == [net.has_edge(i, j) for i, j in dyads]
        tails = np.array([i for i, _ in dyads], dtype=np.int64)
        heads = np.array([j for _, j in dyads], dtype=np.int64)
        assert net.dyad_index(tails, heads).tolist() == list(range(len(dyads)))


class TestToggle:
    def test_on_off(self):
        net = Network(5)
        assert net.toggle(0, 1) is True
        assert net.edge_count == 1
        assert net.toggle(1, 0) is False
        assert net.edge_count == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Network(5).toggle(2, 2)

    def test_rejects_same_mode(self):
        with pytest.raises(ValueError):
            Network(5, bipartite=2).toggle(0, 1)
        with pytest.raises(ValueError):
            Network(5, bipartite=2).toggle(3, 4)

    def test_involution_replay(self):
        # 1e4 random toggles, replayed in reverse, must restore emptiness.
        rng = random.Random(42)
        net = Network(30)
        seq = []
        for _ in range(10_000):
            i, j = random_dyad(net, rng)
            net.toggle(i, j)
            seq.append((i, j))
        for i, j in reversed(seq):
            net.toggle(i, j)
        assert net.edge_count == 0
        assert all(not s for s in net.adj)
        net.check_consistency()

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_degrees_match_adjacency(self, pairs):
        net = Network(8)
        for i, j in pairs:
            if i != j:
                net.toggle(i, j)
        net.check_consistency()

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(3, 6)), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_bipartite_edges_cross(self, pairs):
        net = Network(7, bipartite=3)
        for i, j in pairs:
            net.toggle(i, j)
        assert all((i < 3) != (j < 3) for i, j in net.edges)


class TestRandomEdge:
    # the edge list holds every current edge once, so an index drawn
    # uniformly into it (as TNT does) is a uniformly random edge
    def test_single_edge(self):
        net = Network(4)
        net.toggle(1, 3)
        rng = random.Random(0)
        assert all(rng.choice(net.edges) == (1, 3) for _ in range(20))

    def test_empty_raises(self):
        with pytest.raises(IndexError):
            random.Random(0).choice(Network(4).edges)

    def test_three_edges_uniform(self):
        net = Network(5)
        for d in [(0, 1), (1, 2), (3, 4)]:
            net.toggle(*d)
        rng = random.Random(7)
        draws = 300_000
        counts = {d: 0 for d in net.edges}
        for _ in range(draws):
            counts[rng.choice(net.edges)] += 1
        # each frequency within 4 sigma of 1/3
        sigma = (draws * (1 / 3) * (2 / 3)) ** 0.5
        for c in counts.values():
            assert abs(c - draws / 3) < 4 * sigma

    def test_removed_edge_never_returned(self):
        net = Network(5)
        for d in [(0, 1), (1, 2), (3, 4)]:
            net.toggle(*d)
        net.toggle(1, 2)
        rng = random.Random(3)
        assert all(rng.choice(net.edges) != (1, 2) for _ in range(200))

    def test_chi_square_uniformity(self):
        net = random_net(12, density=0.4, seed=5)
        edges = list(net.edges)
        assert len(set(edges)) == len(edges) == sum(net.deg) // 2
        rng = random.Random(11)
        draws = 100_000
        counts = {d: 0 for d in edges}
        for _ in range(draws):
            counts[rng.choice(net.edges)] += 1
        observed = np.array([counts[d] for d in edges])
        chi2 = ((observed - draws / len(edges)) ** 2 / (draws / len(edges))).sum()
        pval = stats.chi2.sf(chi2, len(edges) - 1)
        assert pval > 0.001


class TestFileIO:
    def test_empty_round_trip(self, tmp_path):
        net = Network(10)
        path = tmp_path / "net.txt"
        write_network(net, path)
        assert read_network(path) == net

    def test_random_round_trip(self, tmp_path):
        net = random_net(20, density=0.25, seed=9)
        assert net.edge_count > 50  # ~, make the test meaningful
        path = tmp_path / "net.txt"
        write_network(net, path)
        back = read_network(path)
        assert back.edge_set() == net.edge_set()

    def test_directed_round_trip(self, tmp_path):
        net = random_net(8, directed=True, density=0.3, seed=2)
        path = tmp_path / "net.txt"
        write_network(net, path)
        assert read_network(path) == net

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("%n 5\n%directed 0\n%bipartite 0\n3 3\n")
        with pytest.raises(NetworkFormatError):
            read_network(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("%n 5\n%directed 0\n%bipartite 0\n1 6\n")
        with pytest.raises(NetworkFormatError):
            read_network(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("%n 5\n%directed 0\n%bipartite 0\n1 2\n2 1\n")
        with pytest.raises(NetworkFormatError):
            read_network(path)

    @pytest.mark.parametrize("header", ["%n 0", "%n -3",
                                        "%n 4\n%bipartite 9",
                                        "%n 4\n%directed 1\n%bipartite 2",
                                        "%n 4\n%directed 2"])
    def test_bad_shape_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(NetworkFormatError):
            read_network(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("%vertices 5\n1 2\n")
        with pytest.raises(NetworkFormatError):
            read_network(path)

    def test_attributes_round_trip(self, tmp_path):
        attrs = VertexAttributes(4)
        attrs.add("sex", ["M", "F", "M", "F"])
        attrs.add("age", [20, 31.5, 44, 18])
        path = tmp_path / "attrs.csv"
        write_attributes(attrs, path)
        back = read_attributes(path, 4)
        assert back.kinds == {"sex": "categorical", "age": "numeric"}
        assert back.columns["sex"] == ["M", "F", "M", "F"]
        assert back.columns["age"] == [20.0, 31.5, 44.0, 18.0]
        assert back.levels["sex"] == ["F", "M"]


class TestAttributes:
    def test_length_checked(self):
        attrs = VertexAttributes(3)
        with pytest.raises(ValueError):
            attrs.add_numeric("x", [1.0, 2.0])

    def test_levels_sorted(self):
        attrs = VertexAttributes(4)
        attrs.add("race", ["W", "B", "H", "B"])
        levels, idx = attrs.categorical("race")
        assert levels == ["B", "H", "W"]
        assert idx == [2, 0, 1, 0]

    def test_numeric_required(self):
        attrs = VertexAttributes(2)
        attrs.add("sex", ["M", "F"])
        with pytest.raises(TypeError):
            attrs.numeric("sex")


class TestCopy:
    def test_independent(self):
        net = random_net(10, seed=1)
        clone = net.copy()
        d = net.dyad_at(3)
        clone.toggle(*d)
        assert net.has_edge(*d) != clone.has_edge(*d)
        clone.toggle(*d)
        assert net == clone


def fields(net):
    """Every field a flip writes, as plain values."""
    return ([sorted(a) for a in net.adj], [sorted(a) for a in net.in_adj],
            list(net.deg), list(net.in_deg), list(net.edges),
            dict(net._edge_pos))


class TestInAliases:
    """Undirected and bipartite networks alias in_adj/in_deg to adj/deg."""

    @pytest.mark.parametrize("bipartite", [0, 3])
    def test_aliases_survive_copy_file_and_pickle(self, tmp_path, bipartite):
        net = random_net(7, bipartite=bipartite, density=0.4, seed=2)
        path = tmp_path / "net.txt"
        write_network(net, path)
        for other in (Network(7, bipartite=bipartite), net, net.copy(),
                      read_network(path), pickle.loads(pickle.dumps(net))):
            assert other.in_adj is other.adj and other.in_deg is other.deg
            other.check_consistency()

    def test_directed_in_fields_are_their_own(self):
        net = random_net(6, directed=True, density=0.4, seed=3)
        for other in (net, net.copy(), pickle.loads(pickle.dumps(net))):
            assert other.in_adj is not other.adj
            assert other.in_deg is not other.deg
            assert fields(other) == fields(net)

    @pytest.mark.parametrize("directed, bipartite",
                             [(False, 0), (True, 0), (False, 3)])
    def test_toggling_a_copy_leaves_the_original(self, directed, bipartite):
        net = random_net(7, directed=directed, bipartite=bipartite,
                         density=0.4, seed=4)
        before = fields(net)
        clone = net.copy()
        for k in range(clone.dyad_count()):
            clone.toggle(*clone.dyad_at(k))
        assert fields(net) == before
        assert clone.edge_count == net.dyad_count() - net.edge_count
        net.check_consistency()
        clone.check_consistency()
