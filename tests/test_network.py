from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clogsim import network
from clogsim.montecarlo import SweepSpec, execute_run
from clogsim.network import (
    Network,
    _is_connected,
    _rejected,
    bfs_distances,
    edge_array,
    find_node_with_degree,
    from_edges,
    generate_pa_network,
)
from clogsim.scenarios import ScenarioConfig


def triangle():
    return from_edges(3, [(0, 1), (1, 2), (0, 2)])


def path4():
    return from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestFromEdges:
    def test_degrees_and_neighbors(self):
        net = path4()
        assert list(net.degrees) == [1, 2, 2, 1]
        assert list(net.neighbors(1)) == [0, 2]
        assert net.edge_count == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"^self loop at node 0$"):
            from_edges(3, [(0, 0)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError, match=r"^parallel edge \(1, 0\)$"):
            from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 3\) out of range for n=3$"):
            from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"^edge \(-1, 2\) out of range for n=3$"):
            from_edges(3, [(-1, 2)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (0, 9), (1, 0)], r"^self loop at node 2$"),
        ([(0, 1), (1, 0), (2, 2), (0, 9)], r"^parallel edge \(1, 0\)$"),
        ([(0, 1), (0, 9), (1, 0), (2, 2)], r"^edge \(0, 9\) out of range for n=4$"),
        # (0, 6) shares the key 0 * 4 + 6 with (1, 2); before or after (2, 1)
        # it is reported as out of range, never as or by a parallel edge.
        ([(0, 1), (0, 6), (2, 1)], r"^edge \(0, 6\) out of range for n=4$"),
        ([(0, 1), (2, 1), (0, 6)], r"^edge \(0, 6\) out of range for n=4$"),
        ([(7, 7), (0, 1)], r"^edge \(7, 7\) out of range for n=4$"),
    ])
    def test_first_bad_edge_in_input_order_wins(self, edges, message):
        with pytest.raises(ValueError, match=message):
            from_edges(4, edges)

    def test_array_input_matches_pairs(self):
        pairs = [(3, 1), (0, 2), (1, 0), (2, 3), (1, 2)]
        net = from_edges(4, np.array(pairs))
        ref = from_edges(4, iter(pairs))
        for field in ("indptr", "indices", "degrees"):
            assert np.array_equal(getattr(net, field), getattr(ref, field))
            assert getattr(net, field).dtype == np.int64
        assert net.neighbors(1).tolist() == [0, 2, 3]

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64)])
    def test_empty_edge_list(self, edges):
        net = from_edges(3, edges)
        assert net.indptr.tolist() == [0, 0, 0, 0]
        assert net.degrees.tolist() == [0, 0, 0]
        assert net.indices.size == 0 and net.indices.dtype == np.int64
        assert net.edge_count == 0

    @pytest.mark.parametrize("edges", [[(0, 1), (0.5, 2)], [(0, 2**63)], [(0, 2**70)]])
    def test_rejects_ids_beyond_int64_integers(self, edges):
        # Truncating 0.5 to 0 or wrapping 2**70 would make an edge silently.
        with pytest.raises(ValueError, match="must be int64 integers"):
            from_edges(3, edges)

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            from_edges(0, [])

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            from_edges(3, [(0, 1, 2)])

    def test_edge_array_roundtrip(self):
        net = triangle()
        assert edge_array(net).tolist() == [[0, 1], [0, 2], [1, 2]]


class TestGeneratePA:
    def test_minimal_growth(self):
        # Seed triangle plus one node with 2 links: 5 edges, degree sum 10.
        net = generate_pa_network(4, 2, np.random.default_rng(0))
        assert net.edge_count == 5
        assert int(net.degrees.sum()) == 10

    def test_edge_count_formula(self):
        # Complete seed on 3 nodes, then 2 edges per node: 2 (n - 3) + 3.
        net = generate_pa_network(256, 2, np.random.default_rng(1))
        assert net.edge_count == 509
        assert int(net.degrees.min()) == 2
        assert 2 * net.edge_count / net.n == pytest.approx(3.977, abs=1e-3)

    def test_simple_and_connected(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            net = generate_pa_network(128, 2, rng)
            seen = set()
            for u in range(net.n):
                nbrs = net.neighbors(u)
                assert u not in nbrs
                assert len(set(nbrs)) == len(nbrs)
                for v in nbrs:
                    seen.add((min(u, v), max(u, v)))
            assert len(seen) == net.edge_count
            # symmetric adjacency implies each node appears in its
            # neighbors' lists; connectivity via distances below
            bfs_distances(net, 0)

    def test_heavy_tail(self):
        # Hubs should emerge: over 100 networks the max degree exceeds 20
        # nearly always (loose sanity threshold on the attachment rule).
        rng = np.random.default_rng(3)
        hits = sum(
            int(generate_pa_network(256, 2, rng).degrees.max()) > 20 for _ in range(100)
        )
        assert hits >= 90

    def test_determinism(self):
        a = generate_pa_network(64, 2, np.random.default_rng(42))
        b = generate_pa_network(64, 2, np.random.default_rng(42))
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_attach_three(self):
        net = generate_pa_network(100, 3, np.random.default_rng(4))
        assert int(net.degrees.min()) >= 3
        assert net.edge_count == 6 + 3 * 96

    @given(attach=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_every_node_brings_attach_count_links(self, attach, data, seed):
        # The complete seed on a + 1 nodes, then a distinct targets per node.
        n = data.draw(st.integers(attach + 1, 96))
        degrees = generate_pa_network(n, attach, np.random.default_rng(seed)).degrees
        assert degrees.min() == attach
        assert degrees.sum() == 2 * (attach * (attach + 1) // 2 + (n - attach - 1) * attach)

    def test_invalid_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_pa_network(2, 2, rng)
        with pytest.raises(ValueError):
            generate_pa_network(10, 0, rng)
        with pytest.raises(ValueError, match="2\\*\\*30"):
            generate_pa_network(2**29, 2, rng)


def reference_pa_network(n, attach_count, rng):
    """Scalar growth: one ``rng.integers`` call per target, a Python-set
    ``from_edges``.  Returns the network and the number of draws."""
    seed_size = attach_count + 1
    edges = [(i, j) for i in range(seed_size) for j in range(i + 1, seed_size)]
    repeated = [i for i in range(seed_size) for _ in range(attach_count)]
    draws = 0
    for new in range(seed_size, n):
        targets = set()
        while len(targets) < attach_count:
            targets.add(repeated[rng.integers(len(repeated))])
            draws += 1
        for t in sorted(targets):
            edges.append((new, t))
            repeated.append(t)
        repeated.extend([new] * attach_count)

    keys = sorted({(min(u, v), max(u, v)) for u, v in edges})
    assert len(keys) == len(edges)
    e = np.array(keys, dtype=np.int64)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((dst, src))
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return Network(n=n, indptr=indptr, indices=dst[order], degrees=degrees), draws


def assert_same_growth(n, attach_count, seed):
    return assert_grows_alike(n, attach_count, np.random.default_rng(seed),
                              np.random.default_rng(seed))


def assert_grows_alike(n, attach_count, rng, ref_rng):
    net = generate_pa_network(n, attach_count, rng)
    ref, draws = reference_pa_network(n, attach_count, ref_rng)
    for field in ("indptr", "indices", "degrees"):
        got, want = getattr(net, field), getattr(ref, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return draws


class TestBatchedGrowthMatchesReference:
    @given(attach=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_network_and_stream(self, attach, data, seed):
        assert_same_growth(data.draw(st.integers(attach + 1, 128)), attach, seed)

    def test_duplicate_replay(self):
        # The reference run at this seed redraws a duplicate at seven nodes,
        # 15 and 16 among them: each takes the word after the duplicate.
        draws = assert_same_growth(256, 2, 20260810)
        assert draws > 2 * (256 - 3)

    def test_later_batches(self):
        # Longer growth: more duplicates, and bounds up to about 2,800.
        for seed in range(3):
            assert_same_growth(700, 2, seed)

    def test_buffered_word(self):
        # A bounded draw below 2**32 leaves half of a 64-bit output in the
        # generator, and the first word of growth must be that half.
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rng.integers(0, 7)
            ref_rng.integers(0, 7)
            assert rng.bit_generator.state["has_uint32"]
            assert_grows_alike(256, 2, rng, ref_rng)

    def test_networks_back_to_back(self):
        # As in prepare_run's regeneration: each network starts where the
        # one before left the generator, with or without a buffered word.
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        buffered = []
        for _ in range(12):
            buffered.append(rng.bit_generator.state["has_uint32"])
            assert_grows_alike(256, 2, rng, ref_rng)
        assert 0 < sum(buffered) < len(buffered)

    def test_rejected_word(self):
        # At this seed numpy's bounded draw rejects one word of the growth
        # and draws another for the same target.
        assert_same_growth(700, 2, 2270)


class TestNumpyBoundedDraw:
    """Growth relies on numpy drawing ``rng.integers(0, b)``, b < 2**32, by
    Lemire's method on raw 32-bit words, rejecting a word by
    :func:`network._rejected`; a numpy that draws otherwise, or another
    rejection rule, fails here."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("bound", [3, 1018, 2**32 // 3 + 1, 2**31 - 2])
    def test_words_give_numpy_draws(self, bound, buffered):
        # With bound 2**32 // 3 + 1, numpy rejects a third of the words.
        # With 2**31 - 2, 2**32 % bound is 4, and about half of the words
        # have a low half in [4, bound), which numpy keeps.
        count = 400
        rng, by_array, by_scalar = (np.random.default_rng(11) for _ in range(3))
        if buffered:
            for g in (rng, by_array, by_scalar):
                g.integers(0, 7)
        got, rejections, tested = [], 0, 0
        while len(got) < count:
            # One word per draw still to make: never more than are used.
            for w in rng.integers(0, 1 << 32, size=count - len(got)).tolist():
                low = w * bound & 0xFFFFFFFF
                tested += low < bound
                if low < bound and _rejected(low, bound):
                    rejections += 1
                else:
                    got.append(w * bound >> 32)
        assert got == by_array.integers(0, np.full(count, bound)).tolist()
        assert got == [int(by_scalar.integers(bound)) for _ in range(count)]
        assert rng.bit_generator.state == by_array.bit_generator.state
        assert rng.bit_generator.state == by_scalar.bit_generator.state
        if bound == 2**32 // 3 + 1:
            assert rejections > count // 8
        if bound == 2**31 - 2:
            assert tested - rejections > count // 4


@pytest.fixture
def connectivity_checks(monkeypatch):
    """Networks passed to ``network._is_connected``, which still runs."""
    checked = []
    real = network._is_connected

    def counted(net):
        checked.append(net)
        return real(net)

    monkeypatch.setattr(network, "_is_connected", counted)
    return checked


class TestCsrOnRead:
    def test_degrees_need_no_csr(self, connectivity_checks):
        rng = np.random.default_rng(12)
        net = generate_pa_network(256, 2, rng)
        assert int(net.degrees.sum()) == 2 * 509
        assert find_node_with_degree(net, 2, rng) is not None
        assert find_node_with_degree(net, 200, rng) is None
        assert connectivity_checks == []

    def test_first_read_builds_and_checks_once(self, connectivity_checks):
        net = generate_pa_network(256, 2, np.random.default_rng(13))
        indices = net.indices
        assert len(connectivity_checks) == 1
        assert net.indices is indices
        net.indptr, net.neighbors(5), net.edge_count, edge_array(net)
        assert len(connectivity_checks) == 1

    def test_disconnected_read_raises(self, monkeypatch):
        monkeypatch.setattr(network, "_is_connected", lambda net: False)
        net = generate_pa_network(64, 2, np.random.default_rng(14))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="disconnected"):
                net.indices
        with pytest.raises(RuntimeError, match="disconnected"):
            net.indptr

    def test_one_check_per_run(self, connectivity_checks):
        # Degree 44 is rare on 256 nodes: a run grows many networks and
        # reads the CSR of the one it simulates.
        spec = SweepSpec(scenario=ScenarioConfig(kind="neutral", phi_deg=45.0),
                         phi_list=(45.0,), degree_list=(44,), runs_per_cell=2,
                         master_seed=20260810)
        records = [execute_run(spec, 45.0, 44, i) for i in range(2)]
        assert not any(r.failed for r in records)
        assert sum(r.regen_attempts for r in records) > 2 * len(records)
        assert len(connectivity_checks) == len(records)

    def test_network_is_immutable(self):
        net = generate_pa_network(16, 2, np.random.default_rng(15))
        with pytest.raises(AttributeError):
            net.n = 3
        with pytest.raises(AttributeError):
            triangle().indices = np.arange(6)


class TestBfsDistances:
    def test_path_graph(self):
        d = bfs_distances(path4(), 0)
        assert list(d) == [0, 1, 2, 3]

    def test_source_and_neighbors(self):
        net = generate_pa_network(64, 2, np.random.default_rng(5))
        d = bfs_distances(net, 10)
        assert d[10] == 0
        assert all(d[v] == 1 for v in net.neighbors(10))

    def test_edge_triangle_property(self):
        net = generate_pa_network(256, 2, np.random.default_rng(6))
        d = bfs_distances(net, 0)
        for u in range(net.n):
            for v in net.neighbors(u):
                assert abs(int(d[u]) - int(d[v])) <= 1

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bfs_distances(triangle(), 3)

    def test_disconnected_rejected(self):
        net = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            bfs_distances(net, 0)


def reference_distances(net, source):
    """Node-at-a-time deque BFS: hop distances, -1 where unreached."""
    dist = np.full(net.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in net.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


@st.composite
def random_graphs(draw):
    # Up to 40 random edges on up to 24 nodes: many draws are disconnected,
    # some have isolated nodes, a few have no edges at all.
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    return from_edges(n, edges)


@st.composite
def pa_networks(draw):
    attach = draw(st.integers(1, 3))
    n = draw(st.integers(attach + 1, 128))
    seed = draw(st.integers(0, 2**32 - 1))
    return generate_pa_network(n, attach, np.random.default_rng(seed))


class TestFrontierBfsMatchesReference:
    def check(self, net, source):
        ref = reference_distances(net, source)
        if np.all(ref >= 0):
            assert np.array_equal(bfs_distances(net, source), ref)
        else:
            with pytest.raises(ValueError, match="not connected"):
                bfs_distances(net, source)
        assert _is_connected(net) == bool(np.all(reference_distances(net, 0) >= 0))

    @given(net=random_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, net, data):
        self.check(net, data.draw(st.integers(0, net.n - 1)))

    @given(net=pa_networks(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_pa_networks(self, net, data):
        assert _is_connected(net)
        self.check(net, data.draw(st.integers(0, net.n - 1)))


class TestFindNodeWithDegree:
    def test_triangle_hits(self):
        rng = np.random.default_rng(7)
        assert find_node_with_degree(triangle(), 2, rng) in (0, 1, 2)

    def test_not_found_is_none(self):
        rng = np.random.default_rng(8)
        assert find_node_with_degree(triangle(), 5, rng) is None

    def test_uniform_among_candidates(self):
        rng = np.random.default_rng(9)
        picks = [find_node_with_degree(triangle(), 2, rng) for _ in range(600)]
        counts = np.bincount(picks, minlength=3)
        assert counts.min() > 140  # roughly uniform over the three nodes

    def test_degree_two_common_in_pa(self):
        rng = np.random.default_rng(10)
        found = sum(
            find_node_with_degree(generate_pa_network(256, 2, rng), 2, rng) is not None
            for _ in range(20)
        )
        assert found == 20

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            find_node_with_degree(triangle(), 0, np.random.default_rng(0))
