"""Graph construction, validation, and edge-list format tests."""

import tracemalloc

import numpy as np
import pytest

import radsgd.topology
from radsgd.errors import EdgeListError, GenerationError, GraphError
from radsgd.mac import AccessPolicy, link_success_prob
from radsgd.topology import (
    Graph,
    complete,
    erdos_renyi,
    from_edge_list,
    ring,
    to_edge_list,
)

# Five nodes, broadcast collision demo graph: 0-1, 0-4, 3-2, 3-4.
COLLISION_DOC = "n 5\n0 1\n0 4\n3 2\n3 4\n"


def test_ring_triangle():
    g = ring(3)
    assert list(g.degrees) == [2, 2, 2]
    assert g.edge_count == 3


def test_ring_20():
    g = ring(20)
    assert np.all(g.degrees == 2)
    assert g.edge_count == 20


def test_ring_4_has_eight_ones():
    assert ring(4).adjacency.sum() == 8


def test_ring_too_small():
    with pytest.raises(GraphError):
        ring(2)


def test_complete_two_nodes():
    g = complete(2)
    assert g.edge_count == 1


def test_complete_5_edges():
    assert complete(5).edge_count == 10


def test_complete_20_degrees():
    assert np.all(complete(20).degrees == 19)


def test_complete_too_small():
    with pytest.raises(GraphError):
        complete(1)


def test_erdos_renyi_degenerate_pair():
    g = erdos_renyi(2, 1.0, seed=0)
    assert g.edge_count == 1


def test_erdos_renyi_full_probability_is_complete():
    g = erdos_renyi(20, 1.0, seed=0)
    assert np.array_equal(g.adjacency, complete(20).adjacency)


def test_erdos_renyi_deterministic():
    a = erdos_renyi(20, 0.3, seed=7)
    b = erdos_renyi(20, 0.3, seed=7)
    assert np.array_equal(a.adjacency, b.adjacency)


def test_erdos_renyi_seeds_differ():
    a = erdos_renyi(20, 0.3, seed=7)
    b = erdos_renyi(20, 0.3, seed=8)
    assert not np.array_equal(a.adjacency, b.adjacency)


def test_erdos_renyi_gives_up_when_too_sparse():
    with pytest.raises(GenerationError):
        erdos_renyi(30, 0.001, seed=0)


def test_erdos_renyi_rejects_bad_edge_prob():
    with pytest.raises(GraphError):
        erdos_renyi(10, 0.0, seed=0)
    with pytest.raises(GraphError):
        erdos_renyi(10, 1.5, seed=0)


def test_from_edge_list_path():
    g = from_edge_list("n 3\n0 1\n1 2\n")
    assert list(g.degrees) == [1, 2, 1]


def test_from_edge_list_collision_graph_degrees():
    g = from_edge_list(COLLISION_DOC)
    assert list(g.degrees) == [2, 1, 1, 2, 2]


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(EdgeListError) as info:
        from_edge_list("n 3\n0 1\n2 2\n1 2\n")
    assert info.value.line == 3


def test_from_edge_list_rejects_malformed_line():
    with pytest.raises(EdgeListError) as info:
        from_edge_list("n 3\n0 1\n1 2 3\n")
    assert info.value.line == 3


def test_from_edge_list_rejects_non_integer():
    with pytest.raises(EdgeListError):
        from_edge_list("n 3\n0 1\na 2\n")


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(EdgeListError) as info:
        from_edge_list("n 3\n0 1\n1 3\n")
    assert info.value.line == 3


def test_from_edge_list_rejects_missing_header():
    with pytest.raises(EdgeListError):
        from_edge_list("0 1\n1 2\n")


def test_from_edge_list_rejects_disconnected():
    with pytest.raises(GraphError):
        from_edge_list("n 4\n0 1\n2 3\n")


def test_from_edge_list_duplicates_idempotent():
    g = from_edge_list("n 3\n0 1\n1 0\n0 1\n1 2\n")
    assert g.edge_count == 2


def test_from_edge_list_comments_and_blanks():
    g = from_edge_list("# header comment\n\nn 3\n# edge below\n0 1\n\n1 2\n")
    assert g.edge_count == 2


def test_edge_list_round_trip():
    g = erdos_renyi(12, 0.4, seed=2)
    assert np.array_equal(from_edge_list(to_edge_list(g)).adjacency, g.adjacency)


def test_laplacian_triangle():
    lap = ring(3).laplacian
    assert np.allclose(np.diag(lap), 2)
    assert np.allclose(lap[~np.eye(3, dtype=bool)], -1)


def test_laplacian_path():
    lap = from_edge_list("n 3\n0 1\n1 2\n").laplacian
    assert list(np.diag(lap)) == [1, 2, 1]


def test_laplacian_ring20():
    lap = ring(20).laplacian
    assert np.allclose(lap.sum(axis=1), 0)
    assert np.allclose(np.diag(lap), 2)
    assert np.array_equal(lap, lap.T)


def test_degrees_and_laplacian_are_computed_once_and_read_only():
    g = erdos_renyi(10, 0.4, seed=3)
    assert g.degrees is g.degrees
    assert g.laplacian is g.laplacian
    assert np.array_equal(g.degrees, g.adjacency.sum(axis=1))
    assert np.array_equal(g.laplacian, np.diag(g.degrees) - g.adjacency)
    for array in (g.degrees, g.laplacian):
        with pytest.raises(ValueError):
            array[0] = 0


def test_laplacian_positive_semidefinite():
    for g in (ring(6), complete(5), erdos_renyi(10, 0.4, seed=1)):
        vals = np.linalg.eigvalsh(g.laplacian)
        assert vals[0] >= -1e-9
        # algebraic connectivity is positive for connected graphs
        assert vals[1] > 0


def test_graph_rejects_self_loop_diagonal():
    with pytest.raises(GraphError, match="self-loops"):
        Graph(3, np.array([[0, 1], [1, 1], [1, 2]]))


def test_graph_rejects_disconnected():
    # Enough edges to pass the edge-count test; the search finds two components.
    with pytest.raises(GraphError, match="connected"):
        Graph(4, np.array([[0, 1], [2, 3], [1, 0]]))


# (n, edges, message) that Graph must reject with GraphError.
BAD_EDGES = {
    "id_ge_n": (3, [[0, 1], [1, 3]], "out of range"),
    "negative_id": (3, [[0, 1], [-1, 2]], "out of range"),
    "half": (3, [[0, 1], [1, 0.5]], "integers"),
    "nan": (3, [[0, 1], [1, np.nan]], "integers"),
    "shape_e3": (3, [[0, 1, 2], [1, 2, 0]], "shape"),
    "shape_flat": (2, [0, 1], "shape"),
    "n_below_1": (0, np.zeros((0, 2), dtype=np.int64), "n >= 1"),
    # Fails on the edge count, before anything of size n is allocated.
    "one_edge_for_a_billion_nodes": (1_000_000_000, [[0, 1]], "connected"),
    "n_bytes": (1_100_000_000, [[0, 1]], "larger than one array"),
}


@pytest.mark.parametrize("case", sorted(BAD_EDGES))
def test_graph_rejects_bad_edges(case):
    n, edges, message = BAD_EDGES[case]
    with pytest.raises(GraphError, match=message):
        Graph(n, np.array(edges))


def test_graph_merges_reversed_and_duplicate_pairs():
    g = Graph(3, np.array([[2, 1], [0, 1], [1, 2], [1, 0], [1, 2]]))
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.edge_count == 2
    assert list(g.degrees) == [1, 2, 1]
    heads, tails = g.arcs
    assert heads.tolist() == [0, 1, 1, 2] and tails.tolist() == [1, 0, 2, 1]
    np.testing.assert_array_equal(g.adjacency, from_edge_list("n 3\n0 1\n1 2\n").adjacency)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint8])
def test_graph_accepts_integral_ids_of_any_dtype(dtype):
    g = Graph(3, np.array([[0, 1], [1, 2], [2, 0]], dtype=dtype))
    assert g.edges.dtype == np.int64
    np.testing.assert_array_equal(g.adjacency, ring(3).adjacency)


def test_graph_adjacency_is_read_only():
    g = ring(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 1


def test_graph_arrays_are_read_only_and_views_built_once():
    g = erdos_renyi(10, 0.4, seed=3)
    assert g.adjacency is g.adjacency
    # Readers compute with floats; reading the view as floats copies nothing.
    assert np.asarray(g.adjacency, dtype=float) is g.adjacency
    for array in (g.edges, *g.arcs, g.degrees, g.neighbors(0)):
        with pytest.raises(ValueError):
            array[0] = 0


def _dense_connected(a):
    seen = np.zeros(len(a), dtype=bool)
    seen[0] = True
    while True:
        grown = seen | a[seen].any(axis=0)
        if np.array_equal(grown, seen):
            return bool(seen.all())
        seen = grown


def _dense_erdos_renyi(n, p, seed):
    """The reference G(n, p): one whole n x n draw per attempt, resampled until connected."""
    rng = np.random.default_rng(seed)
    attempts = 0
    while True:
        attempts += 1
        upper = np.triu(rng.random((n, n)) < p, 1)
        a = (upper | upper.T).astype(np.int64)
        if _dense_connected(a):
            return a, attempts


def test_erdos_renyi_matches_dense_reference():
    # n = 700 spans several row blocks of the draw; n = 30 at p = 0.1 and
    # n = 700 at p = 0.012 are often disconnected on the first draw.
    resampled = 0
    for n, p in ((2, 0.5), (5, 0.6), (30, 0.1), (30, 0.3), (100, 0.08), (700, 0.012)):
        for seed in range(4):
            a, attempts = _dense_erdos_renyi(n, p, seed)
            resampled += attempts > 1
            np.testing.assert_array_equal(erdos_renyi(n, p, seed).adjacency, a, err_msg=f"{n} {p} {seed}")
    assert resampled >= 3


@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_ring_matches_dense_definition(n):
    i = np.arange(n)
    a = np.zeros((n, n), dtype=np.int64)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    np.testing.assert_array_equal(ring(n).adjacency, a)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_complete_matches_dense_definition(n):
    np.testing.assert_array_equal(complete(n).adjacency, 1 - np.eye(n, dtype=np.int64))


def test_from_edge_list_matches_dense_definition():
    rng = np.random.default_rng(5)
    for n in (2, 6, 15):
        pairs = [(k, int(rng.integers(k))) for k in range(1, n)]  # a spanning tree
        pairs += [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(2 * n)]
        a = np.zeros((n, n), dtype=np.int64)
        for u, v in pairs:
            a[u, v] = a[v, u] = 1
        g = from_edge_list(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
        np.testing.assert_array_equal(g.adjacency, a)
        assert g.edge_count == a.sum() // 2
        np.testing.assert_array_equal(g.degrees, a.sum(axis=1))
        for i in range(n):
            np.testing.assert_array_equal(g.neighbors(i), np.flatnonzero(a[i]))


def test_neighbors():
    g = from_edge_list(COLLISION_DOC)
    assert list(g.neighbors(0)) == [1, 4]
    assert list(g.neighbors(3)) == [2, 4]


@pytest.mark.parametrize("node", [-1, -5, 5, 6])
def test_neighbors_rejects_out_of_range_ids(node):
    g = from_edge_list(COLLISION_DOC)
    with pytest.raises(IndexError, match="out of range"):
        g.neighbors(node)
    with pytest.raises(IndexError, match="out of range"):
        link_success_prob(g, AccessPolicy.uniform(5, 0.3), node, 1)


# Builds that must fail when physical memory is 1 MiB. Each passes with 4 MiB.
OVER_A_MEBIBYTE = {
    "ring_edges": lambda: ring(5000),  # 5000 edges of 256 bytes
    "complete_edges": lambda: complete(100),  # 4950 edges
    "erdos_renyi_draws": lambda: erdos_renyi(400, 0.025, seed=0),  # 400 x 400 uniforms
    "erdos_renyi_edges": lambda: erdos_renyi(300, 0.1, seed=0),  # 4485 expected edges
    "graph_edges": lambda: Graph(5000, np.stack((np.arange(4999), np.arange(1, 5000)), axis=1)),
    "adjacency": lambda: ring(400).adjacency,  # 400 x 400 int64
    "laplacian": lambda: ring(400).laplacian,
}


@pytest.mark.parametrize("case", sorted(OVER_A_MEBIBYTE))
def test_graphs_check_physical_memory(monkeypatch, case):
    build = OVER_A_MEBIBYTE[case]
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 1 << 20)
    with pytest.raises(GraphError, match="physical memory"):
        build()
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 4 << 20)
    build()


@pytest.mark.parametrize(
    "build",
    [lambda: ring(10**9), lambda: complete(10**6), lambda: erdos_renyi(10**7, 0.5, seed=0)],
    ids=["ring", "complete", "erdos_renyi"],
)
def test_oversized_builders_fail_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="physical memory"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
