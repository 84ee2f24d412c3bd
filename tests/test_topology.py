"""Graph construction, validation, and edge-list format tests."""

import numpy as np
import pytest

from radsgd.errors import EdgeListError, GenerationError, GraphError
from radsgd.topology import (
    Graph,
    complete,
    erdos_renyi,
    from_edge_list,
    laplacian,
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
    lap = laplacian(ring(3))
    assert np.allclose(np.diag(lap), 2)
    assert np.allclose(lap[~np.eye(3, dtype=bool)], -1)


def test_laplacian_path():
    lap = laplacian(from_edge_list("n 3\n0 1\n1 2\n"))
    assert list(np.diag(lap)) == [1, 2, 1]


def test_laplacian_ring20():
    lap = laplacian(ring(20))
    assert np.allclose(lap.sum(axis=1), 0)
    assert np.allclose(np.diag(lap), 2)
    assert np.array_equal(lap, lap.T)


def test_degrees_and_laplacian_are_computed_once_and_read_only():
    g = erdos_renyi(10, 0.4, seed=3)
    assert g.degrees is g.degrees
    assert laplacian(g) is laplacian(g)
    assert np.array_equal(g.degrees, g.adjacency.sum(axis=1))
    assert np.array_equal(laplacian(g), np.diag(g.degrees) - g.adjacency)
    for array in (g.degrees, laplacian(g)):
        with pytest.raises(ValueError):
            array[0] = 0


def test_laplacian_positive_semidefinite():
    for g in (ring(6), complete(5), erdos_renyi(10, 0.4, seed=1)):
        vals = np.linalg.eigvalsh(laplacian(g))
        assert vals[0] >= -1e-9
        # algebraic connectivity is positive for connected graphs
        assert vals[1] > 0


def test_graph_rejects_asymmetric():
    a = np.zeros((3, 3), dtype=int)
    a[0, 1] = 1
    a[1, 2] = 1
    a[2, 1] = 1
    with pytest.raises(GraphError):
        Graph(3, a)


def test_graph_rejects_self_loop_diagonal():
    a = np.ones((3, 3), dtype=int)
    with pytest.raises(GraphError):
        Graph(3, a)


def test_graph_rejects_disconnected():
    with pytest.raises(GraphError):
        Graph(2, np.zeros((2, 2), dtype=int))


@pytest.mark.parametrize("value", [2, -1, 0.5, np.nan])
def test_graph_rejects_non_binary(value):
    a = np.zeros((2, 2), dtype=np.asarray(value).dtype)
    a[0, 1] = value
    a[1, 0] = value
    with pytest.raises(GraphError, match="must be 0 or 1"):
        Graph(2, a)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
def test_graph_accepts_binary_adjacency_of_any_dtype(dtype):
    g = Graph(3, ring(3).adjacency.astype(dtype))
    assert g.adjacency.dtype == np.int64
    np.testing.assert_array_equal(g.adjacency, ring(3).adjacency)


def test_graph_adjacency_is_read_only():
    g = ring(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 1


def test_neighbors():
    g = from_edge_list(COLLISION_DOC)
    assert list(g.neighbors(0)) == [1, 4]
    assert list(g.neighbors(3)) == [2, 4]
