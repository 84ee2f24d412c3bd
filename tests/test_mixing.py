"""Mixing matrix tests: base weights, masking, compensation, expectations."""

import numpy as np
import pytest

from radsgd.errors import DimensionError, DomainError
from radsgd.mac import AccessPolicy, optimal_access_probability, sample_broadcast, transmission_matrix
from radsgd.mixing import (
    base_weight_matrix,
    compensate,
    consensus_rate,
    default_epsilon,
    expected_weight_matrix,
    mask_by_transmission,
    spectral_optimal_probability,
    spectral_radius,
)
from radsgd.topology import complete, erdos_renyi, from_edge_list, ring

COLLISION_DOC = "n 5\n0 1\n0 4\n3 2\n3 4\n"
PATH3 = from_edge_list("n 3\n0 1\n1 2\n")

# Graphs and access probabilities on which consensus_rate must equal the
# dense reference spectral_radius(expected - ones/n).
ORACLE_GRAPHS = {
    "ring": ring(12),
    "complete": complete(8),
    "star": from_edge_list("n 9\n" + "".join(f"0 {i}\n" for i in range(1, 9))),
    "path": from_edge_list("n 10\n" + "".join(f"{i} {i + 1}\n" for i in range(9))),
    "er30": erdos_renyi(30, 0.2, seed=0),
    "er100": erdos_renyi(100, 0.1, seed=0),
}
ORACLE_PS = (0.0, 1e-6, 0.01, 0.1, 0.1684, 1 / 3, 0.5, 0.9, 0.999, 1.0)


def _enumerated_expected_matrix(g, w, probs):
    """Exact expectation of the compensated matrix over all 2^n decisions."""
    total = np.zeros((g.n, g.n))
    for code in range(1 << g.n):
        bits = np.array([(code >> j) & 1 for j in range(g.n)])
        weight = float(np.prod(np.where(bits == 1, probs, 1 - probs)))
        if weight == 0.0:
            continue
        slot = transmission_matrix(g, bits)
        total += weight * compensate(mask_by_transmission(w, slot))
    return total


def test_base_weight_matrix_triangle():
    w = base_weight_matrix(ring(3), 0.3)
    assert np.allclose(np.diag(w), 0.4)
    assert np.allclose(w[~np.eye(3, dtype=bool)], 0.3)


def test_base_weight_matrix_ring20():
    w = base_weight_matrix(ring(20), 1 / 3)
    assert np.allclose(np.diag(w), 1 / 3)


def test_base_weight_matrix_rejects_boundary_epsilon():
    g = ring(6)  # d_max = 2
    with pytest.raises(DomainError):
        base_weight_matrix(g, 0.5)
    with pytest.raises(DomainError):
        base_weight_matrix(g, 0.0)


def test_base_weight_matrix_doubly_stochastic():
    g = erdos_renyi(12, 0.4, seed=0)
    w = base_weight_matrix(g, default_epsilon(g))
    assert np.allclose(w.sum(axis=0), 1, atol=1e-12)
    assert np.allclose(w.sum(axis=1), 1, atol=1e-12)
    assert np.array_equal(w, w.T)
    # second largest absolute eigenvalue below 1 for a connected graph
    mods = np.sort(np.abs(np.linalg.eigvalsh(w)))
    assert mods[-1] == pytest.approx(1.0, abs=1e-10)
    assert mods[-2] < 1.0


def test_default_epsilon_inside_bound():
    for g in (ring(6), complete(7), erdos_renyi(15, 0.3, seed=2)):
        eps = default_epsilon(g)
        assert 0 < eps < 1 / g.degrees.max()


def test_mask_with_identity_keeps_only_diagonal():
    g = ring(5)
    w = base_weight_matrix(g, 0.4)
    masked = mask_by_transmission(w, np.eye(5, dtype=int))
    assert np.allclose(masked, np.diag(np.diag(w)))


def test_mask_with_full_success_is_base():
    g = ring(5)
    w = base_weight_matrix(g, 0.4)
    full = g.adjacency + np.eye(5, dtype=np.int64)
    assert np.allclose(mask_by_transmission(w, full), w)


def test_mask_collision_graph_slot():
    # broadcast by 0 and 3: only links 1<-0 and 2<-3 survive
    g = from_edge_list(COLLISION_DOC)
    w = base_weight_matrix(g, 0.4)
    slot = transmission_matrix(g, [1, 0, 0, 1, 0])
    masked = mask_by_transmission(w, slot)
    expected = np.diag([0.2, 0.6, 0.6, 0.2, 0.2])
    expected[1, 0] = 0.4
    expected[2, 3] = 0.4
    assert np.allclose(masked, expected, atol=1e-15)


def test_mask_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        mask_by_transmission(np.eye(3), np.eye(4, dtype=int))


def test_compensate_identity_slot_gives_identity():
    g = ring(5)
    w = base_weight_matrix(g, 0.4)
    masked = mask_by_transmission(w, np.eye(5, dtype=int))
    assert np.array_equal(compensate(masked), np.eye(5))


def test_compensate_full_success_gives_base():
    g = ring(5)
    w = base_weight_matrix(g, 0.4)
    full = g.adjacency + np.eye(5, dtype=np.int64)
    assert np.allclose(compensate(mask_by_transmission(w, full)), w, atol=1e-15)


def test_compensate_path_single_success():
    # only receiver 0 hears sender 1; everyone else keeps their own value
    w = base_weight_matrix(PATH3, 0.4)
    slot = np.eye(3, dtype=np.int64)
    slot[0, 1] = 1
    out = compensate(mask_by_transmission(w, slot))
    assert np.allclose(out[0], [0.6, 0.4, 0.0], atol=1e-15)
    assert np.allclose(out[1], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(out[2], [0.0, 0.0, 1.0], atol=1e-15)


def test_compensate_rows_sum_to_one_over_sampled_slots():
    g = erdos_renyi(10, 0.4, seed=1)
    w = base_weight_matrix(g, default_epsilon(g))
    policy = AccessPolicy.uniform(10, 0.3)
    rng = np.random.default_rng(4)
    for _ in range(500):
        slot = transmission_matrix(g, sample_broadcast(policy, rng))
        w_bar = compensate(mask_by_transmission(w, slot))
        assert np.abs(w_bar.sum(axis=1) - 1).max() <= 1e-12
        assert np.all(w_bar >= 0)


def test_expected_weight_matrix_p_zero_is_identity():
    g = ring(6)
    w = base_weight_matrix(g, 1 / 3)
    assert np.allclose(expected_weight_matrix(g, w, AccessPolicy.uniform(6, 0.0)), np.eye(6))


def test_expected_weight_matrix_ring6_closed_form():
    g = ring(6)
    w = base_weight_matrix(g, 1 / 3)
    expected = expected_weight_matrix(g, w, AccessPolicy.uniform(6, 1 / 3))
    off = (1 / 3) * (1 / 3) * (2 / 3) ** 2  # eps * p * (1-p)^2 = 4/81
    assert np.allclose(expected[g.adjacency == 1], off, atol=1e-15)
    assert np.allclose(np.diag(expected), 1 - 2 * off, atol=1e-15)
    assert np.allclose(expected.sum(axis=1), 1, atol=1e-15)


def test_expected_weight_matrix_matches_enumeration():
    rng = np.random.default_rng(10)
    for g in (PATH3, ring(8), erdos_renyi(9, 0.4, seed=5)):
        w = base_weight_matrix(g, default_epsilon(g))
        for probs in (np.full(g.n, 0.35), rng.uniform(0, 1, g.n)):
            policy = AccessPolicy(probs)
            exact = _enumerated_expected_matrix(g, w, probs)
            assert np.abs(expected_weight_matrix(g, w, policy) - exact).max() <= 1e-12


def test_expected_weight_matrix_monte_carlo():
    g = ring(6)
    w = base_weight_matrix(g, 1 / 3)
    policy = AccessPolicy.uniform(6, 1 / 3)
    rng = np.random.default_rng(15)
    slots = 10**5
    total = np.zeros((6, 6))
    for _ in range(slots):
        slot = transmission_matrix(g, sample_broadcast(policy, rng))
        total += compensate(mask_by_transmission(w, slot))
    empirical = total / slots
    assert np.abs(empirical - expected_weight_matrix(g, w, policy)).max() <= 0.005


def test_consensus_rate_degenerate_endpoints():
    g = ring(8)
    assert consensus_rate(g, 1 / 3, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert consensus_rate(g, 1 / 3, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_consensus_rate_ring_circulant_formula():
    # for a ring the expected matrix is circulant, so the rate has the
    # closed form max_k |1 - 2 eps p (1-p)^2 (1 - cos(2 pi k / n))|
    n, eps = 20, 1 / 3
    g = ring(n)
    for p in (0.1, 1 / 3, 0.7):
        factor = 2 * eps * p * (1 - p) ** 2
        ks = np.arange(1, n)
        closed = np.max(np.abs(1 - factor * (1 - np.cos(2 * np.pi * ks / n))))
        assert consensus_rate(g, eps, p) == pytest.approx(closed, abs=1e-12)


def test_consensus_rate_ring_minimized_at_one_third():
    g = ring(20)
    at_opt = consensus_rate(g, 1 / 3, 1 / 3)
    assert at_opt < consensus_rate(g, 1 / 3, 1 / 3 - 0.05)
    assert at_opt < consensus_rate(g, 1 / 3, 1 / 3 + 0.05)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_consensus_rate_matches_dense_oracle(name):
    g = ORACLE_GRAPHS[name]
    eps = default_epsilon(g)
    w = base_weight_matrix(g, eps)
    for p in ORACLE_PS:
        expected = expected_weight_matrix(g, w, AccessPolicy.uniform(g.n, p))
        oracle = spectral_radius(expected - 1.0 / g.n)
        assert abs(consensus_rate(g, eps, p) - oracle) <= 1e-12, (name, p)


def test_consensus_rate_one_node_is_zero():
    assert consensus_rate(from_edge_list("n 1\n"), 0.5, 0.3) == 0.0


def test_spectral_radius_ring6_consensus():
    # The 6-ring's expected matrix at eps = p = 1/3 is circulant with 4/81
    # on the ring edges and 73/81 on the diagonal.
    g = ring(6)
    expected = expected_weight_matrix(g, base_weight_matrix(g, 1 / 3), AccessPolicy.uniform(6, 1 / 3))
    shifted = expected - 1 / 6
    rho = spectral_radius(shifted)
    assert rho == pytest.approx(1 - 2 * (1 / 3) * (1 / 3) * (4 / 9) * (1 - np.cos(np.pi / 3)), abs=1e-12)
    assert rho == pytest.approx(77 / 81, abs=1e-12)
    assert consensus_rate(g, 1 / 3, 1 / 3) == pytest.approx(77 / 81, abs=1e-12)
    # cross-check against plain power iteration on the symmetric matrix
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    for _ in range(500):
        v = shifted @ v
        v /= np.linalg.norm(v)
    assert np.linalg.norm(shifted @ v) == pytest.approx(rho, abs=1e-10)


def test_consensus_rate_rejects_bad_p():
    with pytest.raises(DomainError):
        consensus_rate(ring(6), 1 / 3, 1.5)


def test_spectral_optimal_probability_ring():
    for n in (6, 20):
        g = ring(n)
        assert spectral_optimal_probability(g, default_epsilon(g)) == pytest.approx(
            1 / 3, abs=1e-3
        )


def test_spectral_optimal_probability_complete():
    for n in (4, 10):
        g = complete(n)
        assert spectral_optimal_probability(g, default_epsilon(g)) == pytest.approx(
            1 / n, abs=1e-3
        )


def test_optimizers_coincide_on_uniform_degree_graphs():
    for g in (ring(6), ring(20), complete(4), complete(10)):
        p_thr = optimal_access_probability(g)
        p_spec = spectral_optimal_probability(g, default_epsilon(g))
        assert abs(p_thr - p_spec) <= 1e-3


def test_optimizers_close_on_er_instance():
    g = erdos_renyi(20, 0.3, seed=0)
    p_thr = optimal_access_probability(g)
    p_spec = spectral_optimal_probability(g, default_epsilon(g))
    assert abs(p_thr - p_spec) <= 0.05
