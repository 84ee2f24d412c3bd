"""Random-access channel tests: sampling, transmission outcomes, throughput."""

import numpy as np
import pytest

from radsgd.errors import DimensionError, DomainError, InvalidLinkError
from radsgd.mac import (
    AccessPolicy,
    brute_force_expected_throughput,
    expected_throughput,
    golden_section_max,
    link_success_prob,
    optimal_access_probability,
    sample_broadcast,
    success_probability_matrix,
    throughput_derivative,
    transmission_matrix,
)
from radsgd.topology import complete, erdos_renyi, from_edge_list, ring

COLLISION_DOC = "n 5\n0 1\n0 4\n3 2\n3 4\n"
PATH3 = from_edge_list("n 3\n0 1\n1 2\n")


def test_policy_rejects_out_of_range():
    with pytest.raises(DomainError):
        AccessPolicy([0.5, 1.2])
    with pytest.raises(DomainError):
        AccessPolicy([-0.1])


def test_policy_uniform():
    policy = AccessPolicy.uniform(4, 0.3)
    assert policy.n == 4
    assert np.allclose(policy.probs, 0.3)


def test_sample_broadcast_degenerate():
    rng = np.random.default_rng(0)
    assert np.all(sample_broadcast(AccessPolicy.uniform(8, 0.0), rng) == 0)
    assert np.all(sample_broadcast(AccessPolicy.uniform(8, 1.0), rng) == 1)


def test_sample_broadcast_empirical_mean():
    rng = np.random.default_rng(123)
    policy = AccessPolicy.uniform(5, 0.5)
    total = np.zeros(5)
    samples = 10**5
    for _ in range(samples):
        total += sample_broadcast(policy, rng)
    means = total / samples
    assert np.all(means >= 0.49) and np.all(means <= 0.51)


def test_transmission_matrix_collision_case():
    # nodes 0 and 3 broadcast together: receiver 1 decodes 0, receiver 2
    # decodes 3, receiver 4 hears both and gets nothing
    g = from_edge_list(COLLISION_DOC)
    t = transmission_matrix(g, [1, 0, 0, 1, 0])
    expected = np.eye(5, dtype=np.int64)
    expected[1, 0] = 1
    expected[2, 3] = 1
    assert np.array_equal(t, expected)


def test_transmission_matrix_nobody_broadcasts():
    g = ring(6)
    assert np.array_equal(transmission_matrix(g, np.zeros(6, dtype=int)), np.eye(6))


def test_transmission_matrix_everyone_broadcasts():
    g = ring(6)
    assert np.array_equal(transmission_matrix(g, np.ones(6, dtype=int)), np.eye(6))


def test_transmission_matrix_at_most_one_packet_per_receiver():
    g = erdos_renyi(12, 0.4, seed=5)
    rng = np.random.default_rng(2)
    policy = AccessPolicy.uniform(12, 0.4)
    for _ in range(200):
        t = transmission_matrix(g, sample_broadcast(policy, rng))
        off = t - np.diag(np.diag(t))
        assert off.sum(axis=1).max() <= 1
        # successes only on edges
        assert np.all(off <= g.adjacency)


def test_transmission_matrix_length_mismatch():
    with pytest.raises(DimensionError):
        transmission_matrix(ring(5), [1, 0])


def test_link_success_prob_ring_value():
    g = ring(6)
    assert link_success_prob(g, AccessPolicy.uniform(6, 1 / 3), 0, 1) == pytest.approx(
        4 / 27, abs=1e-15
    )


def test_link_success_prob_endpoints():
    g = ring(6)
    assert link_success_prob(g, AccessPolicy.uniform(6, 0.0), 0, 1) == 0.0
    assert link_success_prob(g, AccessPolicy.uniform(6, 1.0), 0, 1) == 0.0


def test_link_success_prob_asymmetry():
    # the end of a path has degree 1, the middle degree 2, so the two
    # directions of one edge succeed with different probabilities
    policy = AccessPolicy.uniform(3, 0.5)
    assert link_success_prob(PATH3, policy, 0, 1) == pytest.approx(0.25, abs=1e-15)
    assert link_success_prob(PATH3, policy, 1, 0) == pytest.approx(0.125, abs=1e-15)


def test_link_success_prob_rejects_non_edge():
    with pytest.raises(InvalidLinkError):
        link_success_prob(PATH3, AccessPolicy.uniform(3, 0.5), 0, 2)


def test_success_probability_matrix_matches_per_link():
    g = erdos_renyi(10, 0.4, seed=4)
    rng = np.random.default_rng(8)
    policy = AccessPolicy(rng.uniform(0, 1, 10))
    s = success_probability_matrix(g, policy)
    for i in range(10):
        for j in range(10):
            if g.adjacency[i, j]:
                assert s[i, j] == pytest.approx(link_success_prob(g, policy, i, j), abs=1e-14)
            else:
                assert s[i, j] == 0.0


def test_success_probability_matrix_handles_certain_broadcasters():
    # a neighbor with probability 1 must zero everyone else's leave-one-out
    # product without any division tricks
    probs = np.array([0.3, 1.0, 0.4])
    s = success_probability_matrix(PATH3, AccessPolicy(probs))
    assert s[0, 1] == pytest.approx(1.0 * (1 - 0.3), abs=1e-15)
    assert s[2, 1] == pytest.approx(1.0 * (1 - 0.4), abs=1e-15)
    assert s[1, 0] == pytest.approx(0.3 * 0.0 * (1 - 0.4), abs=1e-15)


def test_expected_throughput_zero_at_endpoints():
    g = erdos_renyi(10, 0.5, seed=1)
    assert expected_throughput(g, 0.0) == 0.0
    assert expected_throughput(g, 1.0) == 0.0


def test_expected_throughput_ring20():
    assert expected_throughput(ring(20), 1 / 3) == pytest.approx(160 / 27, abs=1e-12)


def test_expected_throughput_complete4():
    assert expected_throughput(complete(4), 0.25) == pytest.approx(1.265625, abs=1e-15)


def test_expected_throughput_rejects_out_of_range():
    with pytest.raises(DomainError):
        expected_throughput(ring(5), 1.1)
    with pytest.raises(DomainError):
        expected_throughput(ring(5), -0.1)


def test_throughput_derivative_at_zero_is_total_degree():
    g = erdos_renyi(10, 0.4, seed=2)
    assert throughput_derivative(g, 0.0) == pytest.approx(g.degrees.sum(), abs=1e-12)


def test_throughput_derivative_ring_root():
    assert throughput_derivative(ring(9), 1 / 3) == pytest.approx(0.0, abs=1e-12)


def test_throughput_derivative_complete5_root():
    assert throughput_derivative(complete(5), 0.2) == pytest.approx(0.0, abs=1e-12)


def test_throughput_derivative_sign_structure():
    g = erdos_renyi(20, 0.3, seed=3)
    lo = 1 / (1 + g.degrees.max())
    hi = 1 / (1 + g.degrees.min())
    for p in np.linspace(0.0, lo * 0.98, 7):
        assert throughput_derivative(g, p) > 0
    for p in np.linspace(min(hi * 1.02, 0.99), 0.99, 7):
        assert throughput_derivative(g, p) < 0


def test_optimal_access_probability_ring_exact():
    assert optimal_access_probability(ring(20)) == 1 / 3


def test_optimal_access_probability_complete20():
    assert optimal_access_probability(complete(20)) == pytest.approx(0.05, abs=1e-12)


def test_optimal_access_probability_path3():
    # degrees (1, 2, 1): the optimum solves 2(1-2p) + 2(1-p)(1-3p) = 0,
    # i.e. 6p^2 - 12p + 4 = 0; the root inside (1/3, 1/2) is 1 - 1/sqrt(3).
    # Recomputed here with an independent polynomial root-finder.
    roots = np.roots([6.0, -12.0, 4.0])
    target = float(roots[(roots > 1 / 3) & (roots < 1 / 2)][0])
    assert target == pytest.approx(1 - 1 / np.sqrt(3), abs=1e-12)
    assert optimal_access_probability(PATH3) == pytest.approx(target, abs=1e-6)


def test_optimal_access_probability_stays_in_bracket():
    g = erdos_renyi(20, 0.3, seed=6)
    p_star = optimal_access_probability(g)
    assert 1 / (1 + g.degrees.max()) <= p_star <= 1 / (1 + g.degrees.min())
    # no interior grid point beats it
    best_grid = max(expected_throughput(g, p) for p in np.linspace(0.01, 0.99, 99))
    assert expected_throughput(g, p_star) >= best_grid - 1e-9


def test_golden_section_max_quadratic():
    assert golden_section_max(lambda x: -(x - 0.7) ** 2, 0.0, 1.0, tol=1e-10) == pytest.approx(
        0.7, abs=1e-8
    )


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(DomainError):
        golden_section_max(lambda x: x, 1.0, 1.0)


def test_brute_force_all_broadcast_is_zero():
    g = ring(6)
    assert brute_force_expected_throughput(g, AccessPolicy.uniform(6, 1.0)) == 0.0


def test_brute_force_matches_closed_form_ring6():
    g = ring(6)
    bf = brute_force_expected_throughput(g, AccessPolicy.uniform(6, 1 / 3))
    assert bf == pytest.approx(expected_throughput(g, 1 / 3), abs=1e-12)


def test_brute_force_collision_pattern_is_two():
    g = from_edge_list(COLLISION_DOC)
    policy = AccessPolicy(np.array([1.0, 0.0, 0.0, 1.0, 0.0]))
    assert brute_force_expected_throughput(g, policy) == pytest.approx(2.0, abs=1e-15)


def test_brute_force_rejects_large_graphs():
    with pytest.raises(DimensionError):
        brute_force_expected_throughput(ring(21), AccessPolicy.uniform(21, 0.5))


def test_closed_form_matches_enumeration_small_graphs():
    graphs = [
        ring(8),
        complete(6),
        from_edge_list("n 4\n0 1\n1 2\n2 3\n"),
        erdos_renyi(8, 0.4, seed=9),
    ]
    for g in graphs:
        for k in range(1, 10):
            p = k / 10
            bf = brute_force_expected_throughput(g, AccessPolicy.uniform(g.n, p))
            assert bf == pytest.approx(expected_throughput(g, p), abs=1e-12)


def test_monte_carlo_link_frequencies():
    g = ring(6)
    p = 0.3
    policy = AccessPolicy.uniform(6, p)
    rng = np.random.default_rng(77)
    slots = 10**5
    # One transmission matrix per distinct broadcast vector, weighted by its count.
    vectors, repeats = np.unique([sample_broadcast(policy, rng) for _ in range(slots)], axis=0, return_counts=True)
    counts = sum(k * transmission_matrix(g, b) for b, k in zip(vectors, repeats))
    freq = counts / slots
    target = p * (1 - p) ** 2
    for i in range(6):
        for j in g.neighbors(i):
            assert abs(freq[i, j] - target) < 0.01
