"""Random-access channel tests: sampling, transmission outcomes, throughput."""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsgd import mac, mixing
from radsgd.errors import DimensionError, DomainError, InvalidLinkError
from radsgd.mac import (
    AccessPolicy,
    brute_force_expected_throughput,
    expected_throughput,
    golden_section_max,
    link_decoder,
    link_success_prob,
    optimal_access_probability,
    sample_broadcast,
    search_lookahead,
    success_probability_matrix,
    throughput_derivative,
    transmission_matrix,
)
from radsgd.topology import Graph, complete, erdos_renyi, from_edge_list, ring

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


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_block_draw_equals_one_slot_draws(n, p):
    policy = AccessPolicy.uniform(n, p)
    block_rng, slot_rng = np.random.default_rng(8), np.random.default_rng(8)
    for slots in (1, 7, 0, 30):
        block = sample_broadcast(policy, block_rng, slots)
        one_slot = [sample_broadcast(policy, slot_rng) for _ in range(slots)]
        assert block.shape == (slots, n) and block.dtype == np.int64
        assert np.array_equal(block, np.array(one_slot, dtype=np.int64).reshape(slots, n))
        assert block_rng.bit_generator.state == slot_rng.bit_generator.state


def test_sample_broadcast_empirical_mean():
    rng = np.random.default_rng(123)
    policy = AccessPolicy.uniform(5, 0.5)
    samples = 10**5
    total = sample_broadcast(policy, rng, samples).sum(axis=0)
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


def _sequential_golden_section_max(f, lo, hi, tol):
    """The point-by-point search golden_section_max replays: f takes one point.

    Returns the maximizer and the number of loop iterations.
    """
    a, b = float(lo), float(hi)
    c = b - mac._INVPHI * (b - a)
    d = a + mac._INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - mac._INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + mac._INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b), iterations


def _counting(f, calls):
    def counted(points):
        calls.append(len(points))
        return f(points)

    return counted


SEARCH_CASES = {
    "quadratic": (lambda x: -(x - 0.7) ** 2, 0.0, 1.0, 1e-10),
    "kink": (lambda x: -np.abs(x - 0.3141), 0.0, 1.0, 1e-9),
    "kink_at_an_end": (lambda x: -np.abs(x - 2.0), -1.0, 2.0, 1e-7),
    # On a bracket symmetric about 0.5 the first comparison is an exact tie.
    "first_comparison_ties": (lambda x: -(x - 0.5) ** 2, 0.0, 1.0, 1e-9),
    "plateaus_tie_everywhere": (lambda x: np.floor(4.0 * x), 0.0, 1.0, 1e-6),
}


@pytest.mark.parametrize("lookahead", range(5))
@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_batched_search_equals_the_sequential_loop(name, lookahead):
    f, lo, hi, tol = SEARCH_CASES[name]
    expected, _ = _sequential_golden_section_max(lambda x: float(f(np.array([x]))[0]), lo, hi, tol)
    calls = []
    assert golden_section_max(_counting(f, calls), lo, hi, tol, lookahead=lookahead) == expected
    assert max(calls) <= 2 ** (lookahead + 1) - 1
    if lookahead == 0:
        assert set(calls) == {1}


def test_search_evaluates_no_point_past_the_tolerance():
    # From [0, 1] with tol 0.5 the search compares twice and stops at a
    # bracket of width 0.38: it needs c, d and one new point of the first
    # step, which may fall on either side.
    calls = []
    golden_section_max(_counting(lambda x: -(x - 0.7) ** 2, calls), 0.0, 1.0, tol=0.5, lookahead=4)
    assert calls == [4]


@pytest.mark.parametrize("lookahead", [0, 2])
@pytest.mark.parametrize("tol", [0.0, 1e-17, 1e-300])
def test_search_below_float_resolution_stops(tol, lookahead):
    # No bracket around 0.3 gets narrower than 1e-17; rounding stops the
    # search once an inner point lands on an end. A search that never stops
    # fails instead of hanging the suite: f raises after 500 calls, and an
    # alarm after 10 s catches a loop that spins on values it already has.
    calls = []

    def f(points):
        calls.append(len(points))
        if len(calls) > 500:
            raise RuntimeError("golden_section_max did not stop")
        return -(points - 0.3) ** 2

    def stuck(signum, frame):
        raise RuntimeError("golden_section_max did not stop within 10 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        p = golden_section_max(f, 0.0, 1.0, tol=tol, lookahead=lookahead)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert abs(p - 0.3) <= 4 * np.spacing(0.3)


def test_first_comparison_of_the_tie_case_is_a_tie():
    f, lo, hi, _ = SEARCH_CASES["first_comparison_ties"]
    c = hi - mac._INVPHI * (hi - lo)
    d = lo + mac._INVPHI * (hi - lo)
    assert f(c) == f(d)


def test_search_lookahead_fits_a_round_in_the_block():
    block = mixing.LANCZOS_BLOCK_BYTES // 4
    assert [search_lookahead(n, block) for n in (100, 200, 341, 342, 400, 1000, 10 ** 6)] == [2, 1, 1, 0, 0, 0, 0]
    for n in (1, 7, 20, 100, 300):
        lookahead = search_lookahead(n, block)
        assert 2 ** (lookahead + 1) - 1 <= max(1, block // (8 * n)) < 2 ** (lookahead + 2) - 1


def _star(n):
    return from_edge_list(f"n {n}\n" + "".join(f"0 {i}\n" for i in range(1, n)))


def _lollipop(clique, tail):
    edges = [f"{i} {j}\n" for i in range(clique) for j in range(i + 1, clique)]
    edges += [f"{i} {i + 1}\n" for i in range(clique - 1, clique + tail - 1)]
    return from_edge_list(f"n {clique + tail}\n" + "".join(edges))


REFINE_GRAPHS = {
    **{f"er{n}_seed{seed}": (n, seed) for n in (20, 100, 400) for seed in (0, 3, 7)},
    "ring20": ring(20),
    "lollipop": _lollipop(10, 10),
}


def _refine_graph(name):
    g = REFINE_GRAPHS[name]
    if isinstance(g, tuple):
        n, seed = g
        g = erdos_renyi(n, 10.0 / n, seed=seed)
    return g


@pytest.mark.parametrize("name", sorted(REFINE_GRAPHS))
def test_spectral_refinement_equals_the_sequential_search(name):
    g = _refine_graph(name)
    eps = mixing.default_epsilon(g)
    ps, rates = mixing.consensus_rate_scan(g, eps, 0.01)
    k = int(np.argmin(rates))
    lo, hi = float(ps[max(k - 1, 0)]), float(ps[min(k + 1, len(ps) - 1)])
    solve = mixing._rate_solver(g, eps)
    expected, _ = _sequential_golden_section_max(lambda p: -float(solve(np.array([p]))[0]), lo, hi, 1e-5)
    assert mixing.refine_spectral_minimum(g, eps, ps, rates) == expected
    for lookahead in range(5):
        assert golden_section_max(lambda p: -solve(p), lo, hi, 1e-5, lookahead=lookahead) == expected


def test_star_refinement_settles_within_tol_of_one_half():
    # A star's rate 1 - eps p (1 - p) is symmetric about 1/2, so on the bracket
    # [0.49, 0.51] every comparison is a tie in exact arithmetic and rounding
    # decides it. A point's Lanczos rate can move by half an ulp with the block
    # it is solved in, so a batched search may settle on the other side of 1/2
    # than the point-by-point one; one point per call replays it exactly.
    g = _star(12)
    eps = mixing.default_epsilon(g)
    ps, rates = mixing.consensus_rate_scan(g, eps, 0.01)
    solve = mixing._rate_solver(g, eps)
    expected, _ = _sequential_golden_section_max(lambda p: -float(solve(np.array([p]))[0]), 0.49, 0.51, 1e-5)
    assert golden_section_max(lambda p: -solve(p), 0.49, 0.51, 1e-5, lookahead=0) == expected
    for p in (expected, mixing.refine_spectral_minimum(g, eps, ps, rates)):
        assert abs(p - 0.5) <= 1e-5


def test_spectral_refinement_solves_a_round_per_call(monkeypatch):
    g = erdos_renyi(100, 0.1, seed=0)
    eps = mixing.default_epsilon(g)
    ps, rates = mixing.consensus_rate_scan(g, eps, 0.004)
    bind = mixing._rate_solver
    calls = []
    monkeypatch.setattr(mixing, "_rate_solver", lambda *args: _counting(bind(*args), calls))
    p = mixing.refine_spectral_minimum(g, eps, ps, rates)
    k = int(np.argmin(rates))
    solve = bind(g, eps)
    one_at_a_time = []
    expected, iterations = _sequential_golden_section_max(
        lambda x: -float(_counting(solve, one_at_a_time)(np.array([x]))[0]), ps[k - 1], ps[k + 1], 1e-5
    )
    assert p == expected and len(one_at_a_time) == iterations + 2 == 16
    depth = search_lookahead(g.n, mixing.LANCZOS_BLOCK_BYTES // 4) + 1
    assert depth == 3 and max(calls) <= 2 ** depth - 1
    assert len(calls) <= math.ceil(iterations / depth) + 1


@pytest.mark.parametrize("n", [20, 100, 400, 1000])
def test_expected_throughput_on_an_array_equals_the_float_calls(n):
    g = erdos_renyi(n, min(1.0, 10.0 / n), seed=n)
    ps = np.minimum(np.arange(0.0, 1.002, 0.004), 1.0)
    scalar = np.array([expected_throughput(g, float(p)) for p in ps])
    assert all(type(expected_throughput(g, float(p))) is float for p in ps[:3])
    assert np.array_equal(expected_throughput(g, ps), scalar)
    assert np.array_equal(expected_throughput(g, ps.reshape(-1, 1)), scalar.reshape(-1, 1))
    assert expected_throughput(g, np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(DomainError, match=r"got 1\.5$"):
        expected_throughput(g, np.array([0.2, 1.5, np.nan]))


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
    vectors, repeats = np.unique(sample_broadcast(policy, rng, slots), axis=0, return_counts=True)
    counts = sum(k * transmission_matrix(g, b) for b, k in zip(vectors, repeats))
    freq = counts / slots
    target = p * (1 - p) ** 2
    for i in range(6):
        for j in g.neighbors(i):
            assert abs(freq[i, j] - target) < 0.01


@st.composite
def relabelled_graphs(draw):
    """A connected graph, a renumbering perm of its nodes, and the graph whose node perm[i] is its node i.

    The relabelled graph is built from the edge list renumbered, shuffled
    and with each pair reversed.
    """
    n = draw(st.integers(2, 40))
    pairs = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))
    g = Graph(n, np.array(pairs + [(i, j) for i, j in extra if i != j]))
    perm = np.array(draw(st.permutations(range(n))))
    order = np.array(draw(st.permutations(range(g.edge_count))))
    return g, perm, Graph(n, perm[g.edges[order]][:, ::-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(graphs=relabelled_graphs(), seed=st.integers(0, 2 ** 32 - 1))
def test_node_labels_move_no_throughput_bit(graphs, seed):
    g, perm, h = graphs
    ps = np.minimum(np.arange(0.0, 1.002, 0.004), 1.0)
    assert np.array_equal(expected_throughput(h, ps), expected_throughput(g, ps))
    assert optimal_access_probability(h) == optimal_access_probability(g)
    # Node i of g broadcasts in the slots where node perm[i] of h does.
    block = (np.random.default_rng(seed).random((8, g.n)) < 0.3).astype(np.int64)
    relabelled = np.empty_like(block)
    relabelled[:, perm] = block
    for (receivers, senders), got in zip(link_decoder(g)(block), link_decoder(h)(relabelled)):
        order = np.argsort(perm[receivers])
        assert np.array_equal(got[0], perm[receivers][order]) and np.array_equal(got[1], perm[senders][order])
    # The rate reads L^+ in label order, so it keeps only _rate_solver's stated error.
    eps = mixing.default_epsilon(g)
    rate_ps = np.linspace(0.0, 1.0, 26)
    moved = mixing.consensus_rate(h, eps, rate_ps) - mixing.consensus_rate(g, eps, rate_ps)
    assert np.all(np.abs(moved) <= mixing.RITZ_RTOL)
