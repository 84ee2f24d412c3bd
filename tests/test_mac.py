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
    link_decoder,
    link_success_prob,
    optimal_access_probability,
    sample_broadcast,
    sign_change,
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


def _counting(f, calls):
    def counted(points):
        calls.append(len(points))
        return f(points)

    return counted


ROOT_CASES = {
    # The derivative of -(x - 0.7)^2: regula falsi lands on 0.7.
    "quadratic": (lambda x: -2.0 * (x - 0.7), 0.7),
    "cosine": (lambda x: np.cos(x) - x, 0.7390851332151607),
    "steep_exponential": (lambda x: np.exp(-40.0 * x) - 0.5, math.log(2.0) / 40.0),
}


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
def test_sign_change_finds_the_root_to_adjacent_floats(name):
    f, root = ROOT_CASES[name]
    calls = []
    p = sign_change(_counting(f, calls), 0.0, 1.0)
    assert abs(p - root) <= np.spacing(root)
    # The ends go in one call, then one point per call.
    assert calls[0] == 2 and set(calls[1:]) <= {1}


def test_sign_change_returns_an_end_where_the_sign_does_not_change():
    calls = []
    assert sign_change(_counting(lambda x: x - 5.0, calls), 0.0, 1.0) == 0.0
    assert sign_change(_counting(lambda x: 5.0 - x, calls), 0.0, 1.0) == 1.0
    assert sign_change(_counting(lambda x: x, calls), 0.0, 1.0) == 0.0
    assert sign_change(_counting(lambda x: 1.0 - x, calls), 0.0, 1.0) == 1.0
    assert calls == [2, 2, 2, 2]
    assert sign_change(_counting(lambda x: x, calls), 0.25, 0.25) == 0.25 and calls == [2, 2, 2, 2]


@pytest.mark.parametrize("above, below", [(1.0, -1.0), (1e300, -1e-300), (1e-300, -1e300)])
def test_sign_change_stops_on_a_jump(above, below):
    # A jump at 0.3 is a sign change with no root. Each halving of the
    # bracket costs at most four calls and spacing(0.3) = 2^-54, so from
    # [0, 1] the search stops within 1 + 4 * 54 calls, at the float below
    # 0.3 or at 0.3. A search that never stops fails instead of hanging the
    # suite: f raises past that budget, and an alarm after 10 s catches a
    # loop that spins without calling f.
    calls = []

    def f(points):
        calls.append(len(points))
        if len(calls) > 1 + 4 * 54:
            raise RuntimeError("sign_change did not stop")
        return np.where(points < 0.3, above, below)

    def stuck(signum, frame):
        raise RuntimeError("sign_change did not stop within 10 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        p = sign_change(f, 0.0, 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert np.nextafter(0.3, 0.0) <= p <= 0.3


@pytest.mark.parametrize("flat_ulps", [0, 2])
@pytest.mark.parametrize("shift", [0.0, 1e-17, 1e-300])
def test_search_below_float_resolution_stops(shift, flat_ulps):
    # A slope whose root 0.3 - shift lies below float resolution from 0.3,
    # and which is exactly 0 within flat_ulps floats of 0.3. 0.3 - x is
    # exact near 0.3, so without a flat top f(0.3) is 0 or -shift e^6 and
    # the search returns 0.3 itself: as an exact 0, or as the end of smaller
    # |f| once the bracket is [0.3 - ulp, 0.3]. With one it stops on an
    # exact 0 in the flat top. The factor e^(20 x) keeps regula falsi from
    # landing on the root in one step (it takes 28 or 29 calls). Same guards as
    # test_sign_change_stops_on_a_jump.
    calls = []
    flat = flat_ulps * np.spacing(0.3)

    def f(points):
        calls.append(len(points))
        if len(calls) > 1 + 4 * 54:
            raise RuntimeError("sign_change did not stop")
        slope = ((0.3 - points) - shift) * np.exp(20.0 * points)
        return np.where((flat_ulps > 0) & (np.abs(points - 0.3) <= flat), 0.0, slope)

    def stuck(signum, frame):
        raise RuntimeError("sign_change did not stop within 10 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        p = sign_change(f, 0.0, 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert abs(p - 0.3) <= flat


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
    # Swapping nodes 0 <-> 1, 2 <-> 4 and 5 <-> 6 maps the graph onto itself,
    # so each eigenvector of H is even or odd under the swap. An even and an
    # odd lambda_2 cross at p = 0.2822665424..., where the rate is least: a
    # Lanczos run started at one side's eigenvector stays on its branch past
    # the crossing.
    "crossing7": from_edge_list("n 7\n0 1\n0 2\n0 3\n0 5\n1 3\n1 4\n1 6\n2 4\n2 6\n4 5\n"),
}


def _refine_graph(name):
    g = REFINE_GRAPHS[name]
    if isinstance(g, tuple):
        n, seed = g
        g = erdos_renyi(n, 10.0 / n, seed=seed)
    return g


def _degree_bracket(g):
    return 1.0 / (1.0 + g.degrees.max()), 1.0 / (1.0 + g.degrees.min())


def _scan_cell(g, ps, rates):
    """The scan's cell around its best point, clipped to the degree bracket, as the refinement searches it."""
    k = int(np.argmin(rates))
    return np.clip([ps[max(k - 1, 0)], ps[min(k + 1, len(ps) - 1)]], *_degree_bracket(g))


def _dense_condition(g, p):
    """1 - p (1 + sum_i y_i^2 d_i) for lambda_2(H)'s eigenvector y from dense eigh, and H's eigenvalues."""
    root_s = np.sqrt(p * (1.0 - p) ** g.degrees.astype(float))
    values, vectors = np.linalg.eigh(root_s[:, None] * g.laplacian * root_s[None, :])
    y2 = vectors[:, 1] ** 2
    return 1.0 - p * (1.0 + y2 @ g.degrees / y2.sum()), values


def _long_double_slope(g, p):
    """throughput_derivative in long double, summed node by node."""
    d = g.degrees.astype(np.longdouble)
    q = np.longdouble(p)
    return np.sum(d * (1 - q) ** (d - 1) * (1 - q * (1 + d)))


def _bisect(f, a, b):
    """Where f turns from positive to negative in [a, b], by plain bisection down to adjacent floats."""
    while a < a + 0.5 * (b - a) < b:
        m = a + 0.5 * (b - a)
        a, b = (m, b) if f(m) > 0 else (a, m)
    return a


@pytest.mark.parametrize("name", sorted(REFINE_GRAPHS))
def test_both_optima_match_a_dense_bisection(name):
    # Each reference condition changes sign within the tolerance of the optimum,
    # so a bisection of it there would land within the tolerance too.
    g = _refine_graph(name)
    eps = mixing.default_epsilon(g)
    ps, rates = mixing.consensus_rate_scan(g, eps, 0.01)
    p_spec = mixing.refine_spectral_minimum(g, eps, ps, rates)
    if g.degrees.min() < g.degrees.max():
        assert _dense_condition(g, p_spec - 1e-12)[0] > 0 > _dense_condition(g, p_spec + 1e-12)[0]
        p_thr = optimal_access_probability(g)
        assert _long_double_slope(g, p_thr - 1e-15) > 0 > _long_double_slope(g, p_thr + 1e-15)
    else:
        assert p_spec == 1.0 / (1.0 + g.degrees[0])


@st.composite
def connected_graphs(draw):
    """A random spanning tree on up to 12 nodes plus random extra edges."""
    n = draw(st.integers(2, 12))
    pairs = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    return Graph(n, np.array(pairs + [(i, j) for i, j in extra if i != j]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs())
def test_both_optima_are_roots_of_their_conditions(g):
    lo, hi = _degree_bracket(g)
    eps = mixing.default_epsilon(g)
    ps, rates = mixing.consensus_rate_scan(g, eps, 0.01)
    p_spec = mixing.refine_spectral_minimum(g, eps, ps, rates)
    p_thr = optimal_access_probability(g)
    assert lo <= p_thr <= hi and lo <= p_spec <= hi
    assert abs(p_thr - float(_bisect(lambda p: _long_double_slope(g, p), lo, hi))) <= 1e-12
    assert abs(p_spec - _bisect(lambda p: _dense_condition(g, p)[0], *_scan_cell(g, ps, rates))) <= 1e-12
    # refine_spectral_minimum's bound: 2 p d_max delta for the Ritz vector's
    # angle delta of _top_ritz_values, plus the condition's step between the
    # floats next to p_spec and its rounding.
    condition, values = _dense_condition(g, p_spec)
    if lo < hi and values[1] < values[2]:
        delta = mixing.RITZ_RTOL / (1.0 - values[1] / values[2])
        step = abs(_dense_condition(g, np.nextafter(p_spec, 0.0))[0] - _dense_condition(g, np.nextafter(p_spec, 1.0))[0])
        assert abs(condition) <= 2.0 * p_spec * g.degrees.max() * delta + step + 1e-14
    # The throughput has a single maximum: its derivative (throughput_derivative's
    # formula, on the whole grid at once) changes sign once.
    signs = np.sign(mac._throughput_slope(g)(np.linspace(lo, hi, 1001)))
    assert np.count_nonzero(np.diff(signs[signs != 0])) <= 1


@pytest.mark.parametrize("g", [ring(6), ring(20), complete(2), complete(4), complete(10)], ids=lambda g: f"n{g.n}_d{g.degrees[0]}")
def test_both_optima_are_one_over_one_plus_the_degree_on_regular_graphs(g):
    want = 1.0 / (1.0 + g.degrees[0])
    for p in (optimal_access_probability(g), mixing.spectral_optimal_probability(g, mixing.default_epsilon(g))):
        assert abs(p - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize("grid_step", [0.01, 0.001])
def test_star_refinement_lands_on_one_half(grid_step):
    # A star's rate 1 - eps p (1 - p) is symmetric about 1/2, where the
    # leaves' eigenvectors give 1 - p (1 + 1) = 0: the upper end of the
    # degree bracket [1/12, 1/2].
    g = _star(12)
    assert abs(mixing.spectral_optimal_probability(g, mixing.default_epsilon(g), grid_step) - 0.5) <= 4 * np.spacing(0.5)


def test_spectral_refinement_solves_both_ends_in_one_block(monkeypatch):
    g = erdos_renyi(100, 0.1, seed=0)
    eps = mixing.default_epsilon(g)
    ps, rates = mixing.consensus_rate_scan(g, eps, 0.004)
    bind = mixing._rate_solver
    widths = []

    def counting(*args):
        rates, eigen = bind(*args)

        def counted(points, **keywords):
            widths.append((len(points), keywords.get("vectors", False)))
            return eigen(points, **keywords)

        return rates, counted

    want = mixing.refine_spectral_minimum(g, eps, ps, rates)
    monkeypatch.setattr(mixing, "_rate_solver", counting)
    assert mixing.refine_spectral_minimum(g, eps, ps, rates) == want
    # The ends, then a point per solve, then the last bracket again from a
    # cold start, without vectors.
    assert widths[0] == (2, True) and set(widths[1:-1]) == {(1, True)}
    assert widths[-1][0] <= 3 and not widths[-1][1]


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
