"""Mixing matrix tests: base weights, masking, compensation, expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radsgd.topology
from radsgd import mixing
from radsgd.errors import DimensionError, DomainError
from radsgd.mac import AccessPolicy, optimal_access_probability, sample_broadcast, transmission_matrix
from radsgd.mixing import (
    base_weight_matrix,
    compensate,
    consensus_rate,
    consensus_rate_scan,
    default_epsilon,
    expected_weight_matrix,
    mask_by_transmission,
    spectral_optimal_probability,
    spectral_radius,
)
from radsgd.topology import Graph, complete, erdos_renyi, from_edge_list, ring

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
    # The chain runs once per distinct broadcast vector, weighted by its count.
    vectors, repeats = np.unique(sample_broadcast(policy, rng, slots), axis=0, return_counts=True)
    total = sum(
        k * compensate(mask_by_transmission(w, transmission_matrix(g, b))) for b, k in zip(vectors, repeats)
    )
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


# Known spectra for the Lanczos solver behind consensus_rate. ULP is the
# spacing of floats at 1, near which every rate lies.
ULP = float(np.spacing(1.0))
GRID = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-9, 0.1684, 0.9, 0.999, 1.0 - 1e-6]])


def _star(n):
    return from_edge_list(f"n {n}\n" + "".join(f"0 {i}\n" for i in range(1, n)))


def _path(n):
    return from_edge_list(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))


def _lollipop(clique, tail):
    edges = [f"{i} {j}\n" for i in range(clique) for j in range(i + 1, clique)]
    edges += [f"{i} {i + 1}\n" for i in range(clique - 1, clique + tail - 1)]
    return from_edge_list(f"n {clique + tail}\n" + "".join(edges))


def _dense_rates(g, eps, ps):
    """1 - eps * lambda_2(H) from one dense eigvalsh per point (1 at p in {0, 1})."""
    rates = []
    for p in ps:
        root_s = np.sqrt(p * (1.0 - p) ** g.degrees)
        eig = np.linalg.eigvalsh(root_s[:, None] * g.laplacian * root_s[None, :])
        rates.append(1.0 if p in (0.0, 1.0) else 1.0 - eps * eig[1])
    return np.array(rates)


def _closed_form_rates(eps, ps, lambda_2):
    return np.where((ps > 0.0) & (ps < 1.0), 1.0 - eps * lambda_2, 1.0)


@pytest.mark.parametrize("n", [2, 5, 30, 300])
def test_consensus_rate_complete_graph_closed_form(n):
    # L = n I - J, S = p (1-p)^{n-1} I, so lambda_2(H) = n p (1-p)^{n-1}.
    g, eps = complete(n), 1.0 / n
    want = _closed_form_rates(eps, GRID, n * GRID * (1.0 - GRID) ** (n - 1))
    assert np.abs(consensus_rate(g, eps, GRID) - want).max() <= 4 * ULP


@pytest.mark.parametrize("n", [3, 9, 50, 300])
def test_consensus_rate_star_closed_form(n):
    # The leaf differences are eigenvectors of H with eigenvalue
    # S_leaf = p (1-p); the one other nonzero eigenvalue is larger. Past
    # p = 0.5 the two lie within 1e-8 of each other and the centre's mass
    # exceeds the leaves' by many orders of magnitude.
    g = _star(n)
    eps = default_epsilon(g)
    want = _closed_form_rates(eps, GRID, GRID * (1.0 - GRID))
    assert np.abs(consensus_rate(g, eps, GRID) - want).max() <= 4 * ULP
    for p in (0.1, 0.9, 1.0 - 1e-9):
        assert abs(consensus_rate(g, eps, p) - (1.0 - eps * p * (1.0 - p))) <= 4 * ULP


@pytest.mark.parametrize("n", [5, 12, 101, 1000])
def test_consensus_rate_ring_closed_form(n):
    # lambda_2(H) = p (1-p)^2 (2 - 2 cos(2 pi / n)) = p (1-p)^2 4 sin^2(pi / n).
    g, eps = ring(n), 1 / 3
    want = _closed_form_rates(eps, GRID, GRID * (1.0 - GRID) ** 2 * 4.0 * np.sin(np.pi / n) ** 2)
    assert np.abs(consensus_rate(g, eps, GRID) - want).max() <= 4 * ULP


DENSE_CASES = {
    **{f"er20_seed{seed}": (20, 0.3, seed) for seed in (0, 1, 2)},
    **{f"er100_seed{seed}": (100, 0.1, seed) for seed in (0, 1, 2)},
    **{f"er400_seed{seed}": (400, 0.025, seed) for seed in (0, 1)},
    "lollipop": _lollipop(10, 10),
    "path": _path(40),
}


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_consensus_rate_matches_dense_eigvalsh(name):
    case = DENSE_CASES[name]
    g = erdos_renyi(*case) if isinstance(case, tuple) else case
    eps = default_epsilon(g)
    ps = GRID if g.n < 400 else GRID[::2]
    assert np.abs(consensus_rate(g, eps, ps) - _dense_rates(g, eps, ps)).max() <= 4 * ULP


def test_consensus_rate_near_a_crossing_of_lambda_2_and_lambda_3():
    # On this graph lambda_2(H) and lambda_3(H) come within 1.2 % of each
    # other near p = 0.1978 (an avoided crossing found by a fine scan).
    g = erdos_renyi(30, 0.2, seed=2)
    eps = default_epsilon(g)
    ps = 0.1978 + np.array([-1e-3, -1e-5, 0.0, 1e-5, 1e-3])
    root_s = np.sqrt(0.1978 * 0.8022 ** g.degrees)
    eig = np.linalg.eigvalsh(root_s[:, None] * g.laplacian * root_s[None, :])
    assert eig[2] - eig[1] < 0.012 * eig[1]
    assert np.abs(consensus_rate(g, eps, ps) - _dense_rates(g, eps, ps)).max() <= 4 * ULP


@pytest.mark.parametrize("p", [1e-12, 1.0 - 1e-9])
def test_consensus_rate_graded_extremes_stay_finite(p):
    g, eps = complete(300), 1.0 / 300
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rate = consensus_rate(g, eps, p)
        star_rate = consensus_rate(_star(300), default_epsilon(_star(300)), p)
    assert abs(rate - (1.0 - eps * 300 * p * (1.0 - p) ** 299)) <= 4 * ULP
    assert abs(star_rate - (1.0 - default_epsilon(_star(300)) * p * (1.0 - p))) <= 4 * ULP


def test_consensus_rate_endpoints_and_one_node_are_exact():
    g = erdos_renyi(20, 0.3, seed=0)
    assert consensus_rate(g, default_epsilon(g), 0.0) == 1.0
    assert consensus_rate(g, default_epsilon(g), 1.0) == 1.0
    rates = consensus_rate(g, default_epsilon(g), np.array([0.0, 0.3, 1.0]))
    assert rates[0] == 1.0 and rates[2] == 1.0 and rates[1] < 1.0
    one = from_edge_list("n 1\n")
    assert np.array_equal(consensus_rate(one, 0.5, np.array([0.0, 0.3, 1.0])), np.zeros(3))


def test_consensus_rate_keeps_the_shape_of_p():
    g = ring(8)
    assert isinstance(consensus_rate(g, 1 / 3, 0.2), float)
    assert isinstance(consensus_rate(g, 1 / 3, np.float64(0.2)), float)
    ps = np.array([[0.1, 0.2], [0.3, 0.4]])
    rates = consensus_rate(g, 1 / 3, ps)
    assert rates.shape == (2, 2)
    assert np.abs(rates - _dense_rates(g, 1 / 3, ps.ravel()).reshape(2, 2)).max() <= 4 * ULP


def test_consensus_rate_repeats_bit_for_bit():
    g = erdos_renyi(100, 0.1, seed=4)
    eps = default_epsilon(g)
    assert np.array_equal(consensus_rate(g, eps, GRID), consensus_rate(g, eps, GRID))
    assert consensus_rate(g, eps, 0.37) == consensus_rate(g, eps, 0.37)


def test_lanczos_breaks_down_at_once_on_a_complete_graph(monkeypatch):
    # On the zero-sum vectors the operator of a complete graph is a multiple
    # of the identity, so beta_1 is rounding noise: a breakdown at step 1.
    steps = []
    solve = mixing._top_tridiagonal_eigenvalues

    def counting(alpha, beta):
        steps.append(alpha.shape[1])
        return solve(alpha, beta)

    monkeypatch.setattr(mixing, "_top_tridiagonal_eigenvalues", counting)
    consensus_rate(complete(50), 1 / 50, GRID)
    assert steps == [1]


def test_lanczos_block_bytes_move_no_rate(monkeypatch):
    # One probability per block and one tridiagonal matrix per eigvalsh call.
    g = erdos_renyi(100, 0.1, seed=5)
    eps = default_epsilon(g)
    wide = consensus_rate(g, eps, GRID)
    monkeypatch.setattr(mixing, "LANCZOS_BLOCK_BYTES", 1)
    assert np.abs(consensus_rate(g, eps, GRID) - wide).max() <= 2 * ULP


def test_consensus_rate_scan_makes_one_consensus_rate_call(monkeypatch):
    # Profilers wrap the module-global name; the whole grid must pass through it.
    calls = []
    solve = mixing.consensus_rate

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(mixing, "consensus_rate", counting)
    ps, rates = consensus_rate_scan(ring(10), 1 / 3, 0.01)
    assert len(calls) == 1 and len(ps) == 101
    assert np.array_equal(rates, solve(ring(10), 1 / 3, ps))


def test_consensus_rate_scan_checks_physical_memory(monkeypatch):
    # 100001 grid points at SCAN_POINT_BYTES each take about 3.2 MB.
    monkeypatch.setattr(radsgd.topology, "physical_memory", lambda: 1 << 20)
    with pytest.raises(DomainError, match="physical memory"):
        consensus_rate_scan(ring(4), 0.25, 1e-5)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on up to 14 nodes plus random extra edges."""
    n = draw(st.integers(2, 14))
    pairs = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)):
        if i != j:
            pairs.append((i, j))
    return Graph(n, np.array(pairs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=connected_graphs(), gap=st.floats(1e-12, 0.5), p=st.floats(0.0, 1.0))
def test_lambda_n_end_never_binds(g, gap, p):
    # eps * lambda_n(H) <= eps * max_i S_i * lambda_n(L) < (1/d_max)(1/4)(2 d_max) = 1/2,
    # so 1 - eps * lambda_2(H) is the whole rate, even as eps nears 1/d_max.
    eps = (1.0 - gap) / float(g.degrees.max())
    root_s = np.sqrt(p * (1.0 - p) ** g.degrees)
    eig = np.linalg.eigvalsh(root_s[:, None] * g.laplacian * root_s[None, :])
    assert eps * eig[-1] < 0.5
    # Lanczos and the dense solver round differently: K2 at p = 0.5 gives
    # 0.6249999999999999 against 0.625.
    want = max(abs(1.0 - eps * eig[1]), abs(1.0 - eps * eig[-1]))
    assert abs(consensus_rate(g, eps, p) - want) <= 2 * np.spacing(want)


def test_consensus_rate_scan_grid_ends_at_one():
    g = ring(6)
    ps, rates = consensus_rate_scan(g, 1 / 3, 0.0006)
    assert len(ps) == 1668 and ps[-1] == 1.0 and np.all(np.diff(ps) > 0)
    assert np.array_equal(ps[:-1], np.arange(0.0, 1.0 + 0.0003, 0.0006)[:-1])
    assert rates[-1] == 1.0
    assert rates[1] == consensus_rate(g, 1 / 3, 0.0006)
    assert spectral_optimal_probability(g, 1 / 3, 0.0006) == pytest.approx(1 / 3, abs=1e-3)


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
