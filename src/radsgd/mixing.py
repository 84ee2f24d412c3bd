"""Mixing matrices for consensus under random link failures.

Four matrix roles appear here, all plain float arrays:

* base: W = I - eps * L, symmetric and doubly stochastic;
* masked: W with the weights of failed links zeroed for one slot;
* compensated: masked with each failed incoming weight returned to the
  diagonal, restoring row-stochasticity (generally not symmetric);
* expected: the entrywise expectation of the compensated matrix under the
  access policy, in closed form.

The spectral radius of (expected - ones/n) measures the per-slot
contraction of disagreement and is the quantity minimized over the access
probability. consensus_rate reads it off the pseudo-inverse of a symmetric
matrix similar to the expected one, by a Lanczos iteration that runs on a
whole grid of access probabilities at once; the dense expected matrix and
spectral_radius stay as its reference.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DomainError

# perfbench wraps radsgd.mixing.success_probability_matrix and
# radsgd.mixing.spectral_radius by these names; keep both resolvable here.
from .mac import AccessPolicy, golden_section_max, over_probabilities, search_lookahead, success_probability_matrix
from .topology import Graph, check_fits

# Bound on the working arrays of one consensus_rate call: each (n, block)
# Lanczos array, and each stack of tridiagonal matrices passed to eigvalsh.
# It sets how many access probabilities share one product with L^+.
LANCZOS_BLOCK_BYTES = 1 << 15
# Lanczos stopping rule (see _rate_solver): the relative tolerance on the top
# Ritz value and on beta, and how many steps apart the Ritz value is checked.
RITZ_RTOL = 1e-14
RITZ_EVERY = 4
# How far, in logs, a node mass may lie above or below the second largest.
MASS_CAP = 80.0
# With a margin, the n x n float arrays that _rate_solver holds at peak (the
# Laplacian, L + J/n and inv's work: 5.14 at n = 3000) and the bytes that
# consensus_rate_scan holds per grid point (26 for a grid of 10^6 points).
RATE_SOLVER_MATRICES, SCAN_POINT_BYTES = 6, 32


def default_epsilon(g: Graph) -> float:
    """Default base weight 1/(d_max + 1); strictly inside the (0, 1/d_max) bound."""
    return 1.0 / (float(g.degrees.max()) + 1.0)


def check_epsilon(g: Graph, epsilon: float) -> float:
    """Return epsilon if it satisfies the strict bound 0 < eps < 1/d_max, else raise DomainError.

    A graph without edges (one node) bounds eps only from below.
    """
    d_max = float(g.degrees.max())
    if not (0.0 < epsilon and (d_max == 0.0 or epsilon < 1.0 / d_max)):
        raise DomainError(
            f"epsilon must lie in (0, 1/{int(d_max)}) for this graph, got {epsilon}"
        )
    return epsilon


def base_weight_matrix(g: Graph, epsilon: float) -> np.ndarray:
    """Base mixing matrix W = I - eps * L.

    Symmetric and doubly stochastic, with eps on every edge and
    1 - eps * d_i on the diagonal. The bound eps < 1/d_max is strict so all
    diagonal entries stay positive.
    """
    return np.eye(g.n) - check_epsilon(g, epsilon) * g.laplacian


def mask_by_transmission(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Hadamard product of the base matrix with one slot's success indicators.

    Failed links lose their weight entirely; the result is generally
    neither row- nor column-stochastic until compensated.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t)
    if w.shape != t.shape:
        raise DimensionError(f"shape mismatch: {w.shape} vs {t.shape}")
    return w * t


def compensate(w_masked: np.ndarray) -> np.ndarray:
    """Biased compensation: failed incoming weight returns to the diagonal.

    Off-diagonal entries are kept as masked; each diagonal entry is reset
    to 1 minus its surviving off-diagonal row sum, so every row sums to 1
    exactly. Asymmetric link outcomes make the result non-symmetric.
    """
    a = np.asarray(w_masked, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    out = a.copy()
    off_row_sums = a.sum(axis=1) - np.diag(a)
    np.fill_diagonal(out, 1.0 - off_row_sums)
    return out


def mix_slot(z: np.ndarray, receivers: np.ndarray, senders: np.ndarray, epsilon: float) -> np.ndarray:
    """One slot's compensated mixing applied to stacked models z (n, dim).

    Sparse form of compensate(mask_by_transmission(W, T)) @ z for the base
    matrix W = I - eps * L and T = transmission_matrix(g, b), given
    (receivers, senders) = decoding_links(g, b). A compensated row is 1 - eps
    on the diagonal and eps at the one decoded sender, or the identity row
    for a node that decoded nothing, so only the receivers' rows change.
    Costs O(n * dim) instead of the dense product's O(n^2 * dim).

    An unchecked per-slot internal: receivers and senders are expected to
    come from decoding a broadcast vector on the graph that z stacks, and
    an out-of-range index raises numpy's IndexError.
    """
    out = z.copy()
    out[receivers] = (1.0 - epsilon) * z[receivers] + epsilon * z[senders]
    return out


def expected_weight_matrix(g: Graph, w_base: np.ndarray, policy: AccessPolicy) -> np.ndarray:
    """Entrywise expectation of the compensated matrix under the policy.

    Off-diagonal (i, j) is W_ij times the probability that receiver i
    decodes sender j; the diagonal absorbs the complement so rows sum to 1
    exactly. Row i's incoming links never succeed simultaneously, but
    expectation is linear, so the closed form needs no joint distribution.
    """
    w = np.asarray(w_base, dtype=float)
    if w.shape != (g.n, g.n):
        raise DimensionError(f"base matrix shape {w.shape} does not match n={g.n}")
    expected = w * success_probability_matrix(g, policy)
    np.fill_diagonal(expected, 0.0)
    np.fill_diagonal(expected, 1.0 - expected.sum(axis=1))
    return expected


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a real square matrix (general solver; the reference for consensus_rate)."""
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def consensus_rate(g: Graph, epsilon: float, p):
    """Spectral radius of (expected compensated matrix - ones/n) at one access probability or an array of them.

    Under uniform access the expected matrix is E = I - eps * S L with
    S = diag(p (1-p)^{d_i}), so E is similar to I - eps * H with the
    symmetric H = S^{1/2} L S^{1/2} and its spectrum is 1 - eps * lambda(H).
    H is positive semidefinite with lambda_1 = 0, the eigenvalue 1 of E that
    belongs to the all-ones vector. Subtracting ones/n sends that eigenvalue
    to 0 and leaves the rest alone (Brauer), so the rate is the larger of
    |1 - eps * lambda_2(H)| and |1 - eps * lambda_n(H)|. The lambda_n end
    never binds, because p (1-p)^d <= 1/4, lambda_n(L) <= 2 d_max and
    eps < 1/d_max give

        eps * lambda_n(H) <= eps * max_i S_i * lambda_n(L) < (1/d_max)(1/4)(2 d_max) = 1/2.

    So the rate is 1 - eps * lambda_2(H), and 0 for a one-node graph.
    Values near 1 mean slow consensus; p = 0 and p = 1 both give exactly 1
    because S = 0 and E is the identity.

    lambda_2(H) is read off the pseudo-inverse by Lanczos (see _rate_solver);
    L^+ is built once for g and eps however many probabilities p holds, and
    kept for the next call on them. A float p gives a float; an array gives
    an array of its shape. Raises
    DomainError if any p is NaN or outside [0, 1], and GraphError when the
    n x n arrays that building L^+ holds (RATE_SOLVER_MATRICES) do not fit.
    """
    return over_probabilities(p, lambda ps: _rate_solver(g, epsilon)(ps))


@functools.lru_cache(maxsize=1)
def _rate_solver(g: Graph, epsilon: float):
    """consensus_rate on g at eps as a function of a 1-D array of p in [0, 1], with L^+ built once.

    The last solver is kept (a Graph hashes by identity), so an analyze
    command's scan and refinement share one inverse; a new graph or eps
    binds afresh, through check_fits.

    For p in (0, 1) let m = 1/S, the node masses. H y = lambda y with
    lambda != 0 is L x = lambda m x for x = S^{1/2} y, and w = m x sums to 0.
    Applying L^+ = inv(L + J/n) - J/n (J the all-ones matrix) turns it into
    w = lambda A w on the zero-sum vectors, with

        A w = m (L^+ w - mean_m(L^+ w)),   mean_m(z) = sum(m z) / sum(m),

    which is self-adjoint in <a, b> = sum(a b / m): A is H^+ in other
    coordinates. So lambda_2(H) = 1 / mu for the top eigenvalue mu of A.
    Inverting separates lambda_2 from the rest: mu's relative gap is
    lambda_3 / lambda_2 - 1.

    The masses are formed from logs and divided by the second largest,
    e^c; a mass more than e^MASS_CAP above or below it is clipped, which
    moves mu by a relative e^-MASS_CAP (a node of vanishing or huge mass is
    a regular limit). So p near 0 or 1 cannot overflow, and mu is e^c times
    the top eigenvalue for the scaled masses. The zero sum is enforced
    through the heaviest entry, whose exact value is small against its
    mass, so rounding stays at about eps_machine * mu however graded the
    masses are.

    mu comes from Lanczos without reorthogonalisation in that inner
    product, on a block of probabilities at once: each step is one product
    of L^+ with an (n, block) array. The top Ritz value theta of the
    tridiagonal T_k rises to mu, and in finite precision the loss of
    orthogonality only adds copies of converged values (Paige). A column
    stops when
    * theta moved by at most RITZ_RTOL * theta over the last RITZ_EVERY
      steps (checked from step 2 * RITZ_EVERY), or
    * beta_k <= RITZ_RTOL * max_j alpha_j <= RITZ_RTOL * theta, a breakdown:
      every Ritz value then lies within beta_k of an eigenvalue of A, and the
      next Lanczos vector would be rounding noise, or
    * k = n - 1, when the Krylov space spans the zero-sum vectors.
    So at a stop mu and lambda_2 carry a relative error of about RITZ_RTOL
    (the first rule is a convergence test, not a proof), and the rate
    1 - eps * lambda_2, with eps * lambda_2 < 1/2, an absolute error below
    RITZ_RTOL / 2. Against dense eigvalsh it was within 1 ulp on ER graphs
    of 20-400 nodes, stars, paths and lollipops. On a grid of step 0.004,
    ER(100, 0.1) took at most 32 steps, ER(400, 0.025) and ER(1000, 0.01)
    at most 48.
    """
    check_epsilon(g, epsilon)
    n = g.n
    check_fits(RATE_SOLVER_MATRICES * 8 * n ** 2, f"the consensus rate of a {n}-node graph")
    if n == 1:
        return lambda ps: np.zeros(ps.shape)
    lp = np.linalg.inv(g.laplacian + 1.0 / n)
    lp -= 1.0 / n
    lp += lp.T
    lp *= 0.5
    degrees = g.degrees.astype(float)[:, None]
    start = np.random.default_rng(0).standard_normal(n)

    def rates(ps: np.ndarray) -> np.ndarray:
        out = np.ones(ps.shape)
        block = max(1, LANCZOS_BLOCK_BYTES // (8 * n))
        inner = np.flatnonzero((ps > 0.0) & (ps < 1.0))
        for first in range(0, len(inner), block):
            at = inner[first:first + block]
            log_mass = -(np.log(ps[at]) + degrees * np.log1p(-ps[at]))
            centre = np.partition(log_mass, n - 2, axis=0)[n - 2]
            mass = np.exp(np.clip(log_mass - centre, -MASS_CAP, MASS_CAP))
            out[at] = 1.0 - epsilon * (np.exp(-centre) / _top_ritz_values(lp, mass, start))
        return out

    return rates


def _top_ritz_values(lp: np.ndarray, mass: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Top eigenvalue of x -> m (lp x - mean_m(lp x)) on sum(x) = 0 for each column m of mass, by Lanczos.

    The operator is self-adjoint in <x, y> = sum(x y / m) (see _rate_solver).
    """
    n, width = mass.shape
    cols = np.arange(width)
    heavy = np.argmax(mass, axis=0)
    inverse = 1.0 / mass
    weights = mass / mass.sum(axis=0)

    def to_zero_sum(v):
        # The heaviest entry absorbs the sum, so its tiny exact value is
        # not the difference of two large rounded ones.
        v[heavy, cols] = 0.0
        v[heavy, cols] = -v.sum(axis=0)
        return v

    x = to_zero_sum(start[:, None] * np.sqrt(mass))
    x /= np.sqrt(np.einsum("ij,ij->j", x * inverse, x))
    x_prev = np.zeros_like(x)
    alpha = np.zeros((width, n - 1))
    beta = np.zeros((width, n - 1))
    peak = np.zeros(width)
    last = np.full(width, np.inf)
    theta = np.zeros(width)
    live = np.arange(width)
    for k in range(n - 1):
        z = lp @ x
        z -= np.einsum("ij,ij->j", weights, z)
        v = to_zero_sum(mass * z)
        a = np.einsum("ij,ij->j", x * inverse, v)
        v -= a * x
        if k:
            v -= beta[live, k - 1] * x_prev
        to_zero_sum(v)
        b = np.sqrt(np.einsum("ij,ij->j", v * inverse, v))
        alpha[live, k] = a
        beta[live, k] = b
        peak = np.maximum(peak, a)
        steps = k + 1
        stop = (b <= RITZ_RTOL * peak) | (steps == n - 1)
        check = steps % RITZ_EVERY == 0
        rows = np.arange(len(live)) if check else np.flatnonzero(stop)
        if len(rows):
            top = _top_tridiagonal_eigenvalues(alpha[live[rows], :steps], beta[live[rows], :steps - 1])
            theta[live[rows]] = top
            if check:
                stop |= (steps >= 2 * RITZ_EVERY) & (np.abs(top - last[live]) <= RITZ_RTOL * top)
                last[live] = top
            if stop.all():
                break
            if stop.any():
                keep = ~stop
                live, peak, heavy = live[keep], peak[keep], heavy[keep]
                mass, inverse, weights = mass[:, keep], inverse[:, keep], weights[:, keep]
                cols = np.arange(len(live))
                x, v, b = x[:, keep], v[:, keep], b[keep]
        x_prev, x = x, v / b
    return theta


def _top_tridiagonal_eigenvalues(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each symmetric tridiagonal matrix (rows of alpha on the diagonal, of beta beside it).

    The matrices go to eigvalsh in stacks of at most LANCZOS_BLOCK_BYTES.
    """
    count, m = alpha.shape
    chunk = max(1, LANCZOS_BLOCK_BYTES // (8 * m * m))
    diagonal = np.arange(m)
    top = np.empty(count)
    for first in range(0, count, chunk):
        t = np.zeros((len(alpha[first:first + chunk]), m, m))
        t[:, diagonal, diagonal] = alpha[first:first + chunk]
        t[:, diagonal[1:], diagonal[:-1]] = beta[first:first + chunk]
        top[first:first + chunk] = np.linalg.eigvalsh(t)[:, -1]
    return top


def consensus_rate_scan(g: Graph, epsilon: float, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid 0, grid_step, 2 grid_step, ... and the consensus rate at each point.

    The grid runs up to 1 + grid_step/2, and a point past 1 is clamped to 1.
    So it ends at 1 only when the step nearly divides 1. Raises DomainError
    for a step that is not positive and finite or whose grid does not fit
    (check_fits); the graph's own working set is consensus_rate's to check.
    The whole grid goes to one consensus_rate call, which builds L^+ once.
    """
    if not 0.0 < grid_step < np.inf:
        raise DomainError(f"grid_step must be a positive finite number, got {grid_step}")
    stop = 1.0 + grid_step / 2.0
    check_fits(SCAN_POINT_BYTES * (stop / grid_step), f"the grid of step {grid_step}", DomainError)
    ps = np.minimum(np.arange(0.0, stop, grid_step), 1.0)
    return ps, consensus_rate(g, epsilon, ps)


def refine_spectral_minimum(g: Graph, epsilon: float, ps: np.ndarray, rates: np.ndarray) -> float:
    """Golden-section refinement around the best point of a precomputed scan, on the scan's L^+.

    The search solves its points a round at a time: each round is one
    consensus_rate solve of every point its next few steps could need. A
    round of depth k holds 2^k - 1 points, and k is the largest depth whose
    (n, points) Lanczos block fits in LANCZOS_BLOCK_BYTES // 4: 3 at
    n = 100, 2 at n = 200, and one point per round from n = 342 up. The
    comparisons, and so the optimum, are those of a point-by-point search,
    except where a rate that moves by half an ulp with the block it is
    solved in flips a tie (a star, whose rate is symmetric about 1/2); the
    optimum then moves by at most the search's tolerance.
    """
    k = int(np.argmin(rates))
    lo, hi = float(ps[max(k - 1, 0)]), float(ps[min(k + 1, len(ps) - 1)])
    if lo == hi:
        return lo
    solve = _rate_solver(g, epsilon)
    lookahead = search_lookahead(g.n, LANCZOS_BLOCK_BYTES // 4)
    return golden_section_max(lambda p: -solve(p), lo, hi, tol=1e-5, lookahead=lookahead)


def spectral_optimal_probability(g: Graph, epsilon: float, grid_step: float = 0.001) -> float:
    """Uniform access probability minimizing the consensus rate.

    Coarse grid scan over [0, 1] followed by golden-section refinement
    around the best grid point; the scan guards against eigenvalue-crossing
    kinks that could trap a purely local method.
    """
    ps, rates = consensus_rate_scan(g, epsilon, grid_step)
    return refine_spectral_minimum(g, epsilon, ps, rates)
