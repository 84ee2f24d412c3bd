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
probability. consensus_rate reads it off one symmetric eigenproblem of the
same size; the dense expected matrix and spectral_radius stay as its
reference.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

# perfbench wraps radsgd.mixing.success_probability_matrix and
# radsgd.mixing.spectral_radius by these names; keep both resolvable here.
from .mac import AccessPolicy, golden_section_max, success_probability_matrix
from .topology import Graph, laplacian


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
    return np.eye(g.n) - check_epsilon(g, epsilon) * laplacian(g)


def _check_same_shape(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")


def mask_by_transmission(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Hadamard product of the base matrix with one slot's success indicators.

    Failed links lose their weight entirely; the result is generally
    neither row- nor column-stochastic until compensated.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t)
    _check_same_shape(w, t)
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


def consensus_rate(g: Graph, epsilon: float, p: float) -> float:
    """Spectral radius of (expected compensated matrix - ones/n), from one symmetric eigenproblem.

    Under uniform access the expected matrix is E = I - eps * S L with
    S = diag(p (1-p)^{d_i}), so E is similar to I - eps * H with the
    symmetric H = S^{1/2} L S^{1/2} and its spectrum is 1 - eps * lambda(H).
    H is positive semidefinite with lambda_1 = 0, the eigenvalue 1 of E that
    belongs to the all-ones vector. Subtracting ones/n sends that eigenvalue
    to 0 and leaves the rest alone (Brauer), so the rate is

        max(|1 - eps * lambda_2(H)|, |1 - eps * lambda_n(H)|),

    0 for a one-node graph. Values near 1 mean slow consensus; p = 0 and
    p = 1 both give exactly 1 because S = 0 and E is the identity.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"access probability must lie in [0, 1], got {p}")
    check_epsilon(g, epsilon)
    root_s = np.sqrt(p * (1.0 - p) ** g.degrees)
    eig = np.linalg.eigvalsh(root_s[:, None] * laplacian(g) * root_s[None, :])
    # 1 - eps * lambda is monotone in lambda, so the largest modulus over
    # lambda_2..lambda_n sits at one of the two ends.
    return float(np.max(np.abs(1.0 - epsilon * eig[1:]), initial=0.0))


def refine_spectral_minimum(g: Graph, epsilon: float, ps: np.ndarray, rates: np.ndarray) -> float:
    """Golden-section refinement around the best point of a precomputed scan."""
    k = int(np.argmin(rates))
    lo = float(ps[max(k - 1, 0)])
    hi = float(ps[min(k + 1, len(ps) - 1)])
    if lo == hi:
        return lo
    return golden_section_max(lambda p: -consensus_rate(g, epsilon, p), lo, hi, tol=1e-5)


def spectral_optimal_probability(g: Graph, epsilon: float, grid_step: float = 0.001) -> float:
    """Uniform access probability minimizing the consensus rate.

    Coarse grid scan over [0, 1] followed by golden-section refinement
    around the best grid point; the scan guards against eigenvalue-crossing
    kinks that could trap a purely local method.
    """
    ps = np.arange(0.0, 1.0 + grid_step / 2.0, grid_step)
    rates = np.array([consensus_rate(g, epsilon, p) for p in ps])
    return refine_spectral_minimum(g, epsilon, ps, rates)
