"""The eigen-solvers behind the spectral core.

consensus_rate and the topology report use LAPACK's symmetric solver
(np.linalg.eigvalsh); mixing.spectral_radius, the general solver on the
dense expected matrix, is their reference. These tests pin both on
matrices with known spectra and check the similarity and the projector
subtraction that let the symmetric solver stand in for the general one.
"""

import numpy as np
import pytest

from radsgd.errors import DomainError
from radsgd.mac import AccessPolicy
from radsgd.mixing import base_weight_matrix, consensus_rate, default_epsilon, expected_weight_matrix, spectral_radius
from radsgd.topology import erdos_renyi, laplacian, ring


def _circulant(first_row):
    first_row = np.asarray(first_row, dtype=float)
    return np.array([np.roll(first_row, i) for i in range(first_row.shape[0])])


def _det_elimination(m):
    """Determinant by Gaussian elimination with partial pivoting (oracle)."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    sign = 1.0
    det = 1.0
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            return 0.0
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            sign = -sign
        det *= a[col, col]
        a[col + 1 :, col:] -= np.outer(a[col + 1 :, col] / a[col, col], a[col, col:])
    return sign * det


def _random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


# Expected matrix of a 6-ring with epsilon = 1/3, p = 1/3: circulant with
# 4/81 on the two ring edges and 73/81 on the diagonal. Its eigenvalues are
# 1 - 2*eps*p*(1-p)^2 * (1 - cos(2 pi k / 6)), evaluated here as fractions.
RING6_EXPECTED = _circulant([73 / 81, 4 / 81, 0.0, 0.0, 0.0, 4 / 81])
RING6_EIGS = [1.0, 77 / 81, 69 / 81, 65 / 81, 69 / 81, 77 / 81]


def test_identity_eigenvalues():
    np.testing.assert_allclose(np.linalg.eigvalsh(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-12)


def test_symmetric_permutation_eigenvalues():
    np.testing.assert_allclose(np.linalg.eigvalsh([[0.0, 1.0], [1.0, 0.0]]), [-1.0, 1.0], atol=1e-12)


def test_ring6_expected_matrix_eigenvalues():
    np.testing.assert_allclose(np.linalg.eigvalsh(RING6_EXPECTED), sorted(RING6_EIGS), atol=1e-10)


def test_spectral_radius_zero_matrix():
    assert spectral_radius(np.zeros((4, 4))) == 0.0


def test_spectral_radius_nilpotent():
    assert spectral_radius([[0.0, 2.0], [0.0, 0.0]]) < 1e-12


def test_subtract_uniform_projector_cases():
    # Subtracting ones/n from a row-stochastic matrix sends its eigenvalue 1
    # (eigenvector: all ones) to 0 and keeps the rest of the spectrum.
    for m, spectrum in (
        (np.full((3, 3), 1 / 3), [1.0, 0.0, 0.0]),
        (np.eye(2), [1.0, 1.0]),
        (RING6_EXPECTED, RING6_EIGS),
    ):
        n = m.shape[0]
        want = sorted(spectrum)
        want.remove(1.0)
        np.testing.assert_allclose(np.linalg.eigvalsh(m - 1.0 / n), sorted(want + [0.0]), atol=1e-12)


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = _random_symmetric(rng, n, rng.uniform(0.1, 10))
        trace = np.trace(a)
        assert abs(np.linalg.eigvalsh(a).sum() - trace) <= 1e-8 * (1 + abs(trace))


def test_eigenvalue_modulus_product_matches_determinant():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = _random_symmetric(rng, n)
        prod = np.prod(np.abs(np.linalg.eigvalsh(a)))
        det = abs(_det_elimination(a))
        # relative bound with a small absolute guard for near-singular draws
        assert abs(prod - det) <= 1e-6 * (1e-9 + det)


def test_spectral_radius_transpose_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        assert abs(spectral_radius(a) - spectral_radius(a.T)) <= 1e-9


def test_circulant_matches_dft_formula():
    rng = np.random.default_rng(11)
    for n in (4, 6, 17, 32, 64):
        row = rng.standard_normal(n)
        row[1:] = (row[1:] + row[1:][::-1]) / 2.0  # r_k = r_{n-k}: symmetric, real DFT
        # rows are right-rotations of the first row, so the spectrum is the
        # DFT of that row
        np.testing.assert_allclose(
            np.linalg.eigvalsh(_circulant(row)), np.sort(np.fft.fft(row).real), atol=1e-8
        )


def test_spectrum_invariant_under_similarity():
    # E = I - eps * S L is similar to I - eps * S^1/2 L S^1/2: the general
    # solver on E and the symmetric solver on H give one real spectrum.
    g = erdos_renyi(25, 0.25, seed=4)
    eps = default_epsilon(g)
    w = base_weight_matrix(g, eps)
    for p in (0.05, 0.2, 0.5):
        expected = expected_weight_matrix(g, w, AccessPolicy.uniform(g.n, p))
        general = np.linalg.eigvals(expected)
        root_s = np.sqrt(p * (1 - p) ** g.degrees)
        symmetric = 1.0 - eps * np.linalg.eigvalsh(root_s[:, None] * laplacian(g) * root_s[None, :])
        assert np.abs(general.imag).max() <= 1e-9
        np.testing.assert_allclose(np.sort(general.real), np.sort(symmetric), atol=1e-9)


def test_rejects_non_finite():
    g = ring(6)
    with pytest.raises(DomainError):
        consensus_rate(g, 1 / 3, float("nan"))
    with pytest.raises(DomainError):
        consensus_rate(g, float("nan"), 1 / 3)
