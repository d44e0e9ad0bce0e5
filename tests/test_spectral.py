import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from esnkit.errors import (
    DegenerateSpectrumError,
    DimensionError,
    DomainError,
    ParameterError,
)
from esnkit.reservoirs import gen_cycle_enhanced, gen_er
from esnkit.spectral import (
    avg_modulus,
    eigenvalues,
    normalize_avg_modulus,
    normalize_spectral_radius,
    spectral_radius,
    spectrum_report,
)
from oracles import charpoly_roots, spectra_distance


def ring_matrix(n, weight=1.0):
    W = np.zeros((n, n))
    for i in range(n):
        W[(i + 1) % n, i] = weight
    return W


class TestEigenvalues:
    def test_identity(self):
        assert_allclose(np.sort_complex(eigenvalues(np.eye(4))),
                        np.ones(4), atol=1e-12)

    def test_unit_ring_is_roots_of_unity(self):
        vals = eigenvalues(ring_matrix(8))
        expected = np.exp(2j * np.pi * np.arange(8) / 8)
        assert spectra_distance(vals, expected) < 1e-10

    def test_matches_charpoly_oracle_on_seeded_5x5(self):
        A = np.random.default_rng(42).standard_normal((5, 5))
        assert spectra_distance(eigenvalues(A), charpoly_roots(A)) < 1e-8

    def test_oracle_equivalence_small_sizes(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n)) * rng.uniform(0.1, 5.0)
            assert spectra_distance(eigenvalues(A), charpoly_roots(A)) < 1e-8

    def test_conjugate_pairs(self, rng):
        vals = eigenvalues(rng.standard_normal((30, 30)))
        radius = np.abs(vals).max()
        complex_vals = vals[vals.imag > 1e-8 * radius]
        for v in complex_vals:
            assert np.min(np.abs(vals - v.conjugate())) < 1e-8 * radius

    def test_determinant_consistency(self, rng):
        A = rng.standard_normal((4, 4))
        for lam in eigenvalues(A):
            assert abs(np.linalg.det(A - lam * np.eye(4))) < 1e-8

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        A = np.eye(3)
        A[0, 1] = np.nan
        with pytest.raises(DomainError):
            eigenvalues(A)


class TestAvgModulus:
    def test_scaled_identity(self):
        assert_allclose(avg_modulus(0.85 * np.eye(7)), 0.85, rtol=1e-12)

    def test_zero_matrix(self):
        assert avg_modulus(np.zeros((5, 5))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-8, max_value=8).filter(lambda c: abs(c) > 1e-3))
    def test_scale_equivariance(self, c):
        A = np.random.default_rng(7).standard_normal((12, 12))
        assert_allclose(avg_modulus(c * A), abs(c) * avg_modulus(A),
                        rtol=1e-10)

    def test_permutation_similarity_invariance(self, rng):
        A = rng.standard_normal((15, 15))
        P = np.eye(15)[rng.permutation(15)]
        assert_allclose(avg_modulus(P @ A @ P.T), avg_modulus(A), rtol=1e-10)


class TestNormalization:
    def test_twice_identity_to_radius_one(self):
        assert_allclose(normalize_spectral_radius(2 * np.eye(4), 1.0),
                        np.eye(4), atol=1e-12)

    def test_ring_rescale(self):
        W = normalize_spectral_radius(ring_matrix(8, 3.0), 0.9)
        assert_allclose(spectral_radius(W), 0.9, atol=1e-8 * 0.9)
        assert_allclose(W[1, 0], 0.9, rtol=1e-12)

    def test_er_rescale_recomputed(self):
        W = gen_er(60, 6, seed=3, normalization=None).W
        scaled = normalize_spectral_radius(W, 0.85)
        assert_allclose(spectral_radius(scaled), 0.85, atol=1e-8 * 0.85)

    def test_nilpotent_raises(self):
        W = np.triu(np.ones((5, 5)), k=1)
        with pytest.raises(DegenerateSpectrumError):
            normalize_spectral_radius(W, 1.0)

    def test_avg_modulus_identity(self):
        assert_allclose(normalize_avg_modulus(np.eye(5), 0.6),
                        0.6 * np.eye(5), atol=1e-12)

    def test_avg_modulus_ring(self):
        W = normalize_avg_modulus(ring_matrix(8), 0.55)
        assert_allclose(avg_modulus(W), 0.55, rtol=1e-8)

    def test_avg_modulus_cycle_enhanced(self):
        res = gen_cycle_enhanced(120, 0.1, 2, 0.5, seed=5,
                                 normalization=None)
        W = normalize_avg_modulus(res.W, 0.6)
        assert_allclose(avg_modulus(W), 0.6, rtol=1e-8)

    def test_zero_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            normalize_avg_modulus(np.zeros((4, 4)), 0.5)

    def test_bad_targets(self):
        with pytest.raises(ParameterError):
            normalize_spectral_radius(np.eye(3), 0.0)
        with pytest.raises(ParameterError):
            normalize_avg_modulus(np.eye(3), -1.0)


def modulus_histogram(W, n_bins):
    return spectrum_report(W, n_bins).modulus_histogram


class TestModulusDensity:
    def test_identity_mass_in_unit_bin(self):
        hist = modulus_histogram(np.eye(10), 5)
        centers = np.array([c for c, _ in hist])
        densities = np.array([d for _, d in hist])
        hot = np.argmax(densities)
        lo, hi = centers[hot] - 0.1, centers[hot] + 0.1
        assert lo <= 1.0 <= hi
        assert densities.sum() == pytest.approx(densities[hot])

    def test_ring_mass_at_one(self):
        hist = modulus_histogram(ring_matrix(16), 8)
        densities = np.array([d for _, d in hist])
        assert np.count_nonzero(densities) == 1

    def test_density_integrates_to_one(self, rng):
        A = rng.standard_normal((25, 25))
        hist = modulus_histogram(A, 12)
        width = np.abs(eigenvalues(A)).max() / 12
        total = sum(d for _, d in hist) * width
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        hist = modulus_histogram(np.zeros((3, 3)), 4)
        assert sum(d for _, d in hist) * 0.25 == pytest.approx(1.0)

    def test_needs_positive_bins(self):
        with pytest.raises(ParameterError):
            modulus_histogram(np.eye(2), 0)


class TestSpectrumReport:
    def test_fields_consistent(self, rng):
        A = rng.standard_normal((20, 20))
        report = spectrum_report(A, n_bins=10)
        assert report.spectral_radius == pytest.approx(
            np.abs(report.eigenvalues).max())
        assert report.avg_modulus == pytest.approx(
            np.abs(report.eigenvalues).mean())
        width = report.spectral_radius / 10
        assert sum(d for _, d in report.modulus_histogram) * width == \
            pytest.approx(1.0, abs=1e-9)
