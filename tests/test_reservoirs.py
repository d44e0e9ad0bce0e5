import inspect

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal

from esnkit import reservoirs
from esnkit.errors import ParameterError
from esnkit.reservoirs import (
    Normalization,
    gen_combined,
    gen_cycle_enhanced,
    gen_delay_line,
    gen_er,
    gen_plw,
    gen_random_regular,
    gen_scale_free,
    make_reservoir,
    measure_cycle_density,
)
from esnkit.spectral import (
    avg_modulus,
    eigenvalues,
    normalize_avg_modulus,
    normalize_spectral_radius,
    spectral_radius,
)
from esnkit.storage import load_reservoir, save_reservoir
from oracles import cycle_density_longhand, spectra_distance


def measured_normalization(res):
    if res.meta.normalization.mode == "spectral_radius":
        return spectral_radius(res.W)
    return avg_modulus(res.W)


class TestErdosRenyi:
    def test_edge_count_and_weight_statistics(self):
        res = gen_er(100, 10, seed=7, normalization=None)
        n_edges = res.W.nnz
        # edges ~ Binomial(N(N-1), p) with mean 1000
        p = 10 / 99
        sd = np.sqrt(100 * 99 * p * (1 - p))
        assert abs(n_edges - 1000) < 4 * sd
        weights = res.W.tocoo().data
        assert abs(weights.mean()) < 4 / np.sqrt(n_edges)

    def test_tiny_instance(self):
        res = gen_er(2, 1, seed=0, normalization=None)
        assert 0 <= res.W.nnz <= 2
        assert np.isfinite(res.W.toarray()).all()

    def test_determinism(self):
        a = gen_er(50, 5, seed=99)
        b = gen_er(50, 5, seed=99)
        assert_array_equal(a.W.toarray(), b.W.toarray())
        assert_array_equal(a.w_in, b.w_in)

    def test_no_self_loops(self):
        W = gen_er(40, 8, seed=3, normalization=None).W.toarray()
        assert_array_equal(np.diag(W), np.zeros(40))

    def test_input_weights_in_range(self):
        res = gen_er(200, 10, seed=1)
        assert np.all(np.abs(res.w_in) <= 1.0)
        res = gen_er(200, 10, seed=1, input_gain=0.01)
        assert np.all(np.abs(res.w_in) <= 0.01)

    def test_feedback_vector(self):
        silent = gen_er(30, 5, seed=2)
        assert_array_equal(silent.w_ofb, np.zeros(30))
        loud = gen_er(30, 5, seed=2, feedback=True)
        assert np.any(loud.w_ofb != 0) and np.all(np.abs(loud.w_ofb) <= 1)

    def test_recorded_normalization_holds(self):
        for norm in (Normalization("spectral_radius", 0.85),
                     Normalization("avg_modulus", 0.5)):
            res = gen_er(80, 8, seed=11, normalization=norm)
            assert_allclose(measured_normalization(res), norm.value,
                            rtol=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_er(10, 10, seed=0)
        with pytest.raises(ParameterError):
            gen_er(10, 0, seed=0)


class TestScaleFree:
    def test_degree_variance_decreases_with_gamma(self):
        lo = gen_scale_free(1000, 20, 2.2, seed=4, normalization=None)
        hi = gen_scale_free(1000, 20, 6.0, seed=4, normalization=None)
        out_lo = np.bincount(lo.W.tocoo().col, minlength=1000)
        out_hi = np.bincount(hi.W.tocoo().col, minlength=1000)
        assert out_lo.var() > out_hi.var()
        assert abs(out_lo.mean() - out_hi.mean()) < 3.0

    def test_heavy_tail_max_degree(self):
        hits = 0
        for i in range(20):
            res = gen_scale_free(1000, 50, 2.5, seed=[5, i],
                                 normalization=None)
            out_deg = np.bincount(res.W.tocoo().col, minlength=1000)
            in_deg = np.bincount(res.W.tocoo().row, minlength=1000)
            if max(out_deg.max(), in_deg.max()) > 5 * 50:
                hits += 1
        assert hits >= 18  # >= 0.9 frequency

    def test_simple_graph(self):
        res = gen_scale_free(300, 15, 3.0, seed=8, normalization=None)
        coo = res.W.tocoo()
        pairs = set(zip(coo.row.tolist(), coo.col.tolist()))
        assert len(pairs) == coo.nnz  # no multi-edges survived
        assert all(r != c for r, c in pairs)  # no self-loops

    def test_determinism(self):
        a = gen_scale_free(200, 10, 2.5, seed=21)
        b = gen_scale_free(200, 10, 2.5, seed=21)
        assert_array_equal(a.W.toarray(), b.W.toarray())

    def test_gamma_bound(self):
        with pytest.raises(ParameterError):
            gen_scale_free(100, 10, 1.5, seed=0)


class TestPowerLawWeights:
    def test_magnitudes_at_least_one_before_normalization(self):
        res = gen_plw(150, 10, 3.0, seed=6, normalization=None)
        assert np.all(np.abs(res.W.tocoo().data) >= 1.0)

    def test_signs_balanced(self):
        data = gen_plw(300, 12, 2.5, seed=9, normalization=None).W.tocoo().data
        frac_positive = np.mean(data > 0)
        assert abs(frac_positive - 0.5) < 4 / (2 * np.sqrt(len(data)))

    def test_heavier_tail_lowers_avg_modulus(self):
        # At matched spectral radius, heavier weight tails concentrate the
        # spectrum near zero.
        wins = 0
        for i in range(12):
            heavy = gen_plw(300, 10, 2.2, seed=[3, i])
            light = gen_plw(300, 10, 5.0, seed=[3, i])
            if avg_modulus(heavy.W) < avg_modulus(light.W):
                wins += 1
        assert wins >= 11

    def test_beta_bound(self):
        with pytest.raises(ParameterError):
            gen_plw(100, 10, 2.0, seed=0)

    def test_determinism(self):
        a = gen_plw(80, 8, 3.0, seed=2)
        b = gen_plw(80, 8, 3.0, seed=2)
        assert_array_equal(a.W.toarray(), b.W.toarray())


class TestRandomRegular:
    def test_out_degrees_exact(self):
        res = gen_random_regular(50, 5, seed=12, normalization=None)
        out_deg = np.bincount(res.W.tocoo().col, minlength=50)
        assert_array_equal(out_deg, np.full(50, 5))

    def test_small_permutation_like(self):
        res = gen_random_regular(4, 1, seed=1, normalization=None)
        assert res.W.nnz == 4
        assert_array_equal(np.diag(res.W.toarray()), np.zeros(4))

    def test_determinism(self):
        a = gen_random_regular(30, 3, seed=5)
        b = gen_random_regular(30, 3, seed=5)
        assert_array_equal(a.W.toarray(), b.W.toarray())


class TestDelayLine:
    def test_unit_ring_spectrum(self):
        res = gen_delay_line(8, 1.0)
        expected = np.exp(2j * np.pi * np.arange(8) / 8)
        assert spectra_distance(eigenvalues(res.W), expected) < 1e-10
        assert avg_modulus(res.W) == pytest.approx(1.0)

    def test_weight_scales_modulus(self):
        assert avg_modulus(gen_delay_line(8, 0.9).W) == pytest.approx(0.9)

    def test_input_vector(self):
        res = gen_delay_line(10, 0.5, input_node=3, input_gain=0.01)
        expected = np.zeros(10)
        expected[3] = 0.01
        assert_array_equal(res.w_in, expected)

    def test_deterministic(self):
        assert_array_equal(gen_delay_line(6, 0.7).W.toarray(),
                           gen_delay_line(6, 0.7).W.toarray())

    @pytest.mark.parametrize("gain", [5.0, -1.0, 0.0])
    def test_input_gain_range(self, gain):
        res = gen_delay_line(10, 0.9, input_node=3, input_gain=0.5)
        assert_array_equal(res.w_in, np.eye(10)[3] * 0.5)
        with pytest.raises(ParameterError, match="input_gain"):
            gen_delay_line(10, 0.9, input_node=3, input_gain=gain)


class TestCycleEnhanced:
    def test_zero_density_is_plain_random(self):
        res = gen_cycle_enhanced(400, 0.05, 2, 0.0, seed=13)
        measured = measure_cycle_density(res.W)
        assert abs(measured.density[2]) < 0.05
        assert res.meta.target_cycle_density == {}

    def test_l1_full_density_is_identity(self):
        res = gen_cycle_enhanced(50, 0.1, 1, 1.0, seed=2,
                                 normalization=Normalization("spectral_radius", 0.8))
        assert_allclose(res.W.toarray(), 0.8 * np.eye(50), atol=1e-12)
        assert measure_cycle_density(res.W).density[1] == pytest.approx(1.0)

    def test_negative_two_cycles(self):
        res = gen_cycle_enhanced(400, 0.05, 2, -0.5, seed=17,
                                 normalization=None)
        W = res.W.toarray()
        # every injected 2-cycle carries a negative weight product
        upper = [(i, j) for i, j in zip(*np.nonzero(W)) if i < j and W[j, i] != 0]
        products = np.array([W[i, j] * W[j, i] for i, j in upper])
        assert np.mean(products < 0) > 0.98  # rare collisions may flip a pair
        expected_cycles = int(0.5 * 0.05 * 400 ** 2 / 4)
        assert res.meta.params["cycle_counts"][2] == expected_cycles
        assert len(products) >= expected_cycles - 10

    def test_round_trip_length_three(self):
        res = gen_cycle_enhanced(200, 0.05, 3, 0.4, seed=23)
        measured = measure_cycle_density(res.W)
        assert measured.density[3] == pytest.approx(0.4, abs=0.05)

    def test_edge_count_mode_round_trip_length_one(self):
        res = gen_cycle_enhanced(400, 0.008, 1, 0.6, seed=3,
                                 l1_mode="edge_count")
        measured = measure_cycle_density(res.W)
        assert measured.density[1] == pytest.approx(0.6, abs=0.05)

    def test_edge_count_mode_infeasible_budget(self):
        with pytest.raises(ParameterError):
            gen_cycle_enhanced(100, 0.2, 1, 0.5, seed=0, l1_mode="edge_count")

    def test_density_bounds(self):
        with pytest.raises(ParameterError):
            gen_cycle_enhanced(100, 0.1, 2, 1.5, seed=0)

    def test_budget_bound(self):
        with pytest.raises(ParameterError):
            gen_combined(100, 0.1, {1: 0.7, 2: 0.7}, seed=0)

    def test_floored_budget_warns_in_metadata(self):
        res = gen_cycle_enhanced(20, 0.05, 3, 0.2, seed=1)
        assert any("floored" in w for w in res.meta.warnings)

    def test_normalization_default_and_recorded(self):
        res = gen_cycle_enhanced(150, 0.1, 2, 0.5, seed=4)
        assert res.meta.normalization.mode == "avg_modulus"
        assert_allclose(avg_modulus(res.W), res.meta.normalization.value,
                        rtol=1e-6)

    def test_combined_superposition(self):
        res = gen_combined(300, 0.1, {2: 0.4, 3: 0.3}, seed=31)
        measured = measure_cycle_density(res.W)
        assert measured.density[2] == pytest.approx(0.4, abs=0.06)
        assert measured.density[3] == pytest.approx(0.3, abs=0.06)

    def test_numpy_numbers_pass(self):
        res = gen_combined(20, 0.3, {np.int64(2): np.float32(0.5)}, seed=0)
        assert res.meta.target_cycle_density == {2: 0.5}

    def test_determinism(self):
        a = gen_combined(120, 0.1, {1: 0.3, 2: 0.2}, seed=8)
        b = gen_combined(120, 0.1, {1: 0.3, 2: 0.2}, seed=8)
        assert_array_equal(a.W.toarray(), b.W.toarray())


# Every generator that takes a normalization, with the positional arguments
# of a small instance (seed last).
GENERATORS = {**reservoirs._FAMILY_BUILDERS, "CYCLE_SINGLE": gen_cycle_enhanced}
SMALL_INSTANCES = {
    "ER": (20, 4, 0), "SF": (20, 4, 3.0, 0), "PLW": (20, 4, 3.0, 0),
    "RR": (20, 3, 0), "CYCLE": (20, 0.2, {2: 0.3}, 0),
    "CYCLE_SINGLE": (20, 0.2, 2, 0.3, 0),
}


@pytest.mark.parametrize("family", [
    family for family, builder in sorted(GENERATORS.items())
    if "normalization" in inspect.signature(builder).parameters])
def test_one_normalization_rule(family):
    """A generator's default normalization is a ``Normalization``, and an
    explicit ``None`` is recorded as no normalization (the raw ``W``, as
    ``test_matrix_equals_normalized_raw_output`` checks)."""
    builder = GENERATORS[family]
    default = inspect.signature(builder).parameters["normalization"].default
    assert isinstance(default, Normalization)
    assert builder(*SMALL_INSTANCES[family]).meta.normalization == default
    raw = builder(*SMALL_INSTANCES[family], normalization=None)
    assert raw.meta.normalization is None


class TestCycleDensityMeasurement:
    def test_scaled_identity(self):
        result = measure_cycle_density(0.5 * np.eye(10))
        assert result.density[1] == 1.0
        assert result.edge_count == 10

    def test_hand_built_negative_two_cycle(self):
        W = np.zeros((4, 4))
        W[0, 1] = 1.0   # edge 1 -> 0
        W[1, 0] = -1.0  # edge 0 -> 1, cycle product negative
        W[2, 3] = 0.7   # stray edge
        result = measure_cycle_density(W)
        assert result.density[2] == pytest.approx(-2.0 / 3.0)
        assert result.density[1] == 0.0

    def test_triangle_signs(self):
        W = np.zeros((5, 5))
        # positive triangle 0 -> 1 -> 2 -> 0
        W[1, 0] = 1.0
        W[2, 1] = 1.0
        W[0, 2] = 1.0
        result = measure_cycle_density(W)
        assert result.density[3] == pytest.approx(1.0)
        W[0, 2] = -1.0
        assert measure_cycle_density(W).density[3] == pytest.approx(-1.0)

    def test_round_trip_all_lengths_and_signs(self):
        for length in (1, 2, 3):
            for target in (-0.5, 0.5):
                kwargs = {"l1_mode": "edge_count"} if length == 1 else {}
                connectivity = 0.008 if length == 1 else 0.05
                res = gen_cycle_enhanced(250, connectivity, length, target,
                                         seed=[41, length], **kwargs)
                measured = measure_cycle_density(res.W)
                assert measured.density[length] == pytest.approx(
                    target, abs=0.05), (length, target)

    def test_empty_matrix(self):
        result = measure_cycle_density(np.zeros((5, 5)))
        assert result.edge_count == 0
        assert result.density == {1: 0.0, 2: 0.0, 3: 0.0}

    def test_length_cap(self):
        with pytest.raises(ParameterError):
            measure_cycle_density(np.eye(3), max_length=4)

    def test_leaves_input_unchanged(self):
        W = sp.csr_array((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]),
                          np.array([0, 2, 3])), shape=(2, 2))
        assert measure_cycle_density(W).edge_count == 2
        assert W.nnz == 3

    def test_matches_longhand_enumeration(self):
        matrices = [gen_er(60, 5, seed=s).W for s in range(4)]
        for seed in range(8):
            signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=3)
            density = {1: 0.1 * signs[0], 2: 0.3 * signs[1], 3: 0.3 * signs[2]}
            for l1_mode in ("weight_mix", "edge_count"):
                matrices.append(gen_combined(80, 0.05, density, seed=seed,
                                             l1_mode=l1_mode).W)
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.2)
        matrices += [dense, sp.csr_array(dense)]
        for W in matrices:
            for max_length in (1, 2, 3):
                density, edge_count = cycle_density_longhand(W, max_length)
                result = measure_cycle_density(W, max_length)
                assert result.density == density
                assert result.edge_count == edge_count


class TestMakeReservoir:
    def test_dispatch(self):
        res = make_reservoir("er", n=30, avg_degree=4, seed=0)
        assert res.meta.family == "ER"
        res = make_reservoir("CYCLE", n=40, connectivity=0.1,
                             cycle_density={2: 0.3}, seed=0)
        assert res.meta.family == "CYCLE"

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            make_reservoir("smallworld", n=10)

    @pytest.mark.parametrize("key, value", [("n", "20"), ("n", 20.0),
                                            ("avg_degree", "4"),
                                            ("n", True)])
    def test_non_numeric_parameter_named(self, key, value):
        kwargs = dict(n=20, avg_degree=4, seed=0)
        kwargs[key] = value
        with pytest.raises(ParameterError, match=repr(key)):
            make_reservoir("ER", **kwargs)

    @pytest.mark.parametrize("seed", [-1, [0, -2]])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ParameterError, match="non-negative"):
            make_reservoir("ER", n=20, avg_degree=4, seed=seed)


# Every normalized family, keyed by a label; each builder takes
# (normalization, seed).
NORMALIZED_BUILDERS = {
    "ER": lambda norm, seed: gen_er(60, 6, seed, norm),
    "SF": lambda norm, seed: gen_scale_free(60, 6, 3.0, seed, norm),
    "PLW": lambda norm, seed: gen_plw(60, 6, 3.0, seed, norm),
    "RR": lambda norm, seed: gen_random_regular(60, 4, seed, norm),
    "CYCLE-weight_mix": lambda norm, seed: gen_combined(
        60, 0.1, {1: 0.3, 2: -0.2, 3: 0.2}, seed, norm, l1_mode="weight_mix"),
    "CYCLE-edge_count": lambda norm, seed: gen_combined(
        60, 0.1, {1: 0.05, 2: -0.2, 3: 0.2}, seed, norm, l1_mode="edge_count"),
}
# gen_combined also normalizes its random part and, for weight_mix
# self-loops, its sparse part before the final normalization.
DECOMPOSITIONS = {"CYCLE-weight_mix": 3, "CYCLE-edge_count": 2}
NORMALIZE = {"spectral_radius": normalize_spectral_radius,
             "avg_modulus": normalize_avg_modulus}


class TestStoredSpectrum:
    @pytest.mark.parametrize("family", sorted(NORMALIZED_BUILDERS))
    @pytest.mark.parametrize("mode", sorted(NORMALIZE))
    def test_matches_fresh_decomposition(self, family, mode, eig_calls):
        for seed in range(3):
            res = NORMALIZED_BUILDERS[family](Normalization(mode, 0.7), seed)
            stored = np.abs(res.eigenvalues())
            fresh = np.abs(eigenvalues(res.W))
            assert_allclose(stored.max(), fresh.max(), rtol=1e-12)
            assert_allclose(stored.mean(), fresh.mean(), rtol=1e-12)
        # one fresh decomposition per reservoir on top of generation's own
        assert len(eig_calls) == 3 * (DECOMPOSITIONS.get(family, 1) + 1)

    @pytest.mark.parametrize("family", sorted(NORMALIZED_BUILDERS))
    @pytest.mark.parametrize("mode", sorted(NORMALIZE))
    def test_matrix_equals_normalized_raw_output(self, family, mode):
        res = NORMALIZED_BUILDERS[family](Normalization(mode, 0.7), 4)
        raw = NORMALIZED_BUILDERS[family](None, 4)
        assert raw.meta.normalization is None
        expected = NORMALIZE[mode](raw.W, 0.7)
        assert_array_equal(res.W.toarray(), expected.toarray())
        assert_array_equal(res.W.indices, expected.indices)
        assert_array_equal(res.w_in, raw.w_in)

    def test_input_gain_checked_before_decomposition(self, eig_calls):
        with pytest.raises(ParameterError, match="input_gain"):
            gen_er(400, 20, seed=0, input_gain=2.0)
        assert eig_calls == []

    def test_reassigning_w_recomputes(self, eig_calls):
        res = gen_er(40, 5, seed=2, normalization=Normalization("spectral_radius", 0.5))
        assert np.abs(res.eigenvalues()).max() == pytest.approx(0.5, rel=1e-12)
        res.W = res.W * 3.0
        assert np.abs(res.eigenvalues()).max() == pytest.approx(1.5, rel=1e-12)
        res.eigenvalues()
        assert len(eig_calls) == 2

    def test_unnormalized_and_degenerate_compute_once(self, eig_calls):
        ring = gen_delay_line(12, 0.9)
        assert_allclose(np.abs(ring.eigenvalues()), 0.9, rtol=1e-12)
        nilpotent = gen_er(2, 0.5, seed=1)
        assert nilpotent.meta.warnings == [
            "degenerate spectrum; normalization skipped"]
        calls_before = len(eig_calls)
        assert_allclose(nilpotent.eigenvalues(), 0.0)
        nilpotent.eigenvalues()
        ring.eigenvalues()
        assert len(eig_calls) == calls_before + 1

    def test_loaded_reservoir_computes_lazily(self, tmp_path, eig_calls):
        res = gen_er(30, 4, seed=9)
        save_reservoir(res, tmp_path / "res")
        loaded = load_reservoir(tmp_path / "res.json")
        calls_before = len(eig_calls)
        assert_allclose(np.abs(loaded.eigenvalues()).max(), 1.0, rtol=1e-12)
        loaded.eigenvalues()
        assert len(eig_calls) == calls_before + 1


def test_scale_free_modulus_trend():
    """Decreasing degree exponent strictly decreases the median mean
    eigenvalue modulus (heterogeneity concentrates the spectrum),
    50 seeds per exponent."""
    medians = []
    for gamma in (2.2, 3.0, 6.0):
        vals = [avg_modulus(gen_scale_free(200, 10, gamma, seed=[71, i]).W)
                for i in range(50)]
        medians.append(np.median(vals))
    assert medians[0] < medians[1] < medians[2]
