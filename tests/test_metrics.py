import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from esnkit.errors import (
    ConstantSeriesError,
    DimensionError,
    DomainError,
    ParameterError,
    SingularDesignError,
)
from esnkit.esn import run_teacher_forced
from esnkit.metrics import (
    bin_by_lambda,
    mean_squared_correlation,
    memory_capacity,
    memory_capacity_from_states,
    nrmse,
)
from esnkit.reservoirs import Normalization, gen_delay_line, gen_er
from oracles import memory_capacity_longhand


def _delayed_copies(drive, length):
    """States whose column k is the drive delayed by k steps (zero before
    the start), so delays 1..length-1 are recalled and longer ones not."""
    X = np.zeros((len(drive), length))
    for k in range(length):
        X[k:, k] = drive[:len(drive) - k]
    return X


class TestNrmse:
    def test_perfect_prediction(self, rng):
        y = rng.standard_normal(50)
        assert nrmse(y, y, y) == 0.0

    def test_mean_prediction_scores_one(self, rng):
        y = rng.standard_normal(200)
        pred = np.full(200, y.mean())
        assert nrmse(pred, y, y) == pytest.approx(1.0, rel=1e-12)

    def test_hand_triple(self):
        target = np.array([0.0, 1.0, 2.0])
        predicted = np.zeros(3)
        # population variance of the normalizer is 2/3
        assert nrmse(predicted, target, target) == pytest.approx(
            np.sqrt(2.5), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-100, max_value=100).filter(lambda c: abs(c) > 1e-6))
    def test_joint_scaling_invariance(self, c):
        rng = np.random.default_rng(5)
        pred = rng.standard_normal(40)
        target = rng.standard_normal(40)
        assert nrmse(c * pred, c * target, c * target) == pytest.approx(
            nrmse(pred, target, target), rel=1e-9)

    def test_zero_variance_normalizer(self):
        with pytest.raises(ConstantSeriesError):
            nrmse(np.zeros(5), np.ones(5), np.ones(5))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            nrmse(np.zeros(4), np.zeros(5), np.ones(5))

    @pytest.mark.parametrize("T", [2, 7, 40, 129])
    def test_stack_rows_are_single_calls(self, rng, T):
        preds = rng.standard_normal((5, T))
        preds[3, 0] = np.inf
        target, normalizer = rng.standard_normal((2, T))
        scores = nrmse(preds, target, normalizer)
        assert isinstance(scores, np.ndarray) and scores.shape == (5,)
        singles = [nrmse(p, target, normalizer) for p in preds]
        assert all(type(v) is float for v in singles)
        # Floats print exactly, so equal reprs are equal bits.
        assert repr(scores.tolist()) == repr(singles)

    @pytest.mark.parametrize("predicted, target, normalizer, error", [
        (np.zeros((3, 4)), np.zeros(5), np.arange(5.0), DimensionError),
        (np.zeros((2, 3, 5)), np.zeros(5), np.arange(5.0), DimensionError),
        (np.zeros((3, 5)), np.zeros((3, 5)), np.arange(5.0), DimensionError),
        (np.zeros((3, 1)), np.zeros(1), np.arange(5.0), DimensionError),
        (np.zeros((3, 5)), [0, 1, np.nan, 0, 1], np.arange(5.0), DomainError),
        (np.zeros((3, 5)), np.zeros(5), [0, 1, np.inf], DomainError),
        (np.zeros((3, 5)), np.zeros(5), np.ones(5), ConstantSeriesError),
    ], ids=["row-length", "three-d", "stacked-target", "one-sample",
            "non-finite-target", "non-finite-normalizer", "constant"])
    def test_stack_checks(self, predicted, target, normalizer, error):
        with pytest.raises(error):
            nrmse(predicted, target, normalizer)
        if np.ndim(predicted) == 2 and np.ndim(target) == 1:
            with pytest.raises(error):
                nrmse(predicted[0], target, normalizer)


class TestMemoryCapacity:
    def test_memoryless_reservoir(self):
        # a zero recurrence matrix keeps only the current input
        res = gen_er(30, 5, seed=0, normalization=None)
        res.W = res.W * 0.0
        profile = memory_capacity(res, T=4000, tau_max=20, seed=1)
        assert np.all(profile.per_delay < 0.05)

    def test_delay_line_recall(self):
        res = gen_delay_line(10, 0.9, input_gain=0.01)
        profile = memory_capacity(res, T=4000, tau_max=60, seed=2)
        # the ring wraps, so each state is a comb over delays tau + 10*m
        # with geometric weights q = 0.9**10; in the linear regime
        # M_tau = q**(2*m) * (1 - q**2) exactly
        q = 0.9 ** 10
        assert_allclose(profile.per_delay[:10], np.full(10, 1 - q * q),
                        atol=0.02)
        assert_allclose(profile.per_delay[10:20], np.full(10, q * q * (1 - q * q)),
                        atol=0.02)
        assert 9.5 < profile.total <= 10.0
        assert np.all(profile.per_delay <= 1.0 + 1e-12)
        assert np.all(profile.per_delay >= 0.0)

    def test_early_stopping(self):
        res = gen_er(40, 8, seed=3, normalization=Normalization("spectral_radius", 0.3))
        profile = memory_capacity(res, T=3000, tau_max=400, seed=4)
        assert profile.tau_max_used < 400

    def test_input_kinds_recorded(self):
        res = gen_er(20, 4, seed=1)
        for kind in ("uniform", "gaussian"):
            profile = memory_capacity(res, T=1500, tau_max=10, seed=5,
                                      input_kind=kind)
            assert profile.input_kind == kind
        with pytest.raises(ParameterError):
            memory_capacity(res, T=1500, seed=5, input_kind="poisson")

    def test_basis_change_invariance(self, rng):
        res = gen_er(25, 5, seed=7)
        drive = rng.uniform(-1, 1, 2000)
        run = run_teacher_forced(res, drive)
        base = memory_capacity_from_states(run.states, drive, tau_max=15,
                                           start=100, ridge=0.0)
        A = np.eye(25) + 0.2 * rng.standard_normal((25, 25))
        mixed = memory_capacity_from_states(run.states @ A, drive, tau_max=15,
                                            start=100, ridge=0.0)
        assert_allclose(mixed.per_delay, base.per_delay, atol=1e-6)

    # The delays are solved in chunks of 32; each case puts the early stop
    # (5 consecutive delays below 1e-3) somewhere else relative to them.
    @pytest.mark.parametrize("length, tau_max, used", [
        (10, 100, 14),  # the stop falls inside the first chunk
        (30, 100, 34),  # delays 30..34 fall short, across the 32/33 boundary
        (25, 20, 20),   # tau_max below the chunk, no stop
    ], ids=["stop-in-first-chunk", "stop-straddles-chunks", "short-tau-max"])
    def test_chunked_solve_matches_per_delay_longhand(self, length, tau_max,
                                                       used):
        drive = np.random.default_rng(0).uniform(-1, 1, 8000)
        states = _delayed_copies(drive, length)
        profile = memory_capacity_from_states(states, drive, tau_max,
                                              start=100)
        want = memory_capacity_longhand(states, drive, tau_max, 100, 1e-8)
        assert profile.tau_max_used == len(want) == used
        assert_allclose(profile.per_delay, want, rtol=0, atol=1e-12)

    def test_chunked_solve_without_early_stop(self):
        # a 50-node delay line recalls all 45 delays, and 45 is not a
        # multiple of the chunk
        res = gen_delay_line(50, 0.98, input_gain=0.1)
        drive = np.random.default_rng(3).uniform(-1, 1, 3000)
        states = run_teacher_forced(res, drive).states
        profile = memory_capacity_from_states(states, drive, 45, start=100)
        want = memory_capacity_longhand(states, drive, 45, 100, 1e-8)
        assert profile.tau_max_used == len(want) == 45
        assert_allclose(profile.per_delay, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ridge, error", [(0.0, SingularDesignError),
                                              (-1.0, ParameterError)])
    def test_bad_ridge_raises_toolkit_error(self, rng, ridge, error):
        # a dead neuron leaves the unpenalized Gram matrix singular
        states = rng.standard_normal((400, 5))
        states[:, 2] = 0.0
        drive = rng.uniform(-1, 1, 400)
        with pytest.raises(error, match="ridge"):
            memory_capacity_from_states(states, drive, 10, ridge=ridge)

    def test_too_small_ridge_names_the_ridge(self):
        # At a Gram scale of 1e10 the rounding of the dependent columns
        # exceeds the default ridge, so the factorization fails anyway.
        rng = np.random.default_rng(0)
        states = rng.standard_normal((400, 5)) * 1e4
        states[:, 4] = 3 * states[:, 0]
        drive = rng.standard_normal(400)
        with pytest.raises(SingularDesignError) as info:
            memory_capacity_from_states(states, drive, 10)
        assert "1e-08" in str(info.value)
        assert "nonzero ridge" not in str(info.value)


class TestNeuronCorrelation:
    def test_identical_columns(self, rng):
        x = rng.standard_normal(500)
        stat = mean_squared_correlation(np.column_stack([x, x]))
        assert stat == pytest.approx(1.0)

    def test_sign_flip_still_one(self, rng):
        x = rng.standard_normal(500)
        stat = mean_squared_correlation(np.column_stack([x, -x]))
        assert stat == pytest.approx(1.0)

    def test_white_noise_is_small(self, rng):
        stat = mean_squared_correlation(rng.standard_normal((10000, 50)))
        assert stat < 0.01  # finite-sample bias is O(1/T)

    def test_affine_rescaling_invariance(self, rng):
        X = rng.standard_normal((300, 8))
        scales = rng.choice([-1, 1], 8) * rng.uniform(0.5, 3.0, 8)
        shifted = X * scales + rng.standard_normal(8)
        a = mean_squared_correlation(X)
        b = mean_squared_correlation(shifted)
        assert b == pytest.approx(a, rel=1e-9)

    def test_constant_column_named(self):
        X = np.random.default_rng(0).standard_normal((100, 4))
        X[:, 2] = 7.0
        with pytest.raises(ConstantSeriesError, match="neuron 2"):
            mean_squared_correlation(X)

    def test_needs_two_neurons(self):
        with pytest.raises(DimensionError):
            mean_squared_correlation(np.ones((10, 1)))


class TestBinning:
    def test_identity_mapping(self):
        points = [(float(i), float(10 - i)) for i in range(10)]
        bins = bin_by_lambda(points, n_bins=10)
        assert [b.x_median for b in bins] == [float(i) for i in range(10)]
        assert [b.y_median for b in bins] == [float(10 - i) for i in range(10)]

    def test_hand_checked_medians(self):
        # 20 points, 4 bins of 5: medians are the middle elements
        xs = np.arange(20.0)
        ys = np.concatenate([np.full(5, v) for v in (1.0, 5.0, 2.0, 9.0)])
        bins = bin_by_lambda(list(zip(xs, ys)), n_bins=4)
        assert [b.x_median for b in bins] == [2.0, 7.0, 12.0, 17.0]
        assert [b.y_median for b in bins] == [1.0, 5.0, 2.0, 9.0]
        assert all(b.count == 5 for b in bins)

    def test_unsorted_input(self, rng):
        xs = rng.permutation(30).astype(float)
        points = [(x, 2 * x) for x in xs]
        bins = bin_by_lambda(points, n_bins=3)
        assert bins[0].x_median < bins[1].x_median < bins[2].x_median

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            bin_by_lambda([(0.0, 0.0)], n_bins=2)
