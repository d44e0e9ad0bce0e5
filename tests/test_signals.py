import numpy as np
import pytest
from numpy.testing import assert_allclose

from esnkit.errors import ConstantSeriesError, ParameterError
from esnkit.esn import run_teacher_forced
from esnkit.reservoirs import gen_cycle_enhanced, gen_er, make_rng
from esnkit.signals import (
    _RESPONSE_WASHOUT,
    gaussian_smooth,
    normalize_series,
    periodogram,
    reservoir_response,
    resample_to_length,
)


class TestPeriodogram:
    def test_sinusoid_concentrates_power(self):
        t = np.arange(1000)
        profile = periodogram(np.sin(2 * np.pi * 0.1 * t))
        peak = np.argmax(profile.power)
        assert profile.freqs[peak] == pytest.approx(0.1, abs=1e-3)
        assert profile.power[peak] / profile.power.sum() >= 0.99

    def test_constant_series_no_power(self):
        profile = periodogram(np.full(64, 3.7))
        assert_allclose(profile.power, np.zeros(33), atol=1e-20)

    def test_parseval(self, rng):
        x = rng.standard_normal(512)
        profile = periodogram(x)
        integrated = profile.power.sum() / len(x)  # bin width 1/T
        assert integrated == pytest.approx(np.var(x), rel=1e-9)

    def test_parseval_odd_length(self, rng):
        x = rng.standard_normal(333)
        profile = periodogram(x)
        assert profile.power.sum() / 333 == pytest.approx(np.var(x), rel=1e-9)

    def test_flat_after_averaging(self, rng):
        # averaged white-noise periodograms flatten; chi-squared spread with
        # 200 dof keeps every bin within a factor ~2 of the mean
        total = np.zeros(65)
        for _ in range(100):
            total += periodogram(rng.standard_normal(128)).power
        mid = total[2:-2]
        assert mid.max() / mid.min() < 2.5

    def test_too_short(self):
        with pytest.raises(ParameterError):
            periodogram(np.ones(4))


class TestReservoirResponse:
    def test_shapes_and_parseval_positivity(self):
        res = gen_er(40, 6, seed=1)
        profile = reservoir_response(res, n_trials=3, T=256, seed=2)
        assert profile.freqs.shape == (129,)
        assert profile.power.shape == (129,)
        assert profile.n_averages == 3 * 40
        assert np.all(profile.power >= 0)

    def test_zero_density_response_is_flat_midband(self):
        # average over fresh instances; single-instance resonances need
        # hundreds of draws to smooth out bin by bin, so compare band means
        total = None
        for i in range(40):
            res = gen_cycle_enhanced(200, 0.05, 2, 0.0, seed=[90, i])
            p = reservoir_response(res, n_trials=1, T=512, seed=[90, i])
            total = p.power if total is None else total + p.power
        edges = np.linspace(0.05, 0.45, 9)
        means = [total[(p.freqs >= lo) & (p.freqs < hi)].mean()
                 for lo, hi in zip(edges[:-1], edges[1:])]
        assert max(means) / min(means) < 1.25

    def test_positive_self_loops_are_low_pass(self):
        res = gen_cycle_enhanced(200, 0.05, 1, 0.8, seed=5)
        profile = reservoir_response(res, n_trials=10, T=512, seed=6)
        low = profile.power[profile.freqs <= 0.05].mean()
        high = profile.power[profile.freqs >= 0.45].mean()
        assert low > 3 * high

    def test_batch_matches_trial_by_trial(self):
        # the trials run as one batch; one run_teacher_forced per trial is
        # the reference
        res = gen_er(40, 6, seed=3)
        profile = reservoir_response(res, n_trials=3, T=256, seed=4,
                                     match=(0.2, 0.5))
        total = 0.0
        for trial in range(3):
            drive = 0.2 + np.sqrt(0.5) * make_rng(4, trial).standard_normal(
                _RESPONSE_WASHOUT + 256)
            states = run_teacher_forced(res, drive).states[_RESPONSE_WASHOUT:]
            total = total + np.mean([periodogram(states[:, i]).power
                                     for i in range(40)], axis=0)
        assert_allclose(profile.power, total / 3, rtol=0,
                        atol=1e-12 * profile.power.max())

    def test_matched_moments(self):
        res = gen_er(30, 5, seed=7)
        profile = reservoir_response(res, n_trials=2, T=256, seed=8,
                                     match=(0.5, 2.0))
        assert np.all(np.isfinite(profile.power))

    @pytest.mark.parametrize("kwargs", [{"T": 0}, {"T": -3}, {"n_trials": 0}])
    def test_empty_drive_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            reservoir_response(gen_er(10, 3, seed=1), **kwargs)


class TestGaussianSmooth:
    def test_constant_unchanged(self):
        x = np.full(30, 2.5)
        assert_allclose(gaussian_smooth(x), x, rtol=1e-12)

    def test_impulse_gives_kernel(self):
        x = np.zeros(21)
        x[10] = 1.0
        smoothed = gaussian_smooth(x, window_len=3, sigma=1.0)
        e = np.exp(-0.5)
        expected = np.array([e, 1.0, e]) / (1 + 2 * e)
        assert_allclose(smoothed[9:12], expected, atol=1e-12)
        assert_allclose(expected, [0.27406, 0.45186, 0.27406], atol=2e-5)

    def test_reduces_noise_variance(self, rng):
        x = rng.standard_normal(2000)
        assert gaussian_smooth(x).var() < x.var()

    def test_even_window_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_smooth(np.arange(10.0), window_len=4)

    def test_commutes_with_time_reversal(self, rng):
        x = rng.standard_normal(100)
        assert_allclose(gaussian_smooth(x[::-1]), gaussian_smooth(x)[::-1],
                        atol=1e-14)


class TestNormalizeResample:
    def test_normalize_moments(self, rng):
        y = normalize_series(rng.uniform(5, 10, 400))
        assert abs(y.mean()) < 1e-12
        assert y.var() == pytest.approx(1.0, rel=1e-12)

    def test_already_normalized_fixed_point(self, rng):
        y = normalize_series(rng.standard_normal(300))
        assert_allclose(normalize_series(y), y, atol=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ConstantSeriesError):
            normalize_series(np.full(10, 4.0))

    @pytest.mark.parametrize("length", [2, 9, 40, 129])
    def test_stack_rows_are_single_calls(self, rng, length):
        stack = rng.uniform(-3, 7, (6, length))
        rows = normalize_series(stack)
        assert rows.tobytes() == np.stack(
            [normalize_series(row) for row in stack]).tobytes()

    def test_constant_row_rejected(self, rng):
        stack = rng.standard_normal((3, 10))
        stack[1] = 4.0
        with pytest.raises(ConstantSeriesError):
            normalize_series(stack)

    def test_resample_two_to_three(self):
        assert_allclose(resample_to_length(np.array([1.0, 3.0]), 3),
                        [1.0, 2.0, 3.0])

    def test_resample_round_trip_error_bound(self, rng):
        x = np.sin(np.linspace(0, 3 * np.pi, 80)) + 0.01 * rng.standard_normal(80)
        back = resample_to_length(resample_to_length(x, 200), 80)
        bound = np.abs(np.diff(x, 2)).max()
        assert np.abs(back - x).max() <= bound

    def test_resample_commutes_with_reversal(self, rng):
        x = rng.standard_normal(50)
        assert_allclose(resample_to_length(x[::-1], 23),
                        resample_to_length(x, 23)[::-1], atol=1e-12)

    def test_normalize_commutes_with_reversal(self, rng):
        x = rng.standard_normal(50)
        assert_allclose(normalize_series(x[::-1]), normalize_series(x)[::-1],
                        atol=1e-12)
