import warnings

import numpy as np
import pytest

from esnkit.benchmarks import (
    _multi_step_errors,
    _next_step_run,
    _trained_pass,
    benchmark,
    classification_benchmark,
    cycle_evaluator,
    cycle_reservoir_for,
    er_reservoir_for,
    forecast_benchmark,
)
from esnkit.errors import ParameterError
from esnkit.esn import (
    _DENSE_CUTOFF,
    score_against_classes,
    train_class_readouts,
)
from esnkit.tasks import (
    gen_synthetic_classification,
    mackey_glass_bundle,
    sine_mixture_bundle,
)
from oracles import multi_step_errors_longhand


@pytest.fixture(scope="module")
def small_sine_bundle():
    return sine_mixture_bundle(seed=4, length=2500, noise_sigma=0.2)


class TestForecastBenchmark:
    def test_one_step_beats_mean_predictor(self, small_sine_bundle):
        res = er_reservoir_for(small_sine_bundle, seed=1)
        score = forecast_benchmark(small_sine_bundle, res)
        assert 0.0 < score < 1.0

    def test_deterministic(self, small_sine_bundle):
        res = er_reservoir_for(small_sine_bundle, seed=1)
        assert forecast_benchmark(small_sine_bundle, res) == \
            forecast_benchmark(small_sine_bundle, res)

    def test_zero_alpha_is_a_parameter_error(self, small_sine_bundle):
        with pytest.raises(ParameterError, match="must be positive"):
            er_reservoir_for(small_sine_bundle, seed=1, alpha=0.0)

    def test_dispatch(self, small_sine_bundle):
        res = er_reservoir_for(small_sine_bundle, seed=2)
        assert benchmark(small_sine_bundle, res) == \
            forecast_benchmark(small_sine_bundle, res)


def _mackey_glass_rollouts(seed, cycle_density, mean_modulus, n=100):
    """A Mackey-Glass closed-loop case as ``forecast_benchmark`` builds it,
    on shortened series: the reservoir, the one-step readout, and the
    teacher-forced test run (its anchors start at the washout, 700)."""
    bundle = mackey_glass_bundle(seed=seed, length=3000, washout=700,
                                 n_neurons=n)
    res = cycle_reservoir_for(bundle, cycle_density, [seed, 1],
                              mean_modulus=mean_modulus)
    readout = _trained_pass(res, bundle, bundle.train)[1]
    return res, readout, _next_step_run(res, bundle.test, bundle.washout)


def _assert_matches_longhand(res, readout, run, start=700):
    got = _multi_step_errors(res, readout, run, start, 84)
    want = multi_step_errors_longhand(res, readout, run.states, run.inputs,
                                      start, 84, 40)
    assert got.tobytes() == want.tobytes()
    return got


class TestMultiStepErrors:
    """The batched closed loop against one rollout at a time, bitwise."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cycle_density", [
        {}, {1: 0.6}, {1: 0.6, 2: 0.2}, {2: -0.4}])
    def test_matches_longhand(self, seed, cycle_density):
        # seed 3 with {2: -0.4} has a diverging anchor (on 2 vCPUs with
        # OpenBLAS 0.3.31)
        _assert_matches_longhand(
            *_mackey_glass_rollouts(seed, cycle_density, 0.6))

    @pytest.mark.parametrize("mean_modulus, all_diverge", [(1.3, False),
                                                          (1.6, True)])
    def test_diverging_anchors_match_longhand(self, mean_modulus, all_diverge):
        # some, then all, of the 40 rollouts leave the divergence limit;
        # the others run on untouched and nothing warns
        case = _mackey_glass_rollouts(0, {2: -0.4}, mean_modulus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = _assert_matches_longhand(*case)
        n_diverged = np.isinf(errors).sum()
        assert n_diverged == 40 if all_diverge else 0 < n_diverged < 40

    def test_sparse_reservoir_matches_longhand(self):
        # above the cutoff the recursion runs on a CSR matrix, not a dense one
        res, readout, run = _mackey_glass_rollouts(1, {1: 0.6}, 0.6,
                                                   n=_DENSE_CUTOFF + 44)
        assert res.n > _DENSE_CUTOFF
        _assert_matches_longhand(res, readout, run)


class TestClassificationBenchmark:
    def test_failure_rate_range(self):
        bundle = gen_synthetic_classification(3, 15, 40, seed=2,
                                              test_per_class=4)
        res = er_reservoir_for(bundle, seed=3)
        rate = classification_benchmark(bundle, res)
        assert 0.0 <= rate <= 1.0
        assert benchmark(bundle, res) == rate

    def test_matches_per_recording_scoring(self):
        # the whole test set runs as batches of equal length; scoring each
        # recording on its own is the reference
        bundle = gen_synthetic_classification(6, 15, 40, seed=5,
                                              test_per_class=6,
                                              noise_sigma=1.0)
        bundle.test = {label: [s[:30 + 2 * (i % 3)] for i, s in enumerate(rec)]
                       for label, rec in bundle.test.items()}
        res = er_reservoir_for(bundle, seed=6)
        readouts = train_class_readouts(bundle.train, res,
                                        washout=bundle.washout)
        failures = [score_against_classes(readouts, [s], res,
                                          washout=bundle.washout)[0][0] != label
                    for label, rec in bundle.test.items() for s in rec]
        assert 0 < sum(failures) < len(failures)
        assert classification_benchmark(bundle, res) == \
            sum(failures) / len(failures)


class TestCycleEvaluator:
    def test_per_seed_scores(self, small_sine_bundle):
        evaluate = cycle_evaluator(small_sine_bundle, mean_modulus=0.5)
        scores = evaluate({2: -0.4}, [[0, 0], [0, 1]])
        assert len(scores) == 2
        assert all(np.isfinite(s) for s in scores)

    def test_reservoir_matches_protocol(self, small_sine_bundle):
        res = cycle_reservoir_for(small_sine_bundle, {2: 0.4}, seed=5,
                                  mean_modulus=0.5)
        d = small_sine_bundle.esn_defaults
        assert res.n == d.n
        assert res.meta.params["connectivity"] == pytest.approx(
            2 * d.avg_degree / d.n)
        assert np.all(res.w_ofb == 0) == (not d.feedback)
