import numpy as np
import pytest

from esnkit.benchmarks import (
    benchmark,
    classification_benchmark,
    cycle_evaluator,
    cycle_reservoir_for,
    er_reservoir_for,
    forecast_benchmark,
)
from esnkit.esn import score_against_classes, train_class_readouts
from esnkit.tasks import gen_synthetic_classification, sine_mixture_bundle


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

    def test_dispatch(self, small_sine_bundle):
        res = er_reservoir_for(small_sine_bundle, seed=2)
        assert benchmark(small_sine_bundle, res) == \
            forecast_benchmark(small_sine_bundle, res)


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
        failures = [score_against_classes(readouts, s, res,
                                          washout=bundle.washout)[0] != label
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
