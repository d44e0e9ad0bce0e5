"""Benchmark protocols: forecasting error and classification failure rate
for a (task bundle, reservoir) pair, plus reservoir construction from a
bundle's defaults. Used by the CLI sweeps and the adaptation heuristic.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import ParameterError
from .esn import (
    forecast_free_run,
    run_teacher_forced,
    score_against_classes,
    solve_ridge,
    train_class_readouts,
)
from .metrics import RIDGE, nrmse
from .reservoirs import (
    Normalization,
    Reservoir,
    SeedLike,
    gen_combined,
    gen_er,
)
from .tasks import TaskBundle

__all__ = [
    "forecast_benchmark",
    "classification_benchmark",
    "benchmark",
    "protocol_fields",
    "er_reservoir_for",
    "cycle_reservoir_for",
    "cycle_evaluator",
]


def _next_step_run(reservoir: Reservoir, series: np.ndarray, washout: int):
    """Teacher-forced pass for one-step-ahead training: y(t) targets u(t+1)."""
    teacher = np.concatenate([series[1:], series[-1:]])
    return run_teacher_forced(reservoir, series, teacher=teacher,
                              washout=washout)


def _trained_pass(reservoir: Reservoir, bundle: TaskBundle,
                  series: np.ndarray):
    """Teacher-forced pass over ``series``, which begins with the bundle's
    training series, and the next-step readout fitted on the training rows."""
    run = _next_step_run(reservoir, series, bundle.washout)
    rows = slice(bundle.washout, len(bundle.train) - 1)
    return run, solve_ridge(run.design_matrix()[rows], run.inputs[1:][rows],
                            RIDGE)


def _multi_step_errors(reservoir: Reservoir, w_out, run, start: int,
                       horizon: int) -> np.ndarray:
    """Closed-loop errors at the final step of ``horizon``-step rollouts
    started from 40 evenly spaced anchors of a teacher-forced ``run``, from
    ``start`` on; a diverged rollout's error is infinite."""
    series = run.inputs
    starts = np.linspace(start, len(series) - 1 - horizon, 40).astype(int)
    ys = forecast_free_run(reservoir, w_out, run.states[starts],
                           series[starts], horizon)
    return ys[:, -1] - series[starts + horizon]


def forecast_benchmark(bundle: TaskBundle, reservoir: Reservoir) -> float:
    """Forecasting error of a reservoir on a bundle, per its protocol.

    One-step tasks score the readout's next-step predictions over the test
    window. Multi-step tasks train a one-step readout, then free-run from
    evenly spaced anchor states and score the prediction at the full
    horizon. Diverged rollouts score infinity rather than raising.
    """
    horizon = bundle.esn_defaults.horizon
    if bundle.continuous:
        series = np.concatenate([bundle.train, bundle.test])
        run, readout = _trained_pass(reservoir, bundle, series)
        start = len(bundle.train)
    else:
        readout = _trained_pass(reservoir, bundle, bundle.train)[1]
        series, start = bundle.test, bundle.washout
        run = _next_step_run(reservoir, series, bundle.washout)

    if horizon == 1:
        rows = slice(start, len(series) - 1)
        pred = run.design_matrix()[rows] @ readout
        return nrmse(pred, series[start + 1:], series[rows])
    errors = _multi_step_errors(reservoir, readout, run, start, horizon)
    return float(np.sqrt(np.mean(errors ** 2) / np.var(series[start:])))


def classification_benchmark(bundle: TaskBundle, reservoir: Reservoir) -> float:
    """Failure rate of classification-by-forecasting over a bundle's test
    set, which must not be empty."""
    if not any(bundle.test.values()):
        raise ParameterError(f"task {bundle.name!r} has no test recordings")
    readouts = train_class_readouts(bundle.train, reservoir,
                                    washout=bundle.washout)
    labels = [label for label in sorted(bundle.test) for _ in bundle.test[label]]
    recordings = [s for label in sorted(bundle.test) for s in bundle.test[label]]
    results = score_against_classes(readouts, recordings, reservoir,
                                    washout=bundle.washout)
    failures = sum(best != label for label, (best, _) in zip(labels, results))
    return failures / len(labels)


def benchmark(bundle: TaskBundle, reservoir: Reservoir) -> float:
    """Dispatch on the bundle kind; lower is always better."""
    if isinstance(bundle.train, dict):
        return classification_benchmark(bundle, reservoir)
    return forecast_benchmark(bundle, reservoir)


def protocol_fields(bundle: TaskBundle, builder) -> dict:
    """The fields of a bundle's default protocol that the generator
    ``builder`` takes: ``n``, ``avg_degree``, ``connectivity`` (the edge
    fraction ``2 * avg_degree / n``) and ``feedback``."""
    d = bundle.esn_defaults
    fields = {"n": d.n, "avg_degree": d.avg_degree,
              "connectivity": 2.0 * d.avg_degree / d.n, "feedback": d.feedback}
    taken = inspect.signature(builder).parameters
    return {key: value for key, value in fields.items() if key in taken}


def er_reservoir_for(bundle: TaskBundle, seed: SeedLike, *,
                     alpha: float | None = None) -> Reservoir:
    """Random reservoir matching a bundle's default protocol settings."""
    alpha = bundle.esn_defaults.alpha if alpha is None else alpha
    return gen_er(seed=seed, normalization=Normalization("spectral_radius", alpha),
                  **protocol_fields(bundle, gen_er))


def cycle_reservoir_for(bundle: TaskBundle, cycle_density: dict[int, float],
                        seed: SeedLike, *, mean_modulus: float) -> Reservoir:
    """Cycle-enhanced reservoir for a bundle, normalized by mean eigenvalue
    modulus (the statistic that adding cycles leaves meaningful)."""
    return gen_combined(cycle_density=cycle_density, seed=seed,
                        normalization=Normalization("avg_modulus", mean_modulus),
                        **protocol_fields(bundle, gen_combined))


def cycle_evaluator(bundle: TaskBundle, *, mean_modulus: float):
    """Evaluation callable for the adaptation pipeline: maps a cycle-density
    configuration and a seed list to per-seed benchmark scores."""

    def evaluate(cycle_density: dict[int, float], seeds) -> list[float]:
        scores = []
        for s in seeds:
            res = cycle_reservoir_for(bundle, cycle_density, s,
                                      mean_modulus=mean_modulus)
            scores.append(benchmark(bundle, res))
        return scores

    return evaluate
