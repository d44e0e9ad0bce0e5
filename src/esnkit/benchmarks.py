"""Benchmark protocols: forecasting error and classification failure rate
for a (task bundle, reservoir) pair, plus reservoir construction from a
bundle's defaults. Used by the CLI sweeps and the adaptation heuristic.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError
from .esn import (
    _best_class,
    _fit_readout,
    _one_step_blocks,
    forecast_free_run,
    run_teacher_forced,
    train_class_readouts,
)
from .metrics import nrmse
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
    "er_reservoir_for",
    "cycle_reservoir_for",
    "cycle_evaluator",
]


def _next_step_teacher(series: np.ndarray) -> np.ndarray:
    """Teacher signal for one-step-ahead training: y(t) targets u(t+1)."""
    return np.concatenate([series[1:], series[-1:]])


def _multi_step_errors(reservoir: Reservoir, readout, series: np.ndarray,
                       washout: int, horizon: int, anchors: int) -> np.ndarray:
    """Closed-loop errors at the final step of ``horizon``-step rollouts
    started from evenly spaced anchors along a teacher-forced pass."""
    run = run_teacher_forced(reservoir, series,
                             teacher=_next_step_teacher(series),
                             washout=washout)
    starts = np.linspace(washout, len(series) - 1 - horizon, anchors).astype(int)
    errors = np.empty(len(starts))
    for idx, t in enumerate(starts):
        try:
            ys = forecast_free_run(reservoir, readout, run.states[t],
                                   series[t], horizon)
            errors[idx] = ys[-1] - series[t + horizon]
        except DivergenceError:
            errors[idx] = np.inf
    return errors


def forecast_benchmark(bundle: TaskBundle, reservoir: Reservoir, *,
                       ridge: float = 1e-8, anchors: int = 40) -> float:
    """Forecasting error of a reservoir on a bundle, per its protocol.

    One-step tasks score the readout's next-step predictions over the test
    window. Multi-step tasks train a one-step readout, then free-run from
    evenly spaced anchor states and score the prediction at the full
    horizon. Diverged rollouts score infinity rather than raising.
    """
    horizon = bundle.esn_defaults.horizon
    if bundle.continuous:
        series = np.concatenate([bundle.train, bundle.test])
        split = len(bundle.train)
        run = run_teacher_forced(reservoir, series,
                                 teacher=_next_step_teacher(series),
                                 washout=bundle.washout)
        design = run.design_matrix()
        train_rows = slice(bundle.washout, split - 1)
        readout = _fit_readout(design[train_rows], series[bundle.washout + 1:split],
                               run.inputs[train_rows], ridge)
        if horizon == 1:
            test_rows = slice(split, len(series) - 1)
            pred = design[test_rows] @ readout.w_out
            return nrmse(pred, series[split + 1:], series[split:len(series) - 1])
        errors = _multi_step_errors(reservoir, readout, series,
                                    split, horizon, anchors)
        return float(np.sqrt(np.mean(errors ** 2) / np.var(series[split:])))

    train_series = bundle.train
    run = run_teacher_forced(reservoir, train_series,
                             teacher=_next_step_teacher(train_series),
                             washout=bundle.washout)
    rows = slice(bundle.washout, len(train_series) - 1)
    readout = _fit_readout(run.design_matrix()[rows],
                           train_series[bundle.washout + 1:],
                           train_series[rows], ridge)

    test_series = bundle.test
    if horizon == 1:
        test_run = run_teacher_forced(reservoir, test_series,
                                      teacher=_next_step_teacher(test_series),
                                      washout=bundle.washout)
        rows = slice(bundle.washout, len(test_series) - 1)
        pred = test_run.design_matrix()[rows] @ readout.w_out
        return nrmse(pred, test_series[bundle.washout + 1:],
                     test_series[rows])
    errors = _multi_step_errors(reservoir, readout, test_series,
                                bundle.washout, horizon, anchors)
    return float(np.sqrt(np.mean(errors ** 2)
                         / np.var(test_series[bundle.washout:])))


def classification_benchmark(bundle: TaskBundle, reservoir: Reservoir, *,
                             ridge: float = 1e-8) -> float:
    """Failure rate of classification-by-forecasting over a bundle's test set."""
    readouts = train_class_readouts(bundle.train, reservoir,
                                    washout=bundle.washout, ridge=ridge)
    labels = [label for label in sorted(bundle.test) for _ in bundle.test[label]]
    recordings = [s for label in sorted(bundle.test) for s in bundle.test[label]]
    blocks = _one_step_blocks(reservoir, recordings, bundle.washout, "tanh")
    failures = sum(_best_class(readouts, *block)[0] != label
                   for label, block in zip(labels, blocks))
    return failures / len(labels)


def benchmark(bundle: TaskBundle, reservoir: Reservoir, *,
              ridge: float = 1e-8, anchors: int = 40) -> float:
    """Dispatch on the bundle kind; lower is always better."""
    if isinstance(bundle.train, dict):
        return classification_benchmark(bundle, reservoir, ridge=ridge)
    return forecast_benchmark(bundle, reservoir, ridge=ridge, anchors=anchors)


def er_reservoir_for(bundle: TaskBundle, seed: SeedLike, *,
                     alpha: float | None = None) -> Reservoir:
    """Random reservoir matching a bundle's default protocol settings."""
    d = bundle.esn_defaults
    return gen_er(d.n, d.avg_degree, seed,
                  Normalization("spectral_radius", alpha or d.alpha),
                  feedback=d.feedback)


def cycle_reservoir_for(bundle: TaskBundle, cycle_density: dict[int, float],
                        seed: SeedLike, *, mean_modulus: float,
                        l1_mode: str = "weight_mix") -> Reservoir:
    """Cycle-enhanced reservoir for a bundle, normalized by mean eigenvalue
    modulus (the statistic that adding cycles leaves meaningful)."""
    d = bundle.esn_defaults
    connectivity = 2.0 * d.avg_degree / d.n
    return gen_combined(d.n, connectivity, cycle_density, seed,
                        Normalization("avg_modulus", mean_modulus),
                        l1_mode=l1_mode, feedback=d.feedback)


def cycle_evaluator(bundle: TaskBundle, *, mean_modulus: float,
                    ridge: float = 1e-8, anchors: int = 40,
                    l1_mode: str = "weight_mix"):
    """Evaluation callable for the adaptation pipeline: maps a cycle-density
    configuration and a seed list to per-seed benchmark scores."""

    def evaluate(cycle_density: dict[int, float], seeds) -> list[float]:
        scores = []
        for s in seeds:
            res = cycle_reservoir_for(bundle, cycle_density, s,
                                      mean_modulus=mean_modulus,
                                      l1_mode=l1_mode)
            scores.append(benchmark(bundle, res, ridge=ridge, anchors=anchors))
        return scores

    return evaluate
