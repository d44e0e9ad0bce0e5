"""Echo state network dynamics, readout training, and forecasting.

State update: ``x(t) = f(W x(t-1) + w_in u(t) + w_ofb y(t-1))`` with
``f = tanh`` (an identity option exists for linear-regime checks).
Output: ``y(t) = w_out . [x(t); u(t)]``. Only ``w_out`` is ever trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import (
    DimensionError,
    DomainError,
    DivergenceError,
    ParameterError,
    SingularDesignError,
)
from .metrics import nrmse
from .reservoirs import Reservoir

__all__ = [
    "EsnRun",
    "TrainedReadout",
    "step",
    "run_teacher_forced",
    "train_readout",
    "forecast_free_run",
    "train_class_readouts",
    "classify_by_forecast",
    "DIVERGENCE_LIMIT",
]

#: Free-running forecasts abort once |y| exceeds this.
DIVERGENCE_LIMIT = 1e6

#: Dense matvec beats sparse below this size; the cutoff only changes speed.
_DENSE_CUTOFF = 512


def _activation(name: str) -> Callable[[np.ndarray], np.ndarray]:
    if name == "tanh":
        return np.tanh
    if name in ("identity", "linear"):
        return lambda z: z
    raise ParameterError(f"unknown activation {name!r}")


@dataclass
class EsnRun:
    """Recorded trajectory of a driven reservoir.

    ``states[t]`` is the neuron state after consuming ``inputs[t]``;
    ``outputs`` holds whatever was fed back (the teacher during training).
    The first ``washout`` rows are transient and excluded from fits.
    """

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    washout: int

    def design_matrix(self) -> np.ndarray:
        """Stacked regression features ``[x(t); u(t)]`` for every step."""
        return np.column_stack([self.states, self.inputs])


@dataclass
class TrainedReadout:
    """Trained readout row vector over N neurons plus the input channel."""

    w_out: np.ndarray
    ridge: float
    train_nrmse: float


def step(reservoir: Reservoir, x_prev: np.ndarray, u: float,
         y_prev: float = 0.0, activation: str = "tanh") -> np.ndarray:
    """Advance the reservoir state by one time step."""
    x_prev = np.asarray(x_prev, dtype=float)
    if x_prev.shape != (reservoir.n,):
        raise DimensionError(
            f"state has shape {x_prev.shape}, expected ({reservoir.n},)")
    f = _activation(activation)
    z = reservoir.W @ x_prev + reservoir.w_in * u + reservoir.w_ofb * y_prev
    return f(z)


def _recurrence_operator(reservoir: Reservoir):
    W = reservoir.W
    if reservoir.n <= _DENSE_CUTOFF:
        return reservoir.dense()
    return sp.csr_matrix(W)


def run_teacher_forced(reservoir: Reservoir, inputs: np.ndarray,
                       teacher: np.ndarray | None = None, washout: int = 0,
                       activation: str = "tanh") -> EsnRun:
    """Drive the reservoir from ``x(0) = 0``, recording every state.

    The feedback term uses the teacher signal shifted by one step
    (``y(t-1) = teacher[t-1]``, zero at t=0). When the reservoir has no
    feedback weights the teacher is ignored entirely, so runs are
    teacher-independent in that case.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 1:
        raise DimensionError("inputs must be one-dimensional")
    if not np.isfinite(u).all():
        raise DomainError("inputs contain non-finite values")
    T = len(u)
    if not 0 <= washout < T:
        raise ParameterError("washout must satisfy 0 <= washout < len(inputs)")

    n = reservoir.n
    feed = u[:, None] * reservoir.w_in[None, :]
    has_feedback = np.any(reservoir.w_ofb != 0.0)
    if has_feedback and teacher is not None:
        y = np.asarray(teacher, dtype=float)
        if y.shape != u.shape:
            raise DimensionError("teacher length must match inputs")
        y_prev = np.concatenate([[0.0], y[:-1]])
        feed += y_prev[:, None] * reservoir.w_ofb[None, :]

    f = _activation(activation)
    W = _recurrence_operator(reservoir)
    states = np.empty((T, n))
    x = np.zeros(n)
    for t in range(T):
        x = f(W @ x + feed[t])
        states[t] = x

    outputs = (np.asarray(teacher, dtype=float)
               if teacher is not None else np.zeros(T))
    return EsnRun(states=states, inputs=u, outputs=outputs, washout=washout)


def solve_ridge(design: np.ndarray, target: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares weights for ``target ~ design @ w`` with an L2 penalty.

    ``ridge == 0`` falls back to an orthogonal-factorization solve and
    raises ``SingularDesignError`` on rank deficiency.
    """
    if ridge < 0:
        raise ParameterError("ridge must be nonnegative")
    if ridge == 0.0:
        w, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            raise SingularDesignError(
                "design matrix is rank deficient; supply a nonzero ridge")
        return w
    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += ridge
    rhs = design.T @ target
    c, low = scipy.linalg.cho_factor(gram, check_finite=False)
    return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)


def _fit_readout(design: np.ndarray, target: np.ndarray,
                 normalizer: np.ndarray, ridge: float) -> TrainedReadout:
    """Ridge readout on explicit design rows, with its training NRMSE
    normalized by ``normalizer`` (exactly 0 for a perfect fit)."""
    w = solve_ridge(design, target, ridge)
    pred = design @ w
    sse = float(np.sum((target - pred) ** 2))
    err = 0.0 if sse == 0.0 else nrmse(pred, target, normalizer)
    return TrainedReadout(w_out=w, ridge=ridge, train_nrmse=err)


def train_readout(run: EsnRun, target: np.ndarray,
                  ridge: float = 1e-8) -> TrainedReadout:
    """Fit the readout on the post-washout window of a recorded run.

    Minimizes the squared error of ``w . [x(t); u(t)]`` against the target
    plus ``ridge * ||w||^2``. The reported training error is normalized by
    the variance of the input signal over the same window.
    """
    y = np.asarray(target, dtype=float)
    T = len(run.inputs)
    if y.shape != (T,):
        raise DimensionError("target length must match the run")
    lo = run.washout
    n_rows = T - lo
    n_features = run.states.shape[1] + 1
    if n_rows < n_features + 1:
        raise ParameterError(
            f"need at least {n_features + 1} post-washout samples, have {n_rows}")
    design = np.column_stack([run.states[lo:], run.inputs[lo:]])
    return _fit_readout(design, y[lo:], run.inputs[lo:], ridge)


def forecast_free_run(reservoir: Reservoir, readout: TrainedReadout,
                      x_init: np.ndarray, u_init: float, horizon: int,
                      activation: str = "tanh") -> np.ndarray:
    """Closed-loop forecast: each output becomes the next input (and the
    feedback signal, when the reservoir has one).

    Raises ``DivergenceError`` with the offending step index if the output
    leaves ``[-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT]``.
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    x = np.asarray(x_init, dtype=float)
    if x.shape != (reservoir.n,):
        raise DimensionError("x_init has the wrong length")
    f = _activation(activation)
    W = _recurrence_operator(reservoir)
    w_state = readout.w_out[:-1]
    w_input = readout.w_out[-1]
    u = float(u_init)
    ys = np.empty(horizon)
    for h in range(horizon):
        y = float(w_state @ x + w_input * u)
        if not np.isfinite(y) or abs(y) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"forecast diverged at step {h + 1}", step=h + 1)
        ys[h] = y
        u = y
        x = f(W @ x + reservoir.w_in * u + reservoir.w_ofb * y)
    return ys


def _one_step_blocks(reservoir: Reservoir, series: np.ndarray, washout: int,
                     activation: str) -> tuple[np.ndarray, np.ndarray]:
    """Design rows and next-step targets for a single recording.

    The reservoir state is re-zeroed for every recording.
    """
    run = run_teacher_forced(reservoir, series, washout=washout,
                             activation=activation)
    hi = len(series) - 1
    design = np.column_stack([run.states[washout:hi], series[washout:hi]])
    target = series[washout + 1:hi + 1]
    return design, target


def train_class_readouts(train_sets: Mapping[int, Sequence[np.ndarray]],
                         reservoir: Reservoir, washout: int = 5,
                         ridge: float = 1e-8,
                         activation: str = "tanh") -> dict[int, TrainedReadout]:
    """One next-step readout per class, trained on that class's recordings."""
    if len(train_sets) < 2:
        raise ParameterError("need at least two classes")
    readouts: dict[int, TrainedReadout] = {}
    n_features = reservoir.n + 1
    for label in sorted(train_sets):
        recordings = train_sets[label]
        if len(recordings) == 0:
            raise ParameterError(f"class {label!r} has no training recordings")
        blocks = [_one_step_blocks(reservoir, np.asarray(s, dtype=float),
                                   washout, activation)
                  for s in recordings]
        design = np.vstack([b[0] for b in blocks])
        target = np.concatenate([b[1] for b in blocks])
        if design.shape[0] < n_features + 1:
            raise SingularDesignError(
                f"class {label!r} has too few training samples "
                f"({design.shape[0]} rows for {n_features} features)")
        readouts[label] = _fit_readout(design, target, design[:, -1], ridge)
    return readouts


def score_against_classes(readouts: Mapping[int, TrainedReadout],
                          test: np.ndarray, reservoir: Reservoir,
                          washout: int = 5,
                          activation: str = "tanh") -> tuple[int, dict[int, float]]:
    """Classify one series with pre-trained per-class readouts.

    The winner is the class whose readout forecasts the series with the
    lowest error (normalized by the test series itself); exact ties go to
    the lowest class label.
    """
    series = np.asarray(test, dtype=float)
    design, target = _one_step_blocks(reservoir, series, washout, activation)
    normalizer = series[washout:len(series) - 1]
    scores: dict[int, float] = {}
    for label in sorted(readouts):
        pred = design @ readouts[label].w_out
        scores[label] = nrmse(pred, target, normalizer)
    best = min(sorted(scores), key=lambda lbl: scores[lbl])
    return best, scores


def classify_by_forecast(train_sets: Mapping[int, Sequence[np.ndarray]],
                         test: np.ndarray, reservoir: Reservoir, *,
                         washout: int = 5, ridge: float = 1e-8,
                         activation: str = "tanh") -> tuple[int, dict[int, float]]:
    """Train per-class readouts and classify ``test`` in one call."""
    readouts = train_class_readouts(train_sets, reservoir, washout, ridge,
                                    activation)
    return score_against_classes(readouts, test, reservoir, washout, activation)
