"""Echo state network dynamics, readout training, and forecasting.

State update: ``x(t) = f(W x(t-1) + w_in u(t) + w_ofb y(t-1))`` with
``f = tanh`` (``run_teacher_forced`` also takes the identity, for
linear-regime checks).
Output: ``y(t) = w_out . [x(t); u(t)]``. Only ``w_out`` is ever trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import (
    DimensionError,
    DomainError,
    ParameterError,
    SingularDesignError,
)
from .metrics import RIDGE, _ridge_factor, nrmse
from .reservoirs import Reservoir

__all__ = [
    "EsnRun",
    "run_teacher_forced",
    "train_readout",
    "forecast_free_run",
    "train_class_readouts",
    "DIVERGENCE_LIMIT",
]

#: A closed-loop rollout has diverged once |y| exceeds this.
DIVERGENCE_LIMIT = 1e6

#: Up to this size the recurrence multiplies by the dense ``W``, above it by
#: CSR: the crossover measured at average degree 20 (2000 steps, one BLAS
#: thread). The two products round differently.
_DENSE_CUTOFF = 256


def _activation(name: str) -> np.ufunc:
    if name == "tanh":
        return np.tanh
    if name == "identity":
        return np.positive
    raise ParameterError(f"unknown activation {name!r}")


@dataclass
class EsnRun:
    """Recorded trajectory of a driven reservoir.

    ``states[t]`` is the neuron state after consuming ``inputs[t]``.
    The first ``washout`` rows are transient and excluded from fits.
    """

    states: np.ndarray
    inputs: np.ndarray
    washout: int

    def design_matrix(self) -> np.ndarray:
        """Regression features ``[x(t); u(t)]`` for every step: ``(T, n+1)``
        for one run, ``(T, B, n+1)`` for a batch."""
        return np.concatenate([self.states, self.inputs[..., None]], axis=-1)


def _checked_readout(w_out, n: int) -> np.ndarray:
    """Readout weights over ``[x(t); u(t)]`` as an ``(n+1,)`` float array."""
    w = np.asarray(w_out, dtype=float)
    if w.shape != (n + 1,):
        raise DimensionError(
            f"readout weights must have shape ({n + 1},), got {w.shape}")
    return w


def _recurrence_operator(reservoir: Reservoir):
    if reservoir.n <= _DENSE_CUTOFF:
        return reservoir.W.toarray()
    return sp.csr_matrix(reservoir.W)


def _checked_input(inputs, washout: int) -> np.ndarray:
    """A ``(T,)`` series or ``(T, B)`` batch as floats, after the checks
    every run makes."""
    u = np.asarray(inputs, dtype=float)
    if u.ndim not in (1, 2):
        raise DimensionError("inputs must be a (T,) series or a (T, B) batch")
    if not np.isfinite(u).all():
        raise DomainError("inputs contain non-finite values")
    if not 0 <= washout < len(u):
        raise ParameterError("washout must satisfy 0 <= washout < len(inputs)")
    return u


def run_teacher_forced(reservoir: Reservoir, inputs: np.ndarray,
                       teacher: np.ndarray | None = None, washout: int = 0,
                       activation: str = "tanh") -> EsnRun:
    """Drive the reservoir from ``x(0) = 0``, recording every state.

    ``inputs`` is one ``(T,)`` series or a ``(T, B)`` batch of B independent
    runs on the same reservoir; the states come back as ``(T, n)`` or
    ``(T, B, n)``. The feedback term uses the teacher signal (the shape of
    ``inputs``) shifted by one step (``y(t-1) = teacher[t-1]``, zero at
    t=0). When the reservoir has no feedback weights the teacher is ignored
    entirely, so runs are teacher-independent in that case.

    A single run keeps a 1-D state, so ``x @ W.T`` stays a matrix-vector
    product, bitwise equal to ``W @ x``; a ``(T, 1)`` batch goes through a
    matrix-matrix product, which rounds differently. A sparse ``W`` runs
    the CSR kernels behind ``W @ x`` (``csr_matvec``, ``csr_matvecs`` for a
    batch) on preallocated buffers: each row sums its products from zero in
    index order and the feed is added after, so a step has the bits of
    ``W @ x + feed``.
    """
    u = _checked_input(inputs, washout)
    feed = u[..., None] * reservoir.w_in
    has_feedback = np.any(reservoir.w_ofb != 0.0)
    if has_feedback and teacher is not None:
        y = np.asarray(teacher, dtype=float)
        if y.shape != u.shape:
            raise DimensionError("teacher must have the shape of inputs")
        y_prev = np.concatenate([np.zeros_like(y[:1]), y[:-1]])
        feed += y_prev[..., None] * reservoir.w_ofb
    f = _activation(activation)
    W = _recurrence_operator(reservoir)
    states = np.empty_like(feed)
    if not sp.issparse(W):
        acc, Wt = np.empty(feed.shape[1:]), W.T

        def product(x):
            return np.matmul(x, Wt, out=acc)
    elif u.ndim == 1:
        acc = np.empty(reservoir.n)
        csr = (reservoir.n, reservoir.n, W.indptr, W.indices, W.data)

        def product(x):
            acc.fill(0.0)
            _sparsetools.csr_matvec(*csr, x, acc)
            return acc
    else:
        # csr_matvecs takes each node's B values side by side: (n, B).
        acc = np.empty((reservoir.n, u.shape[1]))
        csr = (reservoir.n, reservoir.n, u.shape[1], W.indptr, W.indices,
               W.data)

        def product(x):
            acc.fill(0.0)
            _sparsetools.csr_matvecs(*csr, x.T.ravel(), acc.ravel())
            return acc.T
    x = np.zeros(feed.shape[1:])
    for t in range(len(feed)):
        z = product(x)
        np.add(z, feed[t], out=z)
        x = f(z, out=states[t])
    return EsnRun(states=states, inputs=u, washout=washout)


def solve_ridge(design: np.ndarray, target: np.ndarray, ridge: float) -> np.ndarray:
    """Least-squares weights for ``target ~ design @ w`` with an L2 penalty.

    ``ridge == 0`` falls back to an orthogonal-factorization solve and
    raises ``SingularDesignError`` on rank deficiency.
    """
    if ridge == 0.0:
        w, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < design.shape[1]:
            raise SingularDesignError(
                "design matrix is rank deficient; supply a nonzero ridge")
        return w
    return scipy.linalg.cho_solve(_ridge_factor(design, ridge),
                                  design.T @ target, check_finite=False)


def train_readout(run: EsnRun, target: np.ndarray,
                  ridge: float = RIDGE) -> np.ndarray:
    """Fit the readout on the post-washout window of a recorded single run.

    Minimizes the squared error of ``w . [x(t); u(t)]`` against the target
    plus ``ridge * ||w||^2`` and returns the ``(n+1,)`` weights ``w``.
    """
    if run.inputs.ndim != 1:
        raise DimensionError("a readout is trained on a single run, not a batch")
    y = np.asarray(target, dtype=float)
    T = len(run.inputs)
    if y.shape != (T,):
        raise DimensionError("target length must match the run")
    if not np.isfinite(y).all():
        raise DomainError("target contains non-finite values")
    lo = run.washout
    n_rows = T - lo
    n_features = run.states.shape[1] + 1
    if n_rows < n_features + 1:
        raise ParameterError(
            f"need at least {n_features + 1} post-washout samples, have {n_rows}")
    return solve_ridge(run.design_matrix()[lo:], y[lo:], ridge)


def forecast_free_run(reservoir: Reservoir, w_out: np.ndarray,
                      X0: np.ndarray, u0: np.ndarray, horizon: int) -> np.ndarray:
    """Closed-loop forecasts of the ``(n+1,)`` readout ``w_out`` from a
    ``(B, n)`` stack of start states and ``(B,)`` start inputs: each output
    becomes the next input (and the feedback signal). Returns
    ``(B, horizon)`` outputs. A row that leaves
    ``[-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT]`` reads ``inf`` from then on and
    its state is zeroed. ``np.matmul`` calls BLAS once per row, so each row
    rounds exactly like a single rollout's ``W @ x`` and ``w @ x``.
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    X = np.array(X0, dtype=float)
    u = np.asarray(u0, dtype=float)
    if X.ndim != 2 or X.shape[1] != reservoir.n or u.shape != X.shape[:1]:
        raise DimensionError("start states must be (B, n) and start inputs (B,)")
    w = _checked_readout(w_out, reservoir.n)
    w_state, w_input = w[:-1], w[-1]
    W = _recurrence_operator(reservoir)
    ys = np.full((len(X), horizon), np.inf)
    alive = np.ones(len(X), dtype=bool)
    for h in range(horizon):
        y = np.matmul(w_state, X[:, :, None])[:, 0] + w_input * u
        alive &= np.abs(y) <= DIVERGENCE_LIMIT  # False for nan too
        if not alive.any():
            break
        ys[alive, h] = y[alive]
        u = np.where(alive, y, 0.0)
        X[~alive] = 0.0
        WX = (W @ X.T).T if sp.issparse(W) else np.matmul(W, X[..., None])[..., 0]
        X = np.tanh(WX + u[:, None] * reservoir.w_in + u[:, None] * reservoir.w_ofb)
    return ys


def _one_step_blocks(reservoir: Reservoir, recordings: Sequence[np.ndarray],
                     washout: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Design rows and next-step targets for each recording, in order.

    The reservoir state is re-zeroed for every recording; recordings of
    equal length are driven as one batch.
    """
    series = [_checked_input(s, washout) for s in recordings]
    designs: dict[int, np.ndarray] = {}
    for length in {len(s) for s in series}:
        members = [i for i, s in enumerate(series) if len(s) == length]
        run = run_teacher_forced(reservoir,
                                 np.stack([series[i] for i in members], axis=1))
        designs.update(zip(members, run.design_matrix().swapaxes(0, 1)))
    return [(designs[i][washout:-1], s[washout + 1:])
            for i, s in enumerate(series)]


def train_class_readouts(train_sets: Mapping[int, Sequence[np.ndarray]],
                         reservoir: Reservoir,
                         washout: int = 5) -> dict[int, np.ndarray]:
    """One next-step readout's weights per class, trained on that class's
    recordings."""
    if len(train_sets) < 2:
        raise ParameterError("need at least two classes")
    readouts: dict[int, np.ndarray] = {}
    n_features = reservoir.n + 1
    for label in sorted(train_sets):
        recordings = train_sets[label]
        if len(recordings) == 0:
            raise ParameterError(f"class {label!r} has no training recordings")
        blocks = _one_step_blocks(reservoir, recordings, washout)
        design = np.vstack([b[0] for b in blocks])
        target = np.concatenate([b[1] for b in blocks])
        if design.shape[0] < n_features + 1:
            raise SingularDesignError(
                f"class {label!r} has too few training samples "
                f"({design.shape[0]} rows for {n_features} features)")
        readouts[label] = solve_ridge(design, target, RIDGE)
    return readouts


def score_against_classes(readouts: Mapping[int, np.ndarray],
                          recordings: Sequence[np.ndarray], reservoir: Reservoir,
                          washout: int = 5) -> list[tuple[int, dict[int, float]]]:
    """Classify each recording with pre-trained per-class readouts.

    Returns ``(label, per-class errors)`` for each recording, in order. The
    winner is the class whose readout forecasts the recording with the
    lowest error (normalized by the recording itself); exact ties go to
    the lowest class label.
    """
    readouts = {label: _checked_readout(w, reservoir.n)
                for label, w in readouts.items()}
    labels = sorted(readouts)
    results = []
    for design, target in _one_step_blocks(reservoir, recordings, washout):
        preds = np.empty((len(labels), len(target)))
        for row, label in zip(preds, labels):
            np.matmul(design, readouts[label], out=row)
        scores = dict(zip(labels, nrmse(preds, target, design[:, -1]).tolist()))
        results.append((min(scores, key=scores.__getitem__), scores))
    return results
