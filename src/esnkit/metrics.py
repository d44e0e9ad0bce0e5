"""Reservoir quality metrics.

Conventions used throughout the toolkit: variances are population
variances (divide by T), and the forecasting error is the root mean
squared error normalized by the variance of the input signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    ConstantSeriesError,
    DimensionError,
    DivergenceError,
    DomainError,
    ParameterError,
    SingularDesignError,
)
from .reservoirs import Reservoir, make_rng

__all__ = [
    "RIDGE",
    "MemoryProfile",
    "BinStat",
    "nrmse",
    "memory_capacity",
    "memory_capacity_from_states",
    "mean_squared_correlation",
    "bin_by_lambda",
]

#: The ridge penalty of every protocol readout (forecast, class, memory).
RIDGE = 1e-8

#: Memory-capacity delays solved together; an n=400 reservoir stops after
#: 14-46 delays, so one or two chunks.
_DELAY_CHUNK = 32


def nrmse(predicted, target, normalizer) -> float | np.ndarray:
    """Root mean squared error scaled by the normalizer's variance.

    ``sqrt(sum((target - predicted)**2) / (T * var(normalizer)))`` with the
    population variance, so the score is invariant under a joint rescaling
    of all three series. A prediction pinned at the target's mean scores
    exactly 1 when the target itself normalizes. A ``(K, T)`` stack of
    predictions of the one target gives the ``(K,)`` array of their
    scores, each bitwise equal to its own 1-D call's float.
    """
    p = np.asarray(predicted, dtype=float)
    y = np.asarray(target, dtype=float)
    u = np.asarray(normalizer, dtype=float)
    if y.ndim != 1 or p.shape[-1:] != y.shape or p.ndim > 2:
        raise DimensionError("predicted must be one or a stack of series of "
                             "the length of the 1-D target")
    if len(y) < 2 or len(u) < 2:
        raise DimensionError("series must have at least 2 samples")
    if not (np.isfinite(y).all() and np.isfinite(u).all()):
        raise DomainError("series contain non-finite values")
    var_u = float(np.var(u))
    if var_u == 0.0:
        raise ConstantSeriesError("normalizer series has zero variance")
    scores = np.sqrt(np.sum((y - p) ** 2, axis=-1) / (len(y) * var_u))
    return float(scores) if p.ndim == 1 else scores


@dataclass
class MemoryProfile:
    """Per-delay recall coefficients and their sum.

    ``per_delay[k]`` is the squared correlation between the drive delayed by
    ``k+1`` steps and its best linear reconstruction from the state, so each
    entry lies in [0, 1] and the total cannot exceed ``tau_max``.
    """

    per_delay: np.ndarray
    total: float
    tau_max_used: int
    input_kind: str


def _ridge_factor(design: np.ndarray, ridge: float):
    """Cholesky factor of ``design.T @ design + ridge * I``, for
    ``scipy.linalg.cho_solve``.

    Raises ``ParameterError`` for a negative ridge and
    ``SingularDesignError`` when the penalized Gram matrix is not positive
    definite (a rank-deficient design with too small a ridge).
    """
    if ridge < 0:
        raise ParameterError("ridge must be nonnegative")
    gram = design.T @ design
    gram[np.diag_indices_from(gram)] += ridge
    try:
        return scipy.linalg.cho_factor(gram, check_finite=False)
    except np.linalg.LinAlgError as err:
        if ridge == 0:
            advice = "supply a nonzero ridge"
        else:
            advice = (f"ridge {ridge:g} is too small for a largest Gram "
                      f"diagonal entry of {gram.diagonal().max():.3g}; use a "
                      "larger ridge or rescale the features")
        raise SingularDesignError(
            f"design matrix is rank deficient; {advice}") from err


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays are the same memory read the same way."""
    return a.__array_interface__ == b.__array_interface__


def memory_capacity_from_states(states: np.ndarray, drive: np.ndarray,
                                tau_max: int, start: int | None = None,
                                ridge: float = RIDGE,
                                input_kind: str = "unknown") -> MemoryProfile:
    """Delay-recall capacity computed from an already recorded trajectory.

    For each delay, a readout is fit on the first half of the usable window
    and the squared correlation between prediction and delayed drive is
    evaluated on the held-out second half. Evaluation stops early once 5
    consecutive delays fall below 1e-3. The readouts share one Cholesky
    factor and are solved ``_DELAY_CHUNK`` delays at a time, as one
    multi-right-hand-side solve, so an early stop wastes at most one chunk.
    When ``states`` is an ``EsnRun``'s states and ``drive`` the last column
    of its design, the fits read that design and copy nothing.
    """
    X = np.asarray(states, dtype=float)
    u = np.asarray(drive, dtype=float)
    T, n = X.shape
    if u.shape != (T,):
        raise DimensionError("drive length must match the state matrix")
    if tau_max < 1:
        raise ParameterError("tau_max must be >= 1")
    if start is None:
        start = tau_max
    if start < tau_max:
        raise ParameterError("start must be >= tau_max so every delay is defined")
    rows = np.arange(start, T)
    if len(rows) < 2 * (n + 3):
        raise ParameterError(
            "too few usable samples; reduce tau_max or lengthen the drive")
    split = len(rows) // 2
    tr, te = rows[:split], rows[split:]
    design = X.base
    if not (isinstance(design, np.ndarray) and design.shape == (T, n + 1)
            and _same_view(design[:, :-1], X)
            and _same_view(design[:, -1], u)):
        design = np.column_stack([X, u])
    design_tr, design_te = design[start:start + split], design[start + split:]
    factor = _ridge_factor(design_tr, ridge)

    coeffs = []
    below = 0
    for lo in range(1, tau_max + 1, _DELAY_CHUNK):
        taus = np.arange(lo, min(lo + _DELAY_CHUNK, tau_max + 1))
        weights = scipy.linalg.cho_solve(factor,
                                         design_tr.T @ u[tr[:, None] - taus],
                                         check_finite=False)
        for pred, target_te in zip((design_te @ weights).T,
                                   u[te[:, None] - taus].T):
            ps, ts = pred.std(), target_te.std()
            if ps == 0.0 or ts == 0.0:
                m_tau = 0.0
            else:
                r = float(np.corrcoef(pred, target_te)[0, 1])
                m_tau = r * r
            coeffs.append(m_tau)
            below = below + 1 if m_tau < 1e-3 else 0
            if below >= 5:
                break
        if below >= 5:
            break
    per_delay = np.asarray(coeffs)
    return MemoryProfile(per_delay=per_delay, total=float(per_delay.sum()),
                         tau_max_used=len(per_delay), input_kind=input_kind)


def memory_capacity(reservoir: Reservoir, T: int = 4000,
                    tau_max: int | None = None, seed: int = 0,
                    input_kind: str = "uniform") -> MemoryProfile:
    """Drive the reservoir with i.i.d. noise and measure delay recall.

    ``input_kind`` selects the drive distribution: ``"gaussian"`` for
    standard normal or ``"uniform"`` for uniform on [-1, 1] (the default,
    matching the ensemble studies). ``tau_max`` defaults to twice the
    reservoir size. The first ``max(100, tau_max)`` steps are not scored,
    and each readout is fitted with ridge ``RIDGE``.
    """
    from .esn import run_teacher_forced  # local import; esn depends on metrics

    if input_kind not in ("gaussian", "uniform"):
        raise ParameterError(f"unknown input_kind {input_kind!r}")
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if tau_max is None:
        tau_max = 2 * reservoir.n
    rng = make_rng(seed)
    drive = (rng.standard_normal(T) if input_kind == "gaussian"
             else rng.uniform(-1.0, 1.0, T))
    run = run_teacher_forced(reservoir, drive)
    if not np.isfinite(run.states).all():
        raise DivergenceError("reservoir states diverged under the noise drive")
    return memory_capacity_from_states(run.states, run.design[:, -1],
                                       tau_max, start=max(100, tau_max),
                                       input_kind=input_kind)


def mean_squared_correlation(states: np.ndarray) -> float:
    """Average squared Pearson correlation over unordered neuron pairs.

    The denominator is ``N * (N - 1) / 2``, i.e. every pair counts once.
    Raises ``ConstantSeriesError`` naming the first constant neuron, since
    its correlations are undefined.
    """
    X = np.asarray(states, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DimensionError("states must be a T x N matrix with N >= 2")
    variances = X.var(axis=0)
    dead = np.flatnonzero(variances == 0.0)
    if len(dead):
        raise ConstantSeriesError(
            f"neuron {int(dead[0])} has constant state; correlation undefined")
    n = X.shape[1]
    P = np.corrcoef(X, rowvar=False)
    return (float(np.sum(P * P)) - n) / (n * (n - 1))


@dataclass
class BinStat:
    """Equal-count bin summary: medians plus the y interquartile range."""

    x_median: float
    y_median: float
    y_lower: float
    y_upper: float
    count: int


def bin_by_lambda(points: Sequence[tuple[float, float]],
                  n_bins: int = 10) -> list[BinStat]:
    """Group (x, y) points into equal-count bins ordered by x.

    Used to summarize performance against the mean eigenvalue modulus:
    returns per-bin medians and the 25/75 percentiles of y.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError("points must be a sequence of (x, y) pairs")
    if len(pts) < n_bins:
        raise ParameterError("fewer points than bins")
    order = np.argsort(pts[:, 0], kind="stable")
    chunks = np.array_split(pts[order], n_bins)
    out = []
    for chunk in chunks:
        out.append(BinStat(
            x_median=float(np.median(chunk[:, 0])),
            y_median=float(np.median(chunk[:, 1])),
            y_lower=float(np.percentile(chunk[:, 1], 25)),
            y_upper=float(np.percentile(chunk[:, 1], 75)),
            count=len(chunk),
        ))
    return out
