"""Signal-processing primitives: periodograms, smoothing, resampling.

Frequency convention: unit sampling step, frequencies in cycles/step on
[0, 0.5]. Periodograms are one-sided and Parseval-normalized, so the
bin-width-weighted power sums to the signal's population variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantSeriesError,
    DimensionError,
    DivergenceError,
    DomainError,
    ParameterError,
)
from .esn import run_teacher_forced
from .reservoirs import Reservoir, make_rng

__all__ = [
    "PsdProfile",
    "periodogram",
    "reservoir_response",
    "gaussian_smooth",
    "normalize_series",
    "resample_to_length",
]


#: The shortest series a periodogram or a reservoir response is taken of.
_MIN_SAMPLES = 8

#: The steps of a white-noise drive discarded before its response is taken.
_RESPONSE_WASHOUT = 100


@dataclass
class PsdProfile:
    """One-sided averaged power spectral density on a 0..0.5 grid."""

    freqs: np.ndarray
    power: np.ndarray
    n_averages: int = 1


def _onesided_weights(T: int) -> np.ndarray:
    """Doubling weights for interior bins (DC and Nyquist count once)."""
    k = T // 2 + 1
    w = np.full(k, 2.0)
    w[0] = 1.0
    if T % 2 == 0:
        w[-1] = 1.0
    return w


def _psd_matrix(x: np.ndarray) -> np.ndarray:
    """Columnwise Parseval-normalized periodogram of mean-removed series."""
    T = x.shape[0]
    spec = np.fft.rfft(x - x.mean(axis=0), axis=0)
    power = (spec.real ** 2 + spec.imag ** 2) / T
    return power * _onesided_weights(T)[(...,) + (None,) * (x.ndim - 1)]


def periodogram(x) -> PsdProfile:
    """Magnitude-squared DFT of a mean-removed series, one-sided.

    The bin-width-weighted sum of the returned power equals the series'
    population variance (bin width is ``1/T``).
    """
    series = np.asarray(x, dtype=float)
    if series.ndim != 1:
        raise DimensionError("expected a one-dimensional series")
    if len(series) < _MIN_SAMPLES:
        raise ParameterError(f"series too short for a periodogram "
                             f"(need >= {_MIN_SAMPLES})")
    if not np.isfinite(series).all():
        raise DomainError("series contains non-finite values")
    T = len(series)
    return PsdProfile(freqs=np.fft.rfftfreq(T),
                      power=_psd_matrix(series[:, None])[:, 0],
                      n_averages=1)


def reservoir_response(reservoir: Reservoir, n_trials: int = 10,
                       T: int = 1024, seed: int = 0,
                       match: tuple[float, float] = (0.0, 1.0)) -> PsdProfile:
    """Average white-noise frequency response of a reservoir.

    Drives the reservoir with Gaussian noise whose mean and variance match
    ``match``, discards the first ``_RESPONSE_WASHOUT`` steps, and averages
    the periodograms of every neuron over ``n_trials`` independent drives.
    Output feedback is not engaged (there is no readout).
    """
    if n_trials < 1 or T < _MIN_SAMPLES:
        raise ParameterError(f"n_trials must be >= 1 and T >= {_MIN_SAMPLES}, "
                             f"got {n_trials} and {T}")
    mean, variance = match
    if variance <= 0:
        raise ParameterError("matched variance must be positive")
    std = float(np.sqrt(variance))
    steps = _RESPONSE_WASHOUT + T
    drive = np.stack([mean + std * make_rng(seed, t).standard_normal(steps)
                      for t in range(n_trials)], axis=1)
    states = run_teacher_forced(reservoir, drive).states[_RESPONSE_WASHOUT:]
    if not np.isfinite(states).all():
        raise DivergenceError("reservoir response diverged")
    # Trial by trial: one transform of the whole batch would hold every
    # trial's spectrum at once.
    total = sum(_psd_matrix(states[:, trial]).mean(axis=1)
                for trial in range(n_trials))
    return PsdProfile(freqs=np.fft.rfftfreq(T), power=total / n_trials,
                      n_averages=n_trials * reservoir.n)


def gaussian_smooth(x, window_len: int = 3, sigma: float = 1.0) -> np.ndarray:
    """Convolve with a normalized sampled Gaussian, reflective boundary."""
    if window_len < 1 or window_len % 2 == 0:
        raise ParameterError("window_len must be odd")
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    series = np.asarray(x, dtype=float)
    if series.ndim != 1 or len(series) < 2:
        raise DimensionError("expected a 1-D series with at least 2 samples")
    half = window_len // 2
    taps = np.exp(-0.5 * (np.arange(-half, half + 1) / sigma) ** 2)
    taps /= taps.sum()
    padded = np.pad(series, half, mode="reflect")
    return np.convolve(padded, taps, mode="valid")


def normalize_series(x) -> np.ndarray:
    """Shift and scale to exact zero mean and unit population variance; a
    ``(K, T)`` stack row by row, each row bitwise as its own 1-D call.

    A row whose squared deviations overflow (a spread beyond about 1e154)
    is normalized after dividing it by its largest magnitude, when that
    magnitude times T is finite, so the row's sum cannot overflow. A zero
    spread is a ``ConstantSeriesError`` and a non-finite one (non-finite
    values, or magnitudes within a factor T of the largest double) a
    ``DomainError``; neither warns."""
    series = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        std = series.std(axis=-1, keepdims=True)
        if not np.isfinite(std).all():
            peak = np.abs(series).max(axis=-1, keepdims=True, initial=0.0)
            wide = ~np.isfinite(std) & np.isfinite(peak * series.shape[-1])
            series = np.where(wide, series / peak, series)
            std = series.std(axis=-1, keepdims=True)
    if (std == 0.0).any():
        raise ConstantSeriesError("cannot normalize a constant series")
    if not np.isfinite(std).all():
        raise DomainError("cannot normalize a series whose spread is not "
                          "finite")
    return (series - series.mean(axis=-1, keepdims=True)) / std


def resample_to_length(x, length: int = 40) -> np.ndarray:
    """Linear interpolation onto ``length`` points spanning the series."""
    series = np.asarray(x, dtype=float)
    if len(series) < 2:
        raise ParameterError("need at least 2 samples to resample")
    if length < 2:
        raise ParameterError("target length must be >= 2")
    grid = np.linspace(0.0, len(series) - 1.0, length)
    return np.interp(grid, np.arange(len(series)), series)
