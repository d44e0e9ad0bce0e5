"""Benchmark data: chaotic series generation, dataset ingestion, and the
preprocessing pipelines that turn them into ready-to-run task bundles.

Real datasets (Santa Fe laser, spoken-digit cepstra) are user-supplied
files; seeded synthetic stand-ins keep every pipeline testable offline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, IngestionError, ParameterError
from .reservoirs import _call_with_config, make_rng, SeedLike
from .signals import gaussian_smooth, normalize_series, resample_to_length

__all__ = [
    "EsnDefaults",
    "TaskBundle",
    "gen_mackey_glass",
    "mackey_glass_bundle",
    "load_laser",
    "gen_sine_mixture",
    "sine_mixture_bundle",
    "load_arabic_digits",
    "gen_synthetic_classification",
]

#: Canonical laser record length and its washout/train/test split.
LASER_POINTS = 10093
LASER_SPLIT = (1000, 4547, 4546)


@dataclass(frozen=True)
class EsnDefaults:
    """Reservoir settings a task is benchmarked with by default."""

    n: int
    avg_degree: float
    alpha: float
    feedback: bool
    horizon: int


@dataclass
class TaskBundle:
    """Train/test data plus the protocol parameters of one benchmark task.

    For forecasting tasks ``train``/``test`` are 1-D arrays; for
    classification they map class labels to lists of recordings.
    ``continuous`` marks tasks whose train and test segments are adjacent
    slices of one recording, so reservoir state carries across the split.
    """

    name: str
    train: np.ndarray | dict[int, list[np.ndarray]]
    test: np.ndarray | dict[int, list[np.ndarray]]
    washout: int
    esn_defaults: EsnDefaults
    continuous: bool = False
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Mackey-Glass
# ---------------------------------------------------------------------------

def _mg_rhs(s, s_delayed, beta, gamma, exponent):
    return beta * s_delayed / (1.0 + s_delayed ** exponent) - gamma * s


def gen_mackey_glass(length: int = 10000, *, beta: float = 0.2,
                     gamma: float = 0.1, tau: float = 17.0, exponent: int = 10,
                     step: float = 0.1, seed: SeedLike = 0,
                     noise_sigma: float = 0.05, discard: int = 1000,
                     history: float | None = None,
                     history_range: tuple[float, float] = (1.1, 1.3),
                     normalize: bool = True) -> np.ndarray:
    """Integrate the delayed feedback oscillator and return a sampled series.

    ``ds/dt = beta * s(t - tau) / (1 + s(t - tau)**exponent) - gamma * s(t)``

    Integration is fourth-order Runge-Kutta with step ``step``; the delayed
    term at half-steps is interpolated by cubic Hermite, which preserves the
    integrator's order (linearly over the first delay, where the history
    has no derivatives). The delay buffer is seeded with uniform
    random values on ``history_range`` (or a constant, for convergence
    studies), the first ``discard`` points are dropped, and the remainder is
    normalized to zero mean / unit variance before Gaussian observation
    noise of scale ``noise_sigma`` is added.
    """
    if length < 1 or discard < 0:
        raise ParameterError("length must be >= 1 and discard >= 0")
    d_float = tau / step
    d = int(round(d_float))
    if abs(d_float - d) > 1e-9 or d < 1:
        raise ParameterError("tau must be a positive integer multiple of step")

    rng = make_rng(seed)
    total = discard + length
    buf = np.empty(d + 1 + total)
    if history is None:
        buf[:d + 1] = rng.uniform(history_range[0], history_range[1], d + 1)
    else:
        buf[:d + 1] = float(history)

    # Derivatives on the grid, for Hermite interpolation of the delayed term.
    # Only defined once the delayed argument is itself on the buffer.
    derivs = np.full(d + 1 + total, np.nan)
    h = step
    for k in range(d, d + total):
        s = buf[k]
        sd0 = buf[k - d]
        sd1 = buf[k - d + 1]
        if k - d >= d:
            f0, f1 = derivs[k - d], derivs[k - d + 1]
            sd_half = 0.5 * (sd0 + sd1) + 0.125 * h * (f0 - f1)
        else:
            sd_half = 0.5 * (sd0 + sd1)
        k1 = _mg_rhs(s, sd0, beta, gamma, exponent)
        derivs[k] = k1
        k2 = _mg_rhs(s + 0.5 * h * k1, sd_half, beta, gamma, exponent)
        k3 = _mg_rhs(s + 0.5 * h * k2, sd_half, beta, gamma, exponent)
        k4 = _mg_rhs(s + h * k3, sd1, beta, gamma, exponent)
        buf[k + 1] = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    series = buf[d + 1 + discard:]
    if normalize:
        series = normalize_series(series)
    else:
        series = series.copy()
    if noise_sigma > 0:
        series = series + rng.normal(0.0, noise_sigma, len(series))
    return series


def mackey_glass_bundle(seed: SeedLike = 0, length: int = 10000,
                        noise_sigma: float = 0.05, *,
                        n_neurons: int = 100, avg_degree: float = 10.0,
                        alpha: float = 0.85, horizon: int = 84,
                        washout: int = 1000) -> TaskBundle:
    """Noisy chaotic-forecasting task: independent train and test series,
    one-step training with output feedback, 84-step closed-loop evaluation."""
    if horizon >= length - washout:
        raise ParameterError(f"horizon ({horizon}) must be below length "
                             f"({length}) minus washout ({washout})")
    base = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    train = gen_mackey_glass(length, seed=base + [0], noise_sigma=noise_sigma)
    test = gen_mackey_glass(length, seed=base + [1], noise_sigma=noise_sigma)
    return TaskBundle(
        name="mackey-glass",
        train=train,
        test=test,
        washout=washout,
        esn_defaults=EsnDefaults(n=n_neurons, avg_degree=avg_degree,
                                 alpha=alpha, feedback=True, horizon=horizon),
        continuous=False,
        meta={"seed": seed, "length": length, "noise_sigma": noise_sigma,
              "preprocessing": ["integrate", "discard-1000", "normalize",
                                f"noise-{noise_sigma}"]},
    )


# ---------------------------------------------------------------------------
# laser intensity (and its synthetic stand-in)
# ---------------------------------------------------------------------------

def _laser_split(n_points: int) -> tuple[int, int, int]:
    if n_points == LASER_POINTS:
        return LASER_SPLIT
    warnings.warn(
        f"expected {LASER_POINTS} samples, found {n_points}; "
        "splitting proportionally", stacklevel=3)
    w = int(round(n_points * LASER_SPLIT[0] / LASER_POINTS))
    tr = int(round(n_points * LASER_SPLIT[1] / LASER_POINTS))
    return w, tr, n_points - w - tr


def _laser_bundle_from_series(series: np.ndarray, name: str,
                              meta: dict) -> TaskBundle:
    series = normalize_series(series)
    series = gaussian_smooth(series, window_len=3, sigma=1.0)
    washout, n_train, n_test = _laser_split(len(series))
    if n_test < 2 or n_train < 2:
        raise IngestionError(f"series too short to split: {len(series)} samples")
    return TaskBundle(
        name=name,
        train=series[:washout + n_train],
        test=series[washout + n_train:],
        washout=washout,
        esn_defaults=EsnDefaults(n=100, avg_degree=10.0, alpha=0.9,
                                 feedback=False, horizon=1),
        continuous=True,
        meta=dict(meta, split=(washout, n_train, n_test),
                  preprocessing=["normalize", "gaussian-smooth(3,1)"]),
    )


def load_laser(path) -> TaskBundle:
    """Load a one-integer-per-line intensity record and build the
    one-step forecasting task (normalize, 3-tap Gaussian smoothing,
    1000/4547/4546 washout/train/test split)."""
    path = Path(path)
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise IngestionError(
                    f"{path.name}:{lineno}: cannot parse {text!r}",
                    line=lineno) from None
            if not np.isfinite(values[-1]):
                raise IngestionError(f"{path.name}:{lineno}: non-finite "
                                     f"sample {text!r}", line=lineno)
    if not values:
        raise IngestionError(f"{path.name}: file contains no samples")
    return _laser_bundle_from_series(np.asarray(values), "laser",
                                     {"path": str(path)})


def gen_sine_mixture(length: int = 10093, seed: SeedLike = 0,
                     freqs: Sequence[float] = (0.13, 0.27, 0.38),
                     noise_sigma: float = 0.2) -> np.ndarray:
    """Sum of unit-amplitude sinusoids with random phases plus white noise,
    normalized. Default peaks sit mid-band like the laser record's."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    rng = make_rng(seed)
    t = np.arange(length)
    series = np.zeros(length)
    for f in freqs:
        series += np.cos(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
    series += rng.normal(0.0, noise_sigma, length)
    return normalize_series(series)


def sine_mixture_bundle(seed: SeedLike = 0, length: int = 10093,
                        freqs: Sequence[float] = (0.13, 0.27, 0.38),
                        noise_sigma: float = 0.2) -> TaskBundle:
    """Synthetic mid-band one-step forecasting task with the laser protocol."""
    series = gen_sine_mixture(length, seed, freqs, noise_sigma)
    return _laser_bundle_from_series(
        series, "sine-mixture",
        {"seed": seed, "freqs": tuple(freqs), "noise_sigma": noise_sigma})


# ---------------------------------------------------------------------------
# spoken-digit cepstra (and a synthetic classification stand-in)
# ---------------------------------------------------------------------------

def _parse_mfcc_blocks(path) -> list[np.ndarray]:
    """Recordings are blocks of frame lines of 13 cepstral channels,
    separated by blank lines; only the first channel is kept."""
    path = Path(path)
    recordings: list[np.ndarray] = []
    current: list[float] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                if current:
                    recordings.append(np.asarray(current))
                    current = []
                continue
            fields = text.split()
            if len(fields) != 13:
                raise IngestionError(
                    f"{path.name}:{lineno}: expected 13 values, "
                    f"got {len(fields)} (recording {len(recordings)}, "
                    f"frame {len(current)})", line=lineno)
            try:
                current.append(float(fields[0]))
            except ValueError:
                raise IngestionError(
                    f"{path.name}:{lineno}: cannot parse frame",
                    line=lineno) from None
    if current:
        recordings.append(np.asarray(current))
    if not recordings:
        raise IngestionError(f"{path.name}: no recordings found")
    return recordings


def _group_by_class(recordings: list[np.ndarray], n_classes: int,
                    target_length: int) -> dict[int, list[np.ndarray]]:
    if len(recordings) % n_classes != 0:
        warnings.warn(
            f"{len(recordings)} recordings do not divide evenly into "
            f"{n_classes} classes", stacklevel=3)
    per_class = max(1, len(recordings) // n_classes)
    grouped: dict[int, list[np.ndarray]] = {c: [] for c in range(n_classes)}
    for idx, rec in enumerate(recordings):
        label = min(idx // per_class, n_classes - 1)
        if len(rec) < 2:
            raise IngestionError(f"recording {idx} has fewer than 2 frames")
        processed = resample_to_length(normalize_series(rec), target_length)
        grouped[label].append(processed)
    return grouped


def load_arabic_digits(path_train, path_test, *, n_classes: int = 10,
                       target_length: int = 40) -> TaskBundle:
    """Load cepstral recordings (13 space-separated values per frame,
    blank-line-separated recordings, file ordered by digit), keep channel 1,
    normalize each recording, and resample it to a common length."""
    train = _group_by_class(_parse_mfcc_blocks(path_train), n_classes,
                            target_length)
    test = _group_by_class(_parse_mfcc_blocks(path_test), n_classes,
                           target_length)
    return TaskBundle(
        name="arabic-digits",
        train=train,
        test=test,
        washout=5,
        esn_defaults=EsnDefaults(n=100, avg_degree=10.0, alpha=1.0,
                                 feedback=False, horizon=1),
        continuous=False,
        meta={"paths": (str(path_train), str(path_test)),
              "preprocessing": ["channel-1", "normalize",
                                f"resample-{target_length}"]},
    )


def gen_synthetic_classification(n_classes: int = 10, per_class: int = 50,
                                 length: int = 40, seed: SeedLike = 0, *,
                                 test_per_class: int | None = None,
                                 bandwidth: float = 0.01,
                                 noise_sigma: float = 0.1) -> TaskBundle:
    """Dataset-free classification task: class ``c`` is a narrow-band
    process centered at evenly spaced frequencies in (0, 0.5)."""
    if n_classes < 2:
        raise ParameterError("need at least 2 classes")
    if per_class < 1 or length < 8:
        raise ParameterError("per_class must be >= 1 and length >= 8")
    if test_per_class is None:
        test_per_class = max(2, per_class // 5)
    centers = [0.5 * (c + 1) / (n_classes + 1) for c in range(n_classes)]

    def recording(label: int, index: int) -> np.ndarray:
        rng = make_rng(seed, label, index)
        t = np.arange(length)
        series = np.zeros(length)
        for _ in range(3):
            f = centers[label] + rng.uniform(-bandwidth, bandwidth)
            amp = rng.uniform(0.5, 1.0)
            series += amp * np.cos(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        series += rng.normal(0.0, noise_sigma, length)
        return normalize_series(series)

    train = {c: [recording(c, i) for i in range(per_class)]
             for c in range(n_classes)}
    test = {c: [recording(c, per_class + i) for i in range(test_per_class)]
            for c in range(n_classes)}
    return TaskBundle(
        name="synthetic-classification",
        train=train,
        test=test,
        washout=5,
        esn_defaults=EsnDefaults(n=100, avg_degree=10.0, alpha=1.0,
                                 feedback=False, horizon=1),
        continuous=False,
        meta={"seed": seed, "centers": centers, "bandwidth": bandwidth,
              "noise_sigma": noise_sigma},
    )


def _make_task(name, cfg: dict) -> TaskBundle:
    """The bundle of the task a config section names, with the section's
    other keys checked against its builder's signature."""
    # Built per call from the module's current names, so that a wrapper
    # bound to a builder's name (a tracer's, say) sees the call.
    builders = {
        "mackey-glass": mackey_glass_bundle,
        "laser": load_laser,
        "sine-mixture": sine_mixture_bundle,
        "synthetic-classification": gen_synthetic_classification,
        # The file tasks take exactly their paths.
        "arabic-digits": lambda train_path, test_path: load_arabic_digits(
            train_path, test_path),
    }
    if not isinstance(name, str) or name not in builders:
        raise ConfigError(f"unknown task {name!r}")
    return _call_with_config(builders[name], f"{name} task", cfg)
