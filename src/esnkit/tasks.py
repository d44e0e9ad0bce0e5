"""Benchmark data: chaotic series generation, dataset ingestion, and the
preprocessing pipelines that turn them into ready-to-run task bundles.

Real datasets (Santa Fe laser, spoken-digit cepstra) are user-supplied
files; seeded synthetic stand-ins keep every pipeline testable offline.
"""

from __future__ import annotations

import io
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
    "read_series",
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
    """The washout/train/test split; a short series raises before it warns."""
    if n_points == LASER_POINTS:
        return LASER_SPLIT
    w = int(round(n_points * LASER_SPLIT[0] / LASER_POINTS))
    tr = int(round(n_points * LASER_SPLIT[1] / LASER_POINTS))
    if tr < 2 or n_points - w - tr < 2:
        raise IngestionError(f"series too short to split: {n_points} samples")
    warnings.warn(
        f"expected {LASER_POINTS} samples, found {n_points}; "
        "splitting proportionally", stacklevel=3)
    return w, tr, n_points - w - tr


def _laser_bundle_from_series(series: np.ndarray, name: str,
                              meta: dict) -> TaskBundle:
    washout, n_train, n_test = _laser_split(len(series))
    series = normalize_series(series)
    series = gaussian_smooth(series, window_len=3, sigma=1.0)
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


def _text_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 text file, newlines read as ``open`` reads
    them; a byte that is not UTF-8 is an ``IngestionError``."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path.name}: byte {exc.start} is not UTF-8 "
                             f"text ({exc.reason})") from None
    return io.StringIO(text, newline=None).readlines()


def _number(token: str, path: Path, lineno: int) -> float:
    """``token`` read by the one number rule of esnkit's text files: ``float``
    reads it, it is ASCII, holds no ``_`` and is finite; anything else is an
    ``IngestionError`` that names ``path:lineno``."""
    try:
        value = float(token) if token.isascii() and "_" not in token else None
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        problem = "cannot parse" if value is None else "non-finite value"
        raise IngestionError(f"{path.name}:{lineno}: {problem} {token!r}",
                             line=lineno)
    return value


def read_series(path) -> np.ndarray:
    """The values of a text file with one number on each non-blank line,
    each read by ``_number``'s rule."""
    path = Path(path)
    values = []
    for lineno, raw in enumerate(_text_lines(path), start=1):
        tokens = raw.split()
        if len(tokens) > 1:
            raise IngestionError(f"{path.name}:{lineno}: a series file holds "
                                 f"one finite value per line", line=lineno)
        values += [_number(token, path, lineno) for token in tokens]
    return np.asarray(values, dtype=float)


def load_laser(path) -> TaskBundle:
    """Load a one-number-per-line intensity record (``read_series``) and
    build the one-step forecasting task (normalize, 3-tap Gaussian
    smoothing, 1000/4547/4546 washout/train/test split)."""
    series = read_series(path)
    if not series.size:
        raise IngestionError(f"{Path(path).name}: file contains no samples")
    return _laser_bundle_from_series(series, "laser", {"path": str(path)})


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
    separated by blank lines; only the first channel is kept, read by
    ``_number``'s rule, and each recording holds at least 2 frames."""
    path = Path(path)
    recordings: list[np.ndarray] = []
    current: list[float] = []
    # A blank line, and the end of the file, closes a recording.
    for lineno, raw in enumerate(_text_lines(path) + [""], start=1):
        fields = raw.split()
        if fields:
            if len(fields) != 13:
                raise IngestionError(
                    f"{path.name}:{lineno}: expected 13 values, "
                    f"got {len(fields)} (recording {len(recordings)}, "
                    f"frame {len(current)})", line=lineno)
            current.append(_number(fields[0], path, lineno))
        elif len(current) == 1:
            raise IngestionError(
                f"{path.name}:{lineno - 1}: recording {len(recordings)} "
                f"has fewer than 2 frames", line=lineno - 1)
        elif current:
            recordings.append(np.asarray(current))
            current = []
    if not recordings:
        raise IngestionError(f"{path.name}: no recordings found")
    return recordings


def _group_by_class(recordings: list[np.ndarray],
                    n_classes: int) -> dict[int, list[np.ndarray]]:
    if len(recordings) % n_classes != 0:
        warnings.warn(
            f"{len(recordings)} recordings do not divide evenly into "
            f"{n_classes} classes", stacklevel=3)
    per_class = max(1, len(recordings) // n_classes)
    grouped: dict[int, list[np.ndarray]] = {c: [] for c in range(n_classes)}
    for idx, rec in enumerate(recordings):
        grouped[min(idx // per_class, n_classes - 1)].append(rec)
    return grouped


def load_arabic_digits(path_train, path_test, *, n_classes: int = 10,
                       target_length: int = 40) -> TaskBundle:
    """Load cepstral recordings (13 space-separated values per frame,
    blank-line-separated recordings, file ordered by digit), keep channel 1,
    normalize each recording, and resample it to a common length. Both
    files are read and every recording prepared before any warning."""
    train, test = ([resample_to_length(normalize_series(rec), target_length)
                    for rec in _parse_mfcc_blocks(path)]
                   for path in (path_train, path_test))
    return TaskBundle(
        name="arabic-digits",
        train=_group_by_class(train, n_classes),
        test=_group_by_class(test, n_classes),
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
    if not 0 <= bandwidth < np.inf:
        raise ParameterError(f"bandwidth must be finite and >= 0, got {bandwidth}")
    if test_per_class is None:
        test_per_class = max(2, per_class // 5)
    if test_per_class < 0:
        raise ParameterError(f"test_per_class must be >= 0, got {test_per_class}")
    centers = [0.5 * (c + 1) / (n_classes + 1) for c in range(n_classes)]
    t = np.arange(length)
    count = per_class + test_per_class
    # Each recording draws from its own generator, in the order of three
    # uniform (frequency, amplitude, phase) triples and then its noise; the
    # uniforms are mapped as ``rng.uniform`` maps them, ``low + (high -
    # low) * U``. A class's recordings are then summed as one array; all
    # classes at once would raise the peak memory of a benchmark member.
    low = np.array([-bandwidth, 0.5, 0.0])
    span = np.array([bandwidth - -bandwidth, 1.0 - 0.5, 2 * np.pi - 0.0])
    train, test = {}, {}
    for label in range(n_classes):
        draws = np.empty((count, 3, 3))
        noise = np.empty((count, length))
        for index in range(count):
            rng = make_rng(seed, label, index)
            rng.random(out=draws[index])
            noise[index] = rng.normal(0.0, noise_sigma, length)
        f, amp, phase = (low + span * draws).transpose(2, 0, 1)
        f = centers[label] + f
        series = np.zeros((count, length))
        for k in range(3):
            series += amp[:, k, None] * np.cos(
                2.0 * np.pi * f[:, k, None] * t + phase[:, k, None])
        series += noise
        recordings = list(normalize_series(series))
        train[label], test[label] = recordings[:per_class], recordings[per_class:]
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
