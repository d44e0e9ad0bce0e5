"""Frequency-matching heuristic for picking cycle densities.

Pipeline: measure the average white-noise frequency response of
cycle-enhanced reservoirs over a (length, density) grid; score each grid
point by the inner product of its amplitude response with the target
signal's amplitude spectrum; validate the per-length winners against the
zero-cycle baseline on the actual task; and finally search density
combinations (L1-budgeted to 1) that maximize the summed score.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import tempfile
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import GenerationError, NumericError, ParameterError
from .reservoirs import Normalization, gen_combined
from .signals import (_MIN_SAMPLES, _RESPONSE_WASHOUT, periodogram,
                      reservoir_response)
from .tasks import TaskBundle
# Last: imported first, it loads scipy.linalg, and so starts OpenBLAS's
# threads, before scipy.sparse, which made ``import esnkit`` about 10%
# slower on 2 vCPUs.
from .benchmarks import cycle_reservoir_for, protocol_fields

__all__ = [
    "ResponseTable",
    "AdaptationResult",
    "DEFAULT_DENSITY_GRID",
    "build_response_table",
    "match_signal",
    "validate_and_combine",
]

DEFAULT_DENSITY_GRID = (-0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8)

#: Version of the response-table values. It is part of the cache key: bump it
#: whenever a change would alter the values of a cached table.
_TABLE_FORMAT = 1

#: White-noise drives per reservoir instance.
_TRIALS = 1


@dataclass
class ResponseTable:
    """Averaged reservoir frequency responses on a (length, density) grid:
    ``power[i, j]`` is the averaged power spectrum on ``freqs`` of cycle
    length ``lengths[i]`` at density ``density_grid[j]``."""

    freqs: np.ndarray
    power: np.ndarray
    lengths: tuple[int, ...]
    density_grid: tuple[float, ...]

    @property
    def profiles(self) -> dict[tuple[int, float], np.ndarray]:
        """``(length, density)`` -> its ``power`` row; read by perfbench."""
        return dict(zip(itertools.product(self.lengths, self.density_grid),
                        self.power.reshape(-1, len(self.freqs))))

    def save(self, directory) -> None:
        """Write ``table.npz`` in a temporary sibling directory, then move
        it into place, so a crash never leaves a partial table."""
        final = Path(directory)
        final.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=final.parent) as tmp:
            directory = Path(tmp) / final.name
            directory.mkdir()
            np.savez(directory / "table.npz", freqs=self.freqs,
                     power=self.power, lengths=self.lengths,
                     density_grid=self.density_grid)
            shutil.rmtree(final, ignore_errors=True)  # a damaged older table
            directory.replace(final)

    @classmethod
    def load(cls, directory) -> "ResponseTable":
        with np.load(Path(directory) / "table.npz") as data:
            table = cls(freqs=data["freqs"], power=data["power"],
                        lengths=tuple(data["lengths"].tolist()),
                        density_grid=tuple(data["density_grid"].tolist()))
        shape = (len(table.lengths), len(table.density_grid), len(table.freqs))
        if table.power.shape != shape:
            raise ValueError(f"power has shape {table.power.shape}, "
                             f"not {shape}")
        return table


@dataclass
class AdaptationResult:
    """Outcome of the adaptation pipeline.

    ``selected`` holds the per-length argmax choices of the matching step;
    ``combined`` the final configuration, whose densities always satisfy
    ``sum(|rho|) <= 1``; ``rejected`` the lengths dropped by the baseline
    comparison; ``fallback`` is set when every length was dropped.
    ``candidate_medians`` records the benchmark median of every evaluated
    configuration, keyed by a canonical string.
    """

    selected: dict[int, float]
    scores: dict[int, dict[float, float]]
    rejected: list[int] = field(default_factory=list)
    single_length_medians: dict[int, float] = field(default_factory=dict)
    baseline_median: float | None = None
    combined: dict[int, float] = field(default_factory=dict)
    combined_score: float = 0.0
    combined_median: float | None = None
    candidate_medians: dict[str, float] = field(default_factory=dict)
    fallback: bool = False


def build_response_table(bundle: TaskBundle, *, mean_modulus: float,
                         lengths: Sequence[int] = (1, 2, 3),
                         density_grid: Sequence[float] = DEFAULT_DENSITY_GRID,
                         n_instances: int = 10, seed: int = 0,
                         T: int = 1024, match: tuple[float, float] = (0.0, 1.0),
                         cache_dir=None) -> ResponseTable:
    """Average white-noise responses of freshly generated reservoirs over a
    (length, density) grid.

    Each instance is built by :func:`cycle_reservoir_for` from the bundle at
    ``mean_modulus``, as the validation's reservoirs are; a nonzero density
    whose cycle count floors to zero is a ``ParameterError``. Tables are
    cached to ``cache_dir`` keyed by a hash of all parameters.
    """
    if n_instances < 1:
        raise ParameterError("n_instances must be >= 1")
    if T < _MIN_SAMPLES:
        raise ParameterError(f"response length T must be >= {_MIN_SAMPLES}, "
                             f"got {T}")
    grid = tuple(float(r) for r in density_grid)
    lengths = tuple(int(length) for length in lengths)
    if not lengths or not grid:
        raise ParameterError("'lengths' and 'density_grid' must not be empty")
    if not all(abs(r) <= 1 for r in grid):
        raise ParameterError("density grid must lie within [-1, 1]")
    normalization = Normalization("avg_modulus", float(mean_modulus))

    cache_key = None
    if cache_dir is not None:
        fields = protocol_fields(bundle, gen_combined)
        payload = json.dumps(
            {"format": _TABLE_FORMAT,
             "gen_params": {k: fields[k] for k in sorted(fields)},
             "normalization": [normalization.mode, normalization.value],
             "lengths": lengths, "grid": grid, "n_instances": n_instances,
             "seed": seed, "n_trials": _TRIALS, "T": T, "match": match,
             "washout": _RESPONSE_WASHOUT},
            sort_keys=True)
        cache_key = hashlib.sha256(payload.encode()).hexdigest()[:16]
        cached = Path(cache_dir) / f"response_table_{cache_key}"
        try:
            return ResponseTable.load(cached)
        except (OSError, ValueError, KeyError, EOFError, NotImplementedError,
                zipfile.BadZipFile):
            pass  # absent or damaged: a cache miss, rebuilt and rewritten below

    rows = []
    for length in lengths:
        for g_idx, density in enumerate(grid):
            total = None
            for inst in range(n_instances):
                try:
                    res = cycle_reservoir_for(
                        bundle, {length: density}, [seed, length, g_idx, inst],
                        mean_modulus=normalization.value)
                    if res.meta.params["cycle_counts"].get(length) == 0:
                        raise ParameterError(
                            f"density {density} places no cycle of length "
                            f"{length} in the task's n={res.n} reservoir")
                    # perfbench counts trials from the n_trials keyword.
                    profile = reservoir_response(res, n_trials=_TRIALS, T=T,
                                                 seed=[seed, length, g_idx, inst],
                                                 match=match)
                except NumericError as exc:
                    raise GenerationError(
                        f"grid point (length={length}, density={density}, "
                        f"instance={inst}): {exc}") from exc
                total = profile.power if total is None else total + profile.power
            rows.append(total / n_instances)

    power = np.array(rows).reshape(len(lengths), len(grid), -1)
    table = ResponseTable(freqs=profile.freqs, power=power, lengths=lengths,
                          density_grid=grid)
    if cache_dir is not None:
        table.save(Path(cache_dir) / f"response_table_{cache_key}")
    return table


def _signal_amplitude_on(table: ResponseTable, signal: np.ndarray) -> np.ndarray:
    """Signal amplitude spectrum on the table's frequency grid.

    Power is averaged into the table's bins so that narrow spectral peaks
    survive the change of resolution; bins the signal cannot populate are
    filled by interpolation (with a warning).
    """
    spectrum = periodogram(signal)
    k = len(table.freqs)
    n_fft = 2 * (k - 1)
    idx = np.clip(np.round(spectrum.freqs * n_fft).astype(int), 0, k - 1)
    counts = np.bincount(idx, minlength=k)
    sums = np.bincount(idx, weights=spectrum.power, minlength=k)
    filled = counts > 0
    binned = np.zeros(k)
    binned[filled] = sums[filled] / counts[filled]
    if not filled.all():
        warnings.warn("signal is shorter than the response grid; "
                      "interpolating missing frequency bins", stacklevel=2)
        binned[~filled] = np.interp(table.freqs[~filled],
                                    table.freqs[filled], binned[filled])
    return np.sqrt(binned)


def match_signal(table: ResponseTable, signal) -> AdaptationResult:
    """Score every grid point against the signal's amplitude spectrum and
    pick the best density per cycle length.

    The score is the inner product of the signal's amplitude spectrum
    (resampled onto the table grid) with the square root of the averaged
    response power. Exact score ties resolve toward density 0, then toward
    the smaller magnitude. Pure functions of (table, signal); rescaling the
    signal cannot change any argmax.
    """
    if not table.power.size:
        raise ParameterError("response table is empty")
    amplitude = _signal_amplitude_on(table, np.asarray(signal, dtype=float))
    scores: dict[int, dict[float, float]] = {}
    selected: dict[int, float] = {}
    for length, rows in zip(table.lengths, table.power):
        per_rho = {density: float(amplitude @ np.sqrt(row))
                   for density, row in zip(table.density_grid, rows)}
        scores[length] = per_rho
        best = max(per_rho.values())
        candidates = [d for d, s in per_rho.items() if s == best]
        selected[length] = min(candidates, key=lambda d: (abs(d), d))
    return AdaptationResult(selected=selected, scores=scores)


def config_key(config: Mapping[int, float]) -> str:
    """Canonical string key for a cycle-density configuration."""
    if not config:
        return "baseline"
    return ",".join(f"{length}:{config[length]:+.4f}"
                    for length in sorted(config))


def _summed_score(scores: Mapping[int, Mapping[float, float]],
                  config: Mapping[int, float]) -> float:
    return float(sum(per.get(config.get(length, 0.0), 0.0)
                     for length, per in scores.items()))


def _candidate_combinations(selected: Mapping[int, float],
                            survivors: Sequence[int]) -> list[dict[int, float]]:
    """Feasible combinations of the validated per-length choices.

    Each surviving length is either included at its matched density or left
    out; combinations whose densities exceed the L1 budget of 1 are dropped.
    """
    candidates = []
    for mask in itertools.product([False, True], repeat=len(survivors)):
        combo = {length: selected[length]
                 for length, keep in zip(survivors, mask) if keep}
        if len(combo) < 2:
            continue
        if sum(abs(r) for r in combo.values()) <= 1.0 + 1e-9:
            candidates.append(combo)
    return candidates


def validate_and_combine(result: AdaptationResult,
                         evaluate: Callable[[dict[int, float], Sequence[int]], Sequence[float]],
                         n_seeds: int = 20, *,
                         seed_base: int = 0) -> AdaptationResult:
    """Benchmark-validate the matched densities, then pick a combination.

    ``evaluate(config, seeds)`` must return per-seed performance scores
    (lower is better) for reservoirs built with the given cycle densities.
    The zero-cycle baseline ``evaluate({}, seeds)`` is scored first, on the
    seeds ``[seed_base, i]`` (``n_seeds >= 1``) that every candidate uses.

    Lengths whose matched density performs worse (median) than the
    baseline are dropped; if none survive, the baseline configuration is
    returned with ``fallback`` set. Multi-length combinations are assembled
    from the surviving validated choices under an L1 budget of 1 and tried
    in decreasing order of their summed spectral-match score; the first
    whose benchmark median is at least as good as the best single-length
    configuration wins. When no combination qualifies, the best
    single-length configuration is returned (it is the degenerate
    combination). Deterministic given (result, evaluate, seeds).
    """
    if n_seeds < 1:
        raise ParameterError(f"n_seeds must be at least 1, got {n_seeds}")
    seeds = [[seed_base, i] for i in range(n_seeds)]
    baseline_median = float(np.median(evaluate({}, seeds)))

    medians: dict[str, float] = {}

    def evaluated(config: dict[int, float]) -> float:
        key = config_key(config)
        if key not in medians:
            medians[key] = float(np.median(evaluate(config, seeds)))
        return medians[key]

    survivors = []
    single_medians: dict[int, float] = {}
    rejected: list[int] = []
    for length in sorted(result.selected):
        density = result.selected[length]
        if density == 0.0:
            rejected.append(length)
            continue
        med = evaluated({length: density})
        single_medians[length] = med
        if med > baseline_median:
            rejected.append(length)
        else:
            survivors.append(length)

    combined: dict[int, float] = {}
    combined_median = baseline_median
    if survivors:
        best_single = min(survivors, key=lambda length: single_medians[length])
        combined = {best_single: result.selected[best_single]}
        combined_median = single_medians[best_single]
        candidates = _candidate_combinations(result.selected, survivors)
        candidates.sort(key=lambda c: -_summed_score(result.scores, c))
        for combo in candidates:
            med = evaluated(combo)
            if med <= combined_median:
                combined = combo
                combined_median = med
                break

    return AdaptationResult(
        selected=result.selected, scores=result.scores, rejected=rejected,
        single_length_medians=single_medians, baseline_median=baseline_median,
        combined=combined, combined_median=combined_median,
        combined_score=(_summed_score(result.scores, combined)
                        if survivors else 0.0),
        candidate_medians=medians, fallback=not survivors)
