"""In-memory spans around calls into esnkit's public functions.

The benchmark installs a `Tracer` around the in-process CLI calls of one
iteration. Every binding of a wrapped function in every loaded ``esnkit``
module is replaced, so calls made between esnkit modules
(``from .spectral import ...``) are recorded too. Nothing in esnkit itself is changed; `Tracer.uninstall`
restores the original bindings.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("reservoirs", "spectral", "esn", "metrics", "signals", "tasks",
          "benchmarks", "adapt", "cli")

GENERATORS = {"make_reservoir", "gen_er", "gen_combined", "gen_cycle_enhanced"}


def _response_table_dirs(cache_dir) -> dict[str, int]:
    """Byte size of every cached response table under ``cache_dir``."""
    if cache_dir is None or not Path(cache_dir).is_dir():
        return {}
    return {d.name: sum(f.stat().st_size for f in d.rglob("*") if f.is_file())
            for d in Path(cache_dir).glob("response_table_*")}


def _table_before(args, kwargs):
    cache_dir = kwargs.get("cache_dir")
    return cache_dir, _response_table_dirs(cache_dir)


def _table_counts(args, kwargs, result, before):
    cache_dir, old = before
    new = _response_table_dirs(cache_dir)
    written = sum(size for name, size in new.items() if name not in old)
    hit = cache_dir is not None and written == 0
    return {"table_points": len(result.profiles), "cache_hits": int(hit),
            "cache_misses": int(not hit), "table_bytes_written": written}


# (module, function, counts(args, kwargs, result, before) -> dict | None,
#  before(args, kwargs) -> state | None). Count functions read results, so
# the wrapped call's own arguments are never re-parsed on the hot path.
SPECS = [
    ("cli", "main", None, None),
    ("tasks", "mackey_glass_bundle", None, None),
    ("tasks", "gen_synthetic_classification", None, None),
    ("reservoirs", "make_reservoir", None, None),
    ("reservoirs", "gen_er", None, None),
    ("reservoirs", "gen_combined", None, None),
    ("reservoirs", "gen_cycle_enhanced", None, None),
    ("spectral", "eigenvalues", None, None),
    ("spectral", "spectral_radius", None, None),
    ("spectral", "avg_modulus", None, None),
    ("spectral", "normalize_spectral_radius", None, None),
    ("spectral", "normalize_avg_modulus", None, None),
    ("esn", "run_teacher_forced",
     lambda a, k, r, b: {"neuron_steps": r.states.size}, None),
    ("esn", "forecast_free_run", None, None),
    ("esn", "solve_ridge", None, None),
    ("esn", "train_readout", None, None),
    ("esn", "train_class_readouts", None, None),
    ("esn", "score_against_classes", None, None),
    ("metrics", "memory_capacity", None, None),
    ("metrics", "memory_capacity_from_states",
     lambda a, k, r, b: {"delays": r.tau_max_used}, None),
    ("metrics", "bin_by_lambda", None, None),
    ("signals", "periodogram", None, None),
    ("signals", "reservoir_response",
     lambda a, k, r, b: {"trials": k.get("n_trials", a[1] if len(a) > 1
                                         else 10)}, None),
    ("benchmarks", "benchmark",
     lambda a, k, r, b: {"nonfinite": int(not math.isfinite(r))}, None),
    ("benchmarks", "forecast_benchmark", None, None),
    ("benchmarks", "classification_benchmark", None, None),
    # Its result, the per-configuration evaluator, is traced in turn.
    ("benchmarks", "cycle_evaluator", None, None),
    ("adapt", "build_response_table", _table_counts, _table_before),
    ("adapt", "match_signal", None, None),
    ("adapt", "validate_and_combine", None, None),
]


@dataclass
class Span:
    name: str          # "<layer>.<function>"
    start: int         # perf_counter_ns
    end: int
    parent: int        # index of the enclosing span, -1 at top level
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def func(self) -> str:
        return self.name.split(".", 1)[1]


class Tracer:
    """Records spans while installed; one tracer per traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, counts, before):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = len(spans)
            span = Span(name, clock(), 0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if counts:
                span.counts = counts(args, kwargs, result, state)
            if span.func in GENERATORS and (
                    span.parent < 0 or spans[span.parent].layer != "reservoirs"):
                # Outermost generator call: one reservoir handed to a caller.
                span.counts["warned"] = int(bool(result.meta.warnings))
            if name == "benchmarks.cycle_evaluator":
                return self._wrap("benchmarks.evaluate_config", result,
                                  None, None)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "esnkit" or key.startswith("esnkit.")]
        for short, func_name, counts, before in SPECS:
            original = getattr(sys.modules[f"esnkit.{short}"], func_name)
            wrapper = self._wrap(f"{short}.{func_name}", original, counts,
                                 before)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times (seconds) from one traced iteration.

    A span's self time is its duration minus that of its direct children.
    """
    self_ns = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            self_ns[span.parent] -= span.end - span.start
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_ns):
        layer_self[span.layer] += own * 1e-9

    def calls(*names):
        return [s for s in spans if s.name in names]

    def total_s(name):
        return sum(s.end - s.start for s in calls(name)) * 1e-9

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in calls(name))

    generated = [s for s in spans if "warned" in s.counts]
    run_s = total_s("esn.run_teacher_forced")
    neuron_steps = count("esn.run_teacher_forced", "neuron_steps")
    eig_calls = len(calls("spectral.eigenvalues"))
    mc_names = ("metrics.memory_capacity", "metrics.memory_capacity_from_states")
    stats = {
        "spectral.eig_calls": eig_calls,
        "spectral.eig_s": total_s("spectral.eigenvalues"),
        "spectral.eig_per_reservoir": (eig_calls / len(generated)
                                       if generated else 0.0),
        "reservoirs.generated": len(generated),
        "reservoirs.generate_s": layer_self["reservoirs"],
        "reservoirs.warned": sum(s.counts["warned"] for s in generated),
        "esn.runs": len(calls("esn.run_teacher_forced")),
        "esn.run_s": run_s,
        "esn.neuron_steps": neuron_steps,
        "esn.neuron_steps_per_s": neuron_steps / run_s if run_s else 0.0,
        "esn.free_runs": len(calls("esn.forecast_free_run")),
        "esn.free_run_s": total_s("esn.forecast_free_run"),
        "esn.ridge_solves": len(calls("esn.solve_ridge")),
        "esn.ridge_s": total_s("esn.solve_ridge"),
        "metrics.memory_capacity_s": sum(
            own for s, own in zip(spans, self_ns) if s.name in mc_names) * 1e-9,
        "metrics.delays_evaluated": count("metrics.memory_capacity_from_states",
                                          "delays"),
        "signals.response_trials": count("signals.reservoir_response",
                                         "trials"),
        "signals.response_s": total_s("signals.reservoir_response"),
        "tasks.bundle_s": layer_self["tasks"],
        "benchmarks.evaluations": len(calls("benchmarks.benchmark")),
        "benchmarks.evaluate_s": total_s("benchmarks.benchmark"),
        "benchmarks.nonfinite_scores": count("benchmarks.benchmark",
                                             "nonfinite"),
        "adapt.table_build_s": total_s("adapt.build_response_table"),
        "adapt.validate_s": total_s("adapt.validate_and_combine"),
        "adapt.configs_evaluated": len(calls("benchmarks.evaluate_config")),
    }
    for key in ("table_points", "cache_hits", "cache_misses",
                "table_bytes_written"):
        stats[f"adapt.{key}"] = count("adapt.build_response_table", key)
    for layer in LAYERS:
        stats[f"{layer}.self_s"] = layer_self[layer]
    # Busy time of the per-member work a process pool spreads over its
    # workers: what the CLI calls directly, less the bundle and the binning.
    stats["cli.member_busy_s"] = sum(
        s.end - s.start for s in spans
        if s.parent >= 0 and spans[s.parent].name == "cli.main"
        and s.layer != "tasks" and s.name != "metrics.bin_by_lambda") * 1e-9
    return stats


def warned_by_call(spans: list[Span]) -> list[int]:
    """Reservoirs with generator warnings, per top-level (CLI) call."""
    counts = []
    for span in spans:
        if span.parent < 0:
            counts.append(0)
        counts[-1] += span.counts.get("warned", 0)
    return counts


def spans_to_json(spans: list[Span]) -> list:
    origin = spans[0].start if spans else 0
    return [[s.name, s.start - origin, s.end - origin, s.parent, s.counts]
            for s in spans]
