"""The esnkit names that the benchmark under ``perfbench/`` wraps or imports.

The benchmark changes only together with its references, so a rename in
esnkit would otherwise break it without any unit test noticing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from esnkit import benchmarks, cli
from esnkit.adapt import build_response_table
from esnkit.reservoirs import gen_er
from esnkit.tasks import gen_synthetic_classification, mackey_glass_bundle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# n=10 at connectivity 0.3.
TABLE_BUNDLE = mackey_glass_bundle(seed=0, length=300, horizon=5, washout=50,
                                   n_neurons=10, avg_degree=1.5)


def small_table(**kwargs):
    return build_response_table(TABLE_BUNDLE, mean_modulus=0.6, lengths=(1, 2),
                                density_grid=(0.0, 0.5), T=32, **kwargs)


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    assert tracing.SPECS
    missing = [f"{short}.{func}" for short, func, *_ in tracing.SPECS
               if not callable(getattr(importlib.import_module(
                   f"esnkit.{short}"), func, None))]
    assert missing == []


def test_cli_names_exist():
    # setup_probe.py imports the first two; run.py uses the others.
    for name in ("build_parser", "task_from_config", "main",
                 "ProcessPoolExecutor"):
        assert callable(getattr(cli, name, None)), name


def test_table_cache_layout(tracing, tmp_path):
    # The tracer counts a build as a cache miss only if it finds new bytes
    # under a ``response_table_*`` directory of the cache.
    kwargs = {"cache_dir": tmp_path}
    before = tracing._table_before((), kwargs)
    table = small_table(n_instances=1, cache_dir=tmp_path)
    sizes = tracing._response_table_dirs(tmp_path)
    assert len(sizes) == 1 and list(sizes.values())[0] > 0
    counts = tracing._table_counts((), kwargs, table, before)
    assert counts == {"table_points": 4, "cache_hits": 0, "cache_misses": 1,
                      "table_bytes_written": list(sizes.values())[0]}


def test_table_trials_read_by_tracer(tracing):
    # The tracer takes a response's trial count from its ``n_trials``
    # keyword and assumes the default, 10, without it: a table build must
    # pass its one trial per instance by keyword.
    with tracing.Tracer() as tracer:
        small_table(n_instances=2)
    assert tracing.layer_stats(tracer.spans)["signals.response_trials"] == 8


def test_tracer_sees_every_loop(tracing):
    # The tracer counts runs and closed-loop forecasts at the public esn
    # functions and bundle time at the task builders, so every benchmark
    # path must go through them. Each run is counted as T * B * n.
    n = 10
    res = gen_er(n, 3, seed=1, feedback=True)
    classes = gen_synthetic_classification(2, 3, 16, seed=0, test_per_class=2)
    mg = mackey_glass_bundle(seed=0, length=300, horizon=5, washout=50)
    with tracing.Tracer() as tracer:
        benchmarks.classification_benchmark(classes, res)
        benchmarks.forecast_benchmark(mg, res)
        small_table(n_instances=1)
        cli.task_from_config({"name": "synthetic-classification",
                              "n_classes": 2, "per_class": 2, "length": 16})
    stats = tracing.layer_stats(tracer.spans)
    assert stats["esn.runs"] > 0
    assert stats["esn.free_runs"] > 0
    assert stats["tasks.bundle_s"] > 0
    # gen_er above runs untraced; the four table points each generate one.
    assert stats["reservoirs.generated"] == 4
    # Both classes' training batches and one test batch; the train and
    # test series of Mackey-Glass; four table points of 100 + 32 steps.
    assert stats["esn.neuron_steps"] == n * (16 * (3 + 3 + 4) + 2 * 300
                                             + 4 * (100 + 32))
