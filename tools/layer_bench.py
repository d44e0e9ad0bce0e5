"""Time the layers of the n=400 memory pipeline, of the classification path
and of Mackey-Glass forecasting at one BLAS thread, with the peak memory of
each.

    python3 tools/layer_bench.py [--root CHECKOUT] [--label NAME]
                                 [--out FILE]

Times, with every loaded OpenBLAS on one thread (as ``esnkit memory`` and
``esnkit benchmark`` run their members):

- ``run_teacher_forced`` on one uniform drive of T=4000 steps, at n=100 and
  n=400 (ER, average degree 20, spectral radius 1), as steps per second;
- ``memory_capacity_from_states`` on the n=400 run, with ``tau_max`` 800 and
  the first 800 steps skipped, and ``memory_capacity`` of the n=400
  reservoir (its run on T=4000 steps and that fit), as ``esnkit memory``
  calls it;
- ``spectral.eigenvalues`` of the n=100 and n=400 matrices;
- the classification path of the benchmark's ``classify_pool`` task
  (10 classes of 50 training and 10 test recordings of length 40, noise
  1.0, seed 0) on an n=100 ER reservoir of the task's defaults:
  ``gen_synthetic_classification`` building the bundle,
  ``train_class_readouts`` on the 500 training recordings, and
  ``score_against_classes`` on the 100 test recordings, as recordings per
  second;
- ``forecast_benchmark`` on the Mackey-Glass bundle (seed 0: 10,000-step
  train and test series, 84-step closed loop) with an n=100 cycle reservoir
  of ``{2: 0.2}`` at mean modulus 0.6, as ``esnkit adapt`` validates a
  candidate.

Each layer runs ``REPEATS`` times after one warm-up call; the minimum and the
median are printed with the CPU count and the BLAS thread counts. One more,
untimed call under ``tracemalloc`` gives the layer's peak of bytes held at
once by Python and numpy (``peak_traced_mib``), so no timed call is traced.
The row is stored under ``--label`` (default: the timed checkout's directory
name) in ``--out`` (default: ``BENCH_21.json`` at the root of the checkout
holding this script), replacing a row of the same label, so runs on the
checkout before a change and on the one after give the before and after
rows. ``--root`` names the checkout whose ``src`` is timed (default: the one
holding this script).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPEATS = 15
T = 4000
TAU_MAX = 800
OUT = Path(__file__).resolve().parents[1] / "BENCH_21.json"
#: The synthetic task of the benchmark's classify_pool workload.
CLASSIFY_TASK = {"n_classes": 10, "per_class": 50, "test_per_class": 10,
                 "length": 40, "noise_sigma": 1.0, "seed": 0}


def _traced_peak_mib(call) -> float:
    """Peak MiB that Python and numpy hold at once during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _timed(call, work: float = 1.0, **extra) -> dict:
    """Min and median wall seconds of ``REPEATS`` calls after one untimed
    warm-up, ``work`` per second at each, the traced peak of one more
    untimed call, and ``extra``."""
    call()
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    lo, mid = min(seconds), statistics.median(seconds)
    return {"min_s": lo, "median_s": mid, "per_s_at_min": work / lo,
            "per_s_at_median": work / mid,
            "peak_traced_mib": _traced_peak_mib(call), **extra}


def measure() -> dict:
    import numpy as np

    from esnkit.benchmarks import (cycle_reservoir_for, er_reservoir_for,
                                   forecast_benchmark)
    from esnkit.cli import _openblas_thread_controls, _single_blas_thread
    from esnkit.esn import (run_teacher_forced, score_against_classes,
                            train_class_readouts)
    from esnkit.metrics import memory_capacity, memory_capacity_from_states
    from esnkit.reservoirs import gen_er
    from esnkit.spectral import eigenvalues
    from esnkit.tasks import gen_synthetic_classification, mackey_glass_bundle

    drive = np.random.default_rng(0).uniform(-1.0, 1.0, T)
    layers = {}
    default_threads = [get() for _, get in _openblas_thread_controls()]
    with _single_blas_thread():
        threads = [get() for _, get in _openblas_thread_controls()]
        for n in (100, 400):
            res = gen_er(n, 20, seed=[n, 0])
            layers[f"run_teacher_forced_n{n}"] = _timed(
                lambda: run_teacher_forced(res, drive), T, unit="steps")
            layers[f"eigenvalues_n{n}"] = _timed(
                lambda: eigenvalues(res.W), unit="calls")
        states = run_teacher_forced(res, drive).states
        profile = memory_capacity_from_states(states, drive, TAU_MAX,
                                              start=TAU_MAX)
        layers["memory_capacity_from_states_n400"] = _timed(
            lambda: memory_capacity_from_states(states, drive, TAU_MAX,
                                                start=TAU_MAX),
            unit="calls", delays=profile.tau_max_used)
        layers["memory_capacity_n400"] = _timed(
            lambda: memory_capacity(res, T=T, seed=0), unit="calls")

        def bundle():
            return gen_synthetic_classification(**CLASSIFY_TASK)

        task = bundle()
        res = er_reservoir_for(task, [0, 0])
        tests = [s for label in sorted(task.test) for s in task.test[label]]
        n_train = sum(len(recs) for recs in task.train.values())
        readouts = train_class_readouts(task.train, res, washout=task.washout)
        layers["synthetic_classification_bundle"] = _timed(
            bundle, n_train + len(tests), unit="recordings")
        layers["train_class_readouts_n100"] = _timed(
            lambda: train_class_readouts(task.train, res,
                                         washout=task.washout),
            n_train, unit="recordings")
        layers["score_against_classes_n100"] = _timed(
            lambda: score_against_classes(readouts, tests, res,
                                          washout=task.washout),
            len(tests), unit="recordings")

        mg = mackey_glass_bundle(seed=0)
        res = cycle_reservoir_for(mg, {2: 0.2}, 0, mean_modulus=0.6)
        layers["forecast_benchmark_mackey_glass_n100"] = _timed(
            lambda: forecast_benchmark(mg, res), unit="calls")
    return {"nproc": os.cpu_count(), "blas_threads": threads,
            "default_blas_threads": default_threads,
            "repeats": REPEATS, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--label")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    row = measure()
    label = args.label or root.name
    print(f"{label}: nproc {row['nproc']}, BLAS threads {row['blas_threads']} "
          f"(default {row['default_blas_threads']}), {REPEATS} repeats")
    for name, layer in row["layers"].items():
        print(f"  {name}: min {layer['min_s'] * 1e3:.2f} ms, median "
              f"{layer['median_s'] * 1e3:.2f} ms ({layer['unit']}/s "
              f"{layer['per_s_at_min']:.4g} at min), traced peak "
              f"{layer['peak_traced_mib']:.1f} MiB")
    out = args.out
    rows = json.loads(out.read_text())["rows"] if out.exists() else {}
    rows[label] = row
    out.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
