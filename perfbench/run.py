"""esnkit benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload memory_n400 --seed 0 --seconds 34 \
        --trace 0

Runs from the root of a source checkout and imports esnkit from ``src``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json: it
times the set-up in fresh interpreters, then calls the CLI entry point
``esnkit.cli.main`` in-process, one iteration after another, in a few
fresh processes in turn, until ``--seconds`` have passed. The seed draws
every iteration's input case. With ``--trace 1`` it alternates untraced and
traced in-process iterations and reports the per-layer metrics, the spans
of which are written to ``.perfbench_out/``, with the tracing overhead as
the difference between the two. Every iteration's outputs are checked
against the references stored with the benchmark. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--workload all`` runs every workload in turn and
combines their results. ``--smoke`` runs memory_n400 at ensemble size 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SLICES = 4

sys.path.insert(0, str(HERE))
from tracing import Tracer, layer_stats, spans_to_json  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


class RssSampler(threading.Thread):
    """Peak resident memory of this process plus its worker processes.

    This process's own peak is the kernel's high-water mark. Workers are
    short-lived children, so the sum of their resident sizes is sampled
    every 20 ms and its largest value added.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.children_peak_kb = 0
        self.samples = 0
        self._stop_event = threading.Event()

    @staticmethod
    def children_rss_kb(pid: int) -> int:
        total, stack = 0, [pid]
        while stack:
            p = stack.pop()
            try:
                if p != pid:
                    with open(f"/proc/{p}/status") as fh:
                        total += next(int(line.split()[1]) for line in fh
                                      if line.startswith("VmRSS:"))
                for task in os.listdir(f"/proc/{p}/task"):
                    with open(f"/proc/{p}/task/{task}/children") as fh:
                        stack.extend(int(c) for c in fh.read().split())
            except (OSError, StopIteration):
                continue  # the process ended between listing and reading
        return total

    def run(self):
        pid = os.getpid()
        while not self._stop_event.wait(0.02):
            self.children_peak_kb = max(self.children_peak_kb,
                                        self.children_rss_kb(pid))
            self.samples += 1

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self.children_peak_kb) / 1024


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and line.split()[-1].endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(workers: int) -> dict:
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
            "workers": workers,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "default"),
            "blas_threads": openblas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_iteration(cli, workload, case, workdir: Path, reference: dict,
                  workers: int | None, tracer: Tracer | None = None) -> dict:
    """One iteration: every CLI call of the case, then the output check."""
    workdir.mkdir(parents=True)
    argvs = workload.commands(case, workdir, workers)
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), \
            (tracer if tracer is not None else contextlib.nullcontext()):
        start = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash fails this case's evaluations only
                traceback.print_exc()
                codes.append(-1)
        wall = time.perf_counter() - start
    outputs = workload.read(case, workdir)
    attempted, failed, silent = workload.check(case, outputs, reference)
    if any(codes):
        failed = attempted
    shutil.rmtree(workdir)
    return {"wall": wall, "attempted": attempted,
            "failed": failed, "silent": silent,
            "reservoirs": workload.reservoirs(case, outputs)}


def measure_setup(workload, case, rundir: Path) -> list[float]:
    workdir = rundir / "setup"
    workdir.mkdir()
    argv = workload.setup_args(case, workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *argv],
                       env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    shutil.rmtree(workdir)
    return times


def summary(values) -> str:
    values = list(values)
    return (f"n={len(values)} mean={statistics.mean(values):.6g} "
            f"median={statistics.median(values):.6g} "
            f"min={min(values):.6g} max={max(values):.6g}")


def time_left(start: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more iteration, as long as the mean so far, would end
    nearer to ``seconds`` after ``start`` than stopping now does; the first
    iteration always runs."""
    if not walls:
        return True
    mean = sum(walls) / len(walls)
    return time.perf_counter() - start + mean / 2 <= seconds


def add_counts(counts: list[dict]) -> dict:
    """Key-wise sum of count dicts, keeping keys whose total is 0."""
    total: dict = {}
    for c in counts:
        for key, value in c.items():
            total[key] = total.get(key, 0) + value
    return total


def measure_slice(cli, workload, rng, seconds, rundir, reference) -> dict:
    """Untraced iterations in this process until ``seconds`` pass."""
    iterations = []
    sampler = RssSampler()
    sampler.start()
    start = time.perf_counter()
    while time_left(start, seconds, [it["wall"] for it in iterations]):
        case = workload.draw(rng)
        iterations.append(run_iteration(
            cli, workload, case, rundir / f"iter{len(iterations)}", reference,
            workers=None))
    peak_mb = sampler.stop()
    return {"walls": [it["wall"] for it in iterations],
            "reservoirs": [it["reservoirs"] for it in iterations],
            "attempted": sum(it["attempted"] for it in iterations),
            "failed": sum(it["failed"] for it in iterations),
            "silent": add_counts([it["silent"] for it in iterations]),
            "peak_mb": peak_mb, "rss_samples": sampler.samples}


def measure_end_to_end(args, rundir) -> dict:
    """Untraced iterations for ``args.seconds``, split over SLICES fresh
    processes: the process alone moves the n=400 iteration time by about
    15% (its memory layout, presumably), so one process per run would make
    the runs disagree.
    Wall time and throughput are means over the run, since pooled
    iterations are bimodal (see ClassifyPool) and a median of few such
    samples jumps between the modes."""
    slices = []
    start = time.perf_counter()
    for index in range(SLICES):
        # Spread what is left of the budget over the slices still to run.
        budget = (args.seconds - (time.perf_counter() - start)) / (SLICES - index)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(max(budget, 0.0)),
             "--trace", "0", "--slice", str(index)] + ["--smoke"] * args.smoke,
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
        slices.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    walls = [w for s in slices for w in s["walls"]]
    rates = [r / w for s in slices for r, w in zip(s["reservoirs"], s["walls"])]
    reservoirs = sum(sum(s["reservoirs"]) for s in slices)
    attempted = sum(s["attempted"] for s in slices)
    failed = sum(s["failed"] for s in slices)
    silent = add_counts([s["silent"] for s in slices])
    peak_mb = max(s["peak_mb"] for s in slices)
    rss_samples = sum(s["rss_samples"] for s in slices)
    print(f"wall_s: {summary(walls)} over {SLICES} processes")
    print(f"reservoirs_per_s: {summary(rates)}")
    print(f"peak_rss_mb: n={rss_samples} samples, peak={peak_mb:.1f}")
    print(f"failed_frac: {failed}/{attempted}; silent outcomes: {silent}")
    return {"metrics": {"wall_s": statistics.mean(walls),
                        "reservoirs_per_s": reservoirs / sum(walls),
                        "peak_rss_mb": peak_mb,
                        "ok_frac": 1.0 - failed / attempted},
            "samples": {"wall_s": len(walls), "reservoirs_per_s": len(rates),
                        "peak_rss_mb": rss_samples, "ok_frac": attempted},
            "attempted": attempted, "failed": failed, "silent": silent,
            "walls": walls}


def pool_payload_bytes(cli, workload, case) -> int:
    """Bytes the CLI pickles to its pool for one run of ``case``: every
    member's payload carries the whole task bundle."""
    import pickle
    cfg = workload.config(case)
    bundle = cli.task_from_config(cfg["task"])
    d = bundle.esn_defaults
    res_cfg = {"family": "ER", "n": d.n, "avg_degree": d.avg_degree,
               "normalization": {"mode": "spectral_radius", "value": d.alpha},
               "feedback": d.feedback}
    members = workload.reservoirs(case, {})
    return members * len(pickle.dumps((bundle, res_cfg, 0, d.alpha,
                                       [0, 0, 0], 1e-8)))


class TimedPool:
    """Times the CLI's process-pool block, from entering ``with`` to exit."""

    def __init__(self, cli):
        self.cli, self.walls = cli, []

    def __enter__(self):
        base, walls = self.cli.ProcessPoolExecutor, self.walls

        class Timed(base):
            def __enter__(pool):
                pool.started = time.perf_counter()
                return super().__enter__()

            def __exit__(pool, *exc):
                result = super().__exit__(*exc)
                walls.append(time.perf_counter() - pool.started)
                return result

        self.base = base
        self.cli.ProcessPoolExecutor = Timed
        return self

    def __exit__(self, *exc):
        self.cli.ProcessPoolExecutor = self.base


def measure_layers(cli, workload, rng, seconds, rundir, reference,
                   workers) -> tuple[dict, dict, int, int, dict]:
    """Alternate untraced and traced iterations of the same case until
    ``seconds`` pass; per-layer metrics are medians over traced iterations."""
    # A traced pool would record its spans inside the workers, where they
    # are lost, so a pooled workload traces the CLI's serial path and times
    # one untraced pooled run per round for the pool's efficiency.
    pooled = workload.pooled
    serial = 1 if pooled else None
    untraced, traced, pooled_runs, pool_walls, stats, spans = [], [], [], [], [], []
    payload = pool_payload_bytes(cli, workload, workload.pool()[0]) if pooled else 0
    start = time.perf_counter()
    rounds: list[float] = []
    while time_left(start, seconds, rounds):
        round_start = time.perf_counter()
        case = workload.draw(rng)
        # Alternate which side runs first, so drift hits both alike.
        for trace_on in (False, True) if len(stats) % 2 == 0 else (True, False):
            tracer = Tracer() if trace_on else None
            it = run_iteration(cli, workload, case,
                               rundir / f"iter{len(stats)}-{int(trace_on)}",
                               reference, serial, tracer)
            if trace_on:
                traced.append(it)
                spans.append(spans_to_json(tracer.spans))
                layer = layer_stats(tracer.spans)
                layer["benchmarks.binning_dropped"] = it["silent"].get(
                    "binning_dropped", 0)
                # A warned reservoir the reference does not have is a failure.
                new = layer["reservoirs.warned"] - workload.warned(case, reference)
                it["failed"] = min(it["attempted"], it["failed"] + max(0, new))
            else:
                untraced.append(it)
        if pooled:
            with TimedPool(cli) as timer:
                pooled_runs.append(run_iteration(
                    cli, workload, case, rundir / f"iter{len(stats)}-pool",
                    reference, None))
            pool_walls.extend(timer.walls)
        stats.append(layer)
        rounds.append(time.perf_counter() - round_start)

    values = {key: statistics.median(s[key] for s in stats) for key in stats[0]}
    t_off = statistics.median(it["wall"] for it in untraced)
    t_on = statistics.median(it["wall"] for it in traced)
    values.update({
        "trace.untraced_wall_s": t_off,
        "trace.traced_wall_s": t_on,
        "trace.overhead_s": t_on - t_off,
        "trace.overhead_frac": (t_on - t_off) / t_off,
        "trace.spans": statistics.median(len(s) for s in spans),
        "cli.workers": workers,
        "cli.blas_threads": openblas_threads() or 0,
        "cli.payload_bytes": payload,
        "cli.pool_efficiency": (
            values["cli.member_busy_s"] / (workers * statistics.median(pool_walls))
            if pool_walls else 0.0),
    })
    print(f"trace: {len(stats)} rounds; untraced wall {summary(it['wall'] for it in untraced)}; "
          f"traced wall {summary(it['wall'] for it in traced)}")
    if pool_walls:
        print(f"pool wall ({workers} workers): {summary(pool_walls)}")
    (rundir / "spans.json").write_text(json.dumps(spans))
    runs = untraced + traced + pooled_runs
    samples = {key: len(stats) for key in values}
    samples.update({"trace.untraced_wall_s": len(untraced),
                    "cli.pool_efficiency": len(pool_walls)})
    return (values, samples, sum(it["attempted"] for it in runs),
            sum(it["failed"] for it in runs),
            {"silent": [it["silent"] for it in runs]})


def run_all(argv: list[str]) -> int:
    """Run every workload, each in its own process (peak memory is a
    per-process high-water mark), and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               *argv], capture_output=True, text=True)
        print(f"== {name}\n{proc.stdout}", end="")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="memory_n400 at ensemble size 1, for the smoke test")
    parser.add_argument("--slice", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(["--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)] + ["--smoke"] * args.smoke)

    if not (SRC / "esnkit" / "__init__.py").is_file():
        print(f"esnkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    stored = load_reference(workload.name)
    if stored["params"] != workload.params:
        print(f"references/{workload.name}.json was made with other workload "
              f"parameters; regenerate it with make_references.py",
              file=sys.stderr)
        return 2
    reference = stored["cases"]

    rundir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.slice is not None or args.trace:
        import esnkit.cli as cli
    if args.slice is not None:
        # One slice of an untraced run: raw measurements for the parent.
        rng = np.random.default_rng([args.seed, args.slice])
        print(json.dumps(measure_slice(cli, workload, rng, args.seconds,
                                       rundir / f"slice{args.slice}",
                                       reference)))
        return 0
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)
    default_workers = (os.cpu_count() or 1) if workload.pooled else 1
    env = environment(default_workers)
    print(f"env: {json.dumps(env, sort_keys=True)}")

    if args.trace == 0:
        setup = measure_setup(workload, workload.draw(rng), rundir)
        print(f"setup_s: {summary(setup)}")
        result = measure_end_to_end(args, rundir)
        values = dict(result["metrics"], setup_s=statistics.median(setup))
        samples = dict(result["samples"], setup_s=len(setup))
        wanted = spec["end_to_end"]
        attempted, failed = result["attempted"], result["failed"]
        extra = {"silent": result["silent"], "setup": setup,
                 "walls": result["walls"]}
    else:
        values, samples, attempted, failed, extra = measure_layers(
            cli, workload, rng, args.seconds, rundir, reference, default_workers)
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']} "
              f"(n={samples[m['name']]})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (rundir / "result.json").write_text(json.dumps(
        dict(result, env=env, workload=workload.name, seed=args.seed,
             seconds=args.seconds, smoke=args.smoke, **extra),
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
