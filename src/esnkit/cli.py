"""Command-line entry point: generate | spectrum | memory | psd |
benchmark | adapt | verify.

Every command reads a JSON config (flags override fields), writes its
artifacts under an output directory, and records a manifest carrying the
config hash, toolkit version, and file checksums. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .adapt import (
    DEFAULT_DENSITY_GRID,
    build_response_table,
    match_signal,
    validate_and_combine,
)
from .benchmarks import benchmark, cycle_evaluator, protocol_fields
from .errors import (
    ConfigError,
    DataError,
    EsnKitError,
    ParameterError,
)
from .metrics import bin_by_lambda, memory_capacity
from .reservoirs import (Normalization, _builder, _call_with_config,
                         make_reservoir)
from .signals import _MIN_SAMPLES, periodogram, reservoir_response
from .spectral import spectrum_report
from .storage import (
    load_matrix,
    load_reservoir,
    memory_profile_to_dict,
    psd_to_csv,
    psd_to_dict,
    read_json,
    save_reservoir,
    spectrum_to_dict,
    write_json,
)
from .tasks import _make_task, read_series


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()[:16]


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        try:
            cfg = read_json(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object, "
                              f"got {cfg!r}")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {item!r}: config field {part!r} "
                                  f"is not a mapping")
        node[parts[-1]] = value
    return cfg


def _sweep_points(param: str, values: Sequence[float]) -> list[tuple]:
    """``(index, param, value)`` for each point of a ``sweep`` section."""
    if not values:
        raise ParameterError("'sweep' config: 'values' must not be empty")
    return [(i, param, v) for i, v in enumerate(values)]


def _at_least_one(**fields) -> None:
    """A config error for the first of ``fields`` that is below 1."""
    for key, value in fields.items():
        if value < 1:
            raise ParameterError(f"config field {key!r} must be at least 1, "
                                 f"got {value}")


def _read_series(path) -> np.ndarray:
    """A ``tasks.read_series`` file of at least ``_MIN_SAMPLES`` values."""
    series = read_series(path)
    if len(series) < _MIN_SAMPLES:
        raise ParameterError(f"{path}: a series file needs at least "
                             f"{_MIN_SAMPLES} values, got {len(series)}")
    return series


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command: str, cfg: dict, started: float,
                    written: list[Path]) -> None:
    """Record the run next to the checksums of the files it wrote; other
    files already in ``outdir`` are not part of this run."""
    outputs = {p.name: _file_sha256(p) for p in sorted(written)}
    write_json({
        "command": command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "version": __version__,
        "outputs": outputs,
        "wall_clock_s": round(time.time() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }, outdir / "manifest.json")


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_command(body):
    """The command that runs ``body(args, outdir, cfg, **fields)``, with the
    config's top-level fields bound to the body's keyword-only parameters by
    ``_call_with_config``, and records the files the body returns."""
    name = body.__name__.removeprefix("cmd_")

    @functools.wraps(body)
    def command(args) -> int:
        started = time.time()
        cfg = _load_config(args)
        outdir = _outdir(args)
        written = _call_with_config(functools.partial(body, args, outdir, cfg),
                                    f"{name} command", cfg)
        _write_manifest(outdir, name, cfg, started, written)
        return 0

    return command


# ---------------------------------------------------------------------------
# reservoir / task construction from config
# ---------------------------------------------------------------------------

def reservoir_from_config(cfg: dict, seed):
    """Build a reservoir from its JSON description."""
    cfg = dict(cfg)
    family = cfg.pop("family", "ER")
    norm = cfg.pop("normalization", None)
    if norm is not None:
        cfg["normalization"] = _call_with_config(Normalization,
                                                 "'normalization'", norm)
    if "seed" in inspect.signature(_builder(family)).parameters:
        cfg["seed"] = seed
    return make_reservoir(family, **cfg)


def _no_member_seed(res_cfg: dict) -> None:
    """A config error for a reservoir ``seed`` in a command that seeds every
    member from ``seed_base``, which would overwrite it unseen."""
    if "seed" in res_cfg:
        raise ParameterError("reservoir config: 'seed' is not used by this "
                             "command; each member is seeded from "
                             "'seed_base'")


def _mean_modulus(reservoir) -> float:
    """Mean eigenvalue modulus, from the spectrum the reservoir carries."""
    return float(np.mean(np.abs(reservoir.eigenvalues())))


def task_from_config(cfg: dict):
    cfg = dict(cfg)
    return _make_task(cfg.pop("name", None), cfg)


def _apply_sweep(res_cfg: dict, param: str, value):
    cfg = dict(res_cfg)
    if param == "alpha":
        cfg["normalization"] = {"mode": "spectral_radius", "value": value}
    elif param == "avg_modulus":
        cfg["normalization"] = {"mode": "avg_modulus", "value": value}
    elif param.startswith("cycle_density:"):
        length = param.split(":", 1)[1]
        densities = dict(cfg.get("cycle_density", {}))
        densities[length] = value
        cfg["cycle_density"] = densities
    else:
        cfg[param] = value
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@_config_command
def cmd_generate(args, outdir: Path, cfg: dict, *,
                 reservoir: dict) -> list[Path]:
    built = reservoir_from_config(reservoir, reservoir.get("seed", 0))
    written = save_reservoir(built, outdir / "reservoir")
    print(f"wrote reservoir ({built.meta.family}, n={built.n}) to {outdir}")
    return list(written)


def cmd_spectrum(args) -> int:
    started = time.time()
    outdir = _outdir(args)
    path = Path(args.matrix)
    if path.suffix == ".json":
        W = load_reservoir(path).W
    else:
        W = load_matrix(path)
    report = spectrum_report(W, n_bins=args.bins)
    doc = spectrum_to_dict(report)
    doc["source"] = path.name
    write_json(doc, outdir / "spectrum.json")
    _write_manifest(outdir, "spectrum", {"matrix": str(path), "bins": args.bins},
                    started, [outdir / "spectrum.json"])
    print(f"spectral_radius={report.spectral_radius:.6f} "
          f"avg_modulus={report.avg_modulus:.6f}")
    return 0


def _memory_member(reservoir: dict, *, seed_base: int, member: int, T: int,
                   tau_max: int | None, input_kind: str, chash: str) -> dict:
    """One ensemble member's ``memory.json`` row."""
    built = reservoir_from_config(reservoir, [seed_base, member])
    profile = memory_capacity(built, T=T, tau_max=tau_max,
                              seed=[seed_base, member, 1],
                              input_kind=input_kind)
    doc = memory_profile_to_dict(profile)
    doc.update(member=member, avg_modulus=_mean_modulus(built),
               config_hash=chash)
    return doc


@_config_command
def cmd_memory(args, outdir: Path, cfg: dict, *, reservoir: dict,
               ensemble: int = 1, seed_base: int = 0, T: int = 4000,
               tau_max: int | None = None,
               input_kind: str = "uniform") -> list[Path]:
    _at_least_one(ensemble=ensemble)
    _no_member_seed(reservoir)
    chash = config_hash(cfg)
    # Serial on purpose: at n=400 a forked pool of two ran the members 40%
    # faster, but its two children together held 2.3 times the peak RSS.
    with _single_blas_thread():
        rows = [_memory_member(reservoir, seed_base=seed_base, member=member,
                               T=T, tau_max=tau_max, input_kind=input_kind,
                               chash=chash) for member in range(ensemble)]
    write_json({"config_hash": chash, "members": rows}, outdir / "memory.json")
    with open(outdir / "memory.csv", "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("member,avg_modulus,total_memory\n")
        for doc in rows:
            fh.write(f"{doc['member']},{doc['avg_modulus']:.8f},"
                     f"{doc['total']:.8f}\n")
    totals = [doc["total"] for doc in rows]
    print(f"memory capacity over {ensemble} members: "
          f"median={np.median(totals):.3f}")
    return [outdir / "memory.json", outdir / "memory.csv"]


def cmd_psd(args) -> int:
    started = time.time()
    outdir = _outdir(args)
    if bool(args.input) == bool(args.reservoir):
        raise ConfigError("pass exactly one of --input or --reservoir")
    if args.input:
        profile = periodogram(_read_series(args.input))
        source = {"input": str(args.input)}
    else:
        reservoir = load_reservoir(args.reservoir)
        profile = reservoir_response(reservoir, n_trials=args.trials,
                                     T=args.samples, seed=args.seed)
        source = {"reservoir": str(args.reservoir), "trials": args.trials,
                  "samples": args.samples, "seed": args.seed}
    psd_to_csv(profile, outdir / "psd.csv")
    doc = psd_to_dict(profile)
    doc["source"] = source
    write_json(doc, outdir / "psd.json")
    _write_manifest(outdir, "psd", source, started,
                    [outdir / "psd.csv", outdir / "psd.json"])
    print(f"wrote {outdir / 'psd.csv'} ({len(profile.freqs)} bins)")
    return 0


#: (setter, getter) symbol pairs of OpenBLAS's thread count: the plain
#: build, scipy's renamed copy and numpy's 64-bit-integer copy.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


def _openblas_thread_controls() -> list[tuple]:
    """(setter, getter) of the thread count of every OpenBLAS loaded in this
    process; empty where none is found or the lookup fails."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.split()[-1].lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return []
    controls = []
    for lib in libs:
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then give
    each back its earlier thread count.

    Forked pool workers inherit the setting, so each ensemble member runs
    one BLAS thread and the pool no longer oversubscribes the cores."""
    controls = _openblas_thread_controls()
    saved = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, saved):
            setter(count)


#: What every member of the running ``_run_members`` call shares, such as a
#: task bundle: set once in each process rather than pickled into every
#: payload, and ``None`` outside a run.
_shared = None


def _share(value) -> None:
    """Set ``_shared``; the pool's initializer, so it runs in each worker."""
    global _shared
    _shared = value


def _run_members(worker, payloads, workers: int, shared=None) -> list:
    """``worker`` over ``payloads``, results in payload order, with every
    loaded OpenBLAS on one thread and ``shared`` readable as ``_shared``.

    ``workers <= 1`` runs the members in this process; more run them on a
    forked process pool, whose workers inherit the thread setting and
    ``shared`` instead of unpickling them."""
    _share(shared)
    try:
        with _single_blas_thread():
            if workers <= 1:
                return [worker(p) for p in payloads]
            with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                                     initargs=(shared,)) as pool:
                return list(pool.map(worker, payloads))
    finally:
        _share(None)


def _benchmark_member(payload) -> tuple[int, int, float, float, float]:
    """Worker for one ensemble member of the shared task bundle; top-level
    for process pools."""
    res_cfg, sweep_idx, value, seed_parts = payload
    reservoir = reservoir_from_config(res_cfg, seed_parts)
    score = benchmark(_shared, reservoir)
    return (sweep_idx, seed_parts[-1], float(value if value is not None else 0),
            _mean_modulus(reservoir), score)


@_config_command
def cmd_benchmark(args, outdir: Path, cfg: dict, *, task: dict,
                  reservoir: dict, sweep: dict | None = None,
                  ensemble: int = 1, seed_base: int = 0,
                  bins: int = 10) -> list[Path]:
    _at_least_one(ensemble=ensemble, bins=bins)
    points = ([(0, None, None)] if sweep is None
              else _call_with_config(_sweep_points, "'sweep'", sweep))
    bundle = task_from_config(task)
    fields = protocol_fields(bundle, _builder(reservoir.get("family", "ER")))
    if "avg_degree" in fields:
        fields = _apply_sweep(fields, "alpha", bundle.esn_defaults.alpha)
    base_cfg = {**fields, **reservoir}

    payloads = []
    for sweep_idx, param, value in points:
        res_cfg = (_apply_sweep(base_cfg, param, value)
                   if param is not None else base_cfg)
        _no_member_seed(res_cfg)
        for member in range(ensemble):
            payloads.append((res_cfg, sweep_idx, value,
                             [seed_base, sweep_idx, member]))

    results = _run_members(_benchmark_member, payloads, args.workers,
                           shared=bundle)

    chash = config_hash(cfg)
    with open(outdir / "results.csv", "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write("sweep_index,member,sweep_value,avg_modulus,performance\n")
        for row in results:
            fh.write(f"{row[0]},{row[1]},{row[2]:.6f},{row[3]:.8f},{row[4]:.8f}\n")

    points_xy = [(r[3], r[4]) for r in results if np.isfinite(r[4])]
    report = {"config_hash": chash, "task": bundle.name,
              "n_runs": len(results)}
    if len(points_xy) >= bins:
        report["bins"] = [asdict(b) for b in bin_by_lambda(points_xy, bins)]
    by_sweep: dict[float, list[float]] = {}
    for r in results:
        by_sweep.setdefault(r[2], []).append(r[4])
    report["per_sweep_median"] = {
        str(v): float(np.median(scores)) for v, scores in by_sweep.items()}
    write_json(report, outdir / "benchmark.json")
    print(f"{bundle.name}: {len(results)} runs, "
          f"median performance {np.median([r[4] for r in results]):.4f}")
    return [outdir / "results.csv", outdir / "benchmark.json"]


@_config_command
def cmd_adapt(args, outdir: Path, cfg: dict, *, task: dict,
              mean_modulus: float = 0.6, n_seeds: int = 20, seed_base: int = 0,
              lengths: Sequence[int] = (1, 2, 3),
              density_grid: Sequence[float] = DEFAULT_DENSITY_GRID,
              n_instances: int = 10, table_seed: int = 0,
              response_samples: int = 1024) -> list[Path]:
    _at_least_one(n_seeds=n_seeds)
    signal = _read_series(args.signal) if args.signal else None
    bundle = task_from_config(task)
    if isinstance(bundle.train, dict):
        raise ConfigError("adaptation expects a forecasting task")
    if signal is None:
        signal = np.asarray(bundle.train, dtype=float)

    table = build_response_table(
        bundle, mean_modulus=mean_modulus, lengths=lengths,
        density_grid=density_grid, n_instances=n_instances, seed=table_seed,
        T=response_samples,
        match=(float(np.mean(signal)), float(np.var(signal))),
        cache_dir=args.cache_dir or None)
    matched = match_signal(table, signal)

    result = validate_and_combine(
        matched, cycle_evaluator(bundle, mean_modulus=mean_modulus), n_seeds,
        seed_base=seed_base)

    report = {
        "config_hash": config_hash(cfg),
        "task": bundle.name,
        "selected": {str(k): v for k, v in result.selected.items()},
        "scores": {str(length): {f"{d:+.4f}": s for d, s in per.items()}
                   for length, per in result.scores.items()},
        "rejected": result.rejected,
        "single_length_medians": {str(k): v for k, v
                                  in result.single_length_medians.items()},
        "baseline_median": result.baseline_median,
        "combined": {str(k): v for k, v in result.combined.items()},
        "combined_score": result.combined_score,
        "combined_median": result.combined_median,
        "candidate_medians": result.candidate_medians,
        "fallback": result.fallback,
    }
    write_json(report, outdir / "adaptation.json")
    print(f"adaptation for {bundle.name}: combined={result.combined} "
          f"fallback={result.fallback}")
    return [outdir / "adaptation.json"]


def cmd_verify(args) -> int:
    outdir = Path(args.report_dir)
    manifest_path = outdir / "manifest.json"
    try:
        manifest = read_json(manifest_path)
        hash_matches = config_hash(manifest["config"]) == manifest["config_hash"]
        outputs = dict(manifest.get("outputs", {}))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"unreadable manifest {manifest_path}: "
                        f"{type(exc).__name__}: {exc}") from None
    problems = []
    if not hash_matches:
        problems.append("config hash mismatch")
    for name, digest in outputs.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"missing output file {name}")
        elif _file_sha256(path) != digest:
            problems.append(f"checksum mismatch for {name}")
    if problems:
        raise ConfigError("; ".join(problems))
    print(f"{outdir}: manifest verified ({len(outputs)} files)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esnkit",
        description="Build, analyze, and adapt echo state network reservoirs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", help="JSON config file")
        p.add_argument("-o", "--output-dir", default=".",
                       help="directory for artifacts (default: cwd)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a (dotted) config field")

    p = sub.add_parser("generate", help="generate a reservoir")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("spectrum", help="spectral report for a matrix")
    p.add_argument("matrix", help=".mtx/.csv matrix or reservoir .json")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("-o", "--output-dir", default=".")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("memory", help="memory capacity of an ensemble")
    common(p)
    p.set_defaults(func=cmd_memory)

    p = sub.add_parser("psd", help="periodogram of a series or a reservoir's "
                                   "noise response")
    p.add_argument("--input", help="one-value-per-line series file")
    p.add_argument("--reservoir", help="reservoir manifest (.json)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output-dir", default=".")
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("benchmark", help="seeded ensemble benchmark sweep")
    common(p)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("adapt", help="tune cycle densities to a signal")
    common(p)
    p.add_argument("--signal", help="series file; defaults to the task's "
                                    "training series")
    p.add_argument("--cache-dir", help="response-table cache directory")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("verify", help="re-check a report directory against "
                                      "its manifest")
    p.add_argument("report_dir")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EsnKitError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
