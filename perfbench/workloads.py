"""The benchmark's workloads: their inputs, CLI calls and output checks.

Each workload owns a fixed pool of input cases. ``--seed`` draws the case of
every iteration from that pool, so the same seed gives the same inputs, and
every case has its reference outputs stored in ``references/<name>.json``
(written by ``make_references.py`` at the commit that defined the
benchmark). esnkit only ever sees the generated config files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: Relative tolerance on every stored float. A batched or reordered BLAS
#: path changes results near 1e-15; 1e-6 leaves room for the chaotic
#: closed-loop rollouts to amplify that, while any change of algorithm or
#: any flipped decision (a label, an argmax) still shows.
RTOL = 1e-6


def close(a, b) -> bool:
    """Equal within ``RTOL``, or the same non-finite value."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-12)


def _write_config(cfg: dict, path: Path) -> str:
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


class Workload:
    """One benchmark workload. Subclasses fill in the methods below."""

    name = ""
    why = ""
    params: dict = {}
    #: Whether the CLI command runs its work on a process pool.
    pooled = False

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    # -- inputs ------------------------------------------------------------
    def pool(self) -> list:
        """Every case the seed can draw; each has a stored reference."""
        raise NotImplementedError

    def draw(self, rng: np.random.Generator):
        cases = self.pool()
        return cases[int(rng.integers(len(cases)))]

    def commands(self, case, workdir: Path, workers: int | None) -> list[list[str]]:
        """CLI argument lists for one iteration; ``workers=None`` keeps the
        CLI's own default."""
        raise NotImplementedError

    def setup_args(self, case, workdir: Path) -> list[str]:
        """The first CLI call of an iteration, for the set-up probe."""
        return self.commands(case, workdir, None)[0]

    # -- outputs -----------------------------------------------------------
    def read(self, case, workdir: Path) -> dict:
        """The checked outputs of one iteration; empty if none were written."""
        raise NotImplementedError

    def entries(self, case, outputs: dict, warned: list[int]) -> dict:
        """Reference entries for one case, as ``make_references`` stores them;
        ``warned`` counts the reservoirs with warnings per CLI call."""
        return {self.key(case): dict(outputs, warned=sum(warned))}

    def warned(self, case, reference: dict) -> int:
        """Reservoirs with warnings in one iteration of the reference."""
        return reference[self.key(case)]["warned"]

    @staticmethod
    def key(case) -> str:
        return ":".join(str(c) for c in case)

    def reservoirs(self, case, outputs: dict) -> int:
        """Reservoirs generated and scored by one iteration."""
        raise NotImplementedError

    def check(self, case, outputs: dict, reference: dict) -> tuple[int, int, dict]:
        """(attempted, failed, silent-outcome counts) of one iteration against
        the stored reference entries. Missing outputs count as failed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class MemoryN400(Workload):
    name = "memory_n400"
    why = ("n=400 memory pipeline: two dense eigendecompositions, the "
           "per-delay memory-capacity loop and long n x n recursions per "
           "reservoir; no pool, no short series")
    params = {"n": 400, "avg_degree": 20, "T": 4000, "tau_max": 800,
              "alphas": [0.2, 0.4667, 0.7333, 1.0], "ensemble": 2,
              "seed_bases": 8}

    @property
    def ensemble(self) -> int:
        return 1 if self.smoke else self.params["ensemble"]

    def pool(self):
        # A case holds one seed base per radius. Radius i draws from its own
        # block of seed bases, so no two radii share a matrix; `draw` mixes
        # blocks freely, and these cases cover every (radius, seed base).
        n_alphas = len(self.params["alphas"])
        return [tuple(1000 * i + k for i in range(n_alphas))
                for k in range(self.params["seed_bases"])]

    def draw(self, rng):
        k = self.params["seed_bases"]
        return tuple(1000 * i + int(rng.integers(k))
                     for i in range(len(self.params["alphas"])))

    def _config(self, alpha, seed_base):
        p = self.params
        return {"reservoir": {"family": "ER", "n": p["n"],
                              "avg_degree": p["avg_degree"],
                              "normalization": {"mode": "spectral_radius",
                                                "value": alpha}},
                "ensemble": self.ensemble, "seed_base": seed_base,
                "T": p["T"], "tau_max": p["tau_max"], "input_kind": "uniform"}

    def commands(self, case, workdir, workers):
        argv = []
        for i, (alpha, seed_base) in enumerate(zip(self.params["alphas"], case)):
            cfg = _write_config(self._config(alpha, seed_base),
                                workdir / f"memory{i}.json")
            argv.append(["memory", "-c", cfg, "-o", str(workdir / f"out{i}")])
        return argv

    def read(self, case, workdir):
        out = {}
        for i, (alpha, seed_base) in enumerate(zip(self.params["alphas"], case)):
            path = workdir / f"out{i}" / "memory.json"
            if not path.exists():
                continue
            members = json.loads(path.read_text())["members"]
            out[f"{alpha}:{seed_base}"] = {"members": [
                {"total": m["total"], "avg_modulus": m["avg_modulus"]}
                for m in members]}
        return out

    def _units(self, case):
        return [f"{alpha}:{seed_base}"
                for alpha, seed_base in zip(self.params["alphas"], case)]

    def entries(self, case, outputs, warned):
        return {unit: dict(outputs[unit], warned=count)
                for unit, count in zip(self._units(case), warned)}

    def warned(self, case, reference):
        return sum(reference[unit]["warned"] for unit in self._units(case))

    def reservoirs(self, case, outputs):
        return len(self.params["alphas"]) * self.ensemble

    def check(self, case, outputs, reference):
        failed = nonfinite = 0
        for unit in self._units(case):
            ref = reference[unit]["members"][:self.ensemble]
            got = outputs.get(unit, {}).get("members", [])
            for i, want in enumerate(ref):
                row = got[i] if i < len(got) else None
                ok = row is not None and all(close(row[f], want[f])
                                             for f in ("total", "avg_modulus"))
                failed += not ok
                nonfinite += row is not None and not math.isfinite(row["total"])
        return (self.reservoirs(case, outputs), failed,
                {"nonfinite_scores": nonfinite})


# ---------------------------------------------------------------------------

class ClassifyPool(Workload):
    name = "classify_pool"
    why = ("n=100 classification sweep on the CLI's default process pool: "
           "600 short recursions and 10 ridge solves per reservoir; no n=400 "
           "eigendecomposition, no memory capacity")
    # One member per worker per pool. The time of a pool depends on how its
    # workers' OpenBLAS threads happen to share the cores (up to 2x between
    # pools), so a run needs many short pools for a steady mean.
    params = {"n_classes": 10, "per_class": 50, "test_per_class": 10,
              "length": 40, "noise_sigma": 1.0, "alphas": [0.6, 1.2],
              "ensemble": 1, "task_seeds": 4, "seed_bases": 4}
    pooled = True

    def pool(self):
        p = self.params
        return [(t, s) for t in range(p["task_seeds"])
                for s in range(p["seed_bases"])]

    def config(self, case):
        p = self.params
        task_seed, seed_base = case
        return {"task": {"name": "synthetic-classification",
                         "n_classes": p["n_classes"],
                         "per_class": p["per_class"],
                         "test_per_class": p["test_per_class"],
                         "length": p["length"], "seed": task_seed,
                         "noise_sigma": p["noise_sigma"]},
                "reservoir": {"family": "ER"},
                "sweep": {"param": "alpha", "values": p["alphas"]},
                "ensemble": p["ensemble"], "seed_base": seed_base,
                "bins": len(p["alphas"]) * p["ensemble"]}

    def commands(self, case, workdir, workers):
        cfg = _write_config(self.config(case), workdir / "benchmark.json")
        argv = ["benchmark", "-c", cfg, "-o", str(workdir / "out")]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return [argv]

    def read(self, case, workdir):
        out = workdir / "out"
        if not (out / "results.csv").exists():
            return {}
        with open(out / "results.csv") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows = {f"{r['sweep_index']}:{r['member']}":
                {"avg_modulus": float(r["avg_modulus"]),
                 "performance": float(r["performance"])}
                for r in csv.DictReader(lines)}
        report = json.loads((out / "benchmark.json").read_text())
        binned = sum(b["count"] for b in report.get("bins", []))
        return {"rows": rows, "n_runs": report["n_runs"], "binned": binned}

    def reservoirs(self, case, outputs):
        return len(self.params["alphas"]) * self.params["ensemble"]

    def check(self, case, outputs, reference):
        ref = reference[self.key(case)]["rows"]
        got = outputs.get("rows", {})
        failed = sum(not (key in got and all(
            close(got[key][f], want[f]) for f in ("avg_modulus", "performance")))
            for key, want in ref.items())
        failed += len(set(got) - set(ref))
        nonfinite = sum(not math.isfinite(r["performance"]) for r in got.values())
        dropped = outputs["n_runs"] - outputs["binned"] if got else 0
        ref_nonfinite = sum(not math.isfinite(r["performance"])
                            for r in ref.values())
        # A silent outcome the reference does not have is a failure too.
        failed += max(0, nonfinite - ref_nonfinite)
        return (len(ref), min(failed, len(ref)),
                {"nonfinite_scores": nonfinite, "binning_dropped": dropped})


# ---------------------------------------------------------------------------

class AdaptMG(Workload):
    name = "adapt_mg"
    why = ("Mackey-Glass adaptation with an empty cache: response table over "
           "lengths x densities at n=100, then closed-loop validation; the "
           "only gen_combined, white-noise response and cache-write path")
    params = {"n_instances": 4, "n_seeds": 2, "response_samples": 1024,
              "task_seeds": 4, "table_seeds": 2, "seed_bases": 2,
              "lengths": [1, 2, 3], "grid_points": 9}

    def pool(self):
        p = self.params
        return [(t, g, s) for t in range(p["task_seeds"])
                for g in range(p["table_seeds"])
                for s in range(p["seed_bases"])]

    def config(self, case):
        p = self.params
        task_seed, table_seed, seed_base = case
        return {"task": {"name": "mackey-glass", "seed": task_seed},
                "n_instances": p["n_instances"], "n_seeds": p["n_seeds"],
                "response_samples": p["response_samples"],
                "table_seed": table_seed, "seed_base": seed_base}

    def commands(self, case, workdir, workers):
        cfg = _write_config(self.config(case), workdir / "adapt.json")
        return [["adapt", "-c", cfg, "-o", str(workdir / "out"),
                 "--cache-dir", str(workdir / "cache")]]

    def read(self, case, workdir):
        path = workdir / "out" / "adaptation.json"
        if not path.exists():
            return {}
        doc = json.loads(path.read_text())
        return {k: doc[k] for k in ("selected", "combined", "candidate_medians",
                                    "baseline_median")}

    def reservoirs(self, case, outputs):
        p = self.params
        table = len(p["lengths"]) * p["grid_points"] * p["n_instances"]
        configs = len(outputs.get("candidate_medians", {})) + 1  # + baseline
        return table + configs * p["n_seeds"]

    def check(self, case, outputs, reference):
        # Checked: the per-length choices, the final combination, and the
        # benchmark median of the baseline and of every configuration the
        # validation evaluated.
        ref = reference[self.key(case)]
        attempted = len(ref["selected"]) + 2 + len(ref["candidate_medians"])
        if not outputs:
            return attempted, attempted, {"nonfinite_scores": 0}
        failed = sum(outputs["selected"].get(k) != v
                     for k, v in ref["selected"].items())
        failed += outputs["combined"] != ref["combined"]
        failed += not close(outputs["baseline_median"], ref["baseline_median"])
        got = outputs["candidate_medians"]
        failed += sum(not (k in got and close(got[k], v))
                      for k, v in ref["candidate_medians"].items())
        failed += len(set(got) - set(ref["candidate_medians"]))
        nonfinite = sum(not math.isfinite(v) for v in got.values())
        ref_nonfinite = sum(not math.isfinite(v)
                            for v in ref["candidate_medians"].values())
        failed += max(0, nonfinite - ref_nonfinite)
        return (attempted, min(failed, attempted),
                {"nonfinite_scores": nonfinite})


WORKLOADS = {w.name: w for w in (MemoryN400, ClassifyPool, AdaptMG)}


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())
