"""Regenerate the stored reference outputs of every workload.

    python3 perfbench/make_references.py [workload ...]

Runs every case of each workload's pool once, in-process through
``esnkit.cli.main`` on the CLI's serial path, and writes
``references/<workload>.json``. Run it only at a commit whose outputs are
the contract: later commits are checked against these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time

from run import OUT, SRC, environment
from tracing import Tracer, layer_stats, warned_by_call
from workloads import REFERENCE_DIR, WORKLOADS

sys.path.insert(0, str(SRC))
import esnkit.cli as cli  # noqa: E402


def make(name: str) -> None:
    workload = WORKLOADS[name]()
    entries = {}
    for case in workload.pool():
        workdir = OUT / "references" / name / workload.key(case)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        tracer = Tracer()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), tracer:
            for argv in workload.commands(case, workdir, 1):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{name} case {case}: esnkit {argv[0]} failed")
        wall = time.perf_counter() - start
        stats = layer_stats(tracer.spans)
        outputs = workload.read(case, workdir)
        entries.update(workload.entries(case, outputs,
                                        warned_by_call(tracer.spans)))
        shutil.rmtree(workdir)
        print(f"{name} {case}: {wall:.2f} s, "
              f"{workload.reservoirs(case, outputs)} reservoirs, "
              f"{stats['benchmarks.evaluations']} evaluations, "
              f"{stats['reservoirs.warned']} warned", flush=True)
    doc = {"params": workload.params, "cases": entries,
           "made_with": environment(1)}
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        make(name)
