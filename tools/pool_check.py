"""Run every perfbench pool case once and digest the outputs.

    python3 tools/pool_check.py [--root CHECKOUT] [workload ...]

Runs each case of each workload's pool (all workloads by default) through
``esnkit.cli.main`` on the serial path, in a temporary directory, and checks
its outputs with ``workloads.check`` against ``perfbench/references``. Prints
the attempted and failed check counts and one SHA-256 digest over every
deterministic output file; manifests (which carry wall-clock times) and the
response-table cache are left out. Two checkouts whose digests agree wrote
byte-identical outputs. ``--root`` names the checkout whose ``src`` and
``perfbench`` are used (default: the one holding this script); nothing under
``perfbench/`` is written. All 40 cases take about 70 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def _outputs(workdir: Path):
    """(relative path, bytes) of every deterministic file under ``workdir``."""
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if path.is_file() and path.name != "manifest.json" \
                and rel.parts[0] != "cache":
            yield rel.as_posix(), path.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import esnkit.cli as cli
    from workloads import WORKLOADS, load_reference

    digest = hashlib.sha256()
    total_attempted = total_failed = 0
    for name in args.workloads or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        reference = load_reference(name)["cases"]
        attempted = failed = 0
        for case in workload.pool():
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                with contextlib.redirect_stdout(io.StringIO()):
                    codes = [cli.main(argv) for argv
                             in workload.commands(case, workdir, 1)]
                outputs = workload.read(case, workdir)
                n, bad, _ = workload.check(case, outputs, reference)
                attempted += n
                failed += n if any(codes) else bad
                digest.update(f"{name}:{workload.key(case)}\n".encode())
                for rel, data in _outputs(workdir):
                    digest.update(f"{rel}\n{len(data)}\n".encode() + data)
        print(f"{name}: {len(workload.pool())} cases, {attempted} checks, "
              f"{failed} failed", flush=True)
        total_attempted += attempted
        total_failed += failed
    print(f"total: {total_attempted} checks, {total_failed} failed")
    print(f"output digest: {digest.hexdigest()}")
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
