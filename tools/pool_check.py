"""Run every perfbench pool case once and digest the outputs.

    python3 tools/pool_check.py [--root CHECKOUT] [--dump FILE]
                                [--compare FILE] [workload ...]

Runs each case of each workload's pool (all workloads by default) through
``esnkit.cli.main`` on the serial path, in a temporary directory, and checks
its outputs with ``workloads.check`` against ``perfbench/references``. Prints
the attempted and failed check counts and a SHA-256 digest over every
deterministic output file, per workload and in total; manifests (which carry
wall-clock times) and the response-table cache are left out. Two checkouts
whose digests agree wrote byte-identical outputs. ``--dump FILE`` writes
every value that ``workload.read`` returns as JSON; ``--compare FILE`` lists
each value that differs from such a dump, with its relative change, and the
largest change per workload. The exit status is 1 when a check fails or a
value differs from the ``--compare`` dump, and 0 otherwise. ``--root`` names
the checkout whose ``src`` and ``perfbench`` are used (default: the one
holding this script); nothing under ``perfbench/`` is written. All 40 cases
take about 100 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
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


def _leaves(value, prefix: str = ""):
    """(slash-joined path, value) of every scalar in nested dicts and lists."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield prefix, value
        return
    for key, item in items:
        yield from _leaves(item, f"{prefix}/{key}" if prefix else str(key))


def _relative_change(old, new) -> float:
    """|new - old| relative to the larger magnitude; ``inf`` for a change
    of type (``True`` to ``1.0``, say, which compare equal) or of a
    non-finite or non-numeric value, 0 for no change."""
    if type(old) is not type(new):
        return math.inf
    if old == new or (old != old and new != new):  # equal, or both NaN
        return 0.0
    if type(old) not in (int, float) or not (math.isfinite(old)
                                             and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new), 1e-12)


def compare(old: dict, new: dict) -> int:
    """Print each value of ``new`` that differs from ``old`` (both
    ``{workload: {case: outputs}}``) and the largest change per workload of
    ``new``; returns the number of differing values."""
    moved = 0
    for name in sorted(new):
        before = dict(_leaves(old.get(name, {})))
        after = dict(_leaves(new.get(name, {})))
        largest = 0.0
        for path in sorted(set(before) | set(after)):
            a, b = before.get(path), after.get(path)
            change = (math.inf if (path in before) != (path in after)
                      else _relative_change(a, b))
            if change:
                moved += 1
                largest = max(largest, change)
                print(f"  {name}/{path}: {a!r} -> {b!r} (rel {change:.3g})")
        print(f"{name}: {len(after)} values, largest relative change "
              f"{largest:.3g}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--dump", type=Path,
                        help="write every value workload.read returns here")
    parser.add_argument("--compare", type=Path,
                        help="list the values that differ from this dump")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import esnkit.cli as cli
    from workloads import WORKLOADS, load_reference

    digest = hashlib.sha256()
    values: dict[str, dict] = {}
    total_attempted = total_failed = 0
    for name in args.workloads or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        reference = load_reference(name)["cases"]
        own_digest = hashlib.sha256()
        values[name] = {}
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
                values[name][workload.key(case)] = outputs
                chunks = [f"{name}:{workload.key(case)}\n".encode()]
                chunks += [f"{rel}\n{len(data)}\n".encode() + data
                           for rel, data in _outputs(workdir)]
                for chunk in chunks:
                    digest.update(chunk)
                    own_digest.update(chunk)
        print(f"{name}: {len(workload.pool())} cases, {attempted} checks, "
              f"{failed} failed, digest {own_digest.hexdigest()}", flush=True)
        total_attempted += attempted
        total_failed += failed
    print(f"total: {total_attempted} checks, {total_failed} failed")
    print(f"output digest: {digest.hexdigest()}")
    if args.dump:
        args.dump.write_text(json.dumps(values, indent=1, sort_keys=True))
    moved = 0
    if args.compare:
        moved = compare(json.loads(args.compare.read_text()), values)
        print(f"{moved} values differ from {args.compare}")
    return 1 if total_failed or moved else 0


if __name__ == "__main__":
    sys.exit(main())
