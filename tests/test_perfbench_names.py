"""The esnkit names that the benchmark under ``perfbench/`` wraps or imports.

The benchmark changes only together with its references, so a rename in
esnkit would otherwise break it without any unit test noticing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from esnkit import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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
