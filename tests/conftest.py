import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes of the dense eigendecompositions (``numpy.linalg.eigvals``
    calls) made while the test runs."""
    calls = []
    real = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


@pytest.fixture
def traced_peak():
    """A function giving the peak bytes that Python and numpy hold at once
    (``tracemalloc``) while ``call()`` runs, its result included."""

    def measure(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


_AC_PATTERN = re.compile(r"test_ac(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _AC_PATTERN.search(getattr(report, "nodeid", ""))
            if match:
                label = "PASS" if status == "passed" else "FAIL"
                lines[int(match.group(1))] = (
                    f"[AC{int(match.group(1)):02d}] {label} {match.group(2)}")
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])
