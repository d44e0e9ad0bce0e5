"""The value comparison of ``tools/pool_check.py``, which decides whether a
change leaves every benchmark output unchanged."""

import importlib.util
import math
from pathlib import Path

import pytest

POOL_CHECK = Path(__file__).resolve().parents[1] / "tools" / "pool_check.py"


@pytest.fixture(scope="module")
def pool_check():
    spec = importlib.util.spec_from_file_location("pool_check", POOL_CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRelativeChange:
    @pytest.mark.parametrize("value", [0, 1.5, -2, "ok", None, True])
    def test_equal_values(self, pool_check, value):
        assert pool_check._relative_change(value, value) == 0.0

    def test_nan_equals_nan(self, pool_check):
        assert pool_check._relative_change(math.nan, float("nan")) == 0.0

    def test_tiny_move_is_counted(self, pool_check):
        change = pool_check._relative_change(1.0, 1.0 + 1e-12)
        assert change == pytest.approx(1e-12, rel=1e-3)

    @pytest.mark.parametrize("old, new", [
        (1, "1"), ("1", 1), (1.0, None), (True, 1.0), (1, 1.0),
        (0.5, math.nan), (math.inf, 1.0), (math.inf, -math.inf)])
    def test_change_of_type_or_non_finite_is_infinite(self, pool_check,
                                                      old, new):
        assert pool_check._relative_change(old, new) == math.inf


class TestCompare:
    def test_unchanged_dump(self, pool_check, capsys):
        dump = {"w": {"case": {"a": [1.0, math.nan], "b": {"c": "x"}}}}
        assert pool_check.compare(dump, dump) == 0
        assert "w: 3 values, largest relative change 0" in capsys.readouterr().out

    def test_counts_each_moved_value(self, pool_check, capsys):
        old = {"w": {"case": {"a": [1.0, 2.0], "n": 3, "s": "x"}},
               "v": {"case": {"a": 1.0}}}
        new = {"w": {"case": {"a": [1.0, 2.0 * (1 + 1e-12)], "n": "3",
                              "s": "x"}},
               "v": {"case": {"a": 1.0}}}
        assert pool_check.compare(old, new) == 2
        out = capsys.readouterr().out
        assert "w/case/a/1" in out and "w/case/n: 3 -> '3' (rel inf)" in out
        assert "v: 1 values, largest relative change 0" in out

    @pytest.mark.parametrize("side", ["old", "new"])
    def test_key_on_one_side_is_counted(self, pool_check, capsys, side):
        one = {"w": {"case": {"a": 1.0}}}
        two = {"w": {"case": {"a": 1.0, "b": 2.0}}}
        old, new = (two, one) if side == "old" else (one, two)
        assert pool_check.compare(old, new) == 1
        assert "w/case/b" in capsys.readouterr().out

    def test_workload_missing_from_old_dump(self, pool_check):
        assert pool_check.compare({}, {"w": {"case": {"a": 1.0, "b": 2}}}) == 2

