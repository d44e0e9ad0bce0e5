import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import esnkit
from esnkit import adapt, benchmarks
from esnkit.adapt import (
    AdaptationResult,
    ResponseTable,
    build_response_table,
    config_key,
    match_signal,
    validate_and_combine,
)
from esnkit.errors import ParameterError
from esnkit.tasks import mackey_glass_bundle

# n=80 at connectivity 0.2, with output feedback.
BUNDLE = mackey_glass_bundle(seed=0, length=300, horizon=5, washout=50,
                             n_neurons=80, avg_degree=8.0)
MEAN_MODULUS = 0.55


def table_for(bundle=BUNDLE, **kwargs):
    return build_response_table(bundle, mean_modulus=MEAN_MODULUS, **kwargs)


@pytest.fixture(scope="module")
def small_table():
    return table_for(lengths=(1, 2), density_grid=(-0.5, 0.0, 0.5),
                     n_instances=3, seed=7, T=256)


def synthetic_table(profiles):
    """A table from ``{(length, density): power}`` covering a full grid."""
    lengths = tuple(sorted({L for L, _ in profiles}))
    grid = tuple(sorted({r for _, r in profiles}))
    power = np.array([[profiles[(L, r)] for r in grid] for L in lengths])
    return ResponseTable(freqs=np.fft.rfftfreq(256), power=power,
                         lengths=lengths, density_grid=grid)


class TestBuildResponseTable:
    def test_shapes_and_common_grid(self, small_table):
        assert [f.name for f in dataclasses.fields(ResponseTable)] == [
            "freqs", "power", "lengths", "density_grid"]
        assert small_table.lengths == (1, 2)
        assert small_table.density_grid == (-0.5, 0.0, 0.5)
        assert small_table.power.shape == (2, 3) + small_table.freqs.shape
        assert np.all(small_table.power >= 0)
        assert len(small_table.profiles) == 6
        assert_array_equal(small_table.profiles[(1, 0.5)],
                           small_table.power[0, 2])

    def test_zero_density_column_similar_across_lengths(self, small_table):
        a, b = small_table.power[:, 1]  # density 0.0 at lengths 1 and 2
        # same ensemble up to Monte-Carlo noise: compare band means
        edges = np.linspace(0.05, 0.45, 5)
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = (small_table.freqs >= lo) & (small_table.freqs < hi)
            assert a[band].mean() == pytest.approx(b[band].mean(), rel=0.5)

    def test_positive_l1_profile_decreases(self, small_table):
        power = small_table.power[0, 2]  # length 1, density 0.5
        low = power[small_table.freqs <= 0.1].mean()
        high = power[small_table.freqs >= 0.4].mean()
        assert low > high

    def test_save_load_round_trip(self, small_table, tmp_path):
        small_table.save(tmp_path / "table")
        assert [f.name for f in (tmp_path / "table").iterdir()] == [
            "table.npz"]
        loaded = ResponseTable.load(tmp_path / "table")
        assert loaded.lengths == small_table.lengths
        assert loaded.density_grid == small_table.density_grid
        assert_array_equal(loaded.freqs, small_table.freqs)
        assert_array_equal(loaded.power, small_table.power)

    def test_cache_round_trip(self, tmp_path):
        a = table_for(lengths=(1,), density_grid=(0.0, 0.5), n_instances=2,
                      seed=3, T=128, cache_dir=tmp_path)
        cached_dirs = list(tmp_path.glob("response_table_*"))
        assert len(cached_dirs) == 1
        b = table_for(lengths=(1,), density_grid=(0.0, 0.5), n_instances=2,
                      seed=3, T=128, cache_dir=tmp_path)
        assert (b.lengths, b.density_grid) == (a.lengths, a.density_grid)
        assert_array_equal(b.freqs, a.freqs)
        assert_array_equal(b.power, a.power)

    @staticmethod
    def assert_rebuilt_in_place(cache_dir, damage):
        """Cache a table, ``damage(table_dir)``, then check that the next
        build misses the cache and replaces that directory with a fresh
        ``table.npz``."""
        kwargs = dict(lengths=(1,), density_grid=(0.0, 0.5), n_instances=2,
                      seed=3, T=128)
        fresh = table_for(**kwargs)
        table_for(**kwargs, cache_dir=cache_dir)
        (cached,) = cache_dir.glob("response_table_*")
        damage(cached)
        rebuilt = table_for(**kwargs, cache_dir=cache_dir)
        assert_array_equal(rebuilt.power, fresh.power)
        assert list(cache_dir.iterdir()) == [cached]
        assert [f.name for f in cached.iterdir()] == ["table.npz"]
        assert_array_equal(ResponseTable.load(cached).power, fresh.power)

    def test_truncated_cache_is_rebuilt(self, tmp_path):
        # An empty file, a cut inside the zip magic and a cut archive raise
        # EOFError, ValueError and zipfile.BadZipFile on load.
        for keep in (0, 3, 100, -1):
            def truncate(cached):
                npz = cached / "table.npz"
                npz.write_bytes(npz.read_bytes()[:keep])

            self.assert_rebuilt_in_place(tmp_path / str(keep), truncate)

    def test_unsupported_zip_version_is_rebuilt(self, tmp_path):
        # zipfile raises NotImplementedError for a "version needed to
        # extract" above its own, the byte 6 past the central directory's
        # first "PK\x01\x02".
        def bump_version(cached):
            npz = cached / "table.npz"
            data = bytearray(npz.read_bytes())
            data[data.index(b"PK\x01\x02") + 6] = 0xD2
            npz.write_bytes(bytes(data))
            with pytest.raises(NotImplementedError, match="version 21.0"):
                ResponseTable.load(cached)

        self.assert_rebuilt_in_place(tmp_path, bump_version)

    def test_mismatched_power_shape_is_rebuilt(self, tmp_path):
        def drop_a_density(cached):
            with np.load(cached / "table.npz") as data:
                arrays = dict(data)
            arrays["power"] = arrays["power"][:, :1]
            np.savez(cached / "table.npz", **arrays)

        self.assert_rebuilt_in_place(tmp_path, drop_a_density)

    def test_old_csv_layout_is_rebuilt(self, tmp_path):
        def old_layout(cached):
            # One CSV per grid point plus index.json, as earlier versions
            # wrote under the same cache key.
            (cached / "table.npz").unlink()
            (cached / "freqs.csv").write_text("# freq\n0.0\n0.5\n")
            for name in ("profile_L1_rho+0.0000.csv",
                         "profile_L1_rho+0.5000.csv"):
                (cached / name).write_text("# freq,power\n0.0,1.0\n0.5,1.0\n")
            (cached / "index.json").write_text('{"profiles": []}')

        self.assert_rebuilt_in_place(tmp_path, old_layout)

    def test_other_table_format_is_a_cache_miss(self, tmp_path, monkeypatch):
        kwargs = dict(lengths=(1,), density_grid=(0.0,), n_instances=1,
                      seed=3, T=128, cache_dir=tmp_path)
        with monkeypatch.context() as m:
            m.setattr(adapt, "_TABLE_FORMAT", adapt._TABLE_FORMAT + 1)
            table_for(**kwargs)
        (other,) = tmp_path.glob("response_table_*")
        table_for(**kwargs)
        tables = sorted(tmp_path.glob("response_table_*"))
        assert len(tables) == 2 and other in tables

    def test_interrupted_save_leaves_no_table(self, small_table, tmp_path,
                                              monkeypatch):
        def crash(path, *args, **kwargs):
            with open(path, "wb") as fh:
                fh.write(b"PK\x03\x04")  # a partly written archive
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(KeyboardInterrupt):
            small_table.save(tmp_path / "table")
        assert list(tmp_path.iterdir()) == []

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            table_for(density_grid=(0.0, 1.5), n_instances=1)

    @pytest.mark.parametrize("field", ["lengths", "density_grid"])
    def test_empty_grid_rejected_before_cache(self, tmp_path, monkeypatch,
                                              field):
        def no_cache(*args, **kwargs):
            raise AssertionError("cache lookup for an empty grid")

        monkeypatch.setattr(adapt.ResponseTable, "load", no_cache)
        with pytest.raises(ParameterError, match="must not be empty"):
            table_for(**{field: ()}, n_instances=1, T=128, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_nan_grid_rejected(self):
        with pytest.raises(ParameterError):
            table_for(density_grid=(float("nan"),), n_instances=1)

    @pytest.mark.parametrize("mean_modulus", [0, -0.5])
    def test_mean_modulus_checked_before_table_work(self, tmp_path,
                                                    monkeypatch, mean_modulus):
        def no_table_work(*args, **kwargs):
            raise AssertionError("table work before the mean_modulus check")

        monkeypatch.setattr(benchmarks, "gen_combined", no_table_work)
        monkeypatch.setattr(adapt.ResponseTable, "load", no_table_work)
        with pytest.raises(ParameterError, match="normalization value"):
            build_response_table(BUNDLE, mean_modulus=mean_modulus,
                                 lengths=(1,), density_grid=(0.0,),
                                 n_instances=1, T=128, cache_dir=tmp_path)

    def test_density_that_places_no_cycle_rejected(self):
        # n=20 at average degree 2 has a budget of 40 edges, and
        # int(0.05 * 40 / 3) places no 3-cycle.
        bundle = dataclasses.replace(BUNDLE, esn_defaults=dataclasses.replace(
            BUNDLE.esn_defaults, n=20, avg_degree=2.0))
        with pytest.raises(ParameterError, match="density 0.05 places no "
                                                 "cycle of length 3"):
            table_for(bundle, lengths=(3,), density_grid=(0.0, 0.05),
                      n_instances=1, T=64)

    def test_feedback_leaves_the_response_unchanged(self):
        # The noise drive has no readout to feed back, and the feedback
        # weights are drawn after everything else.
        bundles = [dataclasses.replace(BUNDLE, esn_defaults=dataclasses.replace(
            BUNDLE.esn_defaults, n=20, avg_degree=2.0, feedback=feedback))
            for feedback in (False, True)]
        tables = [table_for(bundle, lengths=(1, 2), density_grid=(-0.5, 0.5),
                            n_instances=2, T=64) for bundle in bundles]
        assert_array_equal(tables[0].power, tables[1].power)

    def test_cache_key_is_stable(self, tmp_path):
        # The key hashes the parameters only; a change to it orphans every
        # cached table.
        table_for(lengths=(1,), density_grid=(0.0, 0.5), n_instances=2, seed=3,
                  T=128, cache_dir=tmp_path)
        assert [d.name for d in tmp_path.iterdir()] == [
            "response_table_eb50a7256d98fd78"]


class TestMatchSignal:
    def test_exact_ties_resolve_to_zero_density(self):
        flat = np.ones(129)
        table = synthetic_table({(1, -0.5): flat, (1, 0.0): flat.copy(),
                                 (1, 0.5): flat.copy()})
        rng = np.random.default_rng(0)
        result = match_signal(table, rng.standard_normal(500))
        assert result.selected == {1: 0.0}

    def test_matching_profile_wins(self, small_table):
        # a strongly low-frequency signal must pick the largest positive
        # self-loop density: its response is the most low-pass of the grid
        t = np.arange(4000)
        signal = np.cos(2 * np.pi * 0.002 * t)
        result = match_signal(small_table, signal)
        assert result.selected[1] == 0.5

    def test_scale_invariance(self, small_table, rng):
        signal = rng.standard_normal(1000) + np.sin(0.05 * np.arange(1000))
        a = match_signal(small_table, signal)
        b = match_signal(small_table, 37.5 * signal)
        assert a.selected == b.selected

    def test_determinism(self, small_table, rng):
        signal = rng.standard_normal(600)
        a = match_signal(small_table, signal)
        b = match_signal(small_table, signal)
        assert a.selected == b.selected and a.scores == b.scores

    def test_empty_table_rejected(self):
        table = synthetic_table({(1, 0.0): np.ones(129)})
        table.power = table.power[:, :0]
        table.density_grid = ()
        with pytest.raises(ParameterError):
            match_signal(table, np.zeros(100))


def scripted_evaluator(medians):
    """Deterministic fake benchmark: per-seed scores equal to the scripted
    median for a configuration key."""

    def evaluate(config, seeds):
        return [medians[config_key(config)]] * len(seeds)

    return evaluate


def make_result(selected, scores):
    return AdaptationResult(selected=selected, scores=scores)


class TestValidateAndCombine:
    def scores_for(self, selected):
        # flat synthetic scores: value equals the density itself
        return {length: {0.0: 0.0, rho: abs(rho)}
                for length, rho in selected.items()}

    def test_all_lengths_fail_sets_fallback(self):
        selected = {1: 0.5, 2: -0.5}
        evaluate = scripted_evaluator({"baseline": 1.0, "1:+0.5000": 2.0,
                                       "2:-0.5000": 3.0})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        assert result.fallback
        assert result.combined == {}
        assert result.rejected == [1, 2]

    def test_single_survivor_degenerates_to_matched_choice(self):
        selected = {1: 0.5, 2: -0.5}
        evaluate = scripted_evaluator({"baseline": 1.0, "1:+0.5000": 0.5,
                                       "2:-0.5000": 3.0})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        assert not result.fallback
        assert result.combined == {1: 0.5}
        assert result.rejected == [2]
        assert result.combined_median == 0.5

    def test_combination_accepted_when_it_helps(self):
        selected = {1: 0.5, 2: 0.4}
        evaluate = scripted_evaluator({
            "baseline": 1.0, "1:+0.5000": 0.6, "2:+0.4000": 0.8,
            "1:+0.5000,2:+0.4000": 0.5})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        assert result.combined == {1: 0.5, 2: 0.4}
        assert result.combined_median == 0.5
        assert not result.fallback

    def test_combination_rejected_when_it_hurts(self):
        selected = {1: 0.5, 2: 0.4}
        evaluate = scripted_evaluator({
            "baseline": 1.0, "1:+0.5000": 0.6, "2:+0.4000": 0.8,
            "1:+0.5000,2:+0.4000": 0.7})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        assert result.combined == {1: 0.5}  # falls back to the best single
        assert result.combined_median == 0.6

    def test_budget_excludes_oversized_combinations(self):
        selected = {1: 0.8, 2: 0.8, 3: 0.2}
        evaluate = scripted_evaluator({
            "baseline": 1.0, "1:+0.8000": 0.5, "2:+0.8000": 0.6,
            "3:+0.2000": 0.7,
            "1:+0.8000,3:+0.2000": 0.4, "2:+0.8000,3:+0.2000": 0.3})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        # {1: 0.8, 2: 0.8} and the triple exceed the budget and are skipped
        assert sum(abs(v) for v in result.combined.values()) <= 1.0
        assert result.combined_median <= 0.5

    def test_budget_invariant_always_holds(self):
        selected = {1: 0.6, 2: 0.6}
        evaluate = scripted_evaluator({
            "baseline": 1.0, "1:+0.6000": 0.9, "2:+0.6000": 0.8})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        assert sum(abs(v) for v in result.combined.values()) <= 1.0

    def test_no_seeds_is_a_parameter_error(self):
        selected = {1: 0.5}
        evaluate = scripted_evaluator({"baseline": 1.0, "1:+0.5000": 2.0})
        with pytest.raises(ParameterError, match="n_seeds"):
            validate_and_combine(make_result(selected, self.scores_for(selected)),
                                 evaluate, n_seeds=0)

    def test_candidate_medians_recorded(self):
        selected = {1: 0.5}
        evaluate = scripted_evaluator({"baseline": 1.0, "1:+0.5000": 0.4})
        result = validate_and_combine(make_result(selected, self.scores_for(selected)),
                                      evaluate, n_seeds=4)
        assert result.candidate_medians == {"1:+0.5000": 0.4}


def test_import_loads_scipy_sparse_before_scipy_linalg():
    # adapt.py imports benchmarks last to keep this order: scipy.linalg
    # loaded first starts OpenBLAS's threads earlier and slows start-up.
    code = ("import sys, esnkit; names = list(sys.modules); "
            "print(names.index('scipy.sparse'), names.index('scipy.linalg'))")
    src = str(Path(esnkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    sparse_at, linalg_at = map(int, out.split())
    assert sparse_at < linalg_at
