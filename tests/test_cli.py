import contextlib
import csv
import functools
import inspect
import io
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from esnkit import benchmarks, cli, reservoirs
from esnkit.benchmarks import benchmark
from esnkit.cli import _openblas_thread_controls, _single_blas_thread, main
from esnkit.metrics import MemoryProfile
from esnkit.reservoirs import Normalization, gen_er, make_reservoir
from esnkit.storage import (read_json, save_matrix, save_reservoir,
                            write_json)


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestGenerateSpectrumVerify:
    def test_pipeline(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", {
            "reservoir": {"family": "DELAY_LINE", "n": 8, "weight": 1.0}})
        out = tmp_path / "out"
        assert run_cli("generate", "-c", cfg, "-o", out) == 0
        assert (out / "reservoir.mtx").exists()
        assert (out / "manifest.json").exists()

        spec_out = tmp_path / "spec"
        assert run_cli("spectrum", out / "reservoir.json", "-o", spec_out) == 0
        doc = read_json(spec_out / "spectrum.json")
        assert doc["avg_modulus"] == pytest.approx(1.0, abs=1e-10)
        moduli = [abs(complex(re, im)) for re, im in doc["eigenvalues"]]
        assert np.allclose(moduli, 1.0, atol=1e-10)

        assert run_cli("verify", out) == 0

    def test_verify_detects_tampering(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", {
            "reservoir": {"family": "ER", "n": 10, "avg_degree": 2, "seed": 1}})
        out = tmp_path / "out"
        assert run_cli("generate", "-c", cfg, "-o", out) == 0
        (out / "reservoir.json").write_text("{}")
        assert run_cli("verify", out) == 2

    def test_manifest_lists_only_written_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        stale = out / "old_results.csv"
        stale.write_text("sweep_index,member\n0,0\n")
        cfg = write_config(tmp_path, "gen.json", {
            "reservoir": {"family": "ER", "n": 10, "avg_degree": 2, "seed": 1}})
        assert run_cli("generate", "-c", cfg, "-o", out) == 0
        outputs = read_json(out / "manifest.json")["outputs"]
        assert set(outputs) == {"reservoir.mtx", "reservoir.json"}
        stale.write_text("changed by a later run\n")
        assert run_cli("verify", out) == 0

    def test_generate_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "gen.json", {
            "reservoir": {"family": "ER", "n": 20, "avg_degree": 4,
                          "seed": 5, "feedback": True}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("generate", "-c", cfg, "-o", out1)
        run_cli("generate", "-c", cfg, "-o", out2)
        for name in ("reservoir.mtx", "reservoir.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = read_json(out1 / "manifest.json")
        m2 = read_json(out2 / "manifest.json")
        assert m1["outputs"] == m2["outputs"]
        assert m1["config_hash"] == m2["config_hash"]


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("generate", "-c", tmp_path / "nope.json") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_unknown_task(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "weather"}, "reservoir": {"family": "ER"}})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "o",
                       "--workers", 1) == 2

    def test_missing_data_file(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "laser", "path": str(tmp_path / "missing.txt")},
            "reservoir": {"family": "ER"}})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "o",
                       "--workers", 1) == 3

    def test_bad_matrix_path(self, tmp_path):
        assert run_cli("spectrum", tmp_path / "nothing.mtx",
                       "-o", tmp_path / "o") == 3

    @staticmethod
    def single_error_line(capsys):
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])

    def test_unknown_reservoir_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.json", {"reservoir": {
            "family": "ER", "n": 20, "avg_degree": 4, "bogus": 1}})
        assert run_cli("generate", "-c", cfg, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "bogus" in err["message"]

    @pytest.mark.parametrize("reservoir, key", [
        ({"family": "CYCLE", "n": 20, "connectivity": 0.2,
          "cycle_density": {"a": 0.1}}, "cycle_density"),
        ({"family": "ER", "n": 20, "avg_degree": 4,
          "normalization": {"mode": "spectral_radius"}}, "value"),
        ({"family": "ER", "n": 20, "avg_degree": 4,
          "normalization": "radius"}, "normalization"),
        ({"family": "ER", "n": "20", "avg_degree": 4}, "'n'"),
        ({"family": 5, "n": 20, "avg_degree": 4}, "family"),
        ({"family": "ER", "n": 20, "avg_degree": 4, "feedback": "no"},
         "'feedback'"),
        ({"family": "ER", "n": 20, "avg_degree": 4,
          "normalization": {"mode": "avg_modulus", "value": True}}, "'value'"),
        ({"family": "ER", "n": 1, "avg_degree": 0.5}, "n must be >= 2"),
        ({"family": "SF", "n": 20, "avg_degree": 4, "gamma": 3.0,
          "max_rounds": 100}, "max_rounds"),
        ({"family": "SF", "n": 9, "avg_degree": 0.05, "gamma": 3.0},
         "avg_degree"),
        ({"family": "CYCLE", "n": 20, "connectivity": 1.0,
          "cycle_density": {"21": 0.9}}, "cycle length 21 exceeds the 20"),
        ({"family": "CYCLE", "n": 20, "connectivity": 0.3,
          "cycle_density": {"2": "0.5"}}, "cycle_density"),
        ({"family": "CYCLE", "n": 20, "connectivity": 0.3,
          "cycle_density": {"2": True}}, "cycle_density"),
        ({"family": "CYCLE", "n": 20, "connectivity": 0.3,
          "cycle_density": {"2": 0.5, "02": 0.3}}, "cycle_density"),
        ({"family": "CYCLE", "n": 20, "connectivity": 0.3,
          "cycle_density": {"1_0": 0.3}}, "cycle_density"),
        ({"family": "CYCLE", "n": 20, "connectivity": 0.3,
          "cycle_density": {" 2": 0.3}}, "cycle_density"),
        ({"family": "CYCLE", "n": 20, "connectivity": 0.3,
          "cycle_density": {"+2": 0.3}}, "cycle_density"),
    ], ids=["cycle_density_key", "normalization_value", "normalization_string",
            "string_n", "int_family", "string_feedback", "bool_norm_value",
            "single_node_er", "sf_max_rounds", "sf_degrees_round_to_zero",
            "cycle_longer_than_n", "string_cycle_density",
            "bool_cycle_density", "duplicate_cycle_length",
            "underscore_cycle_length", "spaced_cycle_length",
            "signed_cycle_length"])
    def test_malformed_reservoir_value(self, tmp_path, capsys, reservoir, key):
        cfg = write_config(tmp_path, "g.json", {"reservoir": reservoir})
        assert run_cli("generate", "-c", cfg, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert key in err["message"]

    def test_non_string_family_in_benchmark(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "sine-mixture", "seed": 1, "length": 1200},
            "reservoir": {"family": 5, "n": 20}})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "o",
                       "--workers", 1) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "family" in err["message"]

    @pytest.mark.parametrize("command, cfg, key", [
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "ensemble": "two"}, "ensemble"),
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "T": 600, "tau_max": "ten"}, "tau_max"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
                       "reservoir": {"family": "ER", "n": 20},
                       "bins": [3]}, "bins"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "n_seeds": "many"}, "n_seeds"),
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "ensemble": 0}, "ensemble"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
                       "reservoir": {"family": "ER", "n": 20},
                       "ensemble": -1}, "ensemble"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "n_seeds": 0}, "n_seeds"),
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "ensemble": 1.9}, "ensemble"),
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "ensemble": True}, "ensemble"),
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "T": None}, "T"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "lengths": [1.7]}, "lengths"),
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
                    "ensmble": 3}, "ensmble"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
                       "reservoir": {"family": "ER", "n": 20},
                       "seedbase": 5}, "seedbase"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
                       "reservoir": {"family": "ER", "n": 20},
                       "bins": 0}, "bins"),
        ("memory", {"ensemble": 1}, "reservoir"),
        ("memory", {"reservoir": 5}, "reservoir"),
        ("generate", {"reservoir": [1]}, "reservoir"),
        ("adapt", {"task": "mackey-glass"}, "task"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "gen_params": 3}, "gen_params"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "gen_params": {"l1mode": "edge_count"}}, "gen_params"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "gen_params": {"n": "x"}}, "gen_params"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
                   "gen_params": {"n": 20, "length": 2}}, "gen_params"),
        # Members are seeded from seed_base, which would overwrite these.
        ("memory", {"reservoir": {"family": "ER", "n": 20, "avg_degree": 3,
                                  "seed": 5}, "T": 400}, "seed_base"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
                       "reservoir": {"family": "ER", "n": 20, "seed": 7}},
         "seed_base"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
                       "reservoir": {"family": "ER", "n": 20},
                       "sweep": {"param": "seed", "values": [7, 8]}},
         "seed_base"),
    ], ids=["memory_ensemble", "memory_tau_max", "benchmark_bins",
            "adapt_n_seeds", "memory_empty_ensemble", "benchmark_empty_ensemble",
            "adapt_no_seeds", "memory_float_ensemble", "memory_bool_ensemble",
            "memory_null_T", "adapt_float_lengths", "memory_misspelt_key",
            "benchmark_misspelt_key", "benchmark_zero_bins",
            "memory_no_reservoir", "memory_int_reservoir", "generate_list_reservoir",
            "adapt_string_task", "adapt_int_gen_params",
            "adapt_gen_params_unknown_key", "adapt_gen_params_string_n",
            "adapt_gen_params_sets_length", "memory_reservoir_seed",
            "benchmark_reservoir_seed", "benchmark_seed_sweep"])
    def test_malformed_numeric_field(self, tmp_path, capsys, command, cfg, key):
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli(command, "-c", path, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert repr(key) in err["message"]

    @pytest.mark.parametrize("field", ["lengths", "density_grid"])
    def test_empty_grid_with_cache(self, tmp_path, capsys, recwarn, field):
        # A full-length sine mixture, which builds without a warning.
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "sine-mixture", "seed": 3}, field: []})
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o",
                       "--cache-dir", tmp_path / "cache") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert repr(field) in err["message"]
        assert [str(w.message) for w in recwarn] == []
        assert not (tmp_path / "cache").exists()

    def test_gen_params_checked_before_task(self, tmp_path, capsys, recwarn):
        # The task sets the reservoirs of the table, so a well-formed
        # ``gen_params`` is an unknown field too. A 1200-sample sine
        # mixture warns that it is short once it is built.
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "sine-mixture", "length": 1200},
            "gen_params": {"n": 8, "connectivity": 0.3}, "lengths": [1],
            "density_grid": [0.0], "n_instances": 1, "n_seeds": 1,
            "response_samples": 64})
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "'gen_params'" in err["message"]
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("command", ["benchmark", "adapt"])
    def test_ridge_is_not_a_field(self, tmp_path, capsys, command):
        # Every protocol readout is fit with ``metrics.RIDGE``.
        if command == "benchmark":
            cfg = {"task": _TINY_TASK, "reservoir": {"family": "ER", "n": 20}}
            extra = ["--workers", 1]
        else:
            cfg, extra = dict(_SMALL_ADAPT), ["--cache-dir", tmp_path / "cache"]
        path = write_config(tmp_path, "c.json", dict(cfg, ridge=1e-8))
        assert run_cli(command, "-c", path, "-o", tmp_path / "o", *extra) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "'ridge'" in err["message"]
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["benchmark", "adapt"])
    def test_horizon_past_the_series(self, tmp_path, capsys, command):
        # Its closed-loop anchors would start before the washout and end
        # past the series.
        task = {"name": "mackey-glass", "length": 600, "washout": 100,
                "horizon": 700}
        if command == "benchmark":
            cfg = {"task": task, "reservoir": {"family": "ER"}}
            extra = ["--workers", 1]
        else:
            cfg = dict(_SMALL_ADAPT, task=task)
            extra = ["--cache-dir", tmp_path / "cache"]
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli(command, "-c", path, "-o", tmp_path / "o", *extra) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert all(key in err["message"]
                   for key in ("horizon", "length", "washout"))
        assert not (tmp_path / "cache").exists()

    def test_longest_horizon_runs(self, tmp_path):
        task = dict(_TINY_MG, length=600, washout=100, horizon=499)
        path = write_config(tmp_path, "c.json", {
            "task": task, "reservoir": {"family": "ER"}})
        assert run_cli("benchmark", "-c", path, "-o", tmp_path / "o",
                       "--workers", 1) == 0

    @pytest.mark.parametrize("task, key", [
        ({"name": "mackey-glass", "bogus": 1}, "bogus"),
        ({"name": "laser"}, "path"),
        ({"name": "laser", "path": "x.txt", "n_points": 10}, "n_points"),
        ({"name": "arabic-digits", "train_path": "a.txt"}, "test_path"),
        ({"name": "sine-mixture", "length": "x"}, "length"),
        ({"name": "synthetic-classification", "per_class": 2.5}, "per_class"),
        ({"name": "sine-mixture", "seed": "a", "length": 1200}, "seed"),
        ({"name": "mackey-glass", "seed": [1, 2.5]}, "seed"),
    ], ids=["unknown_key", "laser_without_path", "laser_extra_key",
            "digits_without_test_path", "string_length", "float_per_class",
            "string_seed", "float_in_seed_list"])
    def test_malformed_task_section(self, tmp_path, capsys, task, key):
        path = write_config(tmp_path, "b.json", {
            "task": task, "reservoir": {"family": "ER", "n": 20}})
        assert run_cli("benchmark", "-c", path, "-o", tmp_path / "o",
                       "--workers", 1) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert repr(key) in err["message"]
        assert err["message"].startswith(f"{task['name']} task config")

    def test_malformed_matrix_market(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "3 3 2\n1 1 abc\n2 2 1.0\n")
        assert run_cli("spectrum", path, "-o", tmp_path / "o") == 3
        assert self.single_error_line(capsys)["error"] == "IngestionError"

    def test_short_psd_response(self, tmp_path, capsys):
        # ``psd --input`` refuses series this short as well.
        save_reservoir(gen_er(10, 3, seed=0), tmp_path / "res")
        assert run_cli("psd", "--reservoir", tmp_path / "res.json",
                       "--samples", 3, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "T >= 8" in err["message"]

    def test_short_adapt_response(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "sine-mixture", "seed": 3, "length": 2500},
            "response_samples": 4})
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "T must be >= 8" in err["message"]

    @pytest.mark.parametrize("connectivity", [1.5, 0.0])
    def test_adapt_connectivity_out_of_range(self, tmp_path, capsys,
                                             connectivity):
        # The task's 2 * avg_degree / n; the generator rejects it at the
        # table's first grid point: a config error like any other, not a
        # numeric failure there.
        task = dict(_TINY_MG, n_neurons=8, avg_degree=4 * connectivity)
        cfg = write_config(tmp_path, "a.json", dict(_SMALL_ADAPT, task=task))
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "connectivity" in err["message"]

    def test_non_numeric_psd_input(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("0.1\n0.2\nnot-a-number\n0.4\n")
        assert run_cli("psd", "--input", path, "-o", tmp_path / "o") == 3
        assert self.single_error_line(capsys)["error"] == "IngestionError"

    @pytest.mark.parametrize("values", [0, 1, 7])
    @pytest.mark.parametrize("command", ["psd", "adapt"])
    def test_short_series_file(self, tmp_path, capsys, recwarn, command,
                               values):
        path = tmp_path / "series.txt"
        path.write_text("".join(f"{0.1 * i}\n" for i in range(values)))
        if command == "psd":
            args = ["psd", "--input", path]
        else:
            cfg = write_config(tmp_path, "a.json", _SMALL_ADAPT)
            args = ["adapt", "-c", cfg, "--signal", path,
                    "--cache-dir", tmp_path / "cache"]
        assert run_cli(*args, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert str(path) in err["message"] and "8" in err["message"]
        assert [str(w.message) for w in recwarn] == []
        # The series is checked before any table work.
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["psd", "adapt"])
    def test_one_line_series_file(self, tmp_path, capsys, command):
        # Eight values on one line are one row, not a series.
        path = tmp_path / "series.txt"
        path.write_text("1 2 3 4 5 6 7 8\n")
        if command == "psd":
            args = ["psd", "--input", path]
        else:
            cfg = write_config(tmp_path, "a.json", _SMALL_ADAPT)
            args = ["adapt", "-c", cfg, "--signal", path,
                    "--cache-dir", tmp_path / "cache"]
        assert run_cli(*args, "-o", tmp_path / "o") == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "IngestionError"
        assert "one finite value per line" in err["message"]
        assert not (tmp_path / "cache").exists()

    def test_non_numeric_adapt_signal(self, tmp_path, capsys):
        path = tmp_path / "signal.txt"
        path.write_text("abc\n")
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "sine-mixture", "seed": 3, "length": 2500}})
        assert run_cli("adapt", "-c", cfg, "--signal", path,
                       "-o", tmp_path / "o") == 3
        assert self.single_error_line(capsys)["error"] == "IngestionError"

    @pytest.mark.parametrize("command, field, value", [
        ("adapt", "lengths", 5),
        ("adapt", "density_grid", "0.2"),
        ("benchmark", "sweep", [0.5, 0.9]),
        ("benchmark", "sweep", {"values": [0.5, 0.9]}),
        ("benchmark", "sweep", {"param": "alpha", "values": 3}),
    ], ids=["adapt_lengths", "adapt_density_grid", "sweep_not_mapping",
            "sweep_no_param", "sweep_values_not_list"])
    def test_malformed_list_field(self, tmp_path, capsys, command, field,
                                  value):
        cfg = {"task": {"name": "sine-mixture", "seed": 3, "length": 2500},
               field: value}
        extra = []
        if command == "benchmark":
            cfg["reservoir"] = {"family": "ER", "n": 20}
            extra = ["--workers", 1]
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli(command, "-c", path, "-o", tmp_path / "o", *extra) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert repr(field) in err["message"]

    @pytest.mark.parametrize("text, sets", [
        ('{"reservoir": ', []),
        ('["reservoir"]', []),
        ('{"reservoir": {"family": "ER", "n": 10, "avg_degree": 2}}',
         ["reservoir.family.name=ER"]),
    ], ids=["not_json", "not_an_object", "set_through_string"])
    def test_malformed_config_file(self, tmp_path, capsys, text, sets):
        path = tmp_path / "g.json"
        path.write_text(text)
        args = [a for item in sets for a in ("--set", item)]
        assert run_cli("generate", "-c", path, "-o", tmp_path / "o",
                       *args) == 2
        assert self.single_error_line(capsys)["error"] == "ConfigError"

    @pytest.mark.parametrize("command", [
        ["spectrum"], ["psd", "--samples", 64, "--trials", 1, "--reservoir"]],
        ids=["spectrum", "psd"])
    @pytest.mark.parametrize("damage", [
        lambda doc: '{"meta": ',
        lambda doc: json.dumps([doc]),
        lambda doc: json.dumps({k: v for k, v in doc.items()
                                if k != "matrix_file"}),
        lambda doc: json.dumps(dict(doc, meta={
            k: v for k, v in doc["meta"].items() if k != "family"})),
        lambda doc: json.dumps(dict(doc, w_in=["a"] * len(doc["w_in"]))),
        lambda doc: json.dumps(dict(doc, w_in=doc["w_in"][:-1])),
        lambda doc: json.dumps(dict(doc, meta=dict(
            doc["meta"], normalization={"mode": "bogus", "value": 1.0}))),
    ], ids=["not_json", "json_list", "no_matrix_file", "meta_without_family",
            "non_numeric_w_in", "short_w_in", "unknown_normalization_mode"])
    def test_malformed_reservoir_manifest(self, tmp_path, capsys, command,
                                          damage):
        # ``damage`` maps a valid manifest to the text written in its place.
        save_reservoir(gen_er(10, 3, seed=0), tmp_path / "res")
        manifest = tmp_path / "res.json"
        manifest.write_text(damage(read_json(manifest)))
        assert run_cli(*command, manifest, "-o", tmp_path / "o") == 3
        assert self.single_error_line(capsys)["error"] == "DataError"

    @pytest.mark.parametrize("gain", [5.0, -1.0])
    def test_delay_line_input_gain(self, tmp_path, capsys, gain):
        cfg = write_config(tmp_path, "g.json", {"reservoir": {
            "family": "DELAY_LINE", "n": 10, "weight": 0.9,
            "input_gain": gain}})
        assert run_cli("generate", "-c", cfg, "-o", tmp_path / "o") == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "input_gain" in err["message"]

    # ``json`` reads and writes NaN and Infinity.
    @pytest.mark.parametrize("command, cfg, key", [
        ("generate", {"reservoir": {"family": "DELAY_LINE", "n": 10,
                                    "weight": float("nan")}}, "'weight'"),
        ("generate", {"reservoir": {"family": "SF", "n": 20, "avg_degree": 4,
                                    "gamma": float("inf")}}, "'gamma'"),
        ("generate", {"reservoir": {"family": "SF", "n": 20, "avg_degree": 4,
                                    "gamma": float("nan")}}, "'gamma'"),
        ("generate", {"reservoir": {"family": "CYCLE", "n": 20,
                                    "connectivity": 0.2,
                                    "cycle_density": {"2": float("nan")}}},
         "cycle densities"),
        ("benchmark", {"task": {"name": "sine-mixture", "seed": 1,
                                "length": 1200},
                       "reservoir": {"family": "ER", "n": 20},
                       "sweep": {"param": "alpha",
                                 "values": [0.5, float("nan")]}}, "'values'"),
        ("adapt", {"task": {"name": "sine-mixture", "seed": 1,
                            "length": 1200},
                   "mean_modulus": float("nan")}, "'mean_modulus'"),
    ], ids=["delay_line_nan_weight", "sf_inf_gamma", "sf_nan_gamma",
            "cycle_nan_density", "benchmark_nan_sweep_value",
            "adapt_nan_mean_modulus"])
    def test_non_finite_config_number(self, tmp_path, capsys, recwarn,
                                      command, cfg, key):
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli(command, "-c", path, "-o", tmp_path / "o",
                       *(["--workers", 1] if command == "benchmark" else [])) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert key in err["message"]
        assert [str(w.message) for w in recwarn] == []
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("suffix", [".mtx", ".csv"])
    def test_non_finite_matrix_file(self, tmp_path, capsys, suffix):
        W = np.eye(3)
        W[1, 2] = np.nan
        save_matrix(W, tmp_path / f"w{suffix}")
        assert run_cli("spectrum", tmp_path / f"w{suffix}",
                       "-o", tmp_path / "o") == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "DataError"
        assert "non-finite" in err["message"]

    @pytest.mark.parametrize("command", [
        ["spectrum"], ["psd", "--samples", 64, "--trials", 1, "--reservoir"]],
        ids=["spectrum", "psd"])
    @pytest.mark.parametrize("part", ["W", "w_in", "w_ofb"])
    def test_non_finite_reservoir_weights(self, tmp_path, capsys, command,
                                          part):
        res = gen_er(10, 3, seed=0, feedback=True)
        if part == "W":
            res.W.data[0] = np.nan
        else:
            getattr(res, part)[4] = np.inf
        save_reservoir(res, tmp_path / "res")
        assert run_cli(*command, tmp_path / "res.json",
                       "-o", tmp_path / "o") == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "DataError"
        assert "finite" in err["message"]

    def test_non_finite_psd_input(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("0.1\n0.2\nnan\n0.4\n")
        assert run_cli("psd", "--input", path, "-o", tmp_path / "o") == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "IngestionError"
        assert "finite" in err["message"]

    def test_non_finite_adapt_signal(self, tmp_path, capsys):
        path = tmp_path / "signal.txt"
        path.write_text("0.1\n0.2\nnan\n0.4\n")
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "sine-mixture", "seed": 3}, "lengths": [1],
            "density_grid": [0.0], "n_instances": 1, "n_seeds": 1})
        assert run_cli("adapt", "-c", cfg, "--signal", path, "-o",
                       tmp_path / "o", "--cache-dir", tmp_path / "cache") == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "IngestionError"
        assert "finite" in err["message"]
        # The series is read before any table work.
        assert not (tmp_path / "cache").exists()

    def test_non_finite_laser_sample(self, tmp_path, capsys):
        path = tmp_path / "laser.txt"
        path.write_text("1\n2\ninf\n4\n")
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "laser", "path": str(path)},
            "reservoir": {"family": "ER", "n": 20}})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "o",
                       "--workers", 1) == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "IngestionError"
        assert "laser.txt:3" in err["message"]

    def test_non_finite_psd_input_names_line(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("0.1\n0.2\nnan\n" + "0.4\n" * 8)
        assert run_cli("psd", "--input", path, "-o", tmp_path / "o") == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "IngestionError"
        assert "series.txt:3" in err["message"]

    @pytest.mark.parametrize("text", ["nan", "1_0"],
                             ids=["nan", "underscore"])
    def test_cepstral_first_channel(self, tmp_path, capsys, text):
        # A NaN exited 2 from deep in the benchmark; 1_0 read as 10.0.
        lines = []
        for recording in [[0.5, 1.0], [2.0, 1.0]] * 5:
            lines += [" ".join([str(v)] + ["0.25"] * 12)
                      for v in recording] + [""]
        lines[3] = " ".join([text] + ["0.25"] * 12)  # line 4
        path = tmp_path / "train.txt"
        path.write_text("\n".join(lines))
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "arabic-digits", "train_path": str(path),
                     "test_path": str(path)},
            "reservoir": {"family": "ER", "n": 20}})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "o",
                       "--workers", 1) == 3
        err = self.single_error_line(capsys)
        assert err["error"] == "IngestionError"
        assert "train.txt:4" in err["message"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("test_per_class", [0, -1])
    def test_empty_classification_test_set(self, tmp_path, capsys,
                                           test_per_class, workers):
        # Both exited 1 with a ZeroDivisionError traceback.
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "synthetic-classification", "n_classes": 2,
                     "per_class": 5, "test_per_class": test_per_class,
                     "length": 20},
            "reservoir": {"family": "ER", "n": 10, "avg_degree": 3}})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "o",
                       "--workers", workers) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert "test" in err["message"]
        assert not (tmp_path / "o" / "manifest.json").exists()

    @staticmethod
    def run_in_child(*args) -> tuple[int, dict]:
        """Exit status and the one JSON error line of the CLI run in a
        fresh interpreter, so that a crash fails the test, not pytest."""
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "esnkit.cli", *map(str, args)], env=env,
            capture_output=True, text=True, timeout=120)
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        return proc.returncode, json.loads(lines[0])

    _MTX_HEADER = b"%%MatrixMarket matrix coordinate real general\n3 3 1\n"

    def test_mtx_nul_byte(self, tmp_path):
        # scipy's mmread segfaulted on this file (exit 139).
        path = tmp_path / "w.mtx"
        path.write_bytes(self._MTX_HEADER + b"1 2 0.5\0\n")
        code, err = self.run_in_child("spectrum", path, "-o", tmp_path / "o")
        assert (code, err["error"]) == (3, "IngestionError")
        assert "NUL byte" in err["message"]

    def test_mtx_index_overflow(self, tmp_path):
        # mmread raises OverflowError here, which escaped as a traceback.
        path = tmp_path / "w.mtx"
        path.write_bytes(self._MTX_HEADER + b"1 99999999999999999999 0.5\n")
        code, err = self.run_in_child("spectrum", path, "-o", tmp_path / "o")
        assert (code, err["error"]) == (3, "IngestionError")
        assert "w.mtx" in err["message"]

    @pytest.mark.parametrize("task", ["laser", "arabic-digits"])
    def test_non_utf8_task_file(self, tmp_path, task):
        # Iterating the open file raised UnicodeDecodeError, a traceback.
        path = tmp_path / "data.txt"
        if task == "laser":
            path.write_bytes(b"1\n2\n\xff3\n")
            section = {"name": "laser", "path": str(path)}
        else:
            path.write_bytes(b" ".join([b"0.5"] * 12 + [b"\xff1"]) + b"\n")
            section = {"name": "arabic-digits", "train_path": str(path),
                       "test_path": str(path)}
        cfg = write_config(tmp_path, "b.json", {
            "task": section, "reservoir": {"family": "ER", "n": 20}})
        code, err = self.run_in_child("benchmark", "-c", cfg, "-o",
                                      tmp_path / "o", "--workers", 1)
        assert (code, err["error"]) == (3, "IngestionError")
        assert "data.txt" in err["message"] and "UTF-8" in err["message"]

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert run_cli("generate", "-c", tmp_path, "-o", tmp_path / "o") == 2
        assert self.single_error_line(capsys)["error"] == "ConfigError"

    @pytest.mark.parametrize("text", [
        '{"config": {}',
        '{"config_hash": "0123", "outputs": {}}',
        '{"config": {}, "outputs": {}}',
        '{"config": {}, "config_hash": "0123", "outputs": [1]}',
    ], ids=["not_json", "no_config", "no_config_hash", "outputs_not_mapping"])
    def test_malformed_manifest(self, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text)
        assert run_cli("verify", tmp_path) == 3
        assert self.single_error_line(capsys)["error"] == "DataError"

    def test_manifest_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert run_cli("verify", tmp_path) == 3
        assert self.single_error_line(capsys)["error"] == "DataError"

    @pytest.mark.parametrize("command", [
        ["psd", "--input", "{dir}"],
        ["psd", "--reservoir", "{dir}"],
        ["spectrum", "{dir}"],
        ["adapt", "-c", "{cfg}", "--signal", "{dir}"],
    ], ids=["psd_input", "psd_reservoir", "spectrum", "adapt_signal"])
    def test_input_path_is_a_directory(self, tmp_path, capsys, command):
        directory = tmp_path / "input.json"
        directory.mkdir()
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "sine-mixture", "seed": 3}, "lengths": [1],
            "density_grid": [0.0], "n_instances": 1, "n_seeds": 1})
        args = [a.format(dir=directory, cfg=cfg) for a in command]
        assert run_cli(*args, "-o", tmp_path / "o") == 3
        assert self.single_error_line(capsys)["error"] == "IsADirectoryError"

    def test_manifest_output_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gen.json", {
            "reservoir": {"family": "ER", "n": 10, "avg_degree": 2, "seed": 1}})
        out = tmp_path / "out"
        assert run_cli("generate", "-c", cfg, "-o", out) == 0
        (out / "reservoir.mtx").unlink()
        (out / "reservoir.mtx").mkdir()
        assert run_cli("verify", out) == 2
        err = self.single_error_line(capsys)
        assert err["error"] == "ConfigError"
        assert err["message"] == "missing output file reservoir.mtx"


_ABSENT = object()


def _run_quietly(*args) -> tuple[int, str]:
    """Exit code and stderr of one CLI call."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*args)
    return code, stderr.getvalue()


def _assert_clean_exit(code, stderr):
    """An exit code of the contract; a failure prints one JSON error line
    and no traceback."""
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr
    if code != 0:
        lines = stderr.strip().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


def _valid_or(valid, other):
    """Draws from ``valid`` half the time and from ``other`` otherwise."""
    return st.booleans().flatmap(lambda ok: valid if ok else other)


#: Reservoir configs around a valid ER config: each field is valid half the
#: time, and otherwise another family name, a non-string family, a number
#: of the wrong type or range, or a normalization of another shape.
_NUMBERS = (st.integers(-2, 12) | st.floats(-3.0, 12.0)
            | st.sampled_from([float("nan"), float("inf")]))
_FUZZED_RESERVOIR = st.fixed_dictionaries({
    "family": _valid_or(
        st.sampled_from(["ER", "er"]),
        st.sampled_from(["SF", "PLW", "RR", "CYCLE", "DELAY_LINE", "bogus", ""])
        | st.integers() | st.none() | st.lists(st.text(max_size=3))),
    "n": _valid_or(
        st.integers(2, 12),
        _NUMBERS | st.text(max_size=3) | st.booleans() | st.none()
        | st.just(_ABSENT)),
    "avg_degree": _valid_or(
        st.floats(0.5, 4.0),
        _NUMBERS | st.text(max_size=3) | st.just(_ABSENT)),
    "normalization": _valid_or(
        st.just(_ABSENT) | st.fixed_dictionaries({
            "mode": st.sampled_from(["spectral_radius", "avg_modulus"]),
            "value": st.floats(0.1, 2.0)}),
        st.none() | st.text(max_size=5) | st.lists(_NUMBERS, max_size=2)
        | st.dictionaries(st.sampled_from(["mode", "value", "extra"]),
                          st.sampled_from(["spectral_radius", "bogus"])
                          | _NUMBERS)),
})


#: Each family's own fields around a small valid config of that family:
#: each field is valid half the time, and otherwise drawn from ``_NUMBERS``
#: (NaN and inf among them); ``cycle_density`` also draws string keys that
#: are not lengths, and ``l1_mode`` short strings.
_FAMILY_FIELDS = {
    "DELAY_LINE": {"n": st.integers(4, 12), "weight": st.floats(0.1, 1.5),
                   "input_node": st.integers(0, 3),
                   "input_gain": st.floats(0.01, 1.0)},
    "SF": {"n": st.integers(8, 12), "avg_degree": st.floats(1.0, 3.0),
           "gamma": st.floats(2.0, 4.0)},
    "PLW": {"n": st.integers(2, 12), "avg_degree": st.floats(0.5, 1.5),
            "beta": st.floats(2.1, 4.0)},
    "RR": {"n": st.integers(4, 12), "degree": st.integers(1, 3)},
    "CYCLE": {"n": st.integers(4, 12), "connectivity": st.floats(0.1, 0.5),
              "cycle_density": st.dictionaries(
                  st.sampled_from(["1", "2", "3"]), st.floats(-0.3, 0.3),
                  max_size=2),
              "l1_mode": st.sampled_from(["weight_mix", "edge_count"])},
}
_FAMILY_JUNK = {
    "cycle_density": _NUMBERS
    | st.dictionaries(st.sampled_from(["1", "2", "3"]), _NUMBERS,
                      min_size=1, max_size=2)
    | st.dictionaries(st.sampled_from(["0", "-1", "a", "1.5", ""]),
                      st.floats(-0.3, 0.3), min_size=1, max_size=1),
    "l1_mode": _NUMBERS | st.text(max_size=3),
}
_FUZZED_FAMILY = st.sampled_from(sorted(_FAMILY_FIELDS)).flatmap(
    lambda family: st.fixed_dictionaries({
        key: _valid_or(valid, _FAMILY_JUNK.get(key, _NUMBERS))
        for key, valid in _FAMILY_FIELDS[family].items()}).map(
        lambda fields: dict(fields, family=family)))


class TestGenerateFuzz:
    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_RESERVOIR)
    def test_exit_codes_and_one_error_line(self, reservoir):
        reservoir = {k: v for k, v in reservoir.items() if v is not _ABSENT}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), "g.json",
                               {"reservoir": dict(reservoir, seed=0)})
            _assert_clean_exit(*_run_quietly(
                "generate", "-c", cfg, "-o", Path(tmp) / "o"))

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_FAMILY)
    def test_family_fields(self, reservoir):
        # A reservoir that is written holds only finite weights.
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), "g.json", {"reservoir": reservoir})
            code, stderr = _run_quietly("generate", "-c", cfg,
                                        "-o", Path(tmp) / "o")
            _assert_clean_exit(code, stderr)
            if code == 0:
                doc = read_json(Path(tmp) / "o" / "reservoir.json")
                W = scipy.io.mmread(Path(tmp) / "o" / "reservoir.mtx")
                assert np.isfinite(sp.coo_array(W).data).all()
                assert np.isfinite(doc["w_in"] + doc["w_ofb"]).all()


#: A tiny forecasting task, so that a fuzzed config that does run is quick.
_TINY_TASK = {"name": "sine-mixture", "seed": 1, "length": 1200}

#: A tiny Mackey-Glass task; unlike the sine mixture, it sets the size of
#: its reservoirs, which are ``2 * 1.2 / 8 = 0.3`` connected.
_TINY_MG = {"name": "mackey-glass", "seed": 1, "length": 600, "n_neurons": 8,
            "avg_degree": 1.2, "washout": 100, "horizon": 5}

#: ``sweep`` shapes: half the time a valid sweep (or none), otherwise
#: another type, a mapping with missing, misspelt or mistyped keys, or
#: values of the wrong type or range for their parameter.
_FUZZED_SWEEP = _valid_or(
    st.just(_ABSENT) | st.none() | st.fixed_dictionaries({
        "param": st.sampled_from(["alpha", "avg_modulus", "avg_degree"]),
        "values": st.lists(st.floats(0.2, 1.2), min_size=1, max_size=2)}),
    _NUMBERS | st.text(max_size=3) | st.lists(_NUMBERS, max_size=2)
    | st.dictionaries(
        st.sampled_from(["param", "values", "extra"]),
        st.sampled_from(["alpha", "n", "cycle_density:2", "bogus"])
        | _NUMBERS | st.none()
        | st.lists(_NUMBERS | st.text(max_size=2) | st.none()
                   | st.booleans(), max_size=2)))

#: ``lengths`` and ``density_grid`` shapes for ``adapt``: valid short
#: lists half the time, otherwise scalars, strings, nulls or lists holding
#: out-of-range, non-finite or non-numeric entries.
_FUZZED_LENGTHS = _valid_or(
    st.lists(st.integers(1, 2), min_size=1, max_size=2),
    _NUMBERS | st.text(max_size=3) | st.dictionaries(st.text(max_size=1),
                                                     _NUMBERS, max_size=1)
    | st.lists(_NUMBERS | st.text(max_size=2) | st.none(), max_size=2))
_FUZZED_GRID = _valid_or(
    st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=2),
    _NUMBERS | st.text(max_size=3)
    | st.lists(_NUMBERS | st.text(max_size=2) | st.none(), max_size=2))


#: Values of another type or range than a field's: strings, nulls, bools,
#: floats where an int belongs, lists and mappings.
_JUNK = (_NUMBERS | st.text(max_size=3) | st.none() | st.booleans()
         | st.lists(_NUMBERS | st.text(max_size=2), max_size=2)
         | st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=1))

#: Misspelt or unknown top-level keys.
_UNKNOWN_KEYS = st.dictionaries(
    st.sampled_from(["ensmble", "seedbase", "Ridge", "n_seed", "tau"]),
    _NUMBERS, min_size=1, max_size=1)


def _fuzzed_fields(fixed: dict, valid: dict):
    """Configs holding ``fixed`` and each field of ``valid``: the field is
    drawn from its strategy half the time and from ``_JUNK`` otherwise, and
    half the time the config also holds an unknown key."""
    return st.tuples(
        st.fixed_dictionaries({key: _valid_or(strategy, _JUNK)
                               for key, strategy in valid.items()}),
        _valid_or(st.just({}), _UNKNOWN_KEYS),
    ).map(lambda drawn: {**fixed, **drawn[1], **{
        key: value for key, value in drawn[0].items()
        if value is not _ABSENT}})


_OPTIONAL_SEED = st.just(_ABSENT) | st.integers(0, 3)

_FUZZED_MEMORY = _fuzzed_fields(
    {"reservoir": {"family": "ER", "n": 10, "avg_degree": 3}},
    {"ensemble": st.just(_ABSENT) | st.integers(1, 2),
     "seed_base": _OPTIONAL_SEED,
     "T": st.integers(200, 400),
     "tau_max": st.just(_ABSENT) | st.none() | st.integers(1, 10),
     "input_kind": st.sampled_from([_ABSENT, "uniform", "gaussian"])})

#: Task sections whose ``seed`` and ``length`` are each valid half the time.
_FUZZED_TASK = st.fixed_dictionaries({
    "name": st.just("sine-mixture"),
    "seed": _valid_or(_OPTIONAL_SEED | st.lists(st.integers(0, 3),
                                                min_size=1, max_size=2),
                      _JUNK | st.lists(_JUNK, min_size=1, max_size=2)),
    "length": _valid_or(st.just(1200), _JUNK | st.integers(-5, 40)),
}).map(lambda task: {k: v for k, v in task.items() if v is not _ABSENT})

_FUZZED_BENCHMARK = _fuzzed_fields(
    {"task": _TINY_TASK,
     "reservoir": {"family": "ER", "n": 10, "avg_degree": 3}},
    {"ensemble": st.just(_ABSENT) | st.integers(1, 2),
     "seed_base": _OPTIONAL_SEED,
     "bins": st.just(_ABSENT) | st.integers(1, 3)})

#: Fields that are expensive at their defaults are never left out.
_SMALL_ADAPT = {"task": _TINY_MG, "lengths": [1], "density_grid": [0.0, 0.5],
                "n_instances": 1, "response_samples": 64, "n_seeds": 1}
_ADAPT_FIELDS = {"mean_modulus": st.just(_ABSENT) | st.floats(0.3, 0.9),
                 "n_seeds": st.integers(1, 2),
                 "seed_base": _OPTIONAL_SEED,
                 "table_seed": _OPTIONAL_SEED,
                 "response_samples": st.integers(32, 64)}
#: Half the time every field is valid, so that the whole pipeline runs.
_FUZZED_ADAPT = _valid_or(
    st.fixed_dictionaries(_ADAPT_FIELDS).map(lambda drawn: {
        **_SMALL_ADAPT,
        **{key: value for key, value in drawn.items() if value is not _ABSENT}}),
    _fuzzed_fields(_SMALL_ADAPT, _ADAPT_FIELDS))


class TestCommandFieldsFuzz:
    @staticmethod
    def run(command, cfg, *extra) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), "c.json", cfg)
            code, stderr = _run_quietly(command, "-c", path,
                                        "-o", Path(tmp) / "o", *extra)
        _assert_clean_exit(code, stderr)
        return code

    # Most draws fail fast on a junk field; those that pass are the cost.
    @settings(max_examples=250, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_MEMORY)
    def test_memory(self, cfg):
        self.run("memory", cfg)

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_BENCHMARK)
    def test_benchmark(self, cfg):
        self.run("benchmark", cfg, "--workers", 1)

    def test_adapt(self):
        codes = []

        @settings(max_examples=100, derandomize=True, database=None,
                  deadline=None)
        @given(_FUZZED_ADAPT)
        def fuzz(cfg):
            codes.append(self.run("adapt", cfg))

        fuzz()
        # Some draws get past every check and run the whole pipeline.
        assert 0 in codes

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_TASK)
    def test_task_section(self, task):
        self.run("benchmark", {
            "task": task, "reservoir": {"family": "ER", "n": 10,
                                        "avg_degree": 3}}, "--workers", 1)


class TestBenchmarkAdaptFuzz:
    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_SWEEP)
    def test_benchmark_sweep(self, sweep):
        cfg = {"task": _TINY_TASK,
               "reservoir": {"family": "ER", "n": 10, "avg_degree": 3},
               "ensemble": 1}
        if sweep is not _ABSENT:
            cfg["sweep"] = sweep
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), "b.json", cfg)
            _assert_clean_exit(*_run_quietly(
                "benchmark", "-c", path, "-o", Path(tmp) / "o",
                "--workers", 1))

    @settings(max_examples=80, derandomize=True, database=None,
              deadline=None)
    @given(_FUZZED_LENGTHS, _FUZZED_GRID)
    def test_adapt_lengths_and_grid(self, lengths, density_grid):
        cfg = {"task": _TINY_MG,
               "lengths": lengths, "density_grid": density_grid,
               "n_instances": 1, "response_samples": 64, "n_seeds": 2}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), "a.json", cfg)
            _assert_clean_exit(*_run_quietly(
                "adapt", "-c", path, "-o", Path(tmp) / "o",
                "--cache-dir", Path(tmp) / "cache"))


class TestMemoryCommand:
    def test_small_ensemble(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "reservoir": {"family": "ER", "n": 30, "avg_degree": 5},
            "ensemble": 2, "T": 1200, "tau_max": 20, "seed_base": 3})
        out = tmp_path / "mem"
        assert run_cli("memory", "-c", cfg, "-o", out) == 0
        doc = read_json(out / "memory.json")
        assert len(doc["members"]) == 2
        for member in doc["members"]:
            assert 0 <= member["total"] <= 20
        assert (out / "memory.csv").read_text().startswith("# config_hash=")

    def test_numeric_strings_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.json", {
            "reservoir": {"family": "ER", "n": 20, "avg_degree": 4},
            "ensemble": "2", "T": "600", "tau_max": "10"})
        assert run_cli("memory", "-c", cfg, "-o", tmp_path / "mem") == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ParameterError"
        assert "'ensemble'" in err["message"]

    @pytest.mark.parametrize("T", [-1, -2])
    def test_negative_length(self, tmp_path, capsys, T):
        cfg = write_config(tmp_path, "m.json", {
            "reservoir": {"family": "ER", "n": 10, "avg_degree": 3}})
        assert run_cli("memory", "-c", cfg, "--set", f"T={T}",
                       "-o", tmp_path / "mem") == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ParameterError"
        assert "T must be >= 1" in err["message"]

    def test_one_decomposition_per_member(self, tmp_path, eig_calls):
        cfg = write_config(tmp_path, "m.json", {
            "reservoir": {"family": "ER", "n": 30, "avg_degree": 5},
            "ensemble": 2, "T": 600, "tau_max": 10})
        assert run_cli("memory", "-c", cfg, "-o", tmp_path / "mem") == 0
        assert eig_calls == [(30, 30), (30, 30)]
        doc = read_json(tmp_path / "mem" / "memory.json")
        for member in doc["members"]:
            assert member["avg_modulus"] > 0


class TestPsdCommand:
    def test_series_input(self, tmp_path, rng):
        series = tmp_path / "series.txt"
        np.savetxt(series, np.sin(0.3 * np.arange(256)))
        out = tmp_path / "psd"
        assert run_cli("psd", "--input", series, "-o", out) == 0
        data = np.loadtxt(out / "psd.csv", delimiter=",")
        assert data.shape == (129, 2)

    def test_reservoir_input(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", {
            "reservoir": {"family": "ER", "n": 20, "avg_degree": 4, "seed": 0}})
        run_cli("generate", "-c", cfg, "-o", tmp_path / "g")
        out = tmp_path / "psd"
        assert run_cli("psd", "--reservoir", tmp_path / "g" / "reservoir.json",
                       "--trials", 2, "--samples", 128, "-o", out) == 0
        assert (out / "psd.csv").exists()

    def test_requires_exactly_one_source(self, tmp_path):
        assert run_cli("psd", "-o", tmp_path) == 2


class TestBenchmarkCommand:
    def test_sweep_produces_report(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "sine-mixture", "seed": 1, "length": 1500},
            "reservoir": {"family": "ER", "n": 30},
            "sweep": {"param": "alpha", "values": [0.5, 0.9]},
            "ensemble": 3, "seed_base": 0, "bins": 3})
        out = tmp_path / "bench"
        assert run_cli("benchmark", "-c", cfg, "-o", out, "--workers", 1) == 0
        report = read_json(out / "benchmark.json")
        assert report["n_runs"] == 6
        assert len(report["bins"]) == 3
        assert set(report["per_sweep_median"]) == {"0.5", "0.9"}
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 6  # hash comment + header + rows

    def test_deterministic_reports(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "sine-mixture", "seed": 1, "length": 1200},
            "reservoir": {"family": "ER", "n": 25},
            "ensemble": 2, "seed_base": 7})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("benchmark", "-c", cfg, "-o", out1, "--workers", 1)
        run_cli("benchmark", "-c", cfg, "-o", out2, "--workers", 1)
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()
        assert (out1 / "benchmark.json").read_bytes() == \
            (out2 / "benchmark.json").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "sine-mixture", "seed": 2, "length": 1200},
            "reservoir": {"family": "ER", "n": 25},
            "ensemble": 4, "seed_base": 1})
        serial, parallel = tmp_path / "s", tmp_path / "p"
        run_cli("benchmark", "-c", cfg, "-o", serial, "--workers", 1)
        run_cli("benchmark", "-c", cfg, "-o", parallel, "--workers", 2)
        for name in ("results.csv", "benchmark.json"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_payloads_leave_out_the_bundle(self, tmp_path, monkeypatch):
        # Pool workers get the task bundle once, through the initializer.
        sent = []

        class Recording(cli.ProcessPoolExecutor):
            def map(self, fn, payloads):
                payloads = list(payloads)
                sent.extend(pickle.dumps(p) for p in payloads)
                return super().map(fn, payloads)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "sine-mixture", "seed": 2, "length": 1200},
            "reservoir": {"family": "ER", "n": 25}, "ensemble": 3})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "b",
                       "--workers", 2) == 0
        assert len(sent) == 3
        assert not any(b"TaskBundle" in data for data in sent)
        assert cli._shared is None

    def test_parallel_matches_serial_mackey_glass(self, tmp_path):
        # n=100 is large enough for OpenBLAS to use more than one thread,
        # unlike the n=25 case above.
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "mackey-glass", "seed": 2, "length": 3000},
            "reservoir": {"family": "ER", "n": 100},
            "ensemble": 4, "seed_base": 1})
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run_cli("benchmark", "-c", cfg, "-o", serial,
                       "--workers", 1) == 0
        assert run_cli("benchmark", "-c", cfg, "-o", parallel,
                       "--workers", 2) == 0
        assert (serial / "results.csv").read_bytes() == \
            (parallel / "results.csv").read_bytes()

    def test_one_decomposition_per_member(self, tmp_path, eig_calls):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "sine-mixture", "seed": 1, "length": 1200},
            "reservoir": {"family": "ER", "n": 25},
            "sweep": {"param": "alpha", "values": [0.5, 0.9]},
            "ensemble": 2})
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "b",
                       "--workers", 1) == 0
        assert eig_calls == [(25, 25)] * 4

    def test_classification_task(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "synthetic-classification", "n_classes": 3,
                     "per_class": 20, "length": 40, "seed": 4,
                     "test_per_class": 4},
            "reservoir": {"family": "ER", "n": 40},
            "ensemble": 2, "seed_base": 0})
        out = tmp_path / "cls"
        assert run_cli("benchmark", "-c", cfg, "-o", out, "--workers", 1) == 0
        report = read_json(out / "benchmark.json")
        medians = list(report["per_sweep_median"].values())
        assert 0.0 <= medians[0] <= 1.0

    def test_delay_line_sweep(self, tmp_path):
        # A delay line has no feedback parameter, so the task's default
        # feedback is not filled in for it.
        cfg = write_config(tmp_path, "b.json", {
            "task": {"name": "synthetic-classification", "n_classes": 3,
                     "per_class": 10, "length": 40, "seed": 4,
                     "test_per_class": 4},
            "reservoir": {"family": "DELAY_LINE", "weight": 0.9},
            "sweep": {"param": "weight", "values": [0.5, 0.9]}})
        out = tmp_path / "dl"
        assert run_cli("benchmark", "-c", cfg, "-o", out, "--workers", 1) == 0
        rows = list(csv.reader((out / "results.csv").read_text()
                               .splitlines()[2:]))
        assert [row[2] for row in rows] == ["0.500000", "0.900000"]

    def test_cycle_family_takes_connectivity_from_task(self, tmp_path):
        task = dict(_TINY_MG, n_neurons=12, avg_degree=3)
        cfg = write_config(tmp_path, "b.json", {
            "task": task,
            "reservoir": {"family": "CYCLE", "cycle_density": {"2": 0.3}}})
        out = tmp_path / "cyc"
        assert run_cli("benchmark", "-c", cfg, "-o", out, "--workers", 1) == 0
        # 2 * avg_degree / n_neurons, at the task's feedback.
        want = make_reservoir("CYCLE", n=12, connectivity=0.5,
                              cycle_density={"2": 0.3}, seed=[0, 0, 0],
                              feedback=True)
        with _single_blas_thread():
            score = benchmark(cli.task_from_config(task), want)
        rows = list(csv.reader((out / "results.csv").read_text()
                               .splitlines()[2:]))
        assert [row[4] for row in rows] == [f"{score:.8f}"]


def _blas_threads(controls) -> list[int]:
    return [get() for _, get in controls]


@pytest.fixture
def blas_two_threads():
    """Every loaded OpenBLAS on two threads while the test runs, so that a
    count of one can only come from the command; afterwards each gets its
    own count back."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread setter found")
    saved = _blas_threads(controls)
    for set_threads, _ in controls:
        set_threads(2)
    yield controls
    for (set_threads, _), count in zip(controls, saved):
        set_threads(count)


def _member_blas_threads(bundle, reservoir):
    """Stands in for ``benchmark``: the member's score is the largest
    thread count of the OpenBLAS libraries in the process that runs it."""
    return float(max(_blas_threads(_openblas_thread_controls())))


class TestBenchmarkBlasThreads:
    CONFIG = {"task": {"name": "sine-mixture", "seed": 1, "length": 1200},
              "reservoir": {"family": "ER", "n": 25},
              "ensemble": 4, "seed_base": 0}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_members_run_one_thread(self, tmp_path, monkeypatch,
                                    blas_two_threads, workers):
        # Pool workers see the patched ``benchmark`` because they are forked.
        assert multiprocessing.get_start_method() == "fork"
        monkeypatch.setattr(cli, "benchmark", _member_blas_threads)
        cfg = write_config(tmp_path, "b.json", self.CONFIG)
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "b",
                       "--workers", workers) == 0
        with open(tmp_path / "b" / "results.csv") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        assert [float(r["performance"]) for r in rows] == [1.0] * 4

    def test_caller_threads_restored(self, tmp_path, blas_two_threads):
        cfg = write_config(tmp_path, "b.json", self.CONFIG)
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "b",
                       "--workers", 1) == 0
        assert set(_blas_threads(blas_two_threads)) == {2}

    def test_caller_threads_restored_after_error(self, tmp_path,
                                                 blas_two_threads):
        # The unknown key fails inside the first member.
        cfg = write_config(tmp_path, "b.json", dict(
            self.CONFIG, reservoir={"family": "ER", "n": 25, "bogus": 1}))
        assert run_cli("benchmark", "-c", cfg, "-o", tmp_path / "b",
                       "--workers", 1) == 2
        assert set(_blas_threads(blas_two_threads)) == {2}


def _memory_blas_threads(reservoir, *, T, tau_max, seed, input_kind):
    """Stands in for ``memory_capacity``: the member's total is the largest
    thread count of the OpenBLAS libraries in the process that runs it."""
    threads = max(_blas_threads(_openblas_thread_controls()))
    return MemoryProfile(per_delay=np.zeros(1), total=float(threads),
                         tau_max_used=1, input_kind=input_kind)


class TestMemoryBlasThreads:
    CONFIG = {"reservoir": {"family": "ER", "n": 100, "avg_degree": 10},
              "ensemble": 3, "T": 1200, "tau_max": 20, "seed_base": 5}

    def test_members_run_one_thread(self, tmp_path, monkeypatch,
                                    blas_two_threads):
        monkeypatch.setattr(cli, "memory_capacity", _memory_blas_threads)
        cfg = write_config(tmp_path, "m.json", self.CONFIG)
        assert run_cli("memory", "-c", cfg, "-o", tmp_path / "m") == 0
        members = read_json(tmp_path / "m" / "memory.json")["members"]
        assert [m["total"] for m in members] == [1.0] * 3

    def test_caller_threads_restored(self, tmp_path, blas_two_threads):
        cfg = write_config(tmp_path, "m.json", dict(self.CONFIG, ensemble=1))
        assert run_cli("memory", "-c", cfg, "-o", tmp_path / "m") == 0
        assert set(_blas_threads(blas_two_threads)) == {2}

    def test_caller_threads_restored_after_error(self, tmp_path,
                                                 blas_two_threads):
        # The unknown key fails inside the first member.
        cfg = write_config(tmp_path, "m.json", dict(
            self.CONFIG, reservoir={"family": "ER", "n": 25, "bogus": 1}))
        assert run_cli("memory", "-c", cfg, "-o", tmp_path / "m") == 2
        assert set(_blas_threads(blas_two_threads)) == {2}

    def test_matches_single_thread_members(self, tmp_path, blas_two_threads):
        cfg = write_config(tmp_path, "m.json", self.CONFIG)
        assert run_cli("memory", "-c", cfg, "-o", tmp_path / "m") == 0
        chash = cli.config_hash(self.CONFIG)
        rows = []
        with _single_blas_thread():
            for member in range(self.CONFIG["ensemble"]):
                built = cli.reservoir_from_config(self.CONFIG["reservoir"],
                                                  [5, member])
                doc = cli.memory_profile_to_dict(cli.memory_capacity(
                    built, T=1200, tau_max=20, seed=[5, member, 1],
                    input_kind="uniform"))
                doc.update(member=member, config_hash=chash,
                           avg_modulus=float(np.mean(np.abs(
                               built.eigenvalues()))))
                rows.append(doc)
        write_json({"config_hash": chash, "members": rows},
                   tmp_path / "want.json")
        assert (tmp_path / "m" / "memory.json").read_bytes() == \
            (tmp_path / "want.json").read_bytes()


class TestAdaptCommand:
    def test_small_adaptation(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", {
            "task": dict(_TINY_MG, length=2500, n_neurons=40, avg_degree=4),
            "lengths": [1, 2], "density_grid": [-0.4, 0.0, 0.4],
            "n_instances": 2, "response_samples": 256,
            "n_seeds": 3, "mean_modulus": 0.55})
        out = tmp_path / "adapt"
        cache = tmp_path / "cache"
        assert run_cli("adapt", "-c", cfg, "-o", out,
                       "--cache-dir", cache) == 0
        report = read_json(out / "adaptation.json")
        assert set(report["selected"]) == {"1", "2"}
        combined_budget = sum(abs(v) for v in report["combined"].values())
        assert combined_budget <= 1.0 + 1e-9
        assert list(cache.glob("response_table_*"))
        # cached rerun gives identical output
        out2 = tmp_path / "adapt2"
        assert run_cli("adapt", "-c", cfg, "-o", out2,
                       "--cache-dir", cache) == 0
        assert (out / "adaptation.json").read_bytes() == \
            (out2 / "adaptation.json").read_bytes()

    def test_density_that_places_no_cycle(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.json", {
            "task": {"name": "mackey-glass", "seed": 0, "length": 600,
                     "washout": 100, "horizon": 5, "n_neurons": 20,
                     "avg_degree": 2},
            "lengths": [3], "density_grid": [0.05], "n_instances": 1,
            "n_seeds": 3})
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o") == 2
        err = TestErrors.single_error_line(capsys)
        assert err["error"] == "ParameterError"
        assert err["message"] == ("density 0.05 places no cycle of length 3 "
                                  "in the task's n=20 reservoir")

    def test_table_cache_key_is_stable(self, tmp_path):
        # The key hashes the table's parameters, the 100-step response
        # washout among them; a change to it orphans every cached table.
        cfg = write_config(tmp_path, "a.json", _SMALL_ADAPT)
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o",
                       "--cache-dir", tmp_path / "cache") == 0
        assert [d.name for d in (tmp_path / "cache").iterdir()] == [
            "response_table_744518bb59380da0"]

    def test_table_and_validation_build_the_same_reservoirs(self, tmp_path,
                                                           monkeypatch):
        calls = []
        signature = inspect.signature(reservoirs.gen_combined)

        @functools.wraps(reservoirs.gen_combined)
        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(tuple(bound.arguments[key] for key in (
                "n", "connectivity", "normalization", "feedback")))
            return spy.__wrapped__(*args, **kwargs)

        monkeypatch.setattr(reservoirs, "gen_combined", spy)
        monkeypatch.setattr(benchmarks, "gen_combined", spy)
        cfg = write_config(tmp_path, "a.json", dict(
            _SMALL_ADAPT, task=dict(_TINY_MG, n_neurons=12, avg_degree=3),
            lengths=[1, 2], density_grid=[-0.4, 0.0, 0.4], n_seeds=2))
        assert run_cli("adapt", "-c", cfg, "-o", tmp_path / "o") == 0
        # 6 table reservoirs, then at least the two of the baseline.
        assert len(calls) >= 6 + 2
        assert set(calls) == {
            (12, 0.5, Normalization("avg_modulus", 0.6), True)}


def _readme_config_fields() -> dict[str, set[str]]:
    """Command -> field names of the README's block of top-level config
    fields: a command starts a line, its fields are the ``name:`` entries
    of that line and of the indented lines under it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    _, _, after = readme.partition("Top-level fields of each config command")
    block = after.split("```")[1]
    fields: dict[str, set[str]] = {}
    for line in block.strip("\n").splitlines():
        if not line.startswith(" "):
            command, _, line = line.partition(" ")
            fields[command] = set()
        fields[command].update(re.findall(r"(\w+):", line))
    return fields


def test_readme_config_fields_match_the_commands():
    documented = _readme_config_fields()
    assert sorted(documented) == ["adapt", "benchmark", "generate", "memory"]
    for command, names in documented.items():
        body = getattr(cli, f"cmd_{command}").__wrapped__
        keyword_only = {p.name for p in
                        inspect.signature(body).parameters.values()
                        if p.kind is inspect.Parameter.KEYWORD_ONLY}
        assert names == keyword_only, command
