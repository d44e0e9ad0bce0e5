import json
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import scipy.sparse as sp

from esnkit.errors import DataError
from esnkit.metrics import MemoryProfile
from esnkit.reservoirs import (Normalization, Reservoir, ReservoirMeta,
                               gen_cycle_enhanced, gen_er)
from esnkit.signals import PsdProfile
from esnkit.spectral import SpectrumReport, eigenvalues, spectrum_report
from esnkit.storage import (
    _plain,
    load_matrix,
    load_reservoir,
    psd_to_csv,
    save_matrix,
    save_reservoir,
    write_json,
)


class TestMatrixFormats:
    def test_matrix_market_round_trip(self, tmp_path, rng):
        res = gen_er(30, 4, seed=1)
        path = tmp_path / "w.mtx"
        save_matrix(res.W, path)
        loaded = load_matrix(path)
        assert_allclose(loaded.toarray(), res.W.toarray(), rtol=1e-12)

    def test_csv_round_trip(self, tmp_path, rng):
        W = rng.standard_normal((6, 6))
        path = tmp_path / "w.csv"
        save_matrix(W, path)
        assert_allclose(load_matrix(path).toarray(), W, rtol=1e-12)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataError):
            save_matrix(np.eye(2), tmp_path / "w.npy")
        with pytest.raises(DataError):
            load_matrix(tmp_path / "missing.mtx")


class TestReservoirRoundTrip:
    def test_full_round_trip(self, tmp_path):
        res = gen_cycle_enhanced(50, 0.1, 2, -0.4, seed=9,
                                 normalization=Normalization("avg_modulus", 0.5),
                                 feedback=True)
        save_reservoir(res, tmp_path / "res")
        loaded = load_reservoir(tmp_path / "res.json")
        assert_allclose(loaded.W.toarray(), res.W.toarray(), rtol=1e-12)
        assert_array_equal(loaded.w_in, res.w_in)
        assert_array_equal(loaded.w_ofb, res.w_ofb)
        assert loaded.meta.family == "CYCLE"
        assert loaded.meta.target_cycle_density == {2: -0.4}
        assert loaded.meta.normalization == res.meta.normalization

    @pytest.mark.parametrize("seed, stored", [
        (np.int64(3), 3), ([np.int64(4), 2], [4, 2]), ((5, 6), [5, 6])])
    def test_numpy_integer_seeds(self, tmp_path, seed, stored):
        res = gen_er(10, 3, seed=seed)
        save_reservoir(res, tmp_path / "res")
        doc = json.loads((tmp_path / "res.json").read_text())
        assert doc["meta"]["seed"] == stored
        loaded = load_reservoir(tmp_path / "res.json")
        assert loaded.meta.seed == stored
        assert_array_equal(loaded.W.toarray(), res.W.toarray())


class TestReports:
    def test_spectrum_round_trip(self, rng):
        report = spectrum_report(rng.standard_normal((12, 12)), n_bins=6)
        doc = json.loads(json.dumps(asdict(report), default=_plain))
        back = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
        assert_array_equal(back, report.eigenvalues)
        assert doc["spectral_radius"] == report.spectral_radius
        assert doc["avg_modulus"] == report.avg_modulus
        assert [tuple(b) for b in doc["modulus_histogram"]] == \
            report.modulus_histogram

    def test_psd_csv_round_trip(self, tmp_path, rng):
        profile = PsdProfile(freqs=np.fft.rfftfreq(64),
                             power=np.abs(rng.standard_normal(33)),
                             n_averages=5)
        psd_to_csv(profile, tmp_path / "p.csv")
        assert "n_averages=5" in (tmp_path / "p.csv").read_text()
        back = np.loadtxt(tmp_path / "p.csv", delimiter=",")
        assert_allclose(back[:, 0], profile.freqs, atol=1e-12)
        assert_allclose(back[:, 1], profile.power, rtol=1e-8)

    def test_psd_json_round_trip(self, rng):
        profile = PsdProfile(freqs=np.fft.rfftfreq(32),
                             power=np.abs(rng.standard_normal(17)),
                             n_averages=3)
        doc = json.loads(json.dumps(asdict(profile), default=_plain))
        assert_array_equal(doc["freqs"], profile.freqs)
        assert_array_equal(doc["power"], profile.power)
        assert doc["n_averages"] == 3


class TestPlain:
    @pytest.mark.parametrize("value, text", [
        (np.int64(3), "3"),
        ([np.int64(4), 2], "[4, 2]"),
        ((5, 6), "[5, 6]"),
        (np.array([0.5 + 0.25j, -1.0 + 0.0j]), "[[0.5, 0.25], [-1.0, 0.0]]"),
        (np.array([0.5, -0.25]), "[0.5, -0.25]"),
    ], ids=["int64_seed", "int64_seed_list", "tuple_seed", "complex_array",
            "real_array"])
    def test_numpy_values(self, value, text):
        assert json.dumps(value, default=_plain) == text

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, Normalization("avg_modulus", 0.5)],
        ids=["object", "set", "dataclass"])
    def test_anything_else_raises(self, value):
        with pytest.raises(TypeError):
            _plain(value)


def _json_text(doc) -> str:
    """The text ``write_json`` gives a document of plain Python values."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestWriteJson:
    def test_real_spectrum_as_pairs(self, tmp_path):
        # The spectrum of a diagonal matrix is all real.
        report = SpectrumReport(
            eigenvalues=eigenvalues(np.diag([0.5, -0.25])),
            spectral_radius=0.5, avg_modulus=0.375,
            modulus_histogram=[(0.125, 0.0), (0.375, 4.0)])
        write_json(asdict(report), tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == _json_text({
            "avg_modulus": 0.375, "eigenvalues": [[0.5, 0.0], [-0.25, 0.0]],
            "modulus_histogram": [[0.125, 0.0], [0.375, 4.0]],
            "spectral_radius": 0.5})

    def test_complex_spectrum(self, tmp_path):
        report = SpectrumReport(
            eigenvalues=np.array([0.5 + 0.25j, 0.5 - 0.25j]),
            spectral_radius=0.5590169943749475,
            avg_modulus=0.5590169943749475,
            modulus_histogram=[(0.5590169943749475, 1.0)])
        write_json(asdict(report), tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == _json_text({
            "avg_modulus": 0.5590169943749475,
            "eigenvalues": [[0.5, 0.25], [0.5, -0.25]],
            "modulus_histogram": [[0.5590169943749475, 1.0]],
            "spectral_radius": 0.5590169943749475})

    def test_psd_profile(self, tmp_path):
        profile = PsdProfile(freqs=np.array([0.0, 0.25, 0.5]),
                             power=np.array([1.0, 2.5, 0.125]), n_averages=3)
        write_json(asdict(profile), tmp_path / "p.json")
        assert (tmp_path / "p.json").read_text() == _json_text({
            "freqs": [0.0, 0.25, 0.5], "n_averages": 3,
            "power": [1.0, 2.5, 0.125]})

    def test_memory_profile(self, tmp_path):
        profile = MemoryProfile(per_delay=np.array([0.75, 0.5]), total=1.25,
                                tau_max_used=2, input_kind="uniform")
        write_json(asdict(profile), tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == _json_text({
            "input_kind": "uniform", "per_delay": [0.75, 0.5],
            "tau_max_used": 2, "total": 1.25})

    def test_reservoir_manifest(self, tmp_path):
        # Cycle lengths stay string keys in string order; numpy seeds and
        # weights are written as plain numbers.
        res = Reservoir(
            W=sp.csr_array(np.array([[0.0, 0.5], [0.25, 0.0]])),
            w_in=np.array([1.0, -1.0]), w_ofb=np.zeros(2),
            meta=ReservoirMeta(
                family="CYCLE", n=2, avg_degree=1.0, seed=[np.int64(4), 2],
                target_cycle_density={1: 0.25, 2: -0.5, 10: 0.125},
                normalization=Normalization("avg_modulus", 0.5)))
        save_reservoir(res, tmp_path / "res")
        assert (tmp_path / "res.json").read_text() == _json_text({
            "matrix_file": "res.mtx",
            "meta": {"avg_degree": 1.0, "family": "CYCLE", "n": 2,
                     "normalization": {"mode": "avg_modulus", "value": 0.5},
                     "params": {}, "seed": [4, 2],
                     "target_cycle_density": {"1": 0.25, "10": 0.125,
                                              "2": -0.5},
                     "warnings": []},
            "w_in": [1.0, -1.0], "w_ofb": [0.0, 0.0]})
