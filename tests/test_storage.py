import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from esnkit.errors import DataError
from esnkit.reservoirs import Normalization, gen_cycle_enhanced, gen_er
from esnkit.signals import PsdProfile
from esnkit.spectral import spectrum_report
from esnkit.storage import (
    load_matrix,
    load_reservoir,
    psd_to_csv,
    psd_to_dict,
    save_matrix,
    save_reservoir,
    spectrum_to_dict,
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
        doc = json.loads(json.dumps(spectrum_to_dict(report)))
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
        doc = json.loads(json.dumps(psd_to_dict(profile)))
        assert_array_equal(doc["freqs"], profile.freqs)
        assert_array_equal(doc["power"], profile.power)
        assert doc["n_averages"] == 3
