import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from esnkit.errors import IngestionError, ParameterError
from esnkit.signals import periodogram
from esnkit.tasks import (
    gen_mackey_glass,
    gen_sine_mixture,
    gen_synthetic_classification,
    load_arabic_digits,
    load_laser,
    mackey_glass_bundle,
    read_series,
    sine_mixture_bundle,
)
from oracles import synthetic_recording


class TestMackeyGlass:
    def test_deterministic(self):
        a = gen_mackey_glass(500, seed=3)
        b = gen_mackey_glass(500, seed=3)
        assert_array_equal(a, b)

    def test_noiseless_deterministic_and_clean(self):
        a = gen_mackey_glass(500, seed=3, noise_sigma=0.0)
        b = gen_mackey_glass(500, seed=3, noise_sigma=0.05)
        assert not np.allclose(a, b)
        assert np.isfinite(a).all()

    def test_raw_trajectory_in_attractor_band(self):
        s = gen_mackey_glass(4000, seed=1, noise_sigma=0.0, normalize=False)
        assert 0.2 < s.min() and s.max() < 1.5

    def test_normalized_moments(self):
        s = gen_mackey_glass(5000, seed=2, noise_sigma=0.0)
        assert abs(s.mean()) < 1e-9
        assert s.var() == pytest.approx(1.0, rel=1e-9)

    def test_power_concentrated_at_low_frequency(self):
        s = gen_mackey_glass(10000, seed=4, noise_sigma=0.0)
        profile = periodogram(s)
        low = profile.power[profile.freqs < 0.05].sum()
        assert low / profile.power.sum() > 0.95

    def test_pure_decay_matches_closed_form(self):
        # with no delayed production the dynamics reduce to s' = -gamma*s
        gamma, h = 0.1, 0.1
        s = gen_mackey_glass(300, beta=0.0, gamma=gamma, seed=0,
                             noise_sigma=0.0, normalize=False, discard=0,
                             history=1.2)
        t = np.arange(1, 301) * h
        assert_allclose(s, 1.2 * np.exp(-gamma * t), rtol=1e-9)

    def test_convergence_order(self):
        def run(h):
            n = int(round(120 / h))
            return gen_mackey_glass(n, step=h, seed=0, noise_sigma=0.0,
                                    normalize=False, history=1.2, discard=0)

        coarse, mid, fine = run(0.1), run(0.05), run(0.025)
        idx = np.arange(699, 1200)  # t in [70, 120], past the transients
        e1 = np.abs(coarse[idx] - fine[(idx + 1) * 4 - 1]).max()
        e2 = np.abs(mid[(idx + 1) * 2 - 1] - fine[(idx + 1) * 4 - 1]).max()
        assert np.log2(e1 / e2) >= 3.5

    def test_delay_must_be_grid_multiple(self):
        with pytest.raises(ParameterError):
            gen_mackey_glass(100, tau=17.05, step=0.1)

    def test_bundle_defaults(self):
        bundle = mackey_glass_bundle(seed=1, length=2000)
        d = bundle.esn_defaults
        assert (d.n, d.avg_degree, d.alpha, d.feedback, d.horizon) == \
            (100, 10.0, 0.85, True, 84)
        assert bundle.washout == 1000
        assert len(bundle.train) == 2000 and len(bundle.test) == 2000
        assert not np.allclose(bundle.train, bundle.test)


class TestLaser:
    def write_series(self, tmp_path, values, name="laser.txt"):
        path = tmp_path / name
        path.write_text("\n".join(str(v) for v in values) + "\n")
        return path

    def test_canonical_split(self, tmp_path, rng):
        values = rng.integers(0, 256, 10093)
        bundle = load_laser(self.write_series(tmp_path, values))
        assert len(bundle.train) == 5547  # washout + training window
        assert len(bundle.test) == 4546
        assert bundle.washout == 1000
        d = bundle.esn_defaults
        assert (d.n, d.alpha, d.feedback, d.horizon) == (100, 0.9, False, 1)

    def test_sine_mixture_standin_has_expected_peaks(self):
        series = gen_sine_mixture(10093, seed=5, noise_sigma=0.1)
        profile = periodogram(series)
        for f in (0.13, 0.27, 0.38):
            band = (profile.freqs > f - 0.01) & (profile.freqs < f + 0.01)
            outside = (profile.freqs > f + 0.03) & (profile.freqs < f + 0.05)
            assert profile.power[band].max() > 10 * profile.power[outside].mean()

    @pytest.mark.parametrize("length", [0, -1])
    def test_sine_mixture_without_samples_rejected(self, length):
        with pytest.raises(ParameterError):
            gen_sine_mixture(length)

    def test_wrong_count_warns_and_splits_proportionally(self, tmp_path, rng):
        values = rng.integers(0, 256, 5000)
        with pytest.warns(UserWarning, match="proportionally"):
            bundle = load_laser(self.write_series(tmp_path, values))
        total = len(bundle.train) + len(bundle.test)
        assert total == 5000
        assert bundle.washout == pytest.approx(5000 * 1000 / 10093, abs=1)

    def test_spread_beyond_squares_loads(self, tmp_path, rng):
        # Samples near 1e200 overflow their squared deviations; the file
        # loads as the same samples at unit scale do.
        values = rng.integers(-128, 128, 10093)
        big = load_laser(self.write_series(tmp_path, values * 1e198, "big.txt"))
        unit = load_laser(self.write_series(tmp_path, values))
        assert_allclose(big.train, unit.train, rtol=0, atol=1e-12)
        assert_allclose(big.test, unit.test, rtol=0, atol=1e-12)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_laser(path)

    def test_unparseable_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\nthree\n4\n")
        with pytest.raises(IngestionError) as err:
            load_laser(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_sample_line_number(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(f"1\n2\n\n{text}\n4\n")
        with pytest.raises(IngestionError, match="non-finite") as err:
            load_laser(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("text", ["1_0", "١٢", "1e999", "0x1", "1 2"],
                             ids=["underscore", "arabic_indic", "overflow",
                                  "hex", "two_values"])
    def test_not_a_number_line_number(self, tmp_path, text):
        # float() reads the first two as 10.0 and 12.0.
        path = tmp_path / "bad.txt"
        path.write_text(f"1\n2\n{text}\n4\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="bad.txt:3") as err:
            load_laser(path)
        assert err.value.line == 3

    def test_too_short_to_split_without_warning(self, tmp_path, recwarn):
        with pytest.raises(IngestionError, match="too short to split"):
            load_laser(self.write_series(tmp_path, [1, 2, 3]))
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("first, problem", [
        (3, "constant"), (1e308, "not finite")], ids=["constant", "overflow"])
    def test_not_normalizable_without_warning(self, tmp_path, recwarn, first,
                                              problem):
        # 60 samples: a valid file this long warns about its split.
        path = self.write_series(tmp_path, [first] + [3] * 59)
        with pytest.raises(IngestionError, match=f"laser.txt: .*{problem}"):
            load_laser(path)
        assert [str(w.message) for w in recwarn] == []

    def test_sine_mixture_bundle_matches_laser_protocol(self):
        bundle = sine_mixture_bundle(seed=0)
        assert bundle.continuous
        assert len(bundle.train) == 5547
        assert bundle.esn_defaults.alpha == 0.9

    def test_ingestion_idempotent(self, tmp_path, rng):
        path = self.write_series(tmp_path, rng.integers(0, 256, 10093))
        a = load_laser(path)
        b = load_laser(path)
        assert_array_equal(a.train, b.train)
        assert_array_equal(a.test, b.test)
        assert a.meta["preprocessing"] == b.meta["preprocessing"]


class TestReadSeries:
    def test_values_blank_lines_and_line_endings(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b" 0.5 \n\n-2\r\n1e-3\r\t\n3")
        assert read_series(path).tolist() == [0.5, -2.0, 1e-3, 3.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n \n")
        assert read_series(path).shape == (0,)

    @pytest.mark.parametrize("text, message", [
        ("nan", "non-finite"), ("-inf", "non-finite"),
        ("1 2", "one finite value per line"), ("# 1", "one finite value"),
        ("1_0", "cannot parse"), ("١", "cannot parse"),
        ("1,5", "cannot parse")])
    def test_line_named(self, tmp_path, text, message):
        path = tmp_path / "s.txt"
        path.write_text(f"1\n\n{text}\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=message) as err:
            read_series(path)
        assert err.value.line == 3
        assert str(err.value).startswith("s.txt:3: ")


class TestArabicDigits:
    def write_uci(self, tmp_path, recordings, name):
        lines = []
        for rec in recordings:
            for frame_value in rec:
                lines.append(" ".join([f"{frame_value:.3f}"] + ["0.0"] * 12))
            lines.append("")
        path = tmp_path / name
        path.write_text("\n".join(lines))
        return path

    def test_grouping_and_resampling(self, tmp_path, rng):
        train = [rng.standard_normal(rng.integers(15, 35))
                 for _ in range(20)]
        test = [rng.standard_normal(20) for _ in range(10)]
        bundle = load_arabic_digits(
            self.write_uci(tmp_path, train, "train.txt"),
            self.write_uci(tmp_path, test, "test.txt"))
        assert sorted(bundle.train) == list(range(10))
        assert all(len(v) == 2 for v in bundle.train.values())
        for recordings in bundle.train.values():
            for rec in recordings:
                assert len(rec) == 40
                assert abs(rec.mean()) < 0.2  # resampling shifts moments a bit

    def test_two_frame_recording_becomes_ramp(self, tmp_path):
        bundle = load_arabic_digits(
            self.write_uci(tmp_path, [[0.0, 1.0], [1.0, 0.0]], "train.txt"),
            self.write_uci(tmp_path, [[0.0, 1.0], [1.0, 0.0]], "test.txt"),
            n_classes=2)
        ramp = bundle.train[0][0]
        assert len(ramp) == 40
        diffs = np.diff(ramp)
        assert_allclose(diffs, diffs[0], atol=1e-12)  # linear
        assert ramp[0] == pytest.approx(-1.0)
        assert ramp[-1] == pytest.approx(1.0)

    def test_malformed_frame_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 " + " ".join(["0.0"] * 12) + "\n0.5 0.5\n")
        with pytest.raises(IngestionError) as err:
            load_arabic_digits(path, path)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(IngestionError):
            load_arabic_digits(path, path)

    @pytest.mark.parametrize("text", ["nan", "1_0", "١٢"],
                             ids=["nan", "underscore", "arabic_indic"])
    def test_first_channel_number_rule(self, tmp_path, text):
        path = self.write_uci(tmp_path, [[0.5, 1.0]], "train.txt")
        lines = path.read_text().splitlines()
        lines[1] = " ".join([text] + lines[1].split()[1:])
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(IngestionError, match="train.txt:2") as err:
            load_arabic_digits(path, path, n_classes=1)
        assert err.value.line == 2

    def test_constant_recording_named_without_warning(self, tmp_path,
                                                      recwarn):
        # Three recordings do not divide into two classes, which warns.
        path = self.write_uci(tmp_path, [[0.5, 1.0], [0.0, 1.0], [2.0, 2.0]],
                              "train.txt")
        with pytest.raises(IngestionError,
                           match="train.txt: recording 2: .*constant"):
            load_arabic_digits(path, path, n_classes=2)
        assert [str(w.message) for w in recwarn] == []

    def test_one_frame_recording_names_its_line(self, tmp_path):
        path = self.write_uci(tmp_path, [[0.5, 1.0], [2.0], [0.0, 1.0]],
                              "train.txt")
        with pytest.raises(IngestionError, match="fewer than 2") as err:
            load_arabic_digits(path, path, n_classes=1)
        assert err.value.line == 4

    @pytest.mark.parametrize("bad", ["one_frame_train", "malformed_test"])
    def test_uneven_count_does_not_warn_before_an_error(self, tmp_path,
                                                        recwarn, bad):
        # Three recordings in two classes warn, but only once both files
        # have been read and checked.
        train = [[0.5, 1.0], [2.0, 1.0], [0.0, 1.0]]
        test = [[0.5, 1.0], [2.0, 1.0]]
        if bad == "one_frame_train":
            train[2] = [0.0]
        train_path = self.write_uci(tmp_path, train, "train.txt")
        test_path = self.write_uci(tmp_path, test, "test.txt")
        if bad == "malformed_test":
            test_path.write_text(test_path.read_text() + "0.5 0.5\n")
        with pytest.raises(IngestionError):
            load_arabic_digits(train_path, test_path, n_classes=2)
        assert [str(w.message) for w in recwarn] == []


class TestSyntheticClassification:
    def test_determinism(self):
        a = gen_synthetic_classification(4, 3, 40, seed=9)
        b = gen_synthetic_classification(4, 3, 40, seed=9)
        for c in range(4):
            for x, y in zip(a.train[c], b.train[c]):
                assert_array_equal(x, y)

    def test_ten_distinct_increasing_centers(self):
        bundle = gen_synthetic_classification(10, 2, 40, seed=0)
        centers = bundle.meta["centers"]
        assert len(centers) == 10
        assert all(b > a for a, b in zip(centers, centers[1:]))
        assert 0 < centers[0] and centers[-1] < 0.5

    def test_band_separation(self):
        bundle = gen_synthetic_classification(2, 20, 128, seed=1)

        def centroid(recordings):
            acc = np.zeros(65)
            for rec in recordings:
                acc += periodogram(rec).power
            freqs = np.fft.rfftfreq(128)
            return (freqs * acc).sum() / acc.sum()

        lo = centroid(bundle.train[0])
        hi = centroid(bundle.train[1])
        assert hi - lo > 0.08

    def test_class_count_bound(self):
        with pytest.raises(ParameterError):
            gen_synthetic_classification(1, 5, 40, seed=0)

    def test_negative_test_count(self):
        with pytest.raises(ParameterError, match="test_per_class"):
            gen_synthetic_classification(2, 3, 8, seed=0, test_per_class=-1)

    @pytest.mark.parametrize("bandwidth", [-0.01, np.inf, np.nan])
    def test_bandwidth_bound(self, bandwidth):
        with pytest.raises(ParameterError, match="bandwidth"):
            gen_synthetic_classification(2, 3, 8, seed=0, bandwidth=bandwidth)

    @pytest.mark.parametrize("n_classes, per_class, length, seed, test_count", [
        (10, 50, 40, 0, 10), (2, 3, 8, 5, None), (3, 7, 41, [3, 4], 3),
        (4, 1, 127, 123456789, 2), (2, 4, 9, 11, 0)])
    def test_bitwise_equal_to_recording_builder(self, n_classes, per_class,
                                                length, seed, test_count):
        bundle = gen_synthetic_classification(
            n_classes, per_class, length, seed, test_per_class=test_count,
            bandwidth=0.05, noise_sigma=0.7)
        if test_count is None:
            test_count = max(2, per_class // 5)
        for label, center in enumerate(bundle.meta["centers"]):
            assert len(bundle.train[label]) == per_class
            assert len(bundle.test[label]) == test_count
            built = bundle.train[label] + bundle.test[label]
            for index, recording in enumerate(built):
                want = synthetic_recording(seed, label, index, center, length,
                                           0.05, 0.7)
                assert recording.shape == want.shape
                assert recording.tobytes() == want.tobytes()
