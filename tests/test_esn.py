import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse import _sparsetools

from esnkit import esn
from esnkit.errors import (
    DimensionError,
    DomainError,
    ParameterError,
    SingularDesignError,
)
from esnkit.esn import (
    _DENSE_CUTOFF,
    _FEED_BLOCK,
    _one_step_blocks,
    forecast_free_run,
    run_teacher_forced,
    score_against_classes,
    train_class_readouts,
    train_readout,
)
from esnkit.reservoirs import (
    Normalization,
    Reservoir,
    ReservoirMeta,
    gen_delay_line,
    gen_er,
)
from esnkit.tasks import gen_synthetic_classification
from oracles import (
    class_scores_loop,
    highprec_ridge,
    ring_states,
    teacher_forced_states_loop,
)

import scipy.sparse as sp


def tiny_reservoir(W, w_in=None, w_ofb=None):
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    return Reservoir(
        W=sp.csr_array(W),
        w_in=np.zeros(n) if w_in is None else np.asarray(w_in, dtype=float),
        w_ofb=np.zeros(n) if w_ofb is None else np.asarray(w_ofb, dtype=float),
        meta=ReservoirMeta(family="ER", n=n, avg_degree=0.0, seed=None),
    )


class TestStep:
    """The first steps of ``run_teacher_forced`` against closed forms."""

    def test_all_zero(self):
        res = tiny_reservoir(np.zeros((4, 4)))
        run = run_teacher_forced(res, np.full(3, 2.0), teacher=np.full(3, 3.0))
        assert_array_equal(run.states, np.zeros((3, 4)))

    def test_scalar_closed_form(self):
        res = tiny_reservoir([[0.0]], w_in=[1.0])
        run = run_teacher_forced(res, [0.5])
        assert run.states[0, 0] == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_two_neuron_highprec(self):
        import mpmath as mp
        W = np.array([[0.3, -0.7], [1.1, 0.2]])
        w_in = np.array([0.5, -0.25])
        w_ofb = np.array([0.1, 0.9])
        res = tiny_reservoir(W, w_in, w_ofb)
        u = [0.4, 0.7]
        teacher = [-0.3, 0.8]  # only teacher[0] is fed back, into step 2
        got = run_teacher_forced(res, u, teacher=teacher).states
        with mp.workdps(40):
            x = [mp.tanh(mp.mpf(w_in[i]) * mp.mpf(u[0])) for i in range(2)]
            assert_allclose(got[0], [float(v) for v in x], rtol=0, atol=1e-15)
            x = [mp.tanh(mp.mpf(W[i, 0]) * x[0] + mp.mpf(W[i, 1]) * x[1]
                         + mp.mpf(w_in[i]) * mp.mpf(u[1])
                         + mp.mpf(w_ofb[i]) * mp.mpf(teacher[0]))
                 for i in range(2)]
            assert_allclose(got[1], [float(v) for v in x], rtol=0, atol=1e-14)

    def test_dimension_check(self):
        res = tiny_reservoir(np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            run_teacher_forced(res, np.zeros((4, 1, 1)))


class TestTeacherForcedRun:
    def test_zero_input_zero_states(self):
        res = gen_er(20, 4, seed=0)
        run = run_teacher_forced(res, np.zeros(50))
        assert_array_equal(run.states, np.zeros((50, 20)))

    def test_teacher_ignored_without_feedback(self, rng):
        res = gen_er(15, 3, seed=1)
        u = rng.uniform(-1, 1, 80)
        a = run_teacher_forced(res, u, teacher=rng.standard_normal(80))
        b = run_teacher_forced(res, u, teacher=None)
        assert_array_equal(a.states, b.states)

    def test_feedback_changes_states(self, rng):
        res = gen_er(15, 3, seed=1, feedback=True)
        u = rng.uniform(-1, 1, 80)
        a = run_teacher_forced(res, u, teacher=np.ones(80))
        b = run_teacher_forced(res, u, teacher=None)
        assert not np.allclose(a.states, b.states)

    def test_delay_line_impulse_matches_scalar_recursion(self):
        res = gen_delay_line(5, 0.9, input_gain=0.1)
        u = np.zeros(12)
        u[0] = 1.0
        run = run_teacher_forced(res, u)
        assert_allclose(run.states, ring_states(5, 0.9, 0.1, 0, u), atol=1e-14)
        # neuron k first activates at time k
        for k in range(5):
            assert_array_equal(run.states[:k, k], np.zeros(k))
            assert run.states[k, k] != 0.0

    def test_states_bounded(self, rng):
        res = gen_er(30, 6, seed=2, normalization=Normalization("spectral_radius", 1.2))
        run = run_teacher_forced(res, 5 * rng.standard_normal(100))
        assert np.all(np.abs(run.states) < 1.0)

    def test_length_mismatch(self):
        res = gen_er(10, 2, seed=0, feedback=True)
        with pytest.raises(DimensionError):
            run_teacher_forced(res, np.zeros(10), teacher=np.zeros(9))

    def test_batch_matches_single_runs(self, rng):
        # each column of a (T, B) batch, with its own teacher, is one run;
        # a batch multiplies matrix-matrix, so it agrees to rounding
        res = gen_er(15, 3, seed=1, feedback=True)
        u = rng.uniform(-1, 1, (80, 3))
        y = rng.uniform(-1, 1, (80, 3))
        run = run_teacher_forced(res, u, teacher=y, washout=5)
        assert run.states.shape == (80, 3, 15)
        assert run.design_matrix().shape == (80, 3, 16)
        for b in range(3):
            single = run_teacher_forced(res, u[:, b], teacher=y[:, b], washout=5)
            assert_allclose(run.design_matrix()[:, b], single.design_matrix(),
                            rtol=0, atol=1e-14)
        with pytest.raises(DimensionError):
            run_teacher_forced(res, u, teacher=y[:, 0])
        with pytest.raises(DimensionError):
            train_readout(run, u[:, 0])

    def test_washout_bound(self):
        res = gen_er(10, 2, seed=0)
        with pytest.raises(ParameterError):
            run_teacher_forced(res, np.zeros(10), washout=10)

    def test_echo_state_contraction(self):
        # after an impulse and no further input, the state of a
        # sub-unit-radius reservoir dies out
        res = gen_er(40, 8, seed=5, normalization=Normalization("spectral_radius", 0.9))
        u = np.zeros(401)
        u[0] = 3.0
        run = run_teacher_forced(res, u)
        assert np.abs(run.states[0]).max() > 0.5
        norms = np.linalg.norm(run.states[1:], axis=1)
        assert norms[-1] < 1e-12
        tail = norms[50:]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_linearization_agreement_small_gain(self, rng):
        res = gen_er(100, 10, seed=9,
                     normalization=Normalization("spectral_radius", 0.9),
                     input_gain=1e-4)
        u = rng.uniform(-1, 1, 500)
        tanh_run = run_teacher_forced(res, u)
        lin_run = run_teacher_forced(res, u, activation="identity")
        rel = (np.linalg.norm(tanh_run.states - lin_run.states)
               / np.linalg.norm(lin_run.states))
        assert rel < 1e-6


class TestSparseDrive:
    """Above ``_DENSE_CUTOFF`` the recursion keeps ``W`` sparse."""

    @pytest.mark.parametrize("shape", [(200,), (60, 3)],
                             ids=["single", "batched"])
    def test_bitwise_equal_to_right_product(self, rng, shape):
        res = gen_er(_DENSE_CUTOFF + 88, 20, seed=3, normalization=None)
        u = 0.5 * rng.standard_normal(shape)
        feed = u[..., None] * res.w_in
        Wt = sp.csr_matrix(res.W).T
        want = np.empty_like(feed)
        x = np.zeros(feed.shape[1:])
        for t in range(len(feed)):
            x = np.tanh(x @ Wt + feed[t])
            want[t] = x
        assert_array_equal(run_teacher_forced(res, u).states, want)

    @pytest.mark.parametrize("shape", [(300,), (100, 3)],
                             ids=["single", "batched"])
    def test_matches_dense_product(self, rng, shape):
        # just above the cutoff the CSR product rounds differently from the
        # dense one that runs below it, but only in the last bits
        res = gen_er(_DENSE_CUTOFF + 44, 20, seed=4,
                     normalization=Normalization("spectral_radius", 0.95))
        u = rng.uniform(-1, 1, shape)
        feed = u[..., None] * res.w_in
        Wt = res.W.toarray().T
        want = np.empty_like(feed)
        x = np.zeros(feed.shape[1:])
        for t in range(len(feed)):
            x = np.tanh(x @ Wt + feed[t])
            want[t] = x
        assert_allclose(run_teacher_forced(res, u).states, want,
                        rtol=0, atol=1e-13)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRecurrenceKernel:
    """The step on preallocated buffers is bitwise the one-expression step
    it replaced, on either product (forced with ``_DENSE_CUTOFF``)."""

    @pytest.mark.parametrize("teacher", [False, True],
                             ids=["no-teacher", "feedback-teacher"])
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("shape", [(120,), (120, 4)],
                             ids=["single", "batch"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_bitwise_equal_to_step_loop(self, rng, monkeypatch, sparse, shape,
                                        activation, teacher):
        monkeypatch.setattr(esn, "_DENSE_CUTOFF", 0 if sparse else 10 ** 6)
        res = gen_er(40, 6, seed=7, feedback=True,
                     normalization=Normalization("spectral_radius", 0.9))
        u = rng.uniform(-1, 1, shape)
        y = rng.uniform(-1, 1, shape) if teacher else None
        run = run_teacher_forced(res, u, teacher=y, activation=activation)
        assert_bitwise(run.states, teacher_forced_states_loop(
            res, u, y, activation, sparse=sparse))

    @pytest.mark.parametrize("teacher", [False, True],
                             ids=["no-teacher", "feedback-teacher"])
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("T", [_FEED_BLOCK - 1, _FEED_BLOCK,
                                   _FEED_BLOCK + 1, 2 * _FEED_BLOCK + 3])
    def test_bitwise_across_feed_blocks(self, rng, monkeypatch, T, sparse,
                                        batch, activation, teacher):
        # The drive term is built a block of steps at a time; a run that
        # ends on, just before or just after a block edge keeps the bits.
        monkeypatch.setattr(esn, "_DENSE_CUTOFF", 0 if sparse else 10 ** 6)
        res = gen_er(30, 5, seed=8, feedback=True,
                     normalization=Normalization("spectral_radius", 0.9))
        u = rng.uniform(-1, 1, (T,) + batch)
        y = rng.uniform(-1, 1, u.shape) if teacher else None
        run = run_teacher_forced(res, u, teacher=y, activation=activation)
        assert_bitwise(run.states, teacher_forced_states_loop(
            res, u, y, activation, sparse=sparse))

    @pytest.mark.parametrize("shape", [(60,), (60, 3)],
                             ids=["single", "batch"])
    def test_states_are_a_view_of_the_read_only_design(self, rng, shape):
        res = gen_er(20, 4, seed=5)
        u = rng.uniform(-1, 1, shape)
        run = run_teacher_forced(res, u)
        design = run.design_matrix()
        assert design is run.design_matrix()
        assert design.shape == shape + (21,)
        assert np.shares_memory(run.states, design)
        assert_bitwise(design[..., -1], u)
        with pytest.raises(ValueError):
            design[0, ...] = 0.0
        with pytest.raises(ValueError):
            run.states[0] = 0.0

    def test_run_holds_one_design_and_one_block_of_drive(self, traced_peak):
        # 4000 steps at n=400 held 24.4 MiB when the whole drive term was
        # built before the first step beside a separate state array.
        n, T = 400, 4000
        res = gen_er(n, 20, seed=[n, 0])
        drive = np.random.default_rng(0).uniform(-1, 1, T)
        peak = traced_peak(lambda: run_teacher_forced(res, drive))
        assert peak <= T * (n + 1) * 8 + _FEED_BLOCK * n * 8 + 2 ** 20

    @pytest.mark.parametrize("shape", [(50,), (50, 3)],
                             ids=["single", "batch"])
    def test_sparsetools_kernels_are_the_csr_product(self, rng, shape):
        # The CSR step calls these private scipy kernels directly; a scipy
        # that renames them or changes their summation fails here.
        W = sp.csr_matrix(gen_er(50, 8, seed=2).W)
        x = rng.standard_normal(shape)
        out = np.zeros(shape)
        if len(shape) == 1:
            _sparsetools.csr_matvec(50, 50, W.indptr, W.indices, W.data,
                                    x, out)
        else:
            _sparsetools.csr_matvecs(50, 50, shape[1], W.indptr, W.indices,
                                     W.data, x.ravel(), out.ravel())
        assert_bitwise(out, W @ x)


class TestTrainReadout:
    def make_run(self, rng, n=20, T=200):
        res = gen_er(n, 5, seed=3)
        u = rng.uniform(-1, 1, T)
        return run_teacher_forced(res, u, washout=20)

    def test_input_column_reproduces_target(self, rng):
        run = self.make_run(rng)
        readout = train_readout(run, run.inputs, ridge=0.0)
        expected = np.zeros(21)
        expected[-1] = 1.0
        assert_allclose(readout, expected, atol=1e-8)

    def test_zero_target(self, rng):
        run = self.make_run(rng)
        readout = train_readout(run, np.zeros(len(run.inputs)))
        assert_array_equal(readout, np.zeros(21))

    def test_matches_extended_precision_oracle(self, rng):
        run = self.make_run(rng)
        target = rng.standard_normal(len(run.inputs))
        readout = train_readout(run, target, ridge=1e-6)
        design = run.design_matrix()[run.washout:]
        expected = highprec_ridge(design, target[run.washout:], 1e-6)
        assert_allclose(readout, expected,
                        rtol=1e-6, atol=1e-9 * np.abs(expected).max())

    def test_rank_deficient_raises_and_advises(self, rng):
        res = tiny_reservoir(np.zeros((3, 3)))  # states stay identically zero
        u = rng.uniform(-1, 1, 50)
        run = run_teacher_forced(res, u)
        with pytest.raises(SingularDesignError, match="ridge"):
            train_readout(run, u, ridge=0.0)
        train_readout(run, u)  # the protocol ridge succeeds

    def test_negative_ridge_rejected(self, rng):
        run = self.make_run(rng)
        with pytest.raises(ParameterError, match="ridge"):
            train_readout(run, run.inputs, ridge=-1.0)

    def test_non_finite_target_rejected(self, rng):
        run = self.make_run(rng)
        target = np.zeros(len(run.inputs))
        target[50] = np.nan
        with pytest.raises(DomainError, match="target"):
            train_readout(run, target)

    def test_needs_enough_samples(self, rng):
        res = gen_er(30, 5, seed=1)
        run = run_teacher_forced(res, rng.uniform(-1, 1, 25))
        with pytest.raises(ParameterError):
            train_readout(run, np.zeros(25))

    def test_perturbing_weights_never_improves(self, rng):
        run = self.make_run(rng)
        target = rng.standard_normal(len(run.inputs))
        ridge = 1e-4
        readout = train_readout(run, target, ridge=ridge)
        design = run.design_matrix()[run.washout:]
        y = target[run.washout:]

        def objective(w):
            r = y - design @ w
            return r @ r + ridge * (w @ w)

        base = objective(readout)
        for i in range(len(readout)):
            for delta in (1e-3, -1e-3):
                w = readout.copy()
                w[i] += delta
                assert objective(w) >= base - 1e-12 * base

    def test_basis_change_preserves_predictions(self, rng):
        run = self.make_run(rng)
        target = rng.standard_normal(len(run.inputs))
        readout = train_readout(run, target, ridge=0.0)
        preds = (run.design_matrix() @ readout)[run.washout:]

        A = np.eye(21) + 0.3 * rng.standard_normal((21, 21))
        design = run.design_matrix() @ A
        from esnkit.esn import solve_ridge
        w2 = solve_ridge(design[run.washout:], target[run.washout:], 0.0)
        preds2 = design[run.washout:] @ w2
        assert_allclose(preds2, preds, rtol=1e-6, atol=1e-9)


class TestFreeRun:
    def test_zero_readout(self):
        res = gen_er(10, 2, seed=0)
        readout = np.zeros(11)
        ys = forecast_free_run(res, readout, np.zeros((1, 10)), [1.0], 7)
        assert_array_equal(ys, np.zeros((1, 7)))

    def test_horizon_one_is_single_application(self, rng):
        res = gen_er(12, 3, seed=4)
        u = rng.uniform(-1, 1, 60)
        run = run_teacher_forced(res, u, washout=10)
        readout = train_readout(run, rng.standard_normal(60))
        x = run.states[30]
        expected = readout[:-1] @ x + readout[-1] * u[30]
        got = forecast_free_run(res, readout, x[None], u[30:31], 1)
        assert got[0, 0] == pytest.approx(expected)

    def test_divergence_reports_step(self):
        res = tiny_reservoir(np.zeros((2, 2)))
        readout = np.array([0.0, 0.0, 2.0])
        [ys] = forecast_free_run(res, readout, np.zeros((1, 2)), [1.0], 100)
        # y_h = 2^(h+1) first exceeds 1e6 at step 20, which reads inf
        assert np.all(np.isfinite(ys[:19]))
        assert np.all(np.isinf(ys[19:]))

    def test_diverged_row_is_frozen_quietly(self):
        # y = 2u: the row started at 0 stays at 0; the row started at 1
        # leaves the limit at step 20. Its input (doubled every step) would
        # overflow before step 2000 if not frozen.
        res = tiny_reservoir(2.0 * np.eye(2), w_in=[1.0, 0.5])
        readout = np.array([0.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ys = forecast_free_run(res, readout, np.zeros((2, 2)),
                                   np.array([0.0, 1.0]), 2000)
        assert_array_equal(ys[0], np.zeros(2000))
        assert_array_equal(ys[1, :19], 2.0 ** np.arange(1, 20))
        assert np.all(np.isinf(ys[1, 19:]))

    def test_all_rows_diverged(self):
        # y = 2u from 1, -4 and 8 leaves the limit at steps 20, 18 and 17
        res = tiny_reservoir(np.zeros((2, 2)))
        readout = np.array([0.0, 0.0, 2.0])
        ys = forecast_free_run(res, readout, np.zeros((3, 2)),
                               np.array([1.0, -4.0, 8.0]), 50)
        assert np.all(np.isinf(ys[:, 19:]))
        assert_array_equal(ys[1, :17], -4.0 * 2.0 ** np.arange(1, 18))

    def test_horizon_validation(self):
        res = gen_er(5, 1, seed=0)
        with pytest.raises(ParameterError):
            forecast_free_run(res, np.zeros(6),
                              np.zeros((1, 5)), [0.0], 0)

    @pytest.mark.parametrize("X0,u0", [(np.zeros(5), [0.0]),
                                       (np.zeros((2, 4)), [0.0, 0.0]),
                                       (np.zeros((2, 5)), [0.0])],
                             ids=["one-state", "state-length", "input-count"])
    def test_shape_validation(self, X0, u0):
        res = gen_er(5, 1, seed=0)
        with pytest.raises(DimensionError):
            forecast_free_run(res, np.zeros(6), X0, u0, 3)


@pytest.mark.parametrize("w_out", [np.zeros(5), np.zeros(7), np.zeros((6, 1)),
                                   np.zeros((1, 6))],
                         ids=["no-input-weight", "too-long", "column", "row"])
@pytest.mark.parametrize("caller", ["forecast_free_run",
                                    "score_against_classes"])
def test_readout_shape_validation(caller, w_out):
    res = gen_er(5, 1, seed=0)
    with pytest.raises(DimensionError, match=r"readout weights .* \(6,\)"):
        if caller == "forecast_free_run":
            forecast_free_run(res, w_out, np.zeros((1, 5)), [0.0], 3)
        else:
            score_against_classes({0: np.zeros(6), 1: w_out},
                                  [np.sin(np.arange(30))], res)


def classify(train_sets, test, reservoir, washout=5):
    readouts = train_class_readouts(train_sets, reservoir, washout=washout)
    [result] = score_against_classes(readouts, [test], reservoir,
                                     washout=washout)
    return result


class TestClassification:
    def test_own_training_series_wins(self):
        t = np.arange(40)
        series_a = np.sin(2 * np.pi * 0.1 * t)
        series_b = np.sign(np.sin(2 * np.pi * 0.31 * t)) * 0.8
        res = gen_er(20, 4, seed=6)
        label, scores = classify({0: [series_a], 1: [series_b]}, series_a, res,
                                 washout=3)
        assert label == 0
        assert scores[0] < scores[1]

    def test_tie_breaks_to_lowest_label(self):
        t = np.arange(40)
        series = np.sin(2 * np.pi * 0.1 * t)
        res = gen_er(20, 4, seed=6)
        label, scores = classify({2: [series.copy()], 5: [series.copy()]},
                                 series, res, washout=3)
        assert scores[2] == scores[5]
        assert label == 2

    def test_needs_two_classes(self):
        res = gen_er(10, 2, seed=0)
        with pytest.raises(ParameterError):
            classify({0: [np.zeros(30)]}, np.zeros(30), res)

    def test_insufficient_samples(self):
        res = gen_er(50, 5, seed=0)
        short = np.sin(np.arange(20))
        with pytest.raises(SingularDesignError):
            classify({0: [short], 1: [short]}, short, res)

    def test_invalid_recordings(self):
        res = gen_er(10, 2, seed=0)
        good = np.sin(np.arange(30))
        bad = good.copy()
        bad[7] = np.nan
        with pytest.raises(DomainError):
            train_class_readouts({0: [good, bad], 1: [good]}, res)
        with pytest.raises(ParameterError):
            train_class_readouts({0: [good], 1: [good, good[:5]]}, res,
                                 washout=5)

    def test_batched_blocks_match_single_runs(self, rng):
        # recordings of one length run as one batch; the per-recording
        # run_teacher_forced rows are the reference, in the same order
        res = gen_er(30, 5, seed=11, feedback=True,
                     normalization=Normalization("spectral_radius", 1.1))
        recordings = [rng.standard_normal(length)
                      for length in (40, 25, 40, 33, 25, 40, 60)]
        blocks = _one_step_blocks(res, recordings, 4)
        assert len(blocks) == len(recordings)
        for series, (design, target) in zip(recordings, blocks):
            run = run_teacher_forced(res, series, washout=4)
            expected = run.design_matrix()[4:-1]
            assert design.shape == expected.shape
            assert_allclose(design, expected, rtol=0,
                            atol=1e-12 * np.abs(expected).max())
            assert_array_equal(target, series[5:])

    def test_two_band_synthetic_benchmark(self, rng):
        def sinusoid(freq, length=60):
            phase = rng.uniform(0, 2 * np.pi)
            t = np.arange(length)
            return np.sin(2 * np.pi * freq * t + phase) + 0.1 * rng.standard_normal(length)

        train = {0: [sinusoid(0.05) for _ in range(50)],
                 1: [sinusoid(0.30) for _ in range(50)]}
        tests = [(label, sinusoid(freq))
                 for label, freq in ((0, 0.05), (1, 0.30)) for _ in range(10)]
        res = gen_er(100, 10, seed=8,
                     normalization=Normalization("spectral_radius", 1.0))
        readouts = train_class_readouts(train, res, washout=5)
        results = score_against_classes(readouts, [s for _, s in tests], res,
                                        washout=5)
        failures = sum(best != label
                       for (label, _), (best, _) in zip(tests, results))
        assert failures / len(tests) <= 0.1


def test_class_scores_bitwise_equal_to_per_class_calls(rng):
    bundle = gen_synthetic_classification(4, 6, 30, seed=3, test_per_class=3)
    res = gen_er(20, 4, seed=1)
    readouts = train_class_readouts(bundle.train, res)
    recordings = [s for label in sorted(bundle.test)
                  for s in bundle.test[label]] + [rng.standard_normal(25)]
    got = score_against_classes(readouts, recordings, res)
    assert all(type(v) is float for _, scores in got for v in scores.values())
    # Floats print exactly, so equal reprs are equal bits.
    assert repr(got) == repr(class_scores_loop(readouts, recordings, res, 5))
