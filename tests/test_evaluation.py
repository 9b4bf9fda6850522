import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cell_twin import NormalizedTrace
from cell_twin.evaluation import CALIBRATION_LEVELS, calibration_curve, rul_errors
from cell_twin.errors import CellTwinError, DataError
from cell_twin.prognosis import EolDistribution
from conftest import normal


def declining_trace(n=1000, cell_id="c"):
    ks = np.arange(1, n + 1)
    q = 1.0 - 0.0006 * (ks - 1)  # crosses 0.5 at k = 834.33 -> cycle 835
    return NormalizedTrace(cell_id, ks, q, 1.1)


def rul_errors_loop(true_eol, at_cycles, rul_medians):
    """The per-prediction loop `rul_errors` replaced, kept as its reference: (cycle, true, predicted, error) rows."""
    rows = []
    for k, m in zip(at_cycles, rul_medians):
        true_rul = max(true_eol - k, 0)
        rows.append((k, float(true_rul), m, m - true_rul))
    return rows


class TestRulErrors:
    @given(st.lists(st.tuples(st.integers(1, 2000), st.floats(-1e6, 1e6)), max_size=30))
    def test_equals_per_prediction_loop(self, preds):
        ks, meds = [k for k, _ in preds], [m for _, m in preds]
        series = rul_errors(declining_trace(), np.array(ks, dtype=np.int64), np.array(meds, dtype=float), 0.5)
        columns = (series.cycles, series.true_rul, series.predicted_rul_median, series.signed_error)
        assert list(zip(*(c.tolist() for c in columns))) == rul_errors_loop(835, ks, meds)

    def test_exact_predictions_zero_error(self):
        trace = declining_trace()
        true_eol = 835
        ks = np.array([100, 300, 500])
        series = rul_errors(trace, ks, (true_eol - ks).astype(float), 0.5)
        assert series.true_eol == true_eol
        assert np.all(series.signed_error == 0.0)
        assert series.cycles.tolist() == [100, 300, 500]
        assert series.true_rul.tolist() == [735.0, 535.0, 335.0]

    def test_constant_underprediction(self):
        trace = declining_trace()
        ks = np.array([100, 300, 500])
        series = rul_errors(trace, ks, np.maximum(835 - ks - 100, 0).astype(float), 0.5)
        assert np.all(series.signed_error == -100.0)

    def test_no_true_eol(self):
        trace = NormalizedTrace("c", np.arange(1, 11), np.linspace(1.0, 0.9, 10), 1.1)
        with pytest.raises(DataError, match="c: trace never crosses 0.5"):
            rul_errors(trace, np.array([5]), np.array([100.0]), 0.5)

    def test_length_mismatch(self):
        with pytest.raises(CellTwinError, match="2 prediction cycles vs 1 RUL medians"):
            rul_errors(declining_trace(), np.array([100, 300]), np.array([500.0]), 0.5)

    def test_translation_consistency(self):
        # prepending a flat stretch shifts true EOL and at_cycle alike:
        # signed errors are unchanged
        trace = declining_trace()
        shift = 100
        ks = np.arange(1, len(trace.q) + shift + 1)
        q2 = np.concatenate([np.ones(shift), trace.q])
        shifted = NormalizedTrace("c2", ks, q2, 1.1)
        a = rul_errors(trace, np.array([100]), np.array([500.0]), 0.5)
        b = rul_errors(shifted, np.array([100 + shift]), np.array([500.0]), 0.5)
        assert b.true_eol == a.true_eol + shift
        assert b.signed_error[0] == a.signed_error[0]


class TestCalibrationCurve:
    def test_levels_are_the_constant(self):
        curve = calibration_curve([normal(0, 1)], [0.0])
        assert curve.levels.tolist() == list(CALIBRATION_LEVELS) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_perfectly_calibrated_oracle(self):
        rng = np.random.default_rng(37)
        n = 10000
        mus = rng.normal(0, 5, n)
        sigmas = rng.uniform(0.5, 2.0, n)
        dists = [normal(m, s) for m, s in zip(mus, sigmas)]
        obs = rng.normal(mus, sigmas)
        curve = calibration_curve(dists, obs)
        assert np.all(np.abs(curve.observed - curve.levels) < 0.02)
        assert curve.area_deviation < 0.03

    def test_all_at_median(self):
        dists = [normal(3.0, 1.0)] * 50
        obs = [3.0] * 50
        curve = calibration_curve(dists, obs)
        assert np.all(curve.observed == 1.0)

    def test_all_in_far_tail(self):
        dists = [normal(0.0, 1.0)] * 50
        obs = [100.0] * 50
        curve = calibration_curve(dists, obs)
        assert np.all(curve.observed == 0.0)

    def test_coverage_monotone_in_level(self):
        rng = np.random.default_rng(41)
        dists = [normal(rng.normal(), 1.0) for _ in range(200)]
        obs = rng.normal(0, 2, 200)
        curve = calibration_curve(dists, obs)
        assert np.all(np.diff(curve.observed) >= 0)

    def test_area_deviation_zero_iff_diagonal(self):
        dists = [normal(0, 1)] * 10
        obs = [0.0] * 10
        curve = calibration_curve(dists, obs)
        assert curve.area_deviation > 0  # observed is 1 everywhere, not diagonal

    def test_length_mismatch(self):
        with pytest.raises(CellTwinError, match="1 distributions vs 2 observations"):
            calibration_curve([normal(0, 1)], [1.0, 2.0])

    def test_accepts_empirical_eol_distributions(self):
        rng = np.random.default_rng(43)
        dists, obs = [], []
        for _ in range(500):
            eols = rng.normal(700, 50, 400)
            dists.append(EolDistribution(eols, np.full(400, 1 / 400)))
            obs.append(rng.normal(700, 50))
        curve = calibration_curve(dists, obs)
        assert np.all(np.abs(curve.observed - curve.levels) < 0.08)
