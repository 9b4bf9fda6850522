import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cell_twin import NormalizedTrace
from cell_twin.cli import eol_table
from cell_twin.evaluation import CALIBRATION_LEVELS, INTERVAL_LEVELS, calibration_curve, rul_errors
from cell_twin.errors import CellTwinError, DataError
from cell_twin.prognosis import lower_quantiles
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
            dists.append(lower_quantiles(eols, np.full(400, 1 / 400), INTERVAL_LEVELS))
            obs.append(rng.normal(700, 50))
        curve = calibration_curve(dists, obs)
        assert np.all(np.abs(curve.observed - curve.levels) < 0.08)


def eol_csv(eols, weights) -> str:
    """The text simulate writes to an `eol_*.csv`."""
    return "eol_cycle,weight\n" + "".join(f"{e!r},{w!r}\n" for e, w in zip(eols, weights))


class TestEvaluatePath:
    """`eol_table` -> `lower_quantiles` at INTERVAL_LEVELS -> `calibration_curve`, as `evaluate` runs them, on
    tables whose coverage is known at every level.

    64 equal-weight particles at cycles 1..64, rows written in reverse: every running sum k/64 is exact, so the
    lower quantile at level p is cycle ceil(64 p), and the central c-interval is [ceil(32 (1 - c)), ceil(32 (1 + c))].
    """

    TABLE = eol_csv([float(k) for k in range(64, 0, -1)], [1 / 64] * 64)
    INTERVALS = {0.1: (29, 36), 0.2: (26, 39), 0.3: (23, 42), 0.4: (20, 45), 0.5: (16, 48),
                 0.6: (13, 52), 0.7: (10, 55), 0.8: (7, 58), 0.9: (4, 61)}

    def curve(self, observations):
        quantiles = [lower_quantiles(*eol_table(self.TABLE), INTERVAL_LEVELS) for _ in observations]
        return calibration_curve(quantiles, [float(o) for o in observations])

    def test_interval_ends(self):
        q = lower_quantiles(*eol_table(self.TABLE), INTERVAL_LEVELS)
        assert list(zip(q[:9].tolist(), q[9:].tolist())) == [self.INTERVALS[c] for c in CALIBRATION_LEVELS]

    def test_one_observation_per_ring_is_calibrated(self):
        # observation i lies in the level-(i+1)/10 interval and not in the narrower ones; the last in none
        curve = self.curve([32, 27, 24, 21, 17, 14, 11, 8, 5, 62])
        assert curve.observed.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        assert curve.area_deviation == 0.0

    def test_interval_ends_are_covered(self):
        # both ends of the narrowest interval are inside every interval; one cycle beyond them is not in it
        assert self.curve([29, 36]).observed.tolist() == [1.0] * 9
        assert self.curve([28, 37]).observed.tolist() == [0.0] + [1.0] * 8
        assert self.curve([0, 3, 62, 65]).observed.tolist() == [0.0] * 9

    def test_weighted_table(self):
        # cycle 10 holds half the weight and cycles 20 and 30 a quarter each: every lower end (level <= 0.45) is
        # cycle 10, and the upper end is cycle 20 up to level 0.5 (its end 0.75 is exact) and cycle 30 above it
        quantiles = [lower_quantiles(*eol_table(eol_csv([30.0, 10.0, 20.0], [0.25, 0.5, 0.25])), INTERVAL_LEVELS)] * 2
        curve = calibration_curve(quantiles, [20.0, 25.0])
        assert curve.observed.tolist() == [0.5] * 5 + [1.0] * 4
