import numpy as np
import pytest

from cell_twin import NormalizedTrace
from cell_twin.calib import fit_power_law, fleet_calibrate, lower_percentile, total_measured_ah
from cell_twin.errors import DataError, InsufficientFade
from cell_twin.model import _LN10, eol_cycles
from conftest import power_law_trace, rise_then_fade_trace


class TestFitPowerLaw:
    def test_exact_recovery_noise_free(self):
        trace = power_law_trace(log10_a=-12.0, b=4.0, n_cycles=300)
        log10_a, b, rmse = fit_power_law(trace)
        assert log10_a == pytest.approx(-12.0, abs=1e-9)
        assert b == pytest.approx(4.0, abs=1e-9)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_fade(self):
        trace = NormalizedTrace("c", np.arange(1, 51), np.ones(50), 1.1)
        with pytest.raises(InsufficientFade):
            fit_power_law(trace)

    def test_non_fading_fit_raises(self):
        with pytest.raises(InsufficientFade, match="bent"):
            fit_power_law(rise_then_fade_trace())

    def test_noisy_recovery_within_band(self):
        hits = 0
        for seed in range(50):
            trace = power_law_trace(log10_a=-15.77, b=5.45, n_cycles=800, noise_std=0.01, seed=seed)
            _, b, _ = fit_power_law(trace)
            hits += abs(b - 5.45) <= 0.2
        assert hits == 50

    def test_extrapolated_tail_excluded(self):
        trace = power_law_trace(log10_a=-12.0, b=4.0, n_cycles=300)
        # corrupt a fake extrapolated tail; the fit must ignore it
        bad_q = trace.q.copy()
        bad_q[250:] = np.linspace(trace.q[249], 0.5, 50)
        corrupted = NormalizedTrace("c", trace.cycles, bad_q, 1.1, extrapolated_from=251)
        log10_a, b, _ = fit_power_law(corrupted)
        assert log10_a == pytest.approx(-12.0, abs=1e-9)
        assert b == pytest.approx(4.0, abs=1e-9)

    def test_qualifying_threshold_stability(self):
        # noise-free: halving the fade cutoff changes nothing once all points qualify
        trace = power_law_trace(log10_a=-8.0, b=3.0, n_cycles=100)
        la1, _, _ = fit_power_law(trace)
        from cell_twin import calib

        old = calib.FADE_EPS
        try:
            calib.FADE_EPS = old / 2
            la2, _, _ = fit_power_law(trace)
        finally:
            calib.FADE_EPS = old
        assert la1 == pytest.approx(la2, abs=1e-9)


class TestLowerMedian:
    """`lower_percentile` at p = 50, and at the total-Ah percentiles."""

    def test_odd_count(self):
        assert lower_percentile([4.0, 6.0, 5.0], 50) == 5.0

    def test_even_count_lower(self):
        assert lower_percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_ceil_rank_rule(self):
        rng = np.random.default_rng(7)
        for n in range(1, 61):
            values = rng.normal(size=n)
            v = np.sort(values)
            assert lower_percentile(values, 50) == v[(n - 1) // 2]
            for p in (5, 95):
                assert lower_percentile(values, p) == v[-(-p * n // 100) - 1]  # integer ceil(p*n/100)


class TestFleetCalibrate:
    def traces(self, bs, log10_a=-12.0):
        out = []
        for i, b in enumerate(bs):
            n = int(eol_cycles(_LN10 * log10_a, b, 0.5))
            out.append(power_law_trace(log10_a=log10_a, b=b, n_cycles=n, cell_id=f"c{i}"))
        return out

    def test_median_of_three(self):
        fit = fleet_calibrate(self.traces([4.0, 5.0, 6.0]))
        assert fit.median_b == pytest.approx(5.0, abs=1e-9)
        assert fit.median_log10_a == pytest.approx(-12.0, abs=1e-6)

    def test_permutation_invariant(self):
        traces = self.traces([4.0, 5.5, 5.0, 6.0, 4.5])
        a = fleet_calibrate(traces)
        b = fleet_calibrate(list(reversed(traces)))
        assert a.median_b == b.median_b
        assert a.median_log10_a == b.median_log10_a
        assert a.ah_percentiles == b.ah_percentiles

    def test_failed_fits_excluded(self):
        traces = self.traces([4.0, 5.0, 6.0])
        traces.append(NormalizedTrace("flat", np.arange(1, 51), np.ones(50), 1.1))
        fit = fleet_calibrate(traces)
        assert fit.failed_cells == ("flat",)
        assert fit.median_b == pytest.approx(5.0, abs=1e-9)

    def test_all_fail(self):
        with pytest.raises(DataError, match="no training cell produced a usable fit"):
            fleet_calibrate([NormalizedTrace("flat", np.arange(1, 51), np.ones(50), 1.1)])

    def test_ah_percentiles_from_measured_life(self):
        traces = self.traces([5.0])
        fit = fleet_calibrate(traces)
        assert fit.ah_percentiles[50] == pytest.approx(total_measured_ah(traces[0]))
