import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cell_twin import NoiseSpec
from cell_twin.model import _LN10, eol_cycles, fade_q, gaussian_log_lik

log10_as = st.floats(-20.0, -3.0)
bs = st.floats(0.5, 8.0)
thresholds = st.floats(0.05, 0.95)


class TestCapacity:
    def test_zero_fade(self):
        assert fade_q(-math.inf, 5.45, math.log(10 ** 6)) == 1.0

    def test_linear_case(self):
        assert fade_q(math.log(1e-3), 1.0, math.log(100)) == pytest.approx(0.9)

    def test_median_params_at_eol(self, median_params):
        assert fade_q(*median_params, math.log(689)) == pytest.approx(0.5, abs=0.005)

    def test_strictly_decreasing(self, median_params):
        ks = np.arange(1, 2001).astype(float)
        qs = fade_q(*median_params, np.log(ks))
        assert np.all(np.diff(qs) < 0)

    def test_log_space_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = 10 ** rng.uniform(-20, -3)
            b = rng.uniform(0.5, 8)
            k = rng.integers(1, 5001)
            direct = 1.0 - a * float(k) ** b
            assert fade_q(math.log(a), b, math.log(k)) == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestAnalyticEol:
    def test_linear_case(self):
        assert eol_cycles(math.log(1e-3), 1.0, 0.9) == pytest.approx(100.0)

    def test_median_params(self, median_params):
        expect = 10 ** ((15.77 + math.log10(0.5)) / 5.45)
        assert eol_cycles(*median_params, 0.5) == pytest.approx(expect)
        assert eol_cycles(*median_params, 0.5) == pytest.approx(689, abs=1)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b = 10 ** rng.uniform(-20, -3), rng.uniform(0.5, 8)
            t = rng.uniform(0.05, 0.95)
            k_star = eol_cycles(math.log(a), b, t)
            assert 1.0 - a * k_star ** b == pytest.approx(t, abs=1e-9)

    def test_threshold_monotonicity(self, median_params):
        # deeper fade threshold -> strictly later EOL
        assert eol_cycles(*median_params, 0.5) > eol_cycles(*median_params, 0.8)


class TestLogLikelihood:
    def test_peak_value(self):
        assert gaussian_log_lik(0.0, 0.01) == pytest.approx(math.log(1.0 / (0.01 * math.sqrt(2 * math.pi))))

    def test_one_sigma_point(self):
        assert gaussian_log_lik(0.01, 0.01) == pytest.approx(gaussian_log_lik(0.0, 0.01) - 0.5)

    def test_three_sigma_residual(self):
        assert gaussian_log_lik(-0.03, 0.01) == pytest.approx(gaussian_log_lik(0.0, 0.01) - 4.5)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            ln_a, b = _LN10 * rng.uniform(-18, -8), rng.uniform(2, 7)
            k = int(rng.integers(1, 1000))
            sigma = rng.uniform(0.005, 0.05)
            mean = fade_q(ln_a, b, math.log(k))
            total, _ = quad(lambda q: math.exp(gaussian_log_lik(q - mean, sigma)), mean - 1.0, mean + 1.0)
            assert total == pytest.approx(1.0, abs=1e-8)


class TestNoiseSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_meas=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(sigma_log_a=-1.0)


class TestKernels:
    @given(log10_as, bs, thresholds)
    def test_fade_q_inverts_eol_cycles(self, log10_a, b, t):
        ln_a = log10_a * math.log(10.0)
        assert fade_q(ln_a, b, math.log(eol_cycles(ln_a, b, t))) == pytest.approx(t, abs=1e-9)
