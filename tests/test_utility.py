import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cell_twin import (
    AttributeSpec,
    combined_utility,
    default_attribute_specs,
    make_exp_utility,
)
from cell_twin.errors import CellTwinError, ConfigError
from cell_twin.utility import ANCHOR_TOL, Attribute


class TestMakeExpUtility:
    def test_throughput_coefficients(self):
        u = make_exp_utility(300, 1000, 200)
        assert u.sigma_coef == pytest.approx(1.0311, abs=5e-4)
        assert u.tau_coef == pytest.approx(4.6212, abs=5e-4)

    def test_mtbc_coefficients(self):
        u = make_exp_utility(0.21, 0.25, 0.015)
        assert u.sigma_coef == pytest.approx(1.0746, abs=5e-4)
        assert u.tau_coef == pytest.approx(1292405, rel=1e-3)

    def test_boundary_values_random_triples(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            l = rng.uniform(-5, 5)
            h = l + rng.uniform(0.1, 10)
            r = rng.uniform(0.1, 10)
            u = make_exp_utility(l, h, r)
            assert u.value(l) == pytest.approx(0.0, abs=1e-9)
            assert u.value(h) == pytest.approx(1.0, abs=1e-9)
            # coefficient identities
            e_l, e_h = np.exp(-l / r), np.exp(-h / r)
            assert u.sigma_coef == pytest.approx(e_l / (e_l - e_h), rel=1e-9)
            assert u.tau_coef == pytest.approx(1.0 / (e_l - e_h), rel=1e-9)

    def test_degenerate_bounds(self):
        with pytest.raises(ConfigError, match="h_u 10 must exceed l_u 10"):
            make_exp_utility(10, 10, 1)
        # sigma ~ r / (h_u - l_u) = 1e15: phi would move in steps of 0.125
        with pytest.raises(ConfigError, match="give no utility"):
            make_exp_utility(0.0, 1.0, 1e15)

    def test_nonpositive_risk(self):
        with pytest.raises(ConfigError, match="risk tolerance must be positive, got 0"):
            make_exp_utility(0, 1, 0)

    @given(st.floats(), st.floats(), st.floats())
    @example(0.0, 1.0, 1e15)
    @example(0.0, 1.0, 2.2250738585e-313)  # h_u / r overflows in `value`
    def test_anchored_or_config_error(self, l_u, h_u, r):
        try:
            u = make_exp_utility(l_u, h_u, r)
        except ConfigError:
            return
        assert u.value(l_u) == pytest.approx(0.0, abs=1e-9)
        assert u.value(h_u) == pytest.approx(1.0, abs=1e-9)
        assert abs(u.sigma_coef) * np.finfo(float).eps <= ANCHOR_TOL  # phi's rounding error


class TestEvalUtility:
    def test_throughput_at_650(self):
        u = make_exp_utility(300, 1000, 200)
        assert u.value(650) == pytest.approx(0.852, abs=1e-3)

    def test_mtbc_at_023(self):
        u = make_exp_utility(0.21, 0.25, 0.015)
        assert u.value(0.23) == pytest.approx(0.791, abs=1e-3)

    def test_clamped_above_upper(self):
        u = make_exp_utility(300, 1000, 200)
        assert u.value(2000) == pytest.approx(1.0, abs=1e-12)
        assert u.value(100) == pytest.approx(0.0, abs=1e-12)

    def test_monotone(self):
        u = make_exp_utility(0.21, 0.25, 0.015)
        grid = np.linspace(0.15, 0.30, 200)
        vals = np.array([u.value(v) for v in grid])
        assert np.all(np.diff(vals) >= 0)


class TestCombinedUtility:
    def specs(self, weights=(0.5, 0.5)):
        base = default_attribute_specs()
        return [
            AttributeSpec(s.name, s.utility, s.extractor, w) for s, w in zip(base, weights)
        ]

    @staticmethod
    def combined(specs, values):
        """The combined utility of one attribute value per spec."""
        return combined_utility(specs, [s.utility.value(v) for s, v in zip(specs, values)])

    def test_unit_case(self):
        specs = self.specs()
        assert self.combined(specs, [1000.0, 0.25]) == pytest.approx(1.0)

    def test_half_half_arithmetic(self):
        specs = self.specs()
        lam = self.combined(specs, [650.0, 0.23])
        phi1 = specs[0].utility.value(650.0)
        phi2 = specs[1].utility.value(0.23)
        assert lam == pytest.approx(0.5 * phi1 + 0.5 * phi2)
        assert lam == pytest.approx(0.8215, abs=1e-3)

    def test_equal_weight_averaging(self):
        u = make_exp_utility(0, 1, 1)
        specs = [
            AttributeSpec(f"a{i}", u, Attribute.TOTAL_AH, 1 / 3) for i in range(3)
        ]
        assert self.combined(specs, [0.0, 0.0, 1.0]) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(CellTwinError, match="2 specs vs 1 values"):
            combined_utility(self.specs(), [0.85])

    def test_monotone_in_each_attribute(self):
        specs = self.specs()
        base = self.combined(specs, [650.0, 0.23])
        assert self.combined(specs, [700.0, 0.23]) >= base
        assert self.combined(specs, [650.0, 0.24]) >= base
