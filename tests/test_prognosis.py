import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cell_twin import FilterConfig, NoiseSpec, assimilate, init, project, rul
from cell_twin.errors import CellTwinError
from cell_twin.filtering import ParticleEnsemble
from cell_twin.model import _LN10, eol_cycles, fade_q
from cell_twin.prognosis import BAND_BLOCK, BAND_LEVELS, MAX_HORIZON_SPAN, EolDistribution, lower_quantiles
from conftest import power_law_trace

finite_values = st.one_of(st.integers(-5, 5).map(float), st.floats(-1e6, 1e6))


def reference_lower_index(cum: np.ndarray, level: float):
    """First row, per column of cumulative weights `cum` (last row 1), to reach `level`."""
    return np.minimum((cum < level).sum(axis=0), len(cum) - 1)


class ReferenceEolDistribution:
    """Reference for `lower_quantiles` on one column: one stable sort and one running sum per distribution."""

    def __init__(self, eols: np.ndarray, weights: np.ndarray):
        order = np.argsort(eols, kind="stable")
        self.eols = np.asarray(eols, dtype=float)[order]
        self.cum = np.cumsum(np.asarray(weights, dtype=float)[order])
        self.cum[-1] = 1.0

    def quantile(self, level):
        if isinstance(level, np.ndarray):
            return self.eols[reference_lower_index(self.cum[:, None], level)]
        return float(self.eols[reference_lower_index(self.cum, level)])


def reference_bands(proj) -> np.ndarray:
    """Reference for the bands: per BAND_BLOCK columns, rows in first-column order, then their own
    stable sort, running sums and selection per level."""
    ln_k = np.log(proj.cycles)
    out = np.empty((len(BAND_LEVELS), len(ln_k)))
    for start in range(0, len(ln_k), BAND_BLOCK):
        traj = fade_q(proj.ln_a[:, None], proj.b[:, None], ln_k[start:start + BAND_BLOCK])
        rows = np.argsort(traj[:, 0], kind="stable")
        traj = traj[rows]
        order = np.argsort(traj, axis=0, kind="stable")
        cum = proj.eol_weights[rows][order]
        np.cumsum(cum, axis=0, out=cum)
        cum[-1, :] = 1.0
        cols = np.arange(traj.shape[1])
        for band, level in zip(out, BAND_LEVELS):
            band[start:start + BAND_BLOCK] = traj[order[reference_lower_index(cum, level), cols], cols]
    return np.maximum(out, proj.eol_threshold, out=out)


@st.composite
def pool_picks(draw, pool_size: int):
    """(picks, weights): up to 31 particles drawn by index from a pool of `pool_size`, so some are
    identical (as after a resample), with uneven weights, or with integer counts over a power-of-two
    total, so that every running sum is exact and a level can sit on a step."""
    picks = draw(st.lists(st.integers(0, pool_size - 1), min_size=1, max_size=30))
    counts = draw(st.lists(st.integers(1, 10), min_size=len(picks), max_size=len(picks)))
    if draw(st.booleans(), label="power-of-two total"):
        total = 1 << sum(counts).bit_length()
        return picks + [draw(st.integers(0, pool_size - 1))], np.array(counts + [total - sum(counts)]) / total
    return picks, np.array(counts) / sum(counts)


# levels 0 and 1, any level, and multiples of 1/64, which sit on a step of some power-of-two totals
levels_lists = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.integers(0, 64).map(lambda k: k / 64)),
    min_size=1, max_size=6,
)


def make_ensemble(log10_as, bs, weights=None, last_cycle=0):
    log10_as = np.asarray(log10_as, dtype=float)
    n = len(log10_as)
    if weights is None:
        weights = np.full(n, 1.0 / n)
    return ParticleEnsemble(
        log10_a=log10_as,
        b=np.asarray(bs, dtype=float),
        weights=np.asarray(weights, dtype=float),
        last_cycle=last_cycle,
        rng=np.random.default_rng(0),
    )


class TestWeightedQuantile:
    def test_lower_median_two_points(self):
        assert EolDistribution(np.array([600.0, 800.0]), np.array([0.5, 0.5])).quantile(0.5) == 600.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.normal(size=10)
            w = rng.random(10)
            w /= w.sum()
            lvl = rng.uniform(0.05, 0.95)
            got = EolDistribution(v, w).quantile(lvl)
            order = np.argsort(v)
            cum = 0.0
            for i in order:
                cum += w[i]
                if cum >= lvl - 1e-12:
                    assert got == v[i]
                    break

    @given(
        st.lists(st.tuples(finite_values, st.integers(1, 10)), min_size=1, max_size=30),
        finite_values,
        st.data(),
    )
    def test_equals_brute_force_lower_quantile(self, pairs, last_value, data):
        values = [v for v, _ in pairs] + [last_value]
        counts = [c for _, c in pairs]
        # a power-of-two total makes every weight and cumulative weight exact,
        # so levels can sit on a step as well as between steps
        total = 1 << sum(counts).bit_length()
        counts.append(total - sum(counts))
        m = data.draw(st.integers(1, 2 * total))
        expect = next(
            v for v in sorted(set(values))
            if 2 * sum(c for x, c in zip(values, counts) if x <= v) >= m
        )
        got = EolDistribution(np.array(values), np.array(counts) / total).quantile(m / (2 * total))
        assert got == expect

    @given(
        st.integers(0, 4),
        st.lists(st.lists(finite_values, min_size=4, max_size=4), min_size=4, max_size=4),
        pool_picks(4),
        levels_lists,
    )
    def test_kernel_equals_reference(self, columns, pool, picks_weights, levels):
        # columns 0 gives 1-D values; each column is checked against its own reference distribution
        picks, weights = picks_weights
        values = np.array([pool[i][:columns] if columns else pool[i][0] for i in picks])
        got = lower_quantiles(values, weights, np.array(levels))
        assert got.shape == (len(levels), *values.shape[1:])
        if columns:
            want = np.array([ReferenceEolDistribution(col, weights).quantile(np.array(levels)) for col in values.T]).T
        else:
            want = ReferenceEolDistribution(values, weights).quantile(np.array(levels))
            assert np.array([lower_quantiles(values, weights, lvl) for lvl in levels]).tobytes() == want.tobytes()
        assert got.tobytes() == want.tobytes()

    @given(
        st.lists(st.tuples(finite_values, st.floats(0.0, 1.0)), min_size=1, max_size=30).filter(
            lambda pairs: sum(w for _, w in pairs) > 0
        ),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_level_array_equals_scalar_calls(self, pairs, levels):
        weights = np.array([w for _, w in pairs])
        dist = EolDistribution(np.array([v for v, _ in pairs]), weights / weights.sum())
        got = dist.quantile(np.array(levels))
        assert got.tolist() == [dist.quantile(lvl) for lvl in levels]


class TestProject:
    def test_single_particle_trajectory_exact(self):
        ens = make_ensemble([-15.77], [5.45], last_cycle=100)
        proj = project(ens, 100, 0.5)
        expect = np.maximum(fade_q(_LN10 * ens.log10_a[0], ens.b[0], np.log(proj.cycles.astype(float))), 0.5)
        assert np.allclose(proj.median_q, expect, atol=1e-12)

    def test_identical_particles_eol(self):
        ens = make_ensemble([-15.77] * 5, [5.45] * 5)
        proj = project(ens, 1, 0.5)
        assert np.allclose(proj.per_particle_eol, 689.2, atol=0.5)

    def test_median_q_non_increasing(self):
        ens = make_ensemble([-15.77, -15.0, -16.2], [5.45, 5.0, 6.0])
        proj = project(ens, 1, 0.5)
        assert np.all(np.diff(proj.median_q) <= 1e-15)
        assert len(proj.median_q) == proj.horizon_cycle - proj.from_cycle + 1

    def test_median_matches_brute_force_at_start(self):
        rng = np.random.default_rng(31)
        ens = make_ensemble(rng.normal(-15.77, 0.3, 10), np.abs(rng.normal(5.45, 0.3, 10)))
        proj = project(ens, 50, 0.5)
        vals = fade_q(_LN10 * ens.log10_a, ens.b, math.log(50))
        assert proj.median_q[0] == pytest.approx(
            max(EolDistribution(vals, ens.weights).quantile(0.5), 0.5)
        )

    @settings(deadline=None)
    @given(
        pool_picks(4),
        st.lists(st.tuples(st.floats(-16.2, -15.3), st.floats(5.0, 6.0)), min_size=4, max_size=4),
        st.integers(1, 1500),
    )
    def test_bands_equal_column_quantiles(self, picks_weights, pool, from_cycle):
        # particles drawn from a pool of 4, so some are tied; early starts give
        # horizons of up to ~20 band blocks
        picks, weights = picks_weights
        ens = make_ensemble([pool[i][0] for i in picks], [pool[i][1] for i in picks], weights, from_cycle)
        proj = project(ens, from_cycle, 0.5)
        assert proj.bands.tobytes() == reference_bands(proj).tobytes()
        traj = fade_q(_LN10 * ens.log10_a[:, None], ens.b[:, None], np.log(proj.cycles))
        dists = [ReferenceEolDistribution(col, ens.weights) for col in traj.T]
        for band, level in [(proj.q05, 0.05), (proj.median_q, 0.5), (proj.q95, 0.95)]:
            assert band.tolist() == [max(d.quantile(level), 0.5) for d in dists]
        assert np.all(proj.q05 <= proj.median_q) and np.all(proj.median_q <= proj.q95)

    def test_bands_ignore_later_steps(self):
        # `step` changes log10_a and b in place; a projection keeps its own
        trace = power_law_trace(n_cycles=200, noise_std=0.01, seed=4)
        ens = init(FilterConfig(n_particles=300, seed=4))
        assimilate(ens, trace, 100, NoiseSpec())
        read_now, read_later = project(ens, 100, 0.5), project(ens, 100, 0.5)
        bands = read_now.bands.copy()
        assimilate(ens, trace, 200, NoiseSpec())
        assert np.array_equal(read_later.bands, bands)
        assert read_later.bands.shape == (3, read_later.horizon_cycle - 100 + 1)

    @pytest.mark.parametrize("ens", [
        make_ensemble([-15.77] * 100, [5.45] * 98 + [1e-3] * 2),  # 2% of the weight: EOL overflows to inf
        init(FilterConfig(n_particles=200, init_b=0.3, seed=1)),
    ])
    def test_infinite_eol_percentile_is_a_cell_twin_error(self, ens):
        with pytest.raises(CellTwinError, match="cycle 0"):
            project(ens, 0)

    def test_horizon_span_bound(self):
        ens = make_ensemble([-15.77], [3.0])
        eol = float(eol_cycles(_LN10 * -15.77, 3.0, 0.5))  # the one particle's EOL, about 1.3e5 cycles
        inside, outside = math.ceil(eol) - MAX_HORIZON_SPAN, math.floor(eol) - MAX_HORIZON_SPAN
        assert project(ens, inside).horizon_cycle == math.ceil(eol)
        with pytest.raises(CellTwinError, match=f"cycle {outside}: .* more than {MAX_HORIZON_SPAN} cycles ahead"):
            project(ens, outside)

    def test_projection_pure(self):
        ens = make_ensemble([-15.77, -15.5], [5.45, 5.2])
        a = project(ens, 10, 0.5)
        b = project(ens, 10, 0.5)
        assert np.array_equal(a.median_q, b.median_q)
        assert np.array_equal(a.per_particle_eol, b.per_particle_eol)

    def test_lower_threshold_extends_every_eol(self):
        ens = make_ensemble([-15.77, -15.2], [5.45, 5.0])
        deep = project(ens, 1, 0.5).per_particle_eol
        shallow = project(ens, 1, 0.8).per_particle_eol
        assert np.all(deep > shallow)


def full_matrix_bands(proj) -> np.ndarray:
    """Reference: the 5/50/95% bands from one particles x horizon matrix and its stable sort."""
    traj = fade_q(proj.ln_a[:, None], proj.b[:, None], np.log(proj.cycles))
    order = np.argsort(traj, axis=0, kind="stable")
    cum = np.cumsum(proj.eol_weights[order], axis=0)
    cum[-1, :] = 1.0
    cols = np.arange(traj.shape[1])
    return np.array([
        np.maximum(traj[order[np.minimum((cum < level).sum(axis=0), len(cum) - 1), cols], cols], proj.eol_threshold)
        for level in (0.05, 0.5, 0.95)
    ])


class TestYoungTwin:
    """A twin 50 cycles into its life: a wide posterior and a long horizon."""

    @pytest.fixture(scope="class")
    def ens(self):
        ens = init(FilterConfig(n_particles=1000, seed=0))
        return assimilate(ens, power_law_trace(n_cycles=50, noise_std=0.01, seed=0), 50, NoiseSpec())

    def test_bands_equal_full_matrix_reference(self, ens):
        proj = project(ens, 50, 0.5)
        assert proj.horizon_cycle - 50 > 50 * BAND_BLOCK
        assert np.array_equal(proj.bands, full_matrix_bands(proj))

    def test_memory_bounded_by_block_not_horizon(self, ens):
        tracemalloc.start()
        try:
            proj = project(ens, 50, 0.5)
            rul(proj, 50)
            rul_peak = tracemalloc.get_traced_memory()[1]
            proj.median_q
            band_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = 8 * len(ens.weights) * (proj.horizon_cycle - 50 + 1)  # one particles x horizon float64 array
        assert matrix_bytes > 50e6
        assert rul_peak < 1e6
        assert band_peak < 16e6


class TestEolDistribution:
    def test_single_particle_step_cdf(self):
        ens = make_ensemble([-15.77], [5.45])
        proj = project(ens, 1, 0.5)
        dist = EolDistribution(proj.per_particle_eol, proj.eol_weights)
        eol = float(dist.eols[0])
        assert eol == pytest.approx(((1 - 0.5) / 10 ** -15.77) ** (1 / 5.45), rel=1e-9)
        assert dist.quantile(np.array([0.0, 1e-9, 0.5, 1.0])).tolist() == [eol] * 4

    def test_counting(self):
        dist = EolDistribution(np.array([700.0, 800.0, 600.0]), np.full(3, 1 / 3))
        levels = np.array([0.0, 0.3, 1 / 3, 0.5, 0.9, 1.0])  # 1/3 is the first step: the lower quantile stays there
        assert dist.quantile(levels).tolist() == [600.0, 600.0, 600.0, 700.0, 800.0, 800.0]
        assert [dist.quantile(float(lvl)) for lvl in levels] == dist.quantile(levels).tolist()

    def test_self_consistency_at_median(self):
        ens = init(FilterConfig(n_particles=1000, seed=17))
        proj = project(ens, 1, 0.5)
        dist = EolDistribution(proj.per_particle_eol, proj.eol_weights)
        med = dist.quantile(0.5)
        assert dist.weights[dist.eols < med].sum() < 0.5
        assert dist.weights[dist.eols <= med].sum() == pytest.approx(0.5, abs=1.5 / 1000)


class TestRul:
    def test_at_median_eol_rul_zero(self):
        ens = init(FilterConfig(n_particles=500, seed=18))
        proj = project(ens, 1, 0.5)
        med_eol = EolDistribution(proj.per_particle_eol, proj.eol_weights).quantile(0.5)
        pred = rul(proj, int(np.ceil(med_eol)))
        assert pred.rul_median <= 1.0

    def test_single_particle_subtraction(self):
        ens = make_ensemble([-15.77], [5.45])
        proj = project(ens, 1, 0.5)
        eol = proj.per_particle_eol[0]
        pred = rul(proj, 500)
        assert pred.rul_median == pytest.approx(eol - 500)

    def test_all_past_eol_clamped(self):
        ens = make_ensemble([-15.77, -15.5], [5.45, 5.45])
        proj = project(ens, 1, 0.5)
        pred = rul(proj, int(np.max(proj.per_particle_eol)) + 10)
        assert pred.rul_median == 0.0
        assert all(v == 0.0 for v in pred.rul_quantiles.values())

    def test_translation_property_single_particle(self):
        ens = make_ensemble([-15.77], [5.45])
        proj = project(ens, 1, 0.5)
        r0 = rul(proj, 100).rul_median
        r1 = rul(proj, 150).rul_median
        assert r1 == pytest.approx(max(r0 - 50, 0.0))

    def test_quantiles_monotone(self):
        ens = init(FilterConfig(n_particles=400, seed=19))
        proj = project(ens, 1, 0.5)
        pred = rul(proj, 300)
        assert sorted(pred.rul_quantiles) == [0.05, 0.95]
        qs = [pred.rul_quantiles[0.05], pred.rul_median, pred.rul_quantiles[0.95]]
        assert qs == sorted(qs)
