import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cell_twin import FilterConfig, analytic_eol, capacity, eol_distribution, init, project, rul
from cell_twin.filtering import ParticleEnsemble
from cell_twin.model import _LN10, fade_q
from cell_twin.prognosis import weighted_quantile

finite_values = st.one_of(st.integers(-5, 5).map(float), st.floats(-1e6, 1e6))


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
        assert weighted_quantile(np.array([600.0, 800.0]), np.array([0.5, 0.5]), 0.5) == 600.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.normal(size=10)
            w = rng.random(10)
            w /= w.sum()
            lvl = rng.uniform(0.05, 0.95)
            got = weighted_quantile(v, w, lvl)
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
        got = weighted_quantile(np.array(values), np.array(counts) / total, m / (2 * total))
        assert got == expect


class TestProject:
    def test_single_particle_trajectory_exact(self):
        ens = make_ensemble([-15.77], [5.45], last_cycle=100)
        proj = project(ens, 100, 0.5)
        params = ens.params_at(0)
        expect = np.maximum(capacity(params, proj.cycles.astype(float)), 0.5)
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
        vals = np.array([capacity(ens.params_at(i), 50) for i in range(10)])
        assert proj.median_q[0] == pytest.approx(
            max(weighted_quantile(vals, ens.weights, 0.5), 0.5)
        )

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 10)), min_size=1, max_size=8),
        st.lists(st.tuples(st.floats(-16.2, -15.3), st.floats(5.0, 6.0)), min_size=4, max_size=4),
        st.integers(200, 1500),
    )
    def test_bands_equal_column_quantiles(self, picks, pool, from_cycle):
        # particles drawn from a pool of 4, so some are tied; weights uneven
        counts = np.array([c for _, c in picks], dtype=float)
        ens = make_ensemble(
            [pool[i][0] for i, _ in picks], [pool[i][1] for i, _ in picks], counts / counts.sum(), from_cycle
        )
        proj = project(ens, from_cycle, 0.5)
        traj = fade_q(_LN10 * ens.log10_a[:, None], ens.b[:, None], np.log(proj.cycles))
        for band, level in [(proj.q05, 0.05), (proj.median_q, 0.5), (proj.q95, 0.95)]:
            assert band.tolist() == [max(weighted_quantile(col, ens.weights, level), 0.5) for col in traj.T]
        assert np.all(proj.q05 <= proj.median_q) and np.all(proj.median_q <= proj.q95)

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


class TestEolDistribution:
    def test_single_particle_step_cdf(self):
        ens = make_ensemble([-15.77], [5.45])
        dist = eol_distribution(project(ens, 1, 0.5))
        eol = float(dist.eols[0])
        assert eol == pytest.approx(analytic_eol(ens.params_at(0), 0.5), rel=1e-9)
        assert dist.cdf(eol - 1) == 0.0
        assert dist.cdf(eol) == 1.0
        assert dist.cdf(eol + 1) == 1.0

    def test_counting(self):
        from cell_twin.prognosis import EolDistribution

        dist = EolDistribution(np.array([600.0, 700.0, 800.0]), np.full(3, 1 / 3))
        assert dist.cdf(700) == pytest.approx(2 / 3)
        assert dist.cdf(599) == 0.0
        assert dist.cdf(800) == 1.0

    def test_self_consistency_at_median(self):
        ens = init(FilterConfig(n_particles=1000, seed=17))
        proj = project(ens, 1, 0.5)
        dist = eol_distribution(proj)
        med = weighted_quantile(proj.per_particle_eol, proj.eol_weights, 0.5)
        assert dist.cdf(med) == pytest.approx(0.5, abs=1.5 / 1000)


class TestRul:
    def test_at_median_eol_rul_zero(self):
        ens = init(FilterConfig(n_particles=500, seed=18))
        proj = project(ens, 1, 0.5)
        med_eol = weighted_quantile(proj.per_particle_eol, proj.eol_weights, 0.5)
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
        pred = rul(proj, 300, quantiles=(0.05, 0.25, 0.5, 0.75, 0.95))
        qs = [pred.rul_quantiles[l] for l in sorted(pred.rul_quantiles)]
        assert qs == sorted(qs)
