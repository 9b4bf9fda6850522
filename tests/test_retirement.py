import numpy as np
import pytest

from cell_twin import (
    AttributeSpec,
    NormalizedTrace,
    candidate_cycles,
    make_exp_utility,
    optimize_retirement,
    project,
)
from cell_twin.errors import CellTwinError, DataError
from cell_twin.retirement import UtilityPoint
from cell_twin.utility import Attribute
from test_prognosis import make_ensemble


def fading_trace(n=400, knee=250, pre_slope=-1e-4, post_slope=-2e-3, cell_id="c"):
    """Piecewise-linear fade with a knee; starts at 1.0, cycles 1..n."""
    ks = np.arange(1, n + 1)
    q = 1.0 + pre_slope * (ks - 1)
    past = ks > knee
    q[past] = q[knee - 1] + post_slope * (ks[past] - knee)
    return NormalizedTrace(cell_id, ks, np.maximum(q, 0.3), 1.1)


def matched_ensemble(trace, current, b=5.45):
    """Single particle whose fade curve passes through the trace at `current`."""
    q_now = float(trace.q[np.flatnonzero(trace.cycles == current)[0]])
    log10_a = np.log10(1.0 - q_now) - b * np.log10(current)
    return make_ensemble([log10_a], [b], last_cycle=current)


def specs_for(l_ah, h_ah, r_ah=200.0, l_mtbc=0.21, h_mtbc=0.25, r_mtbc=0.015):
    return [
        AttributeSpec("ah", make_exp_utility(l_ah, h_ah, r_ah), Attribute.TOTAL_AH, 0.5),
        AttributeSpec("mtbc", make_exp_utility(l_mtbc, h_mtbc, r_mtbc), Attribute.MEAN_TIME_BETWEEN_CHARGES, 0.5),
    ]


def reference_scan(trace, proj, specs, current, floor):
    """Per-candidate scalar scan: the columns (candidates, combined, phi, raw) and the best
    (cycle, utility), earliest tie wins.  q is the measured q before `current` and the projected median from it on,
    to the horizon; MTBC is q at the candidate over the fleet's 4C discharge."""
    candidates, _ = candidate_cycles(current, proj, floor)
    q = np.concatenate([trace.q[:current - 1], proj.median_q[current - proj.from_cycle:]])
    cum_ah = np.cumsum(q) * trace.q0_ah
    combined, phi, raw = [], {s.name: [] for s in specs}, {s.name: [] for s in specs}
    best = None
    for x in candidates:
        lam = 0.0
        for s in specs:
            if s.extractor is Attribute.TOTAL_AH:
                v = float(cum_ah[x - 1])
            else:
                v = float(q[x - 1]) / 4.0
            u = float(s.utility.value(v))
            raw[s.name].append(v)
            phi[s.name].append(u)
            lam += s.weight * u
        combined.append(lam)
        if best is None or lam > best[1]:
            best = (int(x), lam)
    phi, raw = ({n: np.array(v) for n, v in cols.items()} for cols in (phi, raw))
    return (candidates, np.array(combined), phi, raw), best


class TestCandidateCycles:
    def test_range_to_floor_crossing(self):
        ens = make_ensemble([-15.77], [5.45], last_cycle=500)
        proj = project(ens, 500, 0.5)
        cands, truncated = candidate_cycles(500, proj, 0.5)
        assert cands[0] == 500
        assert not truncated
        # crossing cycle: first projected median <= 0.5
        crossing = proj.cycles[np.flatnonzero(proj.median_q <= 0.5)[0]]
        assert cands[-1] == crossing
        assert len(cands) == crossing - 500 + 1

    def test_single_candidate_at_crossing(self):
        ens = make_ensemble([-15.77], [5.45], last_cycle=689)
        proj = project(ens, 689, 0.5)
        crossing = int(proj.cycles[np.flatnonzero(proj.median_q <= 0.5)[0]])
        cands, _ = candidate_cycles(crossing, proj, 0.5)
        assert cands.tolist() == [crossing]

    def test_truncated_at_horizon(self):
        ens = make_ensemble([-15.77], [5.45], last_cycle=100)
        proj = project(ens, 100, 0.5)
        cands, truncated = candidate_cycles(100, proj, 0.1)  # floor below any projection
        assert truncated
        assert cands[-1] == proj.horizon_cycle

    def test_empty_candidate_set(self):
        ens = make_ensemble([-15.77], [5.45], last_cycle=100)
        proj = project(ens, 100, 0.5)
        with pytest.raises(CellTwinError, match="projected median already at floor 0.99 before cycle"):
            candidate_cycles(proj.horizon_cycle + 10, proj, 0.99)


class TestOptimizeRetirement:
    def test_not_triggered(self):
        trace = fading_trace()
        ens = make_ensemble([-15.77], [5.45], last_cycle=10)
        with pytest.raises(CellTwinError, match=r"c: q at cycle 10 is .* > trigger 0.95"):
            optimize_retirement(trace, ens, specs_for(300, 1000), current=10)

    def test_no_specs_rejected(self):
        trace = fading_trace()
        ens = make_ensemble([-15.77], [5.45], last_cycle=300)
        with pytest.raises(CellTwinError, match="no attribute specs to combine"):
            optimize_retirement(trace, ens, [], current=300)

    def test_gap_in_measured_prefix_rejected(self):
        # total Ah sums every cycle up to a candidate, so a missing cycle before `current` cannot be scanned;
        # the scan reads no measured cycle after `current`, so a gap there changes nothing
        trace = fading_trace()
        ens = make_ensemble([-15.77, -15.5, -16.0], [5.45, 5.2, 5.7], last_cycle=300)
        specs = specs_for(200, 500)

        def without(i):
            return NormalizedTrace("c", np.delete(trace.cycles, i), np.delete(trace.q, i), trace.q0_ah)

        for gappy in (without(10), without(0)):  # cycle 11 missing; a trace that starts at cycle 2
            with pytest.raises(DataError, match=r"c: measured cycles must cover 1..300 contiguously"):
                optimize_retirement(gappy, ens, specs, current=300)
        for current in (11, 401):  # inside the gap; past the last measured cycle
            with pytest.raises(DataError, match=rf"c: no measurement at cycle {current}$"):
                optimize_retirement(without(10), ens, specs, current=current)
        got, want = (optimize_retirement(t, ens, specs, current=300) for t in (without(320), trace))
        assert np.array_equal(got.candidates, want.candidates) and np.array_equal(got.combined, want.combined)
        assert all(np.array_equal(got.raw[n], want.raw[n]) for n in want.raw)
        assert (got.optimal_cycle, got.optimal_utility) == (want.optimal_cycle, want.optimal_utility)

    def test_ah_saturated_retires_earliest(self):
        # throughput utility pinned at 1 for every candidate: optimum = current
        trace = fading_trace()
        current = 300
        ens = matched_ensemble(trace, current)
        decision = optimize_retirement(
            trace, ens, specs_for(l_ah=1.0, h_ah=2.0), current=current
        )
        assert decision.optimal_cycle == current
        assert decision.phi["ah"][0] == pytest.approx(1.0)

    def test_dip_at_current_retires_at_current(self):
        # the reading that fires the trigger dips below the cell's curve; the scan uses the
        # filter's median at `current`, so with the Ah utility saturated the optimum stays there
        trace = fading_trace()
        current = 300
        ens = matched_ensemble(trace, current)
        q = trace.q.copy()
        q[current - 1] -= 0.01
        dipped = NormalizedTrace("c", trace.cycles, q, trace.q0_ah)
        decision = optimize_retirement(dipped, ens, specs_for(l_ah=1.0, h_ah=2.0), current=current)
        assert np.all(decision.phi["ah"] > 1 - 1e-9)
        assert decision.optimal_cycle == current

    def test_mtbc_saturated_retires_latest(self):
        # MTBC utility pinned at 1 (bounds far below any q): Ah strictly increasing
        trace = fading_trace()
        current = 300
        ens = make_ensemble([-15.77], [5.45], last_cycle=current)
        decision = optimize_retirement(
            trace, ens, specs_for(l_ah=300, h_ah=5000, l_mtbc=0.0001, h_mtbc=0.001), current=current
        )
        assert decision.optimal_cycle == decision.candidates[-1]

    def test_matches_brute_force(self):
        trace = fading_trace()
        current = 300
        ens = make_ensemble([-15.77, -15.5, -16.0], [5.45, 5.2, 5.7], last_cycle=current)
        specs = specs_for(200, 500)
        decision = optimize_retirement(trace, ens, specs, current=current)
        # independent brute force: measured q before `current`, the projected median from it on
        proj = project(ens, current, 0.5)
        q = np.concatenate([trace.q[:current - 1], proj.median_q])
        best_cycle, best_lam = None, -np.inf
        for x in decision.candidates:
            ah = float(np.sum(q[:x]) * trace.q0_ah)
            v_mtbc = float(q[x - 1]) / 4.0
            lam = 0.5 * specs[0].utility.value(ah) + 0.5 * specs[1].utility.value(v_mtbc)
            if lam > best_lam:
                best_cycle, best_lam = int(x), lam
        assert decision.optimal_cycle == best_cycle
        assert decision.optimal_utility == pytest.approx(best_lam)

    def test_exhaustive_rescan(self):
        trace = fading_trace()
        ens = make_ensemble([-15.77], [5.45], last_cycle=300)
        decision = optimize_retirement(trace, ens, specs_for(200, 500), current=300)
        assert np.all(decision.optimal_utility >= decision.combined)
        n = len(decision.candidates)
        assert all(len(col) == n for col in (decision.combined, *decision.phi.values(), *decision.raw.values()))

    def test_earliest_tie_rule(self):
        # constant combined utility (both saturated): earliest candidate wins
        trace = fading_trace()
        current = 300
        ens = make_ensemble([-15.77], [5.45], last_cycle=current)
        decision = optimize_retirement(
            trace, ens, specs_for(l_ah=1.0, h_ah=2.0, l_mtbc=0.0001, h_mtbc=0.001), current=current
        )
        assert decision.combined[0] == pytest.approx(decision.optimal_utility)
        assert decision.optimal_cycle == current

    def test_optimum_at_or_after_knee(self):
        # sharp-knee fixture with interior trade-off: optimum >= knee cycle
        knee = 250
        trace = fading_trace(knee=knee)
        current = 280
        ens = matched_ensemble(trace, current)
        ah_at_knee = float(np.sum(trace.q[:knee]) * trace.q0_ah)
        decision = optimize_retirement(
            trace, ens, specs_for(l_ah=0.5 * ah_at_knee, h_ah=3.0 * ah_at_knee), current=current
        )
        assert decision.optimal_cycle >= knee


class TestMatchesScalarReference:
    GRIDS = {
        "interior": specs_for(200, 500),
        "case_study": specs_for(300, 1000),
        "ah_saturated": specs_for(l_ah=1.0, h_ah=2.0),
        "mtbc_saturated": specs_for(l_ah=300, h_ah=5000, l_mtbc=0.0001, h_mtbc=0.001),
        "all_tied": specs_for(l_ah=1.0, h_ah=2.0, l_mtbc=0.0001, h_mtbc=0.001),
        "uneven_three": [
            AttributeSpec("ah", make_exp_utility(150, 400, 80), Attribute.TOTAL_AH, 0.2),
            AttributeSpec("mtbc", make_exp_utility(0.2, 0.25, 0.01), Attribute.MEAN_TIME_BETWEEN_CHARGES, 0.5),
            AttributeSpec("ah_wide", make_exp_utility(100, 900, 400), Attribute.TOTAL_AH, 0.3),
        ],
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    # the ids keep the names the rows had when the discharge rate was an argument; both score MTBC at 4C
    @pytest.mark.parametrize("current", [pytest.param(300, id="300-4.0"), pytest.param(330, id="330-2.5")])
    def test_exactly_equal(self, grid, current):
        trace = fading_trace()
        ens = make_ensemble([-15.77, -15.5, -16.0], [5.45, 5.2, 5.7], last_cycle=current)
        proj = project(ens, current, 0.5)
        specs = self.GRIDS[grid]
        decision = optimize_retirement(trace, ens, specs, current=current, retire_floor=0.5, proj=proj)
        (candidates, combined, phi, raw), best = reference_scan(trace, proj, specs, current, 0.5)
        assert np.array_equal(decision.candidates, candidates)
        assert np.array_equal(decision.combined, combined)
        assert list(decision.phi) == list(decision.raw) == [s.name for s in specs]  # utility_curve.csv's order
        for name in phi:
            assert np.array_equal(decision.phi[name], phi[name])
            assert np.array_equal(decision.raw[name], raw[name])
        assert (decision.optimal_cycle, decision.optimal_utility) == best
        assert type(decision.optimal_cycle) is int and type(decision.optimal_utility) is float  # decision.json

    def test_utility_curve_view_equals_columns(self):
        # the per-point view is read only by perfbench's RetireSweep.check_decision
        trace = fading_trace()
        ens = make_ensemble([-15.77, -15.5, -16.0], [5.45, 5.2, 5.7], last_cycle=300)
        decision = optimize_retirement(trace, ens, self.GRIDS["uneven_three"], current=300)
        curve = decision.utility_curve
        assert curve == [
            UtilityPoint(
                cycle=int(x),
                combined=float(decision.combined[i]),
                phi={n: float(v[i]) for n, v in decision.phi.items()},
                raw={n: float(v[i]) for n, v in decision.raw.items()},
            )
            for i, x in enumerate(decision.candidates)
        ]
        assert decision.utility_curve is curve  # built once
