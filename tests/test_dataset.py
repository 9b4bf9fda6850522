import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cell_twin import CellRecord, NormalizedTrace, Split, extend_linear, load_cells, normalize, trigger_cycle
from cell_twin.dataset import MAX_EXTENSION
from cell_twin.errors import DataError

HEADER = "cell_id,split,cycle,discharge_capacity_ah,nominal_capacity_ah\n"


def loop_extension(trace, tail, floor, max_points):
    """Reference: walk the fitted tail line one cycle at a time down to the floor.

    Returns None for a tail that does not fall, or that does not reach the
    floor within `max_points` cycles.
    """
    slope, intercept = np.polyfit(trace.cycles[-tail:].astype(float), trace.q[-tail:], 1)
    if slope >= 0:
        return None
    cycles, qs = [], []
    for k in range(int(trace.cycles[-1]) + 1, int(trace.cycles[-1]) + max_points + 1):
        val = intercept + slope * k
        cycles.append(k)
        qs.append(max(val, floor))
        if val <= floor + 1e-12:
            return cycles, qs
    return None


def scan_trigger_cycle(trace, threshold):
    """Reference: walk the points in order to the first one at or below the threshold."""
    for k, q in zip(trace.cycles, trace.q):
        if q <= threshold:
            return int(k)
    return None


def write_csv(tmp_path, body, name="cells.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body)
    return p


class TestLoadCells:
    def test_groups_rows_per_cell(self, tmp_path):
        p = write_csv(tmp_path, "b1c0,train,1,1.07,1.1\nb1c0,train,2,1.06,1.1\nb1c0,train,3,1.05,1.1\n")
        records = load_cells(p)
        assert len(records) == 1
        rec = records[0]
        assert rec.cell_id == "b1c0"
        assert rec.split is Split.TRAIN
        assert rec.cycles.tolist() == [1, 2, 3]
        assert rec.capacity_ah.tolist() == [1.07, 1.06, 1.05]

    def test_rows_sorted_by_cycle(self, tmp_path):
        p = write_csv(tmp_path, "b1c0,train,3,1.05,1.1\nb1c0,train,1,1.07,1.1\nb1c0,train,2,1.06,1.1\n")
        rec = load_cells(p)[0]
        assert rec.cycles.tolist() == [1, 2, 3]

    def test_duplicate_cycle(self, tmp_path):
        p = write_csv(tmp_path, "b1c0,train,1,1.07,1.1\nb1c0,train,2,1.06,1.1\nb1c0,train,2,1.05,1.1\n")
        with pytest.raises(DataError, match=r"cycle 2 appears more than once"):
            load_cells(p)

    def test_malformed_row(self, tmp_path):
        p = write_csv(tmp_path, "b1c0,train,1,1.07\n")
        with pytest.raises(DataError, match=r":2: expected 5 columns, got 4"):
            load_cells(p)
        p = write_csv(tmp_path, "b1c0,train,one,1.07,1.1\n")
        with pytest.raises(DataError, match=r":2: non-numeric field"):
            load_cells(p)

    def test_unknown_split_name(self, tmp_path):
        p = write_csv(tmp_path, "b1c0,train,1,1.07,1.1\nb1c0,validation,2,1.06,1.1\n")
        with pytest.raises(DataError, match=r":3: unknown split 'validation'"):
            load_cells(p)

    def test_conflicting_splits_for_one_cell(self, tmp_path):
        p = write_csv(tmp_path, "b1c0,train,1,1.07,1.1\nb2c0,test1,1,1.07,1.1\nb1c0,test2,2,1.06,1.1\n")
        with pytest.raises(DataError, match=r":4: cell 'b1c0' has conflicting splits"):
            load_cells(p)


class TestCellRecord:
    def test_nonmonotone_cycles_rejected(self):
        with pytest.raises(DataError, match="cycles not strictly increasing"):
            CellRecord("c", Split.TRAIN, np.array([1, 3, 2]), np.array([1.0, 1.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CellRecord("c", Split.TRAIN, np.array([], dtype=int), np.array([]))


class TestNormalize:
    def test_constant_trace(self):
        rec = CellRecord("c", Split.TRAIN, np.arange(1, 11), np.full(10, 1.1))
        tr = normalize(rec)
        assert np.allclose(tr.q, 1.0)
        assert tr.q0_ah == 1.1

    def test_arithmetic(self):
        rec = CellRecord("c", Split.TRAIN, np.arange(1, 4), np.array([1.05, 1.10, 1.08]))
        tr = normalize(rec, window=100)
        assert tr.q0_ah == 1.10
        assert np.allclose(tr.q, [1.05 / 1.1, 1.0, 1.08 / 1.1])

    def test_peak_within_window_brute_force(self):
        rng = np.random.default_rng(7)
        caps = 1.05 + 0.05 * np.sin(np.linspace(0, 3, 200)) + rng.normal(0, 1e-3, 200)
        rec = CellRecord("c", Split.TRAIN, np.arange(1, 201), caps)
        tr = normalize(rec, window=100)
        assert tr.q0_ah == max(caps[:100])
        assert np.max(tr.q[:100]) == pytest.approx(1.0)

    def test_idempotent_up_to_scaling(self):
        rec = CellRecord("c", Split.TRAIN, np.arange(1, 51), np.linspace(1.1, 0.9, 50))
        tr = normalize(rec)
        rec2 = CellRecord("c", Split.TRAIN, tr.cycles, tr.q * tr.q0_ah)
        tr2 = normalize(rec2)
        assert np.allclose(tr.q, tr2.q)


class TestExtendLinear:
    def linear_trace(self, start_q=0.9, slope=-0.001, start_cycle=301, n=200):
        # q = 0.9 - 0.001*(k - 500) over cycles 301..500
        ks = np.arange(start_cycle, start_cycle + n)
        qs = start_q + slope * (ks - 500)
        return NormalizedTrace("c", ks, qs, 1.1)

    def test_reaches_floor_at_predicted_cycle(self):
        tr = self.linear_trace()  # q = 0.9 - 0.001*(k - 500); hits 0.5 at k = 900
        ext = extend_linear(tr, tail=30, floor=0.5)
        assert ext.extrapolated_from == 501
        assert ext.cycles[-1] == 900
        assert ext.q[-1] == pytest.approx(0.5)

    def test_prefix_unchanged(self):
        tr = self.linear_trace()
        ext = extend_linear(tr)
        n = len(tr.q)
        assert np.array_equal(ext.q[:n], tr.q)
        assert np.array_equal(ext.cycles[:n], tr.cycles)

    def test_floor_is_min(self):
        tr = self.linear_trace()
        ext = extend_linear(tr, floor=0.5)
        assert np.min(ext.q) >= 0.5

    def test_nondecreasing_tail(self):
        tr = NormalizedTrace("c", np.arange(1, 41), np.full(40, 0.9), 1.1)
        with pytest.raises(DataError, match="tail slope .* >= 0"):
            extend_linear(tr)

    def test_flat_tail_beyond_bound(self):
        # the line would cross 0.5 at ~400,000 cycles, far past 10x the 40 measured
        ks = np.arange(1, 41)
        tr = NormalizedTrace("c", ks, 0.9 - 1e-6 * ks, 1.1)
        with pytest.raises(DataError, match="tail slope .* measured life"):
            extend_linear(tr)

    @given(
        st.lists(st.integers(1, 4), min_size=29, max_size=60),
        st.integers(1, 400),
        st.integers(2, 30),
        st.floats(0.0, 0.3),
        st.floats(0.3, 0.8),
        st.floats(0.0, 0.4),
        st.floats(0.0, 0.01),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_loop(self, gaps, first, tail, drop, floor, height, noise, seed):
        ks = first + np.concatenate([[0], np.cumsum(gaps)])
        rng = np.random.default_rng(seed)
        qs = floor + height + drop * (ks[-1] - ks) / (ks[-1] - ks[0]) + rng.normal(0.0, noise, len(ks))
        qs = np.minimum(qs, 1.14)
        assume(qs[-1] > floor)
        tr = NormalizedTrace("c", ks, qs, 1.1)
        expect = loop_extension(tr, tail, floor, MAX_EXTENSION * int(ks[-1]) + 3)
        try:
            ext = extend_linear(tr, tail=tail, floor=floor)
        except DataError as e:
            assert "tail slope" in str(e)
            assert expect is None or len(expect[0]) > MAX_EXTENSION * ks[-1]
            return
        cycles, q = expect
        assert ext.extrapolated_from == ks[-1] + 1
        assert np.array_equal(ext.cycles[len(ks):], cycles)
        assert ext.q[len(ks):].tobytes() == np.array(q).tobytes()

    def test_already_below_floor(self):
        tr = self.linear_trace()
        with pytest.raises(DataError, match=r"last q .* <= floor 0.95"):
            extend_linear(tr, floor=0.95)

    def test_steep_slope_single_point(self):
        # last point just above floor, steep decline: exactly one appended point
        ks = np.arange(1, 41)
        qs = 1.0 - 0.012 * (ks - 1)
        tr = NormalizedTrace("c", ks, qs, 1.1)
        assert tr.q[-1] > 0.525
        ext = extend_linear(tr, tail=30, floor=0.525)
        n_new = len(ext.q) - len(tr.q)
        # brute-force line walk oracle
        slope, intercept = np.polyfit(ks[-30:].astype(float), qs[-30:], 1)
        k, expect = ks[-1], 0
        while True:
            k += 1
            expect += 1
            if intercept + slope * k <= 0.525:
                break
        assert n_new == expect == 1


class TestTriggerCycle:
    def test_first_crossing(self):
        tr = NormalizedTrace("c", np.array([1, 2, 3, 4]), np.array([1.0, 0.97, 0.94, 0.93]), 1.1)
        assert trigger_cycle(tr, 0.95) == 3

    def test_never_crossed(self):
        tr = NormalizedTrace("c", np.array([1, 2]), np.array([1.0, 0.97]), 1.1)
        assert trigger_cycle(tr, 0.95) is None

    def test_noisy_dip_counts(self):
        qs = np.array([1.0, 0.96, 0.949, 0.96, 0.94])
        tr = NormalizedTrace("c", np.arange(1, 6), qs, 1.1)
        # scan oracle: first index where q <= threshold
        expect = int(np.flatnonzero(qs <= 0.95)[0]) + 1
        assert trigger_cycle(tr, 0.95) == expect == 3

    def test_extreme_thresholds(self):
        tr = NormalizedTrace("c", np.arange(1, 5), np.array([1.0, 0.9, 0.8, 0.7]), 1.1)
        assert trigger_cycle(tr, 1.0 + 1e-9) == 1
        assert trigger_cycle(tr, 0.0) is None

    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([0.9, 0.95, 1.0])), min_size=1, max_size=30))
    def test_equals_run_scan(self, points):
        ks = np.cumsum([gap for gap, _ in points])
        tr = NormalizedTrace("c", ks, [q for _, q in points], 1.1)
        assert trigger_cycle(tr, 0.95) == scan_trigger_cycle(tr, 0.95)


class TestJsonRoundTrip:
    def test_trace_round_trips(self):
        tr = NormalizedTrace("c", np.arange(1, 6), np.linspace(1.0, 0.9, 5), 1.1, extrapolated_from=4)
        tr2 = NormalizedTrace.from_json_dict(tr.to_json_dict())
        assert tr2.cell_id == tr.cell_id
        assert tr2.extrapolated_from == 4
        assert np.array_equal(tr2.q, tr.q)
        assert np.array_equal(tr2.cycles, tr.cycles)
