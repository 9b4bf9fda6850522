import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cell_twin import (
    FilterConfig,
    NoiseSpec,
    ParticleEnsemble,
    assimilate,
    init,
    step,
)
from cell_twin.errors import DataError, DegenerateWeights, InvalidObservation, SnapshotError
from cell_twin.filtering import systematic_resample
from cell_twin.model import _LN10, eol_cycles, fade_q
from cell_twin.prognosis import EolDistribution
from conftest import power_law_trace

TINY = 1e-12


def two_particle_ensemble(log10_as, bs, weights=(0.5, 0.5), seed=0):
    return ParticleEnsemble(
        log10_a=np.array(log10_as, dtype=float),
        b=np.array(bs, dtype=float),
        weights=np.array(weights, dtype=float),
        last_cycle=0,
        rng=np.random.default_rng(seed),
        resample_threshold=1e-9,  # effectively never resample
    )


class TestInit:
    def test_degenerate_spread_limit(self):
        cfg = FilterConfig(n_particles=4, init_spread_log10_a=TINY, init_spread_b=TINY, seed=1)
        ens = init(cfg)
        assert np.allclose(ens.log10_a, -15.77, atol=1e-9)
        assert np.allclose(ens.b, 5.45, atol=1e-9)
        assert np.allclose(ens.weights, 0.25)
        assert ens.last_cycle == 0

    def test_same_seed_bit_identical(self):
        a, b = init(FilterConfig(seed=42)), init(FilterConfig(seed=42))
        assert np.array_equal(a.log10_a, b.log10_a)
        assert np.array_equal(a.b, b.b)

    def test_sampler_mean_clt_bound(self):
        ens = init(FilterConfig(n_particles=1000, seed=0))
        assert abs(np.mean(ens.log10_a) - (-15.77)) < 3 * 0.5 / math.sqrt(1000)
        assert abs(np.mean(ens.b) - 5.45) < 3 * 0.5 / math.sqrt(1000)

    def test_b_positive(self):
        ens = init(FilterConfig(n_particles=2000, init_b=0.5, init_spread_b=1.0, seed=3))
        assert np.all(ens.b > 0)

    @pytest.mark.parametrize("prior", [
        {"init_b": -5.0}, {"init_b": 0.0}, {"init_b": math.nan}, {"init_b": True}, {"init_log10_a": "x"},
        {"init_log10_a": math.inf}, {"init_spread_b": math.nan}, {"init_spread_log10_a": None},
    ])
    def test_prior_init_cannot_draw_from_rejected(self, prior):
        # init_b = -5 would make init's redraw of b <= 0 loop for ever
        with pytest.raises(ValueError, match=next(iter(prior))):
            FilterConfig(**prior)


class TestStep:
    def test_equal_residuals_keep_weights(self):
        noise = NoiseSpec(sigma_meas=0.01, sigma_log_a=TINY, sigma_b=TINY)
        ens = two_particle_ensemble([-15.77, -15.77], [5.45, 5.45])
        q_obs = fade_q(_LN10 * ens.log10_a[0], ens.b[0], math.log(100))
        step(ens, 100, q_obs, noise)
        assert np.allclose(ens.weights, 0.5, atol=1e-6)
        assert ens.last_cycle == 100

    def test_three_sigma_weight_ratio(self):
        # one particle exact, one with residual 3 sigma: ratio e^4.5
        noise = NoiseSpec(sigma_meas=0.01, sigma_log_a=TINY, sigma_b=TINY)
        ens = two_particle_ensemble([-3.0, -3.0], [1.0, 1.0])
        q_exact = fade_q(_LN10 * ens.log10_a[0], ens.b[0], math.log(100))  # 0.9
        ens.log10_a[1] = math.log10(10 ** -3.0 + 0.03 / 100)  # shift prediction by 0.03
        step(ens, 100, q_exact, noise)
        ratio = ens.weights[0] / ens.weights[1]
        assert ratio == pytest.approx(math.exp(4.5), rel=1e-4)

    def test_nan_observation_rejected_before_predict(self):
        ens = two_particle_ensemble([-15.77, -15.0], [5.45, 5.0])
        before = ens.log10_a.copy()
        with pytest.raises(InvalidObservation):
            step(ens, 1, float("nan"), NoiseSpec())
        assert np.array_equal(ens.log10_a, before)

    def test_weights_normalized(self):
        ens = init(FilterConfig(n_particles=200, seed=9))
        trace = power_law_trace(n_cycles=50, noise_std=0.01, seed=1)
        for k in range(1, 51):
            step(ens, k, float(trace.q[k - 1]), NoiseSpec())
            assert abs(np.sum(ens.weights) - 1.0) < 1e-9

    def test_no_nan_at_huge_residual(self):
        ens = init(FilterConfig(n_particles=100, seed=2))
        step(ens, 1, 1.0 + 50 * 0.01, NoiseSpec())  # 50 sigma outlier
        assert np.all(np.isfinite(ens.weights))

    def test_degenerate_weights_raised(self):
        ens = two_particle_ensemble([-15.77, -15.0], [5.45, 5.0])
        with pytest.raises(DegenerateWeights):
            step(ens, 100, 1e8, NoiseSpec(sigma_meas=1e-300, sigma_log_a=TINY, sigma_b=TINY))

    def test_non_advancing_cycle_rejected(self):
        ens = two_particle_ensemble([-15.77, -15.0], [5.45, 5.0])
        step(ens, 5, 1.0, NoiseSpec())
        with pytest.raises(InvalidObservation):
            step(ens, 5, 1.0, NoiseSpec())


class TestSystematicResample:
    def test_preserves_weighted_mean_in_expectation(self):
        rng = np.random.default_rng(10)
        n = 200
        values = rng.normal(5.0, 1.0, n)
        weights = rng.random(n)
        weights /= weights.sum()
        target = float(np.sum(weights * values))
        means = []
        for _ in range(200):
            idx = systematic_resample(weights, float(rng.random()))
            means.append(values[idx].mean())
        se = np.std(means) / math.sqrt(len(means))
        assert abs(np.mean(means) - target) < 3 * max(se, 1e-12)

    def test_uniform_weights_identity_like(self):
        idx = systematic_resample(np.full(4, 0.25), 0.5)
        assert sorted(idx.tolist()) == [0, 1, 2, 3]


class TestAssimilate:
    def test_noop_below_last_cycle(self):
        ens = init(FilterConfig(n_particles=50, seed=4))
        trace = power_law_trace(n_cycles=20)
        assimilate(ens, trace, 10, NoiseSpec())
        snapshot = ens.to_json()
        assimilate(ens, trace, 10, NoiseSpec())
        assert ens.to_json() == snapshot

    def test_fold_equivalence(self):
        trace = power_law_trace(n_cycles=30, noise_std=0.01, seed=6)
        one_call = init(FilterConfig(n_particles=100, seed=5))
        assimilate(one_call, trace, 30, NoiseSpec())
        stepwise = init(FilterConfig(n_particles=100, seed=5))
        for k in range(1, 31):
            assimilate(stepwise, trace, k, NoiseSpec())
        assert one_call.to_json() == stepwise.to_json()

    def test_posterior_converges_on_synthetic_trace(self):
        # (log10_a, b) are only ridge-identified from capacity data, so the
        # oracle is predictive: the posterior-mean fade curve and its implied
        # end of life must match the generating parameters.
        trace = power_law_trace(log10_a=-15.0, b=5.0, n_cycles=500, noise_std=0.001, seed=8)
        ens = init(FilterConfig(n_particles=1000, seed=8, init_log10_a=-15.77, init_b=5.45))
        assimilate(ens, trace, 500, NoiseSpec())
        mean_la, mean_b = np.average([ens.log10_a, ens.b], axis=1, weights=ens.weights)
        post, true = (_LN10 * mean_la, mean_b), (_LN10 * -15.0, 5.0)
        assert eol_cycles(*post, 0.5) == pytest.approx(eol_cycles(*true, 0.5), rel=0.02)
        ln_ks = np.log(np.arange(50, 501, 50).astype(float))
        assert np.allclose(fade_q(*post, ln_ks), fade_q(*true, ln_ks), atol=0.01)


class TestPosteriorSummary:
    def test_init_variance_matches_spread(self):
        ens = init(FilterConfig(n_particles=5000, seed=12))
        cov = np.cov([ens.log10_a, ens.b], aweights=ens.weights, bias=True)
        assert cov[0, 0] == pytest.approx(0.25, rel=0.1)
        assert cov[1, 1] == pytest.approx(0.25, rel=0.1)


class TestCredibleIntervalCoverage:
    def test_b_interval_covers_truth_frequently(self):
        # loose frequentist sanity band on the model's own generative process
        covered = 0
        n_rep = 100
        for rep in range(n_rep):
            rng = np.random.default_rng(20000 + rep)
            true_la = rng.normal(-15.77, 0.5)
            true_b = abs(rng.normal(5.45, 0.5))
            trace = power_law_trace(true_la, true_b, n_cycles=300, noise_std=0.01, seed=30000 + rep)
            ens = init(FilterConfig(n_particles=300, seed=rep))
            assimilate(ens, trace, 300, NoiseSpec())
            b_dist = EolDistribution(ens.b, ens.weights)
            lo, hi = b_dist.quantile(0.05), b_dist.quantile(0.95)
            covered += lo <= true_b <= hi
        assert covered >= 80


def stepped_ensemble(n, seed, steps, trace):
    """An n-particle ensemble with uneven weights that has assimilated `steps` cycles."""
    ens = init(FilterConfig(n_particles=n, seed=seed))
    w = np.random.default_rng(seed).random(n) + 0.01
    ens.weights = w / w.sum()
    assimilate(ens, trace, steps, NoiseSpec())
    return ens


def edited(snapshot: str, **fields) -> str:
    """`snapshot` with its header fields replaced (a value of None removes the field)."""
    d = json.loads(snapshot)
    d.update(fields)
    return json.dumps({k: v for k, v in d.items() if v is not None})


def with_block(snapshot: str, block: np.ndarray) -> str:
    return edited(snapshot, particles=base64.b64encode(block.astype("<f8").tobytes()).decode("ascii"))


def block_of(snapshot: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(json.loads(snapshot)["particles"]), "<f8").reshape(3, -1).copy()


def nan_particle(s):
    block = block_of(s)
    block[1, 0] = np.nan
    return with_block(s, block)


def weights_times(factor):
    def edit(s):
        block = block_of(s)
        block[2] *= factor
        return with_block(s, block)
    return edit


def version_1(s):
    d = json.loads(s)
    block = block_of(s)
    return json.dumps({"last_cycle": d["last_cycle"], "seed": d["seed"], "resample_threshold": 0.5,
                       "log10_a": block[0].tolist(), "b": block[1].tolist(), "weight": block[2].tolist(),
                       "rng_state": d["rng_state"]})


def one_particle(s):
    block = block_of(s)[:, :1].copy()
    block[2] = 1.0
    return with_block(s, block)


def rng_state(**fields):
    return lambda s: edited(s, rng_state={**json.loads(s)["rng_state"], **fields})


CORRUPTED = {
    "version_1_lists": version_1,
    "version_3": lambda s: edited(s, version=3),
    "truncated": lambda s: s[: len(s) // 2],
    "invalid_base64": lambda s: edited(s, particles="@@@@" + json.loads(s)["particles"][4:]),
    "block_not_multiple_of_24": lambda s: edited(s, particles=base64.b64encode(b"\0" * 56).decode("ascii")),
    "one_particle": one_particle,
    "nan_particle": nan_particle,
    "weights_sum_0.9": weights_times(0.9),
    "last_cycle_negative": lambda s: edited(s, last_cycle=-1),
    "last_cycle_fraction": lambda s: edited(s, last_cycle=2.5),
    "resample_threshold_0": lambda s: edited(s, resample_threshold=0),
    "rng_state_missing": lambda s: edited(s, rng_state=None),
    "rng_state_other_generator": rng_state(bit_generator="MT19937"),
    "rng_state_negative": rng_state(state={"state": -1, "inc": 1}),
}

TRACE_40 = power_law_trace(n_cycles=40, noise_std=0.01, seed=14)


class TestSerialization:
    def test_round_trip_preserves_evolution(self):
        trace = TRACE_40
        ens = init(FilterConfig(n_particles=64, seed=13))
        assimilate(ens, trace, 20, NoiseSpec())
        resumed = ParticleEnsemble.from_json(ens.to_json())
        assimilate(ens, trace, 40, NoiseSpec())
        assimilate(resumed, trace, 40, NoiseSpec())
        assert ens.to_json() == resumed.to_json()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 1000), st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 20))
    def test_round_trip_is_bitwise(self, n, seed, before, after):
        ens = stepped_ensemble(n, seed, before, TRACE_40)
        copy = ParticleEnsemble.from_json(ens.to_json())
        for name in ("log10_a", "b", "weights"):
            restored = getattr(copy, name)
            assert restored.tobytes() == getattr(ens, name).tobytes()
            assert restored.flags.writeable and restored.base is None  # owned, not a view of the buffer
        assert copy.rng.bit_generator.state == ens.rng.bit_generator.state
        for name in ("last_cycle", "seed", "resample_threshold"):
            assert getattr(copy, name) == getattr(ens, name)
        assert copy.to_json() == ens.to_json()
        assimilate(ens, TRACE_40, before + after, NoiseSpec())
        assimilate(copy, TRACE_40, before + after, NoiseSpec())
        assert copy.to_json() == ens.to_json()

    @pytest.mark.parametrize("case", sorted(CORRUPTED))
    def test_corrupted_snapshot_raises_snapshot_error(self, case):
        good = stepped_ensemble(16, 5, 10, TRACE_40).to_json()
        ParticleEnsemble.from_json(good)
        with pytest.raises(SnapshotError) as info:
            ParticleEnsemble.from_json(CORRUPTED[case](good))
        assert isinstance(info.value, DataError) and str(info.value)
