"""Sequential-importance-resampling particle filter over (log10 a, b).

State transition is a Gaussian random walk: additive on log10(a) so the
tiny fade coefficient stays positive and scale-preserving, additive on b
with reflection at zero.  The power-law capacity model supplies the
Gaussian measurement likelihood; weights are updated in log space and
the ensemble is systematically resampled when the effective sample size
drops below a configurable fraction of the particle count.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import NormalizedTrace
from .errors import DegenerateWeights, InvalidObservation, SnapshotError
from .model import _LN10, NoiseSpec, checked, fade_q, gaussian_log_lik

SNAPSHOT_VERSION = 2
WEIGHT_SUM_TOL = 1e-9  # how far stored weights may sum from 1 (snapshots, EOL tables)


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 1000
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    init_log10_a: float = -15.77
    init_b: float = 5.45
    init_spread_log10_a: float = 0.5
    init_spread_b: float = 0.5
    resample_threshold: float = 0.5   # ESS fraction of n triggering resampling
    seed: int = 0

    def __post_init__(self):
        # n float64 values must fit one addressable array; below that, too many particles are a MemoryError (exit 4)
        checked("filter.n_particles", self.n_particles, 2, np.iinfo(np.intp).max // 8 + 1, integer=True)
        # init redraws b <= 0; with init_b > 0 a draw is kept with probability > 1/2
        for name, low in (("init_log10_a", -math.inf), ("init_b", 0), ("init_spread_log10_a", 0), ("init_spread_b", 0)):
            checked(f"filter.{name}", getattr(self, name), low)
        checked("filter.resample_threshold", self.resample_threshold, 0, 1, closed=True)


@dataclass
class ParticleEnsemble:
    """Weighted particle cloud; mutated in place by `step`.

    Steps for one cell must be applied sequentially (single-owner state);
    ensembles for distinct cells are independent.
    """

    log10_a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    last_cycle: int
    rng: np.random.Generator
    resample_threshold: float = 0.5
    seed: int = 0

    @property
    def n(self) -> int:
        return len(self.weights)

    def ess(self) -> float:
        return 1.0 / float(np.sum(self.weights ** 2))

    def to_json(self) -> str:
        """Version-2 snapshot: a JSON header plus the (3, n) block [log10_a, b, weights]
        as base64 of little-endian float64."""
        block = np.stack([self.log10_a, self.b, self.weights]).astype("<f8", copy=False)
        return json.dumps(
            {
                "version": SNAPSHOT_VERSION,
                "last_cycle": self.last_cycle,
                "seed": self.seed,
                "resample_threshold": self.resample_threshold,
                "rng_state": self.rng.bit_generator.state,
                "particles": base64.b64encode(block.tobytes()).decode("ascii"),
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "ParticleEnsemble":
        """Restore a `to_json` snapshot, validated first; SnapshotError says what is wrong."""
        try:
            d = json.loads(s)
            if d["version"] != SNAPSHOT_VERSION:
                raise SnapshotError(f"snapshot version {d['version']!r}, expected {SNAPSHOT_VERSION}")
            raw = base64.b64decode(d["particles"], validate=True)
            if len(raw) % 24 or len(raw) < 48:
                raise SnapshotError(f"particle block of {len(raw)} bytes is not 3 x n >= 2 float64 rows")
            block = np.frombuffer(raw, "<f8").reshape(3, -1)
            if not np.all(np.isfinite(block)):
                raise SnapshotError("particle block holds a non-finite value")
            # owned, writable copies: the buffer view is read-only and `step` updates in place
            log10_a, b, weights = (np.array(row, dtype=float) for row in block)
            if not valid_weights(weights):
                raise SnapshotError(f"weights must be >= 0 and sum to 1, got sum {float(np.sum(weights))!r}")
            last_cycle = checked("last_cycle", d["last_cycle"], 0, integer=True)
            seed = checked("seed", d["seed"], 0, integer=True)
            threshold = checked("resample_threshold", d["resample_threshold"], 0, 1, closed=True)
            rng = np.random.Generator(np.random.PCG64(0))  # a fixed seed: the snapshot's state replaces it
            rng.bit_generator.state = d["rng_state"]
        except KeyError as e:
            raise SnapshotError(f"snapshot lacks {e}") from None
        except (TypeError, ValueError, OverflowError) as e:  # JSONDecodeError, binascii.Error and `checked` too
            raise SnapshotError(f"malformed snapshot: {e}") from None
        return cls(
            log10_a=log10_a,
            b=b,
            weights=weights,
            last_cycle=last_cycle,
            rng=rng,
            resample_threshold=float(threshold),
            seed=seed,
        )


def init(config: FilterConfig) -> ParticleEnsemble:
    """Draw the initial cloud around the fleet-median parameters."""
    rng = np.random.default_rng(config.seed)
    n = config.n_particles
    log10_a = rng.normal(config.init_log10_a, config.init_spread_log10_a, size=n)
    b = rng.normal(config.init_b, config.init_spread_b, size=n)
    # truncate b to positive by redrawing (negligible rejection at defaults)
    while np.any(b <= 0):
        bad = b <= 0
        b[bad] = rng.normal(config.init_b, config.init_spread_b, size=int(bad.sum()))
    return ParticleEnsemble(
        log10_a=log10_a,
        b=b,
        weights=np.full(n, 1.0 / n),
        last_cycle=0,
        rng=rng,
        resample_threshold=config.resample_threshold,
        seed=config.seed,
    )


def valid_weights(weights: np.ndarray) -> bool:
    """Whether `weights` are all >= 0 and sum to 1 within WEIGHT_SUM_TOL (NaN fails both)."""
    return bool(np.all(weights >= 0)) and abs(float(np.sum(weights)) - 1.0) <= WEIGHT_SUM_TOL


def systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    """Index array for systematic resampling from a single uniform draw u."""
    n = len(weights)
    positions = (u + np.arange(n)) / n
    cumsum = np.cumsum(weights)
    cumsum[-1] = 1.0  # guard rounding
    return np.searchsorted(cumsum, positions, side="right")


def step(ens: ParticleEnsemble, k: int, q_obs: float, noise: NoiseSpec) -> ParticleEnsemble:
    """One predict / update / resample cycle against measurement (k, q_obs)."""
    if not np.isfinite(q_obs):
        raise InvalidObservation(f"q_obs must be finite, got {q_obs!r}")
    if k <= ens.last_cycle:
        raise InvalidObservation(f"cycle {k} not after last assimilated cycle {ens.last_cycle}")

    n = ens.n
    # predict: random walk on (log10 a, b), b reflected at zero; update: log-likelihood of q_obs.  Runaway particles
    # overflow to -inf log-likelihood (intended); a NaN one (sigmas near 1e308) makes `m` NaN: DegenerateWeights
    with np.errstate(over="ignore", invalid="ignore"):
        ens.log10_a += ens.rng.normal(0.0, noise.sigma_log_a, size=n)
        ens.b += ens.rng.normal(0.0, noise.sigma_b, size=n)
        np.abs(ens.b, out=ens.b)
        q_pred = fade_q(_LN10 * ens.log10_a, ens.b, math.log(k))
        log_lik = gaussian_log_lik(q_obs - q_pred, noise.sigma_meas)
    with np.errstate(divide="ignore"):  # zero weights map cleanly to -inf
        log_w = np.log(ens.weights) + log_lik
    m = np.max(log_w)
    if not np.isfinite(m):
        raise DegenerateWeights(f"all particle likelihoods vanished at cycle {k}")
    w = np.exp(log_w - m)
    ens.weights = w / np.sum(w)

    # resample on ESS collapse
    if ens.ess() < ens.resample_threshold * n:
        idx = systematic_resample(ens.weights, float(ens.rng.random()))
        ens.log10_a = ens.log10_a[idx]
        ens.b = ens.b[idx]
        ens.weights = np.full(n, 1.0 / n)

    ens.last_cycle = k
    return ens


def assimilate(
    ens: ParticleEnsemble,
    trace: NormalizedTrace,
    upto_cycle: int,
    noise: NoiseSpec,
) -> ParticleEnsemble:
    """Fold `step` over measured (k, q) pairs with last_cycle < k <= upto_cycle."""
    mask = (trace.cycles > ens.last_cycle) & (trace.cycles <= upto_cycle)
    for k, q in zip(trace.cycles[mask], trace.q[mask]):
        try:
            step(ens, int(k), float(q), noise)
        except DegenerateWeights as e:
            raise DegenerateWeights(f"{trace.cell_id}: {e}") from None
    return ens
