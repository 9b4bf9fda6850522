"""Battery digital-twin toolkit.

Calibrates a power-law capacity-fade model on a fleet, tracks a cell
online with a particle filter, projects its end-of-life distribution,
and optimizes the retirement cycle with a multi-attribute utility.
"""

from . import calib, dataset, evaluation, filtering, model, prognosis, retirement, synth, utility
from .dataset import CellRecord, NormalizedTrace, Split, extend_linear, load_cells, normalize, trigger_cycle
from .filtering import FilterConfig, ParticleEnsemble, assimilate, init, step
from .model import NoiseSpec
from .prognosis import CapacityProjection, RulPrediction, project, rul
from .retirement import RetirementDecision, candidate_cycles, optimize_retirement
from .utility import (
    AttributeSpec,
    ExpUtility,
    combined_utility,
    default_attribute_specs,
    make_exp_utility,
)

__version__ = "0.1.0"
