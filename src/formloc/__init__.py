"""Relative localization and distance-based formation control for planar
agent networks.

Agents measure squared distances to their graph neighbors plus their own
heading, estimate the neighbors' relative positions with a Kalman filter
whose prediction runs on a matrix Lie group of stacked planar offsets, and
feed those estimates to gradient-style formation controllers.  The package
bundles the group/filter/controller layers, observability rank tests, the
paper's scenarios, a deterministic closed-loop engine, and a CLI.
"""

from .controller import (
    MismatchConfig,
    estimated_control,
    formation_potential,
    ideal_control,
    mismatch_control,
)
from .estimator import EstimatorState, NoiseConfig, SingularUpdateError
from .lie_group import (
    AlgebraElement,
    GroupElement,
    compose,
    exp,
    identity,
    inverse,
    rotation,
    step_body_velocity,
    step_jacobian,
    wrap_angle,
)
from .network import (
    AgentError,
    DesiredDistances,
    Graph,
    distance_errors,
    edge_offsets,
    rigidity_matrix,
    sorted_neighbors,
)
from .observability import (
    CodistributionReport,
    GramianReport,
    codistribution_matrix,
    codistribution_rank,
    empirical_gramian,
    observation,
    observation_jacobian,
)
from .scenario import (
    MetricsSeries,
    OutcomeSummary,
    OutcomeThresholds,
    ScenarioConfig,
    detect_outcome,
    scenario_issue1,
    scenario_issue2,
    scenario_issue3,
    scenario_nominal,
)
from .sim import DivergenceError, WorldState, init_world, run

__version__ = "0.1.0"

__all__ = [
    "AgentError",
    "AlgebraElement",
    "CodistributionReport",
    "DesiredDistances",
    "DivergenceError",
    "EstimatorState",
    "GramianReport",
    "Graph",
    "GroupElement",
    "MetricsSeries",
    "MismatchConfig",
    "NoiseConfig",
    "OutcomeSummary",
    "OutcomeThresholds",
    "ScenarioConfig",
    "SingularUpdateError",
    "WorldState",
    "codistribution_matrix",
    "codistribution_rank",
    "compose",
    "detect_outcome",
    "distance_errors",
    "edge_offsets",
    "empirical_gramian",
    "estimated_control",
    "exp",
    "formation_potential",
    "ideal_control",
    "identity",
    "init_world",
    "inverse",
    "mismatch_control",
    "observation",
    "observation_jacobian",
    "rigidity_matrix",
    "rotation",
    "run",
    "scenario_issue1",
    "scenario_issue2",
    "scenario_issue3",
    "scenario_nominal",
    "sorted_neighbors",
    "step_body_velocity",
    "step_jacobian",
    "wrap_angle",
    "__version__",
]
