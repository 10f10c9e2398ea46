"""Expected travel times and optimal trust on networks with unreliable
route pointers, plus the two-player first-to-home game on the 3-node line."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    CapExceeded,
    DegeneratePolicy,
    NonConvergence,
    NotATree,
    OutOfRange,
    SatnavError,
    SingularSystem,
    ValidationError,
)
from .network import (
    Arc,
    Network,
    NodeClassification,
    ShortestPathData,
    build_network,
    classify,
    find_bridges_and_cuts,
    network_to_text,
    parse_network_file,
    parse_network_text,
    shortest_paths,
)
from .pointers import (
    DirectionVector,
    WeightedDirectionSpace,
    enumerate_direction_space,
    node_pointer_distribution,
    sample_pointer_slots,
)
from .solver import (
    ByDegree,
    SimulationResult,
    TimeProfile,
    TrustPolicy,
    Uniform,
    expected_profile,
    expected_time,
    expected_time_between,
    hitting_times_for_direction,
    simulate,
    step_distribution,
)
from .closed_form import (
    BridgeSpec,
    LineCoefficients,
    StarSpec,
    bridge_M,
    bridge_time,
    line_coefficients,
    line_cross_time,
    line_increment,
    line_z,
    star_optimal_trust,
    star_time,
    tree_solve_counting,
    unit_line_cross_time,
)
from .optimize import (
    Diagnostics,
    OptimizationResult,
    golden_section,
    minimize_scalar_grid,
    optimize_counting,
    optimize_uniform,
    trust_curve,
)
from .game import (
    GamePayoff,
    GameSimulation,
    GameSolution,
    Regime,
    ResponseCurves,
    asymmetric_equilibrium,
    asymmetric_payoff,
    asymmetric_q_mid,
    best_response,
    best_response_curves,
    evaluate_payoff,
    simulate_game,
    symmetric_equilibrium,
    symmetric_payoff,
)

# the public API is every name imported above
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
