"""Quantum games workbench.

Convert finite n-player games into quantum games, evaluate expected payoffs
through payoff operators on density matrices, and locate or certify
classical and quantum Nash equilibria and Pareto relations.
"""

from .catalog import CatalogEntry, load
from .classical import (
    ClassicalGame,
    MixedProfile,
    Play,
    dominant_strategies,
    expected_payoffs,
    max_pure_deviation_gain,
    mixed_nash_two_player,
    pareto_optimal_plays,
    pareto_relation,
    pure_nash,
)
from .equilibrium import (
    EquilibriumReport,
    ParetoReport,
    best_response,
    best_response_mixed_finite,
    forcing_response,
    pareto_report,
    verify_nash,
    verify_nash_mixed_finite,
)
from .errors import (
    ChannelError,
    DimensionLimitError,
    GameFileError,
    ParameterError,
    QGamesError,
    ShapeError,
    UnsupportedError,
    ValidationError,
)
from .quantum import (
    DIM_CAP,
    TOL,
    DensityMatrix,
    KrausChannel,
    MeasurementBasis,
    MeasurementOutcome,
    PureState,
    UnitaryOperator,
    apply_channel,
    commutator_norm,
    evolve_density,
    is_unitary,
    measure,
    outcome_probabilities,
    sample_outcome,
    tensor_all,
    tensor_product,
)
from .quantumize import (
    OperatorMixture,
    QuantumGame,
    SequentialQuantumGame,
    build_ewl,
    build_sequential,
    computational_basis,
    expected_payoffs_mixed,
    expected_payoffs_q,
    outcome_distribution,
    play_sequential,
)
from .strategies import (
    ParamPoint,
    StrategyFamily,
    classical_embedding,
    param_unitary,
    parameter_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
