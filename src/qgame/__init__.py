"""Quantized 2x2 games on a noisy Bell state, with quantum discord tools.

Classical bimatrix games (prisoner's dilemma, chicken) are lifted to a
quantum protocol: the players share a Bell state mixed with white noise,
apply local unitary moves and are paid according to a measurement in a
tunable entangled basis.  The package computes payoffs along two
independent routes, verifies Nash equilibria on strategy grids, and relates
the all-quantum equilibrium to the quantum discord of the shared state.
"""

from .games import (
    Bimatrix,
    PureProfile,
    builtin_cg,
    builtin_pd,
    dominant_strategy,
    load_game,
    pareto_optimal_profiles,
    parse_game_text,
    payoffs_at,
    pure_nash_equilibria,
)
from .quantize import (
    COOPERATE,
    DEFECT,
    QUANTUM,
    QuantumGameConfig,
    StrategyParams,
    WernerClassification,
    basis_projectors,
    classify_werner,
    final_state,
    outcome_probabilities,
    payoffs_closed_form,
    payoffs_matrix_path,
    payoffs_matrix_path_batch,
    payoffs_product_basis,
    strategy_unitary,
    werner_state,
)
from .discord import (
    BlochDirection,
    DiscordReport,
    conditional_entropy,
    measurement_projectors,
    mutual_information,
    quantum_discord,
    werner_discord_analytic,
)
from .equilibria import (
    DeviationGap,
    DilemmaReport,
    EquilibriumVerdict,
    cg_gap_closed_form,
    deviation_gap,
    dilemma_report,
    pd_gap_closed_form,
    verify_profile_nash,
)

__version__ = "0.1.0"
