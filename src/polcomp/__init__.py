"""Two-party platform competition with concave returns to political power.

Core objects live in ``model``; ``payoffs`` builds reduced vote-share
payoffs from microfoundations; ``equilibrium1d`` and ``equilibriumkd``
compute equilibria in closed form and by enumeration; ``welfare`` prices
the implemented-policy lottery; ``applications`` covers salience,
information, identity, and feedback dynamics; ``cli`` runs scenario files.
"""

from .errors import (
    DimensionError,
    InternalConsistencyError,
    PolcompError,
    PreconditionError,
)
from .model import (
    PlatformPair,
    PowerMap,
    PowerUtility,
    ReducedPayoff,
    Shock,
    ShockSupportReport,
    VoterDistribution,
    as_pair,
    check_shock_support,
    expected_payoff,
    monte_carlo_payoff,
    preference_gap,
    preference_gaps,
    vote_probability,
    vote_share_lottery,
)
from .payoffs import (
    CostProfile,
    PlacementProfile,
    RentSharingProfile,
    compose_reduced_payoff,
    majority_premium_power,
    payoff_preset,
    proportional_power,
    utility_from_governance_cost,
    utility_from_placements,
    utility_from_rent_sharing,
    utility_preset,
)
from .equilibrium1d import (
    Equilibrium1D,
    GroupStance,
    SpreadComparison,
    classify_group,
    compare_spread_payoffs,
    equilibrium_1d,
    equilibrium_weights,
    is_spread,
    median_bliss,
    payoff_gradient,
    risk_neutral_benchmark,
)
from .equilibriumkd import (
    DirectionalSpreadComparison,
    DynamicsResult,
    LocalEquilibrium,
    NashReport,
    best_response,
    best_response_dynamics,
    compare_directional_spread_payoffs,
    enumerate_local_equilibria,
    induced_ranking,
    is_directional_spread,
    is_symmetric,
    local_divide_gradient,
    median_position,
    party_preferred_equilibria,
    platforms_for_ranking,
    project_distribution,
)
from .welfare import (
    PolicyLottery,
    PremiumSweep,
    SweepRow,
    WelfareReport,
    policy_lottery,
    premium_sweep,
    welfare_decomposition,
)
from .applications import (
    FeedbackParams,
    FeedbackTrajectory,
    InfoPlatforms,
    InfoScenario,
    common_interest_welfare_gain,
    conflict_issue_payoff,
    identity_adjusted_distribution,
    information_platforms,
    is_self_reinforcing,
    polarization_feedback_trajectory,
    separation_coefficient,
)

__version__ = "0.1.0"
