"""Closed-form applications: salience, information, identity, feedback loops.

Everything here reduces to the two-type closed form: with two equally
sized groups a unit of bliss-point disagreement turns into a fixed amount
of platform separation, measured by the separation coefficient of the
payoff. Salience scales the value of that separation, posterior beliefs
about who-wants-what scale the effective disagreement, identity shifts
move voters toward their nearer platform, and iterating the identity shift
produces geometric growth of both voter and platform gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalConsistencyError, PreconditionError
from .model import (ReducedPayoff, Shock, VoterDistribution, as_pair, distance_payoff,
                    preference_gaps)
from .equilibrium1d import equilibrium_1d

FEEDBACK_TOL = 1e-10        # relative gap between simulated and closed-form platform gaps


def separation_coefficient(nu: ReducedPayoff) -> float:
    """Platform separation per unit of two-type voter disagreement.

    Twice the payoff of an even split minus the sum of the extremes;
    positive for strictly concave payoffs, zero at the risk-neutral
    boundary.
    """
    return float(2.0 * nu.value_at_half - (nu.value_at_one + nu.value_at_zero))


def conflict_issue_payoff(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
                          salience: float = 1.0) -> float:
    """Equilibrium payoff when the contested issue carries a salience weight.

    Parties converge on any common-interest issue and split the contested
    one, so only the contested issue's separation contributes, scaled by
    its salience. Salience 1 recovers the single-issue payoff.
    """
    if not 0.0 < salience <= 1.0:
        raise PreconditionError("salience must lie in (0, 1]")
    eq = equilibrium_1d(dist, nu, shock)
    return distance_payoff(shock, salience * eq.distance ** 2)


@dataclass(frozen=True)
class InfoScenario:
    """Beliefs for the two-voter information-provision setting."""

    salience: float                 # weight of the contested issue
    prior_common: float             # prior that the common-interest optimum is 1
    prior_conflict: float           # prior that the first group is the one at 1
    posterior_conflict: float       # posterior at platform-choice time

    def __post_init__(self):
        if not 0.0 < self.salience < 1.0:
            raise PreconditionError("salience must lie in (0, 1)")
        for name in ("prior_common", "prior_conflict"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise PreconditionError(f"{name} must lie in (0, 1)")
        if not 0.0 <= self.posterior_conflict <= 1.0:
            raise PreconditionError("posterior_conflict must lie in [0, 1]")


@dataclass(frozen=True)
class InfoPlatforms:
    x_high: float
    x_low: float
    separation: float


def information_platforms(scenario: InfoScenario, nu: ReducedPayoff) -> InfoPlatforms:
    """Two-voter equilibrium platforms under a posterior about the conflict state.

    Bliss points are the posterior and its complement; platforms are the
    usual weighted averages, and their gap is the separation coefficient
    times the posterior's distance from an even split (negative separation
    means the labeled targets swap).
    """
    post = scenario.posterior_conflict
    lo_gain = nu.value_at_half - nu.value_at_zero   # winning the contested voter from behind
    hi_gain = nu.value_at_one - nu.value_at_half    # completing a sweep
    x_high = lo_gain * post + hi_gain * (1.0 - post)
    x_low = lo_gain * (1.0 - post) + hi_gain * post
    return InfoPlatforms(x_high=x_high, x_low=x_low, separation=x_high - x_low)


def common_interest_welfare_gain(salience: float, prior_common: float) -> float:
    """Per-voter welfare gain from revealing the common-interest optimum."""
    if not 0.0 < salience < 1.0:
        raise PreconditionError("salience must lie in (0, 1)")
    if not 0.0 < prior_common < 1.0:
        raise PreconditionError("prior must lie in (0, 1)")
    return (1.0 - salience) * prior_common * (1.0 - prior_common)


def identity_adjusted_distribution(dist: VoterDistribution, pair, strength: float):
    """Shift every type toward its nearer platform by strength times the gap.

    Types exactly equidistant from both platforms stay put and are
    reported. Returns ``(shifted distribution, unshifted type indices)``.
    """
    p = as_pair(pair)
    if p.dimension != dist.dimension:
        raise DimensionError("platforms and electorate disagree on dimension")
    if strength < 0.0:
        raise PreconditionError("identity strength must be nonnegative")
    gaps = preference_gaps(p, dist)     # refuses NaN platforms and equal infinite ones
    if not (np.all(np.isfinite(p.x_a)) and np.all(np.isfinite(p.x_b))):
        raise PreconditionError("identity shifts need finite platforms")
    gap_vec = p.x_a - p.x_b
    if not np.any(gap_vec != 0.0):
        raise PreconditionError("identity shifts need distinct platforms")
    toward_a = gaps > 1e-12
    toward_b = gaps < -1e-12
    shift = np.zeros_like(dist.bliss)
    shift[toward_a] = strength * gap_vec
    shift[toward_b] = -strength * gap_vec
    unshifted = tuple(int(i) for i in np.flatnonzero(~(toward_a | toward_b)))
    shifted = VoterDistribution(dist.bliss + shift, dist.shares, dist.labels)
    return shifted, unshifted


@dataclass(frozen=True)
class FeedbackParams:
    """Two-voter identity-feedback setting.

    ``gap`` is the rational bliss-point distance; identity strength per
    period is ``theta_high`` when both parties invest, ``theta_low`` when
    one does; ``separation`` is the payoff's separation coefficient.
    """

    gap: float
    theta_high: float
    theta_low: float
    cost: float
    half_width: float
    separation: float
    horizon: int = 50

    def __post_init__(self):
        # theta_high == theta_low == 0 admits the no-feedback benchmark;
        # the self-reinforcement test additionally needs 0 < low < high
        if self.theta_low < 0.0 or self.theta_low > self.theta_high:
            raise PreconditionError("need 0 <= theta_low <= theta_high")
        if self.separation <= 0.0:
            raise PreconditionError("separation coefficient must be positive")
        if self.cost <= 0.0 or self.half_width <= 0.0:
            raise PreconditionError("cost and shock half-width must be positive")
        if self.gap < 0.0 or self.horizon < 0:
            raise PreconditionError("gap and horizon must be nonnegative")
        if not math.isfinite(self.gap * self.gap):
            raise PreconditionError(f"gap {self.gap} squared is not finite")
        if not math.isfinite(self.growth_ratio):
            raise PreconditionError(
                f"growth ratio 2 * theta_high * separation is {self.growth_ratio}, not finite")

    @property
    def growth_ratio(self) -> float:
        return 2.0 * self.theta_high * self.separation


@dataclass(frozen=True)
class FeedbackRecord:
    period: int
    voter_gap: float
    platform_gap: float
    closed_form_gap: float


@dataclass(frozen=True)
class FeedbackTrajectory:
    records: tuple
    regime: str                 # converging | diverging | knife-edge
    limit_gap: float            # finite only when converging

    @property
    def platform_gaps(self) -> np.ndarray:
        return np.array([r.platform_gap for r in self.records])


def polarization_feedback_trajectory(params: FeedbackParams) -> FeedbackTrajectory:
    """Simulate the per-period identity shift and its platform response.

    Each period both parties invest, voters move toward their nearer
    platform by theta times the previous platform gap, and the myopic
    two-type equilibrium turns the new voter gap into a platform gap via
    the separation coefficient. The simulated gap must match the geometric
    partial sum within ``FEEDBACK_TOL`` (relative, floored at one) every
    period. Raises ``PreconditionError`` at the first period where either
    gap is not finite.
    """
    g = params.separation
    theta = params.theta_high
    ratio = params.growth_ratio
    records = []
    voter_gap = params.gap
    platform_gap = g * voter_gap
    closed = platform_gap
    power = 1.0
    for t in range(params.horizon + 1):
        if t:
            voter_gap = params.gap + 2.0 * theta * platform_gap
            platform_gap = g * voter_gap
            power *= ratio
            closed = closed + g * params.gap * power
        if not (math.isfinite(platform_gap) and math.isfinite(closed)):
            raise PreconditionError(
                f"platform gap leaves the floating-point range at period {t}")
        if abs(platform_gap - closed) > FEEDBACK_TOL * max(1.0, abs(closed)):
            raise InternalConsistencyError(
                f"simulated gap {platform_gap:.17g} deviates from the geometric "
                f"closed form {closed:.17g} at period {t}")
        records.append(FeedbackRecord(t, voter_gap, platform_gap, closed))
    if abs(ratio - 1.0) <= 1e-12:
        regime, limit = "knife-edge", float("inf")
    elif ratio < 1.0:
        regime, limit = "converging", g * params.gap / (1.0 - ratio)
    else:
        regime, limit = "diverging", float("inf")
    return FeedbackTrajectory(records=tuple(records), regime=regime, limit_gap=limit)


def is_self_reinforcing(params: FeedbackParams) -> bool:
    """Whether per-period identity investment pays for itself indefinitely.

    Compares the squared rational gap against the cost-scaled worst case of
    the two deviation margins (matching the rival's investment versus
    investing alone).
    """
    if not 0.0 < params.theta_low < params.theta_high:
        raise PreconditionError(
            "self-reinforcement comparison needs 0 < theta_low < theta_high")
    g = params.separation
    th, tl = params.theta_high, params.theta_low
    rhs = (params.half_width * params.cost) / (2.0 * g ** 3) * max(
        1.0 / ((th - tl) * (1.0 + g * (th + tl))),
        1.0 / (tl * (1.0 + g * tl)),
    )
    return params.gap ** 2 > rhs
