"""Closed-form equilibrium on a single policy dimension and its comparative statics.

With quadratic loss and a uniform shock the unique pure-strategy platform
pair has a closed form: sort types left to right, turn cumulative shares
into marginal payoff increments, and average bliss points with those
increments as weights. The right platform weights types by the payoff gain
of winning them on top of everyone to their right; the left platform
mirrors this. Both parties earn the same payoff, which grows with the
squared platform distance.

The module also classifies which voter groups a party gains from
attracting or alienating, computes exact payoff gradients in bliss points,
and orders electorates by outward shifts of the two median-conditional
distributions (spreads), under which equilibrium payoffs strictly rise.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalConsistencyError, PreconditionError
from .model import (
    PlatformPair,
    ReducedPayoff,
    Shock,
    VoterDistribution,
    _raise_failed,
    _read_only,
    distance_payoff,
    unit_clamp,
    vote_share_lottery,
)
from .payoffs import proportional_power

_STRICT_TOL = 1e-12


@dataclass(frozen=True)
class Equilibrium1D:
    """Closed-form equilibrium record for a one-dimensional electorate.

    Weights are aligned with ascending bliss order; ``order`` maps sorted
    positions back to the caller's type indices. ``diverse`` is False only
    for the degenerate single-type electorate, where both platforms sit on
    the unique bliss point.
    """

    x_low: float
    x_high: float
    weights_low: np.ndarray
    weights_high: np.ndarray
    payoff: float
    x_risk_neutral: float
    median: float
    order: np.ndarray
    diverse: bool = True

    def __post_init__(self):
        # one record may be handed to many callers (see equilibrium_1d)
        _read_only(self.weights_low, self.weights_high, self.order)

    @functools.cached_property
    def position(self) -> np.ndarray:
        """Sorted position of each type index: the inverse permutation of ``order``."""
        pos = np.empty_like(self.order)
        pos[self.order] = np.arange(len(self.order))
        return _read_only(pos)

    @property
    def distance(self) -> float:
        return self.x_high - self.x_low

    @property
    def pair(self) -> PlatformPair:
        """Platform pair with party A on the high side (labeling convention)."""
        return PlatformPair([self.x_high], [self.x_low])


def _median_cut(heads: np.ndarray):
    """First position ``i`` whose cumulative share reaches one half, and ``tie``:
    whether it hits one half within ``_STRICT_TOL`` (the split then falls after i).
    """
    near = np.abs(heads - 0.5) <= _STRICT_TOL
    reached = near | (heads > 0.5)
    if not reached.any():
        raise InternalConsistencyError("cumulative shares never reached one half")
    i = int(np.argmax(reached))
    return i, bool(near[i])


def median_bliss(dist: VoterDistribution):
    """Median voter position with the even-split convention.

    Returns ``(median, index)``: the bliss point of the type whose mass
    spans one half, or the midpoint of the two adjacent types when the
    cumulative share hits one half exactly between them (index None).
    """
    if dist.dimension != 1:
        raise DimensionError("median_bliss requires a one-dimensional electorate")
    order = dist.ascending_order()
    x = dist.bliss[order, 0]
    i, tie = _median_cut(np.cumsum(dist.shares[order]))
    if tie:
        return 0.5 * (x[i] + x[i + 1]), None
    return float(x[i]), int(order[i])


def risk_neutral_benchmark(dist: VoterDistribution, power) -> float:
    """Platform a purely power-maximizing (risk-neutral) party would offer.

    Weights each type by its increment of the power map along cumulative
    head shares, normalized by total power.
    """
    if dist.dimension != 1:
        raise DimensionError("risk_neutral_benchmark requires a one-dimensional electorate")
    order = dist.ascending_order()
    x = dist.bliss[order, 0]
    heads = np.concatenate(([0.0], np.cumsum(dist.shares[order])))
    rho = np.asarray(power.evaluate(unit_clamp(heads)), dtype=float)
    return float(_risk_neutral_weights(rho, power.total) @ x)


def _risk_neutral_weights(head_power, total):
    """Power increments along the head shares over ``total``, along the last axis."""
    return (head_power[..., 1:] - head_power[..., :-1]) / total


def _head_tail_shares(shares_sorted):
    """Cumulative shares ``(heads, tails)`` of ascending-sorted types, each clamped to [0, 1].

    ``heads`` starts at 0 and ``tails`` ends at 0. Tail shares accumulate
    backwards to limit cancellation.
    """
    heads = np.concatenate(([0.0], unit_clamp(np.cumsum(shares_sorted))))
    tails = np.concatenate((unit_clamp(np.cumsum(shares_sorted[::-1])[::-1]), [0.0]))
    return heads, tails


def equilibrium_weights(shares_sorted: np.ndarray, nu: ReducedPayoff):
    """Marginal payoff increments along ascending-sorted shares.

    High-side weight of a type: payoff gain from winning it on top of all
    types to its right (tail shares). Low-side weight mirrors with head
    shares.
    """
    heads, tails = _head_tail_shares(shares_sorted)
    return _weights_from_values(np.asarray(nu.evaluate(heads), dtype=float),
                                np.asarray(nu.evaluate(tails), dtype=float))


def _weights_from_values(nu_heads, nu_tails):
    """``(w_low, w_high)`` from the payoff at the head and tail shares, along the last axis."""
    return nu_heads[..., 1:] - nu_heads[..., :-1], nu_tails[..., :-1] - nu_tails[..., 1:]


def equilibrium_1d(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
                   check: bool = True) -> Equilibrium1D:
    """Closed-form unidimensional equilibrium.

    Requires a payoff normalized to unit span. With ``check`` the result is
    verified: weights in (0, 1) summing to one, platforms strictly inside
    the bliss range and bracketing the risk-neutral benchmark, the payoff
    identity against the exact integrator, and the shock support at the
    computed platforms. Pass ``check=False`` to inspect the mechanical
    output for boundary inputs (e.g. a linear payoff collapses both
    platforms onto one point).

    The electorate keeps its latest verified solve: a checked call with the
    same ``nu`` object and an equal ``Shock`` returns the same read-only
    record without solving or checking again, so the per-type questions
    (``classify_group``, ``payoff_gradient``) cost one solve for the whole
    electorate. A failing check stores nothing, and ``check=False`` neither
    reads nor replaces the stored solve.
    """
    if not check:
        return _solve(dist, nu, shock, check=False)
    return dist._derived("equilibrium_1d", lambda: _solve(dist, nu, shock, check=True),
                         nu, shock)


def _solve(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
           check: bool) -> Equilibrium1D:
    if dist.dimension != 1:
        raise DimensionError("equilibrium_1d requires a one-dimensional electorate")
    nu.require_normalized()
    power = nu.power_map if nu.power_map is not None else proportional_power()

    if dist.n_types == 1:
        x = float(dist.bliss[0, 0])
        one = np.array([1.0])
        eq = Equilibrium1D(x_low=x, x_high=x, weights_low=one, weights_high=one,
                           payoff=distance_payoff(nu, shock, 0.0), x_risk_neutral=x, median=x,
                           order=np.array([0]), diverse=False)
    else:
        order = dist.ascending_order()
        x = dist.bliss[order, 0]
        w_low, w_high = equilibrium_weights(dist.shares[order], nu)
        x_low = float(w_low @ x)
        x_high = float(w_high @ x)
        median, _ = median_bliss(dist)
        x_rn = risk_neutral_benchmark(dist, power)
        eq = Equilibrium1D(x_low=x_low, x_high=x_high, weights_low=w_low, weights_high=w_high,
                           payoff=distance_payoff(nu, shock, (x_high - x_low) ** 2),
                           x_risk_neutral=x_rn, median=median, order=order)
    if check and eq.diverse:
        _verify_equilibrium(eq, nu, x, vote_share_lottery(dist, shock, eq.pair))
    return eq


# _verify_equilibrium's checks of each side's weights, then of the platforms
# (low, risk-neutral, high) along the last axis against the bliss range (lo, hi)
_WEIGHT_CHECKS = (
    (lambda w: (w <= 0.0).any(axis=-1) | (w >= 1.0).any(axis=-1), PreconditionError,
     "equilibrium weights left (0, 1); payoff increments are not strict "
     "(is the payoff strictly more responsive for the trailing party?)"),
    (lambda w: abs(w.sum(axis=-1) - 1.0) > 1e-10, InternalConsistencyError,
     "equilibrium weights do not sum to one"),
)
_PLATFORM_CHECKS = (
    (lambda x, lo, hi: ~((lo < x[..., 0]) & (x[..., 2] < hi)), InternalConsistencyError,
     "platforms escaped the interior of the bliss range"),
    (lambda x, lo, hi: ~(x[..., 0] < x[..., 2]), PreconditionError,
     "platforms failed to separate; payoff lacks the strict gain asymmetry"),
    (lambda x, lo, hi: ~((x[..., 0] < x[..., 1] + _STRICT_TOL)
                         & (x[..., 1] < x[..., 2] + _STRICT_TOL)),
     InternalConsistencyError, "platforms do not bracket the risk-neutral benchmark"),
)


def _verify_equilibrium(eq: Equilibrium1D, nu, x_sorted, lottery):
    for w in (eq.weights_low, eq.weights_high):
        _raise_failed(_WEIGHT_CHECKS, w)
    _raise_failed(_PLATFORM_CHECKS, np.array([eq.x_low, eq.x_risk_neutral, eq.x_high]),
                  x_sorted[0], x_sorted[-1])
    shares, probs = lottery
    # as expected_payoff(..., "A")
    _check_payoff_identity(eq.payoff, float(np.dot(nu.evaluate(shares), probs)))


def _check_payoff_identity(payoff, direct):
    if abs(direct - payoff) > 1e-10:
        raise InternalConsistencyError(
            f"payoff identity {payoff:.17g} disagrees with exact integrator {direct:.17g}; "
            "check the shock support at the equilibrium platforms")


def payoff_gradient(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
                    type_index: int) -> float:
    """Exact derivative of the equilibrium payoff in one type's bliss point.

    Equal for both parties: distance times the weight differential over the
    shock half-width. Positive exactly for types right of the median.
    """
    if not 0 <= type_index < dist.n_types:
        raise PreconditionError(f"type index {type_index} out of range")
    eq = equilibrium_1d(dist, nu, shock)
    pos = eq.position[type_index]
    dw = eq.weights_high[pos] - eq.weights_low[pos]
    return float((eq.x_high - eq.x_low) * dw / shock.half_width)


class GroupStance(enum.Enum):
    ATTRACT = "attract"
    ALIENATE = "alienate"
    UNCLASSIFIED = "unclassified"


def _stance(eq: Equilibrium1D, xi: float, party: str) -> GroupStance:
    """Stance of ``party`` toward a group at ``xi``; thresholds from the rival platform."""
    if party not in ("A", "B"):
        raise PreconditionError(f"party must be 'A' or 'B', got {party!r}")
    rival = eq.x_low if party == "A" else eq.x_high
    right = xi > max(rival, eq.median) + _STRICT_TOL
    left = xi < min(rival, eq.median) - _STRICT_TOL
    toward, away = (right, left) if party == "A" else (left, right)
    if toward:
        return GroupStance.ATTRACT
    return GroupStance.ALIENATE if away else GroupStance.UNCLASSIFIED


def classify_group(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock,
                   type_index: int, party: str = "A") -> GroupStance:
    """Whether a party gains from attracting or alienating a voter group.

    Party A (the high platform) gains from attracting groups strictly right
    of both the low platform and the median, and from alienating groups
    strictly left of both; party B mirrors the thresholds around the high
    platform. Groups between the thresholds, or exactly on one, are left
    unclassified: the sufficient conditions are silent there.
    """
    if not 0 <= type_index < dist.n_types:
        raise PreconditionError(f"type index {type_index} out of range")
    eq = equilibrium_1d(dist, nu, shock)
    return _stance(eq, float(dist.bliss[type_index, 0]), party)


def _median_split(dist: VoterDistribution):
    """Split a 1-D electorate into its below/above-median conditionals.

    Median mass is divided into virtual atoms sitting at the median itself
    so that each side carries exactly half the population; sides are
    returned as raw value/mass arrays (each summing to one half). Values
    are not re-centered: spread comparisons are at face value.
    """
    median, _ = median_bliss(dist)
    order = dist.ascending_order()
    x = dist.bliss[order, 0]
    s = dist.shares[order]
    lo = x < median - _STRICT_TOL
    hi = x > median + _STRICT_TOL
    below = float(s[lo].sum())
    above = float(s[hi].sum())
    left_x, left_s = list(x[lo]), list(s[lo])
    right_x, right_s = list(x[hi]), list(s[hi])
    left_x.append(median)
    left_s.append(0.5 - below)
    right_x.insert(0, median)
    right_s.insert(0, 0.5 - above)
    return (np.array(left_x), np.array(left_s)), (np.array(right_x), np.array(right_s))


def _fosd(values_a, mass_a, values_b, mass_b):
    """First-order dominance of lottery a over lottery b on the merged grid.

    Values must be ascending. Returns (dominates, strict): a dominates b
    when a's CDF never exceeds b's; strict when it is lower somewhere.
    """
    grid = np.unique(np.concatenate((values_a, values_b)))

    def cdf(values, mass):
        heads = np.concatenate(([0.0], np.cumsum(mass)))
        return heads[np.searchsorted(values, grid + _STRICT_TOL, side="right")]

    gap = cdf(values_b, mass_b) - cdf(values_a, mass_a)
    dominates = bool(np.all(gap >= -_STRICT_TOL))
    strict = bool(np.any(gap > _STRICT_TOL))
    return dominates, strict


def is_spread(base: VoterDistribution, candidate: VoterDistribution) -> bool:
    """Whether ``candidate`` polarizes ``base`` around the median.

    Each electorate is split at its own median (median mass divided into
    virtual atoms so both sides hold half the population) and the sides
    are compared at face value by first-order dominance: the base's left
    conditional must dominate the candidate's (mass moved left) and the
    candidate's right conditional must dominate the base's (mass moved
    right), at least one strictly. Values are not re-centered, so a pure
    translation is never a spread; callers applying the payoff
    monotonicity result to median-centered objects should center first. A
    side where both electorates pile all mass on the median is vacuously
    allowed.
    """
    if base.dimension != 1 or candidate.dimension != 1:
        raise DimensionError("spread comparison requires one-dimensional electorates")
    (bl_x, bl_s), (br_x, br_s) = _median_split(base)
    (cl_x, cl_s), (cr_x, cr_s) = _median_split(candidate)
    left_ok, left_strict = _fosd(bl_x, bl_s, cl_x, cl_s)
    right_ok, right_strict = _fosd(cr_x, cr_s, br_x, br_s)
    return left_ok and right_ok and (left_strict or right_strict)


@dataclass(frozen=True)
class SpreadComparison:
    base_payoff: float
    candidate_payoff: float
    base_distance: float
    candidate_distance: float


def compare_spread_payoffs(base: VoterDistribution, candidate: VoterDistribution,
                           nu: ReducedPayoff, shock: Shock) -> SpreadComparison:
    """Equilibrium payoffs and distances for a (base, spread) pair.

    Requires the spread relation to hold; raises if the candidate fails to
    strictly improve distance and payoff, which the theory rules out.
    """
    if not is_spread(base, candidate):
        raise PreconditionError("candidate electorate is not a spread of the base")
    eq_base = equilibrium_1d(base, nu, shock)
    eq_cand = equilibrium_1d(candidate, nu, shock)
    if not (eq_cand.distance > eq_base.distance and eq_cand.payoff > eq_base.payoff):
        raise InternalConsistencyError("spread failed to raise platform distance and payoff")
    return SpreadComparison(base_payoff=eq_base.payoff, candidate_payoff=eq_cand.payoff,
                            base_distance=eq_base.distance, candidate_distance=eq_cand.distance)
