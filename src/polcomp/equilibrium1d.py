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
    _SUPPORT_CHECKS,
    PlatformPair,
    ReducedPayoff,
    Shock,
    VoterDistribution,
    _cut,
    _gap_values,
    _read_only,
    _unresolved_insurance,
    distance_payoff,
    expected_payoff,
    unit_clamp,
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
    heads, _ = _head_tail_shares(dist.shares[order])
    rho = np.asarray(power.evaluate(heads), dtype=float)
    return float(_risk_neutral_weights(rho, power.total) @ dist.bliss[order, 0])


def _risk_neutral_weights(head_power, total):
    """Power increments along the head shares over ``total``, along the last axis."""
    return (head_power[..., 1:] - head_power[..., :-1]) / total


def _head_tail_shares(shares_sorted):
    """Cumulative shares ``(heads, tails)`` along the last axis, each clamped to [0, 1].

    ``heads`` starts at 0 and ``tails`` ends at 0. Tail shares accumulate
    backwards to limit cancellation.
    """
    shape = shares_sorted.shape[:-1] + (shares_sorted.shape[-1] + 1,)
    heads, tails = np.zeros(shape), np.zeros(shape)
    np.cumsum(shares_sorted, axis=-1, out=heads[..., 1:])
    np.cumsum(shares_sorted[..., ::-1], axis=-1, out=tails[..., -2::-1])   # written back to front
    return unit_clamp(heads), unit_clamp(tails)


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


def equilibrium_1d(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock) -> Equilibrium1D:
    """Closed-form unidimensional equilibrium, verified.

    The checks: weights finite, in (0, 1) and summing to one, platforms
    strictly inside the bliss range and bracketing the risk-neutral
    benchmark, every preference gap at the platforms inside the shock
    support, and the payoff identity against the exact integrator. A
    boundary input fails them (e.g. a linear payoff collapses both platforms
    onto one point); its mechanical weights are ``equilibrium_weights`` of
    the sorted shares. ``PreconditionError`` names the model limits among
    them: a payoff not finite at a cumulative share, weights outside (0, 1),
    platforms that meet, gaps outside the shock support, and bliss points
    so close together that a platform lands on an end of their range
    within the rounding of its weighted sum. A larger escape, like every
    other failure, is an ``InternalConsistencyError``.

    The electorate keeps its latest solve: a call with the same ``nu``
    object and an equal ``Shock`` returns the same read-only record without
    solving or checking again, so the per-type questions
    (``classify_group``, ``payoff_gradient``) cost one solve for the whole
    electorate. A failing check stores nothing.
    """
    return dist._derived("equilibrium_1d", lambda: _solve(dist, nu, shock), nu, shock)


def _solve(dist: VoterDistribution, nu: ReducedPayoff, shock: Shock) -> Equilibrium1D:
    if dist.dimension != 1:
        raise DimensionError("equilibrium_1d requires a one-dimensional electorate")
    order = dist.ascending_order()
    heads, tails = _head_tail_shares(dist.shares[order])
    power = nu.power_map if nu.power_map is not None else proportional_power()
    _, error, w, plat = _closed_form(
        1, None, dist.bliss[order, 0], np.asarray(nu.evaluate(heads), dtype=float)[None],
        np.asarray(nu.evaluate(tails), dtype=float)[None],
        np.asarray(power.evaluate(heads), dtype=float)[None], power.total, shock.half_width)
    if error is not None:
        raise error
    x_low, x_rn, x_high = plat[0].tolist()
    eq = Equilibrium1D(x_low=x_low, x_high=x_high, weights_low=w[0, 0], weights_high=w[0, 1],
                       payoff=distance_payoff(shock, (x_high - x_low) ** 2), x_risk_neutral=x_rn,
                       median=median_bliss(dist)[0], order=order, diverse=dist.n_types > 1)
    _check_payoff_identity(eq.payoff, expected_payoff(dist, nu, shock, eq.pair, "A"))
    return eq


def _closed_form(rows, error, x, nu_heads, nu_tails, rho_heads, total, half_width):
    """``(rows, error, weights, platforms)`` of the closed form on each row, checked.

    A row of ``nu_heads`` and ``nu_tails`` is a payoff at the head and tail
    shares of the ascending bliss points ``x``, one of ``rho_heads`` its power
    map, of total ``total``, at the head shares. ``weights`` is (R, 2, n), low
    side first; ``platforms`` holds the low, risk-neutral and high 1-D dot
    products ``w @ x`` of the rows past the weight checks. Those checks, then
    the platforms' and the extreme types' gaps against the shock support, cut
    ``rows`` and ``error`` (``_cut``). One type holds every platform, unchecked.
    """
    if len(x) == 1:
        return rows, error, np.ones((len(nu_heads), 2, 1)), np.full((len(nu_heads), 3), x[0])
    w = np.stack(_weights_from_values(nu_heads, nu_tails), axis=1)
    rows, error = _cut(rows, error, _WEIGHT_CHECKS, w)
    sides = (w[:rows, 0], _risk_neutral_weights(rho_heads[:rows], total), w[:rows, 1])
    plat = np.array([[v @ x for v in side] for side in sides]).reshape(3, rows).T
    rounding = len(x) * (_EPS * max(abs(x[0]), abs(x[-1])) + _TINY)
    rows, error = _cut(rows, error, _PLATFORM_CHECKS, plat, x[0], x[-1], rounding)
    # a gap is affine in the bliss point, so the extreme types reach the widest
    gaps = _gap_values(x[[0, -1], None], plat[:rows, 2, None, None], plat[:rows, 0, None, None])
    rows, error = _cut(rows, error, _SUPPORT_CHECKS, gaps, half_width)
    return rows, error, w, plat


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).smallest_subnormal
# _closed_form's checks of the weights (R, 2, n), both sides of a row at once,
# then of the platforms (low, risk-neutral, high) along the last axis against
# the bliss range (lo, hi), given the rounding bound of their weighted sums
_WEIGHT_CHECKS = (
    (lambda w: ~np.isfinite(w).all(axis=(-2, -1)), PreconditionError,
     "equilibrium weights are not finite: the reduced payoff is not finite at a "
     "cumulative share of the sorted types"),
    (lambda w: ((w <= 0.0) | (w >= 1.0)).any(axis=(-2, -1)), PreconditionError,
     "equilibrium weights left (0, 1); payoff increments are not strict "
     "(is the payoff strictly more responsive for the trailing party?)"),
    (lambda w: (abs(w.sum(axis=-1) - 1.0) > 1e-10).any(axis=-1), InternalConsistencyError,
     "equilibrium weights do not sum to one"),
)
_PLATFORM_CHECKS = (
    (lambda x, lo, hi, rounding: ~(np.maximum(lo - x[..., 0], x[..., 2] - hi) <= rounding),
     InternalConsistencyError, "platforms escaped the interior of the bliss range"),
    (lambda x, lo, hi, rounding: ~((lo < x[..., 0]) & (x[..., 2] < hi)), PreconditionError,
     "platforms reach the ends of the bliss range within float resolution: the bliss "
     "points lie too close together for their weighted averages to fall between them"),
    (lambda x, lo, hi, rounding: ~(x[..., 0] < x[..., 2]), PreconditionError,
     "platforms failed to separate; payoff lacks the strict gain asymmetry"),
    (lambda x, lo, hi, rounding: ~((x[..., 0] < x[..., 1] + _STRICT_TOL)
                                   & (x[..., 1] < x[..., 2] + _STRICT_TOL)),
     InternalConsistencyError, "platforms do not bracket the risk-neutral benchmark"),
)


def _check_payoff_identity(payoff, direct):
    if abs(direct - payoff) > 1e-10:
        raise InternalConsistencyError(
            f"payoff identity {payoff:.17g} disagrees with exact integrator {direct:.17g}")


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
    strictly improve distance and payoff, which the theory rules out. A
    distance that rises under payoffs that tie is a ``PreconditionError``:
    the shock is too wide for the insurance term to show in a double.
    """
    if not is_spread(base, candidate):
        raise PreconditionError("candidate electorate is not a spread of the base")
    eq_base = equilibrium_1d(base, nu, shock)
    eq_cand = equilibrium_1d(candidate, nu, shock)
    rose = eq_cand.distance > eq_base.distance
    if rose and eq_cand.payoff == eq_base.payoff:
        raise _unresolved_insurance(shock)
    if not (rose and eq_cand.payoff > eq_base.payoff):
        raise InternalConsistencyError("spread failed to raise platform distance and payoff")
    return SpreadComparison(base_payoff=eq_base.payoff, candidate_payoff=eq_cand.payoff,
                            base_distance=eq_base.distance, candidate_distance=eq_cand.distance)
