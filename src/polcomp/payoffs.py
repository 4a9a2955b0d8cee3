"""Construction of power maps, power utilities, and reduced payoffs.

Three microfoundations produce a strictly concave utility over power:
filling ranked placements (integral of a decreasing value schedule),
splitting rents across insiders with concave individual utility, and
netting out convex governance costs. A one-parameter family of
proportional-with-premium power maps models majority bonuses. Composing a
utility with a power map yields the reduced vote-share payoff consumed by
the equilibrium modules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .model import PowerMap, PowerUtility, ReducedPayoff, _central_differences, _raise_failed

_SIMPSON_PANELS = 2048
# nodes/weights for composite Simpson on [0, 1]; rescaled per upper limit
_SIMPSON_X = np.linspace(0.0, 1.0, 2 * _SIMPSON_PANELS + 1)
_SIMPSON_W = np.ones(2 * _SIMPSON_PANELS + 1)
_SIMPSON_W[1:-1:2] = 4.0
_SIMPSON_W[2:-1:2] = 2.0
_SIMPSON_W /= 6.0 * _SIMPSON_PANELS
# rows of schedule values per Simpson product; a multiple of the 4-row groups
# OpenBLAS dgemv sums together, and far below its ~112-row threading cut-off
_PLACEMENT_BLOCK = 64


@dataclass(frozen=True)
class PlacementProfile:
    """Strictly decreasing value schedule over placements [0, capacity]."""

    value: callable          # q(k), value of the k-th best placement
    capacity: float          # measure of available placements
    total_power: float = 1.0

    def __post_init__(self):
        if not self.capacity >= self.total_power:
            raise PreconditionError("placement capacity must cover total power")
        grid = np.linspace(0.0, self.capacity, 1001)
        vals = np.asarray(self.value(grid), dtype=float)
        if np.any(np.diff(vals) >= 0.0):
            raise PreconditionError("placement value schedule must be strictly decreasing")


@dataclass(frozen=True)
class RentSharingProfile:
    """Concave insider utility shared equally among n insiders."""

    insider_utility: callable
    insiders: int
    total_power: float = 1.0

    def __post_init__(self):
        if int(self.insiders) != self.insiders or self.insiders < 1:
            raise PreconditionError("insider count must be an integer >= 1")
        # same derivative grid checks as PowerUtility, on the per-insider domain
        PowerUtility(self.insider_utility, total=self.total_power / self.insiders,
                     description="insider utility check")


@dataclass(frozen=True)
class CostProfile:
    """Strictly convex, strictly increasing governance cost of power."""

    cost: callable
    total_power: float = 1.0

    def __post_init__(self):
        first, second = _central_differences(self.cost, self.total_power, "governance cost")
        if np.any(first <= 0.0):
            raise PreconditionError("governance cost must be strictly increasing")
        if np.any(second <= 0.0):
            raise PreconditionError("governance cost must be strictly convex")


def utility_from_placements(profile: PlacementProfile) -> PowerUtility:
    """Utility = integral of the value schedule over the filled placements.

    Composite Simpson with a fixed panel count keeps results deterministic;
    the rule is exact for polynomial schedules up to cubic. Any array shape works.

    The schedule is evaluated one input point at a time, on that point's
    Simpson nodes, so it must act elementwise. The rows go into one reused
    block, and each block is summed by one matrix-vector product. Blocks
    hold a multiple of 4 rows, and a last block of 1-3 rows joins the one
    before it. Each row therefore sits in the same place within OpenBLAS's
    4-row groups as in one product over all points, taken on a single
    thread. Every block is also too small for BLAS to split across threads,
    so the results do not depend on the BLAS thread count, and memory stays
    at one block whatever the input size.
    """
    q = profile.value

    def u(power):
        p = np.asarray(power, dtype=float)
        flat = p.reshape(-1)
        n = flat.size
        out = np.empty(n)
        block = np.empty((min(n, _PLACEMENT_BLOCK + 3), _SIMPSON_X.size))
        start = 0
        while start < n:
            stop = start + _PLACEMENT_BLOCK
            if n - stop < 4:
                stop = n
            for i in range(start, stop):
                block[i - start] = q(flat[i] * _SIMPSON_X)
            np.matmul(block[:stop - start], _SIMPSON_W, out=out[start:stop])
            start = stop
        out *= flat
        return out.reshape(p.shape) if p.shape else out[0]

    return PowerUtility(u, total=profile.total_power, description="placements")


def utility_from_rent_sharing(profile: RentSharingProfile) -> PowerUtility:
    """Utility from splitting power equally among insiders: n * u(power / n)."""
    n = float(profile.insiders)
    u_i = profile.insider_utility

    def u(power):
        return n * np.asarray(u_i(np.asarray(power, dtype=float) / n), dtype=float)

    return PowerUtility(u, total=profile.total_power, description=f"rent sharing (n={profile.insiders})")


def utility_from_governance_cost(profile: CostProfile) -> PowerUtility:
    """Net utility power - cost(power); rejected if the cost ever dominates."""
    c = profile.cost

    def u(power):
        p = np.asarray(power, dtype=float)
        return p - np.asarray(c(p), dtype=float)

    return PowerUtility(u, total=profile.total_power, description="net of governance cost")


def majority_premium_power(total: float, premium: float) -> PowerMap:
    """Proportional power with an extra ``premium`` for any strict majority.

    Power is (total - premium) * share below one half, jumps by ``premium``
    across the threshold, and exactly half the total is assigned at a tie.
    Constant-sum holds by construction for every premium in [0, total).
    """
    if not 0.0 <= premium < total:
        raise PreconditionError("premium must lie in [0, total)")
    slope = total - premium
    return PowerMap(total, functools.partial(_premium_power, total, premium),
                    half_lower=slope * 0.5, half_upper=slope * 0.5 + premium,
                    description=f"proportional with premium {premium:g}")


def _premium_power(total, premium, share):
    """Power at ``share`` of ``majority_premium_power(total, premium)``, unchecked.

    A column of premiums (P, 1) gives a row of powers per premium, each row
    the same floats as a call with that premium alone.
    """
    # total / 2 where share is one half or NaN, as neither comparison holds
    s = np.asarray(share, dtype=float)
    v = (total - premium) * s
    out = np.full(v.shape, total / 2.0)
    np.copyto(out, v, where=s < 0.5)
    np.add(v, premium, out=out, where=s > 0.5)
    return out


def proportional_power(total: float = 1.0) -> PowerMap:
    return majority_premium_power(total, 0.0)


_SAME_TOTAL = ((lambda utility_total, power_total: abs(utility_total - power_total) > 1e-12,
                PreconditionError, "utility domain and power map total disagree"),)


def compose_reduced_payoff(utility: PowerUtility, power: PowerMap) -> ReducedPayoff:
    """Reduced vote-share payoff: utility applied to the power map.

    The payoff is rescaled to unit span over [0, 1], so its values at
    shares 0 and 1 are exactly 0.0 and 1.0 (see ``ReducedPayoff``). The
    one-sided values at a vote share of one half are carried through from
    the power map so that payoff increments across a majority threshold
    stay well defined.
    """
    _raise_failed(_SAME_TOTAL, utility.total, power.total)

    def nu(share):
        return utility.evaluate(power.evaluate(np.asarray(share, dtype=float)))

    return ReducedPayoff(
        nu,
        provenance=f"composed[{utility.description} o {power.description}]",
        power_map=power,
        half_raw=(utility.evaluate(power.half_lower), utility.evaluate(power.half_upper)),
    )


def utility_preset(name: str, *, total_power: float = 1.0, **params) -> PowerUtility:
    """Named power-utility presets; see payoff_preset for the composed form.

    quadratic          u(r) = 2(r/total) - (r/total)^2
    sqrt-sharing       rent sharing with square-root insider utility
                       (params: insiders, default 1)
    placement-linear   linear placement value schedule
                       (params: intercept, slope; defaults 2, 2)
    """
    if name == "quadratic":
        if params:
            raise PreconditionError(f"quadratic preset takes no parameters, got {sorted(params)}")
        t = total_power

        def u(r):
            z = np.asarray(r, dtype=float) / t
            return 2.0 * z - z * z

        return PowerUtility(u, total=t, description="quadratic")
    if name == "sqrt-sharing":
        insiders = params.pop("insiders", 1)
        if params:
            raise PreconditionError(f"unknown sqrt-sharing parameters: {sorted(params)}")
        profile = RentSharingProfile(insider_utility=np.sqrt, insiders=insiders,
                                     total_power=total_power)
        return utility_from_rent_sharing(profile)
    if name == "placement-linear":
        intercept = params.pop("intercept", 2.0)
        slope = params.pop("slope", 2.0)
        if params:
            raise PreconditionError(f"unknown placement-linear parameters: {sorted(params)}")

        def q(k):
            return intercept - slope * np.asarray(k, dtype=float)

        profile = PlacementProfile(value=q, capacity=total_power, total_power=total_power)
        return utility_from_placements(profile)
    raise PreconditionError(f"unknown payoff preset {name!r}")


def payoff_preset(name: str, *, total_power: float = 1.0, majority_premium: float = 0.0,
                  **params) -> ReducedPayoff:
    """Composed reduced payoff for a named utility preset and premium."""
    utility = utility_preset(name, total_power=total_power, **params)
    power = majority_premium_power(total_power, majority_premium)
    return compose_reduced_payoff(utility, power)
