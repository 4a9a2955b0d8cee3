"""Implemented-policy lotteries, utilitarian welfare, and premium sweeps.

After the shock resolves, the enacted policy is the power-weighted
compromise of the two platforms. Under quadratic loss, ex-ante utilitarian
welfare splits exactly into the first-best level minus squared bias of the
mean policy minus policy variance. Sweeping the majority premium of a
proportional power map traces the institutional trade-off: a larger
premium pulls platforms toward the median type, killing variance, while
bias converges to the median-to-optimum gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalConsistencyError, PreconditionError
from .model import (
    PlatformPair,
    PowerMap,
    PowerUtility,
    Shock,
    VoterDistribution,
    as_pair,
    vote_share_lottery,
)
from .equilibrium1d import equilibrium_1d, median_bliss
from .payoffs import compose_reduced_payoff, majority_premium_power


@dataclass(frozen=True)
class PolicyLottery:
    """Finite distribution of the enacted policy (merged support points)."""

    outcomes: np.ndarray
    probabilities: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.outcomes @ self.probabilities)

    @property
    def variance(self) -> float:
        m = self.mean
        return float(((self.outcomes - m) ** 2) @ self.probabilities)


MERGE_TOL = 1e-12           # sorted outcomes this close to their neighbour merge


def policy_lottery(pair, dist: VoterDistribution, power: PowerMap, shock: Shock) -> PolicyLottery:
    """Exact lottery of the power-weighted compromise policy.

    On each shock interval the vote share, hence the power split, hence the
    enacted policy is constant: policy = (power share of A) * platform A +
    (power share of B) * platform B. Outcomes are sorted and merged into
    blocks: an outcome within ``MERGE_TOL`` of the one before it joins that
    outcome's block (the adjacent-gap rule ``vote_share_lottery`` applies to
    preference gaps). A block sits at its smallest outcome and carries the
    left-to-right sum of its probabilities.
    """
    p = as_pair(pair)
    if p.dimension != 1 or dist.dimension != 1:
        raise DimensionError("policy lotteries are defined on one policy dimension")
    shares, probs = vote_share_lottery(dist, shock, p)
    return _compromise_lottery(p, shares, probs, power)


def _compromise_lottery(p: PlatformPair, shares, probs, power: PowerMap) -> PolicyLottery:
    """Compromise outcomes of a vote-share lottery, sorted and merged, with their checks."""
    lam = np.asarray(power.evaluate(shares), dtype=float) / power.total
    outcomes = lam * p.x_a[0] + (1.0 - lam) * p.x_b[0]
    order = np.argsort(outcomes, kind="stable")
    x, q = outcomes[order], probs[order]
    starts = np.flatnonzero(np.concatenate(([True], x[1:] - x[:-1] > MERGE_TOL)))
    merged = np.add.reduceat(q, starts)
    # reduceat adds a block as its first term plus a pairwise sum of the rest,
    # which rounds differently from left to right once a block holds three
    # terms; cumsum adds left to right, so those blocks are summed again
    sizes = np.append(starts[1:], len(q)) - starts
    for k in np.flatnonzero(sizes > 2):
        merged[k] = np.cumsum(q[starts[k]:starts[k] + sizes[k]])[-1]
    lot = PolicyLottery(outcomes=x[starts], probabilities=merged)
    if abs(lot.probabilities.sum() - 1.0) > 1e-12:
        raise InternalConsistencyError("lottery probabilities do not sum to one")
    lo, hi = min(p.x_a[0], p.x_b[0]), max(p.x_a[0], p.x_b[0])
    if lot.outcomes.min() < lo - 1e-12 or lot.outcomes.max() > hi + 1e-12:
        raise InternalConsistencyError("lottery support escaped the platform interval")
    return lot


@dataclass(frozen=True)
class WelfareReport:
    welfare: float            # ex-ante utilitarian welfare of the lottery
    first_best: float         # welfare at the utilitarian optimum
    bias_sq: float
    variance: float
    x_optimum: float
    mean_policy: float


def welfare_decomposition(lottery: PolicyLottery, dist: VoterDistribution) -> WelfareReport:
    """Split lottery welfare into first-best minus squared bias minus variance.

    The identity is cross-checked against direct expected welfare over the
    lottery support, the probability-weighted mean over outcomes o of
    -sum_i s_i (o - x_i)^2; disagreement beyond 1e-10 is an internal error.
    The direct sum is a matrix product over blocks of outcomes, each block's
    outcome-by-type temporary at most 512 KiB, so memory stays flat in the
    number of types.
    """
    if dist.dimension != 1:
        raise DimensionError("welfare decomposition requires one policy dimension")
    x = dist.bliss[:, 0]
    s = dist.shares
    x_opt = float(s @ x)
    first_best = float(-(s @ (x_opt - x) ** 2))
    mean = lottery.mean
    bias_sq = (mean - x_opt) ** 2
    variance = lottery.variance
    welfare = first_best - bias_sq - variance
    direct = _direct_welfare(lottery, x, s)
    if abs(direct - welfare) > 1e-10:
        raise InternalConsistencyError(
            f"decomposition {welfare:.17g} disagrees with direct welfare {direct:.17g}")
    return WelfareReport(welfare=welfare, first_best=first_best, bias_sq=bias_sq,
                         variance=variance, x_optimum=x_opt, mean_policy=mean)


_CHECK_BLOCK_BYTES = 1 << 19   # largest outcome-by-type temporary of the direct check


def _direct_welfare(lottery: PolicyLottery, x: np.ndarray, s: np.ndarray) -> float:
    """Expected welfare summed outcome by outcome, a block of outcomes per matrix product."""
    outcomes, probs = lottery.outcomes, lottery.probabilities
    rows = max(1, _CHECK_BLOCK_BYTES // (8 * len(x)))
    buf = np.empty((min(rows, len(outcomes)), len(x)))
    direct = 0.0
    for k in range(0, len(outcomes), rows):
        d = buf[:len(outcomes[k:k + rows])]
        np.subtract(outcomes[k:k + rows, None], x, out=d)
        np.square(d, out=d)
        direct -= float(probs[k:k + rows] @ (d @ s))
    return direct


SWEEP_COLUMNS = ("rho_m", "x_low", "x_high", "distance", "mean", "variance", "bias_sq", "welfare")


@dataclass(frozen=True)
class SweepRow:
    rho_m: float
    x_low: float
    x_high: float
    distance: float
    mean: float
    variance: float
    bias_sq: float
    welfare: float

    def astuple(self):
        return (self.rho_m, self.x_low, self.x_high, self.distance,
                self.mean, self.variance, self.bias_sq, self.welfare)


@dataclass(frozen=True)
class PremiumSweep:
    rows: tuple
    median: float
    median_share: float        # 0 when the median falls between types
    limit_assertions: bool     # False when the median carries no mass


def premium_sweep(dist: VoterDistribution, utility: PowerUtility, total_power: float,
                  premiums, shock: Shock) -> PremiumSweep:
    """Equilibrium and welfare along a grid of majority premiums.

    Each premium rebuilds the power map, recomposes the reduced payoff,
    solves the closed-form equilibrium, and decomposes welfare of the
    implemented-policy lottery. A row builds one vote-share lottery: the
    checked solve keeps the lottery it verified the payoff identity on, and
    the policy lottery is merged from it as in ``policy_lottery``. As the
    premium approaches the total, the platforms converge to the median type
    (provided it carries mass) and welfare approaches first-best less the
    squared median-to-optimum gap.
    """
    if dist.dimension != 1:
        raise DimensionError("premium sweep requires one policy dimension")
    premiums = [float(p) for p in premiums]
    for p in premiums:
        if not 0.0 <= p < total_power:
            raise PreconditionError(f"premium {p:g} outside [0, total)")
    median, median_idx = median_bliss(dist)
    median_share = float(dist.shares[median_idx]) if median_idx is not None else 0.0
    rows = []
    for p in premiums:
        power = majority_premium_power(total_power, p)
        nu = compose_reduced_payoff(utility, power, normalize=True)
        eq = equilibrium_1d(dist, nu, shock)
        lot = _compromise_lottery(eq.pair, *eq.lottery, power)
        rep = welfare_decomposition(lot, dist)
        rows.append(SweepRow(rho_m=p, x_low=eq.x_low, x_high=eq.x_high, distance=eq.distance,
                             mean=rep.mean_policy, variance=rep.variance,
                             bias_sq=rep.bias_sq, welfare=rep.welfare))
    return PremiumSweep(rows=tuple(rows), median=median, median_share=median_share,
                        limit_assertions=median_share > 0.0)
