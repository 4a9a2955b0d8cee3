"""Implemented-policy lotteries, utilitarian welfare, and premium sweeps.

After the shock resolves, the enacted policy is the power-weighted
compromise of the two platforms. Under quadratic loss, ex-ante utilitarian
welfare splits exactly into the first-best level minus squared bias of the
mean policy minus policy variance. Sweeping the majority premium of a
proportional power map traces the institutional trade-off: a larger
premium pulls platforms toward the median type, killing variance, while
bias converges to the median-to-optimum gap.

A sweep evaluates its premiums in blocks, each stage once over a block,
with the same kernels and checks as the model objects it stands for. Its
rows are the same floats as building those objects one premium at a time,
and a failing sweep raises the error of its first failing row after the
rows before it have run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InternalConsistencyError, PreconditionError
from .model import (
    _COMPOSED_PAYOFF_CHECKS,
    _GAP_CHECKS,
    _GRID,
    _NORMALIZABLE,
    _NORMALIZED,
    _POWER_GRID_CHECKS,
    PowerMap,
    PowerUtility,
    Shock,
    VoterDistribution,
    _distance_identity,
    _gap_values,
    _merged_gap_lottery,
    as_pair,
    unit_clamp,
    vote_share_lottery,
)
from .equilibrium1d import (
    _PLATFORM_CHECKS,
    _WEIGHT_CHECKS,
    _check_payoff_identity,
    _head_tail_shares,
    _risk_neutral_weights,
    _weights_from_values,
    median_bliss,
)
from .payoffs import _SAME_TOTAL, _premium_power


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
    lam = np.asarray(power.evaluate(shares), dtype=float) / power.total
    return _compromise_lottery(p.x_a[0], p.x_b[0], lam, probs)


def _compromise_lottery(x_a, x_b, lam, probs) -> PolicyLottery:
    """Outcomes ``lam * x_a + (1 - lam) * x_b`` with ``probs``, sorted and merged, with their checks.

    ``lam`` is party A's power share on each interval of a vote-share lottery.
    """
    outcomes = lam * x_a + (1.0 - lam) * x_b
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
    lo, hi = min(x_a, x_b), max(x_a, x_b)
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

    Each row is the closed-form equilibrium and the welfare decomposition
    under ``compose_reduced_payoff(utility, majority_premium_power(total_power,
    premium))``, every check of that composition included. The premiums are
    taken in blocks sized so that no block-wide array exceeds
    ``_CHECK_BLOCK_BYTES``, so memory stays flat in their number. Within a
    block, each stage runs once over the rows: the power map and the payoff
    on the validation grid with their checks, the payoff at the cumulative
    shares, the weights, the risk-neutral benchmark, the preference gaps and
    their sort, and the equilibrium checks. Only the steps whose sizes differ
    from row to row run per row: merging near-tied gaps into the vote-share
    lottery, the payoff identity against it, the compromise lottery and
    ``welfare_decomposition``.

    Rows are the same floats as building those objects one premium at a
    time: every ``utility.evaluate`` call gets the 1-D array a lone premium
    would give it, and every platform and benchmark is a 1-D dot product.
    Errors are those of the per-premium composition too: a sweep raises the
    error of its first failing row, once the rows before it have passed
    every check, and an out-of-range premium anywhere raises before any row.

    As the premium approaches the total, the platforms converge to the
    median type (provided it carries mass) and welfare approaches
    first-best less the squared median-to-optimum gap.
    """
    if dist.dimension != 1:
        raise DimensionError("premium sweep requires one policy dimension")
    premiums = [float(p) for p in premiums]
    for p in premiums:
        if not 0.0 <= p < total_power:
            raise PreconditionError(f"premium {p:g} outside [0, total)")
    median, median_idx = median_bliss(dist)
    median_share = float(dist.shares[median_idx]) if median_idx is not None else 0.0
    step = max(1, _CHECK_BLOCK_BYTES // (8 * max(len(_GRID), dist.n_types + 1)))
    rows = []
    for k in range(0, len(premiums), step):
        rows += _sweep_block(dist, utility, float(total_power), premiums[k:k + step], shock)
    return PremiumSweep(rows=tuple(rows), median=median, median_share=median_share,
                        limit_assertions=median_share > 0.0)


def _sweep_block(dist, utility, total, premiums, shock):
    """Sweep rows of a block of premiums; see ``premium_sweep``.

    Each check runs on the rows that passed every check before it (see
    ``_cut``), so a failing row ends the block: the rows before it go on
    through the later stages, and its error is raised after them.
    """
    h = shock.half_width
    prem = np.array(premiums)[:, None]
    rows, error = len(premiums), None

    # the power map and the reduced payoff on the validation grid
    grid_power = _premium_power(total, prem, unit_clamp(_GRID))
    rows, error = _cut(rows, error, _POWER_GRID_CHECKS, grid_power, total)
    rows, error = _cut(rows, error, _SAME_TOTAL, utility.total, total)
    vals = _utility_rows(utility, grid_power[:rows])
    del grid_power
    offset = vals[:, 0].copy()
    scale = vals[:, -1] - offset
    rows, error = _cut(rows, error, _NORMALIZABLE, scale)
    vals = vals[:rows]
    offset, scale = offset[:rows, None], scale[:rows, None]
    vals -= offset
    vals /= scale
    rows, error = _cut(rows, error, _COMPOSED_PAYOFF_CHECKS, vals)
    rows, error = _cut(rows, error, _NORMALIZED, vals[:, 0], vals[:, -1])
    value_at_zero, value_at_one = vals[:rows, 0].tolist(), vals[:rows, -1].tolist()
    del vals

    # the closed-form solve, its checks and the sorted preference gaps
    order = dist.ascending_order()
    x = dist.bliss[order, 0]
    diverse = dist.n_types > 1          # one type: both platforms on it, unchecked
    if diverse:
        heads, tails = _head_tail_shares(dist.shares[order])
        head_power = _premium_power(total, prem[:rows], heads)
        nu_heads = (_utility_rows(utility, head_power) - offset[:rows]) / scale[:rows]
        tail_power = _premium_power(total, prem[:rows], tails)
        nu_tails = (_utility_rows(utility, tail_power) - offset[:rows]) / scale[:rows]
        w_low, w_high = _weights_from_values(nu_heads, nu_tails)
        x_low = [float(w @ x) for w in w_low]
        x_high = [float(w @ x) for w in w_high]
        x_rn = [float(w @ x) for w in _risk_neutral_weights(head_power, total)]
    else:
        x_low = x_high = [float(x[0])] * rows
    low, high = np.array(x_low).reshape(-1, 1, 1), np.array(x_high).reshape(-1, 1, 1)
    gaps = _gap_values(dist.bliss, high, low)
    rows, error = _cut(rows, error, _GAP_CHECKS, gaps)
    if diverse:
        rows, error = _cut(rows, error, _WEIGHT_CHECKS, w_low)
        rows, error = _cut(rows, error, _WEIGHT_CHECKS, w_high)
        rows, error = _cut(rows, error, _PLATFORM_CHECKS, np.stack((x_low, x_rn, x_high), axis=-1),
                           x[0], x[-1])
    gap_order = np.argsort(gaps[:rows], axis=-1, kind="stable")
    sorted_gaps = np.take_along_axis(gaps[:rows], gap_order, axis=-1)
    sorted_shares = dist.shares[gap_order]

    # per row, the steps whose sizes differ from row to row
    out = []
    for i in range(rows):
        xl, xh = x_low[i], x_high[i]
        shares, probs = _merged_gap_lottery(sorted_gaps[i], sorted_shares[i], h)
        power = _premium_power(total, premiums[i], unit_clamp(shares))
        if diverse:
            nu = (utility.evaluate(power) - offset[i, 0]) / scale[i, 0]
            _check_payoff_identity(
                _distance_identity(value_at_zero[i], value_at_one[i], h, (xh - xl) ** 2),
                float(np.dot(nu, probs)))
        rep = welfare_decomposition(_compromise_lottery(xh, xl, power / total, probs), dist)
        out.append(SweepRow(rho_m=premiums[i], x_low=xl, x_high=xh, distance=xh - xl,
                            mean=rep.mean_policy, variance=rep.variance,
                            bias_sq=rep.bias_sq, welfare=rep.welfare))
    if error is not None:
        raise error
    return out


def _cut(rows, error, checks, *args):
    """``(rows, error)`` once ``checks`` have run on the first ``rows`` rows of the array ``args``.

    The first row a check fails becomes the block's new end, and that
    check's error the pending one. Other arguments are passed whole; a check
    on them alone fails every row or none.
    """
    for failed, err, message in checks:
        if not rows:
            break
        hit = np.flatnonzero(failed(*(a[:rows] if isinstance(a, np.ndarray) else a
                                      for a in args)))
        if hit.size:
            rows, error = int(hit[0]), err(message)
    return rows, error


def _utility_rows(utility, power):
    """``utility.evaluate`` of each row of ``power``, one 1-D call per row."""
    out = np.empty(power.shape)
    for i, row in enumerate(power):
        out[i] = utility.evaluate(row)
    return out
