import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polcomp as pc
from polcomp import model, welfare
from polcomp.errors import DimensionError, InternalConsistencyError, PreconditionError

from helpers import (
    oracle_direct_welfare,
    oracle_policy_merge,
    oracle_premium_sweep,
    random_diverse_instance,
    shock_for,
)

# both ends of the premium range the sweep accepts, and points between
PREMIUMS = st.one_of(st.sampled_from([0.0, 1.0 - 1e-6]), st.floats(0.0, 0.95))


@st.composite
def quarter_grid_cases(draw):
    """Electorate, platform pair and power map, bliss points and platforms on a quarter grid.

    Platforms may coincide, which merges every outcome into one block.
    """
    n = draw(st.integers(2, 8))
    cells = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    dist = pc.VoterDistribution(np.array(cells) / 4.0, weights / weights.sum())
    x_a, x_b = (draw(st.integers(-8, 8)) / 4.0 for _ in range(2))
    shock = pc.Shock(draw(st.sampled_from([0.5, 4.0, 20.0])))
    power = pc.majority_premium_power(1.0, draw(PREMIUMS))
    return dist, pc.PlatformPair([x_a], [x_b]), power, shock


@st.composite
def planted_lotteries(draw):
    """Vote-share lotteries whose outcomes come in runs 0.3e-12 apart, each spanning under 1e-12."""
    centers = draw(st.lists(st.integers(0, 63), min_size=1, max_size=6, unique=True))
    shares = [c / 64.0 + k * 0.3e-12 for c in centers for k in range(draw(st.integers(1, 4)))]
    shares = np.array(draw(st.permutations(shares)))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(shares),
                                     max_size=len(shares))))
    power = pc.majority_premium_power(1.0, draw(PREMIUMS))
    # platforms at most one apart keep outcome runs as tight as the share runs
    pair = pc.PlatformPair([draw(st.sampled_from([1.0, 0.75]))], [draw(st.sampled_from([0.0, 0.25]))])
    return pair, shares, weights / weights.sum(), power


def _line_electorate(rng, n):
    """``n`` 1-D types, jittered around an even grid on [-1, 1], with random shares."""
    step = 2.0 / (n - 1)
    x = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.4, 0.4, size=n) * step
    w = rng.uniform(0.5, 1.5, size=n)
    return pc.VoterDistribution(rng.permutation(x), w / w.sum())


def _power_share(shares, power):
    return np.asarray(power.evaluate(shares), dtype=float) / power.total


def _compromise_outcomes(pair, shares, power):
    lam = _power_share(shares, power)
    return lam * pair.x_a[0] + (1.0 - lam) * pair.x_b[0]


def _compromise_lottery(pair, shares, probs, power):
    return welfare._compromise_lottery(pair.x_a[0], pair.x_b[0], _power_share(shares, power),
                                       probs)


def _same_bits(lot, outcomes, probabilities):
    return (lot.outcomes.tobytes() == outcomes.tobytes()
            and lot.probabilities.tobytes() == probabilities.tobytes())


class TestPolicyLottery:
    def test_reference_support(self, two_type, unit_shock):
        lot = pc.policy_lottery(pc.PlatformPair([0.75], [0.25]), two_type,
                                pc.proportional_power(), unit_shock)
        assert np.allclose(lot.outcomes, [0.25, 0.5, 0.75], atol=1e-12)
        assert np.allclose(lot.probabilities, [0.25, 0.5, 0.25], atol=1e-12)

    def test_degenerate_pair(self, two_type, unit_shock):
        lot = pc.policy_lottery(pc.PlatformPair([0.4], [0.4]), two_type,
                                pc.proportional_power(), unit_shock)
        assert len(lot.outcomes) == 1
        assert lot.outcomes[0] == pytest.approx(0.4)
        assert lot.probabilities[0] == pytest.approx(1.0)
        assert lot.variance == pytest.approx(0.0, abs=1e-15)

    def test_near_maximal_premium_collapses_support(self, three_type_symmetric,
                                                    nu_quadratic):
        # interior power shares go to 0/1, pushing outcomes onto the platforms
        shock = pc.Shock(5.0)
        eq = pc.equilibrium_1d(three_type_symmetric, nu_quadratic, shock)
        power = pc.majority_premium_power(1.0, 0.999)
        lot = pc.policy_lottery(eq.pair, three_type_symmetric, power, shock)
        x_hi, x_lo = eq.x_high, eq.x_low
        for outcome in lot.outcomes:
            assert min(abs(outcome - x_hi), abs(outcome - x_lo)) < 1e-3

    def test_moments_from_power_share_lottery(self, nu_quadratic):
        # mean and variance factor through the power-share lottery
        rng = np.random.default_rng(41)
        power = pc.majority_premium_power(1.0, 0.3)
        for _ in range(10):
            dist = random_diverse_instance(rng, dim=1)
            shock = shock_for(dist)
            pair = pc.PlatformPair([rng.uniform(0.2, 1.0)], [rng.uniform(-1.0, 0.1)])
            lot = pc.policy_lottery(pair, dist, power, shock)
            shares, probs = pc.vote_share_lottery(dist, shock, pair)
            lam = power(shares) / power.total
            d = pair.x_a[0] - pair.x_b[0]
            mean_lam = float(lam @ probs)
            var_lam = float(((lam - mean_lam) ** 2) @ probs)
            assert lot.mean == pytest.approx(pair.x_b[0] + d * mean_lam, abs=1e-12)
            assert lot.variance == pytest.approx(d**2 * var_lam, abs=1e-12)

    def test_requires_one_dimension(self, two_type_2d, unit_shock):
        with pytest.raises(DimensionError):
            pc.policy_lottery(pc.PlatformPair([0, 0], [1, 1]), two_type_2d,
                              pc.proportional_power(), unit_shock)

    @settings(max_examples=150)
    @given(case=quarter_grid_cases())
    def test_merge_matches_loop_on_quarter_grid(self, case):
        dist, pair, power, shock = case
        shares, probs = pc.vote_share_lottery(dist, shock, pair)
        want = oracle_policy_merge(_compromise_outcomes(pair, shares, power), probs)
        assert _same_bits(pc.policy_lottery(pair, dist, power, shock), *want)

    @settings(max_examples=150)
    @given(case=planted_lotteries())
    def test_merge_matches_loop_on_planted_runs(self, case):
        pair, shares, probs, power = case
        want = oracle_policy_merge(_compromise_outcomes(pair, shares, power), probs)
        assert _same_bits(_compromise_lottery(pair, shares, probs, power), *want)

    def test_long_block_adds_left_to_right(self):
        # a pairwise sum rounds 1 + 2^-53 + 2^-53 up to 1 + 2^-52; left to right it stays 1
        pair = pc.PlatformPair([1.0], [0.0])
        shares = 0.25 + 1e-13 * np.arange(4)
        probs = np.array([1.0, 2.0**-53, 2.0**-53, 0.0])
        assert np.add.reduceat(probs, [0]).tolist() == [1.0 + 2.0**-52]
        lot = _compromise_lottery(pair, shares, probs, pc.proportional_power())
        assert lot.outcomes.tolist() == [0.25]
        assert lot.probabilities.tolist() == [1.0]
        assert _same_bits(lot, *oracle_policy_merge(shares, probs))

    def test_adjacent_gaps_chain_a_block(self):
        # a run of outcomes 0.4e-12 apart spans 1.2e-12: one block by adjacent gaps,
        # where the loop's first-outcome rule split it in two
        pair = pc.PlatformPair([1.0], [0.0])
        shares = 0.25 + 0.4e-12 * np.arange(4)
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        lot = _compromise_lottery(pair, shares, probs, pc.proportional_power())
        assert lot.outcomes.tolist() == [0.25]
        assert lot.probabilities.tolist() == [1.0]
        assert len(oracle_policy_merge(shares, probs)[0]) == 2


class TestWelfareDecomposition:
    def test_reference_hand_values(self, two_type, unit_shock):
        lot = pc.policy_lottery(pc.PlatformPair([0.75], [0.25]), two_type,
                                pc.proportional_power(), unit_shock)
        rep = pc.welfare_decomposition(lot, two_type)
        assert rep.x_optimum == pytest.approx(0.5, abs=1e-15)
        assert rep.bias_sq == pytest.approx(0.0, abs=1e-15)
        assert rep.variance == pytest.approx(1.0 / 32.0, abs=1e-15)
        assert rep.first_best == pytest.approx(-0.25, abs=1e-15)
        assert rep.welfare == pytest.approx(-0.28125, abs=1e-12)

    def test_degenerate_at_optimum_is_first_best(self, two_type):
        lot = pc.PolicyLottery(outcomes=np.array([0.5]), probabilities=np.array([1.0]))
        rep = pc.welfare_decomposition(lot, two_type)
        assert rep.welfare == pytest.approx(rep.first_best, abs=1e-15)

    def test_degenerate_off_optimum_is_pure_bias(self, two_type):
        lot = pc.PolicyLottery(outcomes=np.array([0.8]), probabilities=np.array([1.0]))
        rep = pc.welfare_decomposition(lot, two_type)
        assert rep.welfare == pytest.approx(rep.first_best - 0.3**2, abs=1e-12)
        assert rep.variance == pytest.approx(0.0, abs=1e-15)

    def test_identity_against_direct_integration(self, nu_quadratic):
        rng = np.random.default_rng(42)
        power = pc.proportional_power()
        for _ in range(10):
            dist = random_diverse_instance(rng, dim=1)
            shock = shock_for(dist)
            eq = pc.equilibrium_1d(dist, nu_quadratic, shock)
            lot = pc.policy_lottery(eq.pair, dist, power, shock)
            rep = pc.welfare_decomposition(lot, dist)
            assert rep.welfare == pytest.approx(oracle_direct_welfare(lot, dist), abs=1e-10)


    @settings(max_examples=100)
    @given(case=quarter_grid_cases())
    def test_direct_check_matches_loop(self, case):
        dist, pair, power, shock = case
        lot = pc.policy_lottery(pair, dist, power, shock)
        got = welfare._direct_welfare(lot, dist.bliss[:, 0], dist.shares)
        assert abs(got - oracle_direct_welfare(lot, dist)) <= 1e-13

    def test_direct_check_blocks_match_loop(self):
        # N = 800 takes several outcome blocks per matrix product
        dist = _line_electorate(np.random.default_rng(44), 800)
        shock = shock_for(dist)
        eq = pc.equilibrium_1d(dist, pc.payoff_preset("quadratic"), shock)
        lot = pc.policy_lottery(eq.pair, dist, pc.proportional_power(), shock)
        got = welfare._direct_welfare(lot, dist.bliss[:, 0], dist.shares)
        assert abs(got - oracle_direct_welfare(lot, dist)) <= 1e-13

    def test_off_variance_is_caught(self, two_type, unit_shock, monkeypatch):
        lot = pc.policy_lottery(pc.PlatformPair([0.75], [0.25]), two_type,
                                pc.proportional_power(), unit_shock)
        pc.welfare_decomposition(lot, two_type)
        exact = pc.PolicyLottery.variance
        monkeypatch.setattr(pc.PolicyLottery, "variance",
                            property(lambda self: exact.fget(self) + 1e-9))
        with pytest.raises(InternalConsistencyError, match="disagrees with direct welfare"):
            pc.welfare_decomposition(lot, two_type)

    def test_memory_flat_at_800_types(self, nu_quadratic):
        dist = _line_electorate(np.random.default_rng(45), 800)
        shock = shock_for(dist)
        eq = pc.equilibrium_1d(dist, nu_quadratic, shock)
        lot = pc.policy_lottery(eq.pair, dist, pc.proportional_power(), shock)
        assert len(lot.outcomes) > 700
        tracemalloc.start()
        try:
            pc.welfare_decomposition(lot, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPremiumSweep:
    def test_one_vote_share_lottery_per_row(self, three_type_symmetric, monkeypatch):
        builds = []
        real = model._sorted_gap_lottery

        def counting(*args):
            builds.append(1)
            return real(*args)

        monkeypatch.setattr(model, "_sorted_gap_lottery", counting)
        u = pc.utility_preset("quadratic")
        premiums = [0.0, 0.3, 0.6]
        sweep = pc.premium_sweep(three_type_symmetric, u, 1.0, premiums, pc.Shock(5.0))
        assert len(builds) == len(premiums)
        want = oracle_premium_sweep(three_type_symmetric, u, 1.0, premiums, pc.Shock(5.0))
        assert [r.astuple() for r in sweep.rows] == [r.astuple() for r in want.rows]

    @pytest.mark.parametrize("count", [1, 130])
    @pytest.mark.parametrize("total", [1.0, 2.5])
    @pytest.mark.parametrize("preset", ["quadratic", "sqrt-sharing", "placement-linear"])
    def test_rows_match_per_premium_oracle(self, preset, total, count):
        # 130 premiums span three blocks; placement-linear sums its Simpson rows
        # in BLAS blocks, so a row computed from a reshaped input would differ
        params = {"intercept": 2.0 * total} if preset == "placement-linear" else {}
        u = pc.utility_preset(preset, total_power=total, **params)
        rng = np.random.default_rng([count, int(10 * total)])
        dist = _line_electorate(rng, 23)
        premiums = list(rng.uniform(0.0, 0.95 * total, size=count))
        shock = shock_for(dist)
        got = pc.premium_sweep(dist, u, total, premiums, shock)
        want = oracle_premium_sweep(dist, u, total, premiums, shock)
        assert [r.astuple() for r in got.rows] == [r.astuple() for r in want.rows]
        assert (got.median, got.median_share, got.limit_assertions) == \
            (want.median, want.median_share, want.limit_assertions)

    @settings(max_examples=15, deadline=None)
    @given(premiums=st.lists(PREMIUMS, min_size=1, max_size=6))
    def test_row_depends_only_on_its_premium(self, premiums):
        dist = _line_electorate(np.random.default_rng(46), 7)
        u = pc.utility_preset("sqrt-sharing")
        shock = shock_for(dist)
        rows = [r.astuple() for r in pc.premium_sweep(dist, u, 1.0, premiums, shock).rows]
        alone = [pc.premium_sweep(dist, u, 1.0, [p], shock).rows[0].astuple() for p in premiums]
        backwards = pc.premium_sweep(dist, u, 1.0, premiums[::-1], shock).rows
        assert rows == alone == [r.astuple() for r in backwards][::-1]

    @pytest.mark.parametrize("premiums,shock,error,message", [
        # the reduced payoff of placement-linear plateaus and then dips near a
        # full premium, a known defect that makes a natural failing row
        ([0.5, 0.999999, 0.3], 5.0, PreconditionError,
         "reduced payoff decreases on the validation grid"),
        # row 0 fails a later check (the shock support) than row 1 (the grid):
        # row 0's error wins, as in a loop over the rows
        ([0.3, 0.999999], 0.5, PreconditionError, "preference gaps at the platforms leave"),
        ([0.999999, 0.3], 0.5, PreconditionError, "reduced payoff decreases"),
    ])
    def test_first_failing_row_raises(self, three_type_symmetric, premiums, shock, error,
                                      message):
        u = pc.utility_preset("placement-linear")
        raised = []
        for sweep in (pc.premium_sweep, oracle_premium_sweep):
            with pytest.raises(error) as info:
                sweep(three_type_symmetric, u, 1.0, premiums, pc.Shock(shock))
            raised.append(str(info.value))
        assert raised[0].startswith(message) and raised[0] == raised[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("premiums", [[0.0], [0.1, 0.0]])
    def test_payoff_not_finite_at_a_cumulative_share(self, bad, premiums):
        # the utility is bad only at the power of the first cumulative share under
        # premium 0; the sweep raised "preference gaps are NaN" and the
        # per-premium composition "platforms escaped the interior"
        def utility(r):
            r = np.asarray(r, dtype=float)
            return np.where(r == 0.31234, bad, np.sqrt(r))

        u = pc.PowerUtility(utility)
        d = pc.VoterDistribution([-1.0, 0.0, 1.0], [0.31234, 0.3, 0.38766])
        raised = []
        for sweep in (pc.premium_sweep, oracle_premium_sweep):
            with pytest.raises(PreconditionError) as info:
                sweep(d, u, 1.0, premiums, pc.Shock(8))
            raised.append(str(info.value))
        assert raised[0].startswith("equilibrium weights are not finite")
        assert raised[0] == raised[1]

    def test_out_of_range_premium_raises_before_any_row(self, three_type_symmetric):
        calls = []
        quad = pc.utility_preset("quadratic")
        u = pc.PowerUtility(lambda r: calls.append(1) or quad.evaluate(r))
        calls.clear()
        for premiums in ([1.0, 0.2], [0.2, 0.5, 1.0], [0.3, -0.1]):
            with pytest.raises(PreconditionError, match=r"premium .* outside \[0, total\)"):
                pc.premium_sweep(three_type_symmetric, u, 1.0, premiums, pc.Shock(5.0))
        assert calls == []

    def test_no_premiums_no_rows(self, three_type_symmetric):
        sweep = pc.premium_sweep(three_type_symmetric, pc.utility_preset("quadratic"), 1.0, [],
                                 pc.Shock(5.0))
        assert sweep.rows == () and sweep.limit_assertions

    def test_memory_flat_in_premiums(self):
        dist = _line_electorate(np.random.default_rng(47), 50)
        u = pc.utility_preset("quadratic")
        premiums = np.linspace(0.0, 0.95, 1000)
        tracemalloc.start()
        try:
            sweep = pc.premium_sweep(dist, u, 1.0, premiums, shock_for(dist))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sweep.rows) == 1000
        assert peak < 2 << 20

    def test_symmetric_three_type_sweep(self, three_type_symmetric):
        u = pc.utility_preset("quadratic")
        shock = pc.Shock(5.0)
        sweep = pc.premium_sweep(three_type_symmetric, u, 1.0,
                                 [0.0, 0.5, 0.9, 0.99], shock)
        assert sweep.limit_assertions and sweep.median == pytest.approx(0.0)
        distances = [r.distance for r in sweep.rows]
        assert all(d2 < d1 for d1, d2 in zip(distances, distances[1:]))
        for row in sweep.rows:
            assert 0.5 * (row.x_low + row.x_high) == pytest.approx(0.0, abs=1e-12)

    def test_zero_premium_row_is_plain_proportional(self, three_type_symmetric,
                                                    nu_quadratic):
        u = pc.utility_preset("quadratic")
        shock = pc.Shock(5.0)
        sweep = pc.premium_sweep(three_type_symmetric, u, 1.0, [0.0], shock)
        eq = pc.equilibrium_1d(three_type_symmetric, nu_quadratic, shock)
        assert sweep.rows[0].x_low == pytest.approx(eq.x_low, abs=1e-12)
        assert sweep.rows[0].x_high == pytest.approx(eq.x_high, abs=1e-12)

    def test_median_weight_monotone_in_premium(self, three_type_symmetric):
        u = pc.utility_preset("quadratic")
        shock = pc.Shock(5.0)
        premiums = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95]
        weights_hi, weights_lo = [], []
        for p in premiums:
            nu = pc.compose_reduced_payoff(u, pc.majority_premium_power(1.0, p))
            eq = pc.equilibrium_1d(three_type_symmetric, nu, shock)
            weights_hi.append(eq.weights_high[1])
            weights_lo.append(eq.weights_low[1])
        assert all(b >= a - 1e-12 for a, b in zip(weights_hi, weights_hi[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(weights_lo, weights_lo[1:]))

    def test_maximal_premium_limits(self, three_type_symmetric):
        u = pc.utility_preset("quadratic")
        shock = pc.Shock(5.0)
        sweep = pc.premium_sweep(three_type_symmetric, u, 1.0, [1.0 - 1e-6], shock)
        row = sweep.rows[0]
        assert row.distance < 1e-3
        assert abs(row.x_low - sweep.median) < 1e-3
        assert abs(row.x_high - sweep.median) < 1e-3
        first_best = -(0.3 + 0.3)   # welfare at the optimum 0
        assert row.welfare == pytest.approx(first_best, abs=1e-5)

    def test_full_majority_limit_with_bias(self):
        # median off the optimum: residual loss is the squared gap
        dist = pc.VoterDistribution([-1.0, 0.0, 1.0], [0.2, 0.5, 0.3])
        u = pc.utility_preset("quadratic")
        shock = pc.Shock(5.0)
        sweep = pc.premium_sweep(dist, u, 1.0, [1.0 - 1e-6], shock)
        row = sweep.rows[0]
        x_opt = 0.1
        first_best = float(-(dist.shares @ (x_opt - dist.bliss[:, 0]) ** 2))
        assert row.welfare == pytest.approx(first_best - x_opt**2, abs=1e-5)

    def test_split_median_disables_limit_assertions(self, two_type):
        u = pc.utility_preset("quadratic")
        sweep = pc.premium_sweep(two_type, u, 1.0, [0.0, 0.5], pc.Shock(2.0))
        assert not sweep.limit_assertions
        assert sweep.median_share == 0.0

    def test_premium_out_of_range(self, three_type_symmetric):
        u = pc.utility_preset("quadratic")
        with pytest.raises(PreconditionError):
            pc.premium_sweep(three_type_symmetric, u, 1.0, [1.0], pc.Shock(5.0))
