import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polcomp as pc
from polcomp import equilibrium1d as eq1d
from polcomp import model
from polcomp.errors import DimensionError, InternalConsistencyError, PreconditionError

from helpers import (
    central_difference,
    fresh_solve,
    grid_equilibrium_1d,
    oracle_fosd,
    oracle_median_bliss,
    oracle_median_position,
    outward_spread,
    random_diverse_instance,
    shock_for,
)


NU_PRESETS = tuple(pc.payoff_preset(name)
                   for name in ("quadratic", "sqrt-sharing", "placement-linear"))


@st.composite
def integer_weight_electorates(draw):
    """1-D electorates with shares w / sum(w) for small integers w.

    Integer weights make cumulative shares land exactly on one half for
    many orders, which is where the median rules branch.
    """
    n = draw(st.integers(1, 8))
    points = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    return pc.VoterDistribution(np.array(points, dtype=float) / 4.0, weights / weights.sum())


class TestClosedForm:
    def test_reference_two_type(self, two_type, nu_quadratic, unit_shock):
        eq = pc.equilibrium_1d(two_type, nu_quadratic, unit_shock)
        assert eq.x_low == pytest.approx(0.25, abs=1e-12)
        assert eq.x_high == pytest.approx(0.75, abs=1e-12)
        assert eq.payoff == pytest.approx(0.625, abs=1e-12)
        assert eq.x_risk_neutral == pytest.approx(0.5, abs=1e-12)
        assert eq.median == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(eq.weights_high, [0.25, 0.75], atol=1e-12)
        assert np.allclose(eq.weights_low, [0.75, 0.25], atol=1e-12)

    def test_linear_payoff_collapses(self, two_type, nu_linear, unit_shock):
        # risk-neutral boundary: mechanical weights are even and platforms meet
        w_low, w_high = pc.equilibrium_weights(two_type.shares, nu_linear)
        assert np.allclose(w_high, [0.5, 0.5], atol=1e-15)
        assert np.allclose(w_low, [0.5, 0.5], atol=1e-15)
        assert w_low @ two_type.bliss[:, 0] == pytest.approx(0.5, abs=1e-15)
        assert w_high @ two_type.bliss[:, 0] == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(PreconditionError):
            pc.equilibrium_1d(two_type, nu_linear, unit_shock)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.sampled_from(NU_PRESETS))
    def test_record_is_the_mechanical_output(self, seed, nu):
        dist = random_diverse_instance(np.random.default_rng(seed), dim=1)
        shock = shock_for(dist)
        eq = pc.equilibrium_1d(dist, nu, shock)
        order = np.argsort(dist.bliss[:, 0], kind="stable")
        x = dist.bliss[order, 0]
        w_low, w_high = pc.equilibrium_weights(dist.shares[order], nu)
        assert eq.weights_low.tobytes() == w_low.tobytes()
        assert eq.weights_high.tobytes() == w_high.tobytes()
        x_low, x_high = float(w_low @ x), float(w_high @ x)
        assert (eq.x_low.hex(), eq.x_high.hex()) == (x_low.hex(), x_high.hex())
        assert eq.payoff.hex() == model.distance_payoff(shock, (x_high - x_low) ** 2).hex()

    def test_three_type_symmetric_closed_form(self, three_type_symmetric, nu_quadratic):
        shock = pc.Shock(5.0)
        eq = pc.equilibrium_1d(three_type_symmetric, nu_quadratic, shock)
        assert eq.x_high == pytest.approx(0.42, abs=1e-12)
        assert eq.x_low == pytest.approx(-0.42, abs=1e-12)
        assert eq.payoff == pytest.approx(0.5 + 0.84**2 / 10.0, abs=1e-12)

    def test_three_type_matches_grid_oracle(self, three_type_symmetric, nu_quadratic):
        # independent brute-force best-response iteration on a 1e4-point grid
        shock = pc.Shock(5.0)
        x_lo, x_hi = grid_equilibrium_1d(three_type_symmetric, nu_quadratic, shock,
                                         n_points=10_000)
        assert x_hi == pytest.approx(0.42, abs=2.5e-4)
        assert x_lo == pytest.approx(-0.42, abs=2.5e-4)

    def test_single_type_flagged_non_diverse(self, nu_quadratic, unit_shock):
        d = pc.VoterDistribution([[0.7]], [1.0])
        eq = pc.equilibrium_1d(d, nu_quadratic, unit_shock)
        assert not eq.diverse
        assert eq.x_low == eq.x_high == pytest.approx(0.7)
        assert eq.payoff == pytest.approx(0.5)

    def test_requires_one_dimension(self, two_type_2d, nu_quadratic, unit_shock):
        with pytest.raises(DimensionError):
            pc.equilibrium_1d(two_type_2d, nu_quadratic, unit_shock)

    def test_support_violation_caught(self, nu_quadratic):
        # platforms land at 0 and 1, where gaps (±2) escape a too-narrow shock
        d = pc.VoterDistribution([-0.5, 1.5], [0.5, 0.5])
        with pytest.raises(PreconditionError, match="shock support"):
            pc.equilibrium_1d(d, nu_quadratic, pc.Shock(1.0))
        w_low, w_high = pc.equilibrium_weights(d.shares, nu_quadratic)
        distance = float((w_high - w_low) @ d.bliss[:, 0])
        assert distance == pytest.approx(1.0, abs=1e-12)
        assert model.distance_payoff(pc.Shock(1.0), distance ** 2) == \
            pytest.approx(1.0, abs=1e-12)


class TestResolutionLimits:
    def test_payoff_not_finite_at_a_cumulative_share(self):
        # NaN off the validation grid only; the weights were NaN and every weight
        # check passed them, so this surfaced as "platforms escaped" (internal)
        nu = pc.ReducedPayoff(lambda s: np.where(np.asarray(s) == 0.31234, np.nan, np.sqrt(s)))
        d = pc.VoterDistribution([-1.0, 0.0, 1.0], [0.31234, 0.3, 0.38766])
        with pytest.raises(PreconditionError, match="^equilibrium weights are not finite: the "
                                                    "reduced payoff is not finite at a cumulative"):
            pc.equilibrium_1d(d, nu, pc.Shock(8.0))

    @pytest.mark.parametrize("bliss", [[1.0, 1.0 + 2 ** -52], [1e16, 1e16 + 2.0], [0.0, 5e-324],
                                       [0.0, -5e-324]])
    def test_bliss_points_within_float_resolution(self, nu_quadratic, bliss):
        # a platform lands on an end of the bliss range by rounding alone
        d = pc.VoterDistribution(bliss, [0.5, 0.5])
        with pytest.raises(PreconditionError, match="within float resolution"):
            pc.equilibrium_1d(d, nu_quadratic, pc.Shock(1.0))

    def test_escape_past_the_rounding_bound_stays_internal(self, nu_quadratic, monkeypatch):
        # weights summing to 1 + 5e-11 pass the sum check but carry the high
        # platform 5e-5 past the top type, far beyond rounding
        w = np.array([[0.5, 0.5 + 5e-11]])
        monkeypatch.setattr(eq1d, "_weights_from_values", lambda heads, tails: (w, w))
        d = pc.VoterDistribution([1e6, 1e6 + 1e-6], [0.5, 0.5])
        with pytest.raises(InternalConsistencyError, match="platforms escaped"):
            pc.equilibrium_1d(d, nu_quadratic, pc.Shock(1.0))

    @pytest.mark.parametrize("top", [2e-5, 3e-5])
    def test_gaps_closer_than_the_old_merge_tolerance(self, nu_quadratic, top):
        # the gaps lie under 1e-9 apart; merging them broke the payoff identity
        d = pc.VoterDistribution([0.0, top], [0.5, 0.5])
        eq = pc.equilibrium_1d(d, nu_quadratic, pc.Shock(1.0))
        assert eq.payoff == model.distance_payoff(pc.Shock(1.0), eq.distance ** 2)
        assert pc.expected_payoff(d, nu_quadratic, pc.Shock(1.0), eq.pair) == \
            pytest.approx(eq.payoff, abs=1e-15)


class TestBenchmarkAndMedian:
    def test_proportional_benchmark_is_mean(self):
        d = pc.VoterDistribution([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        rn = pc.risk_neutral_benchmark(d, pc.proportional_power())
        assert rn == pytest.approx(0.2 * 0 + 0.5 * 1 + 0.3 * 3, abs=1e-12)

    def test_two_type_symmetric_benchmark(self, two_type):
        assert pc.risk_neutral_benchmark(two_type, pc.proportional_power()) == \
            pytest.approx(0.5, abs=1e-15)

    def test_premium_benchmark(self, two_type):
        rho = pc.majority_premium_power(1.0, 0.5)
        assert pc.risk_neutral_benchmark(two_type, rho) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bliss,shares,expected", [
        ([0.0, 1.0], [0.5, 0.5], 0.5),
        ([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3], 0.0),
        ([0.0, 1.0], [0.2, 0.8], 1.0),
    ])
    def test_median_examples(self, bliss, shares, expected):
        median, _ = pc.median_bliss(pc.VoterDistribution(bliss, shares))
        assert median == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=200)
    @given(dist=integer_weight_electorates(), data=st.data())
    def test_median_rules_match_oracles(self, dist, data):
        median, index = pc.median_bliss(dist)
        want_median, want_index = oracle_median_bliss(dist)
        assert index == want_index
        assert median == want_median and type(median) is type(want_median)
        ranking = data.draw(st.permutations(range(dist.n_types)))
        assert pc.median_position(ranking, dist) == oracle_median_position(ranking, dist)

    def test_median_index_reported(self):
        median, idx = pc.median_bliss(pc.VoterDistribution([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3]))
        assert idx == 1
        median, idx = pc.median_bliss(pc.VoterDistribution([0.0, 1.0], [0.5, 0.5]))
        assert idx is None


class TestGradient:
    def test_hand_values(self, two_type, nu_quadratic, unit_shock):
        assert pc.payoff_gradient(two_type, nu_quadratic, unit_shock, 1) == \
            pytest.approx(0.25, abs=1e-12)
        assert pc.payoff_gradient(two_type, nu_quadratic, unit_shock, 0) == \
            pytest.approx(-0.25, abs=1e-12)

    def test_matches_finite_differences(self, nu_quadratic):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dist = random_diverse_instance(rng, dim=1)
            shock = shock_for(dist)
            i = int(rng.integers(dist.n_types))
            analytic = pc.payoff_gradient(dist, nu_quadratic, shock, i)

            def payoff_at(xi):
                bliss = dist.bliss.copy()
                bliss[i, 0] = xi
                return pc.equilibrium_1d(pc.VoterDistribution(bliss, dist.shares),
                                         nu_quadratic, shock).payoff

            fd = central_difference(payoff_at, float(dist.bliss[i, 0]))
            assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), 1e-3)

    def test_sign_follows_median_side(self, nu_quadratic):
        rng = np.random.default_rng(22)
        for _ in range(10):
            dist = random_diverse_instance(rng, dim=1)
            shock = shock_for(dist)
            median, _ = pc.median_bliss(dist)
            for i in range(dist.n_types):
                g = pc.payoff_gradient(dist, nu_quadratic, shock, i)
                xi = dist.bliss[i, 0]
                if xi > median + 1e-9:
                    assert g > 0
                elif xi < median - 1e-9:
                    assert g < 0

    def test_index_out_of_range(self, two_type, nu_quadratic, unit_shock):
        with pytest.raises(PreconditionError):
            pc.payoff_gradient(two_type, nu_quadratic, unit_shock, 2)


class TestClassification:
    def test_reference_stances(self, two_type, nu_quadratic, unit_shock):
        assert pc.classify_group(two_type, nu_quadratic, unit_shock, 1, "A") is \
            pc.GroupStance.ATTRACT
        assert pc.classify_group(two_type, nu_quadratic, unit_shock, 0, "A") is \
            pc.GroupStance.ALIENATE
        assert pc.classify_group(two_type, nu_quadratic, unit_shock, 1, "B") is \
            pc.GroupStance.ALIENATE
        assert pc.classify_group(two_type, nu_quadratic, unit_shock, 0, "B") is \
            pc.GroupStance.ATTRACT

    def test_median_type_unclassified(self, nu_quadratic):
        d = pc.VoterDistribution([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        shock = pc.Shock(5.0)
        assert pc.classify_group(d, nu_quadratic, shock, 1, "A") is \
            pc.GroupStance.UNCLASSIFIED
        assert pc.classify_group(d, nu_quadratic, shock, 1, "B") is \
            pc.GroupStance.UNCLASSIFIED

    def test_between_thresholds_unclassified(self, nu_quadratic):
        # group strictly between the low platform and the median
        d = pc.VoterDistribution([-1.0, -0.3, 0.0, 1.0], [0.3, 0.1, 0.25, 0.35])
        shock = pc.Shock(5.0)
        eq = pc.equilibrium_1d(d, nu_quadratic, shock)
        assert eq.x_low < -0.3 < eq.median
        assert pc.classify_group(d, nu_quadratic, shock, 1, "A") is \
            pc.GroupStance.UNCLASSIFIED


class TestEquilibriumProperties:
    def test_divergence_on_random_instances(self, nu_quadratic, nu_sqrt):
        rng = np.random.default_rng(23)
        for nu in (nu_quadratic, nu_sqrt):
            for _ in range(25):
                dist = random_diverse_instance(rng, dim=1)
                eq = pc.equilibrium_1d(dist, nu, shock_for(dist))
                assert eq.x_high - eq.x_low > 1e-9

    def test_weight_dominance(self, nu_quadratic):
        # high-side weights first-order dominate low-side weights over types
        rng = np.random.default_rng(24)
        for _ in range(15):
            dist = random_diverse_instance(rng, dim=1)
            eq = pc.equilibrium_1d(dist, nu_quadratic, shock_for(dist))
            tail_hi = np.cumsum(eq.weights_high[::-1])[::-1]
            tail_lo = np.cumsum(eq.weights_low[::-1])[::-1]
            assert np.all(tail_hi >= tail_lo - 1e-12)
            assert np.any(tail_hi > tail_lo + 1e-12)

    def test_median_weight_comparison(self, nu_quadratic):
        rng = np.random.default_rng(25)
        for _ in range(15):
            dist = random_diverse_instance(rng, dim=1)
            eq = pc.equilibrium_1d(dist, nu_quadratic, shock_for(dist))
            x = dist.bliss[eq.order, 0]
            for pos in range(dist.n_types):
                if x[pos] > eq.median + 1e-9:
                    assert eq.weights_high[pos] > eq.weights_low[pos]
                elif x[pos] < eq.median - 1e-9:
                    assert eq.weights_high[pos] < eq.weights_low[pos]

    def test_platforms_bracket_population_mean(self, nu_quadratic):
        # proportional power: the welfare optimum sits between the platforms
        rng = np.random.default_rng(26)
        for _ in range(15):
            dist = random_diverse_instance(rng, dim=1)
            eq = pc.equilibrium_1d(dist, nu_quadratic, shock_for(dist))
            mean = float(dist.mean_bliss()[0])
            assert eq.x_low < mean < eq.x_high

    def test_grid_best_response_fixed_point(self, nu_quadratic):
        rng = np.random.default_rng(27)
        dist = random_diverse_instance(rng, n_types=3, dim=1)
        shock = shock_for(dist)
        eq = pc.equilibrium_1d(dist, nu_quadratic, shock)
        x_lo, x_hi = grid_equilibrium_1d(dist, nu_quadratic, shock, n_points=10_000)
        span = float(dist.bliss[:, 0].max() - dist.bliss[:, 0].min())
        assert abs(x_hi - eq.x_high) <= 2.0 * span / 10_000 + 1e-12
        assert abs(x_lo - eq.x_low) <= 2.0 * span / 10_000 + 1e-12


class TestSpread:
    def test_pure_outward_shift(self):
        base = pc.VoterDistribution([-1.0, 1.0], [0.5, 0.5])
        cand = pc.VoterDistribution([-2.0, 2.0], [0.5, 0.5])
        assert pc.is_spread(base, cand)

    def test_reflexive_is_not_spread(self):
        base = pc.VoterDistribution([-1.0, 1.0], [0.5, 0.5])
        assert not pc.is_spread(base, base)

    def test_right_side_moved_inward(self):
        base = pc.VoterDistribution([-1.0, 1.0], [0.5, 0.5])
        cand = pc.VoterDistribution([-2.0, 0.5], [0.5, 0.5])
        assert not pc.is_spread(base, cand)

    def test_translation_is_not_spread(self):
        base = pc.VoterDistribution([-1.0, 1.0], [0.5, 0.5])
        assert not pc.is_spread(base, base.translate([7.0]))

    def test_single_side_shift_is_spread(self):
        base = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        cand = pc.VoterDistribution([0.0, 1.2], [0.5, 0.5])
        assert pc.is_spread(base, cand)

    def test_requires_one_dimension(self, two_type_2d):
        with pytest.raises(DimensionError):
            pc.is_spread(two_type_2d, two_type_2d)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_fosd_matches_mask_oracle(self, data):
        # quarter-grid values nudged by multiples of half the tolerance, so
        # grid points fall just inside, on and just outside each other's reach
        def side():
            n = data.draw(st.integers(1, 12))
            base = data.draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=True))
            nudge = data.draw(st.lists(st.sampled_from([-3, -2, -1, 0, 1, 2, 3]),
                                       min_size=n, max_size=n))
            values = np.sort(np.array(base) / 4.0 + np.array(nudge) * 0.5e-12)
            weights = np.array(data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
                               dtype=float)
            return values, 0.5 * weights / weights.sum()

        a, b = side(), side()
        assert eq1d._fosd(*a, *b) == oracle_fosd(*a, *b)
        assert eq1d._fosd(*b, *a) == oracle_fosd(*b, *a)
        assert eq1d._fosd(*a, *a) == oracle_fosd(*a, *a)


class TestSpreadPayoffs:
    def test_symmetric_outward(self, nu_quadratic):
        base = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        cand = pc.VoterDistribution([-0.5, 1.5], [0.5, 0.5])
        shock = pc.Shock(4.0)
        cmp = pc.compare_spread_payoffs(base, cand, nu_quadratic, shock)
        assert cmp.base_distance == pytest.approx(0.5, abs=1e-12)
        assert cmp.candidate_distance == pytest.approx(1.0, abs=1e-12)
        assert cmp.base_payoff == pytest.approx(0.5 + 0.25 / 8.0, abs=1e-12)
        assert cmp.candidate_payoff == pytest.approx(0.5 + 1.0 / 8.0, abs=1e-12)

    def test_right_type_only(self, nu_quadratic, unit_shock):
        base = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        cand = pc.VoterDistribution([0.0, 1.2], [0.5, 0.5])
        cmp = pc.compare_spread_payoffs(base, cand, nu_quadratic, unit_shock)
        assert cmp.candidate_distance == pytest.approx(0.6, abs=1e-12)
        assert cmp.candidate_payoff == pytest.approx(0.68, abs=1e-12)

    def test_translation_control(self, nu_quadratic, unit_shock):
        # translating the electorate moves platforms but not distance or payoff
        base = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        moved = base.translate([7.0])
        eq0 = pc.equilibrium_1d(base, nu_quadratic, unit_shock)
        eq1 = pc.equilibrium_1d(moved, nu_quadratic, unit_shock)
        assert eq1.distance == pytest.approx(eq0.distance, abs=1e-12)
        assert eq1.payoff == pytest.approx(eq0.payoff, abs=1e-12)
        assert eq1.x_low == pytest.approx(eq0.x_low + 7.0, abs=1e-12)
        with pytest.raises(PreconditionError):
            pc.compare_spread_payoffs(base, moved, nu_quadratic, unit_shock)

    def test_random_outward_spreads(self, nu_quadratic):
        rng = np.random.default_rng(28)
        for _ in range(10):
            base = random_diverse_instance(rng, dim=1)
            cand = outward_spread(base, float(rng.uniform(0.05, 0.4)))
            shock = shock_for(cand)
            if not pc.is_spread(base, cand):
                continue
            cmp = pc.compare_spread_payoffs(base, cand, nu_quadratic, shock)
            assert cmp.candidate_payoff > cmp.base_payoff
            assert cmp.candidate_distance > cmp.base_distance


NU_PAIR = (pc.payoff_preset("quadratic"), pc.payoff_preset("sqrt-sharing"))


@pytest.fixture
def verify_calls(monkeypatch):
    """Count the checked solves run from here on."""
    calls = []
    real = eq1d._solve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(eq1d, "_solve", counting)
    return calls


class TestStoredSolve:
    def test_per_type_calls_solve_once(self, verify_calls, nu_quadratic):
        dist = random_diverse_instance(np.random.default_rng(40), n_types=9, dim=1)
        shock = shock_for(dist)
        eq = pc.equilibrium_1d(dist, nu_quadratic, shock)
        for i in range(dist.n_types):
            for party in ("A", "B"):
                pc.classify_group(dist, nu_quadratic, shock, i, party)
            pc.payoff_gradient(dist, nu_quadratic, shock, i)
        assert len(verify_calls) == 1
        assert pc.equilibrium_1d(dist, nu_quadratic, shock) is eq

    def test_new_payoff_or_shock_width_resolves(self, verify_calls, two_type, unit_shock):
        nu = pc.payoff_preset("quadratic")
        first = pc.equilibrium_1d(two_type, nu, unit_shock)
        wide = pc.equilibrium_1d(two_type, nu, pc.Shock(2.0))
        assert len(verify_calls) == 2
        assert wide.payoff != first.payoff
        pc.equilibrium_1d(two_type, pc.payoff_preset("quadratic"), pc.Shock(2.0))
        assert len(verify_calls) == 3

    def test_equal_shock_reuses(self, verify_calls, two_type, nu_quadratic):
        eq = pc.equilibrium_1d(two_type, nu_quadratic, pc.Shock(1.5))
        assert pc.equilibrium_1d(two_type, nu_quadratic, pc.Shock(1.5)) is eq
        assert len(verify_calls) == 1

    def test_failing_check_stores_nothing(self, verify_calls, nu_quadratic):
        d = pc.VoterDistribution([-0.5, 1.5], [0.5, 0.5])
        for _ in range(2):
            with pytest.raises(PreconditionError, match="shock support"):
                pc.equilibrium_1d(d, nu_quadratic, pc.Shock(1.0))
        assert len(verify_calls) == 2
        assert "equilibrium_1d" not in d._store
        eq = pc.equilibrium_1d(d, nu_quadratic, pc.Shock(4.0))
        with pytest.raises(PreconditionError, match="shock support"):
            pc.equilibrium_1d(d, nu_quadratic, pc.Shock(1.0))
        # a failure leaves the last verified solve in place
        assert pc.equilibrium_1d(d, nu_quadratic, pc.Shock(4.0)) is eq
        assert len(verify_calls) == 4

    def test_arrays_read_only(self, two_type, nu_quadratic, unit_shock):
        single = pc.VoterDistribution([0.3], [1.0])
        for dist in (two_type, single):
            eq = pc.equilibrium_1d(dist, nu_quadratic, unit_shock)
            for a in (eq.weights_low, eq.weights_high, eq.order, eq.position):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = a[0]
            assert eq.position.tolist() == [int(np.flatnonzero(eq.order == i)[0])
                                            for i in range(dist.n_types)]

    def test_checked_solve_stores_its_lottery(self, two_type, nu_quadratic, unit_shock,
                                              monkeypatch):
        builds = []
        real = model._sorted_gap_lottery

        def counting(*args):
            builds.append(1)
            return real(*args)

        monkeypatch.setattr(model, "_sorted_gap_lottery", counting)
        eq = pc.equilibrium_1d(two_type, nu_quadratic, unit_shock)
        assert len(builds) == 1
        stored = pc.vote_share_lottery(two_type, unit_shock, eq.pair)
        assert len(builds) == 1
        want = fresh_solve(pc.vote_share_lottery, two_type, unit_shock, eq.pair)
        for a, b in zip(stored, want):
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        single = pc.VoterDistribution([0.3], [1.0])
        for dist in (two_type, single):
            eq = pc.equilibrium_1d(dist, nu_quadratic, unit_shock)
            exact = pc.expected_payoff(dist, nu_quadratic, unit_shock, eq.pair, "A")
            assert abs(exact - eq.payoff) <= 1e-10
            assert not hasattr(eq, "lottery")

    def test_entry_freed_with_electorate(self, nu_quadratic, unit_shock):
        dist = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        eq = pc.equilibrium_1d(dist, nu_quadratic, unit_shock)
        assert dist._store["equilibrium_1d"][1] is eq
        ref = weakref.ref(dist)
        del dist
        gc.collect()
        assert ref() is None

    @settings(max_examples=60)
    @given(dist=integer_weight_electorates(), data=st.data())
    def test_per_type_bits_match_fresh_solves(self, dist, data):
        # alternate payoffs and shock widths so the stored solve keeps being replaced
        width = float(np.ptp(dist.bliss[:, 0])) ** 2 + 1.0
        keys = [(nu, pc.Shock(width * k)) for nu in NU_PAIR for k in (1.0, 1.5)]
        keys = data.draw(st.permutations(keys))
        for i in range(dist.n_types):
            for nu, shock in keys:
                for party in ("A", "B"):
                    args = (nu, shock, i, party)
                    assert (pc.classify_group(dist, *args)
                            is fresh_solve(pc.classify_group, dist, *args))
                got = pc.payoff_gradient(dist, nu, shock, i)
                want = fresh_solve(pc.payoff_gradient, dist, nu, shock, i)
                assert got.hex() == want.hex()
                got = pc.equilibrium_1d(dist, nu, shock).payoff
                assert got.hex() == fresh_solve(pc.equilibrium_1d, dist, nu, shock).payoff.hex()
