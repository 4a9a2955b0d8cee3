import warnings

import numpy as np
import pytest

import polcomp as pc
from polcomp.errors import PreconditionError

from helpers import shock_for


class TestSeparationCoefficient:
    def test_quadratic(self, nu_quadratic):
        assert pc.separation_coefficient(nu_quadratic) == pytest.approx(0.5, abs=1e-12)

    def test_linear_boundary(self, nu_linear):
        assert pc.separation_coefficient(nu_linear) == pytest.approx(0.0, abs=1e-12)

    def test_sqrt(self, nu_sqrt):
        assert pc.separation_coefficient(nu_sqrt) == \
            pytest.approx(2.0 * np.sqrt(0.5) - 1.0, abs=1e-12)

    def test_two_type_distance_equals_coefficient_times_gap(self, nu_quadratic):
        for gap in (0.5, 1.0, 2.0):
            d = pc.VoterDistribution([0.0, gap], [0.5, 0.5])
            eq = pc.equilibrium_1d(d, nu_quadratic, shock_for(d))
            assert eq.distance == pytest.approx(0.5 * gap, abs=1e-12)


class TestConflictIssuePayoff:
    def test_full_salience_recovers_single_issue(self, two_type, nu_quadratic, unit_shock):
        v = pc.conflict_issue_payoff(two_type, nu_quadratic, unit_shock, salience=1.0)
        assert v == pytest.approx(0.625, abs=1e-12)

    def test_partial_salience(self, two_type, nu_quadratic, unit_shock):
        v = pc.conflict_issue_payoff(two_type, nu_quadratic, unit_shock, salience=0.6)
        assert v == pytest.approx(0.575, abs=1e-12)

    def test_common_interest_gives_coin_flip(self, nu_quadratic, unit_shock):
        d = pc.VoterDistribution([[0.3]], [1.0])
        for salience in (0.2, 0.7, 1.0):
            assert pc.conflict_issue_payoff(d, nu_quadratic, unit_shock, salience) == \
                pytest.approx(0.5, abs=1e-15)

    def test_strictly_increasing_in_salience(self, two_type, nu_quadratic, unit_shock):
        vals = [pc.conflict_issue_payoff(two_type, nu_quadratic, unit_shock, a)
                for a in np.linspace(0.1, 1.0, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("salience", [0.0, -0.3, 1.2])
    def test_salience_range(self, two_type, nu_quadratic, unit_shock, salience):
        with pytest.raises(PreconditionError):
            pc.conflict_issue_payoff(two_type, nu_quadratic, unit_shock, salience)


class TestInformation:
    def scenario(self, posterior):
        return pc.InfoScenario(salience=0.6, prior_common=0.5, prior_conflict=0.5,
                               posterior_conflict=posterior)

    def test_revealed_state(self, nu_quadratic):
        platforms = pc.information_platforms(self.scenario(1.0), nu_quadratic)
        assert platforms.x_high == pytest.approx(0.75, abs=1e-12)
        assert platforms.x_low == pytest.approx(0.25, abs=1e-12)
        assert platforms.separation == pytest.approx(0.5, abs=1e-12)

    def test_maximal_uncertainty(self, nu_quadratic):
        platforms = pc.information_platforms(self.scenario(0.5), nu_quadratic)
        assert platforms.separation == pytest.approx(0.0, abs=1e-12)

    def test_opposite_state(self, nu_quadratic):
        platforms = pc.information_platforms(self.scenario(0.0), nu_quadratic)
        assert platforms.separation == pytest.approx(-0.5, abs=1e-12)

    def test_separation_identity_on_grid(self, nu_quadratic, nu_sqrt):
        for nu in (nu_quadratic, nu_sqrt):
            coeff = pc.separation_coefficient(nu)
            for post in np.linspace(0.0, 1.0, 21):
                platforms = pc.information_platforms(self.scenario(post), nu)
                assert platforms.separation == \
                    pytest.approx(coeff * (2.0 * post - 1.0), abs=1e-12)

    def test_degenerate_posterior_matches_two_type_equilibrium(self, nu_quadratic,
                                                               unit_shock):
        for post in (0.0, 1.0):
            platforms = pc.information_platforms(self.scenario(post), nu_quadratic)
            voters = pc.VoterDistribution([post, 1.0 - post], [0.5, 0.5])
            eq = pc.equilibrium_1d(voters, nu_quadratic, unit_shock)
            assert max(platforms.x_high, platforms.x_low) == \
                pytest.approx(eq.x_high, abs=1e-12)
            assert min(platforms.x_high, platforms.x_low) == \
                pytest.approx(eq.x_low, abs=1e-12)

    def test_party_payoff_ignores_common_issue_beliefs(self, nu_quadratic):
        # revealing the common-interest state leaves platform separation unchanged
        a = pc.InfoScenario(salience=0.6, prior_common=0.5, prior_conflict=0.4,
                            posterior_conflict=0.4)
        b = pc.InfoScenario(salience=0.6, prior_common=0.01, prior_conflict=0.4,
                            posterior_conflict=0.4)
        pa = pc.information_platforms(a, nu_quadratic)
        pb = pc.information_platforms(b, nu_quadratic)
        assert pa.separation == pb.separation

    def test_welfare_gain(self):
        assert pc.common_interest_welfare_gain(0.6, 0.5) == pytest.approx(0.1, abs=1e-15)
        assert pc.common_interest_welfare_gain(0.6, 0.999) == pytest.approx(
            0.4 * 0.999 * 0.001, abs=1e-12)

    @pytest.mark.parametrize("salience,prior", [(1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_welfare_gain_boundaries(self, salience, prior):
        with pytest.raises(PreconditionError):
            pc.common_interest_welfare_gain(salience, prior)


class TestIdentityShift:
    def test_two_type_hand_values(self, two_type_2d):
        pair = pc.PlatformPair([0.75, 0.75], [0.25, 0.25])
        shifted, unmoved = pc.identity_adjusted_distribution(two_type_2d, pair, 0.4)
        assert unmoved == ()
        assert np.allclose(shifted.bliss[1], [1.2, 1.2], atol=1e-12)
        assert np.allclose(shifted.bliss[0], [-0.2, -0.2], atol=1e-12)
        assert np.allclose(shifted.shares, two_type_2d.shares)

    def test_zero_strength_is_identity(self, two_type_2d):
        pair = pc.PlatformPair([0.75, 0.75], [0.25, 0.25])
        shifted, _ = pc.identity_adjusted_distribution(two_type_2d, pair, 0.0)
        assert np.allclose(shifted.bliss, two_type_2d.bliss)

    def test_midpoint_type_stays_put(self):
        d = pc.VoterDistribution([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]], [0.4, 0.2, 0.4])
        pair = pc.PlatformPair([0.75, 0.75], [0.25, 0.25])
        shifted, unmoved = pc.identity_adjusted_distribution(d, pair, 0.3)
        assert unmoved == (1,)
        assert np.allclose(shifted.bliss[1], [0.5, 0.5])

    def test_coincident_platforms_rejected(self, two_type_2d):
        with pytest.raises(PreconditionError):
            pc.identity_adjusted_distribution(two_type_2d,
                                              pc.PlatformPair([0.5, 0.5], [0.5, 0.5]), 0.4)

    @pytest.mark.parametrize("strength", [0.0, 0.2])
    @pytest.mark.parametrize("x_a, x_b", [([np.inf], [0.25]), ([0.25], [-np.inf])])
    def test_non_finite_platform_rejected(self, two_type, x_a, x_b, strength):
        pair = pc.PlatformPair(x_a, x_b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="identity shifts need finite platforms"):
                pc.identity_adjusted_distribution(two_type, pair, strength)

    def test_shift_is_directional_spread_and_raises_payoff(self, two_type_2d,
                                                           nu_quadratic):
        shock = pc.Shock(4.5)
        rep = pc.party_preferred_equilibria(two_type_2d, nu_quadratic, shock)
        ref = rep.party_preferred[0].pair
        direction = ref.x_a - ref.x_b
        shifted, _ = pc.identity_adjusted_distribution(two_type_2d, ref, 0.4)
        assert pc.is_directional_spread(two_type_2d, shifted, direction)
        cmp = pc.compare_directional_spread_payoffs(two_type_2d, shifted,
                                                    nu_quadratic, shock)
        assert cmp.candidate_payoff > cmp.base_payoff

    def test_shift_preserves_population_midpoint(self, two_type_2d):
        pair = pc.PlatformPair([0.75, 0.75], [0.25, 0.25])
        shifted, _ = pc.identity_adjusted_distribution(two_type_2d, pair, 0.4)
        assert np.allclose(shifted.mean_bliss(), two_type_2d.mean_bliss(), atol=1e-12)


def make_params(**kw):
    base = dict(gap=1.0, theta_high=0.4, theta_low=0.2, cost=0.01, half_width=1.0,
                separation=0.5, horizon=2)
    base.update(kw)
    return pc.FeedbackParams(**base)


class TestFeedbackDynamics:
    def test_reference_trajectory(self):
        traj = pc.polarization_feedback_trajectory(make_params())
        gaps = traj.platform_gaps
        assert np.allclose(gaps, [0.5, 0.7, 0.78], atol=1e-12)
        assert traj.regime == "converging"
        assert traj.limit_gap == pytest.approx(0.5 / 0.6, abs=1e-12)

    def test_voter_gaps_follow_same_series(self):
        traj = pc.polarization_feedback_trajectory(make_params())
        voter = [r.voter_gap for r in traj.records]
        assert np.allclose(voter, [1.0, 1.4, 1.56], atol=1e-12)

    def test_no_feedback_keeps_gaps_constant(self):
        traj = pc.polarization_feedback_trajectory(
            make_params(theta_high=0.0, theta_low=0.0, horizon=5))
        assert np.allclose(traj.platform_gaps, 0.5, atol=1e-15)

    def test_knife_edge_linear_growth(self):
        traj = pc.polarization_feedback_trajectory(
            make_params(theta_high=1.0, theta_low=0.5, horizon=5))
        assert traj.regime == "knife-edge"
        expected = 0.5 * np.arange(1, 7)
        assert np.allclose(traj.platform_gaps, expected, atol=1e-12)

    def test_diverging_regime(self):
        traj = pc.polarization_feedback_trajectory(
            make_params(theta_high=1.5, theta_low=0.5, horizon=10))
        assert traj.regime == "diverging"
        assert traj.platform_gaps[-1] > traj.platform_gaps[0] * 10

    @pytest.mark.parametrize("theta_high", [0.2, 0.4, 0.6])
    @pytest.mark.parametrize("separation", [0.3, 0.4, 0.5])
    def test_fifty_periods_match_geometric_series(self, theta_high, separation):
        params = make_params(theta_high=theta_high, separation=separation, horizon=50)
        traj = pc.polarization_feedback_trajectory(params)
        ratio = 2.0 * theta_high * separation
        powers = np.power(ratio, np.arange(51))
        partial = separation * params.gap * np.cumsum(powers)
        assert np.max(np.abs(traj.platform_gaps - partial)) <= 1e-10

    @pytest.mark.parametrize("gap", [1e300, np.inf, np.nan])
    def test_gap_whose_square_overflows_rejected(self, gap):
        with pytest.raises(PreconditionError, match=r"^gap .* squared is not finite$"):
            make_params(gap=gap)


class TestSelfReinforcement:
    def test_reference_true_case(self):
        assert pc.is_self_reinforcing(make_params())

    def test_reference_threshold_value(self):
        # rhs = 0.04 * max(3.846..., 4.545...) ~ 0.1818 < 1
        p = make_params()
        rhs = (p.half_width * p.cost) / (2 * p.separation**3) * max(
            1.0 / ((p.theta_high - p.theta_low)
                   * (1 + p.separation * (p.theta_high + p.theta_low))),
            1.0 / (p.theta_low * (1 + p.separation * p.theta_low)))
        assert rhs == pytest.approx(0.04 * (1.0 / (0.2 * 1.1)), abs=1e-12)

    def test_prohibitive_cost(self):
        assert not pc.is_self_reinforcing(make_params(cost=1e6))

    def test_zero_gap(self):
        assert not pc.is_self_reinforcing(make_params(gap=0.0))

    def test_requires_strict_thetas(self):
        with pytest.raises(PreconditionError):
            pc.is_self_reinforcing(make_params(theta_low=0.4))
