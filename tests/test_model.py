import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polcomp as pc
from polcomp import model
from polcomp.errors import DimensionError, PreconditionError
from polcomp.model import (_MC_CHUNK, _first_duplicate_row, _shock_lookup, distance_payoff,
                           unit_clamp)

from helpers import (oracle_duplicate_pair, oracle_monte_carlo_payoff, random_diverse_instance,
                     shock_for)


class TestVoterDistribution:
    def test_scalar_bliss_becomes_one_dimensional(self):
        d = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        assert d.dimension == 1 and d.n_types == 2

    def test_shares_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            pc.VoterDistribution([0.0, 1.0], [0.5, 0.4])

    def test_shares_must_be_positive(self):
        with pytest.raises(PreconditionError):
            pc.VoterDistribution([0.0, 1.0, 2.0], [0.5, 0.5, 0.0])

    def test_duplicate_bliss_rejected(self):
        with pytest.raises(PreconditionError):
            pc.VoterDistribution([[1.0, 2.0], [1.0, 2.0]], [0.5, 0.5])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_duplicate_pair_matches_pairwise_loop(self, dim):
        rng = np.random.default_rng(40 + dim)
        for trial in range(60):
            n = int(rng.integers(2, 30))
            # a coarse grid makes chance coincidences as well as planted ones
            pts = rng.integers(-3, 4, size=(n, dim)).astype(float)
            if trial % 2:
                pts = rng.uniform(-1.0, 1.0, size=(n, dim))
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.choice(n, size=2, replace=False)
                pts[j] = pts[i]
            zeros = pts == 0.0
            pts[zeros & (rng.random(pts.shape) < 0.5)] = -0.0    # -0.0 == 0.0
            if trial % 3 == 0:
                pts[rng.integers(n), rng.integers(dim)] = np.nan  # NaN equals nothing
            bliss, shares = (pts if dim > 1 else pts[:, 0]), np.full(n, 1.0 / n)
            expected = oracle_duplicate_pair(pts)
            if expected is None:        # the NaN landed on every planted copy
                with pytest.raises(PreconditionError, match=r"^bliss points must be finite$"):
                    pc.VoterDistribution(bliss, shares)
                continue
            i, j = expected
            with pytest.raises(PreconditionError,
                               match=fr"^bliss points of types {i} and {j} coincide$"):
                pc.VoterDistribution(bliss, shares)

    def test_nan_rows_are_not_duplicates(self):
        nan_rows = np.array([[np.nan, 1.0], [np.nan, 1.0]])
        assert _first_duplicate_row(nan_rows) is None
        with pytest.raises(PreconditionError, match=r"^bliss points must be finite$"):
            pc.VoterDistribution([[np.nan, 1.0], [np.nan, 1.0]], [0.5, 0.5])

    @pytest.mark.parametrize("shares", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5],
                                        [np.nan, np.nan]])
    def test_non_finite_shares_rejected(self, shares):
        with pytest.raises(PreconditionError, match=r"^every share must lie in \(0, 1\]$"):
            pc.VoterDistribution([0.0, 1.0], shares)

    @pytest.mark.parametrize("bliss", [[np.nan, 1.0], [0.0, np.inf], [-np.inf, 1.0],
                                       [[0.0, np.nan], [1.0, 1.0]]])
    def test_non_finite_bliss_rejected(self, bliss):
        with pytest.raises(PreconditionError, match=r"^bliss points must be finite$"):
            pc.VoterDistribution(bliss, [0.5, 0.5])

    @pytest.mark.parametrize("bliss", [[0.0, 1e300], [1e308, -1e308],
                                       [[1e154, 1e154], [-1e154, -1e154]]])
    def test_overflowing_squared_extent_rejected(self, bliss):
        with pytest.raises(PreconditionError, match=r"^bliss points spread too far"):
            pc.VoterDistribution(bliss, [0.5, 0.5])
        # one squared range of 1e308 still fits
        assert pc.VoterDistribution([0.0, 1e154], [0.5, 0.5]).n_types == 2

    def test_large_electorate_builds(self):
        rng = np.random.default_rng(43)
        n = 3000
        d = pc.VoterDistribution(rng.uniform(-1.0, 1.0, size=(n, 2)), np.full(n, 1.0 / n))
        moved = d.translate([0.5, -0.5])
        assert moved.n_types == n

    def test_label_count_must_match(self):
        with pytest.raises(PreconditionError):
            pc.VoterDistribution([0.0, 1.0], [0.5, 0.5], ["only-one"])

    def test_mean_bliss(self):
        d = pc.VoterDistribution([0.0, 1.0], [0.25, 0.75])
        assert d.mean_bliss()[0] == pytest.approx(0.75, abs=1e-15)


class TestAscendingOrder:
    def test_sorted_once_and_read_only(self, monkeypatch):
        d = pc.VoterDistribution([0.4, -1.0, 2.0, 0.0], [0.25] * 4)
        calls = []
        real = np.argsort

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        first = d.ascending_order()
        assert d.ascending_order() is first
        assert pc.median_bliss(d) == (0.2, None)
        assert len(calls) == 1
        assert first.tolist() == [1, 3, 0, 2]
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0

    def test_requires_one_dimension(self, two_type_2d):
        with pytest.raises(DimensionError):
            two_type_2d.ascending_order()


def _old_unit_clip(share):
    return np.clip(np.asarray(share, dtype=float), 0.0, 1.0)


_EDGE_SHARES = [-0.0, 0.0, -1.0, 2.0, 0.5, np.nan, 1e-300]


def _same_bits(got, want):
    """Equal values, NaN included, equal sign bits, equal shape and type."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestUnitClamp:
    """``unit_clamp`` and the evaluators that use it keep ``np.clip``'s results bit for bit."""

    def test_clamp_matches_clip(self):
        assert _same_bits(unit_clamp(_EDGE_SHARES), _old_unit_clip(_EDGE_SHARES))
        for v in _EDGE_SHARES:
            assert _same_bits(unit_clamp(np.asarray(v)), _old_unit_clip(np.asarray(v)))
            assert _same_bits(unit_clamp(v), _old_unit_clip(v))

    def test_power_map_matches_clip(self):
        pm = pc.PowerMap(1.0, lambda s: np.asarray(s, dtype=float))
        arr = np.array(_EDGE_SHARES)
        assert _same_bits(pm.evaluate(arr), _old_unit_clip(arr))
        for v in _EDGE_SHARES:
            assert _same_bits(pm.evaluate(np.asarray(v)), float(_old_unit_clip(v)))

    def test_reduced_payoff_matches_clip(self):
        func = lambda s: np.asarray(s, dtype=float) * 3.0 - 1.0     # noqa: E731
        nu = pc.ReducedPayoff(func)
        arr = np.array(_EDGE_SHARES)
        old = (func(_old_unit_clip(arr)) - (-1.0)) / 3.0
        assert _same_bits(nu.evaluate(arr), old)
        for v in _EDGE_SHARES:
            old = (func(_old_unit_clip(np.asarray(v))) - (-1.0)) / 3.0
            assert _same_bits(nu.evaluate(np.asarray(v)), float(old))


class TestShock:
    def test_requires_positive_half_width(self):
        with pytest.raises(PreconditionError):
            pc.Shock(0.0)

    @pytest.mark.parametrize("half_width", [np.inf, np.nan, -np.inf])
    def test_requires_finite_half_width(self, half_width):
        with pytest.raises(PreconditionError, match="positive and finite"):
            pc.Shock(half_width)

    def test_density_at_zero(self):
        assert pc.Shock(2.0).density_at_zero == pytest.approx(0.25)

    @pytest.mark.parametrize("half_width", [1e308, np.float64(1e308)])
    def test_half_width_whose_double_overflows_rejected(self, half_width):
        with pytest.raises(PreconditionError,
                           match=r"^shock half-width 1e\+308 overflows when doubled$"):
            pc.Shock(half_width)
        assert pc.Shock(np.finfo(float).max / 2.0).density_at_zero > 0.0


    def test_integer_half_width_is_a_float(self, two_type, nu_quadratic):
        # an int half-width made the lottery's cut array int, and numpy refused to
        # write the clamped gaps into it
        assert pc.Shock(1).half_width.hex() == (1.0).hex()
        assert pc.equilibrium_1d(two_type, nu_quadratic, pc.Shock(1)).payoff == 0.625


class TestPreferenceGap:
    def test_identical_platforms_gap_zero(self):
        pair = pc.PlatformPair([0.3, -0.7], [0.3, -0.7])
        assert pc.preference_gap(pair, [5.0, 5.0]) == 0.0

    def test_two_dimensional_hand_value(self):
        pair = pc.PlatformPair([0.75, 0.75], [0.25, 0.25])
        # 2*(9/16) - 2*(1/16)
        assert pc.preference_gap(pair, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_one_dimensional_hand_value(self):
        pair = pc.PlatformPair([0.75], [0.25])
        assert pc.preference_gap(pair, [1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pc.preference_gap(pc.PlatformPair([0.0], [1.0]), [1.0, 2.0])

    def test_far_platforms_rejected_without_overflow(self):
        # the squares overflowed with numpy's warning, and the gap came back NaN
        with pytest.raises(PreconditionError, match="^platforms lie too far from the bliss"):
            pc.preference_gap(([1e200], [-1e200]), [0.0])
        assert pc.preference_gap(([np.inf], [0.0]), [0.0]) == -np.inf    # a limit

    @pytest.mark.parametrize("entry", [
        lambda d, pair: pc.preference_gaps(pair, d),
        lambda d, pair: pc.vote_share_lottery(d, pc.Shock(1.0), pair),
        lambda d, pair: pc.expected_payoff(d, pc.payoff_preset("quadratic"), pc.Shock(1.0),
                                           pair),
        lambda d, pair: pc.induced_ranking(pair, d),
        lambda d, pair: pc.policy_lottery(pair, d, pc.proportional_power(), pc.Shock(1.0)),
        lambda d, pair: pc.identity_adjusted_distribution(d, pair, 0.3),
    ], ids=["preference_gaps", "vote_share_lottery", "expected_payoff", "induced_ranking",
            "policy_lottery", "identity_adjusted_distribution"])
    @pytest.mark.parametrize("x_a, x_b", [([np.nan], [0.25]), ([np.inf], [np.inf])])
    def test_nan_gaps_rejected(self, two_type, entry, x_a, x_b):
        with pytest.raises(PreconditionError, match="preference gaps are NaN"):
            entry(two_type, pc.PlatformPair(x_a, x_b))


class TestVoteProbability:
    @pytest.mark.parametrize("gap,phi,expected", [
        (0.0, 1.0, 0.5),
        (0.0, 17.0, 0.5),
        (0.5, 1.0, 0.75),
        (3.0, 1.0, 1.0),
        (-3.0, 1.0, 0.0),
    ])
    def test_values(self, gap, phi, expected):
        assert pc.vote_probability(gap, pc.Shock(phi)) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_gap(self):
        shock = pc.Shock(0.8)
        gaps = np.linspace(-3, 3, 101)
        probs = pc.vote_probability(gaps, shock)
        assert np.all(np.diff(probs) >= 0.0)


class TestShockSupport:
    def test_unit_separation_wide_shock(self):
        d = pc.VoterDistribution([0.0, 1.0], [0.5, 0.5])
        assert pc.check_shock_support(d, pc.Shock(2.0)).ok

    def test_far_apart_narrow_shock(self):
        d = pc.VoterDistribution([0.0, 10.0], [0.5, 0.5])
        report = pc.check_shock_support(d, pc.Shock(1.0))
        assert not report.ok
        assert report.extreme_gap == pytest.approx(100.0)
        assert "exceeds" in report.message

    def test_single_type_always_ok(self):
        d = pc.VoterDistribution([[3.0]], [1.0])
        assert pc.check_shock_support(d, pc.Shock(0.001)).ok


class TestDistancePayoff:
    def test_one_identity_for_every_caller(self, nu_quadratic):
        dist = pc.VoterDistribution([-1.0, 0.2, 1.0], [0.3, 0.3, 0.4])
        shock = shock_for(dist)
        eq = pc.equilibrium_1d(dist, nu_quadratic, shock)
        assert eq.payoff == distance_payoff(shock, eq.distance ** 2)
        assert pc.conflict_issue_payoff(dist, nu_quadratic, shock, 1.0) == eq.payoff
        assert pc.conflict_issue_payoff(dist, nu_quadratic, shock, 0.5) == \
            distance_payoff(shock, 0.5 * eq.distance ** 2)
        for local in pc.enumerate_local_equilibria(dist, nu_quadratic, shock):
            assert local.payoff == distance_payoff(shock, local.sq_distance)

    def test_single_type_earns_the_even_split_value(self, nu_quadratic, unit_shock):
        eq = pc.equilibrium_1d(pc.VoterDistribution([0.3], [1.0]), nu_quadratic, unit_shock)
        assert eq.payoff == 0.5 * (nu_quadratic.value_at_one + nu_quadratic.value_at_zero)


SQ_DISTANCES = st.floats(0.0, 1e3)
HALF_WIDTHS = st.floats(1e-3, 1e3)


def _assert_exact_unit_span(nu, sq, half_width):
    """Extremes exactly 0 and 1, and the distance identity exactly 0.5 + sq / (2h)."""
    assert nu.value_at_zero == 0.0 and nu.value_at_one == 1.0
    assert _same_bits(distance_payoff(pc.Shock(half_width), sq),
                      0.5 + sq / (2.0 * half_width))


class TestUnitSpan:
    """Every reduced payoff is normalized, and its extremes come out exact."""

    @pytest.mark.parametrize("total", [1.0, 2.5])
    @pytest.mark.parametrize("name", ["quadratic", "sqrt-sharing", "placement-linear"])
    @settings(max_examples=5)
    @given(fraction=st.floats(0.0, 0.95), sq=SQ_DISTANCES, half_width=HALF_WIDTHS)
    def test_preset_extremes_are_exact(self, name, total, fraction, sq, half_width):
        params = {"intercept": 2.0 * total} if name == "placement-linear" else {}
        nu = pc.payoff_preset(name, total_power=total, majority_premium=fraction * total,
                              **params)
        _assert_exact_unit_span(nu, sq, half_width)

    # much smaller exponents make grid values of s ** e tie, and the payoff is refused
    @settings(max_examples=20)
    @given(exponent=st.floats(1e-6, 1.0), sq=SQ_DISTANCES, half_width=HALF_WIDTHS)
    def test_power_extremes_are_exact(self, exponent, sq, half_width):
        nu = pc.ReducedPayoff(lambda s: np.asarray(s, dtype=float) ** exponent)
        _assert_exact_unit_span(nu, sq, half_width)


class TestHalfValues:
    def test_equal_half_values_make_no_jump(self):
        # both one-sided values are normalized once, as the grid is
        def f(s):
            return 3.0 + 2.0 * np.sqrt(np.asarray(s, dtype=float))

        nu = pc.ReducedPayoff(f, half_raw=(f(0.5), f(0.5)))
        assert nu.half_lower == nu.half_upper == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert nu.jump == 0.0 and not nu.has_jump
        with pytest.raises(TypeError):
            pc.ReducedPayoff(f, half_upper_raw=f(0.5))

    def test_default_is_the_grid_value(self, nu_sqrt):
        assert nu_sqrt.half_lower == nu_sqrt.half_upper == nu_sqrt.value_at_half


class TestDerivedStore:
    """What an electorate keeps: the latest value per key, while its inputs compare equal."""

    @pytest.fixture
    def lottery_builds(self, monkeypatch):
        calls = []
        real = model._sorted_gap_lottery

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model, "_sorted_gap_lottery", counting)
        return calls

    def test_inputs_compare_as_a_tuple(self, two_type):
        builds = []

        def build():
            builds.append(1)
            return len(builds)

        nu, shock = pc.payoff_preset("quadratic"), pc.Shock(1.0)
        assert two_type._derived("k", build, nu, shock, b"\x00") == 1
        assert two_type._derived("k", build, nu, pc.Shock(1.0), b"\x00") == 1
        # a new payoff object, an unequal shock, other bytes: each rebuilds
        assert two_type._derived("k", build, pc.payoff_preset("quadratic"), shock, b"\x00") == 2
        assert two_type._derived("k", build, nu, pc.Shock(2.0), b"\x00") == 3
        assert two_type._derived("k", build, nu, pc.Shock(2.0), b"\x01") == 4
        assert two_type._derived("other", build) == 5
        assert two_type._derived("k", build, nu, pc.Shock(2.0), b"\x01") == 4

    def test_failed_build_stores_nothing(self, two_type):
        def broken():
            raise PreconditionError("no")

        with pytest.raises(PreconditionError):
            two_type._derived("k", broken)
        assert "k" not in two_type._store
        assert two_type._derived("k", lambda: 1, "a") == 1
        with pytest.raises(PreconditionError):
            two_type._derived("k", broken, "b")
        assert two_type._derived("k", pytest.fail, "a") == 1

    def test_lottery_hits_equal_inputs_and_rebuilds_new_ones(self, two_type, lottery_builds):
        first = pc.vote_share_lottery(two_type, pc.Shock(1.0), pc.PlatformPair([0.75], [0.25]))
        again = pc.vote_share_lottery(two_type, pc.Shock(1.0), ([0.75], [0.25]))
        assert all(a is b for a, b in zip(first, again))
        assert len(lottery_builds) == 1
        pc.vote_share_lottery(two_type, pc.Shock(2.0), ([0.75], [0.25]))
        pc.vote_share_lottery(two_type, pc.Shock(2.0), ([0.75], [0.5]))
        pc.vote_share_lottery(two_type, pc.Shock(2.0), ([0.5], [0.5]))
        assert len(lottery_builds) == 4

    def test_failed_lottery_keeps_the_last_one(self, two_type, lottery_builds):
        pair = pc.PlatformPair([0.75], [0.25])
        first = pc.vote_share_lottery(two_type, pc.Shock(1.0), pair)
        with pytest.raises(PreconditionError):
            pc.vote_share_lottery(two_type, pc.Shock(1.0), ([np.nan], [0.25]))
        assert pc.vote_share_lottery(two_type, pc.Shock(1.0), pair)[0] is first[0]
        assert len(lottery_builds) == 1

    def test_party_b_reuses_party_a_lottery(self, two_type, nu_quadratic, lottery_builds):
        pair = pc.PlatformPair([0.75], [0.25])
        v_a = pc.expected_payoff(two_type, nu_quadratic, pc.Shock(1.0), pair, "A")
        v_b = pc.expected_payoff(two_type, nu_quadratic, pc.Shock(1.0), pair, "B")
        assert v_a == v_b == 0.625
        assert len(lottery_builds) == 1

    def test_lottery_arrays_read_only(self, two_type, unit_shock):
        for a in pc.vote_share_lottery(two_type, unit_shock, ([0.75], [0.25])):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    @pytest.mark.parametrize("derive", [
        lambda d, nu, shock: pc.vote_share_lottery(d, shock, ([0.5, 0.5], [0.0, 0.0])),
        lambda d, nu, shock: pc.party_preferred_equilibria(d, nu, shock),
    ], ids=["vote_share_lottery", "party_preferred_equilibria"])
    def test_electorate_collected(self, derive, nu_quadratic):
        # equilibrium_1d and is_symmetric: see the *_freed_with_electorate tests
        d = pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        derive(d, nu_quadratic, pc.Shock(5.0))
        assert d._store
        ref = weakref.ref(d)
        del d
        gc.collect()
        assert ref() is None


class TestExpectedPayoff:
    def test_identical_platforms_coin_flip(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.4], [0.4])
        v = pc.expected_payoff(two_type, nu_quadratic, unit_shock, pair, "A")
        assert v == pytest.approx(0.5, abs=1e-15)

    def test_reference_instance_party_a(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.75], [0.25])
        v = pc.expected_payoff(two_type, nu_quadratic, unit_shock, pair, "A")
        assert v == pytest.approx(0.625, abs=1e-12)

    def test_reference_instance_party_b(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.75], [0.25])
        v = pc.expected_payoff(two_type, nu_quadratic, unit_shock, pair, "B")
        assert v == pytest.approx(0.625, abs=1e-12)

    def test_linear_payoff_is_constant_sum(self, nu_linear):
        # with a linear payoff the constant-sum power split transfers to payoffs
        rng = np.random.default_rng(5)
        for _ in range(20):
            dist = random_diverse_instance(rng, dim=1)
            shock = shock_for(dist)
            pair = pc.PlatformPair([rng.uniform(-1, 1)], [rng.uniform(-1, 1)])
            va = pc.expected_payoff(dist, nu_linear, shock, pair, "A")
            vb = pc.expected_payoff(dist, nu_linear, shock, pair, "B")
            assert va + vb == pytest.approx(1.0, abs=1e-10)

    def test_concave_payoff_sum_exceeds_extremes(self, nu_quadratic):
        # strict gain asymmetry makes interior shares jointly worth more
        rng = np.random.default_rng(6)
        for _ in range(20):
            dist = random_diverse_instance(rng, dim=1)
            shock = shock_for(dist)
            pair = pc.PlatformPair([rng.uniform(-1, 1)], [rng.uniform(-1, 1)])
            va = pc.expected_payoff(dist, nu_quadratic, shock, pair, "A")
            vb = pc.expected_payoff(dist, nu_quadratic, shock, pair, "B")
            assert va + vb >= 1.0 - 1e-12

    def test_relabeling_invariance(self, nu_quadratic):
        rng = np.random.default_rng(7)
        dist = random_diverse_instance(rng, n_types=5, dim=2)
        shock = shock_for(dist)
        pair = pc.PlatformPair(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        v = pc.expected_payoff(dist, nu_quadratic, shock, pair, "A")
        perm = rng.permutation(5)
        shuffled = pc.VoterDistribution(dist.bliss[perm], dist.shares[perm])
        v2 = pc.expected_payoff(shuffled, nu_quadratic, shock, pair, "A")
        assert v2 == pytest.approx(v, abs=1e-12)

    def test_translation_invariance(self, nu_quadratic):
        rng = np.random.default_rng(8)
        dist = random_diverse_instance(rng, n_types=4, dim=2)
        shock = shock_for(dist)
        a, b = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        offset = np.array([13.0, -4.5])
        v = pc.expected_payoff(dist, nu_quadratic, shock, pc.PlatformPair(a, b), "A")
        v2 = pc.expected_payoff(dist.translate(offset), nu_quadratic, shock,
                                pc.PlatformPair(a + offset, b + offset), "A")
        gaps = pc.preference_gaps(pc.PlatformPair(a, b), dist)
        gaps2 = pc.preference_gaps(pc.PlatformPair(a + offset, b + offset),
                                   dist.translate(offset))
        assert np.allclose(gaps, gaps2, atol=1e-12)
        assert v2 == pytest.approx(v, abs=1e-12)

    def test_rejects_unknown_party(self, two_type, nu_quadratic, unit_shock):
        with pytest.raises(PreconditionError):
            pc.expected_payoff(two_type, nu_quadratic, unit_shock,
                               pc.PlatformPair([0.0], [1.0]), "C")


class TestVoteShareLottery:
    def test_reference_breakpoints(self, two_type, unit_shock):
        shares, probs = pc.vote_share_lottery(two_type, unit_shock,
                                              pc.PlatformPair([0.75], [0.25]))
        assert np.allclose(shares, [1.0, 0.5, 0.0])
        assert np.allclose(probs, [0.25, 0.5, 0.25])

    def test_probabilities_sum_to_one(self, unit_shock):
        rng = np.random.default_rng(9)
        for _ in range(10):
            dist = random_diverse_instance(rng, dim=2)
            pair = pc.PlatformPair(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            _, probs = pc.vote_share_lottery(dist, shock_for(dist), pair)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("half_width,outcomes", [(1.0, 3), (1e3, 2)])
    def test_merge_tolerance_scales_with_half_width(self, half_width, outcomes):
        # the two gaps lie 4e-10 apart: distinct at TIE_TOL · h = 1e-12, merged at 1e-9
        d = pc.VoterDistribution([0.0, 2e-5], [0.5, 0.5])
        shares, _ = pc.vote_share_lottery(d, pc.Shock(half_width),
                                          pc.PlatformPair([1.5e-5], [5e-6]))
        assert len(shares) == outcomes

    def test_equal_infinite_gaps_merge(self, two_type, unit_shock):
        # both gaps are -inf; their difference is NaN, which must neither warn nor split them
        shares, probs = pc.vote_share_lottery(two_type, unit_shock,
                                              pc.PlatformPair([np.inf], [0.25]))
        assert shares.tolist() == [1.0, 0.0]
        assert probs.tolist() == [0.0, 1.0]


class TestMonteCarlo:
    def test_identical_platforms(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.3], [0.3])
        v = pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, "A",
                                  n_draws=100_000, seed=11)
        assert v == pytest.approx(0.5, abs=0.01)

    def test_reference_instance_million_draws(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.75], [0.25])
        v = pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, "A",
                                  n_draws=1_000_000, seed=12)
        assert v == pytest.approx(0.625, abs=5e-3)

    def test_single_draw_reproducible(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.75], [0.25])
        v1 = pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, "A",
                                   n_draws=1, seed=13)
        v2 = pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, "A",
                                   n_draws=1, seed=13)
        assert v1 == v2

    def test_agrees_with_exact_integrator(self, nu_quadratic):
        rng = np.random.default_rng(14)
        for seed in range(5):
            dist = random_diverse_instance(rng, n_types=int(rng.integers(2, 7)), dim=1)
            shock = shock_for(dist)
            pair = pc.PlatformPair([rng.uniform(-1, 1)], [rng.uniform(-1, 1)])
            exact = pc.expected_payoff(dist, nu_quadratic, shock, pair, "A")
            mc = pc.monte_carlo_payoff(dist, nu_quadratic, shock, pair, "A",
                                       n_draws=1_000_000, seed=seed)
            assert mc == pytest.approx(exact, abs=5e-3)

    def test_requires_draws(self, two_type, nu_quadratic, unit_shock):
        with pytest.raises(PreconditionError):
            pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock,
                                  pc.PlatformPair([0.0], [1.0]), "A", n_draws=0)

    @pytest.mark.parametrize("n_draws", [2.5, True, False, np.bool_(True), "10", None, -3])
    def test_draw_count_must_be_an_integer(self, two_type, nu_quadratic, unit_shock, n_draws):
        with pytest.raises(PreconditionError, match="n_draws must be an integer"):
            pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock,
                                  pc.PlatformPair([0.0], [1.0]), "A", n_draws=n_draws)

    def test_numpy_integer_draw_count(self, two_type, nu_quadratic, unit_shock):
        pair = pc.PlatformPair([0.75], [0.25])
        v = pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, "A",
                                  n_draws=np.int64(1000), seed=3)
        assert v == pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, "A",
                                          n_draws=1000, seed=3)

    @pytest.mark.parametrize("x_a, x_b", [([np.nan], [0.25]), ([np.inf], [np.inf])])
    def test_nan_gaps_rejected(self, two_type, nu_quadratic, unit_shock, x_a, x_b):
        with pytest.raises(PreconditionError, match="preference gaps are NaN"):
            pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock,
                                  pc.PlatformPair(x_a, x_b), "A", n_draws=100)

    @pytest.mark.parametrize("x_a, x_b, expected", [([np.inf], [0.25], 0.0),
                                                    ([-np.inf], [0.25], 0.0),
                                                    ([0.25], [np.inf], 1.0)])
    def test_infinite_platform(self, two_type, nu_quadratic, unit_shock, x_a, x_b, expected):
        pair = pc.PlatformPair(x_a, x_b)
        for party, value in (("A", expected), ("B", 1.0 - expected)):
            assert pc.monte_carlo_payoff(two_type, nu_quadratic, unit_shock, pair, party,
                                         n_draws=1000, seed=4) == value

    def test_million_draws_peak_memory(self, nu_quadratic):
        dist = pc.VoterDistribution(np.linspace(-1.0, 1.0, 40), np.full(40, 1.0 / 40))
        pair = pc.PlatformPair([0.1], [-0.3])
        tracemalloc.start()
        try:
            pc.monte_carlo_payoff(dist, nu_quadratic, pc.Shock(5.0), pair, "A",
                                  n_draws=1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


_NU_PREMIUM = pc.payoff_preset("sqrt-sharing", majority_premium=0.2)
_DRAW_COUNTS = [1, 2, _MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 5]


@st.composite
def _mc_case(draw, kind):
    """``(dist, shock, pair)``: quarter-grid, generic-float or narrow-shock instances."""
    n = draw(st.integers(1, 10))
    if kind == "grid":
        # quarter-grid points: tied gaps, and gaps on bucket edges
        ticks = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n, unique=True))
        bliss = [t / 4 for t in ticks]
        x_a, x_b = (draw(st.integers(-8, 8)) / 4 for _ in range(2))
        h = draw(st.sampled_from([0.25, 1.0, 2.0, 8.0]))
    else:
        coord = st.floats(-2.0, 2.0, allow_nan=False)
        bliss = draw(st.lists(coord, min_size=n, max_size=n, unique=True))
        x_a, x_b = draw(coord), draw(coord)
        if kind == "narrow":
            # most gaps lie outside [-h, h]
            h = draw(st.floats(1e-6, 1e-2))
        else:
            h = draw(st.floats(1e-2, 20.0))
    weights = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    shares = weights / weights.sum()
    shares[-1] = 1.0 - shares[:-1].sum()
    return pc.VoterDistribution(bliss, shares), pc.Shock(h), pc.PlatformPair([x_a], [x_b])


class TestMonteCarloMatchesOracle:
    """Bit-for-bit agreement with the binary search of every shock, drawn at once."""

    def _check(self, case, n_draws, seed):
        dist, shock, pair = case
        for nu in (pc.payoff_preset("quadratic"), _NU_PREMIUM):
            for party in "AB":
                got = pc.monte_carlo_payoff(dist, nu, shock, pair, party,
                                            n_draws=n_draws, seed=seed)
                want = oracle_monte_carlo_payoff(dist, nu, shock, pair, party,
                                                 n_draws=n_draws, seed=seed)
                assert got.hex() == want.hex()

    @settings(max_examples=15)
    @given(_mc_case("grid"), st.sampled_from(_DRAW_COUNTS), st.integers(0, 2**32 - 1))
    def test_quarter_grid(self, case, n_draws, seed):
        self._check(case, n_draws, seed)

    @settings(max_examples=15)
    @given(_mc_case("float"), st.sampled_from(_DRAW_COUNTS), st.integers(0, 2**32 - 1))
    def test_generic_floats(self, case, n_draws, seed):
        self._check(case, n_draws, seed)

    @settings(max_examples=15)
    @given(_mc_case("narrow"), st.sampled_from(_DRAW_COUNTS), st.integers(0, 2**32 - 1))
    def test_narrow_shock(self, case, n_draws, seed):
        self._check(case, n_draws, seed)

    @pytest.mark.parametrize("n_draws", _DRAW_COUNTS)
    def test_every_draw_count(self, two_type, n_draws):
        case = (two_type, pc.Shock(1.0), pc.PlatformPair([0.75], [0.25]))
        self._check(case, n_draws, seed=n_draws)


class TestShockLookup:
    """``_shock_lookup`` against ``np.searchsorted(side="left")`` on adversarial shocks."""

    @pytest.mark.parametrize("h", [5e-324, 1e-300, 1.0, 8e307])
    def test_matches_binary_search(self, h):
        rng = np.random.default_rng(int(np.log2(h) + 1100))
        for trial in range(150):
            n = int(rng.integers(1, 12))
            g = h * rng.uniform(-1.5, 1.5, size=n)
            if trial % 3 == 0:
                g[rng.integers(n)] = g[rng.integers(n)]              # tied gaps
            if trial % 4 == 1:
                g[rng.integers(n)] = rng.choice([-np.inf, np.inf])
            if trial % 5 == 2:
                g[rng.integers(n)] = rng.choice([-h, h])
            g = np.sort(g)
            eps = np.concatenate((
                g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf),
                [-h, h, 0.0, -0.0, np.nextafter(h, 0.0), np.nextafter(-h, 0.0)],
                rng.uniform(-h, h, size=64)))
            lookup = _shock_lookup(g, np.arange(n + 1.0), h)
            np.testing.assert_array_equal(lookup(eps), np.searchsorted(g, eps, side="left"))

    def test_writes_into_out(self):
        g = np.array([-0.5, 0.0, 0.25])
        eps = np.array([-0.75, -0.5, 0.0, 0.1, 0.25, 0.9])
        out = np.full(eps.shape, np.nan)
        assert _shock_lookup(g, np.array([10.0, 11.0, 12.0, 13.0]), 1.0)(eps, out=out) is out
        np.testing.assert_array_equal(out, [10.0, 10.0, 11.0, 12.0, 12.0, 13.0])
