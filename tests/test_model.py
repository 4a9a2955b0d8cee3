import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polcomp as pc
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
        raw = pc.ReducedPayoff(lambda s: np.asarray(s, dtype=float), normalize=False)
        assert _same_bits(raw.evaluate(arr), _old_unit_clip(arr))


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
        assert eq.payoff == distance_payoff(nu_quadratic, shock, eq.distance ** 2)
        assert pc.conflict_issue_payoff(dist, nu_quadratic, shock, 1.0) == eq.payoff
        assert pc.conflict_issue_payoff(dist, nu_quadratic, shock, 0.5) == \
            distance_payoff(nu_quadratic, shock, 0.5 * eq.distance ** 2)
        for local in pc.enumerate_local_equilibria(dist, nu_quadratic, shock):
            assert local.payoff == distance_payoff(nu_quadratic, shock, local.sq_distance)

    def test_single_type_earns_the_even_split_value(self, nu_quadratic, unit_shock):
        eq = pc.equilibrium_1d(pc.VoterDistribution([0.3], [1.0]), nu_quadratic, unit_shock)
        assert eq.payoff == 0.5 * (nu_quadratic.value_at_one + nu_quadratic.value_at_zero)


class TestUnitSpan:
    def test_normalized_payoff(self, nu_quadratic):
        assert nu_quadratic.unit_span
        nu_quadratic.require_normalized()

    def test_raw_payoff(self):
        nu = pc.ReducedPayoff(lambda s: 2.0 * np.asarray(s, dtype=float), normalize=False)
        assert not nu.unit_span
        with pytest.raises(PreconditionError, match="unit span"):
            nu.require_normalized()


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
