import contextlib
import gc
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import polcomp as pc
from polcomp import equilibriumkd as eqkd
from polcomp.equilibrium1d import equilibrium_weights
from polcomp.errors import DimensionError, PreconditionError

from helpers import (
    central_difference,
    fresh_solve,
    oracle_candidates,
    oracle_is_symmetric,
    oracle_local_equilibria,
    oracle_realizable_rankings,
    outward_directional_spread,
    random_diverse_instance,
    random_symmetric_instance,
    shock_for,
)


@st.composite
def small_electorates(draw, max_types=6):
    """K in {1, 2, 3}, at most ``max_types`` types; coarse grids give near-ties.

    Coarse instances put bliss points on a quarter grid and draw shares
    from small integers, so gaps tie or nearly tie at many rankings.
    """
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_types))
    if draw(st.booleans()):
        coord = st.integers(-4, 4).map(lambda v: v / 4.0)
        weight = st.integers(1, 3)
    else:
        coord = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
        weight = st.floats(0.5, 1.5)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n, unique=True))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)), dtype=float)
    return pc.VoterDistribution(np.array(points), weights / weights.sum())


@st.composite
def mirrored_electorates(draw):
    """Quarter-grid mirror pairs (and maybe a center type), nudged by about 1e-9.

    Nudges of 0, 0.5, 1, 1.5 and 3 times the symmetry tolerance, on
    coordinates and on pairs of shares (one up, one down, so they still sum
    to one), put mirror images on both sides of the tolerance. Near-twins
    of a type give a mirror image several candidates, so the pairing order
    matters.
    """
    dim = draw(st.integers(1, 3))
    cell = st.integers(-4, 4).map(lambda v: v / 4.0)
    center = np.array(draw(st.tuples(*[cell] * dim)))
    offsets = np.array(draw(st.lists(st.tuples(*[cell] * dim), min_size=1, max_size=4)))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(offsets), max_size=len(offsets)))
    pts = [*(center + offsets), *(center - offsets)]
    weights = weights + weights
    if draw(st.booleans()):
        pts.append(center)
        weights.append(2)
    nudge = st.sampled_from([0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 3e-9])
    for _ in range(draw(st.integers(0, 2))):
        twin = pts[draw(st.integers(0, len(pts) - 1))].copy()
        twin[draw(st.integers(0, dim - 1))] += draw(nudge)
        pts.append(twin)
        weights.append(draw(st.integers(1, 3)))
    pts = np.array(pts)
    shares = np.array(weights, dtype=float) / sum(weights)
    n = len(pts)
    for _ in range(draw(st.integers(0, 3))):
        pts[draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))] += draw(nudge)
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        step = draw(nudge)
        shares[i] += step
        shares[j] -= step
    assume(len(np.unique(pts, axis=0)) == n)
    return pc.VoterDistribution(pts, shares)


@st.composite
def grid_electorates(draw):
    """5 to 7 types in K in {1, 2, 3} on a grid of step 1/4 or 1/64.

    Grid differences are integer vectors with entries up to 128, so every
    sine the flags test is zero or an integer determinant over norms below
    222 each, at least about 1e-7, far above ``FLAG_TOL``: every cell is one
    the flags resolve. (Cells narrower than ``FLAG_TOL``, which unconstrained
    floats can make, are merged by design.)
    """
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(eqkd._FEW_TYPES + 1, 7))
    step = draw(st.sampled_from([4, 64]))
    coord = st.integers(-step, step).map(lambda v: v / step)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n, unique=True))
    return pc.VoterDistribution(np.array(points), np.full(n, 1.0 / n))


@st.composite
def symmetric_grid_electorates(draw):
    """Exact mirror pairs on a quarter grid, maybe with a centre type: hyperplanes coincide."""
    dim = draw(st.integers(1, 3))
    cell = st.integers(-4, 4).map(lambda v: v / 4.0)
    center = np.array(draw(st.tuples(*[cell] * dim)))
    offsets = np.array(draw(st.lists(st.tuples(*[cell] * dim), min_size=2, max_size=3)))
    pts = np.vstack([center + offsets, center - offsets]
                    + ([center[None, :]] if draw(st.booleans()) else []))
    assume(len(np.unique(pts, axis=0)) == len(pts))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(offsets), max_size=len(offsets)))
    weights = np.array(weights * 2 + [2] * (len(pts) - 2 * len(offsets)), dtype=float)
    return pc.VoterDistribution(pts, weights / weights.sum())


def _table_rankings(dist):
    """The rankings whose candidates the table holds: every permutation for few types."""
    return None if dist.n_types <= eqkd._FEW_TYPES else oracle_realizable_rankings(dist)


def _on_permutation_rows(fn, dist, *args):
    """``fn`` on a copy of ``dist`` whose ranking table has all n! permutations as rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eqkd, "_realizable_rankings", lambda bliss: eqkd._permutations(len(bliss)))
        return fresh_solve(fn, dist, *args)


def _kd_results(dist, nu, shock, opponents):
    """Inventory, best responses and a 12-step walk, as comparable bytes."""
    found = _inventory_rows(pc.enumerate_local_equilibria(dist, nu, shock))
    responses = [pc.best_response(opp, dist, nu, shock).tobytes() for opp in opponents]
    walk = pc.best_response_dynamics(pc.PlatformPair(opponents[0], opponents[1]), dist, nu,
                                     shock, max_iters=12)
    steps = [(p.x_a.tobytes(), p.x_b.tobytes()) for p in walk.trajectory]
    return ([(r, a.tobytes(), b.tobytes(), sq, v) for r, a, b, sq, v in found],
            responses, steps, walk.converged)


def _inventory_rows(found):
    return [(eq.ranking, eq.pair.x_a, eq.pair.x_b, eq.sq_distance, eq.payoff) for eq in found]


@pytest.fixture
def crafted_4type():
    """Symmetric instance with three distinct local-equilibrium distances."""
    pts = np.array([[-0.87, -0.83], [0.87, 0.83], [0.9, -0.25], [-0.9, 0.25]])
    return pc.VoterDistribution(pts, [0.15, 0.15, 0.35, 0.35])


@pytest.fixture
def coherence_pair():
    """Same per-dimension marginals, mass swapped toward the main diagonal."""
    pts = np.array([[1.0, 0.6], [1.0, -0.6], [-1.0, 0.6], [-1.0, -0.6]])
    base = pc.VoterDistribution(pts, [0.25, 0.25, 0.25, 0.25])
    cand = pc.VoterDistribution(pts, [0.35, 0.15, 0.15, 0.35])
    return base, cand


class TestInducedRanking:
    def test_two_type_example(self, two_type_2d):
        pair = pc.PlatformPair([0.75, 0.75], [0.25, 0.25])
        assert pc.induced_ranking(pair, two_type_2d) == (0, 1)

    def test_identical_platforms_tie(self, two_type_2d):
        pair = pc.PlatformPair([0.4, 0.4], [0.4, 0.4])
        assert pc.induced_ranking(pair, two_type_2d) is None

    def test_one_dimensional_reduction_matches_bliss_order(self):
        d = pc.VoterDistribution([0.3, -1.0, 0.9], [0.3, 0.3, 0.4])
        pair = pc.PlatformPair([0.8], [-0.2])   # A on the right
        ranking = pc.induced_ranking(pair, d)
        assert ranking == tuple(np.argsort(d.bliss[:, 0]))

    @pytest.mark.parametrize("x_a,x_b", [(np.inf, 0.25), (-np.inf, 0.25),
                                         (0.25, np.inf), (0.25, -np.inf)])
    def test_equal_infinite_gaps_tie(self, two_type, x_a, x_b):
        # both gaps are the same infinity; their step is NaN, which must not warn or rank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pc.induced_ranking(pc.PlatformPair([x_a], [x_b]), two_type) is None

    @settings(max_examples=100)
    @given(dist=small_electorates())
    def test_self_consistent_rows_are_their_induced_ranking(self, dist):
        nu = pc.payoff_preset("quadratic")
        rows, high, low = eqkd._stored_table(dist, nu)
        want = [pc.induced_ranking(pc.PlatformPair(a, b), dist) == tuple(row)
                for row, a, b in zip(rows.tolist(), high, low)]
        assert eqkd._self_consistent(rows, high, low, dist).tolist() == want


class TestPlatformsForRanking:
    def test_two_type_weights(self, two_type_2d, nu_quadratic):
        pair = pc.platforms_for_ranking((0, 1), two_type_2d, nu_quadratic)
        assert np.allclose(pair.x_a, [0.75, 0.75], atol=1e-12)
        assert np.allclose(pair.x_b, [0.25, 0.25], atol=1e-12)

    def test_reversed_ranking_mirrors(self, two_type_2d, nu_quadratic):
        pair = pc.platforms_for_ranking((1, 0), two_type_2d, nu_quadratic)
        assert np.allclose(pair.x_a, [0.25, 0.25], atol=1e-12)
        assert np.allclose(pair.x_b, [0.75, 0.75], atol=1e-12)

    def test_single_type(self, nu_quadratic):
        d = pc.VoterDistribution([[0.2, -0.4]], [1.0])
        pair = pc.platforms_for_ranking((0,), d, nu_quadratic)
        assert np.allclose(pair.x_a, [0.2, -0.4])
        assert np.allclose(pair.x_b, [0.2, -0.4])

    def test_rejects_non_concave_payoff(self, two_type_2d, nu_linear):
        with pytest.raises(PreconditionError):
            pc.platforms_for_ranking((0, 1), two_type_2d, nu_linear)

    def test_rejects_bad_permutation(self, two_type_2d, nu_quadratic):
        with pytest.raises(PreconditionError):
            pc.platforms_for_ranking((0, 0), two_type_2d, nu_quadratic)


class TestEnumeration:
    def test_two_type_both_orderings(self, two_type_2d, nu_quadratic, unit_shock):
        found = pc.enumerate_local_equilibria(two_type_2d, nu_quadratic, unit_shock)
        assert len(found) == 2
        assert {eq.ranking for eq in found} == {(0, 1), (1, 0)}
        for eq in found:
            assert eq.sq_distance == pytest.approx(0.5, abs=1e-12)
            assert eq.payoff == pytest.approx(0.75, abs=1e-12)

    def test_one_dimensional_matches_closed_form(self, three_type_symmetric, nu_quadratic):
        shock = pc.Shock(5.0)
        found = pc.enumerate_local_equilibria(three_type_symmetric, nu_quadratic, shock)
        assert len(found) == 2
        eq1d = pc.equilibrium_1d(three_type_symmetric, nu_quadratic, shock)
        tops = sorted(float(eq.pair.x_a[0]) for eq in found)
        assert tops[1] == pytest.approx(eq1d.x_high, abs=1e-12)
        assert tops[0] == pytest.approx(eq1d.x_low, abs=1e-12)

    def test_self_consistency_on_random_symmetric(self, nu_quadratic):
        rng = np.random.default_rng(32)
        for _ in range(8):
            dist = random_symmetric_instance(rng)
            shock = shock_for(dist)
            for eq in pc.enumerate_local_equilibria(dist, nu_quadratic, shock):
                assert pc.induced_ranking(eq.pair, dist) == eq.ranking
                va = pc.expected_payoff(dist, nu_quadratic, shock, eq.pair, "A")
                vb = pc.expected_payoff(dist, nu_quadratic, shock, eq.pair, "B")
                assert va == pytest.approx(vb, abs=1e-10)
                assert va == pytest.approx(eq.payoff, abs=1e-10)

    def test_payoff_distance_law(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        found = pc.enumerate_local_equilibria(crafted_4type, nu_quadratic, shock)
        by_dist = sorted(found, key=lambda e: e.sq_distance)
        by_payoff = sorted(found, key=lambda e: e.payoff)
        assert [e.ranking for e in by_dist] == [e.ranking for e in by_payoff]

    def test_mirror_closure_for_symmetric(self, nu_quadratic):
        rng = np.random.default_rng(33)
        for _ in range(5):
            dist = random_symmetric_instance(rng)
            shock = shock_for(dist)
            found = pc.enumerate_local_equilibria(dist, nu_quadratic, shock)
            center = dist.mean_bliss()
            pairs = {tuple(np.round(np.concatenate([eq.pair.x_a, eq.pair.x_b]), 9))
                     for eq in found}
            for eq in found:
                reflected = tuple(np.round(np.concatenate(
                    [2 * center - eq.pair.x_b, 2 * center - eq.pair.x_a]), 9))
                assert reflected in pairs


class TestBestResponse:
    def test_two_type_hand_value(self, two_type_2d, nu_quadratic):
        # Shock(2.0) covers the gaps: 1.125 <= 2 and 0.125 - 2 >= -2
        br = pc.best_response([0.25, 0.25], two_type_2d, nu_quadratic, pc.Shock(2.0))
        assert np.allclose(br, [0.75, 0.75], atol=1e-12)

    def test_two_type_hand_value_outside_support(self, two_type_2d, nu_quadratic, unit_shock):
        # the far type sits 1.125 from the opponent, beyond the unit half-width
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response([0.25, 0.25], two_type_2d, nu_quadratic, unit_shock)

    def test_rejects_opponent_leaving_support(self, nu_quadratic):
        # at this opponent the old answer (-0.2385, 0.0448) was beaten by (-0.26, 0.01)
        pts = np.array([[0.01, -0.29], [0.11, 0.49], [-0.57, 0.62], [-0.68, -0.16]])
        dist = pc.VoterDistribution(pts, [0.336, 0.164, 0.336, 0.164])
        shock = pc.Shock(2.5)
        assert pc.check_shock_support(dist, shock).ok
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response([0.8, -0.7], dist, nu_quadratic, shock)
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response_dynamics(pc.PlatformPair([0.0, 0.0], [0.8, -0.7]),
                                      dist, nu_quadratic, shock)
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response_dynamics(pc.PlatformPair([0.8, -0.7], [0.0, 0.0]),
                                      dist, nu_quadratic, shock)

    def test_support_condition_is_tight(self, two_type_2d, nu_quadratic):
        # the lower bound 0.125 - 2 >= -h holds with equality at Shock(1.875)
        pc.best_response([0.25, 0.25], two_type_2d, nu_quadratic, pc.Shock(1.875))
        with pytest.raises(PreconditionError):
            pc.best_response([0.25, 0.25], two_type_2d, nu_quadratic, pc.Shock(1.87))

    def test_stays_in_hull_against_far_opponent(self, crafted_4type, nu_quadratic):
        # the opponent's largest squared distance to a type is about 748
        shock = shock_for(crafted_4type, margin=800.0)
        br = pc.best_response([15.0, -22.0], crafted_4type, nu_quadratic, shock)
        lo = crafted_4type.bliss.min(axis=0)
        hi = crafted_4type.bliss.max(axis=0)
        assert np.all(br >= lo - 1e-9) and np.all(br <= hi + 1e-9)

    def test_far_opponent_outside_support(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type, margin=600.0)
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response([15.0, -22.0], crafted_4type, nu_quadratic, shock)

    def test_fixed_point_at_preferred(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        rep = pc.party_preferred_equilibria(crafted_4type, nu_quadratic, shock)
        for eq in rep.party_preferred:
            br_a = pc.best_response(eq.pair.x_b, crafted_4type, nu_quadratic, shock)
            br_b = pc.best_response(eq.pair.x_a, crafted_4type, nu_quadratic, shock)
            assert np.allclose(br_a, eq.pair.x_a, atol=1e-9)
            assert np.allclose(br_b, eq.pair.x_b, atol=1e-9)


class TestPlacementLinearKd:
    """The placement-linear preset evaluates (M, N) tail matrices in k-D."""

    def test_best_response_is_argmax_of_exact_payoffs(self, crafted_4type):
        nu = pc.payoff_preset("placement-linear")
        shock = shock_for(crafted_4type)
        opp = np.array([0.2, -0.1])
        br = pc.best_response(opp, crafted_4type, nu, shock)
        best = max(pc.expected_payoff(crafted_4type, nu, shock, pc.PlatformPair(c, opp))
                   for c in eqkd.candidate_platforms(crafted_4type, nu))
        got = pc.expected_payoff(crafted_4type, nu, shock, pc.PlatformPair(br, opp))
        assert got == pytest.approx(best, abs=1e-12)

    def test_dynamics_stays_at_preferred(self, crafted_4type):
        nu = pc.payoff_preset("placement-linear")
        shock = shock_for(crafted_4type)
        rep = pc.party_preferred_equilibria(crafted_4type, nu, shock)
        res = pc.best_response_dynamics(rep.party_preferred[0].pair, crafted_4type, nu, shock)
        assert res.converged
        assert np.allclose(res.sq_distances, res.sq_distances[0], atol=1e-12)


class TestRankingTable:
    """The batched ranking table against the per-permutation oracle."""

    @settings(max_examples=40)
    @given(dist=small_electorates(), preset=st.sampled_from(["quadratic", "sqrt-sharing"]))
    def test_matches_oracle_bit_for_bit(self, dist, preset):
        nu = pc.payoff_preset(preset)
        shock = shock_for(dist)
        got = _inventory_rows(pc.enumerate_local_equilibria(dist, nu, shock))
        want = oracle_local_equilibria(dist, nu, shock)
        assert [row[0] for row in got] == [row[0] for row in want]
        for g, w in zip(got, want):
            assert np.array_equal(g[1], w[1]) and np.array_equal(g[2], w[2])
            assert g[3] == w[3] and g[4] == w[4]
        assert np.array_equal(eqkd.candidate_platforms(dist, nu),
                              oracle_candidates(dist, nu, _table_rankings(dist)))

    @settings(max_examples=10)
    @given(dist=small_electorates(max_types=5))
    def test_placement_linear_matches_oracle(self, dist):
        nu = pc.payoff_preset("placement-linear")
        shock = shock_for(dist)
        got = _inventory_rows(pc.enumerate_local_equilibria(dist, nu, shock))
        want = oracle_local_equilibria(dist, nu, shock)
        assert [row[0] for row in got] == [row[0] for row in want]
        for g, w in zip(got, want):
            assert np.allclose(g[1], w[1], rtol=0.0, atol=1e-12)
            assert np.allclose(g[2], w[2], rtol=0.0, atol=1e-12)
            assert g[3] == pytest.approx(w[3], rel=0.0, abs=1e-12)
            assert g[4] == pytest.approx(w[4], rel=0.0, abs=1e-12)
        assert np.allclose(eqkd.candidate_platforms(dist, nu),
                           oracle_candidates(dist, nu, _table_rankings(dist)),
                           rtol=0.0, atol=1e-12)

    @settings(max_examples=25)
    @given(dist=small_electorates(), data=st.data())
    def test_type_order_invariance(self, dist, data):
        nu = pc.payoff_preset("quadratic")
        shock = shock_for(dist)
        listing = data.draw(st.permutations(range(dist.n_types)))
        relisted = pc.VoterDistribution(dist.bliss[listing], dist.shares[listing])
        new_index = np.argsort(listing)
        found = pc.enumerate_local_equilibria(dist, nu, shock)
        refound = pc.enumerate_local_equilibria(relisted, nu, shock)
        assert ({tuple(int(new_index[t]) for t in eq.ranking) for eq in found}
                == {eq.ranking for eq in refound})
        pairs = {(eq.pair.x_a.tobytes(), eq.pair.x_b.tobytes()) for eq in found}
        assert pairs == {(eq.pair.x_a.tobytes(), eq.pair.x_b.tobytes()) for eq in refound}

    def test_single_ranking_matches_table_row(self, crafted_4type, nu_quadratic):
        cands = eqkd.candidate_platforms(crafted_4type, nu_quadratic)
        pair = pc.platforms_for_ranking((2, 0, 1, 3), crafted_4type, nu_quadratic)
        row = 2 * eqkd._realizable_rankings(crafted_4type.bliss).tolist().index([2, 0, 1, 3])
        assert np.array_equal(pair.x_a, cands[row]) and np.array_equal(pair.x_b, cands[row + 1])

    def test_permutations_are_lexicographic_and_read_only(self):
        perms = eqkd._permutations(4)
        assert [tuple(p) for p in perms.tolist()] == sorted(
            tuple(p) for p in perms.tolist())
        assert len({tuple(p) for p in perms.tolist()}) == 24
        assert not perms.flags.writeable

    def test_enumerates_at_factorial_cap(self, nu_quadratic):
        rng = np.random.default_rng(88)
        dist = random_symmetric_instance(rng, n_pairs=4, dim=2)
        assert dist.n_types == 8
        shock = shock_for(dist)
        found = pc.enumerate_local_equilibria(dist, nu_quadratic, shock)
        assert found
        for eq in found:
            assert pc.induced_ranking(eq.pair, dist) == eq.ranking
            for party in "AB":
                v = pc.expected_payoff(dist, nu_quadratic, shock, eq.pair, party)
                assert v == pytest.approx(eq.payoff, abs=1e-8)


class TestRealizableRows:
    """Rows from flags of the hyperplane arrangement against exact and n! oracles."""

    @settings(max_examples=40)
    @given(dist=grid_electorates())
    def test_contain_every_realizable_ranking(self, dist):
        rows = {tuple(r) for r in eqkd._realizable_rankings(dist.bliss).tolist()}
        assert rows >= oracle_realizable_rankings(dist)

    @settings(max_examples=30)
    @given(dist=symmetric_grid_electorates())
    def test_coincident_hyperplanes(self, dist):
        rows = {tuple(r) for r in eqkd._realizable_rankings(dist.bliss).tolist()}
        assert rows >= oracle_realizable_rankings(dist)

    def test_rows_sorted_unique_and_read_only(self):
        dist = random_symmetric_instance(np.random.default_rng(41), n_pairs=3, dim=3,
                                         center_type=True)
        rows = eqkd._realizable_rankings(dist.bliss)
        listed = [tuple(r) for r in rows.tolist()]
        assert listed == sorted(set(listed))
        assert not rows.flags.writeable
        assert len(rows) < 5040

    @settings(max_examples=25)
    @given(dist=small_electorates(max_types=8),
           preset=st.sampled_from(["quadratic", "sqrt-sharing"]), data=st.data())
    def test_results_match_permutation_rows(self, dist, preset, data):
        nu = pc.payoff_preset(preset)
        shock = shock_for(dist)
        weights = st.lists(st.integers(0, 4), min_size=dist.n_types, max_size=dist.n_types)
        opponents = []
        for _ in range(3):
            w = np.array(data.draw(weights), dtype=float) + 0.5
            opponents.append(w @ dist.bliss / w.sum())   # inside the hull, so in the support
        assert (_kd_results(dist, nu, shock, opponents)
                == _on_permutation_rows(_kd_results, dist, nu, shock, opponents))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eight_symmetric_types_match_permutation_rows(self, dim):
        rng = np.random.default_rng(50 + dim)
        dist = random_symmetric_instance(rng, n_pairs=4, dim=dim)
        nu = pc.payoff_preset("quadratic")
        shock = shock_for(dist)
        opponents = [rng.dirichlet(np.ones(8)) @ dist.bliss for _ in range(3)]
        assert (_kd_results(dist, nu, shock, opponents)
                == _on_permutation_rows(_kd_results, dist, nu, shock, opponents))

    @pytest.mark.parametrize("n_types", [5, 6])
    def test_four_dimensions_use_permutations(self, n_types, nu_quadratic):
        rng = np.random.default_rng(60 + n_types)
        dist = pc.VoterDistribution(rng.uniform(-1.0, 1.0, (n_types, 4)),
                                    np.full(n_types, 1.0 / n_types))
        assert eqkd._realizable_rankings(dist.bliss) is eqkd._permutations(n_types)
        shock = shock_for(dist)
        got = _inventory_rows(pc.enumerate_local_equilibria(dist, nu_quadratic, shock))
        want = oracle_local_equilibria(dist, nu_quadratic, shock)
        assert [row[0] for row in got] == [row[0] for row in want]
        for g, w in zip(got, want):
            assert np.array_equal(g[1], w[1]) and np.array_equal(g[2], w[2])
            assert g[3] == w[3] and g[4] == w[4]

    def test_intransitive_ties_fall_back_to_permutations(self):
        # along the y axis (a flag of the two exact normals of types 1, 3 and 1, 4), type 0
        # ties with types 1 and 2 and is ordered between them by x, while 1 and 2 do not
        # tie and order the other way
        assert eqkd._realizable_rankings(_INTRANSITIVE[:5]) is eqkd._permutations(5)

    def test_collinear_points_in_three_dimensions(self):
        # rank 1: the only realizable rankings are the line order and its reverse
        pts = np.outer([0.0, 0.5, -1.0, 2.0, 1.5], [1.0, -2.0, 0.5])
        assert eqkd._realizable_rankings(pts).tolist() == [[2, 0, 1, 4, 3], [3, 4, 1, 0, 2]]

    def test_few_types_use_permutations(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0], [-0.5, 0.4]])
        assert eqkd._realizable_rankings(pts) is eqkd._permutations(4)


# five types whose flag decisions are intransitive (see the fallback test), then generic ones
_INTRANSITIVE = np.array([[0.0, 1e-8, 100.0], [1.0, 0.0, 0.0], [-1.0, 2e-8, 0.0],
                          [1.0, 0.0, 1.0], [2.0, 0.0, 0.0], [3.0, 5.0, -7.0],
                          [-4.0, -6.0, 2.0], [6.0, -3.0, 11.0], [-5.0, 7.0, -13.0]])


def _distinct_directions(bliss):
    """Number of distinct lines through the 2-D pair differences, sines above 1e-9 apart."""
    first, second = np.triu_indices(len(bliss), 1)
    diff = bliss[first] - bliss[second]
    angle = np.sort(np.mod(np.arctan2(diff[:, 1], diff[:, 0]), np.pi))
    gaps = np.diff(np.append(angle, angle[0] + np.pi))
    return int(np.count_nonzero(np.abs(np.sin(gaps)) > 1e-9))


@contextlib.contextmanager
def _peak_bytes():
    """Yields a list that holds the peak traced allocation of the block once it exits."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


class TestEnumerationBudget:
    """Past 8 types the search runs until it would touch ``ENUM_BUDGET`` entries."""

    @pytest.mark.parametrize("dim, n_pairs", [(2, 17), (3, 6)])
    def test_largest_admitted_electorates_solve(self, dim, n_pairs, nu_quadratic):
        dist = random_symmetric_instance(np.random.default_rng(70 + dim), n_pairs=n_pairs,
                                         dim=dim)
        shock = shock_for(dist)
        with _peak_bytes() as peak:
            rep = pc.party_preferred_equilibria(dist, nu_quadratic, shock)
        assert peak[0] < 32e6
        for eq in rep.inventory:
            assert pc.induced_ranking(eq.pair, dist) == eq.ranking
        for eq in rep.party_preferred:
            br_a = pc.best_response(eq.pair.x_b, dist, nu_quadratic, shock)
            br_b = pc.best_response(eq.pair.x_a, dist, nu_quadratic, shock)
            assert np.allclose(br_a, eq.pair.x_a, atol=1e-9)
            assert np.allclose(br_b, eq.pair.x_b, atol=1e-9)

    def test_eight_hundred_types_on_a_line(self, nu_quadratic):
        dist = pc.VoterDistribution(np.linspace(-1.0, 1.0, 800), np.full(800, 1.0 / 800))
        shock = shock_for(dist)
        rep = pc.party_preferred_equilibria(dist, nu_quadratic, shock)
        eq1d = pc.equilibrium_1d(dist, nu_quadratic, shock)
        assert len(rep.inventory) == 2
        tops = sorted(float(eq.pair.x_a[0]) for eq in rep.inventory)
        assert tops == pytest.approx([eq1d.x_low, eq1d.x_high], abs=1e-12)

    @pytest.mark.parametrize("dim, n_pairs, entries", [
        (1, 402, 323_610),                      # C(805, 2) pairs, one flag
        (2, 17, 595 * 595),                     # m = C(35, 2) flags of m pairs
        (3, 6, 78 * 77 * 78),                   # m(m−1) flags of m = C(13, 2) pairs
        (4, 4, 362_880 * 9),                    # 9! permutations of 9 types
    ])
    def test_one_type_past_the_limit_is_refused(self, dim, n_pairs, entries, nu_quadratic):
        if dim == 1:
            n = 2 * n_pairs + 1
            dist = pc.VoterDistribution(np.linspace(-1.0, 1.0, n), np.full(n, 1.0 / n))
        else:
            dist = random_symmetric_instance(np.random.default_rng(80 + dim), n_pairs=n_pairs,
                                             dim=dim, center_type=True)
        shock = shock_for(dist)
        message = (f"the ranking search over {dist.n_types} types would touch {entries} "
                   f"entries, over the enumeration budget 322560")
        for call in (lambda: pc.party_preferred_equilibria(dist, nu_quadratic, shock),
                     lambda: pc.best_response(dist.bliss[0], dist, nu_quadratic, shock),
                     lambda: pc.best_response_dynamics((dist.bliss[0], dist.bliss[1]), dist,
                                                       nu_quadratic, shock)):
            with pytest.raises(PreconditionError) as exc:
                call()
            assert str(exc.value) == message

    def test_refusal_allocates_no_flags(self):
        dist = random_symmetric_instance(np.random.default_rng(90), n_pairs=10, dim=3)
        start = time.perf_counter()
        with _peak_bytes() as peak, pytest.raises(PreconditionError, match="enumeration budget"):
            eqkd._realizable_rankings(dist.bliss)
        assert peak[0] < 1e6
        assert time.perf_counter() - start < 1.0

    def test_intransitive_ties_past_eight_types_are_refused(self):
        with pytest.raises(PreconditionError, match="9 types would touch 3265920 entries"):
            eqkd._realizable_rankings(_INTRANSITIVE)

    @pytest.mark.parametrize("n_types", [9, 12, 20, 34])
    def test_generic_plane_has_two_rows_per_direction(self, n_types):
        rng = np.random.default_rng(n_types)
        for dist in (random_diverse_instance(rng, n_types=n_types, dim=2),
                     random_symmetric_instance(rng, n_pairs=n_types // 2, dim=2)):
            rows = eqkd._realizable_rankings(dist.bliss)
            assert len(rows) == 2 * _distinct_directions(dist.bliss)

    @pytest.mark.parametrize("dim, n_pairs", [(2, 17), (3, 6)])
    def test_random_directions_order_the_types_as_rows(self, dim, n_pairs):
        rng = np.random.default_rng(95 + dim)
        dist = random_symmetric_instance(rng, n_pairs=n_pairs, dim=dim)
        rows = {tuple(r) for r in eqkd._realizable_rankings(dist.bliss).tolist()}
        checked = 0
        for d in rng.standard_normal((1000, dim)):
            z = dist.bliss @ d
            order = np.argsort(z)
            if np.min(np.diff(z[order])) > 1e-9:     # a direction at a tie realizes no row
                assert tuple(order.tolist()) in rows
                checked += 1
        assert checked > 990


class TestStoredTable:
    """One ranking table per live electorate, rows shared across payoffs."""

    @pytest.fixture
    def row_builds(self, monkeypatch):
        calls = []
        real = eqkd._realizable_rankings

        def counting(bliss):
            calls.append(1)
            return real(bliss)

        monkeypatch.setattr(eqkd, "_realizable_rankings", counting)
        return calls

    def test_rows_built_once_per_op(self, row_builds, nu_quadratic):
        dist = random_symmetric_instance(np.random.default_rng(42), n_pairs=3, dim=2)
        shock = shock_for(dist)
        rep = pc.party_preferred_equilibria(dist, nu_quadratic, shock)
        for eq in rep.party_preferred:
            pc.best_response(eq.pair.x_b, dist, nu_quadratic, shock)
            pc.best_response(eq.pair.x_a, dist, nu_quadratic, shock)
        start = min(rep.inventory, key=lambda e: e.sq_distance)
        pc.best_response_dynamics(start.pair, dist, nu_quadratic, shock)
        assert len(row_builds) == 1
        assert len(eqkd._stored_table(dist, nu_quadratic)[0]) < 720
        assert len(row_builds) == 1

    def test_same_payoff_reuses_table(self, row_builds, crafted_4type, nu_quadratic):
        first = eqkd._stored_table(crafted_4type, nu_quadratic)
        again = eqkd._stored_table(crafted_4type, nu_quadratic)
        assert all(a is b for a, b in zip(first, again))
        assert len(row_builds) == 1

    def test_new_payoff_reuses_rows(self, row_builds, crafted_4type, monkeypatch):
        table_builds = []
        real = eqkd._ranking_table

        def counting(*args):
            table_builds.append(1)
            return real(*args)

        monkeypatch.setattr(eqkd, "_ranking_table", counting)
        shock = shock_for(crafted_4type)
        nu = pc.payoff_preset("quadratic")
        pc.enumerate_local_equilibria(crafted_4type, nu, shock)
        rows = eqkd._stored_table(crafted_4type, nu)[0]
        other = pc.payoff_preset("sqrt-sharing")
        cands = eqkd.candidate_platforms(crafted_4type, other)
        assert len(row_builds) == 1 and len(table_builds) == 2
        # the table now belongs to the other payoff; the rows serve both
        assert eqkd._stored_table(crafted_4type, other)[0] is rows
        assert len(table_builds) == 2
        assert eqkd._stored_table(crafted_4type, nu)[0] is rows
        assert len(row_builds) == 1 and len(table_builds) == 3
        assert np.array_equal(cands, fresh_solve(eqkd.candidate_platforms, crafted_4type, other))

    def test_arrays_read_only(self, crafted_4type, nu_quadratic):
        for a in eqkd._stored_table(crafted_4type, nu_quadratic):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
        assert eqkd.candidate_platforms(crafted_4type, nu_quadratic).flags.writeable

    def test_entry_freed_with_electorate(self, nu_quadratic):
        dist = pc.VoterDistribution([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]], [0.3, 0.3, 0.4])
        eqkd.candidate_platforms(dist, nu_quadratic)
        assert {"rankings", "ranking_table"} <= set(dist._store)
        ref = weakref.ref(dist)
        del dist
        gc.collect()
        assert ref() is None


class TestBatchPayoffs:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("preset", ["quadratic", "sqrt-sharing", "placement-linear"])
    def test_rows_match_expected_payoff(self, dim, preset):
        rng = np.random.default_rng(100 + dim)
        nu = pc.payoff_preset(preset)
        checked = 0
        for _ in range(3):
            n = int(rng.integers(2, 5))
            bliss = rng.uniform(-1.0, 1.0, size=(n, dim))
            shares = rng.uniform(0.5, 1.5, size=n)
            dist = pc.VoterDistribution(bliss, shares / shares.sum())
            shock = pc.Shock(float(rng.choice([0.5, 3.0])))   # clipped and unclipped cuts
            opp = rng.uniform(-1.0, 1.0, size=dim)
            cands = eqkd.candidate_platforms(dist, nu)
            payoffs = eqkd._batch_payoffs(cands, opp, dist, nu, shock)
            for cand, got in zip(cands, payoffs):
                pair = pc.PlatformPair(cand, opp)
                if pc.induced_ranking(pair, dist) is None:
                    continue   # near-tied gaps: only expected_payoff merges them
                assert got == pytest.approx(pc.expected_payoff(dist, nu, shock, pair), abs=1e-12)
                checked += 1
        assert checked > 0

    def test_placement_linear_best_response_memory(self):
        # the payoff integrates per distinct vote share, never per candidate cell
        rng = np.random.default_rng(104)
        dist = random_symmetric_instance(rng, n_pairs=3, dim=2)
        nu = pc.payoff_preset("placement-linear")
        shock = shock_for(dist)
        tracemalloc.start()
        try:
            pc.best_response(dist.bliss[0], dist, nu, shock)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestDynamics:
    def test_no_move_from_preferred(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        rep = pc.party_preferred_equilibria(crafted_4type, nu_quadratic, shock)
        res = pc.best_response_dynamics(rep.party_preferred[0].pair, crafted_4type,
                                        nu_quadratic, shock)
        assert res.converged
        assert np.allclose(res.sq_distances, res.sq_distances[0], atol=1e-12)

    def test_distance_monotone_from_local_equilibrium(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        found = pc.enumerate_local_equilibria(crafted_4type, nu_quadratic, shock)
        rep = pc.party_preferred_equilibria(crafted_4type, nu_quadratic, shock)
        worst = min(found, key=lambda e: e.sq_distance)
        assert worst.sq_distance < rep.max_sq_distance  # genuinely non-Nash start
        res = pc.best_response_dynamics(worst.pair, crafted_4type, nu_quadratic, shock)
        assert res.symmetric and res.converged
        start = res.sq_distances[0]
        assert np.all(res.sq_distances >= start - 1e-12)
        assert np.all(res.sq_distances[2:] > start + 1e-12)
        terminal = res.trajectory[-1]
        br_a = pc.best_response(terminal.x_b, crafted_4type, nu_quadratic, shock)
        br_b = pc.best_response(terminal.x_a, crafted_4type, nu_quadratic, shock)
        assert np.allclose(br_a, terminal.x_a, atol=1e-9)
        assert np.allclose(br_b, terminal.x_b, atol=1e-9)

    def test_arbitrary_start_reaches_fixed_point(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        res = pc.best_response_dynamics(pc.PlatformPair([0.6, 0.6], [-0.7, 0.1]),
                                        crafted_4type, nu_quadratic, shock)
        assert res.converged and len(res.trajectory) > 3
        terminal = res.trajectory[-1]
        br_a = pc.best_response(terminal.x_b, crafted_4type, nu_quadratic, shock)
        assert np.allclose(br_a, terminal.x_a, atol=1e-9)

    def test_far_start_outside_support(self, crafted_4type, nu_quadratic):
        # [-3, 1] sits 16.2 from the farthest type, beyond the half-width of about 7.0
        shock = shock_for(crafted_4type)
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response_dynamics(pc.PlatformPair([2.0, 2.0], [-3.0, 1.0]),
                                      crafted_4type, nu_quadratic, shock)

    def test_move_leaving_support_raises(self, nu_quadratic):
        # the start (0, 0) is inside Shock(3): 1 <= 3 and 1 - 4 >= -3; A's move to
        # +-0.5 is not, as an opponent: 0.25 - 4 < -3
        d = pc.VoterDistribution([[-1.0], [1.0]], [0.5, 0.5])
        with pytest.raises(PreconditionError, match="shock support"):
            pc.best_response_dynamics(pc.PlatformPair([0.0], [0.0]), d, nu_quadratic,
                                      pc.Shock(3.0))

    def test_asymmetric_flagged(self, nu_quadratic):
        d = pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.6, 0.4])
        shock = shock_for(d)
        res = pc.best_response_dynamics(pc.PlatformPair([1.0, 0.0], [0.0, 1.0]),
                                        d, nu_quadratic, shock, max_iters=20)
        assert not res.symmetric


class TestPartyPreferred:
    def test_two_type_mirrored_pair(self, two_type_2d, nu_quadratic, unit_shock):
        rep = pc.party_preferred_equilibria(two_type_2d, nu_quadratic, unit_shock)
        assert len(rep.party_preferred) == 2
        assert rep.max_sq_distance == pytest.approx(0.5, abs=1e-12)

    def test_one_dimensional_matches_closed_form(self, nu_quadratic):
        rng = np.random.default_rng(34)
        for _ in range(5):
            dist = random_symmetric_instance(rng, dim=1)
            shock = shock_for(dist)
            rep = pc.party_preferred_equilibria(dist, nu_quadratic, shock)
            eq1d = pc.equilibrium_1d(dist, nu_quadratic, shock)
            highs = [float(eq.pair.x_a[0]) for eq in rep.party_preferred]
            assert max(highs) == pytest.approx(eq1d.x_high, abs=1e-10)
            assert min(highs) == pytest.approx(eq1d.x_low, abs=1e-10)

    def test_asymmetric_rejected(self, nu_quadratic, unit_shock):
        d = pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.6, 0.4])
        with pytest.raises(PreconditionError):
            pc.party_preferred_equilibria(d, nu_quadratic, unit_shock)


class TestSymmetry:
    def test_two_point_symmetric(self, two_type_2d):
        assert pc.is_symmetric(two_type_2d)

    def test_unequal_shares_not_symmetric(self):
        d = pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.6, 0.4])
        assert not pc.is_symmetric(d)

    def test_cross_pattern_symmetric(self):
        d = pc.VoterDistribution([[-1, 0], [1, 0], [0, -1], [0, 1]], [0.25] * 4)
        assert pc.is_symmetric(d)

    def test_self_paired_center(self):
        d = pc.VoterDistribution([[-1.0], [0.0], [1.0]], [0.3, 0.4, 0.3])
        assert pc.is_symmetric(d)

    @settings(max_examples=300)
    @given(dist=mirrored_electorates())
    def test_matches_pairwise_loop(self, dist):
        assert pc.is_symmetric(dist) == oracle_is_symmetric(dist)

    def test_large_grid_matches_pairwise_loop(self):
        # perturbations of 0.5e-9 and 2e-9 straddle SYMMETRY_TOL
        rng = np.random.default_rng(7)
        grid = np.array([(x, y) for x in range(-5, 5) for y in range(-10, 10)], dtype=float) + 0.5
        for trial in range(6):
            pts = grid.copy()
            pts[rng.integers(len(pts), size=3), rng.integers(2, size=3)] += (
                rng.choice([-1.0, 1.0], size=3) * rng.choice([0.5e-9, 2e-9], size=3))
            d = pc.VoterDistribution(pts, np.full(len(pts), 1.0 / len(pts)))
            assert pc.is_symmetric(d) == oracle_is_symmetric(d)

    def test_verdict_worked_out_once_per_op(self, nu_quadratic, monkeypatch):
        calls = []
        real = eqkd._mirror_paired

        def counting(dist):
            calls.append(1)
            return real(dist)

        monkeypatch.setattr(eqkd, "_mirror_paired", counting)
        dist = random_symmetric_instance(np.random.default_rng(43), n_pairs=2, dim=2)
        shock = shock_for(dist)
        rep = pc.party_preferred_equilibria(dist, nu_quadratic, shock)
        for eq in rep.party_preferred:
            pc.best_response(eq.pair.x_b, dist, nu_quadratic, shock)
            pc.best_response(eq.pair.x_a, dist, nu_quadratic, shock)
        start = min(rep.inventory, key=lambda e: e.sq_distance)
        assert pc.best_response_dynamics(start.pair, dist, nu_quadratic, shock).symmetric
        assert len(calls) == 1

    def test_verdict_freed_with_electorate(self):
        dist = pc.VoterDistribution([[0.0, 0.0], [1.0, 0.5]], [0.6, 0.4])
        assert not pc.is_symmetric(dist)
        assert dist._store["symmetric"] == ((), False)
        ref = weakref.ref(dist)
        del dist
        gc.collect()
        assert ref() is None

    def test_thousands_of_types(self):
        rng = np.random.default_rng(11)
        half = rng.uniform(0.1, 1.0, size=(1500, 2)) * rng.choice([-1.0, 1.0], size=(1500, 2))
        shares = np.tile(rng.uniform(0.5, 1.5, size=1500), 2)
        d = pc.VoterDistribution(np.vstack([half, -half]), shares / shares.sum())
        assert pc.is_symmetric(d)
        moved = pc.VoterDistribution(np.vstack([half, -half[:-1], [-half[-1] + 1e-3]]),
                                     shares / shares.sum())
        assert not pc.is_symmetric(moved)


class TestDivideGradient:
    def test_weights_computed_once(self, crafted_4type, nu_quadratic, monkeypatch):
        shock = shock_for(crafted_4type)
        eq = pc.enumerate_local_equilibria(crafted_4type, nu_quadratic, shock)[0]
        calls = []

        def counting(*args):
            calls.append(1)
            return equilibrium_weights(*args)

        monkeypatch.setattr(eqkd, "equilibrium_weights", counting)
        pc.local_divide_gradient(eq.ranking, crafted_4type, nu_quadratic, shock, 0, 0)
        assert len(calls) == 1

    def test_two_type_hand_values(self, two_type_2d, nu_quadratic, unit_shock):
        g = pc.local_divide_gradient((0, 1), two_type_2d, nu_quadratic, unit_shock, 1, 0)
        assert g == pytest.approx(0.25, abs=1e-12)
        g = pc.local_divide_gradient((0, 1), two_type_2d, nu_quadratic, unit_shock, 0, 0)
        assert g == pytest.approx(-0.25, abs=1e-12)

    def test_matches_finite_differences(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        found = pc.enumerate_local_equilibria(crafted_4type, nu_quadratic, shock)
        eq = found[0]
        base = 0.5 * (nu_quadratic.value_at_one + nu_quadratic.value_at_zero)
        for position in range(4):
            for dim in range(2):
                analytic = pc.local_divide_gradient(eq.ranking, crafted_4type,
                                                    nu_quadratic, shock, position, dim)
                t = eq.ranking[position]

                def ranked_payoff(v):
                    bliss = crafted_4type.bliss.copy()
                    bliss[t, dim] = v
                    d2 = pc.VoterDistribution(bliss, crafted_4type.shares)
                    pair = pc.platforms_for_ranking(eq.ranking, d2, nu_quadratic)
                    return base + pair.sq_distance / (2.0 * shock.half_width)

                fd = central_difference(ranked_payoff, float(crafted_4type.bliss[t, dim]))
                assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), 1e-3)

    def test_gradient_vector_aligned_with_separation(self, nu_quadratic):
        # paired-only symmetric electorates always straddle, so use a center type
        pts = np.array([[0.8, 0.4], [-0.8, -0.4], [0.3, -0.7], [-0.3, 0.7], [0.0, 0.0]])
        dist = pc.VoterDistribution(pts, [0.15, 0.15, 0.2, 0.2, 0.3])
        shock = shock_for(dist)
        eq = pc.enumerate_local_equilibria(dist, nu_quadratic, shock)[0]
        m_r, straddling = pc.median_position(eq.ranking, dist)
        assert not straddling
        sep = eq.pair.x_a - eq.pair.x_b
        for position in range(dist.n_types):
            grad = np.array([pc.local_divide_gradient(eq.ranking, dist,
                                                      nu_quadratic, shock, position, k)
                             for k in range(2)])
            cross = grad[0] * sep[1] - grad[1] * sep[0]
            assert abs(cross) <= 1e-12  # proportional to the separation direction
            if position > m_r:
                assert grad @ sep > 0
            elif position < m_r:
                assert grad @ sep < 0

    def test_paired_symmetric_instance_straddles(self, crafted_4type):
        # two mirror pairs: the cumulative share hits one half mid-ranking
        pos, straddling = pc.median_position((0, 2, 3, 1), crafted_4type)
        assert straddling and pos is None

    def test_median_position_straddling(self, nu_quadratic):
        d = pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        pos, straddling = pc.median_position((0, 1), d)
        assert straddling and pos is None

    def test_rejects_inconsistent_ranking(self, crafted_4type, nu_quadratic):
        shock = shock_for(crafted_4type)
        found = pc.enumerate_local_equilibria(crafted_4type, nu_quadratic, shock)
        consistent = {eq.ranking for eq in found}
        import itertools
        bad = next(p for p in itertools.permutations(range(4)) if p not in consistent)
        with pytest.raises(PreconditionError):
            pc.local_divide_gradient(bad, crafted_4type, nu_quadratic, shock, 0, 0)


class TestProjection:
    def test_axis_projection_is_marginal(self, crafted_4type):
        proj = pc.project_distribution(crafted_4type, [1.0, 0.0])
        assert proj.dimension == 1
        assert np.allclose(np.sort(proj.bliss[:, 0]),
                           np.sort(crafted_4type.bliss[:, 0]))

    def test_diagonal_projection(self, two_type_2d):
        proj = pc.project_distribution(two_type_2d, [0.5, 0.5])
        assert np.allclose(np.sort(proj.bliss[:, 0]), [0.0, 1.0])

    def test_coincident_projections_merged(self):
        d = pc.VoterDistribution([[1.0, 0.0], [0.0, 1.0]], [0.4, 0.6])
        proj = pc.project_distribution(d, [1.0, 1.0])
        assert proj.n_types == 1
        assert proj.shares[0] == pytest.approx(1.0)

    def test_zero_direction_rejected(self, two_type_2d):
        with pytest.raises(PreconditionError):
            pc.project_distribution(two_type_2d, [0.0, 0.0])

    def test_positive_scaling_preserves_verdict(self, coherence_pair, nu_quadratic):
        base, cand = coherence_pair
        shock = shock_for(base)
        rep = pc.party_preferred_equilibria(base, nu_quadratic, shock)
        d = rep.party_preferred[0].pair.x_a - rep.party_preferred[0].pair.x_b
        assert pc.is_directional_spread(base, cand, d) == \
            pc.is_directional_spread(base, cand, 3.7 * d)


class TestDirectionalSpread:
    def test_outward_translation_is_spread(self, coherence_pair, nu_quadratic):
        base, _ = coherence_pair
        shock = shock_for(base)
        rep = pc.party_preferred_equilibria(base, nu_quadratic, shock)
        d = rep.party_preferred[0].pair.x_a - rep.party_preferred[0].pair.x_b
        cand = outward_directional_spread(base, d, 0.2)
        assert pc.is_directional_spread(base, cand, d)

    def test_reflexive_not_spread(self, coherence_pair):
        base, _ = coherence_pair
        assert not pc.is_directional_spread(base, base, [1.0, 0.3])

    def test_inward_move_not_spread(self, coherence_pair):
        base, _ = coherence_pair
        shock = shock_for(base)
        nu = pc.payoff_preset("quadratic")
        rep = pc.party_preferred_equilibria(base, nu, shock)
        d = rep.party_preferred[0].pair.x_a - rep.party_preferred[0].pair.x_b
        cand = outward_directional_spread(base, d, -0.2)
        assert not pc.is_directional_spread(base, cand, d)


class TestDirectionalSpreadPayoffs:
    def test_two_type_outward(self, nu_quadratic):
        base = pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        cand = pc.VoterDistribution([[-0.25, -0.25], [1.25, 1.25]], [0.5, 0.5])
        shock = pc.Shock(5.0)
        cmp = pc.compare_directional_spread_payoffs(base, cand, nu_quadratic, shock)
        assert cmp.base_sq_distance == pytest.approx(0.5, abs=1e-12)
        assert cmp.candidate_sq_distance == pytest.approx(1.125, abs=1e-12)
        assert cmp.candidate_payoff > cmp.base_payoff

    def test_coherence_increase(self, coherence_pair, nu_quadratic):
        base, cand = coherence_pair
        shock = shock_for(base)
        cmp = pc.compare_directional_spread_payoffs(base, cand, nu_quadratic, shock)
        assert cmp.candidate_payoff > cmp.base_payoff
        assert cmp.candidate_sq_distance > cmp.base_sq_distance

    def test_translation_control(self, coherence_pair, nu_quadratic):
        base, _ = coherence_pair
        shock = shock_for(base, margin=300.0)
        moved = base.translate([3.0, -2.0])
        rep0 = pc.party_preferred_equilibria(base, nu_quadratic, shock)
        rep1 = pc.party_preferred_equilibria(moved, nu_quadratic, shock)
        assert rep1.max_sq_distance == pytest.approx(rep0.max_sq_distance, abs=1e-10)
        assert rep1.party_preferred[0].payoff == \
            pytest.approx(rep0.party_preferred[0].payoff, abs=1e-10)
        with pytest.raises(PreconditionError):
            pc.compare_directional_spread_payoffs(base, moved, nu_quadratic, shock)
