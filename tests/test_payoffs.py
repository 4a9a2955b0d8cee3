import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polcomp as pc
from polcomp.errors import PreconditionError
from polcomp.payoffs import _PLACEMENT_BLOCK, _premium_power

from helpers import (PLACEMENT_SCHEDULES, oracle_jump_flags, oracle_placement_utility,
                     placement_bit_digests, placement_points)

ROOT = Path(__file__).resolve().parent.parent


class TestPlacements:
    def test_linear_schedule_closed_form(self):
        profile = pc.PlacementProfile(value=lambda k: 1.0 - k / 2.0, capacity=1.0)
        u = pc.utility_from_placements(profile)
        grid = np.linspace(0.0, 1.0, 11)
        assert np.allclose(u(grid), grid - grid**2 / 4.0, atol=1e-12)
        assert u(1.0) == pytest.approx(0.75, abs=1e-12)

    def test_constant_schedule_rejected(self):
        with pytest.raises(PreconditionError):
            pc.PlacementProfile(value=lambda k: np.ones_like(np.asarray(k, dtype=float)),
                                capacity=1.0)

    def test_steeper_schedule_matches_quadratic(self):
        profile = pc.PlacementProfile(value=lambda k: 2.0 - 2.0 * k, capacity=1.0)
        u = pc.utility_from_placements(profile)
        grid = np.linspace(0.0, 1.0, 11)
        assert np.allclose(u(grid), 2.0 * grid - grid**2, atol=1e-12)

    def test_capacity_must_cover_power(self):
        with pytest.raises(PreconditionError):
            pc.PlacementProfile(value=lambda k: 1.0 - k, capacity=0.5, total_power=1.0)


class TestRentSharing:
    def test_sqrt_four_insiders(self):
        profile = pc.RentSharingProfile(insider_utility=np.sqrt, insiders=4)
        u = pc.utility_from_rent_sharing(profile)
        assert u(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_single_insider_is_identity(self):
        profile = pc.RentSharingProfile(insider_utility=np.sqrt, insiders=1)
        u = pc.utility_from_rent_sharing(profile)
        assert u(0.49) == pytest.approx(np.sqrt(0.49), abs=1e-12)

    def test_log_insiders(self):
        profile = pc.RentSharingProfile(insider_utility=np.log1p, insiders=2,
                                        total_power=2.0)
        u = pc.utility_from_rent_sharing(profile)
        assert u(2.0) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_insiders_must_be_positive_integer(self):
        with pytest.raises(PreconditionError):
            pc.RentSharingProfile(insider_utility=np.sqrt, insiders=0)


class TestGovernanceCost:
    def test_quadratic_cost(self):
        profile = pc.CostProfile(cost=lambda r: np.asarray(r, dtype=float) ** 2 / 4.0)
        u = pc.utility_from_governance_cost(profile)
        grid = np.linspace(0.0, 1.0, 11)
        assert np.allclose(u(grid), grid - grid**2 / 4.0, atol=1e-12)

    def test_zero_cost_rejected(self):
        with pytest.raises(PreconditionError):
            pc.CostProfile(cost=lambda r: np.zeros_like(np.asarray(r, dtype=float)))

    def test_non_finite_cost_rejected(self):
        with pytest.raises(PreconditionError,
                           match=r"^governance cost must be finite on the validation grid$"):
            pc.CostProfile(cost=lambda p: np.full_like(p, np.nan))

    @pytest.mark.parametrize("total", [0.0, -1.0, np.nan])
    def test_non_positive_total_rejected(self, total):
        # a total of 0 divided 0 by 0 in the differences and was accepted
        with pytest.raises(PreconditionError, match=r"^total power must be positive$"):
            pc.CostProfile(cost=lambda p: np.asarray(p, dtype=float) ** 2, total_power=total)

    def test_dominating_cost_rejected(self):
        profile = pc.CostProfile(cost=lambda r: np.asarray(r, dtype=float) ** 2)
        with pytest.raises(PreconditionError):
            pc.utility_from_governance_cost(profile)


class TestMajorityPremium:
    def test_zero_premium_is_proportional(self):
        rho = pc.majority_premium_power(1.0, 0.0)
        s = np.linspace(0, 1, 11)
        assert np.allclose(rho(s), s, atol=1e-15)

    @pytest.mark.parametrize("share,expected", [(0.4, 0.2), (0.6, 0.8), (0.5, 0.5)])
    def test_half_premium_values(self, share, expected):
        rho = pc.majority_premium_power(1.0, 0.5)
        assert rho(share) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("premium", [0.0, 0.3, 0.9, 0.999])
    def test_constant_sum_on_grid(self, premium):
        rho = pc.majority_premium_power(1.0, premium)
        s = np.linspace(0, 1, 1001)
        assert np.max(np.abs(rho(s) + rho(1.0 - s) - 1.0)) < 1e-12

    @pytest.mark.parametrize("premium", [-0.1, 1.0, 1.5])
    def test_premium_range(self, premium):
        with pytest.raises(PreconditionError):
            pc.majority_premium_power(1.0, premium)

    @pytest.mark.parametrize("total,premium", [(1.0, 0.0), (1.0, 0.3), (2.0, 1.0 - 1e-6)])
    def test_rho_matches_nested_where(self, total, premium):
        slope = total - premium

        def nested(share):
            s = np.asarray(share, dtype=float)
            return np.where(s < 0.5, slope * s,
                            np.where(s > 0.5, slope * s + premium, total / 2.0))

        rho = pc.majority_premium_power(total, premium)._func
        edges = [-0.0, 0.0, -1.0, 2.0, 0.5, np.nan, 1e-300]
        grid = np.concatenate((edges, np.linspace(0.0, 1.0, 1001)))
        for share in [grid] + [np.asarray(v) for v in edges]:
            got, want = rho(share), nested(share)
            assert type(got) is type(want) and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("total", [1.0, 2.5])
    def test_premium_column_gives_single_premium_rows(self, total):
        premiums = np.array([0.0, 0.3, 0.5, total - 1e-6])
        share = np.concatenate(([-0.0, 0.5, np.nan, 1e-300], np.linspace(0.0, 1.0, 1001)))
        rows = _premium_power(total, premiums[:, None], share)
        for row, premium in zip(rows, premiums):
            assert row.tobytes() == _premium_power(total, premium, share).tobytes()

    def test_one_sided_limits(self):
        rho = pc.majority_premium_power(2.0, 1.0)
        assert rho.half_lower == pytest.approx(0.5)
        assert rho.half_upper == pytest.approx(1.5)
        assert rho.jump == pytest.approx(1.0)


class TestCompose:
    def test_quadratic_composition(self):
        u = pc.utility_preset("quadratic")
        nu = pc.compose_reduced_payoff(u, pc.proportional_power())
        s = np.linspace(0, 1, 101)
        assert np.allclose(nu(s), 2 * s - s**2, atol=1e-12)
        assert nu.value_at_half == pytest.approx(0.75, abs=1e-15)
        assert nu.strictly_concave and nu.minority_gain_strict and not nu.has_jump

    def test_linear_payoff_boundary(self, nu_linear):
        # risk-neutral boundary: gain asymmetry collapses to equality
        assert not nu_linear.minority_gain_strict
        assert not nu_linear.strictly_concave
        s = np.linspace(0, 1, 11)
        assert np.allclose(nu_linear(s), s, atol=1e-15)

    def test_premium_composition_keeps_monotonicity(self):
        nu = pc.payoff_preset("quadratic", majority_premium=0.5)
        assert nu.has_jump
        assert nu.half_lower < nu(0.5) < nu.half_upper
        s = np.linspace(0, 1, 201)
        assert np.all(np.diff(nu(s)) >= 0.0)
        assert not nu.strictly_concave  # jump disqualifies the concavity flag

    def test_normalization(self):
        for name in ("quadratic", "sqrt-sharing", "placement-linear"):
            nu = pc.payoff_preset(name)
            assert nu.value_at_zero == 0.0 and nu.value_at_one == 1.0

    def test_zero_span_rejected(self):
        with pytest.raises(PreconditionError):
            pc.ReducedPayoff(lambda s: np.zeros_like(np.asarray(s, dtype=float)))

    def test_nan_payoff_rejected(self):
        with pytest.raises(PreconditionError, match="reduced payoff must be finite"):
            pc.ReducedPayoff(lambda s: np.where(np.asarray(s) > 0.7, np.nan,
                                                np.asarray(s, dtype=float)))

    def test_nan_power_map_rejected(self):
        with pytest.raises(PreconditionError, match="power map must be finite"):
            pc.PowerMap(1.0, lambda s: np.where(s > 0.9, np.nan, s))

    def test_nan_power_utility_rejected(self):
        with pytest.raises(PreconditionError, match="power utility must be finite"):
            pc.PowerUtility(lambda p: np.where(p > 0.8, np.nan, np.sqrt(p)))

    def test_total_power_mismatch(self):
        u = pc.utility_preset("quadratic", total_power=2.0)
        with pytest.raises(PreconditionError):
            pc.compose_reduced_payoff(u, pc.proportional_power(1.0))


class TestPresets:
    def test_sqrt_sharing_is_sqrt(self):
        nu = pc.payoff_preset("sqrt-sharing", insiders=4)
        s = np.linspace(0, 1, 101)
        assert np.allclose(nu(s), np.sqrt(s), atol=1e-12)

    def test_placement_linear_matches_quadratic(self):
        nu_p = pc.payoff_preset("placement-linear")
        nu_q = pc.payoff_preset("quadratic")
        s = np.linspace(0, 1, 101)
        assert np.allclose(nu_p(s), nu_q(s), atol=1e-12)

    def test_unknown_preset(self):
        with pytest.raises(PreconditionError):
            pc.payoff_preset("cubic")

    def test_unknown_parameter(self):
        with pytest.raises(PreconditionError):
            pc.payoff_preset("sqrt-sharing", flavor="salted")

    @pytest.mark.parametrize("name", ["quadratic", "sqrt-sharing", "placement-linear"])
    def test_presets_pass_all_diagnostics(self, name):
        nu = pc.payoff_preset(name)
        assert nu.strictly_concave
        assert nu.minority_gain_strict
        assert nu.power_map is not None


class TestMinorityGainWithJump:
    def test_one_sided_checks_recorded(self):
        nu = pc.payoff_preset("quadratic", majority_premium=0.5)
        lower_ok, upper_ok = nu.minority_gain_at_half
        assert isinstance(lower_ok, bool) and isinstance(upper_ok, bool)
        # the upward jump makes the upper one-sided increment strict
        assert upper_ok

    @pytest.mark.parametrize("total", [1.0, 2.5])
    @pytest.mark.parametrize("preset", ["quadratic", "sqrt-sharing", "placement-linear"])
    def test_flags_match_scalar_rule(self, preset, total):
        # the gain below one half comes from the grid values, not two scalar calls
        params = {"intercept": 2.0 * total} if preset == "placement-linear" else {}
        u = pc.utility_preset(preset, total_power=total, **params)
        rng = np.random.default_rng(int(10 * total))
        premiums = np.concatenate(([0.0, 0.999 * total], rng.uniform(0.0, 0.999 * total, 14)))
        for premium in premiums:
            nu = pc.compose_reduced_payoff(u, pc.majority_premium_power(total, premium))
            flags = (nu.has_jump, nu.strictly_concave, nu.minority_gain_strict,
                     *nu.minority_gain_at_half)
            expected = oracle_jump_flags(nu)
            assert flags == (*expected[:3], *expected[3])
            assert all(type(flag) is bool for flag in flags)


class TestPlacementShapes:
    def test_evaluates_any_array_shape(self):
        u = pc.utility_preset("placement-linear")
        grid = np.array([[0.1, 0.4], [0.7, 1.0]])
        out = u.evaluate(grid)
        assert out.shape == (2, 2)
        assert np.array_equal(out.reshape(-1), u.evaluate(grid.reshape(-1)))
        assert np.array_equal(u.evaluate(np.ones((2, 2))), np.full((2, 2), u.evaluate(1.0)))

    def test_scalar_and_vector_unchanged(self):
        u = pc.utility_preset("placement-linear")
        assert isinstance(u.evaluate(0.3), float)
        assert u.evaluate(np.array([0.3]))[0] == u.evaluate(0.3)


# from ~112 rows of Simpson nodes on, OpenBLAS may split one product across threads
THREADED_SHAPES = [(n,) for n in range(113, 301)] + [(999,), (1001,), (2049,), (129, 3)]
_DIGEST_SCRIPT = ("import json, sys\n"
                  "from helpers import placement_bit_digests\n"
                  "print(json.dumps(placement_bit_digests(json.loads(sys.argv[1]),\n"
                  "                                       oracle=sys.argv[2] == '1')))")


@functools.cache
def _digests_at(blas_threads):
    """placement_bit_digests(THREADED_SHAPES) in a fresh process with that many BLAS threads.

    The oracle runs at one thread only, where it gives the bits the benchmark records.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    argv = [sys.executable, "-c", _DIGEST_SCRIPT, json.dumps(THREADED_SHAPES), str(blas_threads)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestPlacementKernelBits:
    """The blocked placement utility gives the single-product formula's bits."""

    @pytest.mark.parametrize("name", sorted(PLACEMENT_SCHEDULES))
    def test_unthreaded_sizes(self, name):
        q = PLACEMENT_SCHEDULES[name]
        u = pc.utility_from_placements(pc.PlacementProfile(q, capacity=1.0))
        tails = [(_PLACEMENT_BLOCK + r,) for r in (1, 2, 3)]
        differ = []
        for shape in [(n,) for n in range(1, 113)] + tails + [(2, 2), ()]:
            x = placement_points(shape)
            got = u.evaluate(x)
            assert np.shape(got) == shape
            if not np.array_equal(_bits(got), _bits(oracle_placement_utility(q, x))):
                differ.append(shape)
        assert differ == []

    @pytest.mark.parametrize("name", sorted(PLACEMENT_SCHEDULES))
    def test_scalars(self, name):
        q = PLACEMENT_SCHEDULES[name]
        u = pc.utility_from_placements(pc.PlacementProfile(q, capacity=1.0))
        for x in (0.0, 1.0 / 3.0, 0.5, 1.0):
            assert float.hex(u.evaluate(x)) == float.hex(float(oracle_placement_utility(q, x)))

    def test_single_blas_thread_matches_oracle(self):
        digests = _digests_at(1)
        assert len(digests) == len(PLACEMENT_SCHEDULES) * len(THREADED_SHAPES)
        assert [case for case, d in digests.items() if d["kernel"] != d["oracle"]] == []

    def test_two_blas_threads_give_single_thread_bits(self):
        one, two = _digests_at(1), _digests_at(2)
        assert [case for case in one if two[case]["kernel"] != one[case]["kernel"]] == []


class TestPlacementMemory:
    """Peak allocation is one block of Simpson rows, whatever the input size."""

    def test_preset_build_peak(self):
        tracemalloc.start()
        try:
            pc.payoff_preset("placement-linear")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_evaluate_peak(self):
        u = pc.utility_preset("placement-linear")
        # 2000 points first: a kernel holding n × 4097 temporaries fails there at
        # ~0.2 GB instead of asking for ~10 GB at 10^5 points
        for n in (2_000, 100_000):
            x = np.linspace(0.0, 1.0, n)
            tracemalloc.start()
            try:
                out = u.evaluate(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, n
            assert np.allclose(out, 2.0 * x - x * x, rtol=0.0, atol=1e-12)
