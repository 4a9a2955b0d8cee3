"""Tests of the shared test tooling in helpers.py."""

import time

import numpy as np
import pytest

from helpers import _min_pairwise_distance, random_diverse_instance, random_symmetric_instance


def _matrix_min_distance(bliss):
    diffs = bliss[:, None, :] - bliss[None, :, :]
    dist_mat = np.sqrt(np.sum(diffs**2, axis=2))
    np.fill_diagonal(dist_mat, np.inf)
    return dist_mat.min()


class TestRandomDiverseInstance:
    def test_infeasible_spacing_raises_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"n_types=800 .* dim=1 .* spacing above 0\.05"):
            random_diverse_instance(np.random.default_rng(0), n_types=800)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_min_distance_matches_pairwise_matrix(self, dim):
        rng = np.random.default_rng(dim)
        for n in range(1, 40):
            bliss = rng.uniform(-1.0, 1.0, size=(n, dim))
            if n > 2:
                bliss[-1] = bliss[0]
            assert _min_pairwise_distance(bliss) == _matrix_min_distance(bliss)

    def test_types_are_separated(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3):
            dist = random_diverse_instance(rng, n_types=6, dim=dim, scale=2.0)
            assert _matrix_min_distance(dist.bliss) > 0.1


def _unbounded_symmetric_instance(rng, n_pairs, dim, center_type, scale=1.0):
    """Reference: the redraw-forever loop, one pairwise matrix per draw."""
    center = rng.uniform(-0.5, 0.5, size=dim)
    while True:
        offsets = rng.uniform(0.1, scale, size=(n_pairs, dim))
        offsets *= rng.choice([-1.0, 1.0], size=(n_pairs, dim))
        pts = np.vstack([center + offsets, center - offsets])
        if _matrix_min_distance(pts) > 0.05 * scale:
            break
    pair_shares = rng.uniform(0.5, 1.5, size=n_pairs)
    if center_type:
        total = pair_shares.sum() * rng.uniform(1.1, 1.6)
        center_share = 1.0 - pair_shares.sum() / total
        pair_shares = pair_shares / total
        pts = np.vstack([pts, center])
        shares = np.concatenate([pair_shares / 2.0, pair_shares / 2.0, [center_share]])
    else:
        pair_shares = pair_shares / pair_shares.sum()
        shares = np.concatenate([pair_shares / 2.0, pair_shares / 2.0])
    return pts, shares


class TestRandomSymmetricInstance:
    def test_infeasible_spacing_raises_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"n_pairs=400 .* dim=1 .* spacing above 0\.05"):
            random_symmetric_instance(np.random.default_rng(0), n_pairs=400, dim=1)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("center_type", [False, True])
    def test_feasible_draws_match_unbounded_loop(self, dim, center_type):
        for seed in range(5):
            for n_pairs in (1, 4, 17 if dim > 1 else 6):   # 17 pairs seldom fit in 1-D
                got = random_symmetric_instance(np.random.default_rng(seed), n_pairs=n_pairs,
                                                dim=dim, center_type=center_type)
                pts, shares = _unbounded_symmetric_instance(
                    np.random.default_rng(seed), n_pairs, dim, center_type)
                assert np.array_equal(got.bliss, pts)
                assert np.array_equal(got.shares, shares)
