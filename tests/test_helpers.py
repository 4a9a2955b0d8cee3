"""Tests of the shared test tooling in helpers.py."""

import time

import numpy as np
import pytest

from helpers import _min_pairwise_distance, random_diverse_instance


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
