"""Tests for the brute-force grid oracle and its agreement with the
closed-form projection."""
import numpy as np
import pytest

from reference import _grid_counts, oracle_project
from ssnorm.errors import InvalidInputError
from ssnorm.simplex import circumradius, sparsestmax


def _objective(p, z):
    return float(((p - z) ** 2).sum())


def test_grid_counts_cover_the_simplex():
    for k in (2, 3, 4):
        g = 12
        counts = _grid_counts(k, g)
        assert counts.shape[1] == k
        assert np.all(counts.sum(axis=1) == g)
        assert np.all(counts >= 0)
        # Composition count: C(g + k - 1, k - 1).
        from math import comb
        assert counts.shape[0] == comb(g + k - 1, k - 1)
        # No duplicates.
        assert len({tuple(row) for row in counts}) == counts.shape[0]


def test_oracle_validates_inputs():
    with pytest.raises(InvalidInputError):
        oracle_project([0.2] * 5, 0.3, 200)
    with pytest.raises(InvalidInputError):
        oracle_project([0.5, 0.5], 0.3, 50)
    with pytest.raises(InvalidInputError):
        oracle_project([0.5, 0.5], -0.1, 200)


def test_oracle_returns_feasible_grid_point():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        for _ in range(10):
            z = rng.normal(size=k)
            r = rng.uniform(0.0, circumradius(k))
            p = oracle_project(z, r, 150)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.linalg.norm(p - np.full(k, 1.0 / k)) >= r - 2e-3


def test_oracle_matches_closed_form_on_known_points():
    z = np.array([0.5, 0.3, 0.2])
    for r in (0.0, 0.15, 0.3, 0.6):
        p_grid = oracle_project(z, r, 400)
        p_exact = sparsestmax(z, r).p
        # The best feasible grid point can sit a few cells from the true
        # optimum when the constraint circle cuts between grid points.
        assert np.max(np.abs(p_grid - p_exact)) <= 4.0 / 400


def test_closed_form_objective_never_beaten_by_grid():
    # The closed form is the true minimizer, so its objective can exceed
    # the best grid point's by at most discretization error.
    rng = np.random.default_rng(17)
    for k in (2, 3, 4):
        for _ in range(25):
            z = rng.normal(size=k)
            r = rng.uniform(0.0, 0.95 * circumradius(k))
            exact = sparsestmax(z, r).p
            grid = oracle_project(z, r, 200)
            assert _objective(exact, z) <= _objective(grid, z) + 1e-4
