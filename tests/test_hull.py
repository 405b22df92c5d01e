"""LP solver and convex-hull geometry, oracle-checked."""

import itertools
import math

import numpy as np
import pytest

from ergmkit.errors import DataError
from ergmkit.hull import (LinearProgram, boundary_multiplier, in_hull,
                          scale_into_hull, simplex_solve)


def with_slacks(c, A, b):
    """The equality form of max c'x subject to A x <= b, x >= 0: one
    explicit slack column per row, A x + s = b, with s >= 0 and no
    weight in the objective."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m = A.shape[0]
    return LinearProgram(np.concatenate([np.asarray(c, dtype=float),
                                         np.zeros(m)]),
                         np.hstack([A, np.eye(m)]), b)


def vertex_enumeration_optimum(c, A, b):
    """Brute-force oracle for max c'x subject to A x <= b, x >= 0:
    evaluate every basic solution.

    Enumerates all choices of n active constraints among the rows and
    the nonnegativity bounds, keeps the feasible intersection points,
    and maximizes the objective over them.  Exponential, for tiny LPs.
    """
    m, n = A.shape
    rows = [(A[r], b[r]) for r in range(m)]
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        rows.append((e, 0.0))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[r][0] for r in combo])
        rhs = np.array([rows[r][1] for r in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if (x < -1e-9).any() or (A @ x > b + 1e-9).any():
            continue
        val = c @ x
        if best is None or val > best:
            best = val
    return best


def feasibility_membership(points, x):
    """Independent membership oracle: the direct feasibility LP
    (exists lambda >= 0, sum lambda = 1, sum lambda p = x)."""
    points = np.asarray(points, dtype=float)
    S, p = points.shape
    A = np.vstack([points.T, np.ones(S)])
    b = np.concatenate([np.asarray(x, dtype=float), [1.0]])
    lp = LinearProgram(np.zeros(S), A, b)
    return simplex_solve(lp).status == "optimal"


class TestSimplex:
    def test_single_variable(self):
        # max x subject to x <= 3
        res = simplex_solve(with_slacks([1.0], [[1.0]], [3.0]))
        assert res.status == "optimal"
        assert abs(res.objective - 3.0) < 1e-12
        assert abs(res.x[0] - 3.0) < 1e-12

    def test_infeasible(self):
        # x <= -1 and x >= 0: x + s1 = -1 and x - s2 = 0
        lp = LinearProgram([1.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]],
                           [-1.0, 0.0])
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        # max x subject to -x <= 1
        lp = with_slacks([1.0], [[-1.0]], [1.0])
        assert simplex_solve(lp).status == "unbounded"

    def test_min_sense(self):
        # min x + y subject to x + y >= 2, as max -(x + y) with a surplus
        # column: x + y - s = 2
        lp = LinearProgram([-1.0, -1.0, 0.0], [[1.0, 1.0, -1.0]], [2.0])
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert abs(res.objective + 2.0) < 1e-10

    def test_degenerate_equalities(self):
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        res = simplex_solve(lp)
        assert res.status == "optimal"
        assert abs(res.objective - 2.0) < 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_random_vs_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 5)
        m = rng.integers(2, 7)
        A = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.2, 1.0, size=n)
        b = A @ x_feas + rng.uniform(0.1, 1.0, size=m)   # feasible by design
        c = rng.normal(size=n)
        # cap the polytope so the LP is bounded
        A = np.vstack([A, np.ones(n)])
        b = np.concatenate([b, [float(n) * 2.0]])
        res = simplex_solve(with_slacks(c, A, b))
        oracle = vertex_enumeration_optimum(c, A, b)
        assert res.status == "optimal"
        assert oracle is not None
        assert abs(res.objective - oracle) < 1e-9 * max(1.0, abs(oracle))
        x = res.x[:n]
        assert (res.x >= -1e-9).all() and (A @ x <= b + 1e-9).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            LinearProgram([1.0, 2.0], [[1.0]], [1.0])
        with pytest.raises(DataError):
            LinearProgram([1.0], [[1.0]], [1.0, 2.0])


class TestBoundaryMultiplier:
    def test_triangle_interior(self):
        points = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        center = np.array([-1 / 3, 0.0])
        gamma = boundary_multiplier(points, [0.0, 0.0], center)
        assert gamma > 1.0
        # the ray from (-1/3, 0) through the origin exits at x = 1:
        # gamma should be (1 + 1/3) / (1/3) = 4
        assert abs(gamma - 4.0) < 1e-8

    def test_vertex_is_boundary(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(20, 3))
        hull_vertex = points[np.argmax(points[:, 0])]
        gamma = boundary_multiplier(points, hull_vertex)
        assert abs(gamma - 1.0) < 1e-9

    def test_center_is_infinite(self):
        points = np.random.default_rng(2).normal(size=(10, 2))
        c = points.mean(axis=0)
        assert boundary_multiplier(points, c) == math.inf

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(30, 4))
        center = points.mean(axis=0)
        x = center + rng.normal(size=4)
        g1 = boundary_multiplier(points, x, center)
        g2 = boundary_multiplier(points, center + 2 * (x - center), center)
        assert abs(g1 - 2 * g2) < 1e-9 * max(1.0, g1)

    @pytest.mark.parametrize("seed", range(25))
    def test_membership_matches_feasibility_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(1, 5))
        S = int(rng.integers(p + 1, 50))
        points = rng.normal(size=(S, p))
        for _ in range(40):
            if rng.random() < 0.5:
                w = rng.dirichlet(np.ones(S))
                x = w @ points          # inside by construction
            else:
                x = rng.normal(size=p) * 2.0
            assert in_hull(points, x) == feasibility_membership(points, x)


class TestScaleIntoHull:
    def test_deep_point_unchanged(self):
        points = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        x = points.mean(axis=0) + np.array([0.01, 0.0])
        out = scale_into_hull(points, x)
        assert np.allclose(out, x)

    def test_center_unchanged(self):
        points = np.random.default_rng(4).normal(size=(15, 3))
        c = points.mean(axis=0)
        assert np.allclose(scale_into_hull(points, c), c)

    def test_outside_point_lands_inside(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(25, 3))
        center = points.mean(axis=0)
        x = center + 50.0 * rng.normal(size=3)
        out = scale_into_hull(points, x)
        gamma = boundary_multiplier(points, out, center)
        assert gamma >= 1.0  # strictly inside (multiplier 1/depth up to fp)
        assert abs(gamma - 1.0 / 0.95) < 1e-6

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(25, 4))
        for _ in range(10):
            x = points.mean(axis=0) + 10.0 * rng.normal(size=4)
            once = scale_into_hull(points, x)
            twice = scale_into_hull(points, once)
            assert np.allclose(once, twice, atol=1e-9)
