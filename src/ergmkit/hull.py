"""Dense linear programming and convex-hull geometry.

A two-phase primal simplex over the equality form (maximize c'x
subject to A x = b, x >= 0) using Bland's anti-cycling rule, which
guarantees termination.  On top of it, the exact boundary multiplier:
the largest t >= 0 such that center + t * (x - center) stays inside the
convex hull of a point cloud, found by one LP.  The multiplier is at
least 1 exactly when x itself is in the hull, and it drives both the
step-length scaling of the likelihood update and the hull membership
test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["LinearProgram", "LpResult", "simplex_solve",
           "boundary_multiplier", "scale_into_hull", "in_hull"]

_TOL = 1e-9
_BOUNDARY_BAND = 1e-7


@dataclass
class LinearProgram:
    """max c'x subject to A x = b and x >= 0."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.objective.shape != (n,):
            raise DataError("objective length must match the column count")
        if self.b.shape != (m,):
            raise DataError("need one rhs value per row")


@dataclass
class LpResult:
    status: str                      # optimal | infeasible | unbounded
    x: np.ndarray = field(default=None)
    objective: float = float("nan")


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * piv
    basis[row] = col


def _bland_iterate(T, basis, ncols):
    """Run simplex iterations on tableau T (last row = reduced costs,
    last column = rhs), entering by Bland's smallest-index rule."""
    m = T.shape[0] - 1
    while True:
        cost = T[-1, :ncols]
        enter = -1
        for jcol in range(ncols):
            if cost[jcol] > _TOL:
                enter = jcol
                break
        if enter < 0:
            return "optimal"
        col = T[:m, enter]
        best = -1
        best_ratio = math.inf
        for r in range(m):
            if col[r] > _TOL:
                ratio = T[r, -1] / col[r]
                if ratio < best_ratio - _TOL or \
                        (ratio < best_ratio + _TOL and
                         (best < 0 or basis[r] < basis[best])):
                    best = r
                    best_ratio = ratio
        if best < 0:
            return "unbounded"
        _pivot(T, basis, best, enter)


def simplex_solve(lp):
    """Solve a LinearProgram; returns LpResult.

    Every row gets an artificial column, so the tableau is
    [A | I | b] with the artificials basic.  Phase 1 drives them out;
    a positive phase-1 optimum means infeasible.  Phase 2 then
    optimizes the objective, reporting unbounded when no leaving row
    exists.
    """
    A = lp.A.copy()
    b = lp.b.copy()
    m, n = A.shape

    # normalize to nonnegative rhs
    for r in range(m):
        if b[r] < 0:
            A[r] = -A[r]
            b[r] = -b[r]

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))

    # phase 1: maximize -(sum of artificials)
    for r in range(m):
        T[-1] += T[r]
    T[-1, n:n + m] = 0.0
    status = _bland_iterate(T, basis, n + m)
    if status != "optimal" or T[-1, -1] > 1e-7 * max(1.0, abs(b).max()):
        return LpResult(status="infeasible")
    # drive lingering artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            for jcol in range(n):
                if abs(T[r, jcol]) > _TOL:
                    _pivot(T, basis, r, jcol)
                    break
    T[:, n:n + m] = 0.0

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = lp.objective
    for r in range(m):
        col = basis[r]
        if T[-1, col] != 0.0:
            T[-1] -= T[-1, col] * T[r]
    status = _bland_iterate(T, basis, n)
    if status == "unbounded":
        return LpResult(status="unbounded")
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    value = float(lp.objective @ x)
    return LpResult(status="optimal", x=x, objective=value)


def _prepare_cloud(points, x, center):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    x = np.asarray(x, dtype=float).ravel()
    if center is None:
        center = points.mean(axis=0)
    else:
        center = np.asarray(center, dtype=float).ravel()
    if points.shape[1] != x.size or center.size != x.size:
        raise DataError("point cloud, query and center dimensions disagree")
    return points, x, center


def boundary_multiplier(points, x, center=None):
    """The exact multiplier gamma putting center + gamma (x - center)
    on the hull boundary.

    gamma >= 1 iff x is in the hull; +inf when x equals the center; 0
    when even the center is outside the hull (degenerate input).  One
    LP: maximize t subject to center + t (x - center) being a convex
    combination of the points.
    """
    points, x, center = _prepare_cloud(points, x, center)
    S, p = points.shape
    d = x - center
    if float(np.abs(d).max()) < 1e-14 * max(1.0, float(np.abs(x).max())):
        return math.inf
    # columns: [t, lambda_1 .. lambda_S]
    A = np.zeros((p + 1, S + 1))
    A[:p, 0] = -d
    A[:p, 1:] = points.T
    A[p, 1:] = 1.0
    b = np.concatenate([center, [1.0]])
    obj = np.zeros(S + 1)
    obj[0] = 1.0
    res = simplex_solve(LinearProgram(obj, A, b))
    if res.status == "unbounded":
        return math.inf
    if res.status == "infeasible":
        return 0.0
    return float(res.x[0])


def in_hull(points, x, center=None):
    """Membership via the boundary multiplier, with a boundary band."""
    return boundary_multiplier(points, x, center) >= 1.0 - _BOUNDARY_BAND


# depth of the likelihood update's target inside the hull, as a fraction
# of the boundary distance; the hummel stopping rule reads it too
_DEPTH = 0.95


def _pull_inside(x, center, gamma):
    """x pulled toward center to _DEPTH of the boundary distance, given
    its boundary multiplier gamma; unchanged when gamma is at least
    1/_DEPTH."""
    if gamma >= (1.0 / _DEPTH) * (1.0 - 1e-9):
        return x.copy()
    return center + _DEPTH * gamma * (x - center)


def scale_into_hull(points, x, center=None):
    """Pull x toward the cloud center until it sits _DEPTH-deep inside.

    Points with multiplier at least 1/_DEPTH are returned unchanged;
    otherwise the scaled point lands exactly at _DEPTH of the boundary
    distance, strictly inside the hull.  Idempotent.
    """
    points, x, center = _prepare_cloud(points, x, center)
    return _pull_inside(x, center, boundary_multiplier(points, x, center))
