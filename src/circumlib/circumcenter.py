"""Circumcenter of a finite point set.

The circumcenter of ``K = {x_1, ..., x_m}`` is the unique point of the affine
hull of ``K`` equidistant from every point of ``K``, when such a point exists.
Existence is decided by verification: the candidate solved from the triangular
factor of one pivoted Gram-Schmidt pass over the differences (the only rank
decision) is checked for equidistance against every point of the set.  This
is not the Chebyshev center / smallest enclosing ball, which always exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    Tolerances,
    affine_hull_basis,
    as_vector,
    orthonormal_basis,
)

__all__ = [
    "PointSet",
    "CircumcenterOutcome",
    "circumcenter",
    "circumcenter_three",
    "circumcenter_oracle",
]


class PointSet:
    """Finite set of pairwise distinct points of R^n.

    Construction merges points closer than ``dup_tol`` times the family scale,
    keeping the first representative (set semantics: operator images that
    coincide count once).
    """

    def __init__(self, points, tol: Tolerances = DEFAULT_TOL):
        pts = [as_vector(p) for p in points]
        if not pts:
            raise ValueError("a point set must contain at least one point")
        dims = {len(p) for p in pts}
        if len(dims) > 1:
            raise ValueError(f"mixed point dimensions: {sorted(dims)}")
        scale = max(max(np.linalg.norm(p) for p in pts), 1.0)
        merged: list[np.ndarray] = []
        for p in pts:
            if all(np.linalg.norm(p - q) > tol.dup_tol * scale for q in merged):
                merged.append(p)
        self.points = np.array(merged)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class CircumcenterOutcome:
    """Existence-aware result of a circumcenter computation.

    When ``exists`` is true, ``center`` lies in the affine hull of the input
    and is equidistant (within the verification tolerance) from every input
    point; ``radius`` is the mean distance to the pivot subfamily and
    ``basis_indices`` names that subfamily.  A nonexistent circumcenter from
    :func:`circumcenter` keeps the pivot indices, so ``len(basis_indices)`` is
    one more than the rank of the differences either way.
    """

    exists: bool
    center: np.ndarray | None = None
    radius: float | None = None
    basis_indices: tuple[int, ...] = field(default=())

    @staticmethod
    def not_found(basis_indices=()) -> "CircumcenterOutcome":
        return CircumcenterOutcome(exists=False, basis_indices=tuple(basis_indices))

    @staticmethod
    def found(center, radius, basis_indices) -> "CircumcenterOutcome":
        return CircumcenterOutcome(True, as_vector(center), float(radius), tuple(basis_indices))


def _equidistance(points, center, tol: Tolerances):
    """Mean distance from ``center`` to ``points``, the largest deviation from
    it, and the deviation threshold ``eq_tol * (1 + radius)``.  Broadcasts
    over leading axes: ``points`` (..., m, n) against ``center`` (..., n).
    """
    dists = np.linalg.norm(points - center[..., None, :], axis=-1)
    radius = dists.mean(axis=-1)
    deviation = np.abs(dists - radius[..., None]).max(axis=-1)
    return radius, deviation, tol.eq_tol * (1.0 + radius)


def _forward_substitute(R, rhs):
    """Solve ``R a = rhs`` for lower-triangular ``R``, over leading axes."""
    a = np.zeros_like(rhs)
    for i in range(rhs.shape[-1]):
        partial = np.einsum("...k,...k->...", R[..., i, :i], a[..., :i])
        a[..., i] = (rhs[..., i] - partial) / R[..., i, i]
    return a


def circumcenter(K: PointSet, tol: Tolerances = DEFAULT_TOL) -> CircumcenterOutcome:
    """Circumcenter of ``K`` from the Gram-Schmidt factor of its differences.

    Singletons are their own circumcenter, pairs give the midpoint.  For
    larger sets column-pivoted Gram-Schmidt (:func:`orthonormal_basis`) over
    the differences ``d_i = x_i - x_1`` selects a maximal independent
    subfamily ``D`` and an orthonormal basis ``Q`` of its span; this is the
    only rank decision.  In pivot order ``R = D Q^T`` is lower triangular, and
    the candidate

        c = x_1 + Q^T a,   R a = 1/2 (|d_1|^2, ..., |d_t|^2),

    found by forward substitution, is then verified for equidistance against
    every point of ``K``.  Verification failure means the circumcenter does
    not exist, which is reported as a value, not raised.
    """
    pts = K.points
    m = len(pts)
    if m == 1:
        return CircumcenterOutcome.found(pts[0], 0.0, (0,))
    if m == 2:
        mid = 0.5 * (pts[0] + pts[1])
        return CircumcenterOutcome.found(mid, np.linalg.norm(pts[1] - pts[0]) / 2.0, (0, 1))

    x1 = pts[0]
    diffs = pts[1:] - x1
    basis, pivots = orthonormal_basis(diffs, tol)
    if not pivots:
        # All points collapsed onto x1 beyond dup_tol would have been merged;
        # reaching here means numerically zero spread.
        return CircumcenterOutcome.found(x1, 0.0, (0,))
    D = diffs[pivots]
    Q = np.array(basis)
    a = _forward_substitute(D @ Q.T, 0.5 * np.einsum("ij,ij->i", D, D))
    center = x1 + Q.T @ a

    indices = (0, *[i + 1 for i in pivots])
    radius = _equidistance(pts[list(indices)], center, tol)[0]
    _, deviation, threshold = _equidistance(pts, center, tol)
    if deviation > threshold:
        return CircumcenterOutcome.not_found(indices)
    return CircumcenterOutcome.found(center, radius, indices)


# A batched decision whose deciding quantity lies within this factor of its
# threshold is left to the scalar path: rounding differences between the two
# can only flip a decision that close.
SETTLE_FACTOR = 1e3


def _near(value, threshold):
    return (value > threshold / SETTLE_FACTOR) & (value < threshold * SETTLE_FACTOR)


def _exists_rows(P, tol: Tolerances):
    """Whether ``circumcenter(PointSet(P[r]))`` exists, and its center, for
    every row r of the stacked point sets ``P`` (N, m, n).

    Applies the rules of :class:`PointSet`, :func:`orthonormal_basis` and
    :func:`circumcenter` with their thresholds and scales as array operations,
    looping over points and pivot steps, not rows.  Returns ``(exists, center,
    settled)``; ``center`` (N, n) holds the verified candidate, meaningful
    where ``exists`` holds.  A row is unsettled when a duplicate distance, a
    residual norm or the equidistance deviation lies within
    :data:`SETTLE_FACTOR` of its threshold, or when the scalar path would drop
    a pivot candidate after reorthogonalization.  Only settled rows' answers
    are final.
    """
    N, m, _ = P.shape
    dup_threshold = tol.dup_tol * np.maximum(np.linalg.norm(P, axis=-1).max(axis=-1), 1.0)
    keep = np.ones((N, m), dtype=bool)
    unsettled = np.zeros(N, dtype=bool)
    for j in range(1, m):
        dist = np.linalg.norm(P[:, j, None, :] - P[:, :j], axis=-1)
        kept_before = keep[:, :j]
        keep[:, j] = np.all(~kept_before | (dist > dup_threshold[:, None]), axis=1)
        unsettled |= np.any(kept_before & _near(dist, dup_threshold[:, None]), axis=1)
    card = keep.sum(axis=1)
    exists = card <= 2
    # Kept points first, in their original order.
    P = np.take_along_axis(P, np.argsort(~keep, axis=1, kind="stable")[..., None], axis=1)
    # A singleton is its own center and a pair has its midpoint, as in
    # circumcenter; with m = 1 no row is a pair and the index only stays in range.
    center = np.where((card == 2)[:, None], 0.5 * (P[:, 0] + P[:, min(m, 2) - 1]), P[:, 0])
    for c in np.unique(card[card >= 3]):
        rows = np.flatnonzero(card == c)
        exists[rows], center[rows], unsure = _exists_distinct(P[rows, :c], tol)
        unsettled[rows] |= unsure
    return exists, center, ~unsettled


def _exists_distinct(P, tol: Tolerances):
    """``(exists, center, unsettled)`` of :func:`_exists_rows` for sets
    (G, c, n) of c >= 3 distinct points."""
    G, c, _ = P.shape
    s = c - 1
    rows = np.arange(G)
    x1 = P[:, 0]
    D = P[:, 1:] - x1[:, None]
    threshold = tol.rank_tol * np.linalg.norm(D, axis=-1).max(axis=-1)
    residuals = D.copy()
    Q = np.zeros_like(D)
    pivots = np.zeros((G, s), dtype=int)
    accepted = np.zeros((G, s), dtype=bool)
    remaining = np.ones((G, s), dtype=bool)
    active = np.ones(G, dtype=bool)
    unsettled = np.zeros(G, dtype=bool)
    for k in range(s):
        norms = np.where(remaining, np.linalg.norm(residuals, axis=-1), -1.0)
        best = norms.argmax(axis=1)
        top = norms[rows, best]
        q = residuals[rows, best]
        for b in np.moveaxis(Q[:, :k], 1, 0):
            q = q - np.einsum("gn,gn->g", q, b)[:, None] * b
        nq = np.linalg.norm(q, axis=-1)
        taken = top > threshold
        unsettled |= active & (_near(top, threshold) | (taken & (nq < threshold * SETTLE_FACTOR)))
        active &= taken & (nq > threshold)
        q = np.where(active[:, None], q / np.where(active, nq, 1.0)[:, None], 0.0)
        Q[:, k] = q
        pivots[:, k] = best
        accepted[:, k] = active
        remaining[rows, best] = False
        residuals = residuals - np.einsum("gsn,gn->gs", residuals, q)[..., None] * q[:, None, :]
    # Steps past a row's rank get the equation a_k = 0; their basis rows are 0.
    Dp = D[rows[:, None], pivots]
    R = np.where(accepted[..., None], np.einsum("gin,gkn->gik", Dp, Q), np.eye(s))
    rhs = np.where(accepted, 0.5 * np.einsum("gin,gin->gi", Dp, Dp), 0.0)
    center = x1 + np.einsum("gk,gkn->gn", _forward_substitute(R, rhs), Q)
    _, deviation, eq_threshold = _equidistance(P, center, tol)
    return deviation <= eq_threshold, center, unsettled | _near(deviation, eq_threshold)


def circumcenter_three(x, y, z, tol: Tolerances = DEFAULT_TOL) -> CircumcenterOutcome:
    """Closed-form circumcenter of three pairwise distinct points.

    Exists exactly when the three points are affinely independent, in which
    case it is the weighted combination

        [ |y-z|^2 <x-z, x-y> x + |x-z|^2 <y-z, y-x> y + |x-y|^2 <z-x, z-y> z ]
        / ( 2 (|y-x|^2 |z-x|^2 - <y-x, z-x>^2) ).
    """
    x, y, z = as_vector(x), as_vector(y), as_vector(z)
    scale = max(np.linalg.norm(x), np.linalg.norm(y), np.linalg.norm(z), 1.0)
    if (
        np.linalg.norm(x - y) <= tol.dup_tol * scale
        or np.linalg.norm(x - z) <= tol.dup_tol * scale
        or np.linalg.norm(y - z) <= tol.dup_tol * scale
    ):
        raise ValueError("points must be pairwise distinct")
    if len(orthonormal_basis([y - x, z - x], tol)[0]) < 2:
        return CircumcenterOutcome.not_found()

    a2 = np.dot(y - z, y - z)
    b2 = np.dot(x - z, x - z)
    c2 = np.dot(x - y, x - y)
    wx = a2 * np.dot(x - z, x - y)
    wy = b2 * np.dot(y - z, y - x)
    wz = c2 * np.dot(z - x, z - y)
    denom = 2.0 * (np.dot(y - x, y - x) * np.dot(z - x, z - x) - np.dot(y - x, z - x) ** 2)
    center = (wx * x + wy * y + wz * z) / denom
    radius = float(np.mean([np.linalg.norm(center - p) for p in (x, y, z)]))
    return CircumcenterOutcome.found(center, radius, (0, 1, 2))


def circumcenter_oracle(K: PointSet, tol: Tolerances = DEFAULT_TOL) -> CircumcenterOutcome:
    """Independent brute-force circumcenter check.

    Parametrizes ``p = anchor + B lambda`` over the affine hull, imposes every
    linear equidistance condition ``2 <p, x_j - x_1> = |x_j|^2 - |x_1|^2`` by
    least squares, and accepts only when every equation's residual is at most
    ``eq_tol`` times the squared data scale.  Shares no solve path with
    :func:`circumcenter` (SVD least squares vs a pivoted Gram-Schmidt factor).
    """
    pts = K.points
    if len(pts) == 1:
        return CircumcenterOutcome.found(pts[0], 0.0, (0,))
    anchor, basis = affine_hull_basis(pts, tol)
    x1 = pts[0]
    rows = []
    rhs = []
    for xj in pts[1:]:
        d = xj - x1
        rows.append(2.0 * np.array([np.dot(b, d) for b in basis]))
        rhs.append(np.dot(xj, xj) - np.dot(x1, x1) - 2.0 * np.dot(anchor, d))
    A = np.array(rows).reshape(len(rhs), len(basis))
    rhs = np.array(rhs)
    if len(basis) == 0:
        coeff = np.zeros(0)
    else:
        coeff, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    center = anchor + (np.array(basis).T @ coeff if len(basis) else 0.0)

    scale = 1.0 + max(np.linalg.norm(p) for p in pts)
    residuals = np.abs(A @ coeff - rhs) if len(rhs) else np.zeros(0)
    if residuals.size and residuals.max() > tol.eq_tol * scale**2:
        return CircumcenterOutcome.not_found()
    dists = np.linalg.norm(pts - center, axis=1)
    return CircumcenterOutcome.found(center, float(dists.mean()), tuple(range(len(pts))))
