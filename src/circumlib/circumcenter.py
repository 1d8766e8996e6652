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
    over trailing axes: ``points`` (m, n, ...) against ``center`` (n, ...).
    """
    dists = np.linalg.norm(points - center, axis=1)
    radius = dists.mean(axis=0)
    deviation = np.abs(dists - radius).max(axis=0)
    return radius, deviation, tol.eq_tol * (1.0 + radius)


def _forward_substitute(R, rhs):
    """Solve ``R a = rhs`` for lower-triangular ``R``."""
    a = np.zeros_like(rhs)
    for i in range(len(rhs)):
        a[i] = (rhs[i] - np.einsum("k,k->", R[i, :i], a[:i])) / R[i, i]
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


def _dot(u, v):
    """Inner products of rows-last arrays (..., n, N) over their coordinate
    axis, accumulated one coordinate at a time."""
    out = u[..., 0, :] * v[..., 0, :]
    for k in range(1, u.shape[-2]):
        out += u[..., k, :] * v[..., k, :]
    return out


def _norms(v):
    """Euclidean norms of rows-last arrays (..., n, N)."""
    return np.sqrt(_dot(v, v))


def _exists_rows(P, tol: Tolerances):
    """Whether ``circumcenter(PointSet(P[..., r]))`` exists, and its center,
    for every row r of the point sets ``P`` (m, n, N), stacked rows-last.

    Applies the rules of :class:`PointSet`, :func:`orthonormal_basis` and
    :func:`circumcenter` with their thresholds and scales as array operations
    over the trailing row axis, looping over points and pivot steps, not rows.
    Returns ``(exists, center, settled)``; ``center`` (n, N) holds the verified
    candidate, meaningful where ``exists`` holds.  A row is unsettled when a
    duplicate distance, a residual norm or the equidistance deviation lies
    within :data:`SETTLE_FACTOR` of its threshold, or when the scalar path
    would drop a pivot candidate after reorthogonalization.  Only settled
    rows' answers are final.
    """
    m, _, N = P.shape
    dup_threshold = tol.dup_tol * np.maximum(_norms(P).max(axis=0), 1.0)
    # Every pair (j, i < j) once, grouped by j.
    later = [j for j in range(m) for _ in range(j)]
    earlier = [i for j in range(m) for i in range(j)]
    dist = _norms(P[later] - P[earlier])
    close = dist <= dup_threshold
    near = _near(dist, dup_threshold)
    keep = np.ones((m, N), dtype=bool)
    unsettled = np.zeros(N, dtype=bool)
    for k in range(1, m):
        pairs = slice(k * (k - 1) // 2, k * (k + 1) // 2)
        keep[k] = ~(keep[:k] & close[pairs]).any(axis=0)
        unsettled |= (keep[:k] & near[pairs]).any(axis=0)
    card = keep.sum(axis=0)
    exists = card <= 2
    # A singleton is its own center, as in circumcenter.
    center = P[0].copy()
    for c, count in enumerate(np.bincount(card, minlength=m + 1)):
        if c < 2 or not count:
            continue
        # A cardinality that every row shares is handled without a copy.
        rows = slice(None) if count == N else np.flatnonzero(card == c)
        sets = P[..., rows]
        if c < m:
            # Kept points first, in their original order.
            order = np.argsort(~keep[:, rows], axis=0, kind="stable")[:c]
            sets = np.take_along_axis(sets, order[:, None], axis=0)
        if c == 2:
            center[:, rows] = 0.5 * (sets[0] + sets[1])
        else:
            exists[rows], center[:, rows], unsure = _exists_distinct(sets, tol)
            unsettled[rows] |= unsure
    return exists, center, ~unsettled


def _exists_distinct(P, tol: Tolerances):
    """``(exists, center, unsettled)`` of :func:`_exists_rows` for sets
    (c, n, G) of c >= 3 distinct points, stacked rows-last."""
    s = len(P) - 1
    x1 = P[0]
    D = P[1:] - x1
    norms = _norms(D)
    threshold = tol.rank_tol * norms.max(axis=0)
    residuals = D
    remaining = np.ones(norms.shape, dtype=bool)
    active = np.ones(threshold.shape, dtype=bool)
    unsettled = np.zeros(threshold.shape, dtype=bool)
    Q, Dp, accepted = [], [], []
    for k in range(s):
        if k:
            norms = _norms(residuals)
        norms = np.where(remaining, norms, -1.0)
        # The remaining difference with the largest residual norm, the lowest
        # index on ties: its residual q and the difference d itself.
        best, top, q, d = 0, norms[0], residuals[0], D[0]
        for i in range(1, s):
            better = norms[i] > top
            best = np.where(better, i, best)
            top = np.where(better, norms[i], top)
            q = np.where(better, residuals[i], q)
            d = np.where(better, D[i], d)
        for b in Q:
            q = q - _dot(q, b) * b
        nq = _norms(q)
        taken = top > threshold
        unsettled |= active & (_near(top, threshold) | (taken & (nq < threshold * SETTLE_FACTOR)))
        active = active & taken & (nq > threshold)
        if not active.any():
            # Every row has reached its rank; later steps change nothing.
            break
        q = np.where(active, q / np.where(active, nq, 1.0), 0.0)
        Q.append(q)
        Dp.append(d)
        accepted.append(active)
        if k < s - 1:
            remaining = remaining & (np.arange(s)[:, None] != best)
            residuals = residuals - _dot(residuals, q)[:, None] * q
    # Forward substitution R a = rhs with R[i, k] = <Dp[i], Q[k]>, over the
    # accepted pivots; a row's steps past its rank keep a = 0.
    a = []
    for d, q, acc in zip(Dp, Q, accepted):
        rhs = 0.5 * _dot(d, d) - sum(_dot(d, b) * ak for b, ak in zip(Q, a))
        a.append(np.where(acc, rhs / np.where(acc, _dot(d, q), 1.0), 0.0))
    center = x1 + sum(ak * q for ak, q in zip(a, Q))
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
