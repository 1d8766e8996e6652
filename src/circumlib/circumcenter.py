"""Circumcenter of a finite point set.

The circumcenter of ``K = {x_1, ..., x_m}`` is the unique point of the affine
hull of ``K`` equidistant from every point of ``K``, when such a point exists.
Existence is decided by verification: the candidate solved from the triangular
factor of one pivoted Gram-Schmidt pass over the differences (the only rank
decision) is checked for equidistance against every point of the set.  This
is not the Chebyshev center / smallest enclosing ball, which always exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DUP_TOL, EQ_TOL, RANK_TOL, _check_same_dim, _dot, _norms, _pick,
                       _pivoted_gram_schmidt, _substitute, as_vector, orthonormal_basis)

__all__ = [
    "PointSet",
    "CircumcenterOutcome",
    "circumcenter",
    "circumcenter_three",
    "circumcenter_oracle",
]


class PointSet:
    """Finite set of pairwise distinct points of R^n.

    Construction merges points closer than ``DUP_TOL`` times the family scale,
    keeping the first representative (set semantics: operator images that
    coincide count once).  The rule is the circumcenter kernel's own dedup
    step.
    """

    def __init__(self, points):
        pts = [as_vector(p) for p in points]
        if not pts:
            raise ValueError("a point set must contain at least one point")
        _check_same_dim(pts)
        P = np.array(pts)
        self.points = P[_dedup(P[..., None])[0][:, 0]]

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
    point; ``radius`` is the mean distance to the input points.
    ``basis_indices`` names the anchor and the pivot subfamily of the
    differences to it.  A nonexistent circumcenter from :func:`circumcenter`
    keeps them too, so ``len(basis_indices)`` is one more than the rank of the
    differences either way.
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


def circumcenter(K: PointSet) -> CircumcenterOutcome:
    """Circumcenter of ``K``: the N = 1 case of :func:`_exists_rows`, on the
    points that :class:`PointSet` kept, without deduplicating them again.

    Verification failure means the circumcenter does not exist, which is
    reported as a value, not raised.
    """
    P = K.points[..., None]
    # K is deduplicated already, so every point is kept.
    keep = np.ones((len(K), 1), dtype=bool)
    exists, center, radius, _, pivots = _circumcenters(P, keep, _pair_distances(P))
    indices = [int(i) for i in pivots[:, 0] if i >= 0]
    if not exists[0]:
        return CircumcenterOutcome.not_found(indices)
    return CircumcenterOutcome.found(center[:, 0], radius[0], indices)


@functools.lru_cache
def _pairs(m: int):
    """Every pair (j, i < j) of m points once, grouped by j, as the index
    arrays ``(later, earlier)``."""
    later = np.array([j for j in range(m) for _ in range(j)], dtype=int)
    earlier = np.array([i for j in range(m) for i in range(j)], dtype=int)
    later.flags.writeable = earlier.flags.writeable = False
    return later, earlier


def _pair_distances(P):
    """The distances of the pairs of :func:`_pairs` in the point sets ``P``
    (m, n, N), stacked rows-last."""
    later, earlier = _pairs(len(P))
    return _norms(P[later] - P[earlier])


def _dedup(P):
    """``(keep, dist)`` for the point sets ``P`` (m, n, N), stacked rows-last:
    ``keep`` (m, N) marks the points :class:`PointSet` keeps, and ``dist``
    holds the distances of the pairs of :func:`_pairs`.  A point is dropped
    when it lies within ``DUP_TOL * max(|p|, 1)`` (the largest point norm of
    its set) of an earlier kept point."""
    m, _, N = P.shape
    dup_threshold = DUP_TOL * np.maximum(_norms(P).max(axis=0), 1.0)
    dist = _pair_distances(P)
    close = dist <= dup_threshold
    keep = np.ones((m, N), dtype=bool)
    if close.any():
        for k in range(1, m):
            pairs = slice(k * (k - 1) // 2, k * (k + 1) // 2)
            keep[k] = ~(keep[:k] & close[pairs]).any(axis=0)
    return keep, dist


def _exists_rows(P):
    """The circumcenter of every point set of ``P`` (m, n, N), stacked
    rows-last, as array operations over the trailing row axis, looping over
    points and pivot steps, not rows.

    Returns ``(exists, center, radius, card, pivots)``: ``center`` (n, N) is
    the verified candidate, meaningful where ``exists`` holds; ``radius`` its
    mean distance to the kept points and ``card`` their number; ``pivots``
    (2 + steps, N) the anchor, the other point of a pair, then each step's
    accepted point, -1 where there is none.

    Points are deduplicated by :func:`_dedup`; the non-kept ones get zero
    differences and take no part in the pivot search or the equidistance
    check.  One kept point is its own center and two give their midpoint,
    which always exists.  Otherwise the differences ``d_i = x_i - x_a`` are
    taken to the anchor ``x_a``, the earlier point of the closest kept pair
    (the first such pair of :func:`_pairs` on ties), so that the short
    differences of a tight cluster far from the other points are exact.
    The rank rule, :func:`geometry._pivoted_gram_schmidt` with threshold
    ``RANK_TOL`` times the largest difference norm, makes the only rank
    decision.  In pivot order ``R = D Q^T`` is lower triangular, and the
    candidate

        c = x_a + Q^T a,   R a = 1/2 (|d_1|^2, ..., |d_t|^2),

    found by forward substitution, exists when its distances to the kept
    points deviate from their mean by at most ``EQ_TOL * (1 + radius)``.
    The rows of an m = 3 stack with three kept points take the same steps in
    :func:`_pivot_three`, on the anchor's two differences instead of the
    masked stack.  Each row's answer depends on that row alone, so a batch
    row equals its own N = 1 call exactly.
    """
    return _circumcenters(P, *_dedup(P))


def _circumcenters(P, keep, dist):
    """:func:`_exists_rows` on the kept points ``keep`` (m, N) of ``P``,
    given the distances ``dist`` of the pairs of :func:`_pairs`."""
    m, _, N = P.shape
    card = keep.sum(axis=0)
    rows = np.arange(N)
    if m > 1:
        later, earlier = _pairs(m)
        closest = np.where(keep[later] & keep[earlier], dist, np.inf).argmin(axis=0)
        first, second = earlier[closest], later[closest]
    else:
        first = second = np.zeros(N, dtype=int)
    if m == 3:
        # The closest pair is (0, 1), (0, 2) or (1, 2): its points are selects.
        pair01 = closest == 0
        x1 = np.where(closest == 2, P[1], P[0])
        x2 = np.where(pair01, P[1], P[2])
    else:
        x1, x2 = _pick(P, first, rows), _pick(P, second, rows)
    two = card == 2
    center = np.where(two, 0.5 * (x1 + x2), x1)
    pivots = [first, np.where(two, second, -1)]
    # Rows of one or two kept points need no pivot search.
    active = card > 2
    searched = active.any()
    if searched:
        if m == 3:
            x3 = np.where(pair01, P[2], np.where(closest == 1, P[1], P[0]))
            uv = np.empty((2, *x1.shape))
            np.subtract(x2, x1, out=uv[0])
            np.subtract(x3, x1, out=uv[1])
            offset, steps = _pivot_three(uv, second, 3 - first - second, active)
        else:
            remaining = keep & active
            remaining[first, rows] = False
            offset, steps = _pivot_search(P - x1, remaining)
        center = np.where(active, x1 + offset, center)
        pivots += steps
    dists = _norms(P - center)
    # Summed point by point, in order, like the compacted set's sum.
    radius = _sum_points(dists * keep) / card
    # One or two kept points always have a circumcenter.
    exists = np.ones(N, dtype=bool)
    if searched:
        deviation = (np.abs(dists - radius) * keep).max(axis=0)
        exists = (card <= 2) | (deviation <= EQ_TOL * (1.0 + radius))
    return exists, center, radius, card, np.array(pivots)


def _sum_points(A):
    """``A`` (m, N) summed over its point axis in order; like :func:`_dot`,
    one accumulate at small N and a loop along the contiguous rows above."""
    if A.shape[-1] <= 16:
        return np.add.accumulate(A, axis=0)[-1]
    out = A[0].copy()
    for a in A[1:]:
        out += a
    return out


def _pivot_search(D, remaining):
    """The offset ``Q^T a`` of the candidate from the anchor, and each step's
    accepted point (-1 where there is none), for the differences ``D``
    (m, n, N) of the ``remaining`` (m, N) points: the rank rule's steps, then
    forward substitution on them.  ``remaining`` is updated in place."""
    D = D * remaining[:, None]
    Q, steps, picked = _pivoted_gram_schmidt(D, RANK_TOL * _norms(D).max(axis=0), remaining)
    return _substitute(Q, steps, picked, [0.5 * _dot(d, d) for d in picked]), steps


def _pivot_three(uv, iu, iv, active):
    """:func:`_pivot_search` for m = 3, on the differences ``uv`` (2, n, N)
    of the non-anchor points ``iu`` and ``iv`` instead of the masked
    (3, n, N) stack.  It runs the general loop's operations in its order, so
    the offset and the steps are the same bits; the pivot is a select, and
    the second step can only take the other point."""
    u, v = uv
    uu, vv = squares = _dot(uv, uv)
    nu, nv = np.sqrt(squares)
    nd = np.maximum(nu, nv)
    threshold = RANK_TOL * nd
    # The longer difference first, the lower point index on ties.  A tie
    # means the anchor's pairs with iu and iv are equally close, so the
    # closest pair is the earlier of the two and iu < iv: u wins.
    take_u = nu >= nv
    d, e = np.where(take_u, u, v), np.where(take_u, v, u)
    # d is its own residual, so the second pass changes nothing and the step
    # accepts exactly the rows that stay active.
    active = active & (nd > threshold)
    if not active.any():
        return 0, []
    q0 = np.where(active, d / np.where(active, nd, 1.0), 0.0)
    Q, steps = [q0], [np.where(active, np.where(take_u, iu, iv), -1)]
    r = e - _dot(e, q0) * q0
    active = active & (_norms(r) > threshold)
    if active.any():
        q = r - _dot(r, q0) * q0
        nq = _norms(q)
        accept = active & (nq > threshold)
        Q.append(np.where(accept, q / np.where(accept, nq, 1.0), 0.0))
        steps.append(np.where(accept, np.where(take_u, iv, iu), -1))
    rhs = 0.5 * np.where(take_u, uu, vv), 0.5 * np.where(take_u, vv, uu)
    return _substitute(Q, steps, (d, e), rhs), steps


def circumcenter_three(x, y, z) -> CircumcenterOutcome:
    """Closed-form circumcenter of three pairwise distinct points.

    Exists exactly when the three points are affinely independent, in which
    case it is the weighted combination

        [ |y-z|^2 <x-z, x-y> x + |x-z|^2 <y-z, y-x> y + |x-y|^2 <z-x, z-y> z ]
        / ( 2 (|y-x|^2 |z-x|^2 - <y-x, z-x>^2) ).
    """
    x, y, z = as_vector(x), as_vector(y), as_vector(z)
    _check_same_dim((x, y, z))
    if not _dedup(np.array([x, y, z])[..., None])[0].all():
        raise ValueError("points must be pairwise distinct")
    if len(orthonormal_basis([y - x, z - x])[0]) < 2:
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


def circumcenter_oracle(K: PointSet) -> CircumcenterOutcome:
    """Independent brute-force circumcenter check.

    Takes an orthonormal basis ``B`` of the affine hull's directions from
    numpy's SVD of the differences ``x_j - x_1`` (the singular directions
    above ``RANK_TOL`` times the largest singular value), parametrizes
    ``p = x_1 + B^T lambda``, imposes every linear equidistance condition
    ``2 <p, x_j - x_1> = |x_j|^2 - |x_1|^2`` by least squares, and accepts
    only when every equation's residual is at most ``EQ_TOL`` times the
    squared data scale.  It shares no code with :func:`circumcenter`: neither
    the rank rule (SVD against pivoted Gram-Schmidt) nor the solve (least
    squares against forward substitution).
    """
    pts = K.points
    if len(pts) == 1:
        return CircumcenterOutcome.found(pts[0], 0.0, (0,))
    x1 = pts[0]
    D = pts[1:] - x1
    _, sv, Vt = np.linalg.svd(D, full_matrices=False)
    B = Vt[sv > RANK_TOL * sv[0]]
    A = 2.0 * D @ B.T
    rhs = np.array([np.dot(xj, xj) - np.dot(x1, x1) - 2.0 * np.dot(x1, d)
                    for xj, d in zip(pts[1:], D)])
    coeff, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    center = x1 + B.T @ coeff

    scale = 1.0 + max(np.linalg.norm(p) for p in pts)
    if np.abs(A @ coeff - rhs).max() > EQ_TOL * scale**2:
        return CircumcenterOutcome.not_found()
    dists = np.linalg.norm(pts - center, axis=1)
    return CircumcenterOutcome.found(center, float(dists.mean()), tuple(range(len(pts))))
