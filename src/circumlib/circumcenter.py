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

from .geometry import (DUP_TOL, EQ_TOL, RANK_TOL, _check_same_dim, affine_hull_basis, as_vector,
                       orthonormal_basis)

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


def _dot(u, v):
    """Inner products of rows-last arrays (..., n, N) over their coordinate
    axis, accumulated one coordinate at a time.  Both evaluations below sum in
    that order, so they agree bit for bit.  One accumulate costs fewer calls
    than the loop, but its inner loop runs along the strided coordinate axis.
    With :func:`_sum_points` switched the same way, on a 2-vCPU x86_64 VM
    (``BENCH_20.json``, ``cutoff_3_points_us``) the accumulate form made the
    three-point kernel faster at every N <= 32 measured (99 against 116 us at
    N = 1 for n = 2, 99 against 134 us for n = 3), and the loop was faster
    from N = 64 for n = 2 and N = 128 for n = 3."""
    if u.shape[-1] <= 16:
        return np.add.accumulate(u * v, axis=-2)[..., -1, :]
    out = u[..., 0, :] * v[..., 0, :]
    for k in range(1, u.shape[-2]):
        out += u[..., k, :] * v[..., k, :]
    return out


def _norms(v):
    """Euclidean norms of rows-last arrays (..., n, N)."""
    return np.sqrt(_dot(v, v))


def _pick(A, i, rows):
    """``A[i[r], :, r]`` for every row r of ``A`` (m, n, N), as (n, N) in C
    order, so that later steps run along the contiguous row axis."""
    return np.ascontiguousarray(A[i, :, rows].T)


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
    Column-pivoted Gram-Schmidt with one reorthogonalization pass makes the
    only rank decision: each step takes the remaining difference with the
    largest residual norm (the lowest index on ties); a residual norm at most
    ``RANK_TOL`` times the largest difference norm ends the row, and a
    candidate whose reorthogonalized norm is at most that is dropped while
    the search goes on.  In pivot order ``R = D Q^T`` is lower triangular,
    and the candidate

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
        x1 = np.where(closest == 2, P[1], P[0])
        x2 = np.where(closest == 0, P[1], P[2])
    else:
        x1, x2 = _pick(P, first, rows), _pick(P, second, rows)
    center = np.where(card == 2, 0.5 * (x1 + x2), x1)
    pivots = [first, np.where(card == 2, second, -1)]
    # Rows of one or two kept points need no pivot search.
    active = card > 2
    searched = active.any()
    if searched:
        if m == 3:
            x3 = np.where(closest == 0, P[2], np.where(closest == 1, P[1], P[0]))
            offset, steps = _pivot_three(x2 - x1, x3 - x1, second, 3 - first - second, active)
        else:
            remaining = keep.copy()
            remaining[first, rows] = False
            offset, steps = _pivot_search(P - x1, remaining, active)
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


def _pivot_search(D, remaining, active):
    """The offset ``Q^T a`` of the candidate from the anchor, and each step's
    accepted point (-1 where there is none), for the differences ``D``
    (m, n, N) of the ``remaining`` (m, N) points on the ``active`` rows;
    ``remaining`` is updated in place."""
    m, _, N = D.shape
    rows = np.arange(N)
    D = D * remaining[:, None]
    norms = _norms(D)
    threshold = RANK_TOL * norms.max(axis=0)
    residuals = D
    Q, a, steps = [], [], []
    for k in range(m - 1):
        if k:
            norms = _norms(residuals)
        # The remaining difference with the largest residual norm, the lowest
        # index on ties: its residual q and the difference d itself.
        norms = np.where(remaining, norms, -1.0)
        best = norms.argmax(axis=0)
        active = active & (norms.max(axis=0) > threshold)
        if not active.any():
            # Every row has reached its rank; later steps change nothing.
            break
        q, d = _pick(residuals, best, rows), _pick(D, best, rows)
        # Second orthogonalization pass stabilizes nearly dependent inputs.
        for b in Q:
            q = q - _dot(q, b) * b
        nq = _norms(q)
        accept = active & (nq > threshold)
        # A dropped candidate adds a zero direction and a = 0, which change
        # nothing.  Forward substitution, with R[k, j] = <d, Q[j]>:
        q = np.where(accept, q / np.where(accept, nq, 1.0), 0.0)
        rhs = 0.5 * _dot(d, d) - sum(_dot(d, b) * aj for b, aj in zip(Q, a))
        a.append(np.where(accept, rhs / np.where(accept, _dot(d, q), 1.0), 0.0))
        Q.append(q)
        steps.append(np.where(accept, best, -1))
        if k < m - 2:
            remaining[best, rows] = False
            residuals = residuals - _dot(residuals, q)[:, None] * q
    return sum(aj * q for aj, q in zip(a, Q)), steps


def _pivot_three(u, v, iu, iv, active):
    """:func:`_pivot_search` for m = 3, on the differences ``u`` and ``v``
    (n, N) of the non-anchor points ``iu`` and ``iv`` instead of the masked
    (3, n, N) stack.  It runs the general loop's operations in its order, so
    the offset and the steps are the same bits; the pivot is a select, and
    the second step can only take the other point."""
    uu, vv = _dot(u, u), _dot(v, v)
    nu, nv = np.sqrt(uu), np.sqrt(vv)
    threshold = RANK_TOL * np.maximum(nu, nv)
    # The longer difference first, the lower point index on ties.  A tie
    # means the anchor's pairs with iu and iv are equally close, so the
    # closest pair is the earlier of the two and iu < iv: u wins.
    take_u = nu >= nv
    d, e, nd = np.where(take_u, u, v), np.where(take_u, v, u), np.where(take_u, nu, nv)
    # d is its own residual, so the second pass changes nothing and the step
    # accepts exactly the rows that stay active.
    active = active & (nd > threshold)
    if not active.any():
        return 0, []
    q0 = np.where(active, d / np.where(active, nd, 1.0), 0.0)
    a0 = np.where(active, 0.5 * np.where(take_u, uu, vv) / np.where(active, _dot(d, q0), 1.0), 0.0)
    steps = [np.where(active, np.where(take_u, iu, iv), -1)]
    r = e - _dot(e, q0) * q0
    active = active & (_norms(r) > threshold)
    if not active.any():
        return 0 + a0 * q0, steps
    q = r - _dot(r, q0) * q0
    nq = _norms(q)
    accept = active & (nq > threshold)
    q1 = np.where(accept, q / np.where(accept, nq, 1.0), 0.0)
    # The general loop's sums start at 0, and so do these.
    rhs = 0.5 * np.where(take_u, vv, uu) - (0 + _dot(e, q0) * a0)
    a1 = np.where(accept, rhs / np.where(accept, _dot(e, q1), 1.0), 0.0)
    steps.append(np.where(accept, np.where(take_u, iv, iu), -1))
    return (0 + a0 * q0) + a1 * q1, steps


def circumcenter_three(x, y, z) -> CircumcenterOutcome:
    """Closed-form circumcenter of three pairwise distinct points.

    Exists exactly when the three points are affinely independent, in which
    case it is the weighted combination

        [ |y-z|^2 <x-z, x-y> x + |x-z|^2 <y-z, y-x> y + |x-y|^2 <z-x, z-y> z ]
        / ( 2 (|y-x|^2 |z-x|^2 - <y-x, z-x>^2) ).
    """
    x, y, z = as_vector(x), as_vector(y), as_vector(z)
    scale = max(np.linalg.norm(x), np.linalg.norm(y), np.linalg.norm(z), 1.0)
    if (
        np.linalg.norm(x - y) <= DUP_TOL * scale
        or np.linalg.norm(x - z) <= DUP_TOL * scale
        or np.linalg.norm(y - z) <= DUP_TOL * scale
    ):
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

    Parametrizes ``p = anchor + B lambda`` over the affine hull, imposes every
    linear equidistance condition ``2 <p, x_j - x_1> = |x_j|^2 - |x_1|^2`` by
    least squares, and accepts only when every equation's residual is at most
    ``EQ_TOL`` times the squared data scale.  Shares no solve path with
    :func:`circumcenter` (SVD least squares vs a pivoted Gram-Schmidt factor).
    """
    pts = K.points
    if len(pts) == 1:
        return CircumcenterOutcome.found(pts[0], 0.0, (0,))
    anchor, basis = affine_hull_basis(pts)
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
    if residuals.size and residuals.max() > EQ_TOL * scale**2:
        return CircumcenterOutcome.not_found()
    dists = np.linalg.norm(pts - center, axis=1)
    return CircumcenterOutcome.found(center, float(dists.mean()), tuple(range(len(pts))))
