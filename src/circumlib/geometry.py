"""Small dense linear algebra: the one rank rule and the one forward
substitution, orthogonal complements, affine-hull bases, and the three
thresholds that decide whether a circumcenter exists.

The rank rule, :func:`_pivoted_gram_schmidt`, decides batches of families
for the circumcenter kernel and single families, through its N = 1 call
:func:`orthonormal_basis`, for subspace set-up; :func:`_substitute` solves on
its steps for the kernel and for every affine solve of ``operators``.
Everything here is sized for tiny problems (dimensions and family sizes in
the single digits), so the implementations favour determinism over
asymptotic speed.  The thresholds
:data:`RANK_TOL`, :data:`EQ_TOL` and :data:`DUP_TOL` are module constants
read where they are applied, never parameters; each is relative to the scale
of the data it is applied to.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RANK_TOL",
    "EQ_TOL",
    "DUP_TOL",
    "DimensionMismatchError",
    "as_vector",
    "orthonormal_basis",
    "orthonormal_complement",
    "affine_hull_basis",
]


class DimensionMismatchError(ValueError):
    """Vectors of different ambient dimensions were mixed."""


RANK_TOL = 1e-10  # a direction is independent above this times its family's largest norm
EQ_TOL = 1e-9  # equidistance / residual verification, relative to the data scale
DUP_TOL = 1e-12  # two points closer than this, relative to their scale, are merged


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _row_norms(D) -> np.ndarray:
    """The Euclidean norm of every row of ``D`` (N, n), bit for bit what
    ``np.linalg.norm`` gives the row alone: the square root of the row's dot
    product with itself, which a stacked (1, n) @ (n, 1) matmul takes from the
    same BLAS dot once the rows are contiguous."""
    D = np.ascontiguousarray(D, dtype=float)
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


def _check_same_dim(vectors) -> int:
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed vector dimensions: {sorted(dims)}")
    return dims.pop()


def _dot(u, v):
    """Inner products of rows-last arrays (..., n, N) over their coordinate
    axis, accumulated one coordinate at a time.  Both evaluations below sum in
    that order, so they agree bit for bit.  One accumulate costs fewer calls
    than the loop, but its inner loop runs along the strided coordinate axis.
    With ``circumcenter._sum_points`` switched the same way, on a 2-vCPU
    x86_64 VM (``BENCH_20.json``, ``cutoff_3_points_us``) the accumulate form
    made the three-point kernel faster at every N <= 32 measured (99 against
    116 us at N = 1 for n = 2, 99 against 134 us for n = 3), and the loop was
    faster from N = 64 for n = 2 and N = 128 for n = 3."""
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


def _pivoted_gram_schmidt(D, threshold, remaining):
    """Column-pivoted Gram-Schmidt with one reorthogonalization pass over the
    ``remaining`` (m, N) vectors of ``D`` (m, n, N), stacked rows-last: the
    only rank rule.  ``remaining`` is updated in place.

    Each step takes the remaining vector with the largest residual norm (the
    lowest index on ties).  A residual norm at most ``threshold`` (N,) ends
    the row; a candidate whose reorthogonalized norm is at most that is
    dropped, with a zero direction, while the search goes on.  Returns, per
    step, the unit direction q (n, N), the accepted index (-1 where there is
    none) and the picked vector of ``D`` itself.  Each row's steps depend on
    that row alone.
    """
    rows = np.arange(D.shape[-1])
    active = np.ones(D.shape[-1], dtype=bool)
    residuals = D
    Q, steps, picked = [], [], []
    # No row takes more steps than it has candidates, and the last step
    # needs no residual update.
    last = remaining.sum(axis=0).max(initial=0) - 1
    for k in range(last + 1):
        norms = np.where(remaining, _norms(residuals), -1.0)
        best = norms.argmax(axis=0)
        active = active & (norms.max(axis=0) > threshold)
        if not active.any():
            # Every row has reached its rank; later steps change nothing.
            break
        q = _pick(residuals, best, rows)
        # Second orthogonalization pass stabilizes nearly dependent inputs.
        for b in Q:
            q = q - _dot(q, b) * b
        nq = _norms(q)
        accept = active & (nq > threshold)
        Q.append(np.where(accept, q / np.where(accept, nq, 1.0), 0.0))
        steps.append(np.where(accept, best, -1))
        picked.append(_pick(D, best, rows))
        if k < last:
            remaining[best, rows] = False
            residuals = residuals - _dot(residuals, Q[-1])[:, None] * Q[-1]
    return Q, steps, picked


def orthonormal_basis(vectors):
    """``(basis, pivots)``: an orthonormal list spanning ``vectors`` and the
    indices of the maximal linearly independent subfamily it was built from,
    as the N = 1 call of :func:`_pivoted_gram_schmidt`.  A direction counts
    when its residual norm is above ``RANK_TOL`` times the largest input norm.
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        return [], []
    _check_same_dim(vecs)
    D = np.array(vecs)[..., None]
    remaining = np.ones((len(D), 1), dtype=bool)
    Q, steps, _ = _pivoted_gram_schmidt(D, RANK_TOL * _norms(D).max(), remaining)
    kept = [k for k, step in enumerate(steps) if step[0] >= 0]
    return [Q[k][:, 0] for k in kept], [int(steps[k][0]) for k in kept]


def _substitute(Q, steps, picked, rhs):
    """``Q^T a`` for the steps of :func:`_pivoted_gram_schmidt`, where ``a``
    solves ``<picked[k], Q^T a> = rhs[k]`` at every accepted step k by forward
    substitution (``R[k, j] = <picked[k], Q[j]>`` is lower triangular): the
    minimum-norm solution of the accepted rows.  A dropped step has a zero
    direction and ``a = 0``, which change nothing."""
    a = []
    for q, step, d, r in zip(Q, steps, picked, rhs):
        accept = step >= 0
        r = r - sum(_dot(d, b) * aj for b, aj in zip(Q, a))
        a.append(np.where(accept, r / np.where(accept, _dot(d, q), 1.0), 0.0))
    return sum(aj * q for aj, q in zip(a, Q))


def orthonormal_complement(vectors, dim: int):
    """Orthonormal basis of the orthogonal complement of span(vectors) in
    R^dim: the unit vectors that one pass of the rank rule, at ``RANK_TOL``,
    accepts after the doubled orthonormal basis of ``vectors``.  Doubling is
    exact and gives each basis row a residual of about 2, against at most 1
    for a unit vector, so the basis rows take the first pivots."""
    basis, _ = orthonormal_basis(vectors)
    D = np.concatenate([2.0 * np.reshape(basis, (len(basis), dim)), np.eye(dim)])[..., None]
    Q, steps, _ = _pivoted_gram_schmidt(D, RANK_TOL, np.ones((len(D), 1), dtype=bool))
    comp = [q[:, 0] for q, step in zip(Q, steps) if step[0] >= len(basis)]
    if len(comp) != dim - len(basis):
        raise np.linalg.LinAlgError("complement rank disagrees with span rank")
    return comp


def affine_hull_basis(points):
    """Anchor plus orthonormal direction basis of the affine hull of ``points``.

    The hull of ``{p_1, ..., p_m}`` is ``p_1 + span{p_2 - p_1, ...}``; the
    returned basis is orthonormal and empty for a single point.
    """
    pts = [as_vector(p) for p in points]
    if not pts:
        raise ValueError("affine hull of an empty set is undefined")
    _check_same_dim(pts)
    anchor = pts[0]
    diffs = [p - anchor for p in pts[1:]]
    basis, _ = orthonormal_basis(diffs)
    return anchor, basis
