"""Small dense linear algebra: rank-revealing orthogonalization, orthogonal
complements, affine-hull bases, and the three thresholds that decide whether
a circumcenter exists.

Everything in this module is sized for tiny problems (dimensions and family
sizes in the single digits), so the implementations favour determinism over
asymptotic speed.  The thresholds :data:`RANK_TOL`, :data:`EQ_TOL` and
:data:`DUP_TOL` are module constants read where they are applied, never
parameters; each is relative to the scale of the data it is applied to.
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


def orthonormal_basis(vectors, scale: float | None = None):
    """Column-pivoted Gram-Schmidt with one reorthogonalization pass.

    Returns ``(basis, pivots)`` where ``basis`` is an orthonormal list spanning
    the input family (up to :data:`RANK_TOL`) and ``pivots`` indexes a maximal
    linearly independent subfamily of the inputs.  At every step the remaining
    vector with the largest residual norm is selected (ties break to the lowest
    index); a candidate whose residual norm is at most ``RANK_TOL`` times the
    largest input norm is rejected together with everything after it.  Pass an
    explicit ``scale`` when the inputs are residuals of a larger computation
    whose scale should govern the rank decision.
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        return [], []
    _check_same_dim(vecs)
    if scale is None:
        scale = max(np.linalg.norm(v) for v in vecs)
    if scale == 0.0:
        return [], []
    threshold = RANK_TOL * scale

    residuals = [v.copy() for v in vecs]
    remaining = list(range(len(vecs)))
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    while remaining:
        norms = [np.linalg.norm(residuals[i]) for i in remaining]
        best = max(range(len(remaining)), key=lambda j: (norms[j], -remaining[j]))
        if norms[best] <= threshold:
            break
        idx = remaining.pop(best)
        q = residuals[idx]
        # Second orthogonalization pass stabilizes nearly dependent inputs.
        for b in basis:
            q = q - np.dot(q, b) * b
        nq = np.linalg.norm(q)
        if nq <= threshold:
            continue
        q = q / nq
        basis.append(q)
        pivots.append(idx)
        for i in remaining:
            residuals[i] = residuals[i] - np.dot(residuals[i], q) * q
    return basis, pivots


def orthonormal_complement(vectors, dim: int):
    """Orthonormal basis of the orthogonal complement of span(vectors) in R^dim."""
    basis, _ = orthonormal_basis(vectors)
    if not basis:
        return [np.eye(dim)[i] for i in range(dim)]
    Q = np.array(basis)
    residuals = []
    for e in np.eye(dim):
        r = e - Q.T @ (Q @ e)
        r = r - Q.T @ (Q @ r)
        residuals.append(r)
    comp, _ = orthonormal_basis(residuals, scale=1.0)
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
