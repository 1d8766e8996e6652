"""Small dense linear algebra: rank-revealing orthogonalization, orthogonal
complements, affine-hull bases.

Everything in this module is sized for tiny problems (dimensions and family
sizes in the single digits), so the implementations favour determinism and
explicit tolerance control over asymptotic speed.  All tolerances are relative
to the scale of the data they are applied to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "as_vector",
    "orthonormal_basis",
    "rank",
    "orthonormal_complement",
    "affine_hull_basis",
]


class DimensionMismatchError(ValueError):
    """Vectors of different ambient dimensions were mixed."""


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances shared across the library.

    rank_tol : threshold for accepting a direction as independent, relative to
        the largest norm in the active vector family.
    eq_tol : threshold for equidistance / residual verification, relative to
        the data scale.
    dup_tol : threshold under which two points are merged as duplicates.
    """

    rank_tol: float = 1e-10
    eq_tol: float = 1e-9
    dup_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rank_tol", "eq_tol", "dup_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOL = Tolerances()


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


def _check_same_dim(vectors) -> int:
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed vector dimensions: {sorted(dims)}")
    return dims.pop()


def orthonormal_basis(vectors, tol: Tolerances = DEFAULT_TOL, scale: float | None = None):
    """Column-pivoted Gram-Schmidt with one reorthogonalization pass.

    Returns ``(basis, pivots)`` where ``basis`` is an orthonormal list spanning
    the input family (up to ``tol.rank_tol``) and ``pivots`` indexes a maximal
    linearly independent subfamily of the inputs.  At every step the remaining
    vector with the largest residual norm is selected (ties break to the lowest
    index); a candidate whose residual norm is at most ``rank_tol`` times the
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
    threshold = tol.rank_tol * scale

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


def rank(vectors, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of the family under ``tol.rank_tol``."""
    basis, _ = orthonormal_basis(vectors, tol)
    return len(basis)


def orthonormal_complement(vectors, dim: int, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of the orthogonal complement of span(vectors) in R^dim."""
    basis, _ = orthonormal_basis(vectors, tol)
    if not basis:
        return [np.eye(dim)[i] for i in range(dim)]
    Q = np.array(basis)
    residuals = []
    for e in np.eye(dim):
        r = e - Q.T @ (Q @ e)
        r = r - Q.T @ (Q @ r)
        residuals.append(r)
    comp, _ = orthonormal_basis(residuals, tol, scale=1.0)
    if len(comp) != dim - len(basis):
        raise np.linalg.LinAlgError("complement rank disagrees with span rank")
    return comp


def affine_hull_basis(points, tol: Tolerances = DEFAULT_TOL):
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
    basis, _ = orthonormal_basis(diffs, tol)
    return anchor, basis
