"""Operator algebra: affine subspaces, balls and boxes with their projectors
and reflectors, compositions, affine combinations, and closed-form reflected
resolvents.

Operators are immutable value trees evaluated by :func:`apply`; composition is
right-to-left, so ``Compose([f, g])`` applies ``g`` first (matching the usual
notation f.g for "f after g").  Every node also maps the rows of an (N, n)
array at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (EQ_TOL, RANK_TOL, DimensionMismatchError, _dot, _norms,
                       _pivoted_gram_schmidt, _substitute, affine_hull_basis, as_vector,
                       orthonormal_basis, orthonormal_complement)

__all__ = [
    "AffineSubspace",
    "Ball",
    "Operator",
    "Identity",
    "Constant",
    "ScaledId",
    "Translate",
    "ProjAffine",
    "ReflAffine",
    "ProjBall",
    "ReflBall",
    "ProjBox",
    "ProjSphere",
    "Compose",
    "AffineComb",
    "apply",
    "reflector_of",
    "reflector_word",
    "projector_word",
    "reflected_resolvent_scaled_id",
    "reflected_resolvent_const",
    "intersect_affine",
    "fixed_point_set_affine",
    "ambient_dim",
    "UnsupportedNodeError",
    "EmptyIntersectionError",
]


class UnsupportedNodeError(TypeError):
    """Operation requires affine nodes but the tree contains a non-affine one."""


class EmptyIntersectionError(ValueError):
    """The requested intersection of affine subspaces is empty."""


def _as_points(x) -> np.ndarray:
    """A finite 1-D vector, or a finite (N, n) array whose rows are points."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        return as_vector(v)
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


class AffineSubspace:
    """Closed affine subspace ``anchor + span(basis)`` of R^n.

    ``basis`` rows are orthonormal; an empty basis is a single point, a basis
    of n rows is the whole space.
    """

    def __init__(self, anchor, basis=()):
        self.anchor = as_vector(anchor)
        rows = [as_vector(b) for b in basis]
        for b in rows:
            if len(b) != len(self.anchor):
                raise DimensionMismatchError("basis vector dimension differs from anchor")
        B = np.array(rows).reshape(len(rows), len(self.anchor))
        if len(rows):
            G = B @ B.T
            if not np.allclose(G, np.eye(len(rows)), atol=1e-12):
                raise ValueError("basis must be orthonormal to 1e-12; use from_spanning()")
        self.basis = B
        P = B.T @ B  # the projector is the affine map [P | a - P a]
        self.proj_map = np.column_stack([P, self.anchor - P @ self.anchor])

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_spanning(anchor, directions) -> "AffineSubspace":
        """Subspace through ``anchor`` spanned by arbitrary ``directions``."""
        basis, _ = orthonormal_basis([as_vector(d) for d in directions])
        return AffineSubspace(anchor, basis)

    @staticmethod
    def span(*directions) -> "AffineSubspace":
        """Linear subspace through the origin spanned by ``directions``."""
        dirs = [as_vector(d) for d in directions]
        if not dirs:
            raise ValueError("span() needs at least one direction")
        return AffineSubspace.from_spanning(np.zeros(len(dirs[0])), dirs)

    @staticmethod
    def point(p) -> "AffineSubspace":
        """Zero-dimensional subspace, a single point."""
        return AffineSubspace(p, ())

    @staticmethod
    def full(dim: int) -> "AffineSubspace":
        """The whole space R^dim."""
        return AffineSubspace(np.zeros(dim), np.eye(dim))

    @staticmethod
    def from_points(points) -> "AffineSubspace":
        """Affine hull of a nonempty point family."""
        return AffineSubspace(*affine_hull_basis(points))

    @staticmethod
    def hyperplane(normal, offset: float) -> "AffineSubspace":
        """Solution set of ``<normal, x> = offset``, solved by
        :func:`_solution_set` at the scale of the normal."""
        n = as_vector(normal)
        scale = _norms(n[:, None])[0]
        if scale == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        return _solution_set(n[None], np.array([float(offset)]), scale)

    # -- geometry ------------------------------------------------------------
    @property
    def dim_ambient(self) -> int:
        return len(self.anchor)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, x) -> np.ndarray:
        """Nearest point of the subspace: anchor + sum <x-anchor, b_i> b_i.

        Each point is its own pair of matrix-vector products, alone or as a
        row of an (N, n) array, so a row maps to the same bits as the point
        alone, whatever N.
        """
        x = _as_points(x)
        if x.shape[-1] != self.dim_ambient:
            raise DimensionMismatchError("point dimension differs from subspace ambient dimension")
        d = (x - self.anchor)[..., None]
        return self.anchor + (self.basis.T @ (self.basis @ d))[..., 0]

    def reflect(self, x) -> np.ndarray:
        x = _as_points(x)
        return 2.0 * self.project(x) - x

    def contains(self, x) -> bool:
        x = as_vector(x)
        scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(self.anchor)
        return bool(np.linalg.norm(x - self.project(x)) <= EQ_TOL * scale)

    def orthogonal_complement(self) -> "AffineSubspace":
        """Orthogonal complement through the origin of the direction space."""
        comp = orthonormal_complement(list(self.basis), self.dim_ambient)
        return AffineSubspace(np.zeros(self.dim_ambient), comp)

    def __repr__(self):
        return f"AffineSubspace(anchor={self.anchor.tolist()}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball of given center and radius >= 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")


# -- operator nodes ----------------------------------------------------------


class Operator:
    """Base class for immutable operator trees; call or apply() to evaluate.

    Each node maps a point, or the rows of an (N, n) array, with ``_map``,
    and an affine node type stacks the exact maps of its nodes with
    ``_stack`` (see :func:`_affine_maps`).  ``dim`` is the ambient dimension
    the node pins (None when it is dimension-free), ``affine`` says whether
    the node is an affine map, and ``shape`` is its tree shape: a leaf's
    type, or the tuple of a compound node's type and its children's shapes.
    All three are fixed when the node is built; ``Compose``/``AffineComb``
    derive them from their children (:func:`_derive`).
    """

    dim = None
    affine = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.shape = cls  # a leaf's; _derive sets a compound node's own

    def __call__(self, x) -> np.ndarray:
        return apply(self, x)

    def _map(self, x: np.ndarray) -> np.ndarray:
        raise TypeError(f"unknown operator node {type(self).__name__}")


def _derive(node, children) -> None:
    """Fix a compound node's ``affine``, its ``shape`` and its ``dim``, the
    ambient dimension that its pinned ``children`` share (None when none pins
    one), in one pass over the children; children pinning different
    dimensions are rejected."""
    dim, affine, shape = None, True, [type(node)]
    for op in children:
        if op.dim is not None and op.dim != dim:
            if dim is not None:
                dims = sorted({op.dim for op in children if op.dim is not None})
                raise DimensionMismatchError(
                    f"{type(node).__name__} mixes operators on R^n for n in {dims}")
            dim = op.dim
        affine = affine and op.affine
        shape.append(op.shape)
    object.__setattr__(node, "dim", dim)
    object.__setattr__(node, "affine", affine)
    object.__setattr__(node, "shape", tuple(shape))


@dataclass(frozen=True, eq=False)
class Identity(Operator):
    def _map(self, x):
        return x.copy()

    @staticmethod
    def _stack(nodes, n):
        return np.eye(n, n + 1)[None]


@dataclass(frozen=True, eq=False)
class Constant(Operator):
    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", as_vector(self.value))
        object.__setattr__(self, "dim", len(self.value))

    def _map(self, x):
        return np.broadcast_to(self.value, x.shape).copy()

    @staticmethod
    def _stack(nodes, n):
        A = np.zeros((len(nodes), n, n + 1))
        A[:, :, n] = [nd.value for nd in nodes]
        return A


@dataclass(frozen=True, eq=False)
class ScaledId(Operator):
    gamma: float

    def _map(self, x):
        return self.gamma * x

    @staticmethod
    def _stack(nodes, n):
        return np.array([nd.gamma for nd in nodes])[:, None, None] * np.eye(n, n + 1)


@dataclass(frozen=True, eq=False)
class Translate(Operator):
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", as_vector(self.offset))
        object.__setattr__(self, "dim", len(self.offset))

    def _map(self, x):
        return x + self.offset

    @staticmethod
    def _stack(nodes, n):
        A = np.tile(np.eye(n, n + 1), (len(nodes), 1, 1))
        A[:, :, n] = [nd.offset for nd in nodes]
        return A


@dataclass(frozen=True, eq=False)
class ProjAffine(Operator):
    subspace: AffineSubspace

    def __post_init__(self):
        object.__setattr__(self, "dim", self.subspace.dim_ambient)

    def _map(self, x):
        return self.subspace.project(x)

    @staticmethod
    def _stack(nodes, n):
        return np.array([nd.subspace.proj_map for nd in nodes])


@dataclass(frozen=True, eq=False)
class ReflAffine(Operator):
    subspace: AffineSubspace

    def __post_init__(self):
        object.__setattr__(self, "dim", self.subspace.dim_ambient)

    def _map(self, x):
        return self.subspace.reflect(x)

    @staticmethod
    def _stack(nodes, n):
        return 2.0 * np.array([nd.subspace.proj_map for nd in nodes]) - np.eye(n, n + 1)


@dataclass(frozen=True, eq=False)
class ProjBall(Operator):
    ball: Ball
    affine = False

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.ball.center))

    def _map(self, x):
        return project_ball(self.ball, x)


@dataclass(frozen=True, eq=False)
class ReflBall(Operator):
    ball: Ball
    affine = False

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.ball.center))

    def _map(self, x):
        return 2.0 * project_ball(self.ball, x) - x


@dataclass(frozen=True, eq=False)
class ProjBox(Operator):
    """Componentwise clamp onto the box [lower, upper] (entries may be +-inf)."""

    lower: np.ndarray
    upper: np.ndarray
    affine = False

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D and of equal length")
        if np.any(lo > up):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "dim", len(lo))

    def _map(self, x):
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class ProjSphere(Operator):
    """Projection onto the sphere (boundary only); at the center, the tie is
    broken deterministically toward the first coordinate axis."""

    center: np.ndarray
    radius: float
    affine = False

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if self.radius < 0:
            raise ValueError("sphere radius must be nonnegative")
        object.__setattr__(self, "dim", len(self.center))

    def _map(self, x):
        return project_sphere(self.center, self.radius, x)


@dataclass(frozen=True, eq=False)
class Compose(Operator):
    """Composition, applied right-to-left (the last element acts first)."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("Compose requires at least one operator")
        object.__setattr__(self, "ops", ops)
        _derive(self, ops)

    def _map(self, x):
        for inner in reversed(self.ops):
            x = apply(inner, x)
        return x

    @staticmethod
    def _stack(nodes, n):
        # Fold in from the operator that acts first; [L | l] after [M | c]
        # is [LM | Lc + l], with LM summed over k in order.
        A = _affine_maps([nd.ops[-1] for nd in nodes], n)
        for j in range(len(nodes[0].ops) - 2, -1, -1):
            L = _affine_maps([nd.ops[j] for nd in nodes], n)
            LA = L[:, :, :1] * A[:, None, 0]
            for k in range(1, n):
                LA += L[:, :, k:k + 1] * A[:, None, k]
            LA[:, :, n] += L[:, :, n]
            A = LA
        return A


@dataclass(frozen=True, eq=False)
class AffineComb(Operator):
    """Affine combination sum w_i T_i with weights summing to 1."""

    terms: tuple

    def __post_init__(self):
        terms, weights, children = [], [], []
        for w, op in self.terms:
            w = float(w)
            terms.append((w, op))
            weights.append(w)
            children.append(op)
        if not terms:
            raise ValueError("AffineComb requires at least one term")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"affine-combination weights must sum to 1, got {total}")
        object.__setattr__(self, "terms", tuple(terms))
        _derive(self, children)

    def _map(self, x):
        acc = np.zeros_like(x)
        for w, inner in self.terms:
            acc = acc + w * apply(inner, x)
        return acc

    @staticmethod
    def _stack(nodes, n):
        W = np.array([[w for w, _ in nd.terms] for nd in nodes])
        A = 0.0
        for j in range(W.shape[1]):
            A = A + W[:, j, None, None] * _affine_maps([nd.terms[j][1] for nd in nodes], n)
        return A


def project_ball(ball: Ball, x) -> np.ndarray:
    """x if inside, else the radial point c + r (x-c)/|x-c|."""
    x = _as_points(x)
    d = x - ball.center
    nd = np.linalg.norm(d, axis=-1, keepdims=True)
    outside = nd > ball.radius
    return np.where(outside, ball.center + ball.radius * d / np.where(outside, nd, 1.0), x)


def project_sphere(center, radius: float, x) -> np.ndarray:
    x = _as_points(x)
    d = x - center
    nd = np.linalg.norm(d, axis=-1, keepdims=True)
    at_center = nd == 0.0
    axis = np.zeros(x.shape[-1])
    axis[0] = 1.0
    return np.where(at_center, center + radius * axis,
                    center + radius * d / np.where(at_center, 1.0, nd))


def apply(op: Operator, x) -> np.ndarray:
    """Evaluate an operator tree at ``x``, or at every row of an (N, n) ``x``."""
    x = _as_points(x)
    if op.dim is not None and op.dim != x.shape[-1]:
        raise DimensionMismatchError(
            f"{type(op).__name__} acts on R^{op.dim}, got points in R^{x.shape[-1]}")
    return op._map(x)


def _affine_maps(nodes, n: int) -> np.ndarray:
    """The exact affine maps x -> M x + c on R^n of the F affine ``nodes`` of
    one ``shape``, stacked as [M | c] (F, n, n + 1), or (1, n, n + 1)
    when they are equal: one numpy operation per tree position.  Entries are
    elementwise in a fixed order, so a map does not depend on its stack."""
    return type(nodes[0])._stack(nodes, n)


def reflector_of(proj: Operator) -> Operator:
    """Reflector 2P - Id of an arbitrary projector node."""
    return AffineComb(((2.0, proj), (-1.0, Identity())))


def _word(ops) -> Operator:
    """The word over the nodes ``ops``, listed in application order: the
    identity when empty, the bare node for one letter, else the ``Compose`` of
    the nodes reversed (``Compose`` applies right-to-left)."""
    if not ops:
        return Identity()
    return ops[0] if len(ops) == 1 else Compose(tuple(reversed(ops)))


def _subspace_word(subspaces, indices, node) -> Operator:
    subs = list(subspaces)
    ops = []
    for i in indices:
        if not 1 <= i <= len(subs):
            raise IndexError(f"word index {i} out of range 1..{len(subs)}")
        ops.append(node(subs[i - 1]))
    return _word(ops)


def reflector_word(subspaces, indices) -> Operator:
    """Composition R_{U_{i_r}} ... R_{U_{i_1}} for 1-based ``indices``
    (applied first-to-last); the empty word is the identity and a one-letter
    word is the bare reflector node."""
    return _subspace_word(subspaces, indices, ReflAffine)


def projector_word(subspaces, indices) -> Operator:
    """Composition P_{U_{i_r}} ... P_{U_{i_1}}, same conventions as
    :func:`reflector_word`."""
    return _subspace_word(subspaces, indices, ProjAffine)


def reflected_resolvent_scaled_id(alpha: float) -> Operator:
    """Reflected resolvent 2(Id + alpha Id)^{-1} - Id = ((1-alpha)/(1+alpha)) Id."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return ScaledId((1.0 - alpha) / (1.0 + alpha))


def reflected_resolvent_const(a) -> Operator:
    """Reflected resolvent of the constant operator with value ``a``:
    the resolvent is x - a, so the reflected resolvent is x - 2a.  ``a`` is
    checked once, as the offset that ``Translate`` takes."""
    return Translate(-2.0 * np.asarray(a, dtype=float))


def _solution_set(A, b, scale: float) -> AffineSubspace | None:
    """Solution set of ``A x = b`` for ``A`` (m, n), or ``None`` when empty:
    the rank rule on the rows of ``A`` at ``RANK_TOL * scale``, the size of
    the operands ``A`` was built from; the minimum-norm solution ``x`` of the
    accepted rows by forward substitution; consistent when every row's
    residual is at most ``EQ_TOL * (1 + |b| + scale |x|)``; the directions
    complement the accepted rows."""
    D = A[..., None]
    Q, steps, picked = _pivoted_gram_schmidt(D, RANK_TOL * scale, np.ones((len(A), 1), dtype=bool))
    x = _substitute(Q, steps, picked, [b[step] for step in steps]) + np.zeros((A.shape[1], 1))
    tol = EQ_TOL * (1.0 + _norms(b[:, None])[0] + scale * _norms(x)[0])
    if (np.abs(_dot(D, x) - b[:, None]) > tol).any():
        return None
    rows = [q[:, 0] for q, step in zip(Q, steps) if step[0] >= 0]
    return AffineSubspace(x[:, 0], orthonormal_complement(rows, A.shape[1]))


def intersect_affine(subspaces) -> AffineSubspace | None:
    """Intersection of affine subspaces, or ``None`` when empty.

    A point lies in a subspace exactly when its projector ``x -> P x + c``
    fixes it, so each subspace contributes the rows ``(I - P) x = c`` of its
    projector map; the stacked system is solved by :func:`_solution_set` at
    the projectors' scale 1.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("intersection of zero subspaces is undefined")
    n = subs[0].dim_ambient
    if any(s.dim_ambient != n for s in subs):
        raise DimensionMismatchError("subspaces live in different ambient dimensions")
    maps = np.concatenate([s.proj_map for s in subs])
    return _solution_set(np.tile(np.eye(n), (len(subs), 1)) - maps[:, :n], maps[:, n], 1.0)


def ambient_dim(op: Operator) -> int | None:
    """Ambient dimension pinned by the tree, or None for dimension-free trees."""
    return op.dim


def fixed_point_set_affine(op: Operator, dim: int | None = None) -> AffineSubspace | None:
    """Fixed-point set of an affine operator tree, or ``None`` when empty.

    The affine map ``op(x) = M x + c`` is read from the tree's structure
    (:func:`_affine_maps`), then ``(M - I) x = -c`` is solved by
    :func:`_solution_set` at the scale of ``M``, its largest row norm or 1.
    Trees containing ball, box, or sphere nodes are rejected.
    """
    if not op.affine:
        raise UnsupportedNodeError("fixed-point solve supports affine operator trees only")
    if dim is None:
        dim = ambient_dim(op)
    if dim is None:
        raise ValueError("ambient dimension cannot be inferred; pass dim explicitly")
    if op.dim not in (None, dim):
        raise DimensionMismatchError(f"{type(op).__name__} acts on R^{op.dim}, not R^{dim}")

    Mc = _affine_maps([op], dim)[0]
    M, c = Mc[:, :dim], Mc[:, dim]
    # The rank of M - I is decided at the scale of M, not of the difference,
    # which is rounding noise where M is the identity.
    scale = max(1.0, _norms(M[..., None]).max(initial=0.0))
    return _solution_set(M - np.eye(dim), -c, scale)
