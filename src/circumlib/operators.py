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

from .geometry import (
    EQ_TOL,
    DimensionMismatchError,
    affine_hull_basis,
    as_vector,
    orthonormal_basis,
    orthonormal_complement,
)

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
        """Solution set of ``<normal, x> = offset``."""
        n = as_vector(normal)
        nn = np.dot(n, n)
        if nn == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        anchor = n * (offset / nn)
        basis = orthonormal_complement([n], len(n))
        return AffineSubspace(anchor, basis)

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

    def translate(self, v) -> "AffineSubspace":
        return AffineSubspace(self.anchor + as_vector(v), self.basis)

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
    the node pins (None when it is dimension-free) and ``affine`` says
    whether the node is an affine map; both are fixed when the node is
    built, and ``Compose``/``AffineComb`` derive them from their children.
    """

    dim = None
    affine = True

    def __call__(self, x) -> np.ndarray:
        return apply(self, x)

    def _map(self, x: np.ndarray) -> np.ndarray:
        raise TypeError(f"unknown operator node {type(self).__name__}")


def _derive(node, children) -> None:
    """Fix a compound node's ``affine`` and its ``dim``, the ambient dimension
    that its pinned ``children`` share (None when none pins one); children
    pinning different dimensions are rejected."""
    dims = {op.dim for op in children if op.dim is not None}
    if len(dims) > 1:
        raise DimensionMismatchError(
            f"{type(node).__name__} mixes operators on R^n for n in {sorted(dims)}")
    object.__setattr__(node, "dim", dims.pop() if dims else None)
    object.__setattr__(node, "affine", all(op.affine for op in children))


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
        terms = tuple((float(w), op) for w, op in self.terms)
        if not terms:
            raise ValueError("AffineComb requires at least one term")
        total = sum(w for w, _ in terms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"affine-combination weights must sum to 1, got {total}")
        object.__setattr__(self, "terms", terms)
        _derive(self, [op for _, op in terms])

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


def _shape(op: Operator):
    """The tree shape of ``op``: its type, and its children's shapes."""
    if isinstance(op, Compose):
        return (Compose, *map(_shape, op.ops))
    if isinstance(op, AffineComb):
        return (AffineComb, *(_shape(t) for _, t in op.terms))
    return type(op)


def _affine_maps(nodes, n: int) -> np.ndarray:
    """The exact affine maps x -> M x + c on R^n of the F affine ``nodes`` of
    one :func:`_shape`, stacked as [M | c] (F, n, n + 1), or (1, n, n + 1)
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
    the resolvent is x - a, so the reflected resolvent is x - 2a."""
    a = as_vector(a)
    return Translate(-2.0 * a)


def intersect_affine(subspaces) -> AffineSubspace | None:
    """Intersection of affine subspaces, or ``None`` when empty.

    Each subspace contributes the constraints ``<n, x> = <n, anchor>`` over an
    orthonormal basis of its normal space; the stacked system is solved by
    least squares and declared inconsistent when the residual exceeds the
    relative tolerance.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("intersection of zero subspaces is undefined")
    n = subs[0].dim_ambient
    if any(s.dim_ambient != n for s in subs):
        raise DimensionMismatchError("subspaces live in different ambient dimensions")

    rows = []
    rhs = []
    for s in subs:
        for normal in orthonormal_complement(list(s.basis), n):
            rows.append(normal)
            rhs.append(np.dot(normal, s.anchor))
    if not rows:
        return AffineSubspace.full(n)
    A = np.array(rows)
    b = np.array(rhs)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = 1.0 + np.linalg.norm(b) + np.linalg.norm(x)
    if np.linalg.norm(A @ x - b) > EQ_TOL * scale:
        return None
    directions = orthonormal_complement(rows, n)
    return AffineSubspace(x, directions)


def ambient_dim(op: Operator) -> int | None:
    """Ambient dimension pinned by the tree, or None for dimension-free trees."""
    return op.dim


def fixed_point_set_affine(op: Operator, dim: int | None = None) -> AffineSubspace | None:
    """Fixed-point set of an affine operator tree, or ``None`` when empty.

    The affine map ``op(x) = M x + c`` is read from the tree's structure
    (:func:`_affine_maps`), then ``(M - I) x = -c`` is solved with a
    consistency check.  Trees containing ball, box, or sphere nodes are
    rejected.
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
    A = M - np.eye(dim)
    b = -c
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    scale = 1.0 + np.linalg.norm(b) + np.linalg.norm(A, ord=2) * np.linalg.norm(x)
    if np.linalg.norm(A @ x - b) > EQ_TOL * scale:
        return None
    directions = orthonormal_complement(list(A), dim)
    return AffineSubspace(x, directions)
