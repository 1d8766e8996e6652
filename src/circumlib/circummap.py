"""Circumcenter mappings induced by finite operator families.

For an ordered family ``S = (T_1, ..., T_m)`` the induced mapping sends ``x``
to the circumcenter of the image set ``{T_1 x, ..., T_m x}`` (deduplicated),
when that circumcenter exists.  The mapping is *proper* when it exists
everywhere; properness over all of R^n is undecidable numerically, so the
sampled checker combines seeded clouds with structured probes and, for
three-operator families, the exact pointwise criterion (cardinality three and
affine dependence is the only failure mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circumcenter import CircumcenterOutcome, PointSet, _circumcenters, _dedup, circumcenter
from .geometry import EQ_TOL, DimensionMismatchError, _check_same_dim, as_vector
from .operators import (
    AffineComb,
    Compose,
    Identity,
    Operator,
    ProjAffine,
    ReflAffine,
    _affine_maps,
    _derive,
    _word,
    apply,
)

__all__ = [
    "OperatorSet",
    "DomainDiagnosis",
    "PropernessReport",
    "DemiclosednessReport",
    "evaluate_set",
    "cc_map",
    "in_domain",
    "cc_map_rows",
    "classify_points",
    "check_properness_sampled",
    "fixed_point_residual",
    "demiclosedness_probe",
    "residuals_vanish",
    "relaxation",
    "relaxed_set",
    "affine_comb_identity_check",
    "gaussian_cloud",
    "subspace_probes",
]


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Ordered finite family of operators with an optional display name;
    members pinning different dimensions are rejected, as by ``Compose``.
    ``dim``, ``affine`` and ``shape`` are derived from the members as for
    ``Compose``.  An all-affine family keeps its compiled maps, one stack per
    dimension (:meth:`_compiled`); that is its only state beyond the members."""

    ops: tuple
    name: str = ""

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("an operator set must contain at least one operator")
        _derive(self, ops)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "_maps", {})

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def _compiled(self, n: int) -> np.ndarray:
        """The members' [M | c] maps on R^n, stacked (m, n, n + 1), of an
        all-affine family: compiled by :func:`_affine_maps` on the first call
        for ``n`` and kept read-only for every later one."""
        A = self._maps.get(n)
        if A is None:
            A = np.empty((len(self.ops), n, n + 1))
            for i, op in enumerate(self.ops):
                A[i] = _affine_maps([op], n)
            A.flags.writeable = False
            self._maps[n] = A
        return A

    @classmethod
    def with_identity(cls, ops, name: str = "") -> "OperatorSet":
        """The family {Id, T_1, ..., T_m} of the identity and the nodes ``ops``."""
        return cls((Identity(), *ops), name)

    @classmethod
    def prefix_words(cls, ops, name: str = "") -> "OperatorSet":
        """The family {Id, T_1, T_2 T_1, ..., T_m ... T_1} of the identity and
        the words over the first k nodes of ``ops``, k = 1..m: the one-letter
        word is the bare node ``T_1``, a longer one the ``Compose`` of its
        nodes reversed (``T_1`` acts first)."""
        ops = tuple(ops)
        return cls((Identity(), *[_word(ops[:k]) for k in range(1, len(ops) + 1)]), name)


@dataclass(frozen=True)
class DomainDiagnosis:
    """Pointwise domain report for a circumcenter mapping.

    ``witness`` is a nontrivial dependence pair (alpha, beta) with
    ``alpha (x_2 - x_1) + beta (x_3 - x_1) = 0``, reported only for image
    cardinality three with affinely dependent images.
    """

    in_domain: bool
    card: int
    affinely_independent: bool
    witness: tuple[float, float] | None = None


@dataclass
class PropernessReport:
    checked: int
    counterexamples: list = field(default_factory=list)
    criterion_mismatches: list = field(default_factory=list)

    @property
    def proper_on_samples(self) -> bool:
        return not self.counterexamples


@dataclass
class DemiclosednessReport:
    residuals: list
    limit: np.ndarray
    limit_residual: float | None
    limit_is_fixed: bool
    residuals_vanish: bool


def evaluate_set(S: OperatorSet, x) -> PointSet:
    """Image set {T_1 x, ..., T_m x}, deduplicated."""
    x = as_vector(x)
    return PointSet([apply(op, x) for op in S])


def cc_map(S: OperatorSet, x) -> CircumcenterOutcome:
    """Circumcenter of the image set; nonexistence is a value, not an error."""
    return circumcenter(evaluate_set(S, x))


def in_domain(S: OperatorSet, x) -> DomainDiagnosis:
    """Pointwise domain membership with the cardinality/dependence breakdown,
    the N = 1 case of :func:`_domain_rows` (so of :func:`classify_points`)."""
    exists, card, independent, images, keep = _domain_rows(S, as_vector(x)[None])
    witness = None
    if card[0] == 3 and not independent[0]:
        pts = images[keep[:, 0], :, 0]
        # Smallest right singular vector of [d2 d3] is a dependence witness.
        _, _, vt = np.linalg.svd((pts[1:] - pts[0]).T, full_matrices=True)
        witness = (float(vt[-1, 0]), float(vt[-1, 1]))
    return DomainDiagnosis(bool(exists[0]), int(card[0]), bool(independent[0]), witness)


def _checked_dim(pairs) -> int:
    """The n of the ``(S, X)`` of ``pairs``, each ``X`` a finite (N, n) array;
    an array given for several families is checked once."""
    arrays = {id(X): X for _, X in pairs}.values()
    for X in arrays:
        if X.ndim != 2:
            raise ValueError(f"expected an (N, n) array of points, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("vector entries must be finite")
    n = _check_same_dim([X.T for X in arrays]) if pairs else 0  # len(X.T) is n
    for S, _ in pairs:
        if S.dim not in (None, n):
            raise DimensionMismatchError(f"operator set on R^{S.dim}, got points in R^{n}")
    return n


def _walk(S: OperatorSet, X) -> np.ndarray:
    """The images (m, n, N) of the rows of ``X`` under every member of ``S``
    by tree walks, one :func:`apply` per distinct word prefix: a ``Compose``
    member applies its nodes one at a time, from the one that acts first, as
    ``Compose`` does, and takes any prefix that an earlier member of ``S``
    already applied (in {Id, T1, T2 T1}, ``T1 x`` once)."""
    done = {}  # node ids in application order -> image
    images = []
    for op in S:
        y, word = X, ()
        for node in (reversed(op.ops) if isinstance(op, Compose) else (op,)):
            word += (id(node),)
            if word not in done:
                done[word] = apply(node, y)
            y = done[word]
        images.append(y.T)
    return np.array(images)  # copies to C order: the row axis is contiguous


def _images(pairs, n: int) -> np.ndarray:
    """The images ``T x`` of every row ``x`` of every ``(S, X)`` in ``pairs``
    (one family, or affine families of one size and ``shape``) under every
    ``T`` in ``S``, rows-last as (m, n, N).  Affine families compute
    c + sum_k M[:, k] x_k from their compiled [M | c] with k in order: a lone
    family's kept maps (:meth:`OperatorSet._compiled`), or the maps of
    several compiled together.  Any other family walks its trees
    (:func:`_walk`)."""
    S, X = pairs[0]
    if not S.affine:
        images = _walk(S, X)
    else:
        # (m, n + 1, n, F): member, column of [M | c], coordinate, family.
        # One family's maps broadcast over its rows; more are gathered.
        if len(pairs) == 1:
            A = S._compiled(n).transpose(0, 2, 1)[..., None]
        else:
            A = np.empty((len(S), len(pairs), n, n + 1))
            for i in range(len(S)):
                A[i] = _affine_maps([T.ops[i] for T, _ in pairs], n)
            A = A.transpose(0, 3, 2, 1)
            A = A[..., np.repeat(np.arange(len(pairs)), [len(X) for _, X in pairs])]
            X = np.concatenate([X for _, X in pairs])
        images = np.zeros((len(S), n, len(X)))
        images += A[:, n]
        for k in range(n):
            images += A[:, k] * X[:, k]
    if not np.isfinite(images).all():
        raise ValueError("vector entries must be finite")
    return images


class _Rows(NamedTuple):
    """The kernel's outcome on the rows of the families of one size: where
    the rows sit in the call's input order (``slice(None)`` for a lone
    family), their images (m, n, N) and keep mask (m, N), and the
    ``(exists, center, radius, card, pivots)`` of :func:`_circumcenters`."""

    rows: object
    images: np.ndarray
    keep: np.ndarray
    exists: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    card: np.ndarray
    pivots: np.ndarray


def _kernel(rows, images) -> _Rows:
    """The :class:`_Rows` of one circumcenter-kernel call on ``images``."""
    keep, dist = _dedup(images)
    return _Rows(rows, images, keep, *_circumcenters(images, keep, dist))


def _outcomes(pairs) -> list:
    """The :class:`_Rows` of every row of every ``(S, X)`` in ``pairs``, each
    ``X`` a finite (N_i, n) array of one n: one kernel call per family size,
    with the affine families of one size and shape compiled together.  This
    is the one entry to the kernel; a lone family is neither regrouped nor
    scattered."""
    pairs = [(S, np.asarray(X, dtype=float)) for S, X in pairs]
    n = _checked_dim(pairs)
    if len(pairs) == 1:  # the common call, with nothing to group
        return [_kernel(slice(None), _images(pairs, n))]
    starts = np.cumsum([0] + [len(X) for _, X in pairs]).tolist()
    index = np.arange(starts[-1])
    groups = {}  # family size -> shape key -> pair indices
    for p, (S, _) in enumerate(pairs):
        groups.setdefault(len(S), {}).setdefault(S.shape if S.affine else p, []).append(p)
    outcomes = []
    for blocks in groups.values():
        images = np.concatenate([_images([pairs[p] for p in block], n)
                                 for block in blocks.values()], axis=2)
        rows = np.concatenate([index[starts[p]:starts[p + 1]]
                               for block in blocks.values() for p in block])
        outcomes.append(_kernel(rows, images))
    return outcomes


def _domain_rows(S: OperatorSet, X):
    """``(exists, card, independent, images, keep)`` for the rows of ``X``
    (N, n) under ``S``, from one kernel call: existence, the kept-image count,
    the three-operator criterion (card <= 2, or every kept image past the
    anchor is a pivot), the images (m, n, N) of :func:`_images` and their keep mask."""
    (out,) = _outcomes([(S, X)])
    independent = (out.card <= 2) | ((out.pivots >= 0).sum(axis=0) == out.card)
    return out.exists, out.card, independent, out.images, out.keep


def cc_map_rows(pairs):
    """``cc_map(S, x)`` for every row ``x`` of every ``(S, X)`` in ``pairs``,
    each ``X`` a finite (N_i, n) array of one n, as ``(exists, centers)``,
    one row per input row in the order given; rows without a circumcenter
    have NaN centers.  Families of one size share one kernel call
    (:func:`_outcomes`), whose N = 1 case is :func:`cc_map`.  An all-affine
    family takes its images from its compiled maps (:func:`_images`), so
    they can differ from :func:`cc_map`'s in the last bits.  A row's answer
    does not depend on the other rows or families of the call.
    """
    outcomes = _outcomes(pairs)
    if len(outcomes) == 1 and isinstance(outcomes[0].rows, slice):
        exists, centers = outcomes[0].exists, outcomes[0].center.T.copy()
    else:
        total = sum(len(out.rows) for out in outcomes)
        exists = np.zeros(total, dtype=bool)
        centers = np.empty((total, outcomes[0].images.shape[1] if outcomes else 0))
        for out in outcomes:
            exists[out.rows], centers[out.rows] = out.exists, out.center.T
    centers[~exists] = np.nan
    return exists, centers


def classify_points(S: OperatorSet, X) -> np.ndarray:
    """``in_domain(S, x).in_domain`` for every row ``x`` of ``X`` (N, n), as a
    boolean array: the ``exists`` of :func:`cc_map_rows`, without its centers."""
    return _outcomes([(S, X)])[0].exists


def check_properness_sampled(S: OperatorSet, points) -> PropernessReport:
    """Evaluate the mapping on every sample, listing nonexistence points.

    For families of exactly three operators each sample is also cross-checked
    against the exact criterion (existence iff cardinality <= 2 or affine
    independence); mismatches indicate a numerical classification bug.  All
    samples go through one :func:`_domain_rows` call.
    """
    pts = [as_vector(x) for x in points]
    if not pts:
        return PropernessReport(checked=0)
    _check_same_dim(pts)
    exists, _, independent, _, _ = _domain_rows(S, np.array(pts))
    report = PropernessReport(len(pts), [pts[i] for i in np.flatnonzero(~exists)])
    if len(S) == 3:
        report.criterion_mismatches = [pts[i] for i in np.flatnonzero(independent != exists)]
    return report


def _residuals(S: OperatorSet, X) -> list:
    """||x - CC_S(x)|| for every row ``x`` of ``X`` (N, n), None where the
    image has no circumcenter, from one :func:`cc_map_rows` call."""
    exists, centers = cc_map_rows([(S, X)])
    return [float(np.linalg.norm(x - c)) if ok else None
            for x, c, ok in zip(X, centers, exists)]


def fixed_point_residual(S: OperatorSet, x) -> float | None:
    """Distance ||x - CC_S(x)||, or None when the image has no circumcenter."""
    return _residuals(S, as_vector(x)[None])[0]


def demiclosedness_probe(S: OperatorSet, sequence, limit=None) -> DemiclosednessReport:
    """Residuals along a sequence plus fixed-point membership of its limit.

    ``limit`` defaults to the last element; pass the analytic limit when it is
    known.  The membership threshold is ``100 EQ_TOL (1 + |limit|)``; vanishing
    is decided by :func:`residuals_vanish`.  The sequence and the limit go
    through one :func:`cc_map_rows` call.
    """
    seq = [as_vector(x) for x in sequence]
    if not seq:
        raise ValueError("sequence must be nonempty")
    limit = seq[-1] if limit is None else as_vector(limit)
    _check_same_dim(seq + [limit])
    *residuals, limit_residual = _residuals(S, np.array(seq + [limit]))
    if None in residuals:
        raise ValueError("sequence leaves the domain of the mapping")
    threshold = 100.0 * EQ_TOL * (1.0 + np.linalg.norm(limit))
    fixed = limit_residual is not None and limit_residual <= threshold
    return DemiclosednessReport(residuals, limit, limit_residual, fixed,
                                residuals_vanish(residuals))


def residuals_vanish(residuals) -> bool:
    """Whether the last of a nonempty list of fixed-point residuals is at
    most max(1e-6, 1/20 of the first): a qualitative trend check, not a
    convergence proof."""
    return residuals[-1] <= max(1e-6, 0.05 * residuals[0])


def relaxation(alpha: float, op: Operator) -> Operator:
    """The relaxation (1-alpha) Id + alpha op; ``op`` itself when alpha is 1."""
    if alpha == 1.0:
        return op
    return AffineComb(((1.0 - alpha, Identity()), (alpha, op)))


def relaxed_set(subspaces, alpha: float, projectors: bool = False) -> OperatorSet:
    """Family {Id} + {(1-alpha) Id + alpha R_U} (or with projectors P_U)."""
    node = ProjAffine if projectors else ReflAffine
    kind = "P" if projectors else "R"
    return OperatorSet.with_identity((relaxation(alpha, node(U)) for U in subspaces),
                                     f"relaxed-{kind}(alpha={alpha})")


def affine_comb_identity_check(subspaces, alpha: float, x, projectors: bool = False):
    """Evaluate the relaxation identity for {Id, (1-a)Id + a R_{U_i}}.

    Returns ``(got, predicted)`` where ``got`` is the circumcenter of the
    relaxed family's image and ``predicted`` is ``a*CC(x) + (1-a)*x`` for the
    unrelaxed reflector family (with ``a`` halved in the projector variant).
    """
    x = as_vector(x)
    base = OperatorSet.with_identity(map(ReflAffine, subspaces), "reflectors")
    relaxed = relaxed_set(subspaces, alpha, projectors)
    exists, centers = cc_map_rows([(relaxed, x[None]), (base, x[None])])
    if not exists[1]:
        raise ValueError("reflector family has no circumcenter at x; cannot form prediction")
    eff = alpha / 2.0 if projectors else alpha
    predicted = eff * centers[1] + (1.0 - eff) * x
    return (centers[0] if exists[0] else None), predicted


# -- samplers ------------------------------------------------------------------


def gaussian_cloud(dim: int, count: int, seed: int = 0, scale: float = 1.0):
    """Deterministic seeded Gaussian sample cloud."""
    rng = np.random.default_rng(seed)
    return list(scale * rng.standard_normal((count, dim)))


def subspace_probes(subspaces, count_per: int = 3, seed: int = 0, spread: float = 2.0):
    """Structured probes on each subspace (improper sets are often measure
    zero, so on-subspace points matter more than random clouds)."""
    rng = np.random.default_rng(seed)
    probes = []
    for U in subspaces:
        for _ in range(count_per):
            if U.dim == 0:
                probes.append(U.anchor.copy())
            else:
                coeff = spread * rng.standard_normal(U.dim)
                probes.append(U.anchor + U.basis.T @ coeff)
    return probes
