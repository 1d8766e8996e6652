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

import numpy as np

from .circumcenter import CircumcenterOutcome, PointSet, _exists_rows, circumcenter
from .geometry import EQ_TOL, as_vector
from .operators import (
    AffineComb,
    Identity,
    Operator,
    ProjAffine,
    ReflAffine,
    _common_dim,
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
    members pinning different dimensions are rejected, as by ``Compose``."""

    ops: tuple
    name: str = ""

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("an operator set must contain at least one operator")
        _common_dim(self, ops)
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

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
        return cls((Identity(), *(_word(ops[:k]) for k in range(1, len(ops) + 1))), name)


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
    """Pointwise domain membership with the cardinality/dependence breakdown."""
    images = evaluate_set(S, x)
    card = len(images)
    outcome = circumcenter(images)
    independent = card <= 2 or len(outcome.basis_indices) == card

    witness = None
    if card == 3 and not independent:
        pts = images.points
        D = (pts[1:] - pts[0]).T
        # Smallest right singular vector of [d2 d3] is a dependence witness.
        _, _, vt = np.linalg.svd(D, full_matrices=True)
        witness = (float(vt[-1, 0]), float(vt[-1, 1]))
    return DomainDiagnosis(outcome.exists, card, independent, witness)


def _images(S: OperatorSet, X) -> np.ndarray:
    """The images ``T x`` of every row ``x`` of ``X`` (N, n) under every
    operator of ``S``, stacked rows-last as (m, n, N)."""
    # np.array copies each transposed image in C order, so the row axis is
    # the contiguous one.
    images = np.array([apply(op, X).T for op in S])
    if not np.isfinite(images).all():
        raise ValueError("vector entries must be finite")
    return images


def cc_map_rows(pairs):
    """``cc_map(S, x)`` for every row ``x`` of every ``(S, X)`` in
    ``pairs``, each ``X`` an (N_i, n) array, as ``(exists, centers)``: a
    boolean array and an array of centers, one row per input row in the order
    given.  Rows without a circumcenter have NaN centers.

    Each family's images are evaluated for all its rows at once, and the
    images of families of one size go through one :func:`_exists_rows` call,
    the kernel whose N = 1 case is :func:`cc_map`; every row's answer is the
    pointwise answer.
    """
    pairs = [(S, np.asarray(X, dtype=float)) for S, X in pairs]
    for _, X in pairs:
        if X.ndim != 2:
            raise ValueError(f"expected an (N, n) array of points, got shape {X.shape}")
    X = np.concatenate([X for _, X in pairs]) if pairs else np.zeros((0, 0))
    owner = np.repeat(np.arange(len(pairs)), [len(Xi) for _, Xi in pairs])
    sizes = np.array([len(S) for S, _ in pairs], dtype=int)
    exists = np.zeros(len(X), dtype=bool)
    centers = np.empty_like(X.T)
    for m in np.unique(sizes):
        images = np.concatenate([_images(S, Xi) for S, Xi in pairs if len(S) == m], axis=2)
        rows = np.flatnonzero(sizes[owner] == m)
        exists[rows], centers[:, rows] = _exists_rows(images)[:2]
    centers = centers.T
    centers[~exists] = np.nan
    return exists, centers


def classify_points(S: OperatorSet, X) -> np.ndarray:
    """``in_domain(S, x).in_domain`` for every row ``x`` of ``X`` (N, n), as a
    boolean array: the ``exists`` column of :func:`cc_map_rows`."""
    return cc_map_rows([(S, X)])[0]


def check_properness_sampled(S: OperatorSet, points) -> PropernessReport:
    """Evaluate the mapping on every sample, listing nonexistence points.

    For families of exactly three operators each sample is also cross-checked
    against the exact criterion (existence iff cardinality <= 2 or affine
    independence); mismatches indicate a numerical classification bug.  All
    samples go through one kernel call.
    """
    pts = [as_vector(x) for x in points]
    if not pts:
        return PropernessReport(checked=0)
    exists, _, _, card, pivots = _exists_rows(_images(S, np.array(pts)))
    report = PropernessReport(checked=len(pts))
    report.counterexamples = [pts[i] for i in np.flatnonzero(~exists)]
    if len(S) == 3:
        independent = (card <= 2) | ((pivots >= 0).sum(axis=0) == card)
        report.criterion_mismatches = [pts[i] for i in np.flatnonzero(independent != exists)]
    return report


def fixed_point_residual(S: OperatorSet, x) -> float | None:
    """Distance ||x - CC_S(x)||, or None when the image has no circumcenter."""
    x = as_vector(x)
    outcome = cc_map(S, x)
    if not outcome.exists:
        return None
    return float(np.linalg.norm(x - outcome.center))


def demiclosedness_probe(S: OperatorSet, sequence, limit=None) -> DemiclosednessReport:
    """Residuals along a sequence plus fixed-point membership of its limit.

    ``limit`` defaults to the last element; pass the analytic limit when it is
    known.  The membership threshold is ``100 EQ_TOL (1 + |limit|)``; vanishing
    is decided by :func:`residuals_vanish`.
    """
    seq = [as_vector(x) for x in sequence]
    if not seq:
        raise ValueError("sequence must be nonempty")
    residuals = []
    for x in seq:
        r = fixed_point_residual(S, x)
        if r is None:
            raise ValueError("sequence leaves the domain of the mapping")
        residuals.append(r)
    limit = seq[-1] if limit is None else as_vector(limit)
    limit_residual = fixed_point_residual(S, limit)
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
    got = cc_map(relaxed, x)
    base_out = cc_map(base, x)
    if not base_out.exists:
        raise ValueError("reflector family has no circumcenter at x; cannot form prediction")
    eff = alpha / 2.0 if projectors else alpha
    predicted = eff * base_out.center + (1.0 - eff) * x
    if not got.exists:
        return None, predicted
    return got.center, predicted


# -- samplers ------------------------------------------------------------------


def gaussian_cloud(dim: int, count: int, seed: int = 0, scale: float = 1.0):
    """Deterministic seeded Gaussian sample cloud."""
    rng = np.random.default_rng(seed)
    return [scale * rng.standard_normal(dim) for _ in range(count)]


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
