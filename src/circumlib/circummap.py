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
from .geometry import DEFAULT_TOL, Tolerances, as_vector
from .operators import AffineComb, Identity, Operator, ProjAffine, ReflAffine, apply, reflector_word

__all__ = [
    "OperatorSet",
    "DomainDiagnosis",
    "PropernessReport",
    "DemiclosednessReport",
    "evaluate_set",
    "cc_map",
    "in_domain",
    "classify_points",
    "check_properness_sampled",
    "fixed_point_residual",
    "demiclosedness_probe",
    "relaxation",
    "relaxed_set",
    "affine_comb_identity_check",
    "gaussian_cloud",
    "subspace_probes",
]


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Ordered finite family of operators with an optional display name."""

    ops: tuple
    name: str = ""

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("an operator set must contain at least one operator")
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @classmethod
    def reflectors(cls, subspaces, name: str = "") -> "OperatorSet":
        """The family {Id, R_U1, ..., R_Um}."""
        return cls((Identity(), *(ReflAffine(U) for U in subspaces)), name)

    @classmethod
    def prefix_words(cls, subspaces, name: str = "") -> "OperatorSet":
        """The family {Id, R_U1, R_U2 R_U1, ..., R_Um ... R_U1} of the identity
        and the reflector words over the first k subspaces, k = 1..m."""
        subs = list(subspaces)
        words = (reflector_word(subs, range(1, k + 1)) for k in range(1, len(subs) + 1))
        return cls((Identity(), *words), name)


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


def evaluate_set(S: OperatorSet, x, tol: Tolerances = DEFAULT_TOL) -> PointSet:
    """Image set {T_1 x, ..., T_m x}, deduplicated."""
    x = as_vector(x)
    return PointSet([apply(op, x) for op in S], tol)


def cc_map(S: OperatorSet, x, tol: Tolerances = DEFAULT_TOL) -> CircumcenterOutcome:
    """Circumcenter of the image set; nonexistence is a value, not an error."""
    return circumcenter(evaluate_set(S, x, tol), tol)


def in_domain(S: OperatorSet, x, tol: Tolerances = DEFAULT_TOL) -> DomainDiagnosis:
    """Pointwise domain membership with the cardinality/dependence breakdown."""
    images = evaluate_set(S, x, tol)
    card = len(images)
    outcome = circumcenter(images, tol)
    independent = card <= 2 or len(outcome.basis_indices) == card

    witness = None
    if card == 3 and not independent:
        pts = images.points
        D = (pts[1:] - pts[0]).T
        # Smallest right singular vector of [d2 d3] is a dependence witness.
        _, _, vt = np.linalg.svd(D, full_matrices=True)
        witness = (float(vt[-1, 0]), float(vt[-1, 1]))
    return DomainDiagnosis(outcome.exists, card, independent, witness)


def classify_points(S: OperatorSet, X, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """``in_domain(S, x, tol).in_domain`` for every row ``x`` of ``X`` (N, n),
    as a boolean array.

    The images are evaluated for all rows at once, as an (N, m, n) array, and
    deduplicated, orthonormalized, solved and verified as arrays with the
    scalar path's thresholds.  A row whose decision comes within
    ``circumcenter.SETTLE_FACTOR`` of a threshold is decided by
    :func:`in_domain` itself, so every answer is the pointwise answer.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, n) array of points, got shape {X.shape}")
    images = np.stack([apply(op, X) for op in S], axis=1)
    if not np.all(np.isfinite(images)):
        raise ValueError("vector entries must be finite")
    inside, settled = _exists_rows(images, tol)
    for i in np.flatnonzero(~settled):
        inside[i] = in_domain(S, X[i], tol).in_domain
    return inside


def check_properness_sampled(
    S: OperatorSet, points, tol: Tolerances = DEFAULT_TOL
) -> PropernessReport:
    """Evaluate the mapping on every sample, listing nonexistence points.

    For families of exactly three operators each sample is also cross-checked
    against the exact criterion (existence iff cardinality <= 2 or affine
    independence); mismatches indicate a numerical classification bug.
    """
    report = PropernessReport(checked=0)
    for x in points:
        x = as_vector(x)
        diag = in_domain(S, x, tol)
        report.checked += 1
        if not diag.in_domain:
            report.counterexamples.append(x)
        if len(S) == 3:
            expected = diag.card <= 2 or diag.affinely_independent
            if expected != diag.in_domain:
                report.criterion_mismatches.append(x)
    return report


def fixed_point_residual(S: OperatorSet, x, tol: Tolerances = DEFAULT_TOL) -> float | None:
    """Distance ||x - CC_S(x)||, or None when the image has no circumcenter."""
    x = as_vector(x)
    outcome = cc_map(S, x, tol)
    if not outcome.exists:
        return None
    return float(np.linalg.norm(x - outcome.center))


def demiclosedness_probe(
    S: OperatorSet, sequence, tol: Tolerances = DEFAULT_TOL, limit=None
) -> DemiclosednessReport:
    """Residuals along a sequence plus fixed-point membership of its limit.

    ``limit`` defaults to the last element; pass the analytic limit when it is
    known.  The membership threshold is ``100 eq_tol (1 + |limit|)``; vanishing
    is reported when the final residual drops below max(1e-6, 1/20 of the
    first) -- a qualitative trend check, not a convergence proof.
    """
    seq = [as_vector(x) for x in sequence]
    if not seq:
        raise ValueError("sequence must be nonempty")
    residuals = []
    for x in seq:
        r = fixed_point_residual(S, x, tol)
        if r is None:
            raise ValueError("sequence leaves the domain of the mapping")
        residuals.append(r)
    limit = seq[-1] if limit is None else as_vector(limit)
    limit_residual = fixed_point_residual(S, limit, tol)
    threshold = 100.0 * tol.eq_tol * (1.0 + np.linalg.norm(limit))
    fixed = limit_residual is not None and limit_residual <= threshold
    vanish = residuals[-1] <= max(1e-6, 0.05 * residuals[0])
    return DemiclosednessReport(residuals, limit, limit_residual, fixed, vanish)


def relaxation(alpha: float, op: Operator) -> Operator:
    """The relaxation (1-alpha) Id + alpha op; ``op`` itself when alpha is 1."""
    if alpha == 1.0:
        return op
    return AffineComb(((1.0 - alpha, Identity()), (alpha, op)))


def relaxed_set(subspaces, alpha: float, projectors: bool = False) -> OperatorSet:
    """Family {Id} + {(1-alpha) Id + alpha R_U} (or with projectors P_U)."""
    node = ProjAffine if projectors else ReflAffine
    ops = (Identity(), *(relaxation(alpha, node(U)) for U in subspaces))
    kind = "P" if projectors else "R"
    return OperatorSet(ops, name=f"relaxed-{kind}(alpha={alpha})")


def affine_comb_identity_check(
    subspaces, alpha: float, x, tol: Tolerances = DEFAULT_TOL, projectors: bool = False
):
    """Evaluate the relaxation identity for {Id, (1-a)Id + a R_{U_i}}.

    Returns ``(got, predicted)`` where ``got`` is the circumcenter of the
    relaxed family's image and ``predicted`` is ``a*CC(x) + (1-a)*x`` for the
    unrelaxed reflector family (with ``a`` halved in the projector variant).
    """
    x = as_vector(x)
    base = OperatorSet.reflectors(subspaces, "reflectors")
    relaxed = relaxed_set(subspaces, alpha, projectors)
    got = cc_map(relaxed, x, tol)
    base_out = cc_map(base, x, tol)
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
