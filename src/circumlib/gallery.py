"""Named catalog of worked circumcenter-mapping scenarios with automated
verifiers.

Each scenario packages a construction (an operator family over concrete sets)
together with its expected behaviour: a closed-form map, a domain
characterization, an improperness criterion over a parameter grid, a sequence
with a known limit, a benchmark iteration-count row, or a fixed-point-set
claim.  ``verify`` replays the expectation on structured plus seeded random
probes and reports every deviation; scenario names are the stable identifiers
consumed by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circumcenter import _dedup, circumcenter_three
from .circummap import (
    OperatorSet,
    _residuals,
    cc_map_rows,
    classify_points,
    gaussian_cloud,
    relaxation,
    residuals_vanish,
)
from .geometry import RANK_TOL, _row_norms
from .operators import (
    AffineComb,
    AffineSubspace,
    Ball,
    Compose,
    Constant,
    Identity,
    ProjAffine,
    ProjBall,
    ProjBox,
    ProjSphere,
    ReflAffine,
    ScaledId,
    apply,
    intersect_affine,
    reflected_resolvent_const,
    reflected_resolvent_scaled_id,
    reflector_of,
)
from .solvers import REFERENCE_COUNTS, run_benchmark

__all__ = [
    "Scenario",
    "VerificationReport",
    "ClosedFormMap",
    "DomainSpec",
    "ImpropernessIff",
    "SequenceLimit",
    "IterationCounts",
    "FixedPointSpec",
    "ProbeGrid",
    "ScenarioNotFoundError",
    "catalog",
    "scenario",
    "verify",
    "verify_all",
    "verify_scenario",
    "domain_probe",
]


class ScenarioNotFoundError(KeyError):
    """No scenario with the requested name exists in the catalog."""


# -- expectation kinds ---------------------------------------------------------

SEQUENCE_CHECK_TOL = 1e-9  # largest relative deviation of a SequenceLimit center
LIMIT_RESIDUAL_TOL = 1e-6  # largest deviation of a SequenceLimit limit residual
FIXED_POINT_SEPARATION = 1e-3  # smallest residual of a FixedPointSpec not-fixed probe


@dataclass
class ClosedFormMap:
    """Expected values at the probes: ``reference(X)`` maps the (N, dim)
    probe rows to the (N, dim) expected circumcenters, with a NaN row where
    no circumcenter is expected, as :func:`cc_map_rows` does."""

    reference: object
    probes: object
    check_tol: float = 1e-9


@dataclass
class DomainSpec:
    """Membership predicate checked on probes kept away from the boundary of
    the described sets."""

    member: object
    probes: object


@dataclass
class ImpropernessIff:
    """Sampled improperness over a parameter grid must match the predicate;
    every family of the grid is sampled at the same ``samples(seed)``.
    ``build`` runs for every verify, and the catalog's grids build their
    families there from member nodes built once, one per parameter value,
    so that families of one grid share nodes but nothing outlives a verify."""

    predicate: object
    grid: list
    build: object
    samples: object


@dataclass
class SequenceLimit:
    """A sequence with known mapping values and a known (possibly
    discontinuous) limit behaviour.  Fields left as None are not checked;
    centers are checked to :data:`SEQUENCE_CHECK_TOL` and the limit residual
    to :data:`LIMIT_RESIDUAL_TOL`."""

    points: list
    cc_values: object = None
    limit: np.ndarray | None = None
    limit_residual: float | None = None
    map_at_limit: np.ndarray | None = None
    expect_vanishing: bool | None = None


@dataclass
class IterationCounts:
    """A benchmark table row (per-method iteration counts at calibrated eps)."""

    table: str


@dataclass
class FixedPointSpec:
    """Points that must be fixed, probes that must not be (their residuals
    exceed :data:`FIXED_POINT_SEPARATION`), and probes where the mapping must
    at least exist."""

    fixed: list
    not_fixed: object
    proper_probes: object = None


@dataclass
class Scenario:
    name: str
    dim: int
    description: str
    expected: object
    operator_set: OperatorSet | None = None


@dataclass
class VerificationReport:
    """The checks of one scenario: how many ran, the largest deviation any
    of them recorded (NaN deviations are skipped), and an ``(input,
    expected, got)`` triple per failed check, in check order.  A kind checks
    all its probes as arrays and records them in one :meth:`record_rows`
    call; :meth:`record` records one check."""

    scenario: str
    checks: int = 0
    max_deviation: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, deviation: float, ok: bool, inp, expected, got):
        self.checks += 1
        self.max_deviation = max(self.max_deviation, float(deviation))
        if not ok:
            self.failures.append((inp, expected, got))

    def record_rows(self, deviations, ok, failure):
        """:meth:`record` for every check i of the (N,) deviations and the
        (N,) boolean array ``ok``, in order; ``failure(i)`` gives the
        ``(input, expected, got)`` of a failed check i."""
        self.checks += len(ok)
        # the builtin max folds left and skips NaN, as repeated record calls do
        deviations = np.asarray(deviations, dtype=float).tolist()
        self.max_deviation = max([self.max_deviation, *deviations])
        self.failures += [failure(i) for i in (~ok).nonzero()[0].tolist()]


# -- shared constructions --------------------------------------------------------

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
X_AXIS = AffineSubspace.span(E1)
Y_AXIS = AffineSubspace.span(E2)
DIAGONAL = AffineSubspace.span(np.array([1.0, 1.0]))


def _line_points(U: AffineSubspace, coeffs):
    return [U.anchor + float(c) * U.basis[0] for c in coeffs]


def _image_stack(S: OperatorSet, X) -> np.ndarray:
    """The images of the rows of ``X`` (N, n) under every member of ``S``,
    by a tree walk, as (N, m, n)."""
    return np.stack([apply(op, X) for op in S], axis=1)


def _hull_projection(Y, Z) -> np.ndarray:
    """P_{aff(Y_r)}(Z_r) for every row r of the image stack ``Y`` (N, m, n)
    and the points ``Z`` (N, n).  numpy's SVD decides the hull's rank (the
    ``rcond`` cutoff, which numpy 1.x also has), so this path shares nothing
    with the kernel's Gram-Schmidt."""
    anchor = Y[:, 0]
    A = np.swapaxes(Y[:, 1:] - anchor[:, None], 1, 2)
    coef = np.linalg.pinv(A, rcond=RANK_TOL) @ (Z - anchor)[..., None]
    return anchor + (A @ coef)[..., 0]


def _hull_projection_reference(S: OperatorSet, subspaces):
    """Reference rows P_{aff(S(x))}(P_{cap U_i} x) for identity-containing
    reflector-word families."""
    meet = intersect_affine(subspaces)
    return lambda X: _hull_projection(_image_stack(S, X), meet.project(X))


# -- catalog -----------------------------------------------------------------


def _build_catalog() -> list[Scenario]:
    scenarios: list[Scenario] = []

    def add(name, dim, description, expected, operator_set=None):
        scenarios.append(Scenario(name, dim, description, expected, operator_set))

    # --- identity/reflector families with global closed forms
    U_line = AffineSubspace.span(np.array([1.0, 2.0]))
    U_perp = U_line.orthogonal_complement()
    S_zero = OperatorSet.with_identity(map(ReflAffine, (U_line, U_perp)), "id-reflector-pair")
    add(
        "reflectors-zero",
        2,
        "identity with the reflectors of a line and its orthogonal complement; "
        "the mapping is identically zero",
        ClosedFormMap(
            reference=np.zeros_like,
            probes=lambda seed: gaussian_cloud(2, 12, seed, 2.0)
            + _line_points(U_line, [-2, 1, 3])
            + _line_points(U_perp, [-1, 2]),
        ),
        S_zero,
    )

    U_half = AffineSubspace.span(np.array([3.0, 1.0]))
    S_half = OperatorSet.with_identity(
        (ProjAffine(U_half), ProjAffine(U_half.orthogonal_complement()), Constant(np.zeros(2))),
        "projector-quadruple",
    )
    add(
        "projector-half",
        2,
        "identity, complementary projectors and the zero map send x to x/2",
        ClosedFormMap(
            reference=lambda X: 0.5 * X,
            probes=lambda seed: gaussian_cloud(2, 12, seed, 2.0) + _line_points(U_half, [1.5, -2]),
        ),
        S_half,
    )

    # --- a proper continuous mapping with an explicit closed form:
    # T3 folds the plane vertically onto the line y = -(x-2)/4.
    fold_line = AffineSubspace.span(np.array([1.0, -0.25]))
    T3 = AffineComb(
        (
            (17.0 / 16.0, Compose((ProjAffine(fold_line), ProjAffine(X_AXIS)))),
            (-1.0 / 16.0, Constant(np.array([0.0, -8.0]))),
        )
    )
    add(
        "mirror-fold-line",
        2,
        "identity, mirror across the y-axis, and a vertical fold onto a line; "
        "proper and continuous with closed form (0, (y - (x-2)/4)/2)",
        ClosedFormMap(
            reference=lambda X: np.column_stack(
                [np.zeros(len(X)), 0.5 * (X[:, 1] - 0.25 * (X[:, 0] - 2.0))]),
            probes=lambda seed: gaussian_cloud(2, 12, seed, 2.0)
            + [np.array([0.0, 1.0]), np.array([2.0, 0.0]), np.array([3.0, -0.25])],
        ),
        OperatorSet.with_identity((ReflAffine(Y_AXIS), T3), "mirror-fold"),
    )

    def _const_pair_reference(X):
        x = X[:, 0]
        y = np.where(x == 2.0, 0.0, -2.0 * (x + 2.0) - (x - 2.0) / 8.0)
        return np.column_stack([np.zeros(len(X)), y])

    add(
        "const-pair-fold",
        2,
        "two constants and the vertical fold; proper but discontinuous at x=2",
        ClosedFormMap(
            reference=_const_pair_reference,
            probes=lambda seed: gaussian_cloud(2, 10, seed, 2.0)
            + [np.array([2.0, y]) for y in (-1.0, 0.0, 3.0)]
            + [np.array([2.0 - 1.0 / k, 0.0]) for k in (1, 2, 5, 10)],
        ),
        OperatorSet(
            (Constant(np.array([2.0, 0.0])), Constant(np.array([-2.0, 0.0])), T3),
            name="const-pair-fold",
        ),
    )

    # --- demiclosedness failure: residuals vanish along a sequence whose
    # limit is not a fixed point.
    L = AffineSubspace.from_spanning(np.array([0.0, 0.5]), [np.array([4.0, -1.0])])
    S_demi = OperatorSet(
        (Constant(np.array([-2.0, 0.0])), Constant(np.array([2.0, 0.0])), ProjAffine(L)),
        name="demiclosedness",
    )
    demi_points = [np.array([1.0 / k, -1.0 / (4.0 * k) - 8.0]) for k in range(1, 101)]
    add(
        "demiclosedness-fails",
        2,
        "two constants and a line projector: residuals vanish along x_k but "
        "the limit (0,-8) sits at residual 8",
        SequenceLimit(
            points=demi_points,
            cc_values=lambda x: np.array([0.0, -8.0 - 17.0 * x[0] / 8.0]),
            limit=np.array([0.0, -8.0]),
            limit_residual=8.0,
            map_at_limit=np.array([0.0, 0.0]),
            expect_vanishing=True,
        ),
        S_demi,
    )

    # --- scaled identity with the two axis reflectors
    for alpha, name, member in (
        (0.0, "scaled-id-axes-zero", lambda x: bool(np.linalg.norm(x) == 0.0)),
        (1.0, "scaled-id-axes-unit", lambda x: True),
        (-1.0, "scaled-id-axes-neg", lambda x: True),
        (
            2.0,
            "scaled-id-axes-generic",
            lambda x: bool(np.linalg.norm(x) == 0.0 or (x[0] != 0.0 and x[1] != 0.0)),
        ),
    ):
        add(
            name,
            2,
            f"scaled identity (factor {alpha}) with both axis reflectors",
            DomainSpec(
                member=member,
                probes=lambda seed: [
                    np.zeros(2),
                    np.array([1.0, 0.0]),
                    np.array([-2.5, 0.0]),
                    np.array([0.0, 1.5]),
                    np.array([0.0, -0.5]),
                    np.array([1.0, 1.0]),
                    np.array([-1.5, 2.0]),
                ]
                + [p for p in gaussian_cloud(2, 8, seed, 2.0) if min(abs(p[0]), abs(p[1])) > 0.05],
            ),
            OperatorSet(
                (ScaledId(alpha), ReflAffine(X_AXIS), ReflAffine(Y_AXIS)),
                name=f"scaled-id-{alpha}",
            ),
        )

    # --- three disjoint ball projectors: no common fixed point, yet the
    # mapping is proper and fixes exactly the origin.
    S_balls = OperatorSet(
        (
            ProjBall(Ball(np.array([-2.0, 0.0]), 1.0)),
            ProjBall(Ball(np.array([0.0, 2.0]), 1.0)),
            ProjBall(Ball(np.array([2.0, 0.0]), 1.0)),
        ),
        name="three-ball-projectors",
    )
    add(
        "ball-projector-fix",
        2,
        "three disjoint ball projectors: proper, empty common fixed set, "
        "mapping fixes exactly the origin",
        FixedPointSpec(
            fixed=[np.zeros(2)],
            not_fixed=lambda seed: [
                p for p in gaussian_cloud(2, 10, seed, 2.0) if np.linalg.norm(p) > 0.3
            ],
            proper_probes=lambda seed: gaussian_cloud(2, 20, seed, 2.0),
        ),
        S_balls,
    )

    # --- identity-containing reflector-word families: the mapping projects
    # the (any) common point onto the affine hull of the image family.
    A1 = AffineSubspace.from_spanning(
        np.zeros(3), [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0])]
    )
    A2 = AffineSubspace.span(np.array([1.0, 1.0, 1.0]))
    A3 = AffineSubspace.hyperplane(np.array([1.0, -1.0, 0.0]), 0.0)

    S_words = OperatorSet.with_identity(map(ReflAffine, (A1, A2, A3)), "id-all-reflectors")
    add(
        "reflector-words-m",
        3,
        "identity with one reflector per subspace",
        ClosedFormMap(
            reference=_hull_projection_reference(S_words, [A1, A2, A3]),
            probes=lambda seed: gaussian_cloud(3, 12, seed, 2.0),
        ),
        S_words,
    )

    S_cycle = OperatorSet.with_identity(
        (Compose((ReflAffine(V), ReflAffine(U))) for U, V in ((A1, A2), (A2, A3), (A3, A1))),
        "cycle-words",
    )
    add(
        "reflector-cycle-words",
        3,
        "identity with the three cyclic two-letter reflector words",
        ClosedFormMap(
            reference=_hull_projection_reference(S_cycle, [A1, A2, A3]),
            probes=lambda seed: gaussian_cloud(3, 10, seed, 2.0),
        ),
        S_cycle,
    )

    S_cdrm = OperatorSet.prefix_words(map(ReflAffine, (X_AXIS, DIAGONAL)), "cdrm")
    add(
        "cdrm-words",
        2,
        "identity, one reflector, and the two-letter word over two lines",
        ClosedFormMap(
            reference=_hull_projection_reference(S_cdrm, [X_AXIS, DIAGONAL]),
            probes=lambda seed: gaussian_cloud(2, 12, seed, 2.0)
            + _line_points(X_AXIS, [1.0, -2.0]),
        ),
        S_cdrm,
    )

    # prefix words over affine (non-linear) subspaces with a common point
    z0 = np.array([1.0, -1.0, 2.0])
    B1 = AffineSubspace.from_spanning(z0, [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    B2 = AffineSubspace.from_spanning(z0, [np.array([1.0, 1.0, 1.0])])
    B3 = AffineSubspace.hyperplane(np.array([0.0, 1.0, 1.0]), float(np.array([0.0, 1.0, 1.0]) @ z0))
    S_prefix = OperatorSet.prefix_words(map(ReflAffine, (B1, B2, B3)), "prefix-words")
    add(
        "crm-prefix-words",
        3,
        "identity with the nested prefix words over three affine subspaces "
        "through a common off-origin point",
        ClosedFormMap(
            reference=_hull_projection_reference(S_prefix, [B1, B2, B3]),
            probes=lambda seed: gaussian_cloud(3, 10, seed, 2.0),
        ),
        S_prefix,
    )

    S_dr = OperatorSet.with_identity((Compose((ReflAffine(DIAGONAL), ReflAffine(X_AXIS))),),
                                     "dr-pair")
    add(
        "dr-midpoint",
        2,
        "identity with a double reflection: the mapping is the averaged "
        "double-reflection (Douglas-Rachford) operator",
        ClosedFormMap(
            reference=lambda X: 0.5 * (X + apply(S_dr.ops[1], X)),
            probes=lambda seed: gaussian_cloud(2, 12, seed, 2.0),
            check_tol=1e-12,
        ),
        S_dr,
    )

    S_two = OperatorSet.with_identity(map(ReflAffine, (X_AXIS, DIAGONAL)), "two-reflectors")
    add(
        "two-reflectors-collapse",
        2,
        "on either line the mapping collapses to the projector onto the "
        "other line",
        ClosedFormMap(
            reference=lambda X: np.array([
                DIAGONAL.project(x) if X_AXIS.contains(x) else X_AXIS.project(x) for x in X
            ]).reshape(X.shape),
            probes=lambda seed: _line_points(X_AXIS, [-2.0, 1.0, 4.0])
            + _line_points(DIAGONAL, [-1.5, 0.5, 3.0]),
        ),
        S_two,
    )

    U_skew = AffineSubspace.span(np.array([2.0, 1.0]))
    S_four = OperatorSet.with_identity(
        (ReflAffine(X_AXIS), ReflAffine(U_skew), Compose((ReflAffine(U_skew), ReflAffine(X_AXIS)))),
        "four-words",
    )

    four_meet = intersect_affine([X_AXIS, U_skew])

    def _four_reference(X):
        Y = _image_stack(S_four, X)
        want = _hull_projection(Y, four_meet.project(X))
        # the images PointSet keeps: one, two or three take their own form
        keep = _dedup(Y.transpose(1, 2, 0))[0].T
        for r in np.flatnonzero(keep.sum(axis=1) < 4):
            pts = Y[r, keep[r]]
            if len(pts) == 3:
                center = circumcenter_three(*pts).center
                want[r] = np.nan if center is None else center
            else:  # the point itself, or the midpoint of two
                want[r] = pts.mean(axis=0)
        return want

    add(
        "four-word-cases",
        2,
        "identity, two reflectors and their composition: the image cardinality "
        "decides midpoint, three-point, or hull-projection form",
        ClosedFormMap(
            reference=_four_reference,
            probes=lambda seed: gaussian_cloud(2, 10, seed, 2.0)
            + [np.zeros(2)]
            + _line_points(X_AXIS, [1.0, -3.0])
            + _line_points(U_skew, [1.0, 2.0]),
        ),
        S_four,
    )

    # --- relaxation identities
    relax_subs = [X_AXIS, AffineSubspace.span(np.array([1.0, 3.0]))]
    S_base_relax = OperatorSet.with_identity(map(ReflAffine, relax_subs), "relax-base")
    alpha0 = 2.0
    S_relaxed = OperatorSet.with_identity(
        (relaxation(alpha0, ReflAffine(U)) for U in relax_subs), "relaxed-reflectors"
    )
    add(
        "relaxed-reflectors-identity",
        2,
        "relaxed reflectors: the mapping equals alpha*CC(x) + (1-alpha)*x",
        ClosedFormMap(
            reference=lambda X: alpha0 * cc_map_rows([(S_base_relax, X)])[1]
            + (1.0 - alpha0) * X,
            probes=lambda seed: gaussian_cloud(2, 10, seed, 2.0),
        ),
        S_relaxed,
    )

    proj_subs = [
        AffineSubspace.span(np.array([1.0, 0.0, 0.0])),
        AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0),
        AffineSubspace.span(np.array([0.0, 1.0, -1.0])),
    ]
    S_base_proj = OperatorSet.with_identity(map(ReflAffine, proj_subs), "projectors-base")
    S_projectors = OperatorSet.with_identity(map(ProjAffine, proj_subs), "id-all-projectors")
    add(
        "projectors-all-proper",
        3,
        "identity with one projector per subspace equals the half relaxation "
        "of the reflector mapping",
        ClosedFormMap(
            reference=lambda X: 0.5 * cc_map_rows([(S_base_proj, X)])[1] + 0.5 * X,
            probes=lambda seed: gaussian_cloud(3, 10, seed, 2.0),
        ),
        S_projectors,
    )

    T_dr = AffineComb(
        ((0.5, Identity()), (0.5, Compose((ReflAffine(DIAGONAL), ReflAffine(X_AXIS)))))
    )
    S_powers = OperatorSet.prefix_words((T_dr, T_dr), "dr-powers")
    add(
        "dr-powers-proper",
        2,
        "identity with the averaged double-reflection operator and its square",
        DomainSpec(
            member=lambda x: True,
            probes=lambda seed: gaussian_cloud(2, 20, seed, 2.0)
            + _line_points(X_AXIS, [1.0, -2.0])
            + _line_points(DIAGONAL, [0.5, 2.0]),
        ),
        S_powers,
    )

    # --- improperness criteria over parameter grids (same line twice)
    GRID = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    U_same = X_AXIS
    relaxed_refl = {a: relaxation(a, ReflAffine(U_same)) for a in GRID}
    relaxed_proj = {a: relaxation(a, ProjAffine(U_same)) for a in GRID}

    def _off_line_samples(seed):
        return [np.array([0.3, 1.7]), np.array([-1.2, 0.4])] + [
            p for p in gaussian_cloud(2, 4, seed, 2.0) if abs(p[1]) > 0.1
        ]

    add(
        "relaxed-same-line-iff",
        2,
        "two relaxations of the same line reflector: improper exactly when "
        "both are active and distinct",
        ImpropernessIff(
            predicate=lambda a: a[0] != 0.0 and a[1] != 0.0 and a[1] != a[0],
            grid=[(a1, a2) for a1 in GRID for a2 in GRID],
            build=lambda a: OperatorSet.with_identity(
                (relaxed_refl[ai] for ai in a), f"relaxed-same-line{a}"
            ),
            samples=_off_line_samples,
        ),
    )

    def _composed_pred(a):
        a1, a2 = a
        if a1 in (0.0, 0.5) or a2 == 0.0:
            return False
        return a2 != a1 / (2.0 * a1 - 1.0)

    add(
        "relaxed-composed-iff",
        2,
        "a relaxation and the composition of two relaxations of one line "
        "reflector: improperness criterion over the parameter grid",
        ImpropernessIff(
            predicate=_composed_pred,
            grid=[(a1, a2) for a1 in GRID for a2 in GRID],
            build=lambda a: OperatorSet.prefix_words(
                (relaxed_refl[ai] for ai in a), f"relaxed-composed{a}"
            ),
            samples=_off_line_samples,
        ),
    )

    def _proj_comp_pred(a):
        a1, a2 = a
        if a1 in (0.0, 1.0) or a2 == 0.0:
            return False
        return a2 != a1 / (a1 - 1.0)

    add(
        "relaxed-projectors-same-line-iff",
        2,
        "projector variant of the composed relaxation criterion",
        ImpropernessIff(
            predicate=_proj_comp_pred,
            grid=[(a1, a2) for a1 in GRID for a2 in GRID],
            build=lambda a: OperatorSet.prefix_words(
                (relaxed_proj[ai] for ai in a), f"relaxed-proj-composed{a}"
            ),
            samples=_off_line_samples,
        ),
    )

    # --- improper projector-word families
    U12 = AffineSubspace.span(np.array([1.0, 2.0]))
    PP = Compose((ProjAffine(U12), ProjAffine(X_AXIS)))
    S_colinear = OperatorSet.prefix_words((PP, PP), "projector-colinear")
    add(
        "projector-colinear-escape",
        2,
        "identity with a projector word and its square: escapes exactly on "
        "the second line (images there are distinct and colinear)",
        DomainSpec(
            member=lambda x: not (
                abs(2.0 * x[0] - x[1]) < 1e-9 and np.linalg.norm(x) > 1e-9
            ),
            probes=lambda seed: [
                np.array([2.0, 4.0]),
                np.array([-1.0, -2.0]),
                np.array([0.5, 1.0]),
                np.zeros(2),
                np.array([1.0, 1.0]),
                np.array([3.0, -2.0]),
                np.array([1.0, 0.0]),
            ],
        ),
        S_colinear,
    )

    S_noncolinear = OperatorSet.with_identity(
        (ProjAffine(X_AXIS), ProjAffine(DIAGONAL),
         Compose((ProjAffine(DIAGONAL), ProjAffine(X_AXIS)))),
        "projector-noncolinear",
    )
    escape_ray = np.array([4.0, 2.0])
    add(
        "projector-noncolinear-escape",
        2,
        "identity with two projectors and their composition: the ray through "
        "(4,2) escapes the domain",
        DomainSpec(
            member=lambda x: not (
                abs(x[0] * escape_ray[1] - x[1] * escape_ray[0]) < 1e-9
                and np.dot(x, escape_ray) != 0.0
            ),
            probes=lambda seed: [
                np.array([4.0, 2.0]),
                np.array([8.0, 4.0]),
                np.array([-4.0, -2.0]),
                np.array([1.0, 0.0]),
                np.array([3.0, 0.0]),
                np.array([1.0, 1.0]),
                np.array([0.0, 5.0]),
                np.zeros(2),
            ],
        ),
        S_noncolinear,
    )

    # --- inconsistent pair: a point and a line that miss each other
    U_pt = AffineSubspace.point(np.array([2.0, 0.0]))
    S1_inc = OperatorSet.with_identity(map(ReflAffine, (U_pt, Y_AXIS)), "point-line-s1")
    S2_inc = OperatorSet.prefix_words(map(ReflAffine, (U_pt, Y_AXIS)), "point-line-s2")

    def _inc_probes(seed):
        axis = [np.array([x, 0.0]) for x in (-3.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0)]
        off = [p for p in gaussian_cloud(2, 8, seed, 2.0) if abs(p[1]) > 0.1]
        return axis + off + [np.array([1.0, 2.0]), np.array([0.0, -2.0])]

    add(
        "point-line-inconsistent-s1",
        2,
        "reflectors of a point and a disjoint line: the horizontal axis "
        "escapes except at two exceptional points",
        DomainSpec(
            member=lambda x: abs(x[1]) > 1e-9 or x[0] in (2.0, 0.0),
            probes=_inc_probes,
        ),
        S1_inc,
    )
    add(
        "point-line-inconsistent-s2",
        2,
        "same pair with the composed word: exceptional points move to (2,0) "
        "and (4,0)",
        DomainSpec(
            member=lambda x: abs(x[1]) > 1e-9 or x[0] in (2.0, 4.0),
            probes=_inc_probes,
        ),
        S2_inc,
    )

    # --- nonnegative quadrant (box) against a vertical line
    quadrant = ProjBox(np.zeros(2), np.array([np.inf, np.inf]))
    vline = AffineSubspace.from_spanning(np.array([2.0, 0.0]), [E2])
    cone_line = (reflector_of(quadrant), ReflAffine(vline))
    S1_cone = OperatorSet.with_identity(cone_line, "cone-line-s1")
    S2_cone = OperatorSet.prefix_words(cone_line, "cone-line-s2")

    def _cone_probes(seed):
        fixed = [
            np.array([-1.0, 1.0]),
            np.array([-3.0, 0.2]),
            np.array([-0.5, 4.0]),
            np.array([1.0, 1.0]),
            np.array([0.5, -1.0]),
            np.array([-1.0, -1.0]),
            np.array([3.0, 2.0]),
            np.array([-2.0, -0.3]),
        ]
        rand = [
            p
            for p in gaussian_cloud(2, 8, seed, 2.0)
            if abs(p[0]) > 0.1 and abs(p[1]) > 0.1 and abs(p[0] + 2.0) > 0.1
        ]
        return fixed + rand

    add(
        "cone-line-s1",
        2,
        "quadrant reflector against a vertical line: the second quadrant "
        "escapes",
        DomainSpec(
            member=lambda x: not (x[0] < 0.0 and x[1] >= 0.0),
            probes=_cone_probes,
        ),
        S1_cone,
    )
    add(
        "cone-line-s2",
        2,
        "composed variant: the vertical ray at x=-2 rejoins the domain",
        DomainSpec(
            member=lambda x: (not (x[0] < 0.0 and x[1] >= 0.0)) or (x[0] == -2.0 and x[1] >= 0.0),
            probes=lambda seed: _cone_probes(seed)
            + [np.array([-2.0, 0.0]), np.array([-2.0, 1.0]), np.array([-2.0, 3.0])],
        ),
        S2_cone,
    )

    # --- balls against lines / other balls: escape sets live on the x-axis
    def _axis_domain(name, S, member, xs, dim_note, off_axis=True):
        def probes(seed, xs=xs, off_axis=off_axis):
            axis = [np.array([x, 0.0]) for x in xs]
            off = gaussian_cloud(2, 6, seed, 2.0) if off_axis else []
            return axis + [p for p in off if abs(p[1]) > 0.1]

        add(name, 2, dim_note, DomainSpec(member=member, probes=probes), S)

    unit_ball = Ball(np.zeros(2), 1.0)
    line_x1 = AffineSubspace.from_spanning(np.array([1.0, 0.0]), [E2])
    ball_line = (reflector_of(ProjBall(unit_ball)), ReflAffine(line_x1))
    S1_bl = OperatorSet.with_identity(ball_line, "ball-line-s1")
    S2_bl = OperatorSet.prefix_words(ball_line, "ball-line-s2")
    _axis_domain(
        "ball-line-s1",
        S1_bl,
        lambda x: abs(x[1]) > 1e-9 or x[0] >= -1.0,
        (-4.0, -2.0, -1.0, -0.5, 0.5, 2.0, 5.0),
        "unit ball against the line x=1: the axis escapes left of the ball",
    )
    _axis_domain(
        "ball-line-s2",
        S2_bl,
        lambda x: abs(x[1]) > 1e-9 or x[0] >= -1.0 or x[0] == -3.0,
        (-5.0, -3.0, -2.0, -1.0, -0.5, 0.5, 2.0, 5.0),
        "composed variant: x=-3 rejoins the domain",
    )

    ball_line_origin = (reflector_of(ProjBall(unit_ball)), ReflAffine(Y_AXIS))
    S1_blo = OperatorSet.with_identity(ball_line_origin, "ball-line-origin-s1")
    S2_blo = OperatorSet.prefix_words(ball_line_origin, "ball-line-origin-s2")
    _axis_domain(
        "ball-line-origin-s1",
        S1_blo,
        lambda x: abs(x[1]) > 1e-9 or abs(x[0]) <= 1.0,
        (-4.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 4.0),
        "unit ball against the y-axis: the axis escapes outside the ball",
    )
    _axis_domain(
        "ball-line-origin-s2",
        S2_blo,
        lambda x: abs(x[1]) > 1e-9 or abs(x[0]) <= 1.0 or abs(x[0]) == 2.0,
        (-4.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 4.0),
        "composed variant: x=+-2 rejoins the domain",
    )

    ball_l = Ball(np.array([-1.0, 0.0]), 1.0)
    ball_r = Ball(np.array([1.0, 0.0]), 1.0)
    ball_ball = [reflector_of(ProjBall(b)) for b in (ball_l, ball_r)]
    S1_bb = OperatorSet.with_identity(ball_ball, "ball-ball-s1")
    S2_bb = OperatorSet.prefix_words(ball_ball, "ball-ball-s2")
    _axis_domain(
        "ball-ball-s1",
        S1_bb,
        lambda x: abs(x[1]) > 1e-9 or abs(x[0]) <= 2.0,
        (-4.0, -2.5, -2.0, -1.0, 0.0, 1.5, 2.0, 2.5, 4.0),
        "two touching unit balls: the axis escapes outside their hull",
    )
    # the composed two-ball variants state inclusions only
    _axis_domain(
        "ball-ball-s2-inclusions",
        S2_bb,
        lambda x: x[0] >= -2.0 or -6.0 <= x[0] <= -4.0,
        (-7.0, -6.0, -5.0, -4.0, -3.5, -3.0, -2.5, -2.0, -1.0, 0.0, 1.0, 3.0),
        "composed two-ball variant, stated membership on the axis only",
        off_axis=False,
    )

    ball_lw = Ball(np.array([-1.0, 0.0]), 2.0)
    ball_rw = Ball(np.array([1.0, 0.0]), 2.0)
    ball_ball_wide = [reflector_of(ProjBall(b)) for b in (ball_lw, ball_rw)]
    S1_bbw = OperatorSet.with_identity(ball_ball_wide, "ball-ball-wide-s1")
    S2_bbw = OperatorSet.prefix_words(ball_ball_wide, "ball-ball-wide-s2")
    _axis_domain(
        "ball-ball-wide-s1",
        S1_bbw,
        lambda x: abs(x[1]) > 1e-9 or abs(x[0]) <= 3.0,
        (-5.0, -3.5, -3.0, -2.0, 0.0, 2.0, 3.0, 3.5, 5.0),
        "two overlapping radius-2 balls: the axis escapes outside their hull",
    )
    _axis_domain(
        "ball-ball-wide-s2-inclusions",
        S2_bbw,
        lambda x: -3.0 <= x[0] <= 3.0 or -9.0 <= x[0] <= -5.0,
        (-10.0, -9.0, -7.0, -5.0, -4.5, -4.0, -3.5, -3.0, -1.0, 0.0, 2.0, 3.0, 3.5, 4.0, 5.0),
        "composed wide two-ball variant, stated membership on the axis only",
        off_axis=False,
    )

    # --- nonconvex circles (sphere boundaries): the domain is a proper subset
    circle_l = ProjSphere(np.array([-1.0, 0.0]), 2.0)
    circle_r = ProjSphere(np.array([1.0, 0.0]), 2.0)
    S_circles = OperatorSet.with_identity(map(reflector_of, (circle_l, circle_r)), "circles")
    add(
        "circles-nonconvex-probe",
        2,
        "reflectors of two circles (boundaries, nonconvex): probing finds at "
        "least one point without a circumcenter",
        ImpropernessIff(
            predicate=lambda a: True,
            grid=[()],
            build=lambda a: S_circles,
            samples=lambda seed: [np.zeros(2), np.array([0.5, 0.0])]
            + gaussian_cloud(2, 6, seed, 2.0),
        ),
    )

    # --- reflected resolvents with closed forms
    NONNEG_GRID = [0.0, 0.5, 1.0, 2.0]
    scaled_resolvents = {a: reflected_resolvent_scaled_id(a) for a in NONNEG_GRID}
    const_resolvents = {a: reflected_resolvent_const(np.array([a])) for a in GRID}

    def _resolvent_samples(seed):
        return [np.array([1.0, 0.5]), np.array([-2.0, 3.0])] + gaussian_cloud(2, 3, seed, 2.0)

    add(
        "scaled-id-resolvents",
        2,
        "reflected resolvents of two nonnegative scalings of the identity",
        ImpropernessIff(
            predicate=lambda a: a[0] != 0.0 and a[1] != 0.0 and a[0] != a[1],
            grid=[(a1, a2) for a1 in NONNEG_GRID for a2 in NONNEG_GRID],
            build=lambda a: OperatorSet.with_identity(
                (scaled_resolvents[ai] for ai in a), f"scaled-resolvents{a}"
            ),
            samples=_resolvent_samples,
        ),
    )
    add(
        "scaled-id-resolvents-composed",
        2,
        "composed variant of the scaled-identity reflected resolvents",
        ImpropernessIff(
            predicate=lambda a: (
                a[0] != 0.0 and a[0] != 1.0 and a[1] != 0.0 and a[0] != -a[1]
            ),
            grid=[(a1, a2) for a1 in NONNEG_GRID for a2 in NONNEG_GRID],
            build=lambda a: OperatorSet.prefix_words(
                (scaled_resolvents[ai] for ai in a), f"scaled-resolvents-comp{a}"
            ),
            samples=_resolvent_samples,
        ),
    )

    def _const_samples(seed):
        return [np.array([0.7]), np.array([-1.3])]

    add(
        "const-resolvents",
        1,
        "reflected resolvents of two constant operators on the line",
        ImpropernessIff(
            predicate=lambda a: a[0] != 0.0 and a[1] != 0.0 and a[0] != a[1],
            grid=[(a1, a2) for a1 in GRID for a2 in GRID],
            build=lambda a: OperatorSet.with_identity(
                (const_resolvents[ai] for ai in a), f"const-resolvents{a}"
            ),
            samples=_const_samples,
        ),
    )
    add(
        "const-resolvents-composed",
        1,
        "composed variant of the constant reflected resolvents",
        ImpropernessIff(
            predicate=lambda a: a[0] != 0.0 and a[1] != 0.0 and a[0] != -a[1],
            grid=[(a1, a2) for a1 in GRID for a2 in GRID],
            build=lambda a: OperatorSet.prefix_words(
                (const_resolvents[ai] for ai in a), f"const-resolvents-comp{a}"
            ),
            samples=_const_samples,
        ),
    )

    # --- proper projector-word families with one linear subspace
    U1_aff = AffineSubspace.from_spanning(np.array([1.0, 2.0]), [E1])
    U2_lin = DIAGONAL
    add(
        "proj-comp-linear-proper",
        2,
        "identity, a projector, and the composed word onto a linear second "
        "subspace: always proper",
        DomainSpec(
            member=lambda x: True,
            probes=lambda seed: gaussian_cloud(2, 15, seed, 2.0)
            + _line_points(U1_aff, [0.0, 2.0])
            + _line_points(U2_lin, [1.0, -1.0]),
        ),
        OperatorSet.prefix_words(map(ProjAffine, (U1_aff, U2_lin)), "proj-comp-first"),
    )
    add(
        "proj-comp-second-proper",
        2,
        "identity, the linear projector, and the composed word: always proper",
        DomainSpec(
            member=lambda x: True,
            probes=lambda seed: gaussian_cloud(2, 15, seed, 2.0)
            + _line_points(U1_aff, [0.0, 2.0]),
        ),
        OperatorSet.with_identity(
            (ProjAffine(U2_lin), Compose((ProjAffine(U2_lin), ProjAffine(U1_aff)))),
            "proj-comp-second",
        ),
    )

    # --- discontinuity and nonlinearity of the two-line reflector mapping
    add(
        "crm-discontinuity",
        2,
        "the two-line reflector mapping jumps at (1,0): constant (0,0) along "
        "the approach but (1/2,1/2) at the limit",
        SequenceLimit(
            points=[np.array([1.0, 1.0 / (k + 1.0)]) for k in range(1, 61)],
            cc_values=lambda x: np.zeros(2),
            limit=np.array([1.0, 0.0]),
            map_at_limit=np.array([0.5, 0.5]),
        ),
        S_two,
    )
    add(
        "crm-nonlinearity",
        2,
        "the two-line reflector mapping is not additive: values at (1,0), "
        "(1,-1) and their sum",
        ClosedFormMap(
            reference=lambda X: np.array([{
                (1.0, 0.0): [0.5, 0.5],
                (1.0, -1.0): [0.0, 0.0],
                (2.0, -1.0): [0.0, 0.0],
            }[tuple(x)] for x in X.tolist()]).reshape(X.shape),
            probes=lambda seed: [
                np.array([1.0, 0.0]),
                np.array([1.0, -1.0]),
                np.array([2.0, -1.0]),
            ],
        ),
        S_two,
    )

    # --- benchmark tables
    add(
        "table1-line-plane",
        3,
        "line/plane benchmark row (reference counts 12, 12, 1, 1)",
        IterationCounts("table1-line-plane"),
    )
    add(
        "table2-plane-plane",
        3,
        "plane/plane benchmark row (reference counts 5, 6, 5, 2)",
        IterationCounts("table2-plane-plane"),
    )

    names = [s.name for s in scenarios]
    assert len(names) == len(set(names)), "scenario names must be unique"
    return scenarios


_CATALOG: list[Scenario] | None = None


def catalog() -> list[Scenario]:
    """The full scenario list (memoized; scenarios are immutable in use)."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return list(_CATALOG)


def scenario(name: str) -> Scenario:
    for s in catalog():
        if s.name == name:
            return s
    raise ScenarioNotFoundError(name)


# -- verification ---------------------------------------------------------------


def _rel_devs(C, W) -> np.ndarray:
    """|c - w| / (1 + |w|) for every row c of ``C`` and w of ``W`` (N, n)."""
    return _row_norms(C - W) / (1.0 + _row_norms(W))


def _rows(points, dim: int) -> np.ndarray:
    """The points as the rows of an (N, dim) array; no points give (0, dim)."""
    return np.array(points, dtype=float).reshape(len(points), dim)


def verify(name: str, seed: int = 0) -> VerificationReport:
    """Replay one scenario's expectation; every deviation becomes a failure."""
    return verify_scenario(scenario(name), seed)


def verify_all(seed: int = 0) -> list[VerificationReport]:
    return [verify_scenario(s, seed) for s in catalog()]


def verify_scenario(s: Scenario, seed: int = 0) -> VerificationReport:
    report = VerificationReport(scenario=s.name)
    kind = s.expected
    if isinstance(kind, ClosedFormMap):
        probes = kind.probes(seed)
        X = _rows(probes, s.dim)
        exists, C = cc_map_rows([(s.operator_set, X)])
        W = kind.reference(X)
        none = np.isnan(W).all(axis=1)  # rows where no circumcenter is expected
        dev = np.where(none, exists, np.where(exists, _rel_devs(C, W), 1.0))
        ok = np.where(none, ~exists, exists & (dev <= kind.check_tol))
        report.record_rows(dev, ok, lambda i: (
            probes[i], None if none[i] else W[i], C[i] if exists[i] else None))
    elif isinstance(kind, DomainSpec):
        probes = kind.probes(seed)
        got = classify_points(s.operator_set, _rows(probes, s.dim))
        want = np.array([bool(kind.member(x)) for x in probes], dtype=bool)
        ok = want == got
        report.record_rows(~ok, ok, lambda i: (probes[i], bool(want[i]), bool(got[i])))
    elif isinstance(kind, ImpropernessIff):
        # Every family of the grid at the same samples in one kernel call.
        X = _rows(kind.samples(seed), s.dim)
        inside, _ = cc_map_rows([(kind.build(params), X) for params in kind.grid])
        improper = ~inside.reshape(len(kind.grid), len(X)).all(axis=1)
        want = np.array([bool(kind.predicate(params)) for params in kind.grid], dtype=bool)
        ok = want == improper
        report.record_rows(~ok, ok, lambda i: (kind.grid[i], bool(want[i]), bool(improper[i])))
    elif isinstance(kind, SequenceLimit):
        _verify_sequence(s, kind, report)
    elif isinstance(kind, IterationCounts):
        result = run_benchmark(kind.table)
        for method, want in REFERENCE_COUNTS[kind.table].items():
            got = result.counts[method]
            dev = float("inf") if got is None else float(abs(got - want))
            report.record(dev, got == want, f"{kind.table}:{method}", want, got)
    elif isinstance(kind, FixedPointSpec):
        # The fixed and the not-fixed probes' residuals in one kernel call.
        fixed = list(kind.fixed)
        probes = fixed + list(kind.not_fixed(seed))
        X = _rows(probes, s.dim)
        r = _residuals(s.operator_set, X)  # NaN where no circumcenter exists

        def failure(i, expected):
            return probes[i], expected, None if np.isnan(r[i]) else float(r[i])

        F = len(fixed)
        ok = r[:F] <= 1e-9 * (1.0 + _row_norms(X[:F]))
        report.record_rows(np.where(np.isnan(r[:F]), np.inf, r[:F]), ok,
                           lambda i: failure(i, 0.0))
        ok = r[F:] > FIXED_POINT_SEPARATION
        report.record_rows(~ok, ok, lambda i: failure(F + i, f"> {FIXED_POINT_SEPARATION}"))
        if kind.proper_probes is not None:
            proper = kind.proper_probes(seed)
            ok = classify_points(s.operator_set, _rows(proper, s.dim))
            report.record_rows(~ok, ok, lambda i: (proper[i], "exists", False))
    else:
        raise TypeError(f"unknown expectation kind {type(kind).__name__}")
    return report


def _verify_sequence(s: Scenario, kind: SequenceLimit, report: VerificationReport):
    points = list(kind.points)
    n = len(points)
    P = _rows(points + ([] if kind.limit is None else [kind.limit]), s.dim)
    exists, C = cc_map_rows([(s.operator_set, P)])
    norms = _row_norms(P - C)  # NaN where no circumcenter exists
    found = exists[:n]
    W = np.full((n, s.dim), np.nan)
    if kind.cc_values is not None:
        W[found] = _rows([kind.cc_values(points[i]) for i in np.flatnonzero(found)], s.dim)
    dev = np.where(found, _rel_devs(C[:n], W), 1.0)
    ok = found & (dev <= SEQUENCE_CHECK_TOL)
    # without cc_values only the points without a center are checked
    checked = np.arange(n) if kind.cc_values is not None else np.flatnonzero(~found)

    def failure(i):
        return (points[i], W[i], C[i]) if found[i] else (points[i], "exists", None)

    report.record_rows(dev[checked], ok[checked], lambda j: failure(checked[j]))
    residuals = norms[:n][found].tolist()
    if kind.expect_vanishing is not None and residuals:
        vanished = residuals_vanish(residuals)
        report.record(
            residuals[-1],
            vanished == kind.expect_vanishing,
            "residual-trend",
            kind.expect_vanishing,
            vanished,
        )
    if kind.limit is not None:
        center = C[-1] if exists[-1] else None
        if kind.map_at_limit is not None:
            if center is None:
                report.record(1.0, False, kind.limit, kind.map_at_limit, None)
            else:
                dev = _rel_devs(C[-1:], _rows([kind.map_at_limit], s.dim))[0]
                report.record(dev, dev <= SEQUENCE_CHECK_TOL, kind.limit, kind.map_at_limit,
                              center)
        if kind.limit_residual is not None:
            got = None if center is None else float(norms[-1])
            dev = float("inf") if got is None else abs(got - kind.limit_residual)
            report.record(dev, dev <= LIMIT_RESIDUAL_TOL, "limit-residual",
                          kind.limit_residual, got)


# -- domain probing ---------------------------------------------------------------


@dataclass(frozen=True)
class ProbeGrid:
    """Rectangular probe grid for two-dimensional domain classification."""

    xmin: float
    xmax: float
    nx: int
    ymin: float
    ymax: float
    ny: int

    def coordinates(self) -> np.ndarray:
        """The grid points as the rows of an (nx * ny, 2) array, x varying fastest."""
        xs = np.linspace(self.xmin, self.xmax, max(self.nx, 0))
        ys = np.linspace(self.ymin, self.ymax, max(self.ny, 0))
        return np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])

    def points(self):
        return list(self.coordinates())


def domain_probe(S: OperatorSet, grid: ProbeGrid, member=None):
    """Classify every grid point; returns (rows, agreement) where rows are
    (x, y, in_domain) and agreement is the match rate against ``member``
    (None when no reference predicate is given)."""
    X = grid.coordinates()
    inside = classify_points(S, X).tolist()
    rows = list(zip(X[:, 0].tolist(), X[:, 1].tolist(), inside))
    agreement = None
    if member is not None and inside:
        agreement = sum(bool(member(p)) == f for p, f in zip(X, inside)) / len(inside)
    return rows, agreement
