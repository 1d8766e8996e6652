import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.operators import (
    AffineComb,
    AffineSubspace,
    Ball,
    Compose,
    Constant,
    DimensionMismatchError,
    EmptyIntersectionError,
    Identity,
    ProjAffine,
    ProjBall,
    ProjBox,
    ProjSphere,
    ReflAffine,
    ReflBall,
    ScaledId,
    Translate,
    UnsupportedNodeError,
    apply,
    fixed_point_set_affine,
    intersect_affine,
    project_ball,
    projector_word,
    reflected_resolvent_const,
    reflected_resolvent_scaled_id,
    reflector_of,
    reflector_word,
)

X_AXIS = AffineSubspace.span(np.array([1.0, 0.0]))
DIAG = AffineSubspace.span(np.array([1.0, 1.0]))


def rand_subspace(rng, n):
    dim = int(rng.integers(0, n))
    anchor = rng.standard_normal(n)
    dirs = [rng.standard_normal(n) for _ in range(dim)]
    return AffineSubspace.from_spanning(anchor, dirs)


# -- projections and reflections -------------------------------------------------


def test_project_onto_axis():
    np.testing.assert_allclose(X_AXIS.project([3.0, 4.0]), [3.0, 0.0])


def test_project_onto_point():
    P = AffineSubspace.point([2.0, 0.0])
    np.testing.assert_allclose(P.project([-7.0, 13.0]), [2.0, 0.0])


def test_project_onto_plane():
    plane = AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)
    got = plane.project([0.5, 0.0, 0.0])
    np.testing.assert_allclose(got, [1.0 / 3.0, -1.0 / 6.0, -1.0 / 6.0])


def test_projection_characterization():
    # x - Px is orthogonal to all differences of subspace points
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        A = rand_subspace(rng, n)
        x = rng.standard_normal(n)
        p = A.project(x)
        for _ in range(3):
            v = A.anchor + A.basis.T @ rng.standard_normal(A.dim) if A.dim else A.anchor
            w = A.anchor + A.basis.T @ rng.standard_normal(A.dim) if A.dim else A.anchor
            assert abs(np.dot(x - p, v - w)) <= 1e-10 * (1 + np.linalg.norm(x))


def test_reflect_axis():
    np.testing.assert_allclose(X_AXIS.reflect([3.0, 4.0]), [3.0, -4.0])


def test_reflect_fixes_members():
    p = np.array([2.5, 0.0])
    np.testing.assert_allclose(X_AXIS.reflect(p), p)


def test_reflect_diagonal_swaps():
    np.testing.assert_allclose(DIAG.reflect([1.0, 0.0]), [0.0, 1.0], atol=1e-15)


def test_project_ball_outside_inside_shifted():
    B = Ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(project_ball(B, [2.0, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(project_ball(B, [0.5, 0.0]), [0.5, 0.0])
    np.testing.assert_allclose(project_ball(Ball([-1.0, 0.0], 1.0), [1.0, 0.0]), [0.0, 0.0])


# -- node evaluation --------------------------------------------------------------


def test_compose_of_full_space_reflectors_is_identity():
    full = AffineSubspace.full(2)
    op = Compose((ReflAffine(full), ReflAffine(full)))
    x = np.array([1.3, -0.4])
    np.testing.assert_allclose(apply(op, x), x)


def test_affine_comb_is_dr_operator():
    dr = AffineComb(
        ((0.5, Identity()), (0.5, Compose((ReflAffine(DIAG), ReflAffine(X_AXIS)))))
    )
    x = np.array([2.0, 1.0])
    want = 0.5 * (x + DIAG.reflect(X_AXIS.reflect(x)))
    np.testing.assert_allclose(apply(dr, x), want)


def test_scaled_id_and_translate():
    np.testing.assert_allclose(apply(ScaledId(-0.5), [2.0, 4.0]), [-1.0, -2.0])
    np.testing.assert_allclose(apply(Translate([1.0, -1.0]), [2.0, 4.0]), [3.0, 3.0])


def test_affine_comb_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        AffineComb(((0.5, Identity()), (0.4, Identity())))


def test_constant_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(Constant(np.zeros(3)), np.zeros(2))


def test_projbox_clamps():
    quadrant = ProjBox(np.zeros(2), np.array([np.inf, np.inf]))
    np.testing.assert_allclose(apply(quadrant, [-1.0, 2.0]), [0.0, 2.0])
    R = reflector_of(quadrant)
    np.testing.assert_allclose(apply(R, [-1.0, 2.0]), [1.0, 2.0])


def _every_node(rng, n):
    """One node of every type, with random parameters in R^n."""
    U = rand_subspace(rng, n)
    ball = Ball(rng.standard_normal(n), float(rng.uniform(0.5, 2.0)))
    lower = rng.standard_normal(n) - 1.0
    nodes = [
        Identity(),
        Constant(rng.standard_normal(n)),
        ScaledId(float(rng.uniform(-2.0, 2.0))),
        Translate(rng.standard_normal(n)),
        ProjAffine(U),
        ReflAffine(U),
        ProjBall(ball),
        ReflBall(ball),
        ProjBox(lower, lower + rng.uniform(0.0, 2.0, n)),
        ProjSphere(ball.center, ball.radius),
    ]
    nodes.append(Compose(tuple(nodes[4:])))
    nodes.append(AffineComb(((0.5, nodes[5]), (0.75, nodes[7]), (-0.25, nodes[9]))))
    return nodes, ball


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(min_value=1, max_value=4))
def test_apply_rows_matches_apply_per_point(seed, n):
    rng = np.random.default_rng(seed)
    nodes, ball = _every_node(rng, n)
    # Random rows, one at the sphere's (and ball's) center, one inside the ball.
    X = np.vstack([3.0 * rng.standard_normal((5, n)), ball.center,
                   ball.center + 0.5 * ball.radius * rng.uniform(-1, 1, n) / np.sqrt(n)])
    for op in nodes:
        rows = apply(op, X)
        assert rows.shape == X.shape
        for x, row in zip(X, rows):
            np.testing.assert_allclose(row, apply(op, x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("op", [
    Constant(np.zeros(3)), Translate(np.zeros(3)), ProjBox(np.zeros(3), np.ones(3)),
    ProjBall(Ball(np.zeros(3), 1.0)), ReflBall(Ball(np.zeros(3), 1.0)),
    ProjSphere(np.zeros(3), 1.0)])
@pytest.mark.parametrize("x", [np.zeros(2), np.zeros((4, 2)), np.zeros(1)],
                         ids=["point", "rows", "point-1d"])
def test_apply_dimension_mismatch(op, x):
    with pytest.raises(DimensionMismatchError):
        apply(op, x)


# -- words -------------------------------------------------------------------------


def test_empty_word_is_identity():
    op = reflector_word([X_AXIS, DIAG], [])
    assert isinstance(op, Identity)


def test_reflector_word_order():
    # [1, 2] applies the first subspace's reflector first
    op = reflector_word([X_AXIS, DIAG], [1, 2])
    x = np.array([0.7, -1.2])
    np.testing.assert_allclose(apply(op, x), DIAG.reflect(X_AXIS.reflect(x)))


def test_reflector_word_length_four():
    op = reflector_word([X_AXIS, DIAG], [1, 2, 1, 2])
    x = np.array([1.5, 0.25])
    want = DIAG.reflect(X_AXIS.reflect(DIAG.reflect(X_AXIS.reflect(x))))
    np.testing.assert_allclose(apply(op, x), want)


def test_projector_word_square():
    op = projector_word([X_AXIS, DIAG], [1, 2, 1, 2])
    x = np.array([2.0, 4.0])
    want = DIAG.project(X_AXIS.project(DIAG.project(X_AXIS.project(x))))
    np.testing.assert_allclose(apply(op, x), want)


def test_word_index_out_of_range():
    with pytest.raises(IndexError):
        reflector_word([X_AXIS], [2])


# -- reflected resolvents ------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,gamma", [(0.0, 1.0), (1.0, 0.0), (3.0, -0.5)]
)
def test_reflected_resolvent_scaled_id(alpha, gamma):
    op = reflected_resolvent_scaled_id(alpha)
    assert isinstance(op, ScaledId)
    assert op.gamma == pytest.approx(gamma)


def test_reflected_resolvent_scaled_id_rejects_negative():
    with pytest.raises(ValueError):
        reflected_resolvent_scaled_id(-0.5)


def test_reflected_resolvent_const():
    assert apply(reflected_resolvent_const([0.0]), [5.0]) == pytest.approx(5.0)
    np.testing.assert_allclose(apply(reflected_resolvent_const([1.0]), [5.0]), [3.0])
    np.testing.assert_allclose(
        apply(reflected_resolvent_const([1.0, 1.0]), [0.0, 0.0]), [-2.0, -2.0]
    )


def test_project_sphere_boundary_map():
    from circumlib.operators import ProjSphere

    circle = ProjSphere(np.array([1.0, 0.0]), 2.0)
    np.testing.assert_allclose(apply(circle, [1.0, 0.5]), [1.0, 2.0])  # interior
    np.testing.assert_allclose(apply(circle, [6.0, 0.0]), [3.0, 0.0])  # exterior
    # center tie-break: toward the first coordinate axis
    np.testing.assert_allclose(apply(circle, [1.0, 0.0]), [3.0, 0.0])


def test_ambient_dim_inference():
    from circumlib.operators import ambient_dim

    assert ambient_dim(Identity()) is None
    assert ambient_dim(ScaledId(2.0)) is None
    assert ambient_dim(Constant(np.zeros(3))) == 3
    assert ambient_dim(Compose((Identity(), ReflAffine(DIAG)))) == 2
    assert ambient_dim(AffineComb(((1.0, Translate([0.0, 0.0, 0.0, 0.0])),))) == 4
    assert ambient_dim(Compose((Identity(), ProjBall(Ball(np.zeros(3), 1.0))))) == 3


def test_subspace_constructors_validate():
    with pytest.raises(ValueError):
        AffineSubspace([0.0, 0.0], [[1.0, 1.0]])  # not orthonormal
    with pytest.raises(ValueError):
        AffineSubspace.hyperplane([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], -1.0)


def test_hyperplane_offset_anchor():
    plane = AffineSubspace.hyperplane(np.array([0.0, 3.0]), 6.0)
    assert plane.contains([17.0, 2.0])
    np.testing.assert_allclose(plane.project([0.0, 0.0]), [0.0, 2.0])


# -- intersections and fixed points ----------------------------------------------------


def test_intersect_line_and_plane_is_origin():
    line = AffineSubspace.span(np.array([1.0, 0.0, 0.0]))
    plane = AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)
    meet = intersect_affine([line, plane])
    assert meet.dim == 0
    np.testing.assert_allclose(meet.anchor, [0.0, 0.0, 0.0], atol=1e-12)


def test_intersect_two_planes_is_line():
    p1 = AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)
    p2 = AffineSubspace.hyperplane(np.array([-1.0, 2.0, 2.0]), 0.0)
    meet = intersect_affine([p1, p2])
    assert meet.dim == 1
    d = meet.basis[0]
    want = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(d - want), np.linalg.norm(d + want)) <= 1e-10


def test_intersect_point_and_line_empty():
    point = AffineSubspace.point([2.0, 0.0])
    yaxis = AffineSubspace.span(np.array([0.0, 1.0]))
    assert intersect_affine([point, yaxis]) is None


def test_fixed_points_of_reflector():
    fix = fixed_point_set_affine(ReflAffine(DIAG))
    assert fix.dim == 1
    x = np.array([1.3, -0.2])
    np.testing.assert_allclose(fix.project(x), DIAG.project(x), atol=1e-10)


def test_fixed_points_of_dr_operator():
    dr = AffineComb(
        ((0.5, Identity()), (0.5, Compose((ReflAffine(DIAG), ReflAffine(X_AXIS)))))
    )
    fix = fixed_point_set_affine(dr)
    assert fix.dim == 0
    np.testing.assert_allclose(fix.anchor, [0.0, 0.0], atol=1e-12)


def test_fixed_points_of_contraction():
    fix = fixed_point_set_affine(ScaledId(0.5), dim=3)
    assert fix.dim == 0
    np.testing.assert_allclose(fix.anchor, np.zeros(3), atol=1e-12)


def test_fixed_points_empty_for_translation():
    assert fixed_point_set_affine(Translate([1.0, 0.0])) is None


def test_fixed_points_reject_ball_nodes():
    ball = Ball(np.zeros(2), 1.0)
    for op in (
        ProjBall(ball),
        ProjBox(np.zeros(2), np.ones(2)),
        Compose((ReflAffine(DIAG), ReflBall(ball))),
        AffineComb(((0.5, Identity()), (0.5, ProjSphere(np.zeros(2), 1.0)))),
    ):
        with pytest.raises(UnsupportedNodeError):
            fixed_point_set_affine(op)


def test_best_approximation_empty_intersection_raises():
    from circumlib.solvers import best_approximation

    point = AffineSubspace.point([2.0, 0.0])
    yaxis = AffineSubspace.span(np.array([0.0, 1.0]))
    with pytest.raises(EmptyIntersectionError):
        best_approximation([point, yaxis], [1.0, 1.0])


# -- operator identities (property style) ----------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_projector_idempotent_reflector_involutive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    A = rand_subspace(rng, n)
    x = rng.standard_normal(n) * 2.0
    scale = 1.0 + np.linalg.norm(x)
    p = A.project(x)
    assert np.linalg.norm(A.project(p) - p) <= 1e-10 * scale
    assert np.linalg.norm(A.reflect(A.reflect(x)) - x) <= 1e-10 * scale
    B = Ball(rng.standard_normal(n), float(rng.uniform(0.1, 2.0)))
    q = project_ball(B, x)
    assert np.linalg.norm(project_ball(B, q) - q) <= 1e-10 * scale


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_reflector_isometry_and_pythagoras(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    A = rand_subspace(rng, n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(y)
    assert abs(
        np.linalg.norm(A.reflect(x) - A.reflect(y)) - np.linalg.norm(x - y)
    ) <= 1e-10 * scale
    v = A.anchor + (A.basis.T @ rng.standard_normal(A.dim) if A.dim else 0.0)
    p = A.project(x)
    lhs = np.linalg.norm(x - p) ** 2 + np.linalg.norm(v - p) ** 2
    assert abs(lhs - np.linalg.norm(x - v) ** 2) <= 1e-9 * scale**2


def test_complement_identity():
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        U = AffineSubspace.from_spanning(
            np.zeros(n), [rng.standard_normal(n) for _ in range(k)]
        )
        x = rng.standard_normal(n)
        total = U.project(x) + U.orthogonal_complement().project(x)
        np.testing.assert_allclose(total, x, atol=1e-10)


def test_reflector_word_equidistance_from_common_points():
    # any point of the common intersection stays equidistant under any word
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        z = rng.standard_normal(n)
        subs = []
        for _ in range(int(rng.integers(1, 4))):
            dim = int(rng.integers(0, n))
            subs.append(
                AffineSubspace.from_spanning(z, [rng.standard_normal(n) for _ in range(dim)])
            )
        word = [int(rng.integers(1, len(subs) + 1)) for _ in range(int(rng.integers(0, 4)))]
        op = reflector_word(subs, word)
        meet = intersect_affine(subs)
        u = meet.project(rng.standard_normal(n))
        x = rng.standard_normal(n) * 2.0
        lhs = np.linalg.norm(apply(op, x) - u)
        rhs = np.linalg.norm(x - u)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)
