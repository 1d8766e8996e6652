import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.geometry import RANK_TOL
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
    _affine_maps,
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
@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(min_value=1, max_value=4),
       N=st.sampled_from([0, 1, 2, 5, 17, 300]))
def test_apply_rows_matches_apply_per_point(seed, n, N):
    rng = np.random.default_rng(seed)
    nodes, ball = _every_node(rng, n)
    # Random rows, one at the sphere's (and ball's) center, one inside the ball.
    X = np.vstack([3.0 * rng.standard_normal((N, n)), ball.center,
                   ball.center + 0.5 * ball.radius * rng.uniform(-1, 1, n) / np.sqrt(n)])
    for op in nodes:
        rows = apply(op, X)
        assert rows.shape == X.shape
        # the same bits as the point alone, whatever the row count
        for x, row in zip(X, rows):
            assert row.tobytes() == apply(op, x).tobytes()


@pytest.mark.parametrize("op", [
    Constant(np.zeros(3)), Translate(np.zeros(3)), ProjBox(np.zeros(3), np.ones(3)),
    ProjBall(Ball(np.zeros(3), 1.0)), ReflBall(Ball(np.zeros(3), 1.0)),
    ProjSphere(np.zeros(3), 1.0)])
@pytest.mark.parametrize("x", [np.zeros(2), np.zeros((4, 2)), np.zeros(1)],
                         ids=["point", "rows", "point-1d"])
def test_apply_dimension_mismatch(op, x):
    with pytest.raises(DimensionMismatchError):
        apply(op, x)


LINE_IN_R3 = AffineSubspace.span(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("build", [
    lambda: Compose((ProjAffine(X_AXIS), ProjAffine(LINE_IN_R3))),
    lambda: Compose((Identity(), ReflAffine(X_AXIS), Translate(np.zeros(3)))),
    lambda: AffineComb(((0.5, ProjAffine(X_AXIS)), (0.5, ProjAffine(LINE_IN_R3)))),
    lambda: AffineComb(((2.0, ProjBall(Ball(np.zeros(3), 1.0))), (-1.0, ReflAffine(X_AXIS)))),
], ids=["compose", "compose-free-child", "affine-comb", "affine-comb-ball"])
def test_compound_node_rejects_children_of_different_dimensions(build):
    with pytest.raises(DimensionMismatchError):
        build()


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


@pytest.mark.parametrize("seed", range(30))
def test_fixed_points_read_the_probed_affine_map(affine_family, seed):
    n = 1 + seed % 3
    for op in affine_family(seed, seed, n):
        Mc = _affine_maps([op], n)[0]
        c = apply(op, np.zeros(n))
        M = np.column_stack([apply(op, e) - c for e in np.eye(n)])
        assert Mc.shape == (n, n + 1)
        assert np.abs(Mc[:, :n] - M).max() <= 1e-14 and np.abs(Mc[:, n] - c).max() <= 1e-14


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


# R^3 spanned by three directions: its projector and reflector are the
# identity up to rounding.
WHOLE_R3 = AffineSubspace.from_spanning(np.zeros(3), [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0],
                                                      [1.0, 0.0, 1.0]])


def test_fixed_points_of_full_dimensional_nodes_are_the_whole_space():
    # The rank of M - I is decided at the scale of M: its rounding noise is
    # no rank.
    for op in (ReflAffine(WHOLE_R3), ProjAffine(WHOLE_R3)):
        assert fixed_point_set_affine(op).dim == 3


def test_translated_full_dimensional_reflector_has_no_fixed_points():
    op = Compose((ScaledId(1.0), Translate([0.0, 1e-3, 0.0]), ReflAffine(WHOLE_R3)))
    assert fixed_point_set_affine(op) is None


def _corpus_tree(rng, n, s):
    """A random affine tree on R^n over three random subspaces of any
    dimension, anchored at scale ``s``: a DR average, a projector or
    reflector word, an affine combination, or a translated reflector."""
    subs = [AffineSubspace.from_spanning(s * rng.standard_normal(n),
                                         list(rng.standard_normal((int(rng.integers(0, n + 1)), n))))
            for _ in range(3)]
    kind = rng.integers(5)
    if kind == 0:
        return AffineComb(((0.5, Identity()), (0.5, reflector_word(subs, (1, 2)))))
    word = [int(i) for i in rng.integers(1, 4, size=rng.integers(1, 5))]
    if kind == 1:
        return projector_word(subs, word)
    if kind == 2:
        return reflector_word(subs, word)
    if kind == 3:
        w = rng.uniform(-1.0, 2.0)
        return AffineComb(((w, ProjAffine(subs[0])), (1.0 - w, reflector_word(subs, word))))
    t = s * rng.standard_normal(n) * rng.integers(2)
    return Compose((ScaledId(1.0), Translate(t), ReflAffine(subs[0])))


def _svd_fixed_point_set(M, c):
    """``(nullity, consistent)`` of ``(M - I) x = -c`` from numpy's SVD:
    singular values above ``RANK_TOL * max(1, |M|_2)`` count as rank, and
    ``-c`` must lie in the span of their left singular vectors."""
    U, sv, _ = np.linalg.svd(M - np.eye(len(M)))
    rank = int((sv > RANK_TOL * max(1.0, np.linalg.norm(M, 2))).sum())
    Ur = U[:, :rank]
    residual = np.linalg.norm(c - Ur @ (Ur.T @ c))
    return len(M) - rank, residual <= 1e-6 * (1.0 + np.linalg.norm(c))


def test_fixed_point_sets_agree_with_an_svd_reference():
    rng = np.random.default_rng(26)
    disagreements, empty, whole = [], 0, 0
    for t in range(3000):
        n = int(rng.integers(1, 6))
        op = _corpus_tree(rng, n, 10.0 ** rng.uniform(-4, 4))
        Mc = _affine_maps([op], n)[0]
        nullity, consistent = _svd_fixed_point_set(Mc[:, :n], Mc[:, n])
        fix = fixed_point_set_affine(op, dim=n)
        empty += not consistent
        whole += consistent and nullity == n
        if (fix is not None) != consistent or (consistent and fix.dim != nullity):
            disagreements.append((t, n, nullity, consistent, fix))
    assert disagreements == []
    # The corpus reaches both defects' cases: no fixed point, and all of R^n.
    assert empty >= 100 and whole >= 100


def _dyadic_frame(rng, n):
    """An orthogonal n x n matrix whose entries, and whose products with
    dyadic vectors, are exact in binary: a signed permutation of the
    identity, with a 4 x 4 Hadamard block over 2 in it where n >= 4."""
    H = np.eye(n)
    if n >= 4:
        H[:4, :4] = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    H = H[rng.permutation(n)][:, rng.permutation(n)]
    return H * rng.choice([-1.0, 1.0], size=(n, 1))


def _dyadic(rng, size, k):
    return rng.integers(-8, 9, size) * 2.0 ** k


def test_intersections_agree_with_lstsq_and_the_exact_answer_on_dyadic_frames():
    rng = np.random.default_rng(2026)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        H, k = _dyadic_frame(rng, n), int(rng.integers(-20, 21))
        p = _dyadic(rng, n, k)
        subs, constraints = [], []
        for _ in range(int(rng.integers(1, 4))):
            free = rng.random(n) < 0.5
            # Frame coordinates of the anchor: p's, moved on some coordinate
            # so that some stacks conflict.
            y = p + (rng.random(n) < 0.15) * 2.0 ** k
            subs.append(AffineSubspace(y @ H, H[free]))
            constraints += [(l, y[l]) for l in np.flatnonzero(~free)]
        # The exact answer, coordinate by coordinate in the frame.
        fixed = {}
        conflict = any(fixed.setdefault(l, v) != v for l, v in constraints)
        x = np.array([fixed.get(l, 0.0) for l in range(n)]) @ H
        free = [l for l in range(n) if l not in fixed]
        # The test-only least-squares reference on the stacked normals.
        A = np.array([H[l] for l, _ in constraints]).reshape(-1, n)
        b = np.array([v for _, v in constraints])
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0] if len(b) else np.zeros(n)
        assert (np.abs(A @ x_ls - b).max(initial=0.0) > 1e-9 * (1.0 + np.linalg.norm(b))) == conflict
        meet = intersect_affine(subs)
        if conflict:
            assert meet is None
            continue
        scale = 1.0 + np.linalg.norm(x)
        assert np.linalg.norm(meet.anchor - x) <= 1e-12 * scale
        assert np.linalg.norm(meet.anchor - x_ls) <= 1e-12 * scale
        assert meet.dim == len(free)
        assert np.abs(meet.basis.T @ meet.basis - H[free].T @ H[free]).max(initial=0.0) <= 1e-12


def test_hyperplanes_agree_with_lstsq_on_dyadic_normals():
    rng = np.random.default_rng(2027)
    for _ in range(300):
        n, k = int(rng.integers(1, 7)), int(rng.integers(-20, 21))
        normal = _dyadic(rng, n, k)
        if not normal.any():
            continue
        offset = float(_dyadic(rng, 1, k)[0])
        plane = AffineSubspace.hyperplane(normal, offset)
        x_ls = np.linalg.lstsq(normal[None], [offset], rcond=None)[0]
        assert np.linalg.norm(plane.anchor - x_ls) <= 1e-12 * np.linalg.norm(x_ls)
        assert plane.dim == n - 1
        assert np.abs(plane.basis @ normal).max(initial=0.0) <= 1e-12 * np.linalg.norm(normal)
        # A frame row's multiple has the exact anchor offset * row / 2^k.
        h = _dyadic_frame(rng, n)[0]
        np.testing.assert_array_equal(AffineSubspace.hyperplane(2.0 ** k * h, offset).anchor,
                                      offset * h / 2.0 ** k)


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
