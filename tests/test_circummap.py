import numpy as np
import pytest

import circumlib.circummap as circummap
import circumlib.gallery as gallery
import circumlib.operators as operators
import circumlib.solvers as solvers
from circumlib.circummap import (
    OperatorSet,
    affine_comb_identity_check,
    cc_map,
    cc_map_rows,
    check_properness_sampled,
    classify_points,
    demiclosedness_probe,
    evaluate_set,
    fixed_point_residual,
    gaussian_cloud,
    in_domain,
    relaxation,
    relaxed_set,
    subspace_probes,
)
from circumlib.gallery import verify
from circumlib.geometry import DimensionMismatchError
from circumlib.operators import (
    AffineComb,
    AffineSubspace,
    Ball,
    Compose,
    Constant,
    Identity,
    ProjAffine,
    ProjBall,
    ReflAffine,
    ScaledId,
    Translate,
    apply,
    intersect_affine,
    reflector_of,
)

X_AXIS = AffineSubspace.span(np.array([1.0, 0.0]))
Y_AXIS = AffineSubspace.span(np.array([0.0, 1.0]))
DIAG = AffineSubspace.span(np.array([1.0, 1.0]))

S_TWO_LINES = OperatorSet((Identity(), ReflAffine(X_AXIS), ReflAffine(DIAG)))


def reflector_family(subspaces):
    return OperatorSet((Identity(), *[ReflAffine(U) for U in subspaces]))


# -- image sets -----------------------------------------------------------------


def test_evaluate_set_collapses_on_subspace():
    U = AffineSubspace.span(np.array([1.0, 2.0]))
    S = OperatorSet(
        (Identity(), ReflAffine(U), ReflAffine(U.orthogonal_complement()))
    )
    x = np.array([1.0, 2.0])  # on U, so the first reflector fixes it
    assert len(evaluate_set(S, x)) == 2


def test_evaluate_set_singleton():
    assert len(evaluate_set(OperatorSet((Identity(),)), [3.0, 1.0])) == 1


def test_evaluate_set_four_distinct():
    U = AffineSubspace.span(np.array([1.0, 2.0]))
    S = OperatorSet(
        (
            Identity(),
            ProjAffine(U),
            ProjAffine(U.orthogonal_complement()),
            Constant(np.zeros(2)),
        )
    )
    assert len(evaluate_set(S, [1.0, -1.0])) == 4


# -- the mapping ------------------------------------------------------------------


def test_cc_map_reflector_pair_is_zero():
    U = AffineSubspace.span(np.array([1.0, 2.0]))
    S = OperatorSet((Identity(), ReflAffine(U), ReflAffine(U.orthogonal_complement())))
    for x in gaussian_cloud(2, 10, seed=1):
        out = cc_map(S, x)
        assert out.exists
        assert np.linalg.norm(out.center) <= 1e-10 * (1 + np.linalg.norm(x))


def test_cc_map_projector_quadruple_is_half():
    U = AffineSubspace.span(np.array([1.0, 2.0]))
    S = OperatorSet(
        (
            Identity(),
            ProjAffine(U),
            ProjAffine(U.orthogonal_complement()),
            Constant(np.zeros(2)),
        )
    )
    for x in gaussian_cloud(2, 10, seed=2):
        out = cc_map(S, x)
        assert np.linalg.norm(out.center - 0.5 * x) <= 1e-10 * (1 + np.linalg.norm(x))


def test_cc_map_on_first_line_collapses_from_degenerate_start():
    # start exactly on the first subspace: the image pair gives the midpoint,
    # which is the projection onto the second subspace
    line = AffineSubspace.span(np.array([1.0, 0.0, 0.0]))
    plane = AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)
    S = reflector_family([line, plane])
    x0 = np.array([0.5, 0.0, 0.0])
    out = cc_map(S, x0)
    np.testing.assert_allclose(out.center, plane.project(x0), atol=1e-12)
    np.testing.assert_allclose(out.center, [1.0 / 3.0, -1.0 / 6.0, -1.0 / 6.0])


def test_cc_map_inconsistent_pair_escapes_on_axis():
    S = reflector_family([AffineSubspace.point([2.0, 0.0]), Y_AXIS])
    assert not cc_map(S, [3.0, 0.0]).exists
    assert cc_map(S, [3.0, 1.0]).exists


def test_cc_map_satisfies_hull_and_equidistance():
    S = S_TWO_LINES
    x = np.array([2.0, 1.0])
    out = cc_map(S, x)
    pts = evaluate_set(S, x).points
    dists = np.linalg.norm(pts - out.center, axis=1)
    assert dists.max() - dists.min() <= 1e-10 * (1 + dists.mean())
    hull = AffineSubspace.from_points(list(pts))
    assert np.linalg.norm(hull.project(out.center) - out.center) <= 1e-10


# -- domain diagnostics ------------------------------------------------------------


def test_in_domain_card_two_always_inside():
    diag = in_domain(OperatorSet((Identity(), ReflAffine(X_AXIS))), [1.0, 2.0])
    assert diag.in_domain and diag.card == 2


def test_in_domain_scaled_identity_on_axis():
    S = OperatorSet((ScaledId(2.0), ReflAffine(X_AXIS), ReflAffine(Y_AXIS)))
    diag = in_domain(S, [1.0, 0.0])
    assert not diag.in_domain
    assert diag.card == 3 and not diag.affinely_independent
    alpha, beta = diag.witness
    pts = evaluate_set(S, [1.0, 0.0]).points
    combo = alpha * (pts[1] - pts[0]) + beta * (pts[2] - pts[0])
    assert np.linalg.norm(combo) <= 1e-10
    assert abs(alpha) + abs(beta) > 0.1


def test_in_domain_unit_scaling_everywhere():
    S = OperatorSet((ScaledId(1.0), ReflAffine(X_AXIS), ReflAffine(Y_AXIS)))
    probes = gaussian_cloud(2, 20, seed=3) + [np.array([1.0, 0.0]), np.zeros(2)]
    assert all(in_domain(S, x).in_domain for x in probes)


def test_in_domain_near_collinear_images_have_a_circumcenter():
    # ball-line-s2 on the probe grid of seed 787825429 (the grid window shifted
    # by a seeded offset under one step), at the point nearest
    # (-2.98753, -0.335718).  Its images are near-collinear (singular-value
    # ratio of their differences about 1.1e-6), so a rank test on the squared
    # (Gram matrix) scale would reject them, yet their circumcenter exists.
    from fractions import Fraction

    from circumlib.circumcenter import PointSet, circumcenter_oracle
    from circumlib.gallery import ProbeGrid, scenario

    rng = np.random.default_rng(787825429)
    dx, dy = rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)
    X = ProbeGrid(-4.0 + dx, 4.0 + dx, 41, -2.0 + dy, 2.0 + dy, 21).coordinates()
    k = int(np.argmin(np.linalg.norm(X - (-2.98753, -0.335718), axis=1)))
    S = scenario("ball-line-s2").operator_set
    diag = in_domain(S, X[k])
    assert diag.in_domain and diag.card == 3 and diag.affinely_independent
    assert classify_points(S, X)[k]

    images = evaluate_set(S, X[k])
    oracle = circumcenter_oracle(PointSet(images.points))
    got = cc_map(S, X[k])
    assert oracle.exists and got.exists
    # The exact circumcenter of the floating-point images, in rationals.
    x1, x2, x3 = [[Fraction(float(v)) for v in p] for p in images.points]
    a = [x2[0] - x1[0], x2[1] - x1[1]]
    b = [x3[0] - x1[0], x3[1] - x1[1]]
    ra, rb = (a[0] ** 2 + a[1] ** 2) / 2, (b[0] ** 2 + b[1] ** 2) / 2
    det = a[0] * b[1] - a[1] * b[0]
    exact = np.array([float(x1[0] + (ra * b[1] - a[1] * rb) / det),
                      float(x1[1] + (a[0] * rb - ra * b[0]) / det)])
    # Differences from the first image would carry the 8e-5 chord between the
    # other two with a rounding error of about 4e-16, moving the center by
    # about 5e-12 relative; the oracle still solves from them.  The kernel
    # anchors at one end of that chord, the closest pair, so its short
    # difference is exact and the center is within a few ulps.
    scale = np.linalg.norm(exact)
    assert np.linalg.norm(got.center - exact) <= 1e-14 * scale
    assert np.linalg.norm(got.center - oracle.center) <= 1e-11 * scale


# -- array classification ----------------------------------------------------------


def _two_dimensional_domain_scenarios():
    from circumlib.gallery import DomainSpec, catalog

    return [s for s in catalog()
            if isinstance(s.expected, DomainSpec) and s.operator_set is not None and s.dim == 2]


@pytest.mark.parametrize("s", _two_dimensional_domain_scenarios(), ids=lambda s: s.name)
def test_classify_points_equals_in_domain_on_the_probe_grid(s):
    from circumlib.gallery import ProbeGrid

    # Unshifted, the grid hits x = +-2 and y = 0 exactly.
    X = ProbeGrid(-4.0, 4.0, 41, -2.0, 2.0, 21).coordinates()
    want = [cc_map(s.operator_set, x).exists for x in X]
    assert classify_points(s.operator_set, X).tolist() == want


@pytest.mark.parametrize("S", [
    # images x and x + (d, 0) at d = 5-11 and 0.05-0.11 times dup_tol * scale
    # (scale, the largest image norm or 1, is 1 to 2 here), beside a third
    # image at distance 1
    OperatorSet((Identity(), Translate([1.1e-11, 0.0]), Translate([0.0, 1.0]))),
    OperatorSet((Identity(), Translate([1.1e-13, 0.0]), Translate([0.0, 1.0]))),
    # the third image off the line through the first two by a residual of
    # about 10 and 0.1 times rank_tol * scale (scale is 2 here)
    OperatorSet((Identity(), Translate([1.0, 0.0]), Translate([2.0, 4e-9]))),
    OperatorSet((Identity(), Translate([1.0, 0.0]), Translate([2.0, 4e-11]))),
], ids=["dup-above", "dup-below", "rank-above", "rank-below"])
def test_classify_points_leaves_near_threshold_rows_to_in_domain(scalar_calls, S):
    # Rows near a dedup or rank threshold are decided as cc_map's tree walk
    # decides them, with no pointwise call.
    X = gaussian_cloud(2, 6, seed=8, scale=0.3)
    want = [cc_map(S, x).exists for x in X]
    assert classify_points(S, np.array(X)).tolist() == want
    assert scalar_calls == []


def test_classify_points_decides_clear_rows_as_arrays(scalar_calls):
    S = OperatorSet((Identity(), Translate([1.0, 0.0]), Translate([0.0, 1.0]),
                     ReflAffine(X_AXIS)))
    X = np.array(gaussian_cloud(2, 40, seed=9) + [np.array([1.0, 0.0])])
    want = [cc_map(S, x).exists for x in X]
    assert classify_points(S, X).tolist() == want
    assert scalar_calls == []
    assert want[-1] and not all(want)


def test_classify_points_input_shapes():
    assert classify_points(S_TWO_LINES, np.zeros((0, 2))).shape == (0,)
    with pytest.raises(ValueError):
        classify_points(S_TWO_LINES, np.zeros(2))
    with pytest.raises(ValueError):
        classify_points(S_TWO_LINES, np.array([[0.0, np.nan]]))


def test_cc_map_rows_equals_cc_map_across_stacked_families():
    # families of 1, 3 and 2 operators, interleaved, with an empty one; the
    # colinear translates have no circumcenter anywhere
    families = [
        (OperatorSet((Identity(),)), np.array([[1.0, 2.0]])),
        (S_TWO_LINES, np.array(gaussian_cloud(2, 5, seed=10) + [np.zeros(2)])),
        (OperatorSet((Identity(), Translate([1.0, 0.0]), Translate([2.0, 0.0]))),
         np.array(gaussian_cloud(2, 2, seed=11))),
        (S_TWO_LINES, np.zeros((0, 2))),
        (OperatorSet((Identity(), ReflAffine(X_AXIS))), np.array(gaussian_cloud(2, 3, seed=12))),
    ]
    exists, centers = cc_map_rows(families)
    assert exists.shape == (12,) and centers.shape == (12, 2)
    outs = [cc_map(S, x) for S, X in families for x in X]
    assert exists.tolist() == [out.exists for out in outs]
    for center, out in zip(centers, outs):
        if out.exists:
            assert np.linalg.norm(center - out.center) <= 1e-12 * (1.0 + np.linalg.norm(center))
        else:
            assert np.isnan(center).all()
    assert not exists[7:9].any() and exists[9:].all()
    assert cc_map_rows([])[0].shape == (0,)


def test_mixed_dimensions_raise_dimension_mismatch():
    S3 = OperatorSet((Identity(), ProjAffine(AffineSubspace.span(np.array([1.0, 0.0, 0.0])))))
    with pytest.raises(DimensionMismatchError):
        cc_map_rows([(S_TWO_LINES, np.zeros((2, 2))), (S3, np.zeros((3, 3)))])
    with pytest.raises(DimensionMismatchError):
        cc_map_rows([(OperatorSet((Identity(),)), np.zeros((2, 2))),
                     (OperatorSet((Identity(),)), np.zeros((0, 3)))])
    # a family pinning R^3 at points of R^2, on the compiled path
    with pytest.raises(DimensionMismatchError):
        cc_map_rows([(S3, np.zeros((2, 2)))])
    with pytest.raises(DimensionMismatchError):
        check_properness_sampled(S_TWO_LINES, [np.zeros(2), np.zeros(3)])


BALL_FAMILY = OperatorSet((Identity(), ProjBall(Ball(np.zeros(2), 1.0)), ReflAffine(DIAG)))


@pytest.mark.parametrize("seed", range(8))
def test_rows_of_a_family_do_not_depend_on_the_call(affine_family, seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    # three shapes, two families each, interleaved; at n = 2 a family that
    # walks its trees joins them
    families = [affine_family(100 * seed + f % 3, 1000 * seed + f, n) for f in range(6)]
    if n == 2:
        families.insert(2, BALL_FAMILY)
    pairs = [(S, 2.0 * rng.standard_normal((int(rng.integers(0, 6)), n))) for S in families]
    exists, centers = cc_map_rows(pairs)
    start = 0
    for S, X in pairs:
        stop = start + len(X)
        alone = cc_map_rows([(S, X)])
        assert exists[start:stop].tolist() == alone[0].tolist()
        assert centers[start:stop].tobytes() == alone[1].tobytes()
        # neither compiled maps nor tree walks depend on the row count
        for x, ok, center in zip(X, alone[0], alone[1]):
            one = cc_map_rows([(S, x[None])])
            assert one[0][0] == ok and one[1][0].tobytes() == center.tobytes()
        start = stop


@pytest.mark.parametrize("seed", range(20))
def test_compiled_images_agree_with_apply(affine_family, seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    # one family, and four of one shape compiled together
    for pairs in ([(affine_family(seed, seed, n), 3.0 * rng.standard_normal((7, n)))],
                  [(affine_family(seed, 50 + f, n), 3.0 * rng.standard_normal((f, n)))
                   for f in range(4)]):
        images = circummap._images(pairs, n)
        X = np.concatenate([X for _, X in pairs])
        walked = np.concatenate([np.array([apply(op, X).T for op in S]) for S, X in pairs],
                                axis=2)
        assert images.shape == walked.shape == (len(pairs[0][0]), n, len(X))
        err = np.linalg.norm(images - walked, axis=1).max(axis=0, initial=0.0)
        assert (err <= 1e-14 * (1.0 + np.linalg.norm(X, axis=1))).all()


@pytest.fixture
def apply_calls(monkeypatch):
    """The operator node of every ``apply`` call made while the test runs,
    through any of the library's bindings."""
    calls = []
    real = operators.apply

    def counted(op, x):
        calls.append(op)
        return real(op, x)

    for module in (operators, circummap, gallery):
        monkeypatch.setattr(module, "apply", counted)
    return calls


def test_affine_grids_are_compiled_and_ball_families_walk(apply_calls):
    for name in ("relaxed-composed-iff", "relaxed-projectors-same-line-iff", "const-resolvents"):
        report = verify(name, seed=0)
        assert report.passed and report.checks > 0
    assert apply_calls == []
    assert classify_points(BALL_FAMILY, np.array(gaussian_cloud(2, 4, seed=3))).shape == (4,)
    assert len(apply_calls) == len(BALL_FAMILY)


# -- family constructors ----------------------------------------------------------


def test_with_identity_puts_the_identity_before_the_nodes():
    nodes = (ReflAffine(X_AXIS), ProjAffine(DIAG), ScaledId(2.0))
    S = OperatorSet.with_identity(iter(nodes), "s1")
    assert S.name == "s1" and len(S) == 4
    assert type(S.ops[0]) is Identity
    assert all(got is node for got, node in zip(S.ops[1:], nodes))


def test_prefix_words_compose_the_first_k_nodes_reversed():
    T1, T2, T3 = ReflAffine(X_AXIS), ProjAffine(DIAG), ScaledId(2.0)
    S = OperatorSet.prefix_words(iter((T1, T2, T3)), "s2")
    assert S.name == "s2" and len(S) == 4
    assert type(S.ops[0]) is Identity
    assert S.ops[1] is T1
    for word, letters in zip(S.ops[2:], [(T2, T1), (T3, T2, T1)]):
        assert type(word) is Compose and len(word.ops) == len(letters)
        assert all(got is node for got, node in zip(word.ops, letters))
    assert len(OperatorSet.prefix_words([])) == 1


LINE_IN_R3 = AffineSubspace.span(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("build", [
    lambda: OperatorSet.with_identity((ProjAffine(X_AXIS), ProjAffine(LINE_IN_R3))),
    lambda: OperatorSet((Identity(), ReflAffine(X_AXIS), Translate(np.zeros(3)))),
    lambda: OperatorSet((Compose((ScaledId(2.0), ReflAffine(LINE_IN_R3))), ProjAffine(DIAG))),
], ids=["with-identity", "hand-built", "compound-member"])
def test_operator_set_rejects_members_of_different_dimensions(build):
    with pytest.raises(DimensionMismatchError, match="OperatorSet mixes operators on R"):
        build()


def _ball_reflectors():
    return [reflector_of(ProjBall(Ball(np.array([c, 0.0]), 1.0))) for c in (-1.0, 1.0)]


def _relaxed_line_reflectors():
    return [relaxation(a, ReflAffine(X_AXIS)) for a in (0.5, 2.0)]


@pytest.mark.parametrize("nodes", [_ball_reflectors, _relaxed_line_reflectors],
                         ids=["ball-reflectors", "relaxed-reflectors"])
def test_constructed_families_equal_the_hand_built_ones_bit_for_bit(nodes):
    # The hand-built trees use fresh nodes for every occurrence, as a family
    # spelled out literally does; the constructors share the given nodes.
    T1, T2 = nodes()
    H1, H2 = nodes()
    G1, G2 = nodes()
    G1_again = nodes()[0]
    X = np.array(gaussian_cloud(2, 200, seed=16, scale=3.0)
                 + [[x, 0.0] for x in (-4.0, -2.0, -0.5, 0.0, 1.0, 2.0, 3.0)])
    outcomes = set()
    for built, by_hand in [
        (OperatorSet.with_identity((T1, T2)), OperatorSet((Identity(), H1, H2))),
        (OperatorSet.prefix_words((T1, T2)),
         OperatorSet((Identity(), G1, Compose((G2, G1_again))))),
    ]:
        exists, centers = cc_map_rows([(built, X)])
        want_exists, want_centers = cc_map_rows([(by_hand, X)])
        assert np.array_equal(exists, want_exists)
        assert np.array_equal(centers, want_centers, equal_nan=True)
        outcomes.update(exists.tolist())
    assert outcomes == {True, False}


def test_check_properness_reflector_family_clean():
    subs = [X_AXIS, DIAG]
    S = reflector_family(subs)
    pts = gaussian_cloud(2, 50, seed=4) + subspace_probes(subs, seed=4)
    report = check_properness_sampled(S, pts)
    assert report.proper_on_samples
    assert report.checked == len(pts)
    assert not report.criterion_mismatches


def test_check_properness_finds_escape():
    S = OperatorSet(
        (
            Identity(),
            ProjAffine(X_AXIS),
            ProjAffine(DIAG),
            Compose((ProjAffine(DIAG), ProjAffine(X_AXIS))),
        )
    )
    report = check_properness_sampled(S, [np.array([4.0, 2.0]), np.array([1.0, 1.0])])
    assert [tuple(c) for c in report.counterexamples] == [(4.0, 2.0)]


def test_check_properness_identity_only():
    report = check_properness_sampled(OperatorSet((Identity(),)), gaussian_cloud(2, 5, 5))
    assert report.proper_on_samples


@pytest.mark.parametrize("scale", [1.0, 2.0, 0.0])
def test_in_domain_is_the_one_row_case_of_the_batched_criterion(scale):
    # off the origin, a point on an axis has two images at scale 1 and three
    # collinear ones otherwise; the origin has one
    S = OperatorSet((ScaledId(scale), ReflAffine(X_AXIS), ReflAffine(Y_AXIS)))
    X = np.array(gaussian_cloud(2, 40, seed=4) + [[1.0, 0.0], [0.0, -2.0], [0.0, 0.0]])
    diags = [in_domain(S, x) for x in X]
    exists, card, independent, _, _ = circummap._domain_rows(S, X)
    assert [d.in_domain for d in diags] == exists.tolist() == classify_points(S, X).tolist()
    assert [d.card for d in diags] == card.tolist()
    assert [d.affinely_independent for d in diags] == independent.tolist()
    report = check_properness_sampled(S, X)
    outside = [x.tolist() for x, d in zip(X, diags) if not d.in_domain]
    assert [x.tolist() for x in report.counterexamples] == outside
    assert report.criterion_mismatches == []
    assert {d.card for d in diags} == ({1, 2, 3} if scale == 1.0 else {1, 3})
    assert (scale == 1.0) != bool(outside)


def test_pointwise_functions_call_the_kernel_not_the_tree_walk(scalar_calls):
    S = reflector_family([X_AXIS, DIAG])
    x = np.array([1.0, 2.0])
    assert fixed_point_residual(S, x) > 0
    demiclosedness_probe(S, [x, 0.5 * x], limit=np.zeros(2))
    affine_comb_identity_check([X_AXIS, DIAG], 0.5, x)
    in_domain(S, x)
    solvers.crm_solve(S, x, solvers.StopRule(1e-12, 5))
    assert scalar_calls == []
    assert not hasattr(solvers, "cc_map")


def test_cc_map_rows_is_exported():
    import circumlib

    assert circumlib.cc_map_rows is cc_map_rows


def test_demiclosedness_probe_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        demiclosedness_probe(S_TWO_LINES, [np.zeros(2), np.zeros(3)])
    with pytest.raises(DimensionMismatchError):
        demiclosedness_probe(S_TWO_LINES, [np.zeros(2)], limit=np.zeros(3))


# -- fixed points --------------------------------------------------------------------


def test_fixed_point_residual_zero_at_common_fixed_point():
    S = reflector_family([X_AXIS, DIAG])
    assert fixed_point_residual(S, np.zeros(2)) <= 1e-10


def test_fixed_point_residual_of_demiclosedness_geometry():
    L = AffineSubspace.from_spanning(np.array([0.0, 0.5]), [np.array([4.0, -1.0])])
    S = OperatorSet(
        (Constant(np.array([-2.0, 0.0])), Constant(np.array([2.0, 0.0])), ProjAffine(L))
    )
    assert fixed_point_residual(S, [0.0, -8.0]) == pytest.approx(8.0, abs=1e-9)


def test_fixed_point_residual_reflector_pair():
    S = OperatorSet((Identity(), ReflAffine(DIAG)))
    x = np.array([2.0, 0.0])
    want = np.linalg.norm(x - DIAG.project(x))
    assert fixed_point_residual(S, x) == pytest.approx(want)


def test_fixed_point_equality_with_identity_member():
    # with the identity in the family, zero residual forces every operator
    # to fix the point, and conversely
    S = reflector_family([X_AXIS, DIAG])
    for x in gaussian_cloud(2, 30, seed=6) + [np.zeros(2)]:
        r = fixed_point_residual(S, x)
        all_fixed = max(
            np.linalg.norm(apply(op, x) - x) for op in S.ops
        ) <= 1e-10 * (1 + np.linalg.norm(x))
        assert (r <= 1e-10 * (1 + np.linalg.norm(x))) == all_fixed


# -- demiclosedness probe ---------------------------------------------------------------


def test_demiclosedness_probe_counterexample():
    L = AffineSubspace.from_spanning(np.array([0.0, 0.5]), [np.array([4.0, -1.0])])
    S = OperatorSet(
        (Constant(np.array([-2.0, 0.0])), Constant(np.array([2.0, 0.0])), ProjAffine(L))
    )
    seq = [np.array([1.0 / k, -1.0 / (4.0 * k) - 8.0]) for k in range(1, 101)]
    report = demiclosedness_probe(S, seq, limit=np.array([0.0, -8.0]))
    assert report.residuals_vanish
    assert report.residuals[-1] < report.residuals[0] * 0.05
    assert report.limit_residual == pytest.approx(8.0, abs=1e-6)
    assert not report.limit_is_fixed


def test_demiclosedness_probe_constant_sequence_at_fixed_point():
    S = reflector_family([X_AXIS, DIAG])
    report = demiclosedness_probe(S, [np.zeros(2)] * 5)
    assert report.limit_is_fixed
    assert max(report.residuals) <= 1e-12


def test_demiclosedness_probe_nonexpansive_family_limit_is_fixed():
    # vanishing residuals along a convergent sequence force a fixed limit
    S = reflector_family([X_AXIS, DIAG])
    seq = [np.array([1.0, 1.0]) * 2.0**-k for k in range(20)]
    report = demiclosedness_probe(S, seq, limit=np.zeros(2))
    assert report.residuals_vanish and report.limit_is_fixed


# -- relaxation identities ----------------------------------------------------------------


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_reflector_relaxation_identity(alpha):
    subs = [X_AXIS, AffineSubspace.span(np.array([1.0, 3.0]))]
    for x in gaussian_cloud(2, 8, seed=7):
        got, predicted = affine_comb_identity_check(subs, alpha, x)
        assert got is not None
        assert np.linalg.norm(got - predicted) <= 1e-9 * (1 + np.linalg.norm(predicted))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_projector_relaxation_identity(alpha):
    subs = [X_AXIS, AffineSubspace.span(np.array([1.0, 3.0]))]
    for x in gaussian_cloud(2, 8, seed=8):
        got, predicted = affine_comb_identity_check(subs, alpha, x, projectors=True)
        assert got is not None
        assert np.linalg.norm(got - predicted) <= 1e-9 * (1 + np.linalg.norm(predicted))


def test_relaxed_set_alpha_zero_is_identity_family():
    subs = [X_AXIS]
    S = relaxed_set(subs, 0.0)
    x = np.array([1.0, 2.0])
    out = cc_map(S, x)
    np.testing.assert_allclose(out.center, x)


# -- structural invariants ----------------------------------------------------------------


def test_dr_identity_exact():
    S = OperatorSet((Identity(), Compose((ReflAffine(DIAG), ReflAffine(X_AXIS)))))
    for x in gaussian_cloud(2, 20, seed=9):
        out = cc_map(S, x)
        want = 0.5 * (x + DIAG.reflect(X_AXIS.reflect(x)))
        assert np.linalg.norm(out.center - want) <= 1e-12 * (1 + np.linalg.norm(want))


def test_on_subspace_collapse():
    S = S_TWO_LINES
    for t in (-2.0, 0.5, 3.0):
        x = np.array([t, 0.0])
        out = cc_map(S, x)
        np.testing.assert_allclose(out.center, DIAG.project(x), atol=1e-12)


def test_dr_powers_family_proper():
    T = AffineComb(
        ((0.5, Identity()), (0.5, Compose((ReflAffine(DIAG), ReflAffine(X_AXIS)))))
    )
    S = OperatorSet((Identity(), T, Compose((T, T))))
    pts = gaussian_cloud(2, 1000, seed=10) + subspace_probes([X_AXIS, DIAG], 5, seed=10)
    report = check_properness_sampled(S, pts)
    assert report.proper_on_samples


def test_dr_powers_span_the_word_family_hull():
    # aff{x, Tx, T^2x} = aff{x, Wx, W^2x} for the double-reflection word W
    T = AffineComb(
        ((0.5, Identity()), (0.5, Compose((ReflAffine(DIAG), ReflAffine(X_AXIS)))))
    )
    W = Compose((ReflAffine(DIAG), ReflAffine(X_AXIS)))
    for x in gaussian_cloud(2, 10, seed=11):
        hull_T = AffineSubspace.from_points([x, apply(T, x), apply(T, apply(T, x))])
        hull_W = AffineSubspace.from_points([x, apply(W, x), apply(W, apply(W, x))])
        assert hull_T.dim == hull_W.dim
        probe = apply(W, x)
        assert np.linalg.norm(hull_T.project(probe) - probe) <= 1e-9 * (
            1 + np.linalg.norm(probe)
        )


def test_nonlinearity_witness():
    S = S_TWO_LINES
    a = cc_map(S, [1.0, 0.0]).center
    b = cc_map(S, [1.0, -1.0]).center
    c = cc_map(S, [2.0, -1.0]).center
    np.testing.assert_allclose(a, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(b, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(c, [0.0, 0.0], atol=1e-12)
    assert np.linalg.norm((a + b) - c) > 0.5


def test_discontinuity_witness():
    S = S_TWO_LINES
    at_limit = cc_map(S, [1.0, 0.0]).center
    np.testing.assert_allclose(at_limit, [0.5, 0.5], atol=1e-12)
    for k in (1, 5, 50, 500):
        out = cc_map(S, [1.0, 1.0 / (k + 1.0)])
        assert np.linalg.norm(out.center) <= 1e-9


def test_reflector_word_families_always_proper_small():
    # identity-containing word families stay proper and project the common
    # point onto the image hull (small version of the acceptance run)
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        z = rng.standard_normal(n)
        subs = [
            AffineSubspace.from_spanning(
                z, [rng.standard_normal(n) for _ in range(int(rng.integers(0, n)))]
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        ops = [Identity()]
        for _ in range(int(rng.integers(1, 4))):
            word = [
                int(rng.integers(0, len(subs))) for _ in range(int(rng.integers(1, 4)))
            ]
            ops.append(
                Compose(tuple(ReflAffine(subs[i]) for i in reversed(word)))
            )
        S = OperatorSet(tuple(ops))
        meet = intersect_affine(subs)
        x = rng.standard_normal(n) * 2.0
        out = cc_map(S, x)
        assert out.exists
        hull = AffineSubspace.from_points(list(evaluate_set(S, x)))
        for _ in range(3):
            u = meet.project(rng.standard_normal(n) * 2.0)
            assert np.linalg.norm(out.center - hull.project(u)) <= 1e-9 * (
                1 + np.linalg.norm(x)
            )


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_gaussian_cloud_is_the_per_point_draw(dim):
    # one (count, dim) draw takes the same values from the generator as
    # count draws of dim values each
    for seed in range(30):
        for count in (0, 1, 2, 7, 20):
            rng = np.random.default_rng(seed)
            want = [2.5 * rng.standard_normal(dim) for _ in range(count)]
            got = gaussian_cloud(dim, count, seed, 2.5)
            assert len(got) == count
            assert all(g.shape == (dim,) and np.array_equal(g, w) for g, w in zip(got, want))
