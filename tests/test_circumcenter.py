"""The least-squares oracle is the reference implementation here: every
hand-derived value below was cross-checked against it, and the main solver is
required to agree with it everywhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.circumcenter import (
    PointSet,
    _exists_rows,
    circumcenter,
    circumcenter_oracle,
    circumcenter_three,
)
from circumlib.geometry import DUP_TOL, EQ_TOL, rank


def both(points):
    ps = PointSet(points)
    return circumcenter(ps), circumcenter_oracle(ps)


# -- oracle behaviour (reference path) ----------------------------------------


def test_oracle_singleton():
    out = circumcenter_oracle(PointSet([[1.0, 2.0, 3.0]]))
    assert out.exists and out.radius == 0.0
    np.testing.assert_allclose(out.center, [1.0, 2.0, 3.0])


def test_oracle_midpoint():
    out = circumcenter_oracle(PointSet([[0.0, 0.0], [2.0, 4.0]]))
    np.testing.assert_allclose(out.center, [1.0, 2.0])


def test_oracle_three_reals_never_concentric():
    assert not circumcenter_oracle(PointSet([[0.0], [1.0], [2.0]])).exists


def test_oracle_matches_three_point_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pts = rng.standard_normal((3, 3))
        ps = PointSet(pts)
        if len(ps) < 3 or rank([pts[1] - pts[0], pts[2] - pts[0]]) < 2:
            continue
        a = circumcenter_oracle(ps)
        b = circumcenter_three(pts[0], pts[1], pts[2])
        assert a.exists and b.exists
        assert np.linalg.norm(a.center - b.center) <= 1e-9 * (1 + np.linalg.norm(b.center))


# -- main solver against frozen values -----------------------------------------


def test_right_triangle_center():
    out, oracle = both([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(out.center, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(oracle.center, [1.0, 1.0], atol=1e-9)


def test_pair_midpoint():
    out = circumcenter(PointSet([[1.0, 1.0], [3.0, 5.0]]))
    np.testing.assert_allclose(out.center, [2.0, 3.0])
    assert out.radius == pytest.approx(np.sqrt(5.0))


def test_pair_far_from_the_origin_has_its_midpoint_as_circumcenter():
    # Two points near 1e8, an odd number of ulps apart and well above the
    # dedup threshold: their midpoint rounds by half an ulp, so its distances
    # to them differ by more than EQ_TOL, yet every pair has a circumcenter.
    x = np.array([1e8, 3.0])
    y = x + [10001 * np.spacing(1e8), 0.0]
    out = circumcenter(PointSet([x, y]))
    assert out.exists and out.basis_indices == (0, 1)
    np.testing.assert_array_equal(out.center, 0.5 * (x + y))
    gap = abs(np.linalg.norm(out.center - x) - np.linalg.norm(out.center - y))
    assert gap > EQ_TOL * (1.0 + out.radius)
    # In a batch too, beside a duplicate that leaves the pair and a triangle.
    far = np.array([1e8, 1e4])
    P = np.ascontiguousarray(np.array([[x, y, x], [x, y, y], [x, y, far]]).transpose(1, 2, 0))
    exists, center, _, card, _ = _exists_rows(P)
    assert exists.tolist() == [True, True, True] and card.tolist() == [2, 2, 3]
    np.testing.assert_array_equal(center[:, :2], np.tile(out.center[:, None], 2))


def test_collinear_reals_not_exists():
    assert not circumcenter(PointSet([[0.0], [1.0], [2.0]])).exists


def test_collinear_triple_not_exists():
    assert not circumcenter_three([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]).exists


@pytest.mark.parametrize("k", [1, 2, 5, 10, 100])
def test_near_degenerate_family(k):
    # {(-2,0),(2,0),(2-1/k,1/(4k))} has center (0, -8 + 2/k + 1/(8k))
    pts = [[-2.0, 0.0], [2.0, 0.0], [2.0 - 1.0 / k, 1.0 / (4.0 * k)]]
    want = np.array([0.0, -8.0 + 2.0 / k + 1.0 / (8.0 * k)])
    out = circumcenter(PointSet(pts))
    assert out.exists
    assert np.linalg.norm(out.center - want) <= 1e-9 * (1 + np.linalg.norm(want))
    three = circumcenter_three(*pts)
    assert np.linalg.norm(three.center - want) <= 1e-9 * (1 + np.linalg.norm(want))


def test_three_point_closed_form_k2_member():
    out = circumcenter_three([-2.0, 0.0], [2.0, 0.0], [1.5, 0.125])
    np.testing.assert_allclose(out.center, [0.0, -6.9375], atol=1e-10)


def test_projector_images_not_exists():
    # x, P1 x, P2 x, P2 P1 x for the two lines through the origin at (4,2)
    x = np.array([4.0, 2.0])
    p1 = np.array([4.0, 0.0])
    p2 = np.array([3.0, 3.0])
    p21 = np.array([2.0, 2.0])
    out, oracle = both([x, p1, p2, p21])
    assert not out.exists and not oracle.exists


def test_three_point_requires_distinct():
    with pytest.raises(ValueError):
        circumcenter_three([1.0, 1.0], [1.0, 1.0], [0.0, 0.0])


def test_pointset_dedups():
    ps = PointSet([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert len(ps) == 2


def test_pointset_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointSet([[np.inf, 0.0]])


def test_outcome_invariants_exists():
    ps = PointSet([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    out = circumcenter(ps)
    assert out.exists
    dists = [np.linalg.norm(out.center - p) for p in ps]
    assert max(dists) - min(dists) <= 1e-9 * (1 + out.radius)
    # center stays in the affine hull of the inputs
    from circumlib.geometry import affine_hull_basis

    anchor, basis = affine_hull_basis(list(ps))
    B = np.array(basis)
    d = out.center - anchor
    assert np.linalg.norm(d - B.T @ (B @ d)) <= 1e-9


# -- invariants ----------------------------------------------------------------


def _random_pointset(rng):
    n = int(rng.integers(1, 6))
    count = int(rng.integers(1, 7))
    pts = rng.standard_normal((count, n)) * 2.0
    mode = rng.random()
    if mode < 0.25 and count >= 3:
        # force affine dependence: last point on the segment of the first two
        t = float(rng.uniform(-1.5, 1.5))
        pts[-1] = (1 - t) * pts[0] + t * pts[1]
    elif mode < 0.4 and count >= 2:
        pts[-1] = pts[0]
    return PointSet(pts)


def test_scaling_equivariance():
    rng = np.random.default_rng(23)
    for lam in (-2.0, -1.0, 0.5, 3.0):
        for _ in range(50):
            ps = _random_pointset(rng)
            out = circumcenter(ps)
            scaled = circumcenter(PointSet([lam * p for p in ps]))
            assert out.exists == scaled.exists
            if out.exists:
                want = lam * out.center
                assert np.linalg.norm(scaled.center - want) <= 1e-9 * (
                    1 + np.linalg.norm(want)
                )


def test_translation_equivariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        ps = _random_pointset(rng)
        y = rng.standard_normal(ps.dim) * 3.0
        out = circumcenter(ps)
        moved = circumcenter(PointSet([p + y for p in ps]))
        assert out.exists == moved.exists
        if out.exists:
            want = out.center + y
            assert np.linalg.norm(moved.center - want) <= 1e-9 * (1 + np.linalg.norm(want))


def test_basis_reduction():
    # adding points inside the affine hull must not move an existing center
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        base = rng.standard_normal((3, n))
        ps_small = PointSet(base)
        small = circumcenter(ps_small)
        if not small.exists:
            continue
        lam = rng.uniform(-1.0, 2.0, size=2)
        extra = base[0] + lam[0] * (base[1] - base[0]) + lam[1] * (base[2] - base[0])
        big = circumcenter(PointSet(np.vstack([base, extra])))
        if big.exists:
            assert np.linalg.norm(big.center - small.center) <= 1e-8 * (
                1 + np.linalg.norm(small.center)
            )


def test_three_point_existence_iff_rank_two():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        pts = rng.standard_normal((3, 2)) * 2.0
        if rng.random() < 0.3:
            t = float(rng.uniform(-1.0, 2.0))
            pts[2] = (1 - t) * pts[0] + t * pts[1]
        ps = PointSet(pts)
        if len(ps) < 3:
            continue
        out = circumcenter(ps)
        independent = rank([pts[1] - pts[0], pts[2] - pts[0]]) == 2
        assert out.exists == independent


def test_oracle_equivalence_random():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        ps = _random_pointset(rng)
        a = circumcenter(ps)
        b = circumcenter_oracle(ps)
        assert a.exists == b.exists
        if a.exists:
            assert np.linalg.norm(a.center - b.center) <= 1e-8 * (
                1 + np.linalg.norm(b.center)
            )


def test_continuity_under_perturbation():
    # affinely independent families move their center Lipschitz-continuously
    rng = np.random.default_rng(43)
    base = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    center0 = circumcenter(PointSet(base)).center
    worst = 0.0
    for _ in range(200):
        delta = rng.uniform(-1e-6, 1e-6, size=base.shape)
        moved = circumcenter(PointSet(base + delta))
        assert moved.exists
        worst = max(worst, np.linalg.norm(moved.center - center0) / np.abs(delta).max())
    assert np.isfinite(worst) and worst < 1e3


def _exact_planar_center(x1, x2, x3):
    """The circumcenter of three points of R^2 in rational arithmetic,
    rounded once to floats."""
    from fractions import Fraction

    x1, x2, x3 = [[Fraction(float(v)) for v in p] for p in (x1, x2, x3)]
    a = [x2[0] - x1[0], x2[1] - x1[1]]
    b = [x3[0] - x1[0], x3[1] - x1[1]]
    ra, rb = (a[0] ** 2 + a[1] ** 2) / 2, (b[0] ** 2 + b[1] ** 2) / 2
    det = a[0] * b[1] - a[1] * b[0]
    return np.array([float(x1[0] + (ra * b[1] - a[1] * rb) / det),
                     float(x1[1] + (a[0] * rb - ra * b[0]) / det)])


def test_tight_pair_far_from_the_first_point_keeps_full_accuracy():
    # Two points 1e-4 apart and a third 4 away, listed first.  Differences to
    # the first point would round the short chord between the other two to
    # about 4e-16 absolute, a relative error of about 1e-11 in the center;
    # anchored at the closest pair that chord is exact.
    rng = np.random.default_rng(15)
    errors = []
    for _ in range(300):
        p, u, v = rng.standard_normal((3, 2))
        q = p + 1e-4 * u / np.linalg.norm(u)
        far = p + 4.0 * v / np.linalg.norm(v)
        out = circumcenter(PointSet([far, p, q]))
        assert out.exists
        exact = _exact_planar_center(far, p, q)
        errors.append(np.linalg.norm(out.center - exact) / np.linalg.norm(exact))
    assert np.median(errors) <= 1e-14 and max(errors) <= 1e-11


# -- batch rows against single calls ------------------------------------------------


def _stacked_sets(rng, N, m, n):
    """N sets of m points in R^n at scales 1e-3..1e3, stacked rows-last as
    (m, n, N).  Each set is generic, has exact duplicates, has a near duplicate
    at 0.5 or 2 times DUP_TOL (just under or over it) or far from it (1e-5 or
    1e5 times), or is collinear or coplanar; one stack mixes cardinalities."""
    sets = rng.standard_normal((N, m, n)) * 10.0 ** rng.uniform(-3, 3, size=(N, 1, 1))
    for pts in sets:
        kind = rng.integers(5)
        if kind == 1 and m >= 2:
            for _ in range(rng.integers(1, m)):
                i, j = rng.choice(m, 2, replace=False)
                pts[j] = pts[i]
        elif kind == 2 and m >= 2:
            i, j = rng.choice(m, 2, replace=False)
            step = rng.standard_normal(n)
            scale = max(np.linalg.norm(pts, axis=1).max(), 1.0)
            factor = rng.choice([0.5, 2.0, 1e-5, 1e5])
            pts[j] = pts[i] + factor * DUP_TOL * scale * step / np.linalg.norm(step)
        elif kind == 3:
            pts[:] = pts[0] + rng.standard_normal((m, 1)) * pts[1 % m]
        elif kind == 4:
            pts[:] = pts[0] + rng.standard_normal((m, 2)) @ pts[[1 % m, 2 % m]]
    return np.ascontiguousarray(sets.transpose(1, 2, 0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), N=st.integers(min_value=0, max_value=50),
       m=st.integers(min_value=1, max_value=5), n=st.integers(min_value=1, max_value=3))
def test_batched_kernel_rows_equal_their_own_single_calls(seed, N, m, n):
    P = _stacked_sets(np.random.default_rng(seed), N, m, n)
    exists, center, radius, card, pivots = _exists_rows(P)
    assert exists.shape == radius.shape == card.shape == (N,) and center.shape == (n, N)
    # Each row's answer depends on that row alone: the kernel at N = 1 and
    # circumcenter on the deduplicated set give it exactly.
    for r in range(N):
        one = _exists_rows(P[..., r:r + 1])
        assert one[0][0] == exists[r] and np.array_equal(one[1][:, 0], center[:, r])
        assert one[2][0] == radius[r] and one[3][0] == card[r]
        out = circumcenter(PointSet(P[..., r]))
        assert out.exists == exists[r]
        assert len(out.basis_indices) == (pivots[:, r] >= 0).sum()
        if out.exists:
            assert np.array_equal(out.center, center[:, r]) and out.radius == radius[r]
