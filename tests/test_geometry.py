import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.geometry import (
    DUP_TOL,
    EQ_TOL,
    RANK_TOL,
    DimensionMismatchError,
    affine_hull_basis,
    orthonormal_basis,
    orthonormal_complement,
    rank,
)
from circumlib.operators import AffineSubspace


def test_orthonormal_basis_collinear():
    basis, pivots = orthonormal_basis([[2.0, 0.0], [4.0, 0.0]])
    assert len(basis) == 1
    np.testing.assert_allclose(np.abs(basis[0]), [1.0, 0.0])
    # column pivoting selects the larger vector; either index names a valid
    # maximal independent subfamily
    assert pivots in ([0], [1])


def test_orthonormal_basis_drops_zero_vector():
    basis, pivots = orthonormal_basis([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert len(basis) == 2
    assert 2 not in pivots


def test_orthonormal_basis_near_duplicate_is_rank_one():
    basis, _ = orthonormal_basis([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert len(basis) == 1


def test_orthonormal_basis_empty():
    basis, pivots = orthonormal_basis([])
    assert basis == [] and pivots == []


def test_orthonormal_basis_output_gram_is_identity():
    rng = np.random.default_rng(11)
    vecs = [rng.standard_normal(6) for _ in range(5)]
    basis, _ = orthonormal_basis(vecs)
    B = np.array(basis)
    G = B @ B.T
    assert np.abs(G - np.eye(len(basis))).max() <= 1e-10


def test_orthonormal_basis_span_equality():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 9)
        count = rng.integers(1, 7)
        vecs = [rng.standard_normal(n) for _ in range(count)]
        if rng.random() < 0.4 and count >= 2:
            vecs[-1] = 0.5 * vecs[0] - 2.0 * vecs[1 % count]
        basis, _ = orthonormal_basis(vecs)
        B = np.array(basis).reshape(len(basis), n)
        for v in vecs:
            resid = v - B.T @ (B @ v) if len(basis) else v
            assert np.linalg.norm(resid) <= 1e-9 * max(np.linalg.norm(v), 1e-30)


def test_rank_empty_and_triple():
    assert rank([]) == 0
    assert rank([[2.0, 0.0], [1.5 + 2.0, 0.125]]) == 2


def test_rank_reflector_differences():
    # U the x-axis: {R_U x - x, R_{U_perp} x - x} has rank 1 exactly on the
    # union of the axes (away from the origin), rank 2 elsewhere
    def diffs(x):
        x = np.asarray(x, dtype=float)
        return [np.array([x[0], -x[1]]) - x, np.array([-x[0], x[1]]) - x]

    assert rank(diffs([3.0, 0.0])) == 1
    assert rank(diffs([0.0, -2.0])) == 1
    assert rank(diffs([1.0, 1.0])) == 2
    assert rank(diffs([-0.3, 2.0])) == 2


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=10_000),
    which=st.integers(min_value=0, max_value=3),
)
def test_rank_invariance_scaling_permutation(scale, seed, which):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(4) for _ in range(4)]
    vecs[2] = vecs[0] + vecs[1]  # force a dependence
    base = rank(vecs)
    scaled = list(vecs)
    scaled[which] = scale * scaled[which]
    assert rank(scaled) == base
    perm = rng.permutation(len(vecs))
    assert rank([vecs[i] for i in perm]) == base


def test_affine_hull_single_point():
    anchor, basis = affine_hull_basis([[1.5, -2.0]])
    np.testing.assert_allclose(anchor, [1.5, -2.0])
    assert basis == []


def test_affine_hull_collinear_points():
    anchor, basis = affine_hull_basis([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(anchor, [0.0, 0.0])
    assert len(basis) == 1
    np.testing.assert_allclose(np.abs(basis[0]), [1.0, 0.0])


def test_affine_hull_two_dimensional():
    _, basis = affine_hull_basis([[-2.0, 0.0], [2.0, 0.0], [1.5, 0.125]])
    assert len(basis) == 2


@pytest.mark.parametrize("hull", [affine_hull_basis, AffineSubspace.from_points],
                         ids=["affine_hull_basis", "from_points"])
@pytest.mark.parametrize("points,error", [
    ([[1.0, 2.0], [3.0]], DimensionMismatchError),
    ([], ValueError),
], ids=["mixed-dimensions", "empty"])
def test_affine_hull_rejects_bad_point_families(hull, points, error):
    with pytest.raises(error):
        hull(points)


def test_from_points_is_the_affine_hull():
    pts = [[1.0, -1.0, 2.0], [3.0, 0.5, 2.0], [0.0, 2.0, -1.0]]
    hull = AffineSubspace.from_points(pts)
    anchor, basis = affine_hull_basis(pts)
    assert np.array_equal(hull.anchor, anchor) and np.array_equal(hull.basis, np.array(basis))


def test_orthonormal_complement_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = rng.integers(1, 7)
        k = int(rng.integers(0, n + 1))
        vecs = [rng.standard_normal(n) for _ in range(k)]
        comp = orthonormal_complement(vecs, n)
        basis, _ = orthonormal_basis(vecs)
        assert len(comp) == n - len(basis)
        for c in comp:
            for b in basis:
                assert abs(np.dot(c, b)) <= 1e-10


def test_thresholds_are_pinned():
    assert (RANK_TOL, EQ_TOL, DUP_TOL) == (1e-10, 1e-9, 1e-12)
