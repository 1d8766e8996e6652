import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circumlib.geometry import (
    DUP_TOL,
    EQ_TOL,
    RANK_TOL,
    DimensionMismatchError,
    _row_norms,
    affine_hull_basis,
    orthonormal_basis,
    orthonormal_complement,
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


def _rank(vectors) -> int:
    """Numerical rank of the family: the size of its orthonormal basis."""
    return len(orthonormal_basis(vectors)[0])


def test_rank_empty_and_triple():
    assert _rank([]) == 0
    assert _rank([[2.0, 0.0], [1.5 + 2.0, 0.125]]) == 2


def test_rank_reflector_differences():
    # U the x-axis: {R_U x - x, R_{U_perp} x - x} has rank 1 exactly on the
    # union of the axes (away from the origin), rank 2 elsewhere
    def diffs(x):
        x = np.asarray(x, dtype=float)
        return [np.array([x[0], -x[1]]) - x, np.array([-x[0], x[1]]) - x]

    assert _rank(diffs([3.0, 0.0])) == 1
    assert _rank(diffs([0.0, -2.0])) == 1
    assert _rank(diffs([1.0, 1.0])) == 2
    assert _rank(diffs([-0.3, 2.0])) == 2


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
    base = _rank(vecs)
    scaled = list(vecs)
    scaled[which] = scale * scaled[which]
    assert _rank(scaled) == base
    perm = rng.permutation(len(vecs))
    assert _rank([vecs[i] for i in perm]) == base


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


def test_row_norms_equal_np_linalg_norm_bit_for_bit():
    # Relative deviations and residuals are printed to 17 digits, so the
    # batched norm must keep every bit of the per-row norm.  If a numpy or
    # BLAS build sums the stacked dot in another order, this fails loudly
    # instead of moving those digits.
    rng = np.random.default_rng(20240)
    for _ in range(400):
        N, n = int(rng.integers(0, 71)), int(rng.integers(1, 5))
        D = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal((N, n))
        for rows in (D, np.asfortranarray(D), D[::-1]):
            got = _row_norms(rows)
            want = np.array([np.linalg.norm(r) for r in rows]).reshape(N)
            assert got.shape == (N,)
            assert got.tobytes() == want.tobytes()
