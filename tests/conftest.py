import numpy as np
import pytest

import circumlib.circummap as circummap
import circumlib.gallery as gallery
from circumlib.operators import (
    AffineComb,
    AffineSubspace,
    Compose,
    Constant,
    Identity,
    ProjAffine,
    ReflAffine,
    ScaledId,
    Translate,
)


@pytest.fixture
def scalar_calls(monkeypatch):
    """The ``(S, x)`` of every pointwise ``cc_map`` or ``in_domain`` call made
    through the library's bindings while the test runs.  The batched paths
    make none: they share the circumcenter kernel with these calls."""
    calls = []
    for name in ("cc_map", "in_domain"):
        real = getattr(circummap, name)

        def counted(S, x, real=real):
            calls.append((S, x))
            return real(S, x)

        monkeypatch.setattr(circummap, name, counted)
        monkeypatch.setattr(gallery, name, counted, raising=False)
    return calls


def _affine_tree(shape_rng, rng, n, depth=3):
    """A random affine operator tree on R^n, with ``Compose`` and
    ``AffineComb`` nodes up to ``depth`` levels over every affine leaf type.
    ``shape_rng`` draws the tree's shape and ``rng`` its parameters, so
    trees drawn with equally seeded ``shape_rng`` have one shape."""
    kind = int(shape_rng.integers(0, 8 if depth else 6))
    if kind == 0:
        return Identity()
    if kind == 1:
        return Constant(rng.standard_normal(n))
    if kind == 2:
        return ScaledId(float(rng.uniform(-1.5, 1.5)))
    if kind == 3:
        return Translate(rng.standard_normal(n))
    if kind in (4, 5):
        dirs = rng.standard_normal((int(rng.integers(0, n + 1)), n))
        U = AffineSubspace.from_spanning(rng.standard_normal(n), list(dirs))
        return ProjAffine(U) if kind == 4 else ReflAffine(U)
    children = [_affine_tree(shape_rng, rng, n, depth - 1)
                for _ in range(int(shape_rng.integers(1, 4)))]
    if kind == 6:
        return Compose(tuple(children))
    w = rng.uniform(-0.5, 1.0, len(children))
    w[-1] = 1.0 - w[:-1].sum()
    return AffineComb(tuple(zip(w.tolist(), children)))


@pytest.fixture
def affine_family():
    """``family(shape_seed, seed, n)``: an ``OperatorSet`` of 2 to 4 random
    affine trees on R^n; families of one ``shape_seed`` have one size and
    shape, and ``seed`` draws their parameters."""
    def family(shape_seed, seed, n):
        shape_rng, rng = np.random.default_rng(shape_seed), np.random.default_rng(seed)
        m = int(shape_rng.integers(2, 5))
        return circummap.OperatorSet(tuple(_affine_tree(shape_rng, rng, n) for _ in range(m)))

    return family
