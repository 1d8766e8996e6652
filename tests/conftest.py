import pytest

import circumlib.circummap as circummap
import circumlib.gallery as gallery


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
