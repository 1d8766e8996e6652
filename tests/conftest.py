import pytest

import circumlib.circummap as circummap
import circumlib.gallery as gallery


@pytest.fixture
def in_domain_calls(monkeypatch):
    """The points the library passes to ``in_domain`` while the test runs."""
    calls = []
    real = circummap.in_domain

    def counted(S, x, tol):
        calls.append(x)
        return real(S, x, tol)

    monkeypatch.setattr(circummap, "in_domain", counted)
    # gallery too, should it ever import the name again
    monkeypatch.setattr(gallery, "in_domain", counted, raising=False)
    return calls
