"""The benchmark's layer tracer (perfbench/tracing.py) wraps circumlib's
public functions from outside and checks itself on one table-2 ``cc_map``
call.  A change to the library's API or call structure can break that check
and with it every traced benchmark run; this test makes such a break show in
the library's own suite.  The tracer module is loaded from its file and not
modified."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_self_check_counts():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.self_check() == tracing.SELF_CHECK_EXPECTED
