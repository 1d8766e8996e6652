"""The benchmark's two workloads: seeded inputs, the timed op, and the checks
applied to every op's output after the timed phase.

Each ``build_*`` function is the workload's set-up: it builds every input from
the seed (the library sees only the generated inputs) and returns a
:class:`Plan`.  ``Plan.items`` is one whole cycle of op inputs in run order;
the harness only ever runs whole cycles, so per-op means of exact counts do
not depend on how many cycles fit in a run.  An op returns a small, comparable
summary of the library's output (bytes, not arrays), so that the harness can
keep one output per item and compare every later op against it; memory then
does not grow with the number of ops a faster library fits into a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from circumlib import ProbeGrid, circumcenter_oracle, domain_probe, evaluate_set, in_domain
from circumlib import gallery, verify_scenario
from circumlib.gallery import DomainSpec

# Defects the library already has, each as it was observed.  Ops they break
# are counted as failed on every run; they only keep a run from being marked
# incorrect, so that any other failure still is.
#
# * gallery-verify: table1-line-plane fails in every pass, because its
#   reference row cannot be reached from the published start point, which
#   lies on U1.
KNOWN_FAILURES = frozenset({"table1-line-plane"})

# * probe-grid: in_domain reports three affinely independent images as
#   outside the domain, contradicting its own exact criterion, while the
#   oracle finds their circumcenter.  orthonormal_basis accepts a direction
#   whose relative residual is above rank_tol = 1e-10, but solve_sym tests the
#   last Cholesky pivot of the Gram matrix against rank_tol times its largest
#   diagonal.  With the longest difference first (column pivoting), that
#   pivot over the largest diagonal is at least (s_min / s_max)^2 for the
#   singular values of the difference matrix, so the defect can only reject
#   images with s_min / s_max <= sqrt(rank_tol) = 1e-5.  Such images lie at
#   grid points close to a boundary of a scenario's domain; which points of
#   the grid come that close depends on the seeded offset (about one seed in
#   nine).  A disagreement with the oracle is the known defect only when it
#   has this signature, with the ratio computed here by numpy's SVD rather
#   than by the library; any other disagreement is a failure.
KNOWN_DEFECT_REL_SV = 1e-5


def _known_probe_defect(s, point):
    """The probe-grid defect above: the library's diagnosis is three affinely
    independent images outside the domain, and the images are near-collinear
    enough for solve_sym's squared pivot test to reject them."""
    d = in_domain(s.operator_set, point)
    if not (d.card == 3 and d.affinely_independent and not d.in_domain):
        return False
    images = evaluate_set(s.operator_set, point).points
    sv = np.linalg.svd(np.array([p - images[0] for p in images[1:]]), compute_uv=False)
    return sv[-1] <= KNOWN_DEFECT_REL_SV * sv[0]


# Why each workload was chosen; BENCHMARK.json repeats it.
WHY = {
    "gallery-verify": "circumlib verify and bench: all 48 scenarios, every node and expectation "
    "kind at n <= 3; families rebuilt per op",
    "probe-grid": "per-point in_domain overhead (validation, dispatch, dedup, Gram size <= 2) on "
    "ball, sphere and box nodes over a 41x21 grid",
}


@dataclass
class Verdict:
    """Result of checking one op's output.  ``counts`` are exact, seed-determined
    numbers printed so that a later change can show it altered no result."""

    ok: bool
    counts: dict = field(default_factory=dict)
    known: bool = False
    detail: str = ""


@dataclass
class Plan:
    """One cycle of op inputs with their labels, the op, the output check,
    and the input of the warm-up op run at the end of set-up."""

    items: list
    labels: list
    op: Callable
    check: Callable
    warmup: object


def _memo_check(reference, compare):
    """Check every op against a reference computed once per distinct item."""
    cache = {}

    def check(item, output):
        key = id(item)
        if key not in cache:
            cache[key] = reference(item)
        return compare(item, output, cache[key])

    return check


# -- gallery-verify -------------------------------------------------------------


def build_gallery_verify(seed: int) -> Plan:
    """One op is ``verify_scenario(s, seed)``; a cycle is one catalog pass."""
    items = list(gallery._build_catalog())

    def op(s):
        report = verify_scenario(s, seed)
        return report.passed, report.checks, len(report.failures)

    def check(s, out):
        passed, checks, failures = out
        return Verdict(
            ok=passed,
            counts={"checks": checks},
            known=s.name in KNOWN_FAILURES,
            detail="" if passed else f"{failures} failed checks",
        )

    return Plan(items, [s.name for s in items], op, check, items[0])


# -- probe-grid -------------------------------------------------------------------

GRID_WINDOW = (-4.0, 4.0, 41, -2.0, 2.0, 21)


def seeded_grid(rng) -> ProbeGrid:
    """The probe window, shifted by a seeded offset smaller than one grid step."""
    xmin, xmax, nx, ymin, ymax, ny = GRID_WINDOW
    dx = rng.uniform(0.0, (xmax - xmin) / (nx - 1))
    dy = rng.uniform(0.0, (ymax - ymin) / (ny - 1))
    return ProbeGrid(xmin + dx, xmax + dx, nx, ymin + dy, ymax + dy, ny)


def build_probe_grid(seed: int) -> Plan:
    """One op is ``domain_probe(S, grid)`` on one of the two-dimensional
    DomainSpec scenarios; each appears once per cycle in a seeded order."""
    rng = np.random.default_rng(seed)
    grid = seeded_grid(rng)
    scenarios = [
        s for s in gallery._build_catalog()
        if isinstance(s.expected, DomainSpec) and s.operator_set is not None and s.dim == 2
    ]
    items = [scenarios[i] for i in rng.permutation(len(scenarios))]
    points = grid.points()

    def op(s):
        rows, _ = domain_probe(s.operator_set, grid)
        return bytes(inside for _, _, inside in rows)

    def reference(s):
        return [circumcenter_oracle(evaluate_set(s.operator_set, p)).exists for p in points]

    def compare(s, got, want):
        if len(got) != len(want):
            return Verdict(ok=False, detail=f"{len(got)} rows for {len(want)} grid points")
        bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
        known = bool(bad) and all(
            want[k] and _known_probe_defect(s, points[k]) for k in bad)
        where = ", ".join(f"({points[k][0]:.6g}, {points[k][1]:.6g})" for k in bad[:5])
        return Verdict(
            ok=not bad,
            counts={"in_domain": sum(got)},
            known=known,
            detail=f"{len(bad)} of {len(want)} points disagree with the oracle: {where}" if bad
            else "",
        )

    # The warm-up scenario does not depend on the seeded order.
    return Plan(items, [s.name for s in items], op, _memo_check(reference, compare),
                scenarios[0])


BUILDERS = {
    "gallery-verify": build_gallery_verify,
    "probe-grid": build_probe_grid,
}
