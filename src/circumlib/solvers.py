"""Iterative best-approximation solvers and the benchmark harness.

Three methods over closed affine subspaces U1, U2 (all driven to the target
x_bar = P_{U1 cap U2} x0):

* DRM: x_{k+1} = (x_k + R_{U2} R_{U1} x_k)/2, convergence measured on the
  shadow sequence P_{U1} x_k;
* MAP: alternating projections, with one trace entry (and one iteration
  counted) per individual projection;
* CRM: x_{k+1} = circumcenter of the reflector-family image of x_k, measured
  on the iterate itself.

Each method (and ``drm_pair_solve``, which measures the pair sequence by its
step norms) is a step map plus the sequence it measures, run by one loop that
owns the residuals, the stop test and the ``max_iter`` cap.

The reference tables were produced elsewhere with an unstated stopping
tolerance, so the harness calibrates epsilon instead of hard-coding it: the
iteration count of a method is a step function of epsilon whose jumps are the
measured distances, giving each (method, count) pair a half-open feasibility
window.  Calibration intersects the four windows inside the DRM window when
possible and otherwise falls back to the DRM window alone; the reported
epsilon is the geometric midpoint of the chosen window.  A window needs only
the first count + 1 distances, so each calibration trace stops at its method's
reference count; the counting solves then stop at the calibrated epsilon, and
each trace in a result ends at its method's count (at ``max_iter`` when the
count is None).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .circummap import OperatorSet, cc_map_rows
from .geometry import as_vector
from .operators import (
    AffineSubspace,
    Ball,
    EmptyIntersectionError,
    ReflAffine,
    intersect_affine,
    project_ball,
)

__all__ = [
    "StopRule",
    "IterationTrace",
    "PairTrace",
    "BenchResult",
    "REFERENCE_COUNTS",
    "TABLE_NAMES",
    "METHODS",
    "drm_solve",
    "map_solve",
    "crm_solve",
    "best_approximation",
    "iterations_to_tolerance",
    "drm_pair_solve",
    "table_geometry",
    "count_window",
    "calibrate_epsilon",
    "calibrate_table",
    "run_benchmark",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
LEFT_DOMAIN = "left_domain"


@dataclass(frozen=True)
class StopRule:
    """Stopping rule: distance of the measured point to ``target`` at most
    ``epsilon`` (step norms when no target is given), capped at ``max_iter``."""

    epsilon: float
    max_iter: int = 10000
    target: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < float("inf"):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.target is not None:
            object.__setattr__(self, "target", as_vector(self.target))


@dataclass
class IterationTrace:
    """History of a solve.  ``measured`` is the convergence-relevant sequence
    (shadow for DRM, per-projection points for MAP, iterates for CRM);
    ``residuals[k]`` is the distance of ``measured[k]`` to the target, or the
    step norm into ``measured[k]`` when no target was supplied."""

    method: str
    iterates: list = field(default_factory=list)
    measured: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    stop_reason: str = MAX_ITER

    @property
    def iterations(self) -> int:
        return len(self.measured) - 1

    @property
    def shadow(self) -> list | None:
        """The DRM shadow sequence P_{U1} x_k, which DRM measures."""
        return self.measured if self.method == "drm" else None


@dataclass
class PairTrace:
    """Governing iterates of (Id + R_V R_U)/2 with the two pair sequences
    ((P_U x_n, P_V R_U x_n)) and ((P_U x_n, P_V P_U x_n)) recorded."""

    iterates: list
    pairs_u: list
    pairs_v: list
    pairs_v_alt: list
    gaps: list
    stop_reason: str


def _iterate(method: str, x0, rule: StopRule, step, measure=None) -> IterationTrace:
    """The one iteration loop: x_{k+1} = step(x_k, m_k) with m_k = measure(x_k)
    (the iterate itself when ``measure`` is None).  It stops when the residual
    of m_k is at most epsilon, after ``rule.max_iter`` steps, or when ``step``
    returns None (the iterate left the map's domain)."""
    trace = IterationTrace(method)
    x = as_vector(x0).copy()
    prev = None
    while True:
        point = x if measure is None else measure(x)
        ref = prev if rule.target is None else rule.target
        trace.iterates.append(x)
        trace.measured.append(point)
        trace.residuals.append(float("inf") if ref is None else float(np.linalg.norm(point - ref)))
        if trace.residuals[-1] <= rule.epsilon:
            trace.stop_reason = CONVERGED
            return trace
        if len(trace.measured) > rule.max_iter:
            trace.stop_reason = MAX_ITER
            return trace
        x = step(x, point)
        if x is None:
            trace.stop_reason = LEFT_DOMAIN
            return trace
        prev = point


def drm_solve(U1: AffineSubspace, U2: AffineSubspace, x0, rule: StopRule) -> IterationTrace:
    """Douglas-Rachford iteration with convergence measured on the shadow."""
    # R_{U1} x = 2 P_{U1} x - x, reusing the measured shadow.
    return _iterate("drm", x0, rule, lambda x, shadow: 0.5 * (x + U2.reflect(2.0 * shadow - x)),
                    U1.project)


def map_solve(U1: AffineSubspace, U2: AffineSubspace, x0, rule: StopRule) -> IterationTrace:
    """Alternating projections; every single projection is one iteration."""
    projections = itertools.cycle((U1.project, U2.project))
    return _iterate("map", x0, rule, lambda x, _: next(projections)(x))


def crm_solve(S: OperatorSet, x0, rule: StopRule) -> IterationTrace:
    """Circumcenter iteration x_{k+1} = CC_S(x_k), one :func:`cc_map_rows` row a step.

    Exits with ``left_domain`` if an image set has no circumcenter (possible
    when the family is not an identity-containing reflector-word family over
    subspaces with a common point).
    """

    def step(x, _):
        exists, centers = cc_map_rows([(S, x[None])])
        return centers[0] if exists[0] else None

    return _iterate(f"crm:{S.name}" if S.name else "crm", x0, rule, step)


def best_approximation(subspaces, x0) -> np.ndarray:
    """Nearest point of the intersection of the subspaces, computed directly."""
    meet = intersect_affine(subspaces)
    if meet is None:
        raise EmptyIntersectionError("the subspaces have empty intersection")
    return meet.project(as_vector(x0))


def iterations_to_tolerance(trace: IterationTrace, target, epsilon: float) -> int | None:
    """Smallest k with ||measured_k - target|| <= epsilon, or None."""
    target = as_vector(target)
    for k, point in enumerate(trace.measured):
        if np.linalg.norm(point - target) <= epsilon:
            return k
    return None


def _proj_fn(C):
    if isinstance(C, AffineSubspace):
        return C.project
    if isinstance(C, Ball):
        return lambda x: project_ball(C, x)
    raise TypeError(f"unsupported set type {type(C).__name__}")


def drm_pair_solve(U: AffineSubspace, V, x0, rule: StopRule) -> PairTrace:
    """Douglas-Rachford for possibly nonintersecting (U, V).

    Iterates T = (R_V R_U + Id)/2 and records the best-approximation pair
    candidates (P_U x_n, P_V R_U x_n) and (P_U x_n, P_V P_U x_n); stops when
    the first pair moves by at most epsilon.
    """
    proj_v = _proj_fn(V)
    n = len(as_vector(x0))

    def pair(x):
        pu = U.project(x)
        return np.concatenate([pu, proj_v(2.0 * pu - x)])  # (P_U x, P_V R_U x)

    def step(x, p):
        ru = 2.0 * p[:n] - x  # R_U x from the measured P_U x
        return 0.5 * (x + 2.0 * p[n:] - ru)  # (R_V R_U + Id)/2 reusing P_V(R_U x)

    trace = _iterate("drm-pair", x0, StopRule(rule.epsilon, rule.max_iter), step, pair)
    pairs_u = [p[:n] for p in trace.measured]
    pairs_v = [p[n:] for p in trace.measured]
    return PairTrace(trace.iterates, pairs_u, pairs_v, [proj_v(pu) for pu in pairs_u],
                     [float(np.linalg.norm(pu - pv)) for pu, pv in zip(pairs_u, pairs_v)],
                     trace.stop_reason)


# -- benchmark tables ----------------------------------------------------------

TABLE_NAMES = ("table1-line-plane", "table2-plane-plane")

REFERENCE_COUNTS = {
    "table1-line-plane": {"drm": 12, "map": 12, "crm-s1": 1, "crm-s2": 1},
    "table2-plane-plane": {"drm": 5, "map": 6, "crm-s1": 5, "crm-s2": 2},
}


def table_geometry(name: str):
    """Geometry of a benchmark table: (U1, U2, x0, target, S1, S2)."""
    if name == "table1-line-plane":
        U1 = AffineSubspace.span(np.array([1.0, 0.0, 0.0]))
        U2 = AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)
        x0 = np.array([0.5, 0.0, 0.0])
    elif name == "table2-plane-plane":
        U1 = AffineSubspace.hyperplane(np.array([1.0, 1.0, 1.0]), 0.0)
        U2 = AffineSubspace.hyperplane(np.array([-1.0, 2.0, 2.0]), 0.0)
        x0 = np.array([-1.0, 0.5, 0.5])
    else:
        raise KeyError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")
    target = best_approximation([U1, U2], x0)
    S1 = OperatorSet.with_identity(map(ReflAffine, (U1, U2)), "s1")
    S2 = OperatorSet.prefix_words(map(ReflAffine, (U1, U2)), "s2")
    return U1, U2, x0, target, S1, S2


# The benchmark methods in report order.  Each runs on a table's geometry
# ``geo = (U1, U2, x0, target, S1, S2)`` from ``x0`` under ``rule``.  The
# solvers are looked up by name at call time, so a wrapper installed on this
# module's bindings (the benchmark's layer tracer does this) sees every solve.
METHODS = {
    "drm": lambda geo, x0, rule: drm_solve(geo[0], geo[1], x0, rule),
    "map": lambda geo, x0, rule: map_solve(geo[0], geo[1], x0, rule),
    "crm-s1": lambda geo, x0, rule: crm_solve(geo[4], x0, rule),
    "crm-s2": lambda geo, x0, rule: crm_solve(geo[5], x0, rule),
}


def count_window(distances, count: int):
    """Epsilon window [lo, hi) for which the first index with distance <= eps
    equals ``count``; None when no epsilon achieves that count."""
    if count >= len(distances):
        return None
    lo = distances[count]
    hi = min(distances[:count]) if count > 0 else float("inf")
    return (lo, hi) if lo < hi else None


def calibrate_epsilon(distance_seqs: dict, counts: dict):
    """Pick epsilon from the per-method count windows.

    The DRM window is mandatory (calibration is defined by the DRM count); the
    intersection with the remaining methods' windows is used when nonempty.
    Returns ``(epsilon, joint_ok)``.
    """
    drm_win = count_window(distance_seqs["drm"], counts["drm"])
    if drm_win is None:
        raise ValueError("no epsilon reproduces the requested DRM count")
    lo, hi = drm_win
    joint_lo, joint_hi = lo, hi
    for method, count in counts.items():
        if method == "drm":
            continue
        win = count_window(distance_seqs[method], count)
        if win is None:
            joint_lo, joint_hi = float("inf"), float("-inf")
            break
        joint_lo = max(joint_lo, win[0])
        joint_hi = min(joint_hi, win[1])
    if joint_lo < joint_hi:
        return float(np.sqrt(joint_lo * joint_hi)), True
    eps = float(np.sqrt(lo * hi)) if lo > 0 else 0.5 * hi
    return eps, False


@dataclass
class BenchResult:
    """A table's counts at the calibrated epsilon.  ``traces[m]`` is method m's
    solve at that epsilon: it ends at m's count, or at ``max_iter`` (or where
    CRM left its domain) when the count is None."""

    table: str
    epsilon: float
    joint_window: bool
    counts: dict
    expected: dict
    final_errors: dict
    traces: dict

    @property
    def matches(self) -> bool:
        return self.counts == self.expected


def _prefix_to(trace: IterationTrace, epsilon: float) -> IterationTrace | None:
    """What a solve at ``epsilon`` gives when ``trace`` (the same solve at a
    smaller epsilon) reaches ``epsilon``: the trace up to its first residual
    within ``epsilon``.  None when the trace never gets there."""
    k = next((k for k, r in enumerate(trace.residuals) if r <= epsilon), None)
    if k is None:
        return None
    return replace(trace, iterates=trace.iterates[:k + 1], measured=trace.measured[:k + 1],
                   residuals=trace.residuals[:k + 1], stop_reason=CONVERGED)


def calibrate_table(geo, counts: dict, target, max_iter: int = 64):
    """The epsilon at which the methods, run on a table's geometry ``geo`` from
    its published start toward ``target``, stop after ``counts[m]`` steps, as
    ``(epsilon, joint_ok, traces)`` (see :func:`calibrate_epsilon`).

    Calibration reads only the first ``count + 1`` distances of each method, so
    each trace stops at its count (or at ``max_iter``).
    """
    tiny = np.finfo(float).tiny
    traces = {m: solve(geo, geo[2], StopRule(tiny, min(max_iter, counts[m]), target))
              for m, solve in METHODS.items()}
    eps, joint = calibrate_epsilon({m: tr.residuals for m, tr in traces.items()}, counts)
    return eps, joint, traces


def run_benchmark(name: str, max_iter: int = 64, x0=None) -> BenchResult:
    """Run all four methods on a table from ``x0`` (default: its published start),
    at the epsilon that :func:`calibrate_table` finds for the reference counts.
    Each method is solved once at that epsilon, unless its calibration trace
    from the same start already reaches it.
    """
    geo = table_geometry(name)
    expected = REFERENCE_COUNTS[name]
    eps, joint, calib = calibrate_table(geo, expected, geo[3], max_iter)
    start = geo[2] if x0 is None else as_vector(x0)
    reuse = np.array_equal(start, geo[2])
    target = geo[3] if reuse else best_approximation(geo[:2], start)
    traces = {m: (reuse and _prefix_to(calib[m], eps))
              or solve(geo, start, StopRule(eps, max_iter, target))
              for m, solve in METHODS.items()}
    counts = {m: tr.iterations if tr.stop_reason == CONVERGED else None
              for m, tr in traces.items()}
    finals = {m: tr.residuals[-1] for m, tr in traces.items()}
    return BenchResult(name, eps, joint, counts, dict(expected), finals, traces)
