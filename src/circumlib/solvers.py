"""Iterative best-approximation solvers and the benchmark harness.

Three methods over closed affine subspaces U1, U2 (all driven to the target
x_bar = P_{U1 cap U2} x0):

* DRM: x_{k+1} = (x_k + R_{U2} R_{U1} x_k)/2, convergence measured on the
  shadow sequence P_{U1} x_k;
* MAP: alternating projections, with one trace entry (and one iteration
  counted) per individual projection;
* CRM: x_{k+1} = circumcenter of the reflector-family image of x_k, measured
  on the iterate itself.

The reference tables were produced elsewhere with an unstated stopping
tolerance, so the harness calibrates epsilon instead of hard-coding it: the
iteration count of a method is a step function of epsilon whose jumps are the
measured distances, giving each (method, count) pair a half-open feasibility
window.  Calibration intersects the four windows inside the DRM window when
possible and otherwise falls back to the DRM window alone; the reported
epsilon is the geometric midpoint of the chosen window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circummap import OperatorSet, cc_map
from .geometry import DEFAULT_TOL, Tolerances, as_vector
from .operators import (
    AffineSubspace,
    Ball,
    EmptyIntersectionError,
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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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
    shadow: list | None = None
    stop_reason: str = MAX_ITER

    @property
    def iterations(self) -> int:
        return len(self.measured) - 1


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


def _residual(point, prev, target):
    if target is not None:
        return float(np.linalg.norm(point - target))
    if prev is None:
        return float("inf")
    return float(np.linalg.norm(point - prev))


def drm_solve(U1: AffineSubspace, U2: AffineSubspace, x0, rule: StopRule) -> IterationTrace:
    """Douglas-Rachford iteration with convergence measured on the shadow."""
    x = as_vector(x0)
    trace = IterationTrace(method="drm", shadow=[])
    prev_shadow = None
    for _ in range(rule.max_iter + 1):
        shadow = U1.project(x)
        trace.iterates.append(x.copy())
        trace.shadow.append(shadow)
        trace.measured.append(shadow)
        r = _residual(shadow, prev_shadow, rule.target)
        trace.residuals.append(r)
        prev_shadow = shadow
        if r <= rule.epsilon:
            trace.stop_reason = CONVERGED
            return trace
        if len(trace.measured) > rule.max_iter:
            break
        x = 0.5 * (x + U2.reflect(U1.reflect(x)))
    trace.stop_reason = MAX_ITER
    return trace


def map_solve(U1: AffineSubspace, U2: AffineSubspace, x0, rule: StopRule) -> IterationTrace:
    """Alternating projections; every single projection is one iteration."""
    x = as_vector(x0)
    trace = IterationTrace(method="map")
    trace.iterates.append(x.copy())
    trace.measured.append(x.copy())
    trace.residuals.append(_residual(x, None, rule.target))
    if trace.residuals[-1] <= rule.epsilon:
        trace.stop_reason = CONVERGED
        return trace
    subspaces = (U1, U2)
    step = 0
    while step < rule.max_iter:
        x = subspaces[step % 2].project(x)
        step += 1
        trace.iterates.append(x.copy())
        trace.measured.append(x.copy())
        trace.residuals.append(_residual(x, trace.measured[-2], rule.target))
        if trace.residuals[-1] <= rule.epsilon:
            trace.stop_reason = CONVERGED
            return trace
    trace.stop_reason = MAX_ITER
    return trace


def crm_solve(S: OperatorSet, x0, rule: StopRule, tol: Tolerances = DEFAULT_TOL) -> IterationTrace:
    """Circumcenter iteration x_{k+1} = CC_S(x_k).

    Exits with ``left_domain`` if an image set has no circumcenter (possible
    when the family is not an identity-containing reflector-word family over
    subspaces with a common point).
    """
    x = as_vector(x0)
    trace = IterationTrace(method=f"crm:{S.name}" if S.name else "crm")
    trace.iterates.append(x.copy())
    trace.measured.append(x.copy())
    trace.residuals.append(_residual(x, None, rule.target))
    if trace.residuals[-1] <= rule.epsilon:
        trace.stop_reason = CONVERGED
        return trace
    for _ in range(rule.max_iter):
        outcome = cc_map(S, x, tol)
        if not outcome.exists:
            trace.stop_reason = LEFT_DOMAIN
            return trace
        x = outcome.center
        trace.iterates.append(x.copy())
        trace.measured.append(x.copy())
        trace.residuals.append(_residual(x, trace.measured[-2], rule.target))
        if trace.residuals[-1] <= rule.epsilon:
            trace.stop_reason = CONVERGED
            return trace
    trace.stop_reason = MAX_ITER
    return trace


def best_approximation(subspaces, x0, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Nearest point of the intersection of the subspaces, computed directly."""
    meet = intersect_affine(subspaces, tol)
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
    x = as_vector(x0)
    trace = PairTrace([], [], [], [], [], MAX_ITER)
    prev_pair = None
    for _ in range(rule.max_iter + 1):
        ru = U.reflect(x)
        pu = U.project(x)
        pv = proj_v(ru)
        pv_alt = proj_v(pu)
        trace.iterates.append(x.copy())
        trace.pairs_u.append(pu)
        trace.pairs_v.append(pv)
        trace.pairs_v_alt.append(pv_alt)
        trace.gaps.append(float(np.linalg.norm(pu - pv)))
        pair = np.concatenate([pu, pv])
        if prev_pair is not None and np.linalg.norm(pair - prev_pair) <= rule.epsilon:
            trace.stop_reason = CONVERGED
            return trace
        prev_pair = pair
        if len(trace.iterates) > rule.max_iter:
            break
        x = 0.5 * (x + 2.0 * pv - ru)  # (R_V R_U + Id)/2 reusing pv = P_V(R_U x)
    trace.stop_reason = MAX_ITER
    return trace


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
    S1 = OperatorSet.reflectors([U1, U2], "s1")
    S2 = OperatorSet.prefix_words([U1, U2], "s2")
    return U1, U2, x0, target, S1, S2


# The benchmark methods in report order.  Each runs on a table's geometry
# ``geo = (U1, U2, x0, target, S1, S2)`` from ``x0`` under ``rule``.  The
# solvers are looked up by name at call time, so a wrapper installed on this
# module's bindings (the benchmark's layer tracer does this) sees every solve.
METHODS = {
    "drm": lambda geo, x0, rule, tol: drm_solve(geo[0], geo[1], x0, rule),
    "map": lambda geo, x0, rule, tol: map_solve(geo[0], geo[1], x0, rule),
    "crm-s1": lambda geo, x0, rule, tol: crm_solve(geo[4], x0, rule, tol),
    "crm-s2": lambda geo, x0, rule, tol: crm_solve(geo[5], x0, rule, tol),
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


def _trace_methods(geo, x0, max_iter: int, tol: Tolerances):
    """Every method's trace from ``x0`` and its distances to the target."""
    target = best_approximation(geo[:2], x0, tol)
    probe_rule = StopRule(epsilon=np.finfo(float).tiny, max_iter=max_iter, target=target)
    traces = {m: solve(geo, x0, probe_rule, tol) for m, solve in METHODS.items()}
    dists = {m: [float(np.linalg.norm(p - target)) for p in tr.measured]
             for m, tr in traces.items()}
    return traces, dists


def run_benchmark(
    name: str, max_iter: int = 64, tol: Tolerances = DEFAULT_TOL, x0=None
) -> BenchResult:
    """Run all four methods on a table from ``x0`` (default: its published start),
    at the epsilon that the reference DRM count calibrates from the published start."""
    geo = table_geometry(name)
    expected = REFERENCE_COUNTS[name]
    traces, dists = _trace_methods(geo, geo[2], max_iter, tol)
    eps, joint = calibrate_epsilon(dists, expected)
    if x0 is not None:
        traces, dists = _trace_methods(geo, as_vector(x0), max_iter, tol)
    counts = {m: next((k for k, v in enumerate(d) if v <= eps), None) for m, d in dists.items()}
    finals = {m: d[counts[m]] if counts[m] is not None else d[-1] for m, d in dists.items()}
    return BenchResult(name, eps, joint, counts, dict(expected), finals, traces)
