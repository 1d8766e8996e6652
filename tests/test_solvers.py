import numpy as np
import pytest

from circumlib import solvers
from circumlib.circummap import cc_map_rows
from circumlib.operators import AffineSubspace, Ball
from circumlib.solvers import (
    METHODS,
    REFERENCE_COUNTS,
    StopRule,
    best_approximation,
    calibrate_epsilon,
    count_window,
    crm_solve,
    drm_pair_solve,
    drm_solve,
    iterations_to_tolerance,
    map_solve,
    run_benchmark,
    table_geometry,
)

TABLE1 = "table1-line-plane"
TABLE2 = "table2-plane-plane"


def table(name):
    return table_geometry(name)


# -- trivial convergence ------------------------------------------------------------


def test_zero_iterations_from_intersection_point():
    U1, U2, _, _, S1, S2 = table(TABLE1)
    x0 = np.zeros(3)
    rule = StopRule(epsilon=1e-12, max_iter=10, target=x0)
    for trace in (drm_solve(U1, U2, x0, rule), map_solve(U1, U2, x0, rule),
                  crm_solve(S1, x0, rule), crm_solve(S2, x0, rule)):
        assert trace.stop_reason == "converged"
        assert trace.iterations == 0


def test_crm_single_reflector_projects_in_one_step():
    U = AffineSubspace.span(np.array([1.0, 1.0]))
    from circumlib.circummap import OperatorSet
    from circumlib.operators import Identity, ReflAffine

    S = OperatorSet((Identity(), ReflAffine(U)))
    x0 = np.array([2.0, 0.0])
    target = U.project(x0)
    trace = crm_solve(S, x0, StopRule(epsilon=1e-12, max_iter=5, target=target))
    assert trace.stop_reason == "converged"
    assert trace.iterations == 1
    np.testing.assert_allclose(trace.iterates[-1], target, atol=1e-12)


# -- best approximation ------------------------------------------------------------


def test_best_approximation_tables_hit_origin():
    for name in (TABLE1, TABLE2):
        U1, U2, x0, target, _, _ = table(name)
        np.testing.assert_allclose(target, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(best_approximation([U1, U2], x0), target, atol=1e-12)


def test_best_approximation_fixed_point():
    U1, U2, _, _, _, _ = table(TABLE2)
    x = np.array([0.0, 1.0, -1.0])  # already in both planes
    np.testing.assert_allclose(best_approximation([U1, U2], x), x, atol=1e-12)


# -- counting and calibration ---------------------------------------------------------


def test_iterations_to_tolerance_monotone_in_epsilon():
    U1, U2, x0, target, _, _ = table(TABLE2)
    trace = map_solve(U1, U2, x0, StopRule(epsilon=1e-300, max_iter=40, target=target))
    counts = [
        iterations_to_tolerance(trace, target, eps) for eps in (1e-6, 1e-4, 1e-2, 1.0, 10.0)
    ]
    assert counts[-1] == 0
    assert all(
        a is not None and b is not None and a >= b for a, b in zip(counts, counts[1:])
    )


def test_count_window_semantics():
    d = [1.0, 0.5, 0.25, 0.125]
    lo, hi = count_window(d, 2)
    assert (lo, hi) == (0.25, 0.5)
    assert count_window(d, 0) == (1.0, float("inf"))
    assert count_window(d, 7) is None


def test_calibrate_epsilon_joint_and_fallback():
    seqs = {"drm": [1.0, 0.4, 0.1], "map": [1.0, 0.5, 0.2, 0.05]}
    eps, joint = calibrate_epsilon(seqs, {"drm": 2, "map": 2})
    assert joint and 0.2 <= eps < 0.4
    eps, joint = calibrate_epsilon(seqs, {"drm": 2, "map": 0})
    assert not joint and 0.1 <= eps < 0.4
    with pytest.raises(ValueError):
        calibrate_epsilon({"drm": [1.0, 0.5]}, {"drm": 5})


# -- table reproduction -----------------------------------------------------------------


def test_table2_reproduces_reference_row():
    result = run_benchmark(TABLE2)
    assert result.joint_window
    assert result.counts == REFERENCE_COUNTS[TABLE2]
    assert result.matches
    # the second circumcenter step lands on the target exactly
    step2 = result.traces["crm-s2"].measured[2]
    assert np.linalg.norm(step2) <= 1e-12


def test_table1_drm_calibrates_but_row_differs():
    # the reference row (12, 12, 1, 1) is not jointly reachable from this
    # start point; DRM calibration works, the other methods disagree
    result = run_benchmark(TABLE1)
    assert result.counts["drm"] == 12
    assert not result.joint_window
    assert not result.matches
    # the first circumcenter step from a point on U1 is the midpoint, which
    # is the projection onto U2, far from the target
    U1, U2, x0, target, S1, _ = table(TABLE1)
    first = result.traces["crm-s1"].measured[1]
    np.testing.assert_allclose(first, U2.project(x0), atol=1e-12)
    assert np.linalg.norm(first - target) > 0.4


@pytest.mark.parametrize("name", [TABLE1, TABLE2])
def test_overridden_start_counts_at_the_published_epsilon(name):
    # the reference row holds for the published start, so epsilon is always
    # calibrated there and an overridden start is counted at that epsilon
    default = run_benchmark(name)
    U1, U2, x0, _, _, _ = table(name)
    same = run_benchmark(name, x0=x0)
    assert (same.epsilon, same.counts, same.final_errors) == (
        default.epsilon, default.counts, default.final_errors)
    start = x0 + 1.0
    moved = run_benchmark(name, x0=start)
    assert moved.epsilon == default.epsilon
    target = best_approximation([U1, U2], start)
    for method, trace in moved.traces.items():
        assert moved.counts[method] == iterations_to_tolerance(trace, target, moved.epsilon)


def _full_distances(geo, start, max_iter):
    """Every method's distances to the target over all ``max_iter`` steps."""
    target = best_approximation(geo[:2], start)
    rule = StopRule(np.finfo(float).tiny, max_iter, target)
    return {m: [float(np.linalg.norm(p - target)) for p in solve(geo, start, rule).measured]
            for m, solve in METHODS.items()}


@pytest.mark.parametrize("max_iter", [64, 13])
@pytest.mark.parametrize("name", [TABLE1, TABLE2])
def test_benchmark_equals_full_trace_reference(name, max_iter):
    # Reference: calibrate on full traces from the published start, then count
    # each method at its first distance within epsilon on full traces from x0.
    # max_iter = 13 leaves table 1's MAP and CRM-S1 counts (17, 16) as None.
    geo = table(name)
    published = _full_distances(geo, geo[2], max_iter)
    eps, joint = calibrate_epsilon(published, REFERENCE_COUNTS[name])
    starts = [None, geo[2]] + [
        np.random.default_rng(seed).uniform(-3.0, 3.0, 3) for seed in range(10)]
    for x0 in starts:
        dists = published if x0 is None else _full_distances(geo, x0, max_iter)
        counts = {m: next((k for k, v in enumerate(d) if v <= eps), None)
                  for m, d in dists.items()}
        finals = {m: d[-1] if counts[m] is None else d[counts[m]] for m, d in dists.items()}
        got = run_benchmark(name, max_iter=max_iter, x0=x0)
        assert (got.epsilon, got.joint_window, got.counts, got.final_errors) == (
            eps, joint, counts, finals)


@pytest.mark.parametrize("name", [TABLE1, TABLE2])
def test_benchmark_too_short_for_the_drm_count(name):
    with pytest.raises(ValueError, match="no epsilon reproduces the requested DRM count"):
        run_benchmark(name, max_iter=3)


def test_benchmark_stops_crm_at_its_count(monkeypatch):
    # calibration runs CRM to the reference counts 5 and 2, and the counting
    # solve at the calibrated epsilon needs at most as many steps again
    calls = []
    cc_map_rows = solvers.cc_map_rows
    monkeypatch.setattr(solvers, "cc_map_rows",
                        lambda *args: calls.append(1) or cc_map_rows(*args))
    result = run_benchmark(TABLE2)
    assert result.counts == REFERENCE_COUNTS[TABLE2]
    assert len(calls) <= 14


@pytest.mark.parametrize("family", [4, 5], ids=["s1", "s2"])
@pytest.mark.parametrize("name", [TABLE1, TABLE2])
def test_crm_rows_stepped_in_lockstep_equal_their_single_start_solves(name, family):
    # 200 starts stepped together, one cc_map_rows call per step, take each
    # single-start solve's steps bit for bit
    S = table(name)[family]
    X = np.random.default_rng(21).standard_normal((200, 3))
    steps = [X]
    for _ in range(8):
        exists, X = cc_map_rows([(S, X)])
        assert exists.all()
        steps.append(X)
    steps = np.array(steps)
    for row in range(len(X)):
        trace = crm_solve(S, steps[0, row], StopRule(1e-300, 8))
        k = len(trace.iterates)
        assert np.array(trace.iterates).tobytes() == steps[:k, row].tobytes()
        if trace.stop_reason == "converged":
            # a zero step: the lockstep row stays at that fixed point
            assert (steps[k:, row] == steps[k - 1, row]).all()
        else:
            assert trace.stop_reason == "max_iter" and k == 9


def test_map_counts_individual_projections():
    U1, U2, x0, target, _, _ = table(TABLE2)
    trace = map_solve(U1, U2, x0, StopRule(epsilon=1e-300, max_iter=10, target=target))
    # entry 1 is the image under the first projector alone
    np.testing.assert_allclose(trace.measured[1], U1.project(x0), atol=1e-14)
    np.testing.assert_allclose(trace.measured[2], U2.project(U1.project(x0)), atol=1e-14)


def test_fejer_monotone_iterates():
    # MAP iterates and DRM iterates are nonincreasing in distance to the
    # target; the DRM shadow may oscillate but converges
    for name in (TABLE1, TABLE2):
        U1, U2, x0, target, _, _ = table(name)
        rule = StopRule(epsilon=1e-300, max_iter=40, target=target)
        mp = map_solve(U1, U2, x0, rule)
        md = [np.linalg.norm(p - target) for p in mp.measured[::2]]
        assert all(a >= b - 1e-12 for a, b in zip(md, md[1:]))
        dr = drm_solve(U1, U2, x0, rule)
        dd = [np.linalg.norm(p - target) for p in dr.iterates]
        assert all(a >= b - 1e-12 for a, b in zip(dd, dd[1:]))
        sd = [np.linalg.norm(p - target) for p in dr.shadow]
        assert sd[-1] <= 1e-3 * sd[0]


def test_methods_agree_on_limit():
    for name in (TABLE1, TABLE2):
        result = run_benchmark(name)
        eps = result.epsilon
        finals = []
        U1, U2, x0, target, S1, S2 = table(name)
        rule = StopRule(epsilon=eps, max_iter=200, target=target)
        for tr in (drm_solve(U1, U2, x0, rule), map_solve(U1, U2, x0, rule),
                   crm_solve(S1, x0, rule), crm_solve(S2, x0, rule)):
            assert tr.stop_reason == "converged"
            finals.append(tr.measured[-1])
        np.testing.assert_allclose(finals[0], target, atol=10 * eps)
        for f in finals:
            assert np.linalg.norm(f - target) <= 10 * eps


def test_crm_never_leaves_domain_on_word_families():
    rng = np.random.default_rng(17)
    from circumlib.circummap import OperatorSet
    from circumlib.operators import Compose, Identity, ReflAffine

    for _ in range(20):
        n = int(rng.integers(2, 5))
        z = rng.standard_normal(n)
        subs = [
            AffineSubspace.from_spanning(
                z, [rng.standard_normal(n) for _ in range(int(rng.integers(0, n)))]
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        ops = [Identity()]
        for _ in range(2):
            word = [int(rng.integers(0, len(subs))) for _ in range(int(rng.integers(1, 3)))]
            ops.append(Compose(tuple(ReflAffine(subs[i]) for i in word)))
        S = OperatorSet(tuple(ops))
        x0 = rng.standard_normal(n)
        trace = crm_solve(S, x0, StopRule(epsilon=1e-9, max_iter=50, target=z * 0 + z))
        assert trace.stop_reason != "left_domain"


def test_crm_left_domain_reported():
    from circumlib.circummap import OperatorSet
    from circumlib.operators import Identity, ReflAffine

    S = OperatorSet(
        (Identity(), ReflAffine(AffineSubspace.point([2.0, 0.0])), ReflAffine(
            AffineSubspace.span(np.array([0.0, 1.0]))))
    )
    # iterates reach the escape axis immediately from this start
    trace = crm_solve(S, [3.0, 0.0], StopRule(epsilon=1e-9, max_iter=10,
                                              target=np.zeros(2)))
    assert trace.stop_reason == "left_domain"


# -- pair sequences for nonintersecting sets ------------------------------------------


def test_pair_solve_point_and_line():
    U = AffineSubspace.point([2.0, 0.0])
    V = AffineSubspace.span(np.array([0.0, 1.0]))
    trace = drm_pair_solve(U, V, [3.0, 4.0], StopRule(epsilon=1e-10, max_iter=500))
    assert trace.stop_reason == "converged"
    np.testing.assert_allclose(trace.pairs_u[-1], [2.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(trace.pairs_v[-1], [0.0, 0.0], atol=1e-6)
    assert trace.gaps[-1] == pytest.approx(2.0, abs=1e-6)


def test_pair_solve_identical_sets_collapse():
    U = AffineSubspace.span(np.array([1.0, 1.0]))
    trace = drm_pair_solve(U, U, [2.0, 0.0], StopRule(epsilon=1e-10, max_iter=50))
    for pu, pv in zip(trace.pairs_u, trace.pairs_v):
        np.testing.assert_allclose(pu, pv, atol=1e-12)
    assert trace.gaps[-1] <= 1e-12


def test_pair_solve_line_and_ball_gap():
    U = AffineSubspace.span(np.array([1.0, 0.0]))
    V = Ball(np.array([0.0, 2.0]), 1.0)
    trace = drm_pair_solve(U, V, [3.0, 1.0], StopRule(epsilon=1e-11, max_iter=2000))
    assert trace.gaps[-1] == pytest.approx(1.0, abs=1e-5)
