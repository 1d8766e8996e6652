import numpy as np
import pytest

import circumlib.circummap as circummap
from circumlib.circummap import (
    OperatorSet,
    cc_map,
    cc_map_rows,
    classify_points,
    evaluate_set,
    fixed_point_residual,
    gaussian_cloud,
    in_domain,
)
from circumlib.gallery import (
    ClosedFormMap,
    DomainSpec,
    FixedPointSpec,
    ImpropernessIff,
    ProbeGrid,
    Scenario,
    FIXED_POINT_SEPARATION,
    LIMIT_RESIDUAL_TOL,
    SEQUENCE_CHECK_TOL,
    ScenarioNotFoundError,
    SequenceLimit,
    VerificationReport,
    catalog,
    domain_probe,
    scenario,
    verify,
    verify_scenario,
)
from circumlib.operators import AffineSubspace, Identity, ReflAffine, Translate

# the reference benchmark row for the line/plane table cannot be reproduced
# from its on-line start point; see the README's "Known state" paragraph
KNOWN_FAILING = {"table1-line-plane"}

ALL_NAMES = [s.name for s in catalog()]


def test_catalog_size_and_uniqueness():
    names = [s.name for s in catalog()]
    assert len(names) >= 24
    assert len(names) == len(set(names))


def test_catalog_contains_flagship_scenarios():
    names = set(ALL_NAMES)
    required = {
        "projector-half",
        "reflectors-zero",
        "demiclosedness-fails",
        "scaled-id-resolvents",
        "table1-line-plane",
        "table2-plane-plane",
    }
    assert required <= names


def test_unknown_scenario_raises():
    with pytest.raises(ScenarioNotFoundError):
        verify("no-such-scenario")


@pytest.mark.parametrize("name", sorted(set(ALL_NAMES) - KNOWN_FAILING))
def test_scenario_passes(name):
    report = verify(name, seed=0)
    assert report.passed, report.failures[:3]
    assert report.checks > 0


def test_table1_scenario_fails_as_documented():
    report = verify("table1-line-plane", seed=0)
    assert not report.passed
    mismatched = {inp for inp, _, _ in report.failures}
    assert mismatched == {
        "table1-line-plane:map",
        "table1-line-plane:crm-s1",
        "table1-line-plane:crm-s2",
    }


def test_demiclosedness_scenario_details():
    report = verify("demiclosedness-fails", seed=0)
    assert report.passed
    # 100 pointwise value checks + trend + limit map + limit residual
    assert report.checks == 103


def test_verify_is_seed_stable_for_fixed_probes():
    a = verify("crm-nonlinearity", seed=0)
    b = verify("crm-nonlinearity", seed=99)
    assert a.passed and b.passed and a.checks == b.checks


def test_corrupted_scenario_fails():
    base = scenario("projector-half")
    bad = Scenario(
        name="projector-half-corrupted",
        dim=base.dim,
        description="harness self-test",
        expected=ClosedFormMap(
            reference=lambda x: np.asarray(x) / 3.0,
            probes=base.expected.probes,
        ),
        operator_set=base.operator_set,
    )
    report = verify_scenario(bad, 0)
    assert not report.passed
    assert report.failures


def test_domain_probe_ball_line():
    s = scenario("ball-line-s1")
    grid = ProbeGrid(-4.0, 4.0, 17, -1.0, 1.0, 3)
    rows, agreement = domain_probe(s.operator_set, grid, member=s.expected.member)
    assert agreement == 1.0
    assert all(type(x) is float and type(y) is float and type(inside) is bool
               for x, y, inside in rows)
    by_point = {(x, y): inside for x, y, inside in rows}
    assert by_point[(-2.0, 0.0)] is False
    assert by_point[(0.0, 1.0)] is True


def test_domain_probe_card_two_always_in():
    from circumlib.circummap import OperatorSet
    from circumlib.operators import AffineSubspace, Identity, ReflAffine

    S = OperatorSet((Identity(), ReflAffine(AffineSubspace.span(np.array([1.0, 0.0])))))
    rows, _ = domain_probe(S, ProbeGrid(-1.0, 1.0, 5, -1.0, 1.0, 5))
    assert all(inside for _, _, inside in rows)


def test_domain_probe_empty_grid():
    s = scenario("ball-line-s1")
    rows, agreement = domain_probe(s.operator_set, ProbeGrid(0.0, 1.0, 0, 0.0, 1.0, 0))
    assert rows == [] and agreement is None


# -- array classification of the gallery's yes/no checks and centers ----------------

# every scenario whose checks need only domain membership at probes
CLASSIFIED = [s.name for s in catalog()
              if isinstance(s.expected, (DomainSpec, ImpropernessIff))] + ["ball-projector-fix"]
# every scenario whose checks compare circumcenters at probes
CENTERED = [s.name for s in catalog() if isinstance(s.expected, (ClosedFormMap, SequenceLimit))]

# Batched and scalar centers round differently (images of a whole probe set
# are evaluated as one array, and the solve runs over stacked rows), by at most
# this much relative to the largest image norm.  The deviations these kinds
# record are center distances relative to 1 + |want|, or residual norms of
# probes of norm at most about 10, so max_deviation moves by at most about
# 10 times as much.
CENTER_RTOL = 1e-12
DEVIATION_ATOL = 1e-11


def _probe_sets(s, seed):
    """(operator set, probes) for every probe set verify_scenario evaluates."""
    kind = s.expected
    if isinstance(kind, (DomainSpec, ClosedFormMap)):
        return [(s.operator_set, kind.probes(seed))]
    if isinstance(kind, ImpropernessIff):
        return [(kind.build(params), kind.samples(params, seed)) for params in kind.grid]
    if isinstance(kind, SequenceLimit):
        limit = [] if kind.limit is None else [kind.limit]
        return [(s.operator_set, list(kind.points) + limit)]
    return [(s.operator_set, kind.proper_probes(seed))]


def _scalar_sequence(s, kind, report):
    residuals = []
    for x in kind.points:
        out = cc_map(s.operator_set, x)
        if not out.exists:
            report.record(1.0, False, x, "exists", None)
            continue
        residuals.append(float(np.linalg.norm(x - out.center)))
        if kind.cc_values is not None:
            want = kind.cc_values(x)
            dev = float(np.linalg.norm(out.center - want) / (1.0 + np.linalg.norm(want)))
            report.record(dev, dev <= SEQUENCE_CHECK_TOL, x, want, out.center)
    if kind.expect_vanishing is not None and residuals:
        vanished = residuals[-1] <= max(1e-6, 0.05 * residuals[0])
        report.record(residuals[-1], vanished == kind.expect_vanishing, "residual-trend",
                      kind.expect_vanishing, vanished)
    if kind.limit is not None:
        out = cc_map(s.operator_set, kind.limit)
        if kind.map_at_limit is not None:
            if not out.exists:
                report.record(1.0, False, kind.limit, kind.map_at_limit, None)
            else:
                want = kind.map_at_limit
                dev = float(np.linalg.norm(out.center - want) / (1.0 + np.linalg.norm(want)))
                report.record(dev, dev <= SEQUENCE_CHECK_TOL, kind.limit, want, out.center)
        if kind.limit_residual is not None:
            got = fixed_point_residual(s.operator_set, kind.limit)
            dev = float("inf") if got is None else abs(got - kind.limit_residual)
            report.record(dev, dev <= LIMIT_RESIDUAL_TOL, "limit-residual",
                          kind.limit_residual, got)


def _scalar_verify(s, seed):
    """verify_scenario's checks with one in_domain or cc_map call per probe."""
    kind, S = s.expected, s.operator_set
    report = VerificationReport(scenario=s.name)
    if isinstance(kind, ClosedFormMap):
        for x in kind.probes(seed):
            want = kind.reference(x)
            out = cc_map(S, x)
            if want is None:
                report.record(float(out.exists), not out.exists, x, None, out.center)
            elif not out.exists:
                report.record(1.0, False, x, want, None)
            else:
                dev = float(np.linalg.norm(out.center - want) / (1.0 + np.linalg.norm(want)))
                report.record(dev, dev <= kind.check_tol, x, want, out.center)
    elif isinstance(kind, SequenceLimit):
        _scalar_sequence(s, kind, report)
    elif isinstance(kind, DomainSpec):
        for x in kind.probes(seed):
            want, got = bool(kind.member(x)), in_domain(S, x).in_domain
            report.record(float(want != got), want == got, x, want, got)
    elif isinstance(kind, ImpropernessIff):
        for params in kind.grid:
            improper = any(not in_domain(kind.build(params), x).in_domain
                           for x in kind.samples(params, seed))
            want = bool(kind.predicate(params))
            report.record(float(want != improper), want == improper, params, want, improper)
    else:
        for x in kind.fixed:
            r = fixed_point_residual(S, x)
            ok = r is not None and r <= 1e-9 * (1.0 + np.linalg.norm(x))
            report.record(r if r is not None else float("inf"), ok, x, 0.0, r)
        for x in kind.not_fixed(seed):
            r = fixed_point_residual(S, x)
            ok = r is not None and r > FIXED_POINT_SEPARATION
            report.record(0.0 if ok else 1.0, ok, x, f"> {FIXED_POINT_SEPARATION}", r)
        for x in kind.proper_probes(seed):
            ok = cc_map(S, x).exists
            report.record(0.0 if ok else 1.0, ok, x, "exists", ok)
    return report


def _summary(report):
    plain = [tuple(v.tolist() if isinstance(v, np.ndarray) else v for v in f)
             for f in report.failures]
    return report.checks, plain, report.passed, report.max_deviation


@pytest.mark.parametrize("name", CLASSIFIED + CENTERED)
def test_batched_checks_equal_the_scalar_checks(name):
    s = scenario(name)
    for seed in range(5):
        for S, probes in _probe_sets(s, seed):
            X = np.reshape(probes, (len(probes), s.dim))
            if name in CLASSIFIED:
                assert classify_points(S, X).tolist() == [in_domain(S, x).in_domain
                                                          for x in probes]
                continue
            exists, centers = cc_map_rows([(S, X)])
            for x, ok, center in zip(probes, exists.tolist(), centers):
                out = cc_map(S, x)
                assert ok == out.exists
                if ok:
                    scale = np.linalg.norm(evaluate_set(S, x).points, axis=1).max()
                    assert np.linalg.norm(center - out.center) <= CENTER_RTOL * scale
        got = _summary(verify_scenario(s, seed))
        want = _summary(_scalar_verify(s, seed))
        if name in CLASSIFIED:
            assert got == want
        else:
            assert got[:3] == want[:3]
            assert abs(got[3] - want[3]) <= DEVIATION_ATOL


@pytest.mark.parametrize("name", ["dr-powers-proper", "relaxed-composed-iff"])
def test_verify_classifies_probes_as_arrays(scalar_calls, name):
    report = verify(name, seed=0)
    assert report.passed and report.checks > 0
    assert scalar_calls == []


@pytest.mark.parametrize("name", ["four-word-cases", "demiclosedness-fails"])
def test_verify_batches_the_centers(scalar_calls, name):
    s = scenario(name)
    report = verify(name, seed=0)
    assert report.passed and report.checks > 0
    # reference closures may call cc_map on other families; the scenario's
    # own family is evaluated only through the batched kernel
    assert [x for S, x in scalar_calls if S is s.operator_set] == []


def test_improperness_grid_is_one_kernel_call(monkeypatch):
    calls = []
    real = circummap._exists_rows

    def counted(P):
        calls.append(P.shape)
        return real(P)

    monkeypatch.setattr(circummap, "_exists_rows", counted)
    report = verify("relaxed-same-line-iff", seed=0)
    assert report.passed and report.checks == 49
    assert len(calls) == 1


def test_fixed_point_residuals_come_from_one_kernel_call(monkeypatch, scalar_calls):
    s = scenario("ball-projector-fix")
    calls, recorded = [], []
    real_rows, real_record = circummap._exists_rows, VerificationReport.record

    def counted(P):
        calls.append(P.shape)
        return real_rows(P)

    def spy(self, deviation, ok, inp, expected, got):
        recorded.append((inp, got))
        return real_record(self, deviation, ok, inp, expected, got)

    monkeypatch.setattr(circummap, "_exists_rows", counted)
    monkeypatch.setattr(VerificationReport, "record", spy)
    report = verify(s.name, seed=1)
    assert report.passed and scalar_calls == []
    # one call for the fixed and not-fixed probes, one for the proper probes
    assert len(calls) == 2
    count = len(s.expected.fixed) + len(s.expected.not_fixed(1))
    assert count > 1
    for x, got in recorded[:count]:
        assert got == fixed_point_residual(s.operator_set, x)


def test_stacked_families_split_at_their_boundaries():
    proper = OperatorSet((Identity(), ReflAffine(AffineSubspace.span(np.array([1.0, 0.0])))))
    # three distinct colinear images: no circumcenter anywhere
    improper = OperatorSet((Identity(), Translate([1.0, 0.0]), Translate([2.0, 0.0])))
    # (family, sample count); the improper family sits between proper ones,
    # and the empty one finds no point outside the domain
    grid = [(proper, 3), (improper, 0), (improper, 1), (proper, 2)]
    kind = ImpropernessIff(predicate=lambda a: a == 2, grid=list(range(len(grid))),
                           build=lambda a: grid[a][0],
                           samples=lambda a, seed: gaussian_cloud(2, grid[a][1], seed + a))
    report = verify_scenario(Scenario("stacked", 2, "families of 2 and 3 operators", kind), 0)
    assert report.checks == 4
    assert report.failures == []


def test_empty_probe_sets_keep_their_answers():
    S = scenario("ball-projector-fix").operator_set

    def run(expected):
        return verify_scenario(Scenario("empty", 2, "no probes", expected, S), 0)

    report = run(DomainSpec(member=lambda x: False, probes=lambda seed: []))
    assert report.checks == 0 and report.passed
    # no sample finds a point outside the domain, so the family counts as proper
    report = run(ImpropernessIff(predicate=lambda a: False, grid=[()], build=lambda a: S,
                                 samples=lambda a, seed: []))
    assert report.checks == 1 and report.passed
    report = run(ImpropernessIff(predicate=lambda a: True, grid=[()], build=lambda a: S,
                                 samples=lambda a, seed: []))
    assert report.failures == [((), True, False)]
    report = run(FixedPointSpec(fixed=[], not_fixed=lambda seed: [],
                                proper_probes=lambda seed: []))
    assert report.checks == 0 and report.passed


def test_classified_failures_record_python_bools():
    S = OperatorSet((Identity(), ReflAffine(AffineSubspace.span(np.array([1.0, 0.0]))),
                     ReflAffine(AffineSubspace.span(np.array([1.0, 1.0])))))
    x = np.array([1.0, 2.0])
    report = verify_scenario(
        Scenario("wrong-member", 2, "member disagrees", DomainSpec(
            member=lambda x: False, probes=lambda seed: [x]), S), 0)
    ((inp, want, got),) = report.failures
    assert inp is x and want is False and got is True
    report = verify_scenario(
        Scenario("wrong-predicate", 2, "predicate disagrees", ImpropernessIff(
            predicate=lambda a: True, grid=[()], build=lambda a: S,
            samples=lambda a, seed: [x])), 0)
    assert report.failures == [((), True, False)] and report.failures[0][2] is False
    # three distinct colinear images: no circumcenter anywhere
    S = OperatorSet((Identity(), Translate([1.0, 0.0]), Translate([2.0, 0.0])))
    report = verify_scenario(
        Scenario("improper-probe", 2, "mapping undefined at the probe", FixedPointSpec(
            fixed=[], not_fixed=lambda seed: [], proper_probes=lambda seed: [x]), S), 0)
    ((inp, want, got),) = report.failures
    assert inp is x and want == "exists" and got is False
