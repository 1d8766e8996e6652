"""Tests of the benchmark itself: output checks, the tracer's exact counts,
seeded inputs, and the run contract.

    python3 -m pytest -q perfbench

Short runs go through ``perfbench/run.py`` in a subprocess, as the benchmark
is used; the probe-grid run takes about half a minute because its oracle
check covers every grid point of every scenario.
"""

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import run as harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, seed, trace):
    return json.loads((ROOT / "perfbench" / "out" /
                       f"{workload}-seed{seed}-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_short_run_passes_every_output_check(workload):
    out = result(run("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"))
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    rec = record(workload, 1, 0)
    assert rec["unexpected_failures"] == [] and rec["inconsistent_counts"] == []
    if workload == "gallery-verify":
        # The known table1-line-plane failure: one op in every pass of 48.
        assert out["attempted"] % 48 == 0
        assert out["failed"] == out["attempted"] // 48
    else:
        assert out["failed"] == 0


def test_injected_corrupt_scenario_is_a_failed_op():
    from circumlib.cli import _corrupted_scenario

    plan = workloads.build_gallery_verify(1)
    corrupt = _corrupted_scenario()
    plan.items.append(corrupt)
    plan.labels.append(corrupt.name)
    plain, _, traced, _ = harness.timed_phase(plan, 0.0)
    failures, unexpected, inconsistent, _ = harness.check_ops(plan, (plain, traced))
    passes = len(plain) // 49
    assert len(plain) == 49 * passes and passes >= harness.MIN_CYCLES
    # table1-line-plane (known) and the corrupted scenario fail in every pass.
    assert sum(failures.values()) == 2 * passes
    assert unexpected and all(f.startswith(f"{corrupt.name}:") for f in unexpected)
    assert inconsistent == []


def test_known_probe_defect_needs_its_signature(monkeypatch):
    from circumlib import evaluate_set
    from circumlib.circummap import DomainDiagnosis
    from circumlib.geometry import orthonormal_basis, solve_sym

    # Seen at seed 787825429: ball-line-s2 near (-2.98753, -0.335718), where the
    # images' singular values differ by a factor of about 1e6.
    seed = 787825429
    plan = workloads.build_probe_grid(seed)
    [s] = [s for s in plan.items if s.name == "ball-line-s2"]
    points = np.array(workloads.seeded_grid(np.random.default_rng(seed)).points())
    k = int(np.argmin(np.linalg.norm(points - (-2.98753, -0.335718), axis=1)))
    images = evaluate_set(s.operator_set, points[k]).points
    diffs = [p - images[0] for p in images[1:]]
    D = np.array([diffs[i] for i in orthonormal_basis(diffs)[1]])
    assert len(D) == 2
    with pytest.raises(np.linalg.LinAlgError):
        solve_sym(D @ D.T, np.einsum("ij,ij->i", D, D))

    got = bytearray(plan.op(s))
    assert got[k] == 0
    verdict = plan.check(s, bytes(got))
    assert not verdict.ok and verdict.known
    # Flipping a point well inside the domain as well makes the op a plain failure.
    inside = next(j for j, g in enumerate(got) if g)
    got[inside] = 0
    verdict = plan.check(s, bytes(got))
    assert not verdict.ok and not verdict.known
    # The library's diagnosis alone does not make a well-conditioned point known.
    monkeypatch.setattr(workloads, "in_domain",
                        lambda S, x: DomainDiagnosis(False, 3, True, None))
    assert not workloads._known_probe_defect(s, points[inside])
    assert workloads._known_probe_defect(s, points[k])


def test_traced_run_reports_every_per_layer_metric():
    out = result(run("--workload", "gallery-verify", "--seed", "1", "--seconds", "0.1",
                     "--trace", "1"))
    assert out["correct"] is True
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    checks = [c["checks"] for c in record("gallery-verify", 1, 1)["exact_counts_per_op"].values()]
    assert out["metrics"]["gallery.checks"]["value"] == pytest.approx(sum(checks) / len(checks))
    assert out["metrics"]["circumcenter.PointSet.calls"]["value"] > 0
    assert out["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.metric_units())
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()
    assert all(workloads.WHY[w["name"]] == w["why"] for w in SPEC["workloads"])


def test_tracer_self_check_counts_exactly():
    assert tracing.self_check() == tracing.SELF_CHECK_EXPECTED


def test_self_check_count_agrees_with_cprofile():
    import circumlib

    _, _, x0, _, _, S2 = circumlib.table_geometry("table2-plane-plane")
    profile = cProfile.Profile()
    profile.runcall(circumlib.cc_map, S2, x0)
    stats = pstats.Stats(profile).stats
    calls = {func[2]: value[1] for func, value in stats.items()}
    assert calls["as_vector"] == tracing.SELF_CHECK_EXPECTED["geometry.as_vector"]
    assert calls["apply"] == tracing.SELF_CHECK_EXPECTED["operators.apply"]


def test_tracer_restores_every_binding():
    import circumlib

    before = circumlib.geometry.as_vector, circumlib.circummap.as_vector, circumlib.cc_map
    init = circumlib.PointSet.__init__
    tracer = tracing.Tracer()
    tracer.install()
    assert circumlib.circummap.as_vector is not before[1]
    tracer.uninstall()
    assert (circumlib.geometry.as_vector, circumlib.circummap.as_vector,
            circumlib.cc_map) == before
    assert circumlib.PointSet.__init__ is init


def _inputs(workload, plan):
    if workload == "gallery-verify":
        # The seed reaches the library only through verify_scenario's probes.
        return [plan.op(s)[1] for s in plan.items]
    return [s.name for s in plan.items]


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_other_seed_gives_other_inputs_but_same_op_count(workload):
    a = workloads.BUILDERS[workload](1)
    b = workloads.BUILDERS[workload](2)
    assert len(a.items) == len(b.items)
    ia, ib = _inputs(workload, a), _inputs(workload, b)
    assert len(ia) == len(ib)
    assert not np.array_equal(np.asarray(ia), np.asarray(ib))


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "gallery-verify", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
