import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import circumlib
from circumlib.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bench ------------------------------------------------------------------------


def test_bench_table2_matches_and_exits_zero(capsys, tmp_path):
    out_file = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--scenario", "table2-plane-plane", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "table,method,iterations,expected,epsilon,final_error"
    rows = {ln.split(",")[1]: ln.split(",") for ln in lines[1:]}
    assert rows["drm"][2] == "5" and rows["map"][2] == "6"
    assert rows["crm-s1"][2] == "5" and rows["crm-s2"][2] == "2"


def test_bench_table1_mismatch_exits_two(capsys):
    code, out, _ = run_cli(capsys, "bench", "--scenario", "table1-line-plane")
    assert code == 2
    drm_row = [ln for ln in out.splitlines() if ",drm," in ln][0]
    assert drm_row.split(",")[2] == "12"  # calibration itself succeeds


def test_bench_x0_override_at_target(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--scenario", "table2-plane-plane", "--x0", "0,0,0"
    )
    assert code == 0
    for ln in out.splitlines()[1:]:
        assert ln.split(",")[2] == "0"


def test_bench_x0_override_counts_at_the_published_calibration(capsys):
    # epsilon is calibrated at the table's published start, as in the default
    # run; the overridden start is then counted at that epsilon
    code, out, err = run_cli(
        capsys, "bench", "--scenario", "table2-plane-plane", "--x0", "1,2,3"
    )
    assert code == 0 and err == ""
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert len(rows) == 4
    assert {r[4] for r in rows} == {"0.091190704668609582"}
    assert {r[1]: r[2] for r in rows} == {"drm": "3", "map": "6", "crm-s1": "1", "crm-s2": "1"}


def test_bench_unknown_table(capsys):
    code, _, err = run_cli(capsys, "bench", "--scenario", "nope")
    assert code == 1 and "unknown table" in err


def test_bench_json_lines(capsys):
    import json

    code, out, _ = run_cli(
        capsys, "bench", "--scenario", "table2-plane-plane", "--format", "json-lines"
    )
    assert code == 0
    rows = [json.loads(ln) for ln in out.strip().splitlines()]
    assert {r["method"] for r in rows} == {"drm", "map", "crm-s1", "crm-s2"}


# -- verify -----------------------------------------------------------------------


def test_verify_single_scenario(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scenario", "projector-half")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("projector-half,")
    assert lines[1].endswith("PASS")


def test_verify_unknown_scenario(capsys):
    code, _, err = run_cli(capsys, "verify", "--scenario", "nope")
    assert code == 1 and "unknown scenario" in err


def test_verify_self_test_corrupt_exits_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "--self-test-corrupt")
    assert code == 2
    assert "FAIL" in out


def test_verify_all_reports_every_scenario(capsys):
    from circumlib.gallery import catalog

    code, out, _ = run_cli(capsys, "verify")
    lines = out.strip().splitlines()
    assert len(lines) == len(catalog()) + 1
    # the line/plane benchmark row is the single documented failure
    failing = [ln for ln in lines[1:] if ln.endswith("FAIL")]
    assert [ln.split(",")[0] for ln in failing] == ["table1-line-plane"]
    assert code == 2


# -- circumcenter -----------------------------------------------------------------


def test_circumcenter_file_exists(capsys, tmp_path):
    f = tmp_path / "points.txt"
    f.write_text("# fold family, first member\n-2,0\n2,0\n1,0.25\n")
    code, out, _ = run_cli(capsys, "circumcenter", str(f))
    assert code == 0
    assert out.startswith("EXISTS 0,-5.875 radius ")


def test_circumcenter_file_not_exists(capsys, tmp_path):
    f = tmp_path / "points.txt"
    f.write_text("0\n1\n2\n")
    code, out, _ = run_cli(capsys, "circumcenter", str(f))
    assert code == 0 and out.strip() == "NOT_EXISTS"


def test_circumcenter_single_point(capsys, tmp_path):
    f = tmp_path / "points.txt"
    f.write_text("1,2,3\n")
    code, out, _ = run_cli(capsys, "circumcenter", str(f))
    assert code == 0
    assert out.strip() == "EXISTS 1,2,3 radius 0"


def test_circumcenter_malformed_input(capsys, tmp_path):
    f = tmp_path / "points.txt"
    f.write_text("1,2\nnot-a-number,3\n")
    code, _, err = run_cli(capsys, "circumcenter", str(f))
    assert code == 1 and "points.txt:2" in err


def test_circumcenter_mixed_dims(capsys, tmp_path):
    f = tmp_path / "points.txt"
    f.write_text("1,2\n1,2,3\n")
    code, _, err = run_cli(capsys, "circumcenter", str(f))
    assert code == 1
    # the same check and message as every other mixed-dimension family
    assert f"error: {f}: mixed vector dimensions: [2, 3]" in err


def test_circumcenter_missing_file(capsys):
    code, _, err = run_cli(capsys, "circumcenter", "/no/such/file")
    assert code == 1


# -- probe / trace ------------------------------------------------------------------


def test_probe_matches_domain_characterization(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--scenario", "ball-line-s1", "--grid=-4:4:17,0:1:2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,in_domain"
    rows = {tuple(ln.split(",")[:2]): ln.split(",")[2] for ln in lines[1:]}
    assert rows[("-2", "0")] == "0"
    assert rows[("0", "1")] == "1"
    assert rows[("2", "0")] == "1"


def test_probe_empty_grid_header_only(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--scenario", "ball-line-s1", "--grid", "0:1:0,0:1:0"
    )
    assert code == 0 and out.strip() == "x,y,in_domain"


def test_probe_rejects_parametrized_scenario(capsys):
    code, _, err = run_cli(capsys, "probe", "--scenario", "scaled-id-resolvents")
    assert code == 1


def test_probe_bad_grid(capsys):
    code, _, err = run_cli(capsys, "probe", "--scenario", "ball-line-s1", "--grid", "junk")
    assert code == 1 and "bad grid" in err


def test_trace_crm_s2_table2_has_three_rows(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--scenario", "table2-plane-plane", "--method", "crm-s2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,x0,x1,x2,residual"
    assert len(lines) == 4  # header + iterates 0..2; the second step is exact


def test_trace_drm_with_explicit_epsilon(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace",
        "--scenario",
        "table1-line-plane",
        "--method",
        "drm",
        "--epsilon",
        "0.02",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("0,0.5,0,0,")
    assert len(lines) == 2 + 12  # header + k=0..12 at this tolerance


def test_trace_runs_only_the_calibration_and_its_own_solve(capsys, monkeypatch):
    import circumlib.solvers as solvers

    calls = []
    for name in ("drm_solve", "map_solve", "crm_solve"):
        def counted(*args, real=getattr(solvers, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(solvers, name, counted)
    code, _, _ = run_cli(capsys, "trace", "--scenario", "table1-line-plane", "--method", "map")
    assert code == 0
    # one calibration solve per method, then the traced one; the benchmark's
    # counting solves (MAP to 17 steps, CRM-S1 to 16, CRM-S2 to 2) are not run
    assert calls == ["drm_solve", "map_solve", "crm_solve", "crm_solve", "map_solve"]


# -- determinism ---------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "verify", "--scenario", "reflectors-zero", "--seed", "7",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_output_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "bench", "--scenario", "table2-plane-plane", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_script_entry_point(tmp_path):
    # Run the ``[project.scripts]`` target the way the generated script does,
    # ``sys.exit(main())``, in a fresh interpreter that imports the same
    # circumlib as this suite; an installed ``circumlib`` on PATH is run too.
    try:
        import tomllib
    except ModuleNotFoundError:  # tomllib is in the standard library from 3.11
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["circumlib"]
    module, _, attr = target.partition(":")
    launcher = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    env = dict(os.environ, PYTHONPATH=str(Path(circumlib.__file__).resolve().parents[1]))
    commands = [[sys.executable, "-c", launcher]]
    installed = shutil.which("circumlib")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            command + ["verify", "--scenario", "projector-half"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert "PASS" in proc.stdout


# -- bad input ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["circumcenter", "bad.txt"],
    ["verify", "--seed", "-1"],
    ["trace", "--scenario", "table2-plane-plane", "--epsilon", "-1"],
    ["trace", "--scenario", "table2-plane-plane", "--method", "crm-s2", "--epsilon", "nan"],
    ["verify", "--bogus"],
    ["probe", "--scenario", "ball-line-s1", "--seed", "3"],
    ["trace", "--scenario", "table2-plane-plane", "--method", "nope"],
    ["probe"],
], ids=["non-finite-point", "negative-seed", "negative-epsilon", "nan-epsilon",
        "unknown-option", "ignored-seed", "bad-method", "missing-scenario"])
def test_bad_input_is_a_usage_error_not_a_traceback(tmp_path, argv):
    (tmp_path / "bad.txt").write_text("1,nan\n2,3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(circumlib.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "circumlib.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
