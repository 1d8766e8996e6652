"""Command-line front end.

Subcommands: ``bench`` (benchmark tables with calibrated epsilon), ``verify``
(gallery scenarios), ``circumcenter`` (point file in, center out), ``probe``
(domain classification grid), ``trace`` (solver iterate history).  Output is
CSV or JSON lines with reals at 17 significant digits, so identical inputs
and seeds produce byte-identical artifacts.

Exit codes: 0 success / expected match, 1 usage or I/O error, 2 verification
or benchmark mismatch.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import numpy as np

from .gallery import (
    ClosedFormMap,
    ProbeGrid,
    ScenarioNotFoundError,
    catalog,
    domain_probe,
    scenario,
    verify,
    verify_scenario,
)
from .solvers import (
    METHODS,
    REFERENCE_COUNTS,
    TABLE_NAMES,
    StopRule,
    calibrate_table,
    run_benchmark,
    table_geometry,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_out(header, rows, fmt, out_path):
    if fmt == "json-lines":
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True) for row in rows]
    else:
        lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    _emit(lines, out_path)


# -- bench -----------------------------------------------------------------------


def cmd_bench(args) -> int:
    names = list(TABLE_NAMES) if args.scenario in (None, "all") else [args.scenario]
    for name in names:
        if name not in TABLE_NAMES:
            print(f"error: unknown table {name!r}; choose from {TABLE_NAMES} or 'all'",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        x0 = _parse_point(args.x0) if args.x0 else None
    except ValueError as exc:
        print(f"error: --x0: {exc}", file=sys.stderr)
        return EXIT_USAGE

    header = ["table", "method", "iterations", "expected", "epsilon", "final_error"]
    rows = []
    all_match = True
    for name in names:
        try:
            result = run_benchmark(name, max_iter=args.max_iter, x0=x0)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for method in METHODS:
            rows.append(
                (
                    name,
                    method,
                    result.counts[method],
                    result.expected[method],
                    _fmt(result.epsilon),
                    _fmt(result.final_errors[method]),
                )
            )
        # An overridden start point has no reference row: its counts are informational.
        if x0 is None and not result.matches:
            all_match = False
    _rows_out(header, rows, args.format, args.out)
    return EXIT_OK if all_match else EXIT_MISMATCH


# -- verify ----------------------------------------------------------------------


def _corrupted_scenario():
    """Deliberately wrong copy of a scenario, for harness self-tests."""
    s = copy.copy(scenario("projector-half"))
    s.name = "projector-half-corrupted"
    s.expected = ClosedFormMap(
        reference=lambda x: np.asarray(x) / 3.0,
        probes=s.expected.probes,
    )
    return s


def cmd_verify(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    if args.self_test_corrupt:
        reports = [verify_scenario(_corrupted_scenario(), args.seed)]
    elif args.scenario:
        try:
            reports = [verify(args.scenario, seed=args.seed)]
        except ScenarioNotFoundError:
            print(f"error: unknown scenario {args.scenario!r}", file=sys.stderr)
            return EXIT_USAGE
    else:
        reports = [verify(s.name, seed=args.seed) for s in catalog()]

    header = ["scenario", "checks", "max_deviation", "failures", "status"]
    rows = [
        (r.scenario, r.checks, _fmt(r.max_deviation), len(r.failures),
         "PASS" if r.passed else "FAIL")
        for r in reports
    ]
    _rows_out(header, rows, args.format, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


# -- circumcenter ----------------------------------------------------------------


def _parse_point(text: str) -> np.ndarray:
    point = np.array([float(part) for part in text.split(",") if part.strip() != ""])
    # float() also parses 'nan' and 'inf'
    if not np.all(np.isfinite(point)):
        raise ValueError(f"coordinates must be finite, got {text!r}")
    return point


def read_point_file(path) -> list:
    """One point per line, comma-separated reals; '#' starts a comment."""
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                points.append(_parse_point(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise ValueError(f"{path}: no points found")
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise ValueError(f"{path}: inconsistent point dimensions {sorted(dims)}")
    return points


def cmd_circumcenter(args) -> int:
    from .circumcenter import PointSet, circumcenter

    try:
        points = read_point_file(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = circumcenter(PointSet(points))
    if outcome.exists:
        coords = ",".join(_fmt(c) for c in outcome.center)
        print(f"EXISTS {coords} radius {_fmt(outcome.radius)}")
    else:
        print("NOT_EXISTS")
    return EXIT_OK


# -- probe -----------------------------------------------------------------------


def _parse_grid(text: str) -> ProbeGrid:
    try:
        xpart, ypart = text.split(",")
        xmin, xmax, nx = xpart.split(":")
        ymin, ymax, ny = ypart.split(":")
        return ProbeGrid(float(xmin), float(xmax), int(nx), float(ymin), float(ymax), int(ny))
    except ValueError as exc:
        raise ValueError(
            f"bad grid {text!r}; expected xmin:xmax:nx,ymin:ymax:ny"
        ) from exc


def cmd_probe(args) -> int:
    try:
        s = scenario(args.scenario)
    except ScenarioNotFoundError:
        print(f"error: unknown scenario {args.scenario!r}", file=sys.stderr)
        return EXIT_USAGE
    if s.operator_set is None or s.dim != 2:
        print(f"error: scenario {s.name!r} has no probeable two-dimensional operator set",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        grid = _parse_grid(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, _ = domain_probe(s.operator_set, grid)
    out_rows = [(_fmt(x), _fmt(y), int(inside)) for x, y, inside in rows]
    _rows_out(["x", "y", "in_domain"], out_rows, args.format, args.out)
    return EXIT_OK


# -- trace -----------------------------------------------------------------------


def cmd_trace(args) -> int:
    if args.table not in TABLE_NAMES:
        print(f"error: unknown table {args.table!r}", file=sys.stderr)
        return EXIT_USAGE
    geo = table_geometry(args.table)
    x0, target = geo[2], geo[3]
    epsilon = args.epsilon
    try:
        if epsilon is None:
            counts = REFERENCE_COUNTS[args.table]
            epsilon = calibrate_table(geo, counts, target, args.max_iter)[0]
        rule = StopRule(epsilon=epsilon, max_iter=args.max_iter, target=target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    trace = METHODS[args.method](geo, x0, rule)

    dim = len(x0)
    header = ["k"] + [f"x{i}" for i in range(dim)] + ["residual"]
    rows = []
    for k, (point, res) in enumerate(zip(trace.iterates, trace.residuals)):
        rows.append((k, *[_fmt(c) for c in point], _fmt(res)))
    _rows_out(header, rows, args.format, args.out)
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circumlib",
        description="Circumcenter mappings and best-approximation solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", default=None, help="write the artifact to this path")
        p.add_argument("--format", choices=("csv", "json-lines"), default="csv")

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmark tables; exit 2 when counts differ from the reference rows",
    )
    p_bench.add_argument("--scenario", default="all",
                         help="table1-line-plane, table2-plane-plane, or all")
    p_bench.add_argument("--x0", default=None,
                         help="override the start point, e.g. '0,0,0' (informational run)")
    p_bench.add_argument("--max-iter", type=int, default=64, dest="max_iter")
    output(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_verify = sub.add_parser("verify", help="verify gallery scenarios; exit 2 on any failure")
    p_verify.add_argument("--scenario", default=None, help="verify a single scenario by name")
    p_verify.add_argument("--self-test-corrupt", action="store_true",
                          dest="self_test_corrupt",
                          help="verify a deliberately corrupted scenario (must fail)")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for random probes")
    output(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_cc = sub.add_parser(
        "circumcenter",
        help="circumcenter of a point file (one comma-separated point per line, "
        "'#' comments); prints EXISTS <coords> radius <r> or NOT_EXISTS",
    )
    p_cc.add_argument("file")
    p_cc.set_defaults(fn=cmd_circumcenter)

    p_probe = sub.add_parser(
        "probe", help="classify a grid of points; CSV columns x,y,in_domain"
    )
    p_probe.add_argument("--scenario", required=True)
    p_probe.add_argument("--grid", default="-5:5:41,-3:3:25",
                         help="xmin:xmax:nx,ymin:ymax:ny")
    output(p_probe)
    p_probe.set_defaults(fn=cmd_probe)

    p_trace = sub.add_parser(
        "trace",
        help="iterate trace of one method on a table; CSV columns k,x0..,residual",
    )
    p_trace.add_argument("--scenario", dest="table", required=True)
    p_trace.add_argument("--method", choices=tuple(METHODS), default="crm-s1")
    p_trace.add_argument("--epsilon", type=float, default=None,
                         help="stopping tolerance (default: calibrated)")
    p_trace.add_argument("--max-iter", type=int, default=64, dest="max_iter")
    output(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
