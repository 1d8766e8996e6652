"""circumlib benchmark: one seeded workload per run, outputs checked after the
timed phase, end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload gallery-verify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  A run record with the
environment, exact counts and the prediction table is written under
``perfbench/out/``.  The process starts no threads or processes of its own.
"""

import os

# BLAS is pinned to one thread for this process before numpy is imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Set-up is sampled once before the timed phase and again between cycles,
# about every --seconds / SETUP_SAMPLES of measured time, so that setup_s
# covers the same stretch of the run as the ops do.
SETUP_SAMPLES = 8
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
# A run ends at the cycle boundary nearest to --seconds, after at least two
# cycles, so it never holds a partial cycle or a single probe-grid cycle
# (6 to 11 s on a 2-core Xeon VM).
MIN_CYCLES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a name from workloads.BUILDERS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run length: whole cycles, at least two, ending at the cycle "
                   "boundary nearest to it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- run record ------------------------------------------------------------------


def git_commit(root: Path):
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": os.uname().machine,
        "system": f"{os.uname().sysname} {os.uname().release}",
    }


# -- measurement -------------------------------------------------------------------


def tail(durations):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


class Ledger:
    """Per-op durations and item indices, plus each item's first output.  Every
    later op is compared with its item's first output as it completes, so the
    ledger holds one output per item however many cycles run."""

    def __init__(self):
        self.durations = array("d")
        self.items = array("i")
        self.repeats = array("b")  # 1 when the op's output equals its item's first
        self.first = {}

    def __len__(self):
        return len(self.items)

    def add(self, i, duration, out):
        self.durations.append(duration)
        self.items.append(i)
        self.repeats.append(self.first.setdefault(i, out) == out)


def _circumlib_modules():
    return {k: m for k, m in sys.modules.items()
            if k == "circumlib" or k.startswith("circumlib.")}


def fresh_import_s():
    """Seconds to import circumlib into this interpreter as if for the first
    time (numpy already loaded).  The live modules are put back afterwards, so
    the run keeps using one copy of the library and the fresh copy is dropped."""
    live = _circumlib_modules()
    for k in live:
        del sys.modules[k]
    try:
        t0 = time.perf_counter()
        importlib.import_module("circumlib")
        return time.perf_counter() - t0
    finally:
        for k in _circumlib_modules():
            del sys.modules[k]
        sys.modules.update(live)


def setup_sample(builder, seed):
    """One set-up: import circumlib, build the workload's inputs and run one
    warm-up op.  Returns (import seconds, build seconds, plan)."""
    import_s = fresh_import_s()
    t0 = time.perf_counter()
    plan = builder(seed)
    plan.op(plan.warmup)
    return import_s, time.perf_counter() - t0, plan


def run_cycle(plan, ledger, tracer=None, first_op=0):
    """Run one whole cycle of ops into ``ledger``."""
    clock = time.perf_counter
    for i, item in enumerate(plan.items):
        if tracer is not None:
            tracer.op_id = first_op + i
        t0 = clock()
        out = plan.op(item)
        duration = clock() - t0
        ledger.add(i, duration, out)


def timed_phase(plan, seconds, tracer=None, extra_modules=(), sample_setup=None, samples=None):
    """Whole cycles, at least MIN_CYCLES, ending at the cycle boundary nearest
    to ``seconds`` of measured time.  With a tracer, untraced and traced cycles
    alternate and the traced ones are recorded separately, so the overhead
    ratio compares like with like.  Between cycles, ``sample_setup()`` is
    appended to ``samples`` whenever another SETUP_SAMPLES-th of ``seconds``
    has been measured; that time is outside the phase."""
    plain, traced = Ledger(), Ledger()
    plain_s = traced_s = 0.0
    for cycle in itertools.count(1):
        t0 = time.perf_counter()
        run_cycle(plan, plain)
        plain_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.install(extra_modules)
            t0 = time.perf_counter()
            try:
                run_cycle(plan, traced, tracer, first_op=len(traced))
            finally:
                traced_s += time.perf_counter() - t0
                tracer.uninstall()
        elapsed = plain_s + traced_s
        if sample_setup is not None and elapsed >= len(samples) * seconds / SETUP_SAMPLES:
            samples.append(sample_setup())
            gc.collect()
        # Another cycle would end farther from ``seconds`` than stopping now.
        if cycle >= MIN_CYCLES and elapsed + 0.5 * elapsed / cycle >= seconds:
            return plain, plain_s, traced, traced_s


def check_ops(plan, ledgers):
    """Check each item's first output once; every op counts as that verdict,
    except an op whose output differed from its item's first, which fails as
    inconsistent."""
    first, inconsistent = {}, set()
    for ledger in ledgers:
        for i, out in ledger.first.items():
            if first.setdefault(i, out) != out:
                inconsistent.add(plan.labels[i])
    verdicts = {i: plan.check(plan.items[i], out) for i, out in first.items()}
    failures, unexpected = Counter(), set()
    for ledger in ledgers:
        for i, repeats in zip(ledger.items, ledger.repeats):
            verdict = verdicts[i]
            if not repeats:
                inconsistent.add(plan.labels[i])
                failures[f"{plan.labels[i]}: output differs from its first run"] += 1
            elif not verdict.ok:
                message = f"{plan.labels[i]}: {verdict.detail}"
                failures[message + (" (known defect)" if verdict.known else "")] += 1
                if not verdict.known:
                    unexpected.add(message)
    exact = {plan.labels[i]: v.counts for i, v in sorted(verdicts.items())}
    return failures, sorted(unexpected), sorted(inconsistent), exact


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circumlib" / "__init__.py").is_file():
        print(f"error: no circumlib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded before any set-up sample; see setup_s)
    import circumlib

    if Path(circumlib.__file__).resolve().parent != (SRC / "circumlib").resolve():
        print(f"error: imported circumlib from {circumlib.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    import tracing
    import workloads

    builder = workloads.BUILDERS.get(args.workload)
    if builder is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        found = tracing.self_check()
        if found != tracing.SELF_CHECK_EXPECTED:
            print(f"error: tracer self-check counted {found}, "
                  f"expected {tracing.SELF_CHECK_EXPECTED}", file=sys.stderr)
            return 3
        tracer = tracing.Tracer()
        tracer.install([workloads])

    # In a traced run only this first set-up sample is traced; setup_self_ms comes from it.
    *first, plan = setup_sample(builder, args.seed)
    if tracer is not None:
        tracer.uninstall()
    samples = [tuple(first)]
    gc.collect()
    plain, plain_s, traced, traced_s = timed_phase(
        plan, args.seconds, tracer, [workloads],
        lambda: setup_sample(builder, args.seed)[:2], samples)
    setup_s = statistics.median(a + b for a, b in samples)
    attempted = len(plain) + len(traced)
    failures, unexpected, inconsistent, exact = check_ops(plan, (plain, traced))
    failed = sum(failures.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    durations = plain.durations
    tail_ms, tail_pct = tail(durations)
    n = len(plain)
    e2e = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (n / plain_s, "ops/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail_ms * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        overhead = (n / plain_s) / (len(traced) / traced_s)
        per_layer, notes = layers.compute(tracer, len(traced), overhead)
        tracer.save(OUT / f"{args.workload}-spans.npz")
    correct = not unexpected and not inconsistent

    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "ops_per_cycle": len(plan.items),
        "ops_attempted": attempted,
        "ops_untraced": n,
        "ops_traced": len(traced),
        "ops_failed": failed,
        "error_rate": failed / attempted,
        "failures": dict(failures),
        "unexpected_failures": unexpected,
        "inconsistent_counts": inconsistent,
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "setup_samples": len(samples),
        "setup_import_s": [a for a, _ in samples],
        "setup_build_s": [b for _, b in samples],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "exact_counts_per_op": exact,
        "predictions": [dict(zip(("per_layer", "should_move", "most_work", "predicted_flat_on"),
                                 row)) for row in layers.PREDICTIONS],
    }
    if tracer is not None:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["per_layer_notes"] = notes
        record["spans"] = len(tracer.name)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    env = record["environment"]
    print(f"commit {env['commit']} src {env['src_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} blas {env['blas']} threads {env['blas_threads']} "
          f"nproc {env['nproc']} machine {env['machine']}")
    print(f"ops {attempted} ({len(plan.items)} per cycle; {n} untraced, {len(traced)} traced), "
          f"failed {failed}, error_rate {failed / attempted:.6f}")
    for message, count in sorted(failures.items()):
        print(f"FAILED x{count} {message}")
    if inconsistent:
        print(f"INCONSISTENT exact counts: {inconsistent}")
    print(f"exact counts per op: {json.dumps(exact, default=float)}")
    for name, (value, unit) in e2e.items():
        extra = f"  (p{tail_pct:.2f} of {n} ops)" if name == "op_tail_ms" else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    if tracer is not None:
        for name, (value, unit) in per_layer.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} = {value:.6g} {unit}{note}")
    print("predictions (per-layer | should move | most work on | predicted flat on):")
    for row in layers.PREDICTIONS:
        print("  " + " | ".join(row))
    print(f"record written to {record_path.relative_to(ROOT)}")

    metrics = per_layer if tracer is not None else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
