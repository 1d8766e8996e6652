"""Per-layer metrics computed from a traced run, and the layer -> end-to-end
prediction table they are read against.

``calls`` and ``self_ms`` are per traced op; ``setup_self_ms`` is for the one
traced set-up.  A faster layer can save at most its self-time share of an op,
which bounds each prediction below.
"""

from __future__ import annotations

from tracing import SETUP_OP

KINDS = ("ClosedFormMap", "DomainSpec", "ImpropernessIff", "SequenceLimit", "IterationCounts",
         "FixedPointSpec")
SOLVER_METHODS = ("drm", "map", "crm-s1", "crm-s2")
SOLVERS = ("solvers.drm_solve", "solvers.map_solve", "solvers.crm_solve")
CALLS_AND_SELF = (
    "geometry.as_vector", "geometry.orthonormal_basis", "geometry.orthonormal_complement",
    "geometry.solve_sym", "circumcenter.PointSet", "circumcenter.circumcenter",
    "operators.apply", "operators.AffineSubspace.project", "circummap.evaluate_set",
    "circummap.cc_map", "circummap.in_domain",
)
SETUP_SELF = ("geometry.orthonormal_basis", "geometry.orthonormal_complement",
              "operators.intersect_affine")

def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in CALLS_AND_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_ms"] = "ms"
    for fn in SETUP_SELF:
        units[f"{fn}.setup_self_ms"] = "ms"
    units["geometry.solve_sym.singular_ratio"] = "ratio"
    units["circumcenter.PointSet.kept_ratio"] = "ratio"
    units["circumcenter.circumcenter.exists_ratio"] = "ratio"
    units["circumcenter.circumcenter.points_mean"] = "count"
    units["operators.AffineSubspace.project.computed_bytes"] = "B"
    units["circummap.in_domain.true_ratio"] = "ratio"
    for method in SOLVER_METHODS:
        units[f"solvers.iterations.{method}"] = "count"
    for fn in SOLVERS:
        units[f"{fn}.self_ms"] = "ms"
        units[f"{fn}.us_per_iter"] = "us"
    units["solvers.converged_ratio"] = "ratio"
    for kind in KINDS:
        units[f"gallery.verify_scenario.self_ms.{kind}"] = "ms"
    units["gallery.checks"] = "count"
    units["gallery.domain_probe.self_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units

def compute(tracer, n_ops: int, overhead_ratio: float):
    """Per-layer metrics from the tracer's spans.  Returns ``(values, notes)``;
    a ratio with no calls to divide by is reported as 0 with a note."""
    sp = tracer.arrays()
    ob = tracer.observations()
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_op = sp["op"] >= 0
    in_setup = sp["op"] == SETUP_OP
    ob_name = sp["name"][ob["span"]]
    ob_in_op = in_op[ob["span"]]
    tag_ids = {tag: i for i, tag in enumerate(tracer.tags)}
    values, notes = {}, {}

    def spans(fn, where=in_op):
        return (sp["name"] == ids.get(fn, -1)) & where

    def obs(fn, tag=None):
        sel = (ob_name == ids.get(fn, -1)) & ob_in_op
        if tag is not None:
            sel &= ob["tag"] == tag_ids.get(tag, -2)
        return sel

    def ratio(key, num, den):
        values[key] = float(num) / float(den) if den else 0.0
        if not den:
            notes[key] = "no calls in traced ops; reported as 0"

    for fn in CALLS_AND_SELF:
        m = spans(fn)
        values[f"{fn}.calls"] = m.sum() / n_ops
        values[f"{fn}.self_ms"] = sp["self"][m].sum() * 1e3 / n_ops
    for fn in SETUP_SELF:
        values[f"{fn}.setup_self_ms"] = sp["self"][spans(fn, in_setup)].sum() * 1e3

    m = spans("geometry.solve_sym")
    ratio("geometry.solve_sym.singular_ratio", sp["raised"][m].sum(), m.sum())
    sel = obs("circumcenter.PointSet")
    ratio("circumcenter.PointSet.kept_ratio", ob["b"][sel].sum(), ob["a"][sel].sum())
    sel = obs("circumcenter.circumcenter")
    ratio("circumcenter.circumcenter.exists_ratio", ob["a"][sel].sum(), sel.sum())
    ratio("circumcenter.circumcenter.points_mean", ob["b"][sel].sum(), sel.sum())
    sel = obs("operators.AffineSubspace.project")
    values["operators.AffineSubspace.project.computed_bytes"] = ob["a"][sel].sum() / n_ops
    sel = obs("circummap.in_domain")
    ratio("circummap.in_domain.true_ratio", ob["a"][sel].sum(), sel.sum())

    for method in SOLVER_METHODS:
        fn = "solvers.crm_solve" if method.startswith("crm") else f"solvers.{method}_solve"
        values[f"solvers.iterations.{method}"] = ob["a"][obs(fn, method)].sum() / n_ops
    converged = attempts = 0.0
    for fn in SOLVERS:
        m = spans(fn)
        sel = obs(fn)
        values[f"{fn}.self_ms"] = sp["self"][m].sum() * 1e3 / n_ops
        # Per-iteration cost is the whole call (children included) over its iterations.
        ratio(f"{fn}.us_per_iter", sp["dur"][m].sum() * 1e6, ob["a"][sel].sum())
        converged += ob["b"][sel].sum()
        attempts += sel.sum()
    ratio("solvers.converged_ratio", converged, attempts)

    checks = 0.0
    for kind in KINDS:
        sel = obs("gallery.verify_scenario", kind)
        ratio(f"gallery.verify_scenario.self_ms.{kind}",
              sp["self"][ob["span"][sel]].sum() * 1e3, sel.sum())
        checks += ob["a"][sel].sum()
    values["gallery.checks"] = checks / n_ops
    values["gallery.domain_probe.self_ms"] = (
        sp["self"][spans("gallery.domain_probe")].sum() * 1e3 / n_ops)
    values["trace.overhead_ratio"] = overhead_ratio

    return {k: (float(values[k]), unit) for k, unit in metric_units().items()}, notes

# The layer -> end-to-end prediction table, fixed before any optimisation:
# (per-layer metrics, end-to-end metric it should move, workloads where the
# layer does most work, workloads where the prediction is no change).  Both
# workloads stay at n <= 3 and Gram systems of size <= 2; large-n projections,
# large Gram systems and long solver loops have no workload here.
PREDICTIONS = [
    ("geometry.as_vector.{calls,self_ms}", "throughput_ops_s, op_p50_ms",
     "probe-grid (about 20 calls per grid point), gallery-verify (16 calls per cc_map on "
     "table-2 S2)", "-"),
    ("geometry.orthonormal_basis.{calls,self_ms,setup_self_ms}, "
     "geometry.orthonormal_complement.{calls,self_ms,setup_self_ms}",
     "throughput_ops_s and op_p50_ms on probe-grid; setup_s on probe-grid (its warm-up probe)",
     "probe-grid (about 2 bases per grid point, m <= 3), gallery-verify set-up", "-"),
    ("geometry.solve_sym.{calls,self_ms,singular_ratio}", "throughput_ops_s, op_p50_ms",
     "probe-grid (Gram systems of size <= 2); no workload has large systems",
     "gallery-verify"),
    ("circumcenter.PointSet.{calls,self_ms,kept_ratio}", "throughput_ops_s",
     "probe-grid (one per grid point), gallery-verify", "-"),
    ("circumcenter.circumcenter.{calls,self_ms,exists_ratio,points_mean}", "op_p50_ms",
     "probe-grid (one per grid point), gallery-verify", "-"),
    ("operators.apply.{calls,self_ms}", "throughput_ops_s",
     "probe-grid, gallery-verify (ball, box, sphere and AffineComb trees)", "-"),
    ("operators.AffineSubspace.project.{calls,self_ms,computed_bytes}", "throughput_ops_s",
     "probe-grid, gallery-verify (bases of at most 3 x 3); no workload has large n",
     "-"),
    ("operators.intersect_affine.setup_self_ms", "setup_s (under 1 ms of each set-up)",
     "gallery-verify and probe-grid catalog builds", "throughput_ops_s on both"),
    ("circummap.{evaluate_set,in_domain}.{calls,self_ms}, circummap.in_domain.true_ratio",
     "throughput_ops_s", "probe-grid (one of each per grid point), gallery-verify",
     "-"),
    ("circummap.cc_map.{calls,self_ms}", "throughput_ops_s", "gallery-verify",
     "probe-grid (never called)"),
    ("solvers.iterations.{drm,map,crm-s1,crm-s2} (exact), "
     "solvers.{drm_solve,map_solve,crm_solve}.{self_ms,us_per_iter}, solvers.converged_ratio",
     "op_p50_ms through the per-iteration cost; the counts must never move",
     "gallery-verify (table and sequence scenarios, a few iterations each)",
     "probe-grid (never called)"),
    ("gallery.verify_scenario.self_ms.<kind>, gallery.checks (exact)", "throughput_ops_s",
     "gallery-verify", "probe-grid (never called)"),
    ("gallery.domain_probe.self_ms", "throughput_ops_s", "probe-grid",
     "gallery-verify (never called)"),
    ("trace.overhead_ratio (untraced over traced throughput)", "- (diagnostic)", "both", "-"),
]
