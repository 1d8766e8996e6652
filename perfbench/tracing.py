"""Outside-in span tracer for circumlib's layers.

The tracer wraps functions from the outside: it replaces every module binding
of each public function of the traced modules (circumlib modules import each
other with ``from .geometry import as_vector``, so patching only the defining
module would miss most calls), and patches ``PointSet.__init__`` and
``AffineSubspace.project`` on their classes so the classes stay the same
objects.  Nothing under ``src/`` changes.  Spans (name, start, end, parent
span, op id) are kept in flat in-memory arrays and written out once at the
end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("geometry", "circumcenter", "operators", "circummap", "solvers", "gallery")

SETUP_OP = -1  # op id of spans recorded during set-up


def _pointset(args, kwargs, result):
    # args[0] is the instance; its points are set by __init__.
    return None, float(len(args[1])), float(len(args[0].points))


def _circumcenter(args, kwargs, result):
    return None, float(result.exists), float(len(args[0]))


def _in_domain(args, kwargs, result):
    return None, float(result.in_domain), 0.0


def _solver(label):
    """Observer tagging a solve with its method; CRM takes its family's name."""

    def observe(args, kwargs, result):
        tag = label or f"crm-{args[0].name}"
        return tag, float(result.iterations), float(result.stop_reason == "converged")

    return observe


def _project(args, kwargs, result):
    # Bytes computed from array shapes, not measured: the k x n basis is read
    # twice (B @ d, then B.T @ ...), plus x, anchor, d and the result once.
    U = args[0]
    k, n = U.basis.shape
    return None, float(8 * (2 * k * n + 4 * n)), 0.0


def _verify_scenario(args, kwargs, result):
    return type(args[0].expected).__name__, float(result.checks), 0.0


# Observers return (tag, a, b) for one call; they run after the call returns.
OBSERVERS = {
    "circumcenter.PointSet": _pointset,
    "circumcenter.circumcenter": _circumcenter,
    "circummap.in_domain": _in_domain,
    "solvers.drm_solve": _solver("drm"),
    "solvers.map_solve": _solver("map"),
    "solvers.crm_solve": _solver(None),
    "operators.AffineSubspace.project": _project,
    "gallery.verify_scenario": _verify_scenario,
}


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.obs_span = array("i")
        self.obs_tag = array("i")
        self.obs_a = array("d")
        self.obs_b = array("d")
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- recording ----------------------------------------------------------

    def _tag_id(self, tag):
        if tag is None:
            return -1
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observe = OBSERVERS.get(qualname)
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends, parents, ops, raised = (
            self.name, self.start, self.end, self.parent, self.op, self.raised)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                tag, a, b = observe(args, kwargs, result)
                tracer.obs_span.append(idx)
                tracer.obs_tag.append(tracer._tag_id(tag))
                tracer.obs_a.append(a)
                tracer.obs_b.append(b)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def targets(self):
        """(qualname, owner, attribute, original) for every wrapped callable."""
        found = []
        for short in LAYER_MODULES:
            mod = sys.modules[f"circumlib.{short}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found.append((f"{short}.{attr}", None, attr, obj))
        cc = sys.modules["circumlib.circumcenter"]
        ops = sys.modules["circumlib.operators"]
        found.append(("circumcenter.PointSet", cc.PointSet, "__init__", cc.PointSet.__init__))
        found.append(("operators.AffineSubspace.project", ops.AffineSubspace, "project",
                      ops.AffineSubspace.project))
        return found

    def install(self, extra_modules=()):
        """Patch every binding of every target in circumlib's modules and in
        ``extra_modules`` (the benchmark's own modules that call the library)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "circumlib" or k.startswith("circumlib."))]
        modules += list(extra_modules)
        for qualname, owner, attr, original in self.targets():
            wrapper = self._wrappers.get(qualname)
            if wrapper is None:
                wrapper = self._wrappers[qualname] = self.wrap(qualname, original)
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays with durations and self times in seconds.
        A span's self time is its duration minus the durations of its direct
        children, which nest inside it on this single thread."""
        sp = {key: np.frombuffer(getattr(self, key), dtype=dtype) for key, dtype in (
            ("name", np.int32), ("start", np.float64), ("end", np.float64),
            ("parent", np.int32), ("op", np.int32), ("raised", np.int8))}
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        sp["dur"] = dur
        sp["self"] = dur - child
        return sp

    def observations(self):
        return {key: np.frombuffer(getattr(self, f"obs_{key}"), dtype=dtype) for key, dtype in (
            ("span", np.int32), ("tag", np.int32), ("a", np.float64), ("b", np.float64))}

    def save(self, path):
        sp = self.arrays()
        ob = self.observations()
        np.savez(path, names=np.array(self.names), tags=np.array(self.tags, dtype=str),
                 name=sp["name"], start=sp["start"], end=sp["end"], parent=sp["parent"],
                 op=sp["op"], raised=sp["raised"], obs_span=ob["span"], obs_tag=ob["tag"],
                 obs_a=ob["a"], obs_b=ob["b"])


# Exact calls for one cc_map(S2, x0) on table 2, where the three images dedup
# to two points: as_vector is called once by evaluate_set, once per apply (5),
# once per AffineSubspace.reflect (3) and .project (3), once per image in
# PointSet (3) and once by CircumcenterOutcome.found: 16 in all.
SELF_CHECK_EXPECTED = {
    "geometry.as_vector": 16,
    "operators.apply": 5,
    "circumcenter.PointSet": 1,
    "circumcenter.circumcenter": 1,
}


def self_check():
    """Trace one ``cc_map(S2, x0)`` on table 2 and return its call counts for
    the names in :data:`SELF_CHECK_EXPECTED`."""
    import circumlib

    _, _, x0, _, _, S2 = circumlib.table_geometry("table2-plane-plane")
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        circumlib.cc_map(S2, x0)
    finally:
        tracer.uninstall()
    counts = {}
    for nid in tracer.name:
        key = tracer.names[nid]
        counts[key] = counts.get(key, 0) + 1
    return {k: counts.get(k, 0) for k in SELF_CHECK_EXPECTED}
