"""Span tracing of rigidflex from outside the package.

``Tracer.install()`` replaces every public function of the traced modules,
in every rigidflex namespace (and module-level dict) that refers to it, with
a wrapper that records one span: name, start, end and parent span.  Nothing
under ``src/`` changes; ``Tracer.uninstall()`` puts the originals back.
Spans live in flat in-memory arrays and are written out once, at the end.

A few non-function boundaries are instrumented as well:

* ``FormationGraph.edge_tails`` / ``edge_heads`` are properties; their
  accesses are counted together as ``graph.edge_index``.
* ``Trajectory.to_csv`` / ``events_to_json`` are methods; they get spans, and
  ``to_csv`` also counts the bytes it wrote.
* ``oracle.root`` (scipy's root finder as the oracle module sees it) gets a
  span per seed tried; ``oracle._multi_root`` is counted, not spanned, to
  learn how many of those attempts produced a usable root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("graph", "potentials", "control", "integrator", "stability", "oracle", "cli")

_S = "scenario_s_p50 and rk4_steps_per_s on scenarios"
_B = "basin_members_per_s and rk4_steps_per_s on basin"
_C = "certify_per_s, analyze_ms_p50/p99 and polish_ms_p50 on certify"

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("control.gradient_control.us", "us", "lower", f"{_S}; {_B}"),
    ("control.gradient_control.calls_per_step", "1/step", "lower", f"{_S}; {_B}"),
    ("control.leader_control.calls_per_step", "1/step", "lower", f"{_S}; {_B}"),
    ("control.edge_states.calls_per_step", "1/step", "lower", f"{_S}; {_B}"),
    ("control.potential_value.us", "us", "lower", f"{_S}; {_B}"),
    ("potentials.check_domain.calls_per_step", "1/step", "lower", f"{_S}; {_B}"),
    ("graph.edge_index.accesses_per_step", "1/step", "lower", f"{_S}; {_B}"),
    ("integrator.integrate.self_us_per_step", "us/step", "lower", _S),
    ("integrator.integrate.setup_us", "us", "lower", _B),
    ("integrator.gradient_evals_per_sample", "1/sample", "lower", _S),
    ("integrator.detect_equilibrium.us", "us", "lower", f"{_S}; {_B}"),
    ("integrator.to_csv.ms", "ms", "lower", "scenario_s_p50 on scenarios"),
    ("integrator.to_csv.bytes", "B", "lower", "scenario_s_p50 on scenarios"),
    ("stability.analyze.us", "us", "lower", _C),
    ("stability.classify.us", "us", "lower", _C),
    ("stability.assemble_hessian.us", "us", "lower", _C),
    ("stability.assemble_hessian.calls_per_analyze", "1/analyze", "lower", _C),
    ("stability.alignment_rotation.calls_per_analyze", "1/analyze", "lower", _C),
    ("stability.instability_witness.us", "us", "lower", _C),
    ("stability.verify_sign_properties.us", "us", "lower", _C),
    ("oracle.build_catalog.ms", "ms", "lower", "catalog_ms_p50 and certify_per_s on certify"),
    ("oracle.newton_polish.us", "us", "lower", "polish_ms_p50 and certify_per_s on certify"),
    ("oracle.newton_polish.iterations", "1/polish", "lower",
     "polish_ms_p50 and certify_per_s on certify"),
    ("oracle.root.seeds_tried", "1/catalog", "lower", "catalog_ms_p50 on certify"),
    ("oracle.root.success_ratio", "ratio", "higher", "catalog_ms_p50 on certify"),
    ("oracle.construction_failures", "1/catalog", "lower", "catalog_ms_p50 on certify"),
    ("cli.parse.ms", "ms", "lower", "scenario_s_p50 and setup_s on scenarios"),
    ("cli.integrate.ms", "ms", "lower", "scenario_s_p50 on scenarios"),
    ("cli.write.ms", "ms", "lower", "scenario_s_p50 on scenarios"),
    ("cli.analyze.ms", "ms", "lower", "scenario_s_p50 on scenarios"),
    ("work.steps", "count", "lower", "exact; proves both commits ran the same steps"),
    ("work.rhs_evals", "count", "lower", f"{_S}; {_B}"),
    ("work.edge_states_calls", "count", "lower", f"{_S}; {_B}"),
    ("work.records", "count", "lower", "exact; proves both commits recorded the same samples"),
    ("work.events", "count", "lower", "exact; proves both commits saw the same events"),
    ("work.analyze_calls", "count", "lower", "exact; proves both commits analysed as often"),
    ("work.newton_iterations", "count", "lower", "polish_ms_p50 on certify"),
    ("work.root_seeds_tried", "count", "lower", "catalog_ms_p50 on certify"),
    ("trace.overhead_pct", "%", "lower", "none; traced minus untraced busy time"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs)``
        runs once the span has closed."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to ``op_counts``."""
        return len(self.starts), Counter(self.counters)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def install(self):
        import rigidflex
        mods = {name: importlib.import_module(f"rigidflex.{name}") for name in LAYERS}
        namespaces = [rigidflex, *mods.values()]
        for lname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._replace_everywhere(namespaces, fn, self.span(f"{lname}.{attr}", fn))

        oracle, integrator, graph = mods["oracle"], mods["integrator"], mods["graph"]
        self._patch(oracle, "root", self.span("oracle.root", oracle.root))
        multi_root = oracle._multi_root

        def counted_multi_root(*args, **kwargs):
            out = multi_root(*args, **kwargs)
            self.counters["oracle.root.useful"] += 1
            return out

        self._patch(oracle, "_multi_root", counted_multi_root)

        def csv_bytes(args, kwargs):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            if path is not None and os.path.exists(path):
                self.counters["integrator.to_csv.bytes"] += os.path.getsize(path)

        traj = integrator.Trajectory
        self._patch(traj, "to_csv", self.span("integrator.to_csv", traj.to_csv, after=csv_bytes))
        self._patch(traj, "events_to_json",
                    self.span("integrator.events_to_json", traj.events_to_json))

        fg = graph.FormationGraph
        for attr in ("edge_tails", "edge_heads"):
            self._patch(fg, attr, self._counted_property(getattr(fg, attr), "graph.edge_index"))

    def _counted_property(self, prop, key):
        counters, fget = self.counters, prop.fget

        def get(obj):
            counters[key] += 1
            return fget(obj)

        return property(get, doc=prop.__doc__)

    def _replace_everywhere(self, namespaces, fn, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._patch(ns, attr, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is fn:
                            self._patch(value, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self, first: int = 0) -> dict[str, np.ndarray]:
        """Copies of the span columns from span ``first`` on."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32)[first:].copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32)[first:].copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64)[first:].copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64)[first:].copy(),
        }

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# Per-layer metrics


class SpanTable:
    """Vectorised queries over the spans recorded from span ``first`` on."""

    def __init__(self, tracer: Tracer, first: int = 0):
        a = tracer.arrays(first)
        self.ids = tracer._ids
        self.name_id = a["name_id"]
        self.parent = np.where(a["parent"] >= first, a["parent"] - first, -1)
        self.dur = a["end"] - a["start"]
        self.start, self.end = a["start"], a["end"]
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(self.dur))
        self.self_time = self.dur - child_time

    def mask(self, name):
        nid = self.ids.get(name)
        return self.name_id == nid if nid is not None else np.zeros(len(self.dur), bool)

    def count(self, name) -> int:
        return int(self.mask(name).sum())

    def mean_us(self, name) -> float:
        m = self.mask(name)
        return float(self.dur[m].mean() * 1e6) if m.any() else 0.0

    def inside(self, name, ancestor) -> np.ndarray:
        """Mask of ``name`` spans that have an ``ancestor`` span above them."""
        target = self.ids.get(ancestor)
        found = np.zeros(len(self.dur), bool)
        if target is None:
            return found & self.mask(name)
        cur = self.parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                break
            found[live] |= self.name_id[cur[live]] == target
            cur[live] = self.parent[cur[live]]
        return found & self.mask(name)


def op_counts(tracer: Tracer, mark) -> Counter:
    """Exact work counts of the operation traced since ``mark``: calls per
    span name, the counters, and Newton iterations (Hessian assemblies
    inside ``newton_polish``)."""
    first, counters = mark
    t = SpanTable(tracer, first)
    out = Counter({tracer.names[i]: int(c) for i, c in enumerate(np.bincount(t.name_id)) if c})
    out.update(tracer.counters - counters)
    out["newton_iterations"] = int(t.inside("stability.assemble_hessian",
                                            "oracle.newton_polish").sum())
    return +out


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, work: Counter) -> dict[str, float]:
    """Per-layer numbers from the spans of every traced operation.

    ``work`` holds output-derived totals over the same traced operations:
    ``steps`` (accepted RK4 steps) and ``records`` (trajectory samples).
    """
    t = SpanTable(tracer)
    steps, records = work["steps"], work["records"]
    analyzes = t.count("stability.analyze")
    m = {}
    m["control.gradient_control.us"] = t.mean_us("control.gradient_control")
    m["control.gradient_control.calls_per_step"] = _ratio(t.count("control.gradient_control"), steps)
    m["control.leader_control.calls_per_step"] = _ratio(t.count("control.leader_control"), steps)
    m["control.edge_states.calls_per_step"] = _ratio(t.count("control.edge_states"), steps)
    m["control.potential_value.us"] = t.mean_us("control.potential_value")
    m["potentials.check_domain.calls_per_step"] = _ratio(t.count("potentials.check_domain"), steps)
    m["graph.edge_index.accesses_per_step"] = _ratio(tracer.counters["graph.edge_index"], steps)

    integ = t.mask("integrator.integrate")
    m["integrator.integrate.self_us_per_step"] = _ratio(t.self_time[integ].sum() * 1e6, steps)
    # set-up: from entering integrate to its first right-hand-side evaluation
    rhs = np.flatnonzero(t.mask("control.leader_control") & (t.parent >= 0))
    owners, first = np.unique(t.parent[rhs], return_index=True)
    owned = integ[owners]
    setups = t.start[rhs[first[owned]]] - t.start[owners[owned]]
    m["integrator.integrate.setup_us"] = float(setups.mean() * 1e6) if len(setups) else 0.0
    grad_in_integrate = int(t.inside("control.gradient_control", "integrator.integrate").sum())
    m["integrator.gradient_evals_per_sample"] = _ratio(grad_in_integrate - 4 * steps, records)
    m["integrator.detect_equilibrium.us"] = t.mean_us("integrator.detect_equilibrium")
    m["integrator.to_csv.ms"] = t.mean_us("integrator.to_csv") / 1e3
    m["integrator.to_csv.bytes"] = _ratio(tracer.counters["integrator.to_csv.bytes"],
                                          t.count("integrator.to_csv"))

    m["stability.analyze.us"] = t.mean_us("stability.analyze")
    m["stability.classify.us"] = t.mean_us("stability.classify")
    m["stability.assemble_hessian.us"] = t.mean_us("stability.assemble_hessian")
    m["stability.assemble_hessian.calls_per_analyze"] = _ratio(
        t.inside("stability.assemble_hessian", "stability.analyze").sum(), analyzes)
    m["stability.alignment_rotation.calls_per_analyze"] = _ratio(
        t.inside("stability.alignment_rotation", "stability.analyze").sum(), analyzes)
    m["stability.instability_witness.us"] = t.mean_us("stability.instability_witness")
    m["stability.verify_sign_properties.us"] = t.mean_us("stability.verify_sign_properties")

    catalogs = t.count("oracle.build_catalog")
    polishes = t.count("oracle.newton_polish")
    seeds = t.count("oracle.root")
    m["oracle.build_catalog.ms"] = t.mean_us("oracle.build_catalog") / 1e3
    m["oracle.newton_polish.us"] = t.mean_us("oracle.newton_polish")
    m["oracle.newton_polish.iterations"] = _ratio(
        t.inside("stability.assemble_hessian", "oracle.newton_polish").sum(), polishes)
    m["oracle.root.seeds_tried"] = _ratio(seeds, catalogs)
    m["oracle.root.success_ratio"] = _ratio(tracer.counters["oracle.root.useful"], seeds)
    m["oracle.construction_failures"] = _ratio(work["construction_failures"], catalogs)

    m.update(_cli_phases(t))
    return m


def _cli_phases(t: SpanTable) -> dict[str, float]:
    """Split each ``cli.main`` span into parse / integrate / write / analyze.

    parse is everything before ``integrate`` starts; analyze is the polish
    and analysis at detected equilibria; write is the rest after integrate
    (CSV, events and report JSON).
    """
    mains = np.flatnonzero(t.mask("cli.main"))
    out = {"cli.parse.ms": 0.0, "cli.integrate.ms": 0.0, "cli.write.ms": 0.0,
           "cli.analyze.ms": 0.0}
    if not len(mains):
        return out
    integ = np.flatnonzero(t.mask("integrator.integrate") & np.isin(t.parent, mains))
    by_main = {int(t.parent[i]): i for i in integ}
    analysis = (t.mask("oracle.newton_polish") | t.mask("stability.analyze")) & np.isin(t.parent, mains)
    analysis_time = np.bincount(t.parent[analysis], weights=t.dur[analysis], minlength=len(t.dur))
    phases = []
    for m in mains:
        if m not in by_main:
            continue
        i = by_main[m]
        parse = t.start[i] - t.start[m]
        ana = analysis_time[m]
        write = t.end[m] - t.end[i] - ana
        phases.append((parse, t.dur[i], write, ana))
    if phases:
        parse, integ_t, write, ana = np.mean(phases, axis=0) * 1e3
        out.update({"cli.parse.ms": parse, "cli.integrate.ms": integ_t,
                    "cli.write.ms": write, "cli.analyze.ms": ana})
    return out
