"""The three benchmark workloads: input generators, operations and checks.

Each workload is built from the workload seed alone and hands the program
only the generated inputs.  ``items`` is a fixed pool of inputs that the
loop in ``run.py`` cycles through; ``run(item, clock)`` performs one operation
on one input, timing each program call with the ``Clock`` it is given, and
returns an ``Outcome``: a digest of everything the program produced, the
checks that failed, and work counts read off the outputs.

Checks compare quantities that survive a legitimate reordering of
floating-point sums (exit codes, event kinds and times to a tolerance,
equilibrium classes and subforms, rigid-motion-invariant edge lengths,
thresholds on residuals) against ``references.json``, which
``make_references.py`` produces from a known-good commit.  Byte identity is
required only between repeated runs of the same code on the same input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from rigidflex import cli, control, integrator, oracle, potentials, stability
from rigidflex.graph import FormationGraph, tetrahedron_flex, triangle_flex

REFERENCES = Path(__file__).resolve().parent / "references.json"

LYAPUNOV_SLACK = 1e-10          # per accepted step, as the program promises
EVENT_TIME_TOL = 0.5            # s; leaving a saddle is driven by rounding
EDGE_LENGTH_RTOL = 1e-8
UNDESIRED = ("flex_coincident", "degenerate_rigid")


def tailored_tetrahedron() -> FormationGraph:
    """Unequal tetrahedron distances that admit the pair-at-endpoint form."""
    edges = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5))
    des = {(1, 2): 4.0, (1, 3): np.sqrt(26.5), (1, 4): 4.0, (2, 3): np.sqrt(26.5),
           (2, 4): 4.0, (3, 4): np.sqrt(39.0), (4, 5): 4.0}
    return FormationGraph(num_nodes=5, dimension=3, edges=edges,
                          desired=tuple(des[e] for e in edges), flex_edge=(4, 5))


GRAPHS = {"triangle": triangle_flex, "tetrahedron": tetrahedron_flex,
          "tailored_tetrahedron": tailored_tetrahedron}
BUILTIN_GRAPHS = {"triangle_flex": triangle_flex, "tetrahedron_flex": tetrahedron_flex}


@dataclass
class Outcome:
    digest: str = ""
    failures: list = field(default_factory=list)
    work: Counter = field(default_factory=Counter)


class Clock:
    """Collects (label, raw s, reference s) samples around program calls;
    see ``speed.py`` for the normalisation."""

    def __init__(self, speedometer):
        self.speed = speedometer
        self.samples = []

    @contextlib.contextmanager
    def __call__(self, label):
        mark, t0 = self.speed.mark(), time.perf_counter()
        yield
        raw, normalised = self.speed.split(mark, time.perf_counter() - t0)
        self.samples.append((label, raw, normalised))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# Independent evaluations used by the checks


def edge_vectors(pos, graph: FormationGraph) -> np.ndarray:
    tails = [i - 1 for i, _ in graph.edges]
    heads = [j - 1 for _, j in graph.edges]
    return pos[tails] - pos[heads]


def edge_lengths(pos, graph: FormationGraph) -> np.ndarray:
    pos = np.asarray(pos, dtype=float).reshape(graph.num_nodes, graph.dimension)
    return np.linalg.norm(edge_vectors(pos, graph), axis=1)


def shape_potential(e, dbar, family: str) -> np.ndarray:
    """V = 1/2 sum phi(e) along the last axis, from the families' formulas."""
    e, dbar = np.asarray(e, dtype=float), np.asarray(dbar, dtype=float)
    if family == "quadratic":
        phi = 0.5 * e**2
    elif family == "rational":
        phi = e**2 / (e + dbar**2)
    else:
        raise ValueError(f"no reference formula for family {family!r}")
    return 0.5 * phi.sum(axis=-1)


def accepted_steps(t_end, dt, event_times=()) -> int:
    """RK4 steps the fixed-step integrator takes: clamped onto event times."""
    t, steps = 0.0, 0
    for boundary in sorted(event_times) + [t_end]:
        while boundary - t > 1e-12:
            t += min(dt, boundary - t)
            steps += 1
        t = boundary
    return steps


def check_verdict(report, kind, subform, where, sign_claims=True) -> list[str]:
    """A stability report must state the expected class and carry its proof.

    The sign claims are exact at a catalog entry; ``sign_claims=False``
    skips them for points that are merely near one (see ``Certify.run``).
    """
    cls = report.classification
    problems = []
    if (cls.kind, cls.subform) != (kind, subform):
        problems.append(f"{where}: classified {cls.kind}/{cls.subform}, expected {kind}/{subform}")
        return problems
    if kind in UNDESIRED:
        if report.witness is None or not report.witness.quadratic_form < 0:
            problems.append(f"{where}: no instability witness with negative quadratic form")
        if report.spectrum is not None and not report.min_eigenvalue < 0:
            problems.append(f"{where}: undesired equilibrium with PSD Hessian")
        if sign_claims and not all(c.passed for c in report.claims):
            problems.append(f"{where}: sign claims fail: "
                            f"{[c.description for c in report.claims if not c.passed]}")
    elif kind == "desired" and (report.witness is not None or not report.positive_semidefinite):
        problems.append(f"{where}: desired shape not certified PSD")
    return problems


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# scenarios: the bundled `rigidflex run` scenarios through the CLI


class Scenarios:
    """Every bundled scenario through ``rigidflex.cli.main(["run", ...])``.

    The inputs are the program's own scenario files, so the seed changes
    nothing here.  The pool order is fixed, and so is the scenario that a
    run repeats, which keeps the mix behind the median the same in every
    run.
    """

    op = "scenario"
    busy_labels = ("scenario",)

    def __init__(self, seed, workdir: Path, refs: dict):
        self.refs = refs["scenarios"]
        self.workdir = workdir
        self.items = sorted(self.refs)
        root = resources.files("rigidflex") / "scenarios"
        self.docs = {n: json.loads((root / f"{n}.json").read_text()) for n in self.items}
        self.graphs = {n: BUILTIN_GRAPHS[d["graph"]]() for n, d in self.docs.items()}
        self.steps = {n: accepted_steps(float(d["t_end"]), float(d.get("dt", 1e-3)),
                                        [float(ev["time"]) for ev in d.get("events", ())])
                      for n, d in self.docs.items()}

    def run(self, name, clock: Clock) -> Outcome:
        out = self.workdir / name
        if out.exists():
            shutil.rmtree(out)
        log = io.StringIO()
        with clock("scenario"), contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(["run", name, "--out", str(out)])
        files = sorted(out.iterdir()) if out.exists() else []
        result = Outcome(digest=digest(code, *(p.name.encode() + p.read_bytes() for p in files)))
        result.failures = self._check(name, code, out, log.getvalue(), result.work)
        return result

    def _check(self, name, code, out, log, work) -> list[str]:
        ref, doc, graph = self.refs[name], self.docs[name], self.graphs[name]
        if code != ref["exit_code"]:
            return [f"{name}: exit code {code}, expected {ref['exit_code']}: {log.strip()}"]
        problems = []

        events = json.loads((out / f"{name}_events.json").read_text())
        kinds = [ev["kind"] for ev in events]
        work["events"] += len(events)
        if kinds != [k for k, _ in ref["events"]]:
            problems.append(f"{name}: events {kinds}, expected {[k for k, _ in ref['events']]}")
        else:
            for ev, (kind, t_ref) in zip(events, ref["events"]):
                tol = 1e-9 if kind == "perturbation_applied" else EVENT_TIME_TOL
                if abs(ev["time"] - t_ref) > tol:
                    problems.append(f"{name}: {kind} at t={ev['time']}, expected {t_ref} ± {tol}")

        reports = [json.loads(p.read_text())
                   for p in sorted(out.glob(f"{name}_equilibrium_*.json"))]
        found = [[r["class"], r["subform"]] for r in reports]
        if found != ref["equilibria"]:
            problems.append(f"{name}: equilibria {found}, expected {ref['equilibria']}")
        for r in reports:
            if r["class"] in UNDESIRED and not (r["witness"] and r["witness"]["quadratic_form"] < 0):
                problems.append(f"{name}: undesired equilibrium at t={r['time']} lacks a witness")

        data = np.loadtxt(out / f"{name}_trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        work["steps"] += self.steps[name]
        work["records"] += len(data)
        if len(data) != ref["records"]:
            problems.append(f"{name}: {len(data)} trajectory records, expected {ref['records']}")
        n_pos = graph.num_nodes * graph.dimension
        errors = data[:, 1 + n_pos:1 + n_pos + len(graph.edges)]
        final_err, final_grad = float(np.abs(errors[-1]).max()), float(data[-1, -1])
        if final_err > ref["max_final_edge_error"]:
            problems.append(f"{name}: final max|e| {final_err:.3e} > {ref['max_final_edge_error']}")
        if final_grad > ref["max_final_gradnorm"]:
            problems.append(f"{name}: final gradient norm {final_grad:.3e} "
                            f"> {ref['max_final_gradnorm']}")
        problems += self._check_lyapunov(name, doc, graph, data, errors)
        return problems

    def _check_lyapunov(self, name, doc, graph, data, errors) -> list[str]:
        """V (or the composite target quantity) may rise by at most
        LYAPUNOV_SLACK per step between consecutive records."""
        v = shape_potential(errors, graph.desired, doc.get("family", "quadratic"))
        leader = doc.get("leader") or {}
        if leader.get("mode") == "target":
            d = graph.dimension
            flex = data[:, 1 + (graph.num_nodes - 1) * d:1 + graph.num_nodes * d]
            v = v + 0.5 * float(leader["k_f"]) * ((np.asarray(leader["p_t"]) - flex) ** 2).sum(axis=1)
        t = data[:, 0]
        jump = np.zeros(len(t) - 1, bool)       # the two records around a perturbation
        for ev in doc.get("events", ()):
            at = np.abs(t - float(ev["time"])) < 1e-9
            jump |= at[:-1] & at[1:]
        allowed = int(doc.get("record_every", 10)) * LYAPUNOV_SLACK + 1e-13 * np.maximum(1.0, v[:-1])
        rise = np.diff(v)
        bad = ~jump & (rise > allowed)
        if bad.any():
            k = int(np.argmax(np.where(bad, rise, -np.inf)))
            return [f"{name}: Lyapunov quantity rose by {rise[k]:.3e} between "
                    f"t={data[k, 0]:.3f} and t={data[k + 1, 0]:.3f}"]
        return []


# ---------------------------------------------------------------------------
# certify: catalogs, witnesses, polish and generic analysis


@dataclass(frozen=True)
class CertifyItem:
    combo: str                      # "<graph>/<family>"
    motions: tuple                  # (rotation, shift) per catalog entry, then desired
    noises: tuple                   # 1e-6 perturbation per catalog entry
    generic: tuple                  # random realizations (not equilibria)


class Certify:
    """Catalog construction and certification for the three graphs of the
    acceptance criteria (equal-distance triangle and tetrahedron, and the
    tailored tetrahedron), each with both potential families.

    One item is one (graph, family) pair with its own seeded rigid motions,
    polish perturbations and generic realizations.
    """

    op = "analyze"
    busy_labels = ("catalog", "polish", "analyze")
    rounds = 8
    generic_per_item = 4
    polish_noise = 1e-6

    def __init__(self, seed, workdir: Path, refs: dict):
        self.refs = refs["certify"]
        rng = np.random.default_rng(seed)
        self.graphs, self.families, self.desired = {}, {}, {}
        for combo in self.refs:
            gname, fname = combo.split("/")
            self.graphs[combo] = GRAPHS[gname]()
            self.families[combo] = potentials.get_family(fname)
            self.desired[combo] = oracle.desired_equilibrium(self.graphs[combo])
        self.items = []
        for _ in range(self.rounds):
            for combo, ref in self.refs.items():
                g = self.graphs[combo]
                n, d = g.num_nodes, g.dimension
                k = len(ref["entries"])
                self.items.append(CertifyItem(
                    combo=combo,
                    motions=tuple((random_rotation(rng, d), rng.uniform(-10, 10, d))
                                  for _ in range(k + 1)),
                    noises=tuple(self.polish_noise * rng.standard_normal((n, d))
                                 for _ in range(k)),
                    generic=tuple(rng.uniform(-5, 5, (n, d))
                                  for _ in range(self.generic_per_item))))

    def run(self, item: CertifyItem, clock: Clock) -> Outcome:
        combo = item.combo
        g, fam = self.graphs[combo], self.families[combo]
        problems, parts = [], []
        result = Outcome(failures=problems)

        with clock("catalog"):
            entries, failures = oracle.build_catalog(g, fam)
        result.work["construction_failures"] += len(failures)
        parts.append(json.dumps([e.to_json_dict() for e in entries]) + json.dumps(failures))
        problems += self._check_catalog(combo, entries, failures)

        targets = [(e.kind, e.subform, e.positions) for e in entries]
        targets.append(("desired", None, self.desired[combo]))
        for (kind, subform, pos), (rot, shift) in zip(targets, item.motions):
            with clock("analyze"):
                report = stability.analyze(pos @ rot.T + shift, g, fam)
            problems += check_verdict(report, kind, subform, f"{combo} {kind}/{subform} moved")
            parts.append(json.dumps(report.to_json_dict()))

        for entry, noise in zip(entries, item.noises):
            where = f"{combo} {entry.kind}/{entry.subform} polished"
            with clock("polish"):
                polished = oracle.newton_polish(entry.positions + noise, g, fam)
            with clock("analyze"):
                report = stability.analyze(polished, g, fam)
            # A 1e-6 push can slide along a family of degenerate equilibria:
            # a coincident pair polishes to a collinear one with a ~1e-6 gap,
            # which classify (POS_TOL 1e-6) may still call coincident_pair
            # while its exact g = 0 sign claims (zero_tol 1e-9) no longer
            # hold.  So the kind and the witness are pinned, not the subform
            # or the sign table.
            cls = report.classification
            problems += check_verdict(report, cls.kind, cls.subform, where, sign_claims=False)
            if cls.kind != entry.kind:
                problems.append(f"{where}: polished onto {cls.kind}/{cls.subform}")
            parts.append(polished.tobytes() + json.dumps(report.to_json_dict()).encode())

        for k, pos in enumerate(item.generic):
            with clock("analyze"):
                report = stability.analyze(pos, g, fam)
            if report.classification.kind != "not_equilibrium":
                problems.append(f"{combo} generic #{k}: classified "
                                f"{report.classification.kind}")
            parts.append(json.dumps(report.to_json_dict()))

        result.digest = digest(*parts)
        return result

    def _check_catalog(self, combo, entries, failures) -> list[str]:
        ref = self.refs[combo]
        problems = []
        if sorted(failures) != ref["failures"]:
            problems.append(f"{combo}: construction failures {sorted(failures)}, "
                            f"expected {ref['failures']}")
        found = [[e.kind, e.subform] for e in entries]
        expected = [[r["kind"], r["subform"]] for r in ref["entries"]]
        if found != expected:
            return problems + [f"{combo}: catalog {found}, expected {expected}"]
        g = self.graphs[combo]
        for e, r in zip(entries, ref["entries"]):
            lengths = edge_lengths(e.positions, g)
            if not np.allclose(lengths, r["edge_lengths"], rtol=EDGE_LENGTH_RTOL, atol=1e-9):
                problems.append(f"{combo} {e.kind}/{e.subform}: edge lengths {lengths.tolist()}, "
                                f"expected {r['edge_lengths']}")
            if not e.residual < stability.EQ_TOL:
                problems.append(f"{combo} {e.kind}/{e.subform}: residual {e.residual:.3e}")
        return problems


def random_rotation(rng, d) -> np.ndarray:
    """Uniform proper rotation (QR of a Gaussian matrix, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# basin: many short integrations from seeded starts near the desired shape


@dataclass(frozen=True)
class BasinItem:
    combo: str
    start: np.ndarray


class Basin:
    """Seeded random starts around the desired shape, both topologies and
    both families, each integrated over a short horizon with sparse
    recording and no events, leader or CLI, then classified."""

    op = "member"
    busy_labels = ("member",)
    combos = ("triangle/quadratic", "triangle/rational",
              "tetrahedron/quadratic", "tetrahedron/rational")
    members = 48
    spread = 0.5                    # std. dev. of the start displacement
    horizon = 0.5
    dt = 1e-3
    record_every = 100
    converged_edge_error = 1e-3     # quadratic members, max|e| at the horizon

    def __init__(self, seed, workdir: Path, refs: dict):
        rng = np.random.default_rng(seed)
        self.graphs, self.families, desired = {}, {}, {}
        for combo in self.combos:
            gname, fname = combo.split("/")
            self.graphs[combo] = GRAPHS[gname]()
            self.families[combo] = potentials.get_family(fname)
            desired[combo] = oracle.desired_equilibrium(self.graphs[combo])
        self.items = []
        for k in range(self.members):
            combo = self.combos[k % len(self.combos)]
            start = desired[combo] + self.spread * rng.standard_normal(desired[combo].shape)
            self.items.append(BasinItem(combo=combo, start=start))
        self.steps = accepted_steps(self.horizon, self.dt)
        self.records = 1 + sum(1 for k in range(1, self.steps + 1)
                               if k % self.record_every == 0 or k == self.steps)

    def run(self, item: BasinItem, clock: Clock) -> Outcome:
        g, fam = self.graphs[item.combo], self.families[item.combo]
        with clock("member"):
            with clock("integrate"):
                traj = integrator.integrate(item.start, g, fam, t_end=self.horizon, dt=self.dt,
                                            record_every=self.record_every)
            cls = stability.classify(traj.final_state, g, fam)
            v = control.potential_value(traj.final_state, g, fam)
        result = Outcome(digest=digest(traj.times.tobytes(), traj.states.tobytes(),
                                       cls.kind, repr(v), traj.events))
        result.work.update(steps=self.steps, records=len(traj.times), events=len(traj.events))
        result.failures = self._check(item, traj, cls, v)
        return result

    def _check(self, item, traj, cls, v) -> list[str]:
        g, fam = self.graphs[item.combo], self.families[item.combo]
        where = f"basin {item.combo}"
        problems = []
        if len(traj.times) != self.records:
            problems.append(f"{where}: {len(traj.times)} records, expected {self.records}")
        if not traj.max_lyapunov_increase <= LYAPUNOV_SLACK:
            problems.append(f"{where}: V rose by {traj.max_lyapunov_increase:.3e} in one step")
        final = np.asarray(traj.final_state).reshape(g.num_nodes, g.dimension)
        dbar = np.asarray(g.desired)
        v_final = float(shape_potential(edge_lengths(final, g) ** 2 - dbar**2, dbar, fam.name))
        v_start = float(shape_potential(edge_lengths(item.start, g) ** 2 - dbar**2, dbar, fam.name))
        if not abs(v - v_final) <= 1e-9 * abs(v_final) + 1e-12:
            problems.append(f"{where}: potential_value {v!r}, independent value {v_final!r}")
        if not v_final < v_start:
            problems.append(f"{where}: V did not decrease ({v_start!r} -> {v_final!r})")
        if cls.kind not in ("desired", "not_equilibrium"):
            problems.append(f"{where}: random start ended at {cls.kind}/{cls.subform}")
        final_err = float(np.abs(traj.edge_errors[-1]).max())
        if fam.name == "quadratic" and not final_err < self.converged_edge_error:
            problems.append(f"{where}: max|e| {final_err:.3e} at t={self.horizon}")
        return problems


WORKLOADS = {"scenarios": Scenarios, "certify": Certify, "basin": Basin}
