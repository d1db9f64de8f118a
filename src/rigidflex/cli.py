"""Command-line front end: scenario runs, stability analysis, catalogs.

Verbs:
  run                simulate a scenario JSON file, emit a trajectory CSV + events
  analyze            classify a realization and report spectrum/witness
  catalog            construct the undesired-equilibrium catalog for a graph
  validate-potential check a built-in potential family's defining conditions

Exit codes: 0 success, 2 configuration/parse error, 3 numeric or contract
failure (non-convergence, missing witness, monotonicity violation, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .control import EQ_TOL, leader_spec_from_json
from .graph import (FormationGraph, GraphError, as_positions, graph_from_json, triangle_flex,
                    tetrahedron_flex)
from .integrator import IntegrationError, PerturbationEvent, integrate, random_perturbation
from .oracle import OracleError, build_catalog, newton_polish, write_catalog
from .potentials import FAMILIES, get_family, validate_family
from .stability import WitnessNotFoundError, analyze

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

LYAPUNOV_SLACK = 1e-10              # largest tolerated per-step increase

SCENARIO_KEYS = frozenset({"graph", "family", "initial", "t_end", "dt", "record_every",
                           "eq_tol", "events", "leader", "analysis"})


class ScenarioError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read JSON from {path}: {exc}")


def _resolve_scenario(name_or_path) -> dict:
    p = Path(name_or_path)
    if p.exists():
        return _load_json(p)
    bundled = resources.files("rigidflex") / "scenarios" / f"{name_or_path}.json"
    if bundled.is_file():
        return json.loads(bundled.read_text())
    raise ScenarioError(f"scenario {name_or_path!r} is neither a file nor a "
                        f"bundled scenario name")


def bundled_scenario_names() -> list[str]:
    root = resources.files("rigidflex") / "scenarios"
    return sorted(f.name[:-5] for f in root.iterdir() if f.name.endswith(".json"))


def _parse_graph(doc) -> FormationGraph:
    if isinstance(doc, str):
        builtin = {"triangle_flex": triangle_flex, "tetrahedron_flex": tetrahedron_flex}
        if doc not in builtin:
            raise ScenarioError(f"unknown builtin graph {doc!r}")
        return builtin[doc]()
    try:
        return graph_from_json(doc)
    except (OverflowError, TypeError) as exc:   # not an object, a wrong type, a huge int
        raise ScenarioError(f"invalid graph: {exc}")


def _parse_events(docs, dimension):
    """Perturbation events; a random one without a ``seed`` takes its index."""
    events = []
    for k, doc in enumerate(docs or ()):
        if "displacement" in doc:
            events.append(PerturbationEvent(time=float(doc["time"]),
                                            agent=doc["agent"],
                                            displacement=np.asarray(doc["displacement"], dtype=float)))
        else:
            events.append(random_perturbation(time=float(doc["time"]),
                                              agent=doc["agent"],
                                              dimension=dimension,
                                              magnitude=float(doc["magnitude"]),
                                              seed=doc.get("seed", k)))
    return events


def _cmd_run(args) -> int:
    doc = _resolve_scenario(args.scenario)
    try:
        unknown = sorted(doc.keys() - SCENARIO_KEYS)
        if unknown:
            raise ScenarioError(f"unknown key(s) {', '.join(unknown)}")
        graph = _parse_graph(doc["graph"])
        family = get_family(doc.get("family", "quadratic"))
        p0 = as_positions(doc["initial"], graph)
        t_end = float(doc["t_end"])
        dt, record_every = float(doc.get("dt", 1e-3)), float(doc.get("record_every", 10))
        eq_tol = float(doc.get("eq_tol", EQ_TOL))
        if not (record_every.is_integer() and 0 <= eq_tol < math.inf):   # False for NaN
            raise ValueError(f"record_every must be an integer and eq_tol finite and "
                             f"non-negative, got {record_every!r} and {eq_tol!r}")
        events = _parse_events(doc.get("events"), graph.dimension)
        leader = leader_spec_from_json(doc.get("leader"), graph.dimension)
        analyze_equilibria = bool(doc.get("analysis", {}).get("hessian_at_equilibria"))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, GraphError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}")

    traj = integrate(p0, graph, family, t_end, dt=dt, leader=leader, events=events,
                     record_every=int(record_every), eq_tol=eq_tol)

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    traj.to_csv(out / f"{stem}_trajectory.csv")
    traj.events_to_json(out / f"{stem}_events.json")

    if analyze_equilibria:
        hits = [t for t, kind in traj.events if kind == "equilibrium_detected"]
        for k, t_hit in enumerate(hits):
            idx = int(np.argmin(np.abs(traj.times - t_hit)))
            state = traj.states[idx]
            try:
                state, polished = newton_polish(state, graph, family), True
            except OracleError as exc:
                polished = False
                print(f"equilibrium at t={t_hit:g}: Newton polish failed, analysing "
                      f"the recorded state: {exc}", file=sys.stderr)
            report = analyze(state, graph, family, eq_tol=eq_tol)
            _write_json(out / f"{stem}_equilibrium_{k:03d}.json",
                        {"time": float(t_hit), "polished": polished,
                         **report.to_json_dict()})

    if traj.max_lyapunov_increase > LYAPUNOV_SLACK:
        print(f"run FAILED: Lyapunov quantity increased by "
              f"{traj.max_lyapunov_increase:.3e} in one step", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"run ok: {len(traj.times)} samples, final gradient norm "
          f"{traj.grad_norms[-1]:.3e}, events {[k for _, k in traj.events]}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    graph = _parse_graph(_load_json(args.graph))
    doc = _load_json(args.realization)
    p = as_positions(doc["positions"] if isinstance(doc, dict) else doc, graph)
    report = analyze(p, graph, get_family(args.family))
    payload = report.to_json_dict()
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(args.out) / (Path(args.realization).stem + "_report.json"),
                    payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return EXIT_OK


def _cmd_catalog(args) -> int:
    graph = _parse_graph(_load_json(args.graph))
    family = get_family(args.family)
    try:
        entries, failures = build_catalog(graph, family)
    except OracleError as exc:              # an uncertified graph
        raise ScenarioError(str(exc))

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    sign_table = []
    witness_ok = 0
    undesired = len(entries)                # build_catalog makes undesired entries only
    write_catalog(entries, out / "catalog.jsonl")
    for entry in entries:
        try:                                # on a certified graph: a witness, or raises
            report = analyze(entry.positions, graph, family)
        except (WitnessNotFoundError, np.linalg.LinAlgError) as exc:
            print(f"catalog entry {entry.subform or entry.kind}: {exc}", file=sys.stderr)
            continue
        witness_ok += 1
        if entry.kind == "degenerate_rigid":
            sign_table.append({"subform": entry.subform,
                               "claims": report.to_json_dict()["claims"]})
    summary = {
        "entries": len(entries),
        "undesired": undesired,
        "witnesses_found": witness_ok,
        "witness_success_rate": (witness_ok / undesired) if undesired else None,
        "construction_failures": failures,
    }
    _write_json(out / "sign_table.json", sign_table)
    _write_json(out / "summary.json", summary)
    print(json.dumps(summary, indent=2))
    if witness_ok != undesired:
        raise WitnessNotFoundError(f"{undesired - witness_ok} of {undesired} undesired "
                                   f"catalog entries lack an instability witness")
    return EXIT_OK


def _cmd_validate_potential(args) -> int:
    family = get_family(args.family)
    problems = validate_family(family, args.dbar)
    payload = {"family": family.name, "dbar": args.dbar, "violations": problems}
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(args.out) / f"validate_{family.name}.json", payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if not problems else EXIT_NUMERIC


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidflex",
        description="Formation-control simulation and stability analysis")
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("run", help="simulate a scenario file or bundled name")
    sp.add_argument("scenario")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("analyze", help="stability report for a realization")
    sp.add_argument("realization", help="JSON file with positions")
    sp.add_argument("graph", help="graph JSON file")
    sp.add_argument("--family", default="quadratic", choices=sorted(FAMILIES))
    sp.add_argument("--out", help="output directory (default: the report to stdout)")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("catalog", help="undesired-equilibrium catalog")
    sp.add_argument("graph", help="graph JSON file")
    sp.add_argument("--family", default="quadratic", choices=sorted(FAMILIES))
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("validate-potential", help="check family conditions")
    sp.add_argument("family", choices=sorted(FAMILIES))
    sp.add_argument("--dbar", type=float, default=4.0)
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_validate_potential)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (IntegrationError, OracleError, WitnessNotFoundError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, GraphError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
