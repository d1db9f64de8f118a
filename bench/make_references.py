"""Regenerate ``references.json`` from the rigidflex sources in this checkout.

Run it only on a commit whose outputs are known to be right (the references
shipped with the benchmark come from the commit that introduced it):

    python3 bench/make_references.py

It records, per bundled scenario, the exit code, the event sequence, the
class and subform of each reported equilibrium and the number of trajectory
records, with pass thresholds on the final state; and per certify
(graph, family) pair, the catalog's entries with their edge lengths and the
subforms that cannot be constructed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rigidflex import cli, oracle, potentials  # noqa: E402
from workloads import GRAPHS, REFERENCES, edge_lengths  # noqa: E402

MAX_FINAL_EDGE_ERROR = 1e-6     # the acceptance criteria's convergence bound


def scenario_reference(name, out) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", name, "--out", str(out)])
    events = json.loads((out / f"{name}_events.json").read_text())
    reports = [json.loads(p.read_text()) for p in sorted(out.glob(f"{name}_equilibrium_*.json"))]
    data = np.loadtxt(out / f"{name}_trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    gradnorm = float(data[-1, -1])
    return {
        "exit_code": code,
        "events": [[ev["kind"], ev["time"]] for ev in events],
        "equilibria": [[r["class"], r["subform"]] for r in reports],
        "records": len(data),
        "final_gradnorm": gradnorm,
        "max_final_edge_error": MAX_FINAL_EDGE_ERROR,
        "max_final_gradnorm": float(f"{max(1e-9, 10 * gradnorm):.1e}"),
    }


def certify_reference(gname, fname) -> dict:
    graph, family = GRAPHS[gname](), potentials.get_family(fname)
    entries, failures = oracle.build_catalog(graph, family)
    return {
        "entries": [{"kind": e.kind, "subform": e.subform,
                     "edge_lengths": edge_lengths(e.positions, graph).tolist()}
                    for e in entries],
        "failures": sorted(failures),
    }


def main():
    out = ROOT / ".bench_out" / "references"
    refs = {"scenarios": {}, "certify": {}}
    try:
        for name in cli.bundled_scenario_names():
            refs["scenarios"][name] = scenario_reference(name, out / name)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for gname in GRAPHS:
        for fname in ("quadratic", "rational"):
            refs["certify"][f"{gname}/{fname}"] = certify_reference(gname, fname)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
