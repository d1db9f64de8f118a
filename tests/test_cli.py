"""Command-line interface: verbs, artifacts, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

from rigidflex.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, SCENARIO_KEYS,
                           _resolve_scenario, bundled_scenario_names, main)
from rigidflex.graph import FormationGraph, graph_to_json, tetrahedron_flex, triangle_flex
from rigidflex.oracle import (construct_equilibrium, desired_equilibrium,
                              flex_coincident_equilibrium)
from rigidflex.potentials import QUADRATIC
from rigidflex.stability import analyze


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(graph_to_json(triangle_flex())))
    return path


def triangle_doc(desired):
    """The triangle graph's JSON with its first desired distance replaced."""
    doc = graph_to_json(triangle_flex())
    doc["edges"][0][2] = desired
    return doc


HUGE_INT = 10**400                  # a JSON integer that no float can hold


def huge_realization():
    """The desired triangle with one coordinate replaced by HUGE_INT."""
    p = desired_equilibrium(triangle_flex()).tolist()
    p[0][0] = HUGE_INT
    return p


def realizations_with_no_json_numbers():
    """(name, realization) of the desired triangle with coordinates given as
    JSON strings or booleans, as rows and flat, which numpy reads as numbers."""
    p = desired_equilibrium(triangle_flex()).tolist()
    strings = [[str(x) for x in row] for row in p]
    strings[0][0] = True
    string, boolean = [row[:] for row in p], [row[:] for row in p]
    string[1][0], boolean[2][1] = "0.0", True
    return [("strings_and_true", strings), ("string", string), ("boolean", boolean),
            ("flat_string", sum(string, [])), ("flat_boolean", sum(boolean, []))]


def small_scenario(tmp_path, **overrides):
    doc = {
        "graph": "triangle_flex",
        "family": "quadratic",
        "initial": desired_equilibrium(triangle_flex()).tolist(),
        "t_end": 0.05,
        "dt": 0.001,
        "record_every": 10,
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def saddle_scenario(tmp_path):
    """triangle_flex_2d for 0.5 s without its event: the flow detects the
    collinear saddle at t = 0.32 (eq_tol 1e-6) and analyses it."""
    doc = _resolve_scenario("triangle_flex_2d")
    del doc["events"]
    doc["t_end"] = 0.5
    path = tmp_path / "saddle_scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    assert {"triangle_flex_2d", "triangle_flex_leader",
            "tetra_flex_3d", "tetra_flex_leader"} <= set(names)


def test_run_writes_trajectory_and_events(tmp_path):
    scen = small_scenario(tmp_path)
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == EXIT_OK
    csv = tmp_path / "out" / "scenario_trajectory.csv"
    events = tmp_path / "out" / "scenario_events.json"
    assert csv.exists() and events.exists()
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape[0] >= 2


def test_run_constant_trajectory_from_desired_start(tmp_path):
    scen = small_scenario(tmp_path)
    main(["run", str(scen), "--out", str(tmp_path / "out")])
    data = np.loadtxt(tmp_path / "out" / "scenario_trajectory.csv",
                      delimiter=",", skiprows=1)
    states = data[:, 1:9]
    assert np.abs(states - states[0]).max() < 1e-12


def test_run_outputs_are_deterministic(tmp_path):
    scen = small_scenario(tmp_path, events=[
        {"time": 0.02, "agent": 4, "magnitude": 0.01}])
    main(["run", str(scen), "--out", str(tmp_path / "a")])
    main(["run", str(scen), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "scenario_trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "scenario_trajectory.csv").read_bytes()
    assert a == b


def test_run_bad_scenario_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG
    path.write_text(json.dumps({"graph": "triangle_flex"}))  # missing fields
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert main(["run", "no_such_scenario"]) == EXIT_CONFIG


@pytest.mark.parametrize("verb, field, doc", [
    ("analyze", "graph", 5),
    ("analyze", "graph", {"edges": 3}),
    ("analyze", "realization", {"positions": {"a": 1}}),
    ("run", "scenario", []),
    ("run", "events", 5),
    ("run", "leader", 5),
    ("run", "analysis", 5),
    ("run", "dt", -1),
    ("run", "record_every", 0),
    ("run", "adaptive", True),
    ("run", "rtol", 1e-8),
    ("run", "t_ned", 1.0),
    *(pytest.param(verb, "graph", triangle_doc(value), id=f"{verb}-graph-{value}")
      for verb in ("analyze", "run")
      for value in (float("nan"), float("inf"), 1e77, 1e100, 1e154, 1e160, 1e-78, 1e-90)),
    *(pytest.param("run", "t_end", value, id=f"run-t_end-{value}")
      for value in (float("nan"), float("inf"))),
    *(pytest.param("run", "eq_tol", doc, id=f"run-eq_tol-{name}")
      for name, doc in (("null", None), ("list", [1]), ("object", {"a": 1}),
                        ("nan", float("nan")), ("negative", -1.0), ("inf", float("inf")))),
    pytest.param("run", "dt", float("inf"), id="run-dt-inf"),
    pytest.param("run", "record_every", 2.5, id="run-record_every-2.5"),
    *(pytest.param("run", "events", [{"time": 0.02, **event}], id=f"run-events-{name}")
      for name, event in (
        ("fractional_agent", {"agent": 1.7, "displacement": [0.1, 0.0]}),
        ("fractional_random_agent", {"agent": 1.7, "magnitude": 0.01}),
        ("nan_displacement", {"agent": 4, "displacement": [float("nan"), 0.0]}),
        ("nan_magnitude", {"agent": 4, "magnitude": float("nan")}),
        ("fractional_seed", {"agent": 4, "magnitude": 0.01, "seed": 7.9}),
        ("string_displacement", {"agent": 4, "displacement": ["0.1", "0"]}),
        ("boolean_agent", {"agent": True, "displacement": [0.1, 0.0]}),
        ("string_time", {"time": "0.02", "agent": 4, "displacement": [0.1, 0.0]}),
        ("string_magnitude", {"agent": 4, "magnitude": "0.01"}),
        ("boolean_seed", {"agent": 4, "magnitude": 0.01, "seed": True}))),
    *(pytest.param("run", field, doc, id=f"run-{field}-{name}") for field, name, doc in (
        ("t_end", "string", "0.5"), ("dt", "boolean", True), ("eq_tol", "string", "1e-9"),
        ("record_every", "string", "10"), ("record_every", "boolean", True))),
    *(pytest.param("run", "leader", doc, id=f"run-leader-{name}") for name, doc in (
        ("empty_v", {"mode": "windowed", "t0": 0.0, "tf": 0.01, "v": []}),
        ("flat_v", {"mode": "windowed", "t0": 0.0, "tf": 0.01, "v": [1, 2, 3]}),
        ("nan_v", {"mode": "windowed", "t0": 0.0, "tf": 0.01, "v": [[0.0, float("nan"), 0.0]]}),
        ("nan_t0", {"mode": "windowed", "t0": float("nan"), "tf": 0.01, "v": [[0.0, 1.0, 0.0]]}),
        ("unsorted_v", {"mode": "windowed", "t0": 0.0, "tf": 0.01,
                        "v": [[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 5.0, 5.0]]}),
        ("nan_k_f", {"mode": "target", "k_f": float("nan"), "p_t": [0.0, 0.0]}),
        ("scalar_p_t", {"mode": "target", "k_f": 1.0, "p_t": 1}),
        ("3d_p_t", {"mode": "target", "k_f": 1.0, "p_t": [0.0, 0.0, 0.0]}),
        ("zero", 0), ("false", False), ("empty_list", []),
        ("empty_row", {"mode": "windowed", "t0": 0.0, "tf": 0.01, "v": [[]]}),
        ("narrow_v", {"mode": "windowed", "t0": 0.0, "tf": 0.01, "v": [[0.0, 1.0]]}),
        ("string_k_f", {"mode": "target", "k_f": "5", "p_t": [0.0, 0.0]}),
        ("boolean_p_t", {"mode": "target", "k_f": 5.0, "p_t": [True, 2.0]}),
        ("string_t0", {"mode": "windowed", "t0": "0", "tf": 0.01, "v": [[0.0, 1.0, 0.0]]}),
        ("boolean_v", {"mode": "windowed", "t0": 0.0, "tf": 0.01, "v": [[0.0, True, 0.0]]}))),
    pytest.param("run", "graph", "square_flex", id="run-graph-unknown_builtin"),
    pytest.param("run", "initial", [[0.0, 0.0]], id="run-initial-wrong_shape"),
    pytest.param("analyze", "realization", {"positions": [[0.0, 0.0]]},
                 id="analyze-realization-wrong_shape"),
    *(pytest.param("run", field, doc, id=f"run-{field}-400_digits") for field, doc in (
        ("t_end", HUGE_INT), ("dt", HUGE_INT), ("initial", huge_realization()))),
    pytest.param("analyze", "realization", {"positions": huge_realization()},
                 id="analyze-realization-400_digits"),
    *(pytest.param("run", "initial", doc, id=f"run-initial-{name}")
      for name, doc in realizations_with_no_json_numbers()),
    *(pytest.param("analyze", "realization", {"positions": doc}, id=f"analyze-realization-{name}")
      for name, doc in realizations_with_no_json_numbers()),
    *(pytest.param("run", "analysis", doc, id=f"run-analysis-{name}") for name, doc in (
        ("string_false", {"hessian_at_equilibria": "false"}),
        ("string_no", {"hessian_at_equilibria": "no"}),
        ("integer", {"hessian_at_equilibria": 1}),
        ("null", {"hessian_at_equilibria": None}),
        ("misspelt_key", {"hessian_at_equilibrium": True}),
        ("extra_key", {"hessian_at_equilibria": True, "witness": True}),
        ("empty", {}), ("list", [True]))),
])
def test_malformed_input_is_config_error(tmp_path, graph_file, capsys, verb, field, doc):
    """Malformed input exits 2 with a one-line message, never a traceback.
    An unknown scenario key (a removed or misspelt one) is named, not run
    with its default.  A graph with a NaN or infinite desired distance, or one
    whose fourth power is not a normal float or whose (100 dbar^2)^2 overflows,
    is malformed; so are an unknown builtin graph name, a realization that
    is not an array of numbers of the graph's shape, a NaN or infinite
    t_end or dt, an eq_tol that is not a finite non-negative number, a
    record_every that is not an integer, an event whose agent is not an
    integer or whose displacement or magnitude is not finite, a random
    event whose seed is not a non-negative integer, a leader document
    that is not an object or whose samples, gain or target do not fit the
    graph, or whose sample times do not increase strictly, and a JSON
    integer beyond the float range in t_end, dt or a realization, and an
    analysis document other than {"hessian_at_equilibria": true or false}
    (a string such as "false" is no boolean, a misspelt key is named), and
    a number given as a JSON string or boolean (a t_end of "0.5", a dt of
    true, an event displacement of ["0.1", "0"], a leader k_f of "5" or
    p_t of [true, 2], a realization coordinate of "0.0" or true), which
    float() or numpy would read as a number.
    Each exits before the first step, with no output written."""
    bad = tmp_path / "bad.json"
    if verb == "analyze":
        real = tmp_path / "real.json"
        real.write_text(json.dumps({"positions": desired_equilibrium(triangle_flex()).tolist()}))
        bad.write_text(json.dumps(doc))
        files = [bad, graph_file] if field == "realization" else [real, bad]
    elif field == "scenario":
        bad.write_text(json.dumps(doc))
        files = [bad]
    else:
        files = [small_scenario(tmp_path, **{field: doc})]
    assert main([verb, *map(str, files), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")
    if isinstance(doc, dict) and "flex_edge" in doc:
        assert "desired distances must be finite" in err[0]
    if field == "eq_tol":       # a non-number fails to parse; integrate refuses a bad number
        assert ("eq_tol" if isinstance(doc, float) else "invalid scenario") in err[0]
    if verb == "run" and field not in SCENARIO_KEYS | {"scenario"}:
        assert f"unknown key(s) {field}" in err[0]
    if verb == "run":
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("leader, stray", [
    ({"k_f": 5.0, "p_t": [10.0, 10.0]}, "k_f, p_t"),
    ({"mode": "target", "k_f": 5.0, "p_t": [10.0, 10.0], "tf": 1.0}, "tf"),
    ({"mode": "none", "t0": 0.0}, "t0"),
    ({"mode": "windowed", "t0": 0.0, "tf": 1.0, "v": [[0.0, 1.0, 0.0]], "p_t": [1.0, 1.0]},
     "p_t"),
], ids=["target_without_mode", "target_with_tf", "none_with_t0", "windowed_with_p_t"])
def test_leader_document_takes_only_its_own_keys(tmp_path, capsys, leader, stray):
    """triangle_flex_leader whose leader document holds a key that its mode
    does not take (a target document without its mode is a 'none' one)
    exits 2 before the first step, naming the key, not run without it."""
    doc = _resolve_scenario("triangle_flex_leader")
    doc["leader"] = leader
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"unknown key(s) {stray} in a leader document" in err[0]
    assert not (tmp_path / "out").exists()


def test_event_time_of_true_is_no_number(tmp_path, capsys):
    """triangle_flex_2d whose event time is JSON true exits 2 before the
    first step: true is no 1.0, which would lie inside its 20 s run."""
    doc = _resolve_scenario("triangle_flex_2d")
    doc["events"][0]["time"] = True
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "must be numbers" in err[0]
    assert not (tmp_path / "out").exists()


def test_run_whose_step_diverges_exits_numeric_without_warnings(tmp_path, capsys):
    """triangle_flex_2d in one step of 1 s overflows; the Lyapunov guard
    turns the non-finite state into exit 3, with no RuntimeWarning on the
    way, even with warnings as errors."""
    doc = _resolve_scenario("triangle_flex_2d")
    doc.update(dt=5.0, t_end=1.0, events=[])
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "Lyapunov value inf at t=1 is not finite" in capsys.readouterr().err


def test_run_over_the_lyapunov_slack_exits_numeric_after_writing(tmp_path, monkeypatch,
                                                                  capsys):
    """A run whose worst per-step rise of V exceeds LYAPUNOV_SLACK exits 3
    with one 'run FAILED' line, after writing its trajectory and events."""
    import rigidflex.cli as cli

    monkeypatch.setattr(cli, "LYAPUNOV_SLACK", -1.0)
    assert main(["run", str(small_scenario(tmp_path)), "--out", str(tmp_path / "out")]) \
        == EXIT_NUMERIC
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("run FAILED: Lyapunov quantity increased")
    assert (tmp_path / "out" / "scenario_trajectory.csv").exists()
    assert (tmp_path / "out" / "scenario_events.json").exists()


def test_run_rational_start_on_coincidence_boundary_exits_numeric(tmp_path, capsys):
    p0 = desired_equilibrium(triangle_flex())
    p0[-1] = p0[-2]
    scen = small_scenario(tmp_path, family="rational", initial=p0.tolist())
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "scenario_trajectory.csv").exists()


def test_analyze_saddle_reports_witness(tmp_path, graph_file):
    entry = construct_equilibrium(triangle_flex(), QUADRATIC, "collinear_distinct")
    real = tmp_path / "saddle.json"
    real.write_text(json.dumps({"positions": entry.positions.tolist()}))
    assert main(["analyze", str(real), str(graph_file),
                 "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "saddle_report.json").read_text())
    assert report["class"] == "degenerate_rigid"
    assert report["subform"] == "collinear_distinct"
    assert report["witness"]["quadratic_form"] < 0
    assert all(c["passed"] for c in report["claims"])


def test_analyze_non_equilibrium(tmp_path, graph_file, capsys):
    real = tmp_path / "free.json"
    real.write_text(json.dumps({"positions":
                                [[9.0, 0.0], [0.0, 0.0], [0.0, 9.0], [5.0, 5.0]]}))
    assert main(["analyze", str(real), str(graph_file)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "not_equilibrium"
    assert report["diagnostics"]["residual"] > 1.0


def test_catalog_full_witness_rate(tmp_path, graph_file, capsys):
    assert main(["catalog", str(graph_file), "--family", "quadratic",
                 "--out", str(tmp_path / "cat")]) == EXIT_OK
    summary = json.loads((tmp_path / "cat" / "summary.json").read_text())
    assert summary["witness_success_rate"] == 1.0
    lines = (tmp_path / "cat" / "catalog.jsonl").read_text().splitlines()
    assert len(lines) == summary["entries"]
    table = json.loads((tmp_path / "cat" / "sign_table.json").read_text())
    assert all(c["passed"] for row in table for c in row["claims"])


def test_catalog_computes_each_sign_table_row_once(tmp_path, graph_file, monkeypatch):
    """The sign table takes the claims of analyze's report: one claim
    evaluation per degenerate entry, and the same rows as a fresh call."""
    import rigidflex.stability as stability

    calls = []
    generated = stability._generated

    def counted(source, *key):
        function = generated(source, *key)
        if function.__name__ != "claims":
            return function

        def claims(g):
            calls.append(g)
            return function(g)

        return claims

    monkeypatch.setattr(stability, "_generated", counted)
    assert main(["catalog", str(graph_file), "--out", str(tmp_path / "cat")]) == EXIT_OK
    entries = [json.loads(x) for x in
               (tmp_path / "cat" / "catalog.jsonl").read_text().splitlines()]
    degenerate = [e for e in entries if e["kind"] == "degenerate_rigid"]
    assert len(calls) == len(degenerate) == 3
    table = json.loads((tmp_path / "cat" / "sign_table.json").read_text())
    g = triangle_flex()
    assert table == [
        {"subform": e["subform"],
         "claims": [{"claim": c.description, "value": c.value, "passed": c.passed}
                    for c in analyze(np.array(e["positions"]), g, QUADRATIC).claims]}
        for e in degenerate]


# graph document -> the words of the error it must give
BAD_GRAPHS = {
    "uncertified_graph": (graph_to_json(FormationGraph(
        num_nodes=3, dimension=2, edges=((1, 2), (2, 3)), desired=(4.0, 4.0), flex_edge=(2, 3))),
        "only the certified triangle and tetrahedron"),
    "dimension_4_graph": ({**graph_to_json(triangle_flex()), "dimension": 4},
                          "dimension must be 2 or 3"),
    "two_node_graph": ({"dimension": 2, "nodes": 2, "edges": [[1, 2, 4.0]], "flex_edge": [1, 2]},
                       "need at least 2 rigid nodes"),
    "out_of_range_edge_graph": ({**graph_to_json(triangle_flex()), "edges": [
        [1, 2, 4.0], [1, 3, 4.0], [1, 5, 4.0], [2, 3, 4.0], [3, 4, 4.0]]}, "edge (1,5) out of range"),
    "infinite_nodes_graph": ({**graph_to_json(triangle_flex()), "nodes": float("inf")},
                             "invalid graph"),
    "desired_400_digits_graph": (triangle_doc(HUGE_INT), "invalid graph"),
    "fractional_label_graph": ({**graph_to_json(triangle_flex()), "edges": [
        [1, 2, 4.0], [1.7, 3, 4.0], [2, 3, 4.0], [3, 4, 4.0]]}, "node labels are integers"),
    "fractional_nodes_graph": ({**graph_to_json(triangle_flex()), "nodes": 4.9},
                               "node counts are integers"),
    "fractional_dimension_graph": ({**graph_to_json(triangle_flex()), "dimension": 2.2},
                                   "dimensions are integers"),
    "boolean_flex_edge_graph": ({**graph_to_json(triangle_flex()), "flex_edge": [3, True]},
                                "node labels must be numbers"),
    "string_desired_graph": (triangle_doc("4.0"), "desired distances must be numbers"),
    "boolean_desired_graph": (triangle_doc(True), "desired distances must be numbers"),
}
BAD_DESIRED = {"nan_desired": float("nan"), "infinite_desired": float("inf"),
               "huge_desired": 1e160, "huge_fourth_power_1e100": 1e100,
               "huge_fourth_power_1e154": 1e154, "huge_phi_1e77": 1e77,
               "subnormal_fourth_power_1e-78": 1e-78, "zero_fourth_power_1e-90": 1e-90}


@pytest.mark.parametrize("case", [*BAD_GRAPHS, *BAD_DESIRED])
def test_catalog_malformed_input_is_config_error(tmp_path, capsys, case):
    """A graph outside the certified topologies, one that is no formation
    graph (dimension 4, two nodes, an edge past the last node), one whose
    node count is infinite or whose desired distance is an integer beyond
    the float range, one whose dimension, node count or label is no integer
    (2.2, 4.9, 1.7 or true, which int() would truncate or read as 1) or
    whose length is a string or a boolean, or a NaN or infinite desired distance, or one whose
    fourth power is not a normal float or whose (100 dbar^2)^2 overflows,
    exits 2 before any output is written."""
    path = tmp_path / "bad.json"
    doc, words = BAD_GRAPHS.get(case) or (triangle_doc(BAD_DESIRED[case]), "desired distances")
    path.write_text(json.dumps(doc))
    assert main(["catalog", str(path), "--out", str(tmp_path / "cat")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert words in err[0]
    assert not (tmp_path / "cat").exists()


UNREALIZABLE = {
    "triangle_1.1_2.3_1.1": ({"dimension": 2, "nodes": 4, "edges": [
        [1, 2, 1.1], [1, 3, 2.3], [2, 3, 1.1], [3, 4, 2.0]], "flex_edge": [3, 4]}, "triangle"),
    "tetrahedron_d34_3": (graph_to_json(tetrahedron_flex((1.0,) * 5 + (3.0, 2.0))),
                          "tetrahedron"),
}


@pytest.mark.parametrize("family", ["quadratic", "rational"])
@pytest.mark.parametrize("case", UNREALIZABLE)
def test_catalog_of_unrealizable_lengths_is_config_error(tmp_path, capsys, case, family):
    """Rigid lengths that form no triangle or tetrahedron (1.1 + 1.1 <
    2.3; d13 + d14 < d34) give no desired shape, and without one the
    collinear point is a minimum, so no witness need exist: the catalog
    exits 2 with one configuration error line before any output is
    written, with both families."""
    path = tmp_path / "unrealizable.json"
    doc, topology = UNREALIZABLE[case]
    path.write_text(json.dumps(doc))
    assert main(["catalog", str(path), "--family", family,
                 "--out", str(tmp_path / "cat")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration error: {topology} distances are not realizable"]
    assert not (tmp_path / "cat").exists()


def test_validate_potential_ok(capsys):
    assert main(["validate-potential", "quadratic"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []


def test_validate_potential_writes_its_report(tmp_path, capsys):
    """With --out, the report printed is also written to
    validate_<family>.json in that directory, which is made if missing."""
    out = tmp_path / "reports"
    assert main(["validate-potential", "rational", "--out", str(out)]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"family": "rational", "dbar": 4.0, "violations": []}
    assert json.loads((out / "validate_rational.json").read_text()) == printed


@pytest.mark.parametrize("dbar", ["3e5", "1e7", "1e40"])
def test_validate_potential_passes_at_large_dbar(capsys, dbar):
    """The sample grid scales with dbar^2, so the rational family is not
    reported as violating its conditions where e + dbar^2 would round to
    dbar^2 on a grid of fixed innermost samples."""
    assert main(["validate-potential", "rational", "--dbar", dbar]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["violations"] == [] and captured.err == ""


@pytest.mark.parametrize("dbar", ["-1", "nan", "inf", "0", "1e-300", "1e-4", "1e200",
                                  "1e80"])
def test_validate_potential_rejects_bad_dbar(tmp_path, capsys, dbar):
    """A desired length that is not finite and positive, whose sample grid
    would leave the domain or overflow, or at which the family's values
    overflow on that grid (1e80: dbar^4), exits 2 with one message line and
    no payload."""
    out = tmp_path / "out"
    assert main(["validate-potential", "rational", "--dbar", dbar, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: dbar must be")
    assert captured.out == "" and not out.exists()


def test_unknown_verb_is_config_error(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["run", "SCENARIO", "--format", "json"],
    ["run", "SCENARIO", "--seed", "1"],
    ["run", "SCENARIO", "--tol-eq", "0"],
    ["run", "SCENARIO", "--tol-eig", "1e-6"],
    ["analyze", "REALIZATION", "GRAPH", "--tol-eq", "0"],
    ["analyze", "REALIZATION", "GRAPH", "--tol-eig", "1e-6"],
    ["catalog", "GRAPH", "--subforms", "all_coincident"],
    ["analyze", "REALIZATION", "GRAPH", "--seed", "1"],
    ["catalog", "GRAPH", "--tol-eq", "0"],
    ["catalog", "GRAPH", "--seed", "1"],
    ["catalog", "GRAPH", "--tol-eig", "1e-6"],
    ["validate-potential", "quadratic", "--seed", "1"],
    ["validate-potential", "quadratic", "--tol-eig", "1e-6"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_verb_rejects_options_it_does_not_read(tmp_path, graph_file, capsys, argv):
    """Each verb takes only the options it reads; any other exits 2 before
    the verb runs.  A run reads its tolerance and event seeds from its
    scenario, analyze derives its PSD tolerance from H, and a catalog holds
    every subform."""
    real = tmp_path / "real.json"
    real.write_text(json.dumps({"positions": desired_equilibrium(triangle_flex()).tolist()}))
    files = {"SCENARIO": small_scenario(tmp_path), "REALIZATION": real, "GRAPH": graph_file}
    argv = [str(files.get(a, a)) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_event_after_horizon(tmp_path):
    scen = small_scenario(tmp_path, events=[
        {"time": 9.9, "agent": 4, "magnitude": 0.01}])
    assert main(["run", str(scen)]) == EXIT_CONFIG


@pytest.mark.parametrize("event", [
    {"time": 0.04, "agent": 9, "displacement": [0.1, 0.0]},
    {"time": 0.04, "agent": 1, "displacement": [0.1, 0.0, 0.0]},
], ids=["unknown_agent", "wrong_dimension"])
def test_run_rejects_bad_event_before_the_first_step(tmp_path, monkeypatch, capsys, event):
    """An event whose agent or displacement does not fit the graph exits 2
    before any edge pass: no run of the analysis entry points' cached pass,
    no call of ``advance``, ``evaluate`` or a bound phi or g, not when the
    run reaches it."""
    import rigidflex.integrator as integrator
    from test_integrator import counting_pass, counting_step

    calls = {"pass": 0, "advance": 0, "evaluate": 0, "phi": 0, "g": 0}
    counting_pass(monkeypatch, calls)
    monkeypatch.setattr(integrator, "_bound", counting_step(calls, monkeypatch))
    scen = small_scenario(tmp_path, events=[event])
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert calls == {"pass": 0, "advance": 0, "evaluate": 0, "phi": 0, "g": 0}
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")


def test_run_reports_failed_newton_polish(tmp_path, monkeypatch, capsys):
    import rigidflex.cli as cli
    from rigidflex.oracle import OracleError

    scen = small_scenario(tmp_path, analysis={"hessian_at_equilibria": True})
    assert main(["run", str(scen), "--out", str(tmp_path / "ok")]) == EXIT_OK
    report = json.loads((tmp_path / "ok" / "scenario_equilibrium_000.json").read_text())
    assert report["polished"] is True

    def failing_polish(*args, **kwargs):
        raise OracleError("no convergence in 50 iterations")

    monkeypatch.setattr(cli, "newton_polish", failing_polish)
    capsys.readouterr()
    assert main(["run", str(scen), "--out", str(tmp_path / "bad")]) == EXIT_OK
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "Newton polish failed" in err[0] and "50 iterations" in err[0]
    report = json.loads((tmp_path / "bad" / "scenario_equilibrium_000.json").read_text())
    assert report["polished"] is False
    assert report["class"] == "desired"


def test_run_classifies_an_unpolished_state_at_the_run_tolerance(tmp_path, monkeypatch):
    """Where Newton polish fails, the recorded state is classified at the
    tolerance that detected it (the scenario's eq_tol), not at EQ_TOL."""
    import rigidflex.oracle as oracle

    monkeypatch.setattr(oracle, "POLISH_MAX_ITER", 0)
    assert main(["run", str(saddle_scenario(tmp_path)), "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "saddle_scenario_equilibrium_000.json").read_text())
    assert report["polished"] is False
    assert (report["class"], report["subform"]) == ("degenerate_rigid", "collinear_distinct")
    assert report["witness"]["quadratic_form"] < 0
    assert all(c["passed"] for c in report["claims"])


@pytest.mark.parametrize("verb", ["run", "analyze", "catalog"])
def test_missing_witness_exits_numeric_in_every_verb(tmp_path, graph_file, monkeypatch,
                                                     capsys, verb):
    """With the witness search made to fail, each verb exits 3 with one
    'numeric failure:' line and no traceback; catalog also names each entry
    it could not certify."""
    import rigidflex.stability as stability

    monkeypatch.setattr(stability, "WITNESS_MARGIN", 1e12)
    if verb == "run":
        argv = ["run", str(saddle_scenario(tmp_path))]
    elif verb == "analyze":
        entry = construct_equilibrium(triangle_flex(), QUADRATIC, "collinear_distinct")
        real = tmp_path / "saddle.json"
        real.write_text(json.dumps({"positions": entry.positions.tolist()}))
        argv = ["analyze", str(real), str(graph_file)]
    else:
        argv = ["catalog", str(graph_file)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    err = capsys.readouterr().err.strip().splitlines()
    failures = [line for line in err if line.startswith("numeric failure: ")]
    assert len(failures) == 1
    if verb == "catalog":
        assert len(err) == 1 + json.loads((tmp_path / "out" / "summary.json").read_text())["entries"]
        assert json.loads((tmp_path / "out" / "sign_table.json").read_text()) == []
    else:
        assert err == failures


def test_analyze_rational_coincidence_point_is_config_error(tmp_path, graph_file, capsys):
    """V is infinite there: a one-line domain error with exit 2, not a
    missing-witness failure."""
    real = tmp_path / "coincident.json"
    p = flex_coincident_equilibrium(triangle_flex())
    real.write_text(json.dumps({"positions": p.tolist()}))
    assert main(["analyze", str(real), str(graph_file), "--family", "rational"]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "coincidence boundary" in err[0]


def test_analyze_overflow_is_not_blamed_on_coincidence(tmp_path, graph_file, capsys):
    """At the desired triangle scaled by 1e200 no agents coincide, but V of
    the quadratic family overflows: the one-line error says so, with exit 2,
    and does not name the coincidence boundary."""
    real = tmp_path / "huge.json"
    real.write_text(json.dumps((desired_equilibrium(triangle_flex()) * 1e200).tolist()))
    assert main(["analyze", str(real), str(graph_file)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "overflows" in err[0] and "coincidence" not in err[0]


def test_analyze_report_of_a_nan_realization_is_strict_json(tmp_path, graph_file, capsys):
    """A realization holding a NaN is no equilibrium; its report writes the
    NaN residual as the string "nan", as it writes min_eigenvalue "-inf",
    so stdout is strict JSON."""
    p = desired_equilibrium(triangle_flex())
    p[1, 0] = np.nan
    real = tmp_path / "nan.json"
    real.write_text(json.dumps({"positions": p.tolist()}))
    assert main(["analyze", str(real), str(graph_file)]) == EXIT_OK

    def forbidden(name):
        raise AssertionError(f"{name} in the report")

    report = json.loads(capsys.readouterr().out, parse_constant=forbidden)
    assert report["class"] == "not_equilibrium"
    assert report["diagnostics"]["residual"] == "nan"
    assert report["min_eigenvalue"] == "-inf"
    json.dumps(analyze(p, triangle_flex(), QUADRATIC).to_json_dict(), allow_nan=False)
