"""Equilibrium constructions: residuals, classifications, family dependence."""

import ast
import dataclasses
import inspect
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from rigidflex import potentials
from rigidflex.control import edge_states
from rigidflex.graph import FormationGraph, tetrahedron_flex, triangle_flex
from rigidflex.oracle import (
    _LAYOUTS,
    _finalize,
    _multi_root,
    _solve,
    OracleError,
    build_catalog,
    construct_equilibrium,
    desired_equilibrium,
    flex_coincident_equilibrium,
    newton_polish,
    write_catalog,
)
from rigidflex.potentials import QUADRATIC, RATIONAL
from rigidflex.stability import EQ_TOL, LINE_SLOTS, classify
from references import TAILORED, balance_residuals, capture_from_flow, tetrahedron_with
from test_integrator import counting_pass


def one_gap_subforms(d):
    """Line subforms with at most one gap: exact for every admissible family
    whenever the crossing edges share one desired length."""
    return tuple(name for name, slots in LINE_SLOTS[d].items() if max(slots) <= 1)


def test_desired_equilibrium_hits_all_distances():
    for g in (triangle_flex(), tetrahedron_flex()):
        p = desired_equilibrium(g)
        for (i, j), dbar in zip(g.edges, g.desired):
            assert np.linalg.norm(p[i - 1] - p[j - 1]) == pytest.approx(dbar)
        assert balance_residuals(p, g, QUADRATIC).max() < 1e-12


def test_collinear_equilibrium_known_gap():
    """Quadratic family, equal distances: the symmetric gap solves
    g(s^2 - 16) + 2 g(4 s^2 - 16) = 0, i.e. s^2 = 16/3."""
    g = triangle_flex()
    entry = construct_equilibrium(g, QUADRATIC, "collinear_distinct")
    rigid = entry.positions[:3]
    gaps = np.linalg.norm(np.diff(rigid, axis=0), axis=1)
    np.testing.assert_allclose(gaps**2, 16.0 / 3.0, rtol=1e-9)
    assert entry.residual < 1e-12


def test_square_equilibrium_known_side():
    g = tetrahedron_flex()
    entry = construct_equilibrium(g, QUADRATIC, "convex_quadrilateral")
    side = np.linalg.norm(entry.positions[0] - entry.positions[1])
    assert side**2 == pytest.approx(32.0 / 3.0, rel=1e-9)
    assert entry.residual < 1e-12


def test_interior_point_equilibrium_known_side():
    g = tetrahedron_flex()
    entry = construct_equilibrium(g, QUADRATIC, "interior_point")
    side = np.linalg.norm(entry.positions[0] - entry.positions[1])
    assert side**2 == pytest.approx(19.2, rel=1e-9)
    assert entry.residual < 1e-12


def test_catalog_2d_covers_all_subforms_quadratic():
    entries, failures = build_catalog(triangle_flex(), QUADRATIC)
    assert failures == {}
    subforms = {e.subform for e in entries if e.kind == "degenerate_rigid"}
    assert subforms == {"collinear_distinct", "coincident_pair", "all_coincident"}
    assert any(e.kind == "flex_coincident" for e in entries)
    assert all(e.residual < 1e-9 for e in entries)


def test_catalog_3d_quadratic_reports_unconstructible_subforms():
    entries, failures = build_catalog(tetrahedron_flex(), QUADRATIC)
    subforms = {e.subform for e in entries if e.kind == "degenerate_rigid"}
    assert {"convex_quadrilateral", "interior_point", "all_coincident",
            "triple_coincident", "double_pair",
            "pair_interior_collinear"} <= subforms
    # at equal distances these two have no quadratic-family root (verified by
    # exhaustive sign analysis along the balance curves)
    assert set(failures) == {"pair_endpoint_collinear", "collinear_distinct"}


def test_catalog_3d_rational_adds_the_distinct_collinear_form():
    entries, failures = build_catalog(tetrahedron_flex(), RATIONAL)
    subforms = {e.subform for e in entries}
    assert {"convex_quadrilateral", "interior_point", "collinear_distinct"} <= subforms
    # coincidence constructions lie outside the rational family's domain
    assert "all_coincident" in failures
    assert "boundary" in failures["all_coincident"]


def test_pair_endpoint_constructible_with_tailored_distances():
    """Unequal distance set designed so the quadratic balance has a root at
    gaps (2, 3): d13 = d23 = sqrt(26.5), d14 = d24 = 4, d34 = sqrt(39)."""
    entry = construct_equilibrium(TAILORED, QUADRATIC, "pair_endpoint_collinear")
    assert entry.subform == "pair_endpoint_collinear"
    assert entry.residual < 1e-12
    x = entry.positions[:4, 0]
    np.testing.assert_allclose(sorted(x), [0.0, 0.0, 2.0, 5.0], atol=1e-9)


def test_family_independence_of_coincidence_constructions():
    """Coincidence-built equilibria balance for every admissible family."""
    for g in (triangle_flex(), tetrahedron_flex()):
        entries, _ = build_catalog(g, QUADRATIC)
        independent = one_gap_subforms(g.dimension)
        for entry in entries:
            if entry.subform not in independent:
                continue
            for fam in (QUADRATIC, RATIONAL):
                assert balance_residuals(entry.positions, g, fam).max() < 1e-12, (
                    entry.subform, fam.name)


def test_rootfound_equilibria_are_family_dependent():
    g = triangle_flex()
    entry = construct_equilibrium(g, QUADRATIC, "collinear_distinct")
    # the same geometry does not balance under the other family
    assert balance_residuals(entry.positions, g, RATIONAL).max() > 1e-3


def test_newton_polish_restores_perturbed_equilibrium():
    g = triangle_flex()
    entry = construct_equilibrium(g, QUADRATIC, "collinear_distinct")
    rng = np.random.default_rng(0)
    p = entry.positions.reshape(-1) + 1e-4 * rng.standard_normal(8)
    polished = newton_polish(p, g, QUADRATIC)
    assert balance_residuals(polished, g, QUADRATIC).max() < 1e-12


def test_newton_polish_reports_stall(monkeypatch):
    import rigidflex.oracle as oracle

    g = triangle_flex()
    p = desired_equilibrium(g).reshape(-1) + 2.0  # translated: still desired
    polished = newton_polish(p, g, QUADRATIC)
    assert balance_residuals(polished, g, QUADRATIC).max() < 1e-12
    monkeypatch.setattr(oracle, "POLISH_MAX_ITER", 1)
    with pytest.raises(OracleError, match="stalled"):
        newton_polish(np.array([[9.0, 0], [0, 0], [0, 9.0], [5, 5]]), g, QUADRATIC)


def test_newton_polish_refuses_a_non_finite_jacobian():
    """Agent 2 on agent 1 lies on the rational family's coincidence
    boundary, where g and rho diverge: with agent 3 pushed off balance, the
    polish stops at the non-finite Hessian instead of stepping along it."""
    g = triangle_flex()
    p = desired_equilibrium(g)
    p[1] = p[0]
    p[2, 0] += 0.1
    with pytest.raises(OracleError, match="balance Jacobian is non-finite"):
        newton_polish(p, g, RATIONAL)


def test_construction_refuses_a_point_of_another_class():
    """A constructed point is checked against the class it was built for:
    the desired shape offered as the distinct collinear form is refused."""
    g = triangle_flex()
    with pytest.raises(OracleError, match="constructed point classifies as desired/None, "
                                          "expected degenerate_rigid/collinear_distinct"):
        _finalize(desired_equilibrium(g), g, QUADRATIC, "rootfind-collinear",
                  ("degenerate_rigid", "collinear_distinct"))


@pytest.mark.parametrize("scenario, graph, subform", [
    ("triangle_flex_2d", triangle_flex(), "collinear_distinct"),
    ("tetra_flex_3d", tetrahedron_flex(), "interior_point")])
def test_capture_from_flow_reaches_the_constructed_saddle(scenario, graph, subform):
    """From a bundled scenario's start the flow reaches a saddle within 0.5 s;
    polished and classified, it matches the layout solve's entry in class,
    in V and in its sorted edge lengths."""
    from rigidflex.cli import _resolve_scenario
    from rigidflex.control import edge_states, potential_value

    p, cls = capture_from_flow(_resolve_scenario(scenario)["initial"], graph, QUADRATIC,
                               t_end=0.5)
    ref = construct_equilibrium(graph, QUADRATIC, subform).positions
    assert (cls.kind, cls.subform) == ("degenerate_rigid", subform)
    assert potential_value(p, graph, QUADRATIC) == pytest.approx(
        potential_value(ref, graph, QUADRATIC), rel=0, abs=1e-12)
    lengths = [np.sort(np.linalg.norm(edge_states(q, graph, QUADRATIC).z, axis=1))
               for q in (p, ref)]
    np.testing.assert_allclose(*lengths, rtol=0, atol=1e-12)


def test_catalog_round_trip(tmp_path):
    entries, _ = build_catalog(triangle_flex(), QUADRATIC)
    path = tmp_path / "catalog.jsonl"
    write_catalog(entries, path)
    with open(path) as fh:
        docs = [json.loads(line) for line in fh]
    assert len(docs) == len(entries)
    assert docs[1]["subform"] == entries[1].subform
    np.testing.assert_allclose(np.array(docs[1]["positions"]),
                               entries[1].positions)


def test_constructions_classify_consistently():
    for g, fam in [(triangle_flex(), QUADRATIC), (tetrahedron_flex(), QUADRATIC)]:
        entries, _ = build_catalog(g, fam)
        for entry in entries:
            cls = classify(entry.positions, g, fam)
            assert cls.kind == entry.kind
            assert cls.subform == entry.subform


def test_uncertified_topology_rejected():
    g = FormationGraph(num_nodes=3, dimension=2, edges=((1, 2), (2, 3)),
                       desired=(4.0, 4.0), flex_edge=(2, 3))
    with pytest.raises(OracleError):
        build_catalog(g, QUADRATIC)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_double_pair_with_crossed_unequal_distances(family, monkeypatch):
    """Pairs (1,2) and (3,4) balance when d13 = d24 and d14 = d23: each agent
    sees one edge of each length across the gap, so g(r, d13) + g(r, d14) = 0
    holds at every agent (quadratic: 2 r^2 = 16 + 25).  The coincident pairs
    lie outside the rational family's domain, so its layout is refused at
    the boundary before any root is sought."""
    g = tetrahedron_with({(1, 4): 5.0, (2, 3): 5.0})
    if family is QUADRATIC:
        rigid, method = _LAYOUTS[3]["double_pair"].solve(g, family)
        assert method == "rootfind-collinear"
        p = np.array(rigid + [[*rigid[-1][:2], rigid[-1][2] + 4.0]])
        assert balance_residuals(p, g, family).max() < 1e-12
        entry = construct_equilibrium(g, family, "double_pair")
        assert (entry.kind, entry.subform) == ("degenerate_rigid", "double_pair")
        assert entry.residual < 1e-12
        r = np.linalg.norm(entry.positions[2] - entry.positions[0])
        assert r**2 == pytest.approx(20.5, rel=1e-12)
    else:                                   # no Newton seed and no bracket is tried
        import rigidflex.oracle as oracle

        calls = counted_root(monkeypatch)
        monkeypatch.setattr(oracle, "_bracketed_root", lambda *args: calls.append(args))
        with pytest.raises(OracleError, match="coincidence boundary"):
            _LAYOUTS[3]["double_pair"].solve(g, family)
        assert calls == []
        with pytest.raises(OracleError, match="boundary"):
            construct_equilibrium(g, family, "double_pair")
    # the unbalanced pairing (d13 = d23, d14 = d24) is refused up front
    with pytest.raises(OracleError, match="needs equal desired distances"):
        construct_equilibrium(tetrahedron_with({(1, 4): 5.0, (2, 4): 5.0}),
                              family, "double_pair")


def test_pair_interior_equilibrium_known_gap():
    """Quadratic family, equal distances: the pair sits midway and the gap s
    solves 2 g(s^2 - 16) + 2 g(4 s^2 - 16) = 0, i.e. s^2 = 32/5."""
    entry = construct_equilibrium(tetrahedron_flex(), QUADRATIC, "pair_interior_collinear")
    x = np.sort(entry.positions[:4, 0] - entry.positions[0, 0])
    np.testing.assert_allclose(np.diff(x)[[0, 2]] ** 2, 32.0 / 5.0, rtol=1e-12)
    assert abs(x[1] - x[2]) < 1e-12
    assert entry.residual < 1e-12


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED])
def test_catalog_raises_no_warning(graph, family):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries, _ = build_catalog(graph, family)
    assert entries
    assert all(e.residual < EQ_TOL for e in entries)


def test_layout_table_follows_the_subform_tags():
    """One layout per subform tag, in tag order, each with the flex agent at
    its desired length along the last axis; the family-independent subforms
    are exactly those built without a root-finder."""
    for g, planar in ((triangle_flex(), ()),
                      (tetrahedron_flex(), ("convex_quadrilateral", "interior_point"))):
        entries, failures = build_catalog(g, QUADRATIC)
        tags = tuple(_LAYOUTS[g.dimension])
        assert tags == (*planar, *LINE_SLOTS[g.dimension])
        assert [e.subform for e in entries[1:]] == [t for t in tags if t not in failures]
        for e in entries[1:]:
            offset = e.positions[-1] - e.positions[-2]
            np.testing.assert_allclose(offset, np.eye(g.dimension)[-1] * 4.0, atol=1e-9)
        exact = tuple(e.subform for e in entries
                      if e.kind == "degenerate_rigid" and e.method == "coincidence-construct")
        assert one_gap_subforms(g.dimension) == exact


def test_construct_rejects_unknown_subform():
    with pytest.raises(OracleError, match="unknown subform"):
        construct_equilibrium(triangle_flex(), QUADRATIC, "double_pair")
    with pytest.raises(OracleError, match="unknown subform"):
        construct_equilibrium(tetrahedron_flex(), QUADRATIC, "square")


def test_newton_polish_runs_one_edge_pass_per_iteration(monkeypatch):
    """Each iteration takes its residual, the Newton right-hand side and the
    Hessian from one ``_pass`` call, and solves once; the last pass only
    finds the residual small.  No iteration calls ``edge_states``."""
    import rigidflex
    import rigidflex.control as control
    import rigidflex.oracle as oracle

    counts = {"pass": 0, "hessian": 0, "lstsq": 0}
    hessian, lstsq = oracle._hessian, np.linalg.lstsq

    def counted(key, f):
        def call(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return call

    counting_pass(monkeypatch, counts)
    monkeypatch.setattr(oracle, "_hessian", counted("hessian", hessian))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", lstsq))
    for module in (rigidflex, control, oracle):
        monkeypatch.setattr(module, "edge_states", lambda *args: pytest.fail("edge_states"),
                            raising=False)
    for g, family, subform in ((triangle_flex(), QUADRATIC, "collinear_distinct"),
                               (tetrahedron_flex(), RATIONAL, "interior_point")):
        p = construct_equilibrium(g, family, subform).positions
        p = p + 1e-4 * np.random.default_rng(3).standard_normal(p.shape)
        counts.update({"pass": 0, "hessian": 0, "lstsq": 0})
        polished = newton_polish(p, g, family)
        assert counts["hessian"] == counts["lstsq"] >= 2
        assert counts["pass"] == counts["hessian"] + 1
        assert balance_residuals(polished, g, family).max() < 1e-12


@pytest.mark.parametrize("graph, family, subform", [
    pytest.param(graph(), family, subform, id=f"{graph.__name__}-{family.name}-{subform}")
    for graph, family, subform in ((triangle_flex, QUADRATIC, "collinear_distinct"),
                                   (triangle_flex, QUADRATIC, "all_coincident"),
                                   (tetrahedron_flex, RATIONAL, "interior_point"),
                                   (tetrahedron_flex, QUADRATIC, "double_pair"))])
def test_construct_equilibrium_makes_one_pass(monkeypatch, graph, family, subform):
    """A construction, root-found or exact, is never polished: one edge pass
    at the constructed point gives the entry's domain check, class and
    residual."""
    import rigidflex.oracle as oracle

    counts = {"pass": 0}
    counting_pass(monkeypatch, counts)
    monkeypatch.setattr(oracle, "newton_polish", lambda *args: pytest.fail("polished"))
    construct_equilibrium(graph, family, subform)
    assert counts["pass"] == 1


# the messages of the refusals ``_Layout.solve`` makes before any root solve
REFUSALS = re.compile("needs equal desired distances|coincidence boundary")


def counted_root(monkeypatch):
    """Count the Newton seeds the oracle tries."""
    import rigidflex.oracle as oracle

    calls = []
    root = oracle.root

    def counted(*args, **kwargs):
        calls.append(args)
        return root(*args, **kwargs)

    monkeypatch.setattr(oracle, "root", counted)
    return calls


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()], ids=["2d", "3d"])
def test_rational_collinear_distinct_succeeds_on_its_first_seed(graph, monkeypatch):
    """Newton converges from the first seed to a residual near 1e-15; that
    root is accepted, and it is the one the later seeds converge to."""
    calls = counted_root(monkeypatch)
    layout = _LAYOUTS[graph.dimension]["collinear_distinct"]
    first = np.array(layout.solve(graph, RATIONAL)[0])
    assert len(calls) == 1
    later, _ = dataclasses.replace(layout, seeds=layout.seeds[1:]).solve(graph, RATIONAL)
    np.testing.assert_allclose(first, later, rtol=0, atol=1e-12)
    assert np.all(np.diff(first[:, 0]) > 0)


@pytest.mark.parametrize("subform", ["pair_endpoint_collinear", "pair_interior_collinear"])
def test_shared_slot_layouts_are_refused_before_solving(subform, monkeypatch):
    """A rigid edge inside one slot has zero length, where the rational g
    diverges: the boundary failure comes before any Newton seed, alone and
    in the full catalog.  The quadratic family is finite there and still solves
    the layout."""
    import rigidflex.oracle as oracle

    calls = counted_root(monkeypatch)
    with pytest.raises(OracleError, match="coincidence boundary"):
        construct_equilibrium(tetrahedron_flex(), RATIONAL, subform)
    assert calls == []
    solves = {}                             # Newton seeds per subform within build_catalog
    construct = oracle.construct_equilibrium

    def counted_construct(graph, family, name):
        before = len(calls)
        try:
            return construct(graph, family, name)
        finally:
            solves[name] = len(calls) - before

    monkeypatch.setattr(oracle, "construct_equilibrium", counted_construct)
    _, failures = build_catalog(tetrahedron_flex(), RATIONAL)
    assert "coincidence boundary" in failures[subform]
    assert solves[subform] == 0
    _, failures = build_catalog(tetrahedron_flex(), QUADRATIC)
    assert solves[subform] > 0


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED],
                         ids=["triangle", "tetrahedron", "tailored"])
def test_solve_binds_the_family_once_per_edge_set(graph, family, monkeypatch):
    """``solve`` looks up the family's evaluators once for the balance over
    the crossing edges (``control._constants`` binds it, once per graph and
    family: its cache is cleared before each solve here), and once before
    that for the boundary test when some rigid edge has a zero template
    vector.  A layout with no scale has no balance to bind.  A layout
    refused at the boundary looks them up once; one refused for its
    desired lengths, never."""
    import rigidflex.control as control
    import rigidflex.oracle as oracle

    binds = []
    for module in (oracle, control):
        monkeypatch.setattr(module, "evaluators",
                            lambda f: binds.append(f) or potentials.evaluators(f))
    for name, layout in _LAYOUTS[graph.dimension].items():
        zero = [all(tk[i] == tk[j] for tk in layout.templates)
                for i, j in zip(graph.edge_tails[:-1], graph.edge_heads[:-1])]
        expected = (len(layout.templates) > 0) + any(zero)
        binds.clear()
        control._constants.cache_clear()
        try:
            layout.solve(graph, family)
        except OracleError as exc:
            if "needs equal desired distances" in str(exc):
                expected = 0
            elif "coincidence boundary" in str(exc):
                expected = 1
        assert len(binds) == expected, name


def test_gap_solver_failures_say_what_happened():
    """On the equal tetrahedron with the quadratic family every Newton seed of
    these two layouts converges, to roots with a zero gap: the failure says
    so and lists the gaps.  On the tailored tetrahedron four seeds of the
    distinct collinear layout reach the zero-gap root (0, 2, 3) and two do
    not converge: the failure lists the roots apart from the failed seeds
    and their residuals.  A system with no real root keeps the
    non-convergence message: Newton stops where its Jacobian is singular."""
    names = ["pair_endpoint_collinear", "collinear_distinct"]
    _, failures = build_catalog(tetrahedron_flex(), QUADRATIC)
    assert sorted(failures) == sorted(names)
    for name in names:
        head, found = failures[name].split("; gaps of the roots found: ")
        assert head.startswith("every gap root-finder seed converged")
        assert head.endswith("but no root has all gaps positive")
        gaps = ast.literal_eval(found)
        assert len(gaps) == len(_LAYOUTS[3][name].seeds)
        assert all(min(root) < 1e-9 for root in gaps)
    _, failures = build_catalog(TAILORED, QUADRATIC)
    head, found = failures["collinear_distinct"].split("; gaps of the roots found: ")
    head, failed = head.split("; seeds and residuals that did not converge: ")
    assert head.startswith("no root with all gaps positive for the gaps of line layout")
    assert head.endswith("2 of 6 seeds did not converge, the others reached roots "
                         "with a gap <= 1e-9")
    failed = ast.literal_eval(failed)
    assert len(failed) == 2
    assert all(len(seed) == 3 and residual > 1e-10 for seed, residual in failed)
    np.testing.assert_allclose(ast.literal_eval(found), [[0.0, 2.0, 3.0]] * 4, atol=1e-12)
    with pytest.raises(OracleError, match="gap root-finder did not converge for x"):
        _multi_root(lambda x: ([x[0] * x[0] + 1.0, x[1] - 1.0],
                               lambda: [[2.0 * x[0], 0.0], [0.0, 1.0]]), [(1.0, 1.0)], "x")


def test_line_layouts_read_the_stability_slot_table():
    """Each line layout of the oracle is the slot vector of stability's
    LINE_SLOTS, and classify reads the roles back in label order."""
    from rigidflex.stability import LINE_SLOTS

    for g in (triangle_flex(), tetrahedron_flex()):
        lines = {name: layout.slots for name, layout in _LAYOUTS[g.dimension].items()
                 if layout.slots}
        assert lines == LINE_SLOTS[g.dimension]
        entries, _ = build_catalog(g, QUADRATIC)
        for entry in entries[1:]:
            cls = classify(entry.positions, g, QUADRATIC)
            assert cls.roles == tuple(range(1, g.num_nodes)), entry.subform


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED],
                         ids=["triangle", "tetrahedron", "tailored"])
def test_one_scale_layouts_bracket_their_root(graph, family, monkeypatch):
    """Every admitted one-scale layout either has bracket ends that are one
    float (an exact construction) or bisects ends with F(lo) <= 0 <= F(hi),
    and its root lies between them."""
    import rigidflex.oracle as oracle

    brackets = []
    bracketed_root = oracle._bracketed_root

    def recorded(f, lo, hi):
        x = bracketed_root(f, lo, hi)
        brackets.append((f(lo), f(hi), lo, x, hi))
        return x

    monkeypatch.setattr(oracle, "_bracketed_root", recorded)
    for name, layout in _LAYOUTS[graph.dimension].items():
        if len(layout.templates) != 1:
            continue
        brackets.clear()
        try:
            _, method = layout.solve(graph, family)
        except OracleError as exc:
            assert REFUSALS.search(str(exc)), name
            assert brackets == [], name
            continue
        if method == "coincidence-construct":
            assert brackets == [], name
            continue
        [(f_lo, f_hi, lo, x, hi)] = brackets
        assert f_lo <= 0.0 <= f_hi, name
        assert lo <= x <= hi, name


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED],
                         ids=["triangle", "tetrahedron", "tailored"])
def test_multi_gap_roots_lie_in_the_box(graph, family):
    """At every line root with two or more gaps, each gap is at most the
    largest desired length among the rigid edges crossing it."""
    roots = 0
    for name, layout in _LAYOUTS[graph.dimension].items():
        if not layout.slots or max(layout.slots) < 2:
            continue
        try:
            rigid, _ = layout.solve(graph, family)
        except OracleError:
            continue
        roots += 1
        slots = np.array(layout.slots)
        x = np.array(rigid)[:, 0]
        for k in range(max(layout.slots)):
            gap = x[slots == k + 1][0] - x[slots == k][0]
            crossing = [db for e, ((i, j), db) in enumerate(zip(graph.edges, graph.desired))
                        if e != graph.flex_edge_index
                        and min(slots[i - 1], slots[j - 1]) <= k < max(slots[i - 1], slots[j - 1])]
            assert 0.0 < gap <= max(crossing), (name, k)
    assert roots


@pytest.mark.parametrize("graph, family, seeds", [
    (triangle_flex(), QUADRATIC, 1), (triangle_flex(), RATIONAL, 1),
    (tetrahedron_flex(), QUADRATIC, 11), (tetrahedron_flex(), RATIONAL, 1),
    (TAILORED, QUADRATIC, 8), (TAILORED, RATIONAL, 1),
], ids=["triangle-quadratic", "triangle-rational", "tetrahedron-quadratic",
        "tetrahedron-rational", "tailored-quadratic", "tailored-rational"])
def test_catalog_seeds_go_through_oracle_root(graph, family, seeds, monkeypatch):
    """bench/spans.py wraps every public function of rigidflex.oracle and then
    wraps ``oracle.root`` again, to count one span per Newton seed.  So every
    seed must look ``oracle.root`` up at call time, and ``oracle.root`` must
    not be a plain function, or the first pass would wrap it too and every
    seed would count twice."""
    import rigidflex.oracle as oracle

    assert not inspect.isfunction(oracle.root)
    calls = counted_root(monkeypatch)
    build_catalog(graph, family)
    assert len(calls) == seeds


def one_scale_brackets(monkeypatch, graph, family):
    """(f, lo, hi) of every one-scale bracket the catalog of graph x family solves."""
    import rigidflex.oracle as oracle

    brackets = []
    bracketed_root = oracle._bracketed_root

    def recorded(f, lo, hi):
        brackets.append((f, lo, hi))
        return bracketed_root(f, lo, hi)

    monkeypatch.setattr(oracle, "_bracketed_root", recorded)
    build_catalog(graph, family)
    return brackets


def test_bisection_ends_at_a_sign_change(monkeypatch):
    """On every one-scale bracket of the three certified graphs x both
    families, on seeded monotone cubics and rationals, and with an exact
    zero at either end, the root lies in [lo, hi] and either f is 0 there
    or a float next to it inside the bracket has the opposite sign of f."""
    from rigidflex.oracle import _bracketed_root

    cases = [case for graph in (triangle_flex(), tetrahedron_flex(), TAILORED)
             for family in (QUADRATIC, RATIONAL)
             for case in one_scale_brackets(monkeypatch, graph, family)]
    assert len(cases) >= 4
    rng = np.random.default_rng(19)
    for _ in range(50):
        lo, r, hi = np.sort(rng.uniform(0.1, 10.0, 3)).tolist()
        a, b, c, sign = *rng.uniform(0.1, 5.0, 3).tolist(), rng.choice([-1.0, 1.0])
        cases.append((lambda x, a=a, b=b, r=r, s=sign: s * (a * (x - r) + b * (x - r) ** 3),
                      lo, hi))
        cases.append((lambda x, c=c, r=r, s=sign: s * (x - r) / (x + c), lo, hi))
    cases += [(lambda x: x - 2.0, 2.0, 3.0), (lambda x: x - 3.0, 2.0, 3.0)]
    for f, lo, hi in cases:
        x = _bracketed_root(f, lo, hi)
        assert lo <= x <= hi
        neighbours = [y for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                      if lo <= y <= hi]
        assert f(x) == 0 or any((f(y) < 0) != (f(x) < 0) for y in neighbours), (lo, x, hi)


@pytest.mark.parametrize("graph, family, subform", [
    (tetrahedron_flex(), QUADRATIC, "convex_quadrilateral"),
    (tetrahedron_flex(), RATIONAL, "convex_quadrilateral"),
    (tetrahedron_flex(), QUADRATIC, "interior_point"),
    (tetrahedron_flex(), RATIONAL, "interior_point"),
    (tetrahedron_with({(1, 4): 5.0, (2, 3): 5.0}), QUADRATIC, "double_pair"),
], ids=["square-quadratic", "square-rational", "interior-quadratic", "interior-rational",
        "double_pair-quadratic"])
def test_one_scale_roots_scale_exactly(graph, family, subform):
    """Scaling every desired length by 2^k scales each one-scale layout's
    rigid positions by 2^k bit for bit: the bisection's midpoints and the
    signs of F scale exactly, and no absolute tolerance picks its end."""
    layout = _LAYOUTS[3][subform]
    assert len(layout.templates) == 1
    rigid, method = layout.solve(graph, family)
    assert method != "coincidence-construct"
    for k in (-150, -100, -60, -30, -10, -3, 3, 10, 30, 60, 100):
        scaled = dataclasses.replace(graph, desired=tuple(math.ldexp(d, k) for d in graph.desired))
        rigid_k, method_k = layout.solve(scaled, family)
        assert method_k == method
        assert np.array_equal(rigid_k, np.ldexp(rigid, k)), k


def test_bisection_has_no_iteration_cap():
    """A step function on a huge bracket takes about a thousand halvings
    down to the adjacent floats around its jump, and the bisection takes
    them all."""
    from rigidflex.oracle import _bracketed_root

    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 0.5 else 1.0

    assert _bracketed_root(step, -1e300, 1e300) == math.nextafter(0.5, 0.0)
    assert len(calls) == 1053


@pytest.mark.parametrize("f", [lambda x: 1e-200, lambda x: -1e-200, lambda x: math.nan,
                               lambda x: math.nan if x < 1.5 else 1.0],
                         ids=["underflow", "negative-underflow", "nan", "nan-end"])
def test_bisection_refuses_ends_of_one_sign(f):
    """Ends whose signs agree are no bracket even when the product of their
    values underflows to 0, and a NaN end is none either."""
    from rigidflex.oracle import _bracketed_root

    with pytest.raises(OracleError, match="bracket failed"):
        _bracketed_root(f, 1.0, 2.0)


@pytest.mark.parametrize("family, ks", [(RATIONAL, range(-10, 13)), (QUADRATIC, range(-10, 4))],
                         ids=["rational", "quadratic"])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED,
                                   triangle_flex((3.0, 4.0, 5.5, 2.0))],
                         ids=["triangle", "tetrahedron", "tailored", "triangle-3-4-5.5"])
def test_catalogs_scale_exactly(graph, family, ks):
    """With every desired length times 2^k, a catalog keeps its entries,
    their methods and its failure names, and each entry's positions are
    2^k times its positions at k = 0, bit for bit: an entry is its
    construction, and no absolute tolerance moves or refuses it.  The k
    range is where ``classify``'s absolute tolerances still hold (ROADMAP
    item 1); the quadratic family's forces grow as 2^(3k)."""
    entries, failures = build_catalog(graph, family)
    for k in ks:
        scaled = dataclasses.replace(graph, desired=tuple(math.ldexp(d, k) for d in graph.desired))
        entries_k, failures_k = build_catalog(scaled, family)
        assert sorted(failures_k) == sorted(failures), k
        assert ([(e.kind, e.subform, e.method) for e in entries_k]
                == [(e.kind, e.subform, e.method) for e in entries]), k
        for e, e_k in zip(entries, entries_k):
            assert np.array_equal(e_k.positions, np.ldexp(e.positions, k)), (k, e.subform)


def test_symmetric_layouts_need_exactly_equal_lengths(monkeypatch):
    """A layout is an equilibrium only when the desired lengths have its
    symmetry exactly.  One ulp off is refused before any solve: the
    triangle's coincident pair with d13 one ulp above d12, whose message
    gives both lengths in full, and the equal tetrahedron's square and
    centred triangle with d12 one ulp long."""
    import rigidflex.oracle as oracle

    brackets = []
    monkeypatch.setattr(oracle, "_bracketed_root", lambda *args: brackets.append(args))
    up = math.nextafter(4.0, math.inf)
    message = re.escape("coincident agents 2 and 3 have desired lengths [4.0] and "
                        "[4.000000000000001] to the other points")
    for family in (QUADRATIC, RATIONAL):
        with pytest.raises(OracleError, match=message):
            construct_equilibrium(triangle_flex((4.0, up, 4.0, 2.0)), family, "coincident_pair")
        for subform, group in (("convex_quadrilateral", "the four square sides"),
                               ("interior_point", "outer triangle sides")):
            with pytest.raises(OracleError, match=f"needs equal desired distances: {group}"):
                construct_equilibrium(tetrahedron_flex((up,) + (4.0,) * 6), family, subform)
    assert brackets == []


def test_catalogs_and_desired_shapes_call_no_lapack(monkeypatch):
    """The desired shape is a Cholesky factor on Python floats and a catalog
    entry is its construction, so neither calls numpy's cholesky, norm or
    lstsq, whose bits follow the BLAS kernel; an unrealizable length set is
    refused by the same factor."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK or BLAS call")

    for name in ("cholesky", "norm", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for graph in (triangle_flex(), tetrahedron_flex(), TAILORED,
                  triangle_flex((3.0, 4.0, 5.0, 2.0)), triangle_flex((3.0, 4.0, 5.5, 2.0))):
        desired_equilibrium(graph)
        flex_coincident_equilibrium(graph)
        for family in (QUADRATIC, RATIONAL):
            entries, _ = build_catalog(graph, family)
            assert entries
    for lengths in ((1.0, 1.0, 3.0, 2.0), (1.0, 2.0, 3.0, 2.0)):
        with pytest.raises(OracleError, match="triangle distances are not realizable"):
            desired_equilibrium(triangle_flex(lengths))


# numpy functions and ndarray methods whose bits, or whose summation order,
# a numpy or BLAS build may change: none is called while constructing
NUMPY_NAMES = {"dot", "mean", "cos", "sin"}


def numpy_calls(fn, *args):
    """The calls of NUMPY_NAMES that ``fn(*args)`` makes, by name, recorded
    with ``sys.setprofile``: the Python functions of numpy (``np.dot`` and
    ``np.mean`` among them) as calls, and C methods of an ndarray or of a
    numpy module (``ndarray.mean``, which cannot be patched) as C calls."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("numpy"):
            name = frame.f_code.co_name
        elif event == "c_call" and (isinstance(getattr(arg, "__self__", None), np.ndarray)
                                    or str(getattr(arg, "__module__", "")).startswith("numpy")):
            name = arg.__name__
        else:
            return
        if name in NUMPY_NAMES:
            calls.append(name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_numpy_calls_are_recorded():
    """The recorder sees each way a construction could reach NUMPY_NAMES."""
    a = np.ones((3, 2))
    assert numpy_calls(lambda: (np.dot([1.0, 2.0], a[:2]), a.mean(axis=0),
                                np.mean([1.0, 2.0]), math.cos(0.5))) == ["dot", "mean", "mean"]


def constructions(graph, family):
    """The desired and flex-coincident shapes, every subform's construction
    and the catalog of graph x family, with the refusals they may raise."""
    desired_equilibrium(graph)
    flex_coincident_equilibrium(graph)
    for subform in _LAYOUTS[graph.dimension]:
        try:
            construct_equilibrium(graph, family, subform)
        except OracleError:
            pass
    return build_catalog(graph, family)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=["quadratic", "rational"])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED],
                         ids=["triangle", "tetrahedron", "tailored"])
def test_constructions_call_no_numpy_dot_mean_or_trig(graph, family):
    """Construction holds its data as Python floats and tuples: each agent
    coordinate is a left-to-right sum of scales times template entries, the
    seed scale and the centroid are left-to-right sums over their count,
    and the planar template comes from ``math``.  So no np.dot (a BLAS
    gemv), np.mean or ndarray.mean is called, and every template entry is
    a float, not the numpy scalar np.cos or np.sin would give."""
    assert numpy_calls(constructions, graph, family) == []
    assert all(type(c) is float for layout in _LAYOUTS[graph.dimension].values()
               for template in layout.templates for point in template for c in point)


def test_three_gap_step_refuses_an_exactly_singular_jacobian():
    """Cramer's rule gives no step when det J is exactly 0, here a 3 x 3
    with two proportional rows, as for 2 x 2 (see the seeds above)."""
    assert _solve([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]], [1.0, 1.0, 1.0]) is None


def layout_balances(monkeypatch, graph, family):
    """(name, balance, box) of every multi-gap line layout of graph x family:
    the function ``solve`` hands the Newton seeds, and the bound each gap of
    a root lies below (test_multi_gap_roots_lie_in_the_box).  A layout with
    a shared slot has a zero-length rigid edge, where ``solve`` looks up the
    family's evaluators for its boundary test; the rational family fails
    that test, so the test's lookup is steered to the quadratic family's,
    and the balance, which ``control._constants`` binds, gets the family's
    own."""
    import rigidflex.oracle as oracle

    found = []

    def recorded(fun, seeds, names):
        found.append(fun)
        raise OracleError("recorded")

    monkeypatch.setattr(oracle, "_multi_root", recorded)
    out = []
    for name, layout in _LAYOUTS[graph.dimension].items():
        if not layout.slots or max(layout.slots) < 2:
            continue
        monkeypatch.setattr(oracle, "evaluators", lambda f: potentials.evaluators(QUADRATIC))
        with pytest.raises(OracleError, match="recorded"):
            layout.solve(graph, family)
        slots = np.array(layout.slots)
        box = [max(db for e, ((i, j), db) in enumerate(zip(graph.edges, graph.desired))
                   if e != graph.flex_edge_index
                   and min(slots[i - 1], slots[j - 1]) <= k < max(slots[i - 1], slots[j - 1]))
               for k in range(max(layout.slots))]
        out.append((name, found[-1], np.array(box)))
    return out


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED],
                         ids=["triangle", "tetrahedron", "tailored"])
def test_layout_jacobian_matches_central_differences(graph, family, monkeypatch):
    """The analytic Jacobian of every multi-gap line layout equals central
    differences of F to 1e-6 of its largest entry, at seeded gaps inside
    the box and at gaps of 1 % to 5 % of it, where the shortest edges sit
    near e = -dbar^2 and the rational g exceeds 1e5 in size.  The
    difference step is 1e-5 of the smallest gap: a smaller one would show
    the rounding of e = |z|^2 - dbar^2 there, not the Jacobian."""
    rng = np.random.default_rng(7)
    balances = layout_balances(monkeypatch, graph, family)
    assert len(balances) == {2: 1, 3: 3}[graph.dimension]
    for name, balance, box in balances:
        points = [rng.uniform(0.05, 1.0, len(box)) * box for _ in range(5)]
        points += [rng.uniform(0.01, 0.05, len(box)) * box for _ in range(3)]
        for x in points:
            f, jacobian = balance(x.tolist())
            f, jac = np.array(f), np.array(jacobian())
            h = 1e-5 * x.min()
            fd = np.column_stack([(np.array(balance((x + h * u).tolist())[0])
                                   - np.array(balance((x - h * u).tolist())[0])) / (2 * h)
                                  for u in np.eye(len(x))])
            assert np.isfinite(f).all() and np.isfinite(jac).all(), (name, x)
            assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max(), (name, x)


def test_catalog_at_other_lengths_compiles_no_balance(monkeypatch):
    """A layout's balance is compiled once per graph shape and family, with
    the lengths bound per solve: after the equal triangle's and the equal
    tetrahedron's catalogs with both families, the tailored tetrahedron and
    a 3-4-5 triangle generate and compile no balance code."""
    import rigidflex.oracle as oracle

    for graph in (triangle_flex(), tetrahedron_flex()):
        for family in (QUADRATIC, RATIONAL):
            build_catalog(graph, family)
    misses = oracle._balance_code.cache_info().misses

    def forbidden(*args):
        raise AssertionError("balance source generated for a shape already compiled")

    monkeypatch.setattr(oracle, "_balance_source", forbidden)
    for graph in (TAILORED, triangle_flex((3.0, 4.0, 5.0, 2.0))):
        for family in (QUADRATIC, RATIONAL):
            entries, _ = build_catalog(graph, family)
            assert entries
    assert oracle._balance_code.cache_info().misses == misses


def test_second_catalog_binds_nothing(monkeypatch):
    """Every layout's balance is bound to the constants of its graph and
    family once (``control._constants``): a second catalog of an equal
    graph with the same family makes no constants and gives the same
    entries."""
    import rigidflex.control as control

    def catalog(graph, family):
        entries, failures = build_catalog(graph, family)
        return [(e.subform, e.method, e.positions.tobytes()) for e in entries], failures

    for make in (triangle_flex, tetrahedron_flex):
        for family in (QUADRATIC, RATIONAL):
            first = catalog(make(), family)
            misses = control._constants.cache_info().misses
            assert catalog(make(), family) == first
            assert control._constants.cache_info().misses == misses


def test_mirror_image_of_the_equal_triangle_line_is_exact(monkeypatch):
    """Reflecting the equal triangle's distinct collinear layout swaps its two
    gaps.  The float balance sums each entry of F and J in one order, so at
    seeded gaps inside the box F(b, a) is F(a, b) reversed and J(b, a) is
    J(a, b) with its rows and columns reversed, bit for bit, whatever BLAS
    kernel runs; and the catalog's entry, reached from the symmetric seed,
    has g_12 == g_23 exactly."""
    graph = triangle_flex()
    [(name, balance, box)] = layout_balances(monkeypatch, graph, QUADRATIC)
    assert name == "collinear_distinct"
    rng = np.random.default_rng(32)
    for a, b in (rng.uniform(0.05, 1.0, (20, 2)) * box).tolist():
        f, jacobian = balance([a, b])
        f_mirror, jacobian_mirror = balance([b, a])
        assert [v.hex() for v in f_mirror] == [v.hex() for v in f[::-1]], (a, b)
        assert ([[v.hex() for v in row] for row in jacobian_mirror()]
                == [[v.hex() for v in row[::-1]] for row in jacobian()[::-1]]), (a, b)
    monkeypatch.undo()
    entry = construct_equilibrium(graph, QUADRATIC, "collinear_distinct")
    g = dict(zip(graph.edges, edge_states(entry.positions, graph, QUADRATIC).g.tolist()))
    assert g[(1, 2)] == g[(2, 3)]


@pytest.mark.parametrize("fun, seed", [
    (lambda x: ([x[0] * x[0] + 1.0, x[1]], lambda: [[2.0 * x[0], 0.0], [0.0, 1.0]]),
     (0.0, 1.0)),
    (lambda x: ([x[0] + x[1] - 1.0, x[0] + x[1] - 3.0], lambda: [[1.0, 1.0], [1.0, 1.0]]),
     (0.5, 0.5)),
    (lambda x: ([math.log(x[0] - 2.0) if x[0] > 2.0 else math.nan, x[1]],
                lambda: [[1.0 / (x[0] - 2.0), 0.0], [0.0, 1.0]]), (1.0, 1.0)),
    (lambda x: ([v * math.inf for v in x], lambda: [[1.0, 0.0], [0.0, 1.0]]), (1.0, 2.0)),
    (lambda x: ([x[0] - 3.0, x[1]], lambda: [[math.inf * x[0], 0.0], [0.0, 1.0]]),
     (1.0, 1.0)),
], ids=["singular-J-at-seed", "singular-J-everywhere", "nan-F", "inf-F", "inf-J"])
def test_singular_or_nonfinite_seeds_do_not_converge(fun, seed):
    """A singular Jacobian or a non-finite F or J ends the seed: the seed
    counts as not converged, with no exception and no RuntimeWarning."""
    import rigidflex.oracle as oracle

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, f = oracle.root(fun, list(seed))
        assert not np.abs(f).max() < 1e-10
        with pytest.raises(OracleError, match="gap root-finder did not converge for t"):
            _multi_root(fun, [seed], "t")


# SHA-256 of the hex bits of F and J of every multi-gap line layout, per graph and family
BALANCE_BITS_SHA256 = {
    "triangle-quadratic":
        "9110200ff4fc6c91d69ae6424868f4d1bb48636b6eaa4013d621b46a4ed0aee4",
    "triangle-rational":
        "5250442b4e1670a65268e8225d852b848c40d1ed3ce6349ef27658e5f70e3c38",
    "tetrahedron-quadratic":
        "5a6538dd1af9c7facddd0d917b7d15313307c4cfc2f54385f92762734e7010b6",
    "tetrahedron-rational":
        "506ec6d9da72cfe725db7e7f096efe84e6b94f77235198b2f8220b79881deea2",
    "tailored-quadratic":
        "e1e326731cfd6ca1fd5da9ec1278ac4177302adbba3b76b6d7569ef176fbc546",
    "tailored-rational":
        "b7f6a4817cf53316423985450e04016e35ae9449840b5a2f963a905fc93ac0c4",
}


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=["quadratic", "rational"])
@pytest.mark.parametrize("name", ["triangle", "tetrahedron", "tailored"])
def test_layout_balance_bits_are_pinned(name, family, monkeypatch):
    """F and J of every multi-gap line layout at 20 seeded gaps inside the
    box are pinned bit for bit by one SHA-256 per graph and family: the
    roots, and so the catalog, follow from these bits."""
    import hashlib

    graph = {"triangle": triangle_flex(), "tetrahedron": tetrahedron_flex(),
             "tailored": TAILORED}[name]
    rng = np.random.default_rng(33)
    digest = hashlib.sha256()
    for _, balance, box in layout_balances(monkeypatch, graph, family):
        for x in (rng.uniform(0.05, 1.0, (20, len(box))) * box).tolist():
            f, jacobian = balance(x)
            digest.update(" ".join(v.hex() for v in [*f, *sum(jacobian(), [])]).encode())
    assert digest.hexdigest() == BALANCE_BITS_SHA256[f"{name}-{family.name}"]
