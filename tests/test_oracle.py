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
from rigidflex.control import _bound, edge_states
from rigidflex.graph import FormationGraph, tetrahedron_flex, triangle_flex
from rigidflex.oracle import (
    _LAYOUTS,
    _finalize,
    _multi_root,
    _solver_source,
    OracleError,
    build_catalog,
    construct_equilibrium,
    desired_equilibrium,
    flex_coincident_equilibrium,
    newton_polish,
    write_catalog,
)
from rigidflex.potentials import QUADRATIC, RATIONAL, PotentialFamily
from rigidflex.stability import EQ_TOL, LINE_SLOTS, classify
from references import (TAILORED, _bracketed_root, _max_abs, _newton, _solve, balance_residuals,
                        balance_source, capture_from_flow, layout_solve, tetrahedron_with)
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
        _finalize(desired_equilibrium(g).ravel().tolist(), g, QUADRATIC, "rootfind-collinear",
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
        x, method = _LAYOUTS[3]["double_pair"].solve(g, family)
        assert method == "rootfind-collinear"
        p = np.array(x).reshape(-1, 3)
        np.testing.assert_array_equal(p[-1] - p[-2], [0.0, 0.0, 4.0])
        assert balance_residuals(p, g, family).max() < 1e-12
        entry = construct_equilibrium(g, family, "double_pair")
        assert (entry.kind, entry.subform) == ("degenerate_rigid", "double_pair")
        assert entry.residual < 1e-12
        r = np.linalg.norm(entry.positions[2] - entry.positions[0])
        assert r**2 == pytest.approx(20.5, rel=1e-12)
    else:                                   # no Newton seed and no bracket is tried
        import rigidflex.oracle as oracle

        calls = counted_root(monkeypatch)
        solves = solver_calls(monkeypatch)
        with pytest.raises(OracleError, match="coincidence boundary"):
            _LAYOUTS[3]["double_pair"].solve(g, family)
        assert calls == solves == []
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
    Hessian from one bound edge pass, and solves once; the last pass only
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


def solver_calls(monkeypatch):
    """Record each call of the generated root finders that ``_Layout.solve``
    binds, as (layout, args, result): a bisection's (lo, hi) and ([x],
    F(lo), F(hi)), a Newton solve's (seed, steps, halvings) and (gaps,
    max|F|)."""
    import rigidflex.oracle as oracle

    calls, bound = [], oracle._bound

    def binding(graph, family, **kwargs):
        solver = bound(graph, family, **kwargs)
        if kwargs.get("source") is not _solver_source:
            return solver

        def recorded(*args):
            calls.append((kwargs["key"][0], args, out := solver(*args)))
            return out
        return recorded

    monkeypatch.setattr(oracle, "_bound", binding)
    return calls


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()], ids=["2d", "3d"])
def test_rational_collinear_distinct_succeeds_on_its_first_seed(graph, monkeypatch):
    """Newton converges from the first seed to a residual near 1e-15; that
    root is accepted, and it is the one the later seeds converge to."""
    calls = counted_root(monkeypatch)
    layout = _LAYOUTS[graph.dimension]["collinear_distinct"]
    first = np.array(layout.solve(graph, RATIONAL)[0]).reshape(-1, graph.dimension)[:-1]
    assert len(calls) == 1
    later, _ = dataclasses.replace(layout, seeds=layout.seeds[1:]).solve(graph, RATIONAL)
    np.testing.assert_allclose(first, np.reshape(later, (-1, graph.dimension))[:-1],
                               rtol=0, atol=1e-12)
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
    construct = oracle._degenerate

    def counted_construct(graph, family, name):
        before = len(calls)
        try:
            return construct(graph, family, name)
        finally:
            solves[name] = len(calls) - before

    monkeypatch.setattr(oracle, "_degenerate", counted_construct)
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
    the crossing edges, when it runs the root finder (``control._bound``
    binds it, once per graph and family: its cache is cleared before each
    solve here), and once per (family, d2) for the boundary test of the
    rigid edges with a zero template vector (``oracle._diverges``, cleared
    too).  A layout that solves no
    scale (coincidence-construct) binds no root finder.  A layout refused
    at the boundary looks them up once; one refused for its desired
    lengths, never."""
    import rigidflex.control as control
    import rigidflex.oracle as oracle

    binds = []
    for module in (oracle, control):
        monkeypatch.setattr(module, "evaluators",
                            lambda f: binds.append(f) or potentials.evaluators(f))
    for name, layout in _LAYOUTS[graph.dimension].items():
        zero = [all(tk[i] == tk[j] for tk in layout.templates)
                for i, j in zip(graph.edge_tails[:-1], graph.edge_heads[:-1])]
        lookups = len({d2 for d2, z in zip(graph._dbar2, zero) if z})
        binds.clear()
        control._bound.cache_clear()
        oracle._diverges.cache_clear()
        try:
            expected = lookups + (layout.solve(graph, family)[1] != "coincidence-construct")
        except OracleError as exc:
            expected = lookups + 1              # the root finder ran and failed
            if "needs equal desired distances" in str(exc):
                expected = 0
            elif "coincidence boundary" in str(exc):
                expected = 1
        assert len(binds) == expected, name


def test_boundary_verdict_is_decided_once_per_length(monkeypatch):
    """Whether g is finite at e = -dbar^2 is decided once per (family,
    dbar^2): after one catalog of the equal tetrahedron with the rational
    family, whose g diverges there, a second one refuses the same layouts
    with the same messages and makes no ``_on_numpy`` call from
    ``oracle``."""
    import rigidflex.oracle as oracle

    calls, on_numpy = [], oracle._on_numpy
    oracle._diverges.cache_clear()
    first = build_catalog(tetrahedron_flex(), RATIONAL)[1]
    monkeypatch.setattr(oracle, "_on_numpy", lambda *args: calls.append(args) or on_numpy(*args))
    assert build_catalog(tetrahedron_flex(), RATIONAL)[1] == first
    assert sum("coincidence boundary" in message for message in first.values()) >= 3
    assert calls == []


def test_certify_catalogs_run_every_compiled_solver(monkeypatch):
    """A layout's root finder is compiled only on the path that runs it:
    after the six catalogs of the triangle, the equal and the tailored
    tetrahedron with both families on a cold ``control._generated`` cache,
    every ``_solver_source`` text compiled has been called, and the exact
    layouts at equal lengths (the triangle's coincident pair, the
    tetrahedron's triple and double coincidences) compiled none."""
    import rigidflex.control as control
    import rigidflex.oracle as oracle

    compiled, called, generated, bound = set(), set(), control._generated, oracle._bound

    def recorded(source, *key):
        if source is _solver_source:
            compiled.add(key)
        return generated(source, *key)

    def counted(graph, family, **kwargs):
        function = bound(graph, family, **kwargs)
        if kwargs.get("source") is not _solver_source:
            return function
        return lambda *args: called.add((*graph._shape, family, *kwargs["key"])) or function(*args)

    control._bound.cache_clear()
    control._generated.cache_clear()
    monkeypatch.setattr(control, "_generated", recorded)
    monkeypatch.setattr(oracle, "_bound", counted)
    for graph in (triangle_flex(), tetrahedron_flex(), TAILORED):
        for family in (QUADRATIC, RATIONAL):
            build_catalog(graph, family)
    assert compiled == called and len(compiled) == 10


def test_gap_solver_failures_say_what_happened():
    """On the equal tetrahedron with the quadratic family every Newton seed of
    these two layouts converges, to roots with a zero gap: the failure says
    so and lists the gaps.  On the tailored tetrahedron four seeds of the
    distinct collinear layout reach the zero-gap root (0, 2, 3) and two do
    not converge: the failure lists the roots apart from the failed seeds
    and their residuals.  A balance with no real root keeps the
    non-convergence message: with g = 1 + dbar^4 / |z_e|^4 > 1 every F_k
    of the triangle's distinct collinear layout is positive where the gaps
    are, and Newton stalls."""
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
    rootless = PotentialFamily("rootless", "e", "1.0 + (d2 * d2) / ((e + d2) * (e + d2))",
                               "-2.0 * (d2 * d2) / (((e + d2) * (e + d2)) * (e + d2))")
    newton = _bound(triangle_flex(), rootless, source=_solver_source,
                    key=(_LAYOUTS[2]["collinear_distinct"],))
    with pytest.raises(OracleError, match="gap root-finder did not converge for x"):
        _multi_root(newton, [(1.0, 1.0)], "x")


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
    brackets = solver_calls(monkeypatch)
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
        [(_, (lo, hi), ([x], f_lo, f_hi))] = brackets
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
        x = np.reshape(rigid, (-1, graph.dimension))[:-1, 0]
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
    """(f, lo, hi, x) of every one-scale bracket the catalog of graph x
    family bisects: f is F as the bound ``references.balance_source`` gives
    it, and x the root of the generated bisection."""
    calls = solver_calls(monkeypatch)
    build_catalog(graph, family)
    return [(lambda s, balance=_bound(graph, family, source=balance_source, key=(layout,)):
             balance([s])[0][0], *args, out[0][0])
            for layout, args, out in calls if len(args) == 2]


def square_brackets(monkeypatch, cases):
    """(f, lo, hi, x) of the square layout's bracket on the tetrahedron whose
    square sides are ``side`` and diagonals ``diagonal``, with a family
    whose g is the formula ``g``, for each (side, diagonal, g) of ``cases``:
    f is F as the bound ``references.balance_source`` gives it, and x the
    root of the generated bisection."""
    layout, calls, out = _LAYOUTS[3]["convex_quadrilateral"], solver_calls(monkeypatch), []
    for side, diagonal, g in cases:
        graph = tetrahedron_flex((side, diagonal, side, side, diagonal, side, 2.0))
        family = PotentialFamily("bracket", "e", g, "e ** 0")
        layout.solve(graph, family)
        [(_, (lo, hi), ([x], _, _))] = calls
        calls.clear()
        balance = _bound(graph, family, source=balance_source, key=(layout,))
        out.append((lambda s, balance=balance: balance([s])[0][0], lo, hi, x))
    return out


def test_bisection_ends_at_a_sign_change(monkeypatch):
    """On every one-scale bracket of the three certified graphs x both
    families, the generated bisection's root lies in [lo, hi] and either F
    is 0 there or a float next to it inside the bracket has the opposite
    sign of F.  So does it on the square layout at seeded side and diagonal
    lengths with seeded monotone cubic and rational g of either sign, and
    with F exactly 0 at lo (g = 0 where e <= 0, as the sides have e = 0
    there) or at hi (g = 0 where e >= -dbar^2 / 2), bit for bit where the
    reference bisection ends; and so does the reference bisection on seeded
    monotone cubics and rationals and with an exact zero at either end."""
    cases = [case for graph in (triangle_flex(), tetrahedron_flex(), TAILORED)
             for family in (QUADRATIC, RATIONAL)
             for case in one_scale_brackets(monkeypatch, graph, family)]
    assert len(cases) >= 4
    rng = np.random.default_rng(19)
    functions = []
    for _ in range(50):
        lo, r, hi = np.sort(rng.uniform(0.1, 10.0, 3)).tolist()
        a, b, c, sign = *rng.uniform(0.1, 5.0, 3).tolist(), rng.choice([-1.0, 1.0])
        functions.append((lambda x, a=a, b=b, r=r, s=sign: s * (a * (x - r) + b * (x - r) ** 3),
                          lo, hi))
        functions.append((lambda x, c=c, r=r, s=sign: s * (x - r) / (x + c), lo, hi))
    functions += [(lambda x: x - 2.0, 2.0, 3.0), (lambda x: x - 3.0, 2.0, 3.0)]
    brackets = []
    for sign in (1.0, -1.0):
        a, b, c = rng.uniform(0.1, 5.0, 3).tolist()
        for g in (f"{sign!r} * ({a!r} * e + {b!r} * (e * e * e))",
                  f"{sign!r} * e / (e * e + {c!r})"):
            brackets += [(*rng.uniform(0.5, 8.0, 2).tolist(), g) for _ in range(10)]
    brackets += [(1.0, 10.0, "1.0 if e > 0.0 else 0.0"),
                 (1.0, 10.0, "0.0 if e >= -0.5 * d2 else -1.0")]
    generated = square_brackets(monkeypatch, brackets)
    for f, lo, hi, x in generated:
        assert x == _bracketed_root(f, lo, hi)
    (f_lo, lo, _, x_lo), (f_hi, _, hi, x_hi) = generated[-2:]
    assert (x_lo, f_lo(lo), x_hi, f_hi(hi)) == (lo, 0.0, hi, 0.0)
    cases += generated + [(f, lo, hi, _bracketed_root(f, lo, hi)) for f, lo, hi in functions]
    for f, lo, hi, x in cases:
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


def test_bisection_has_no_iteration_cap(monkeypatch):
    """A step function on a huge bracket takes about a thousand halvings
    down to the adjacent floats around its jump, and the bisection takes
    them all: the reference bisection on a step at 0.5, and the generated
    one on the square layout with sides 1e-75 and diagonals 1e75 and
    g = 1 where e > 0, -1/2 elsewhere.  There F = 2x > 0 on (lo, hi] and
    F(lo) = -4 lo, so it takes 551 halvings, as the reference does, down to
    the float above lo = 1e-75; a catalog bracket takes about fifty."""
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 0.5 else 1.0

    assert _bracketed_root(step, -1e300, 1e300) == math.nextafter(0.5, 0.0)
    assert len(calls) == 1053
    [(f, lo, hi, x)] = square_brackets(monkeypatch, [(1e-75, 1e75, "1.0 if e > 0.0 else -0.5")])
    assert (lo, x) == (1e-75, math.nextafter(1e-75, math.inf))
    calls.clear()
    assert _bracketed_root(lambda s: calls.append(s) or f(s), lo, hi) == x
    assert len(calls) == 2 + 551


# a NaN and an infinity as terms of a family's formulas
NAN, INF = "(1e308 * 10.0 - 1e308 * 10.0)", "1e308 * 10.0"


@pytest.mark.parametrize("g", ["1e-200", "-1e-200", f"e + {NAN}", f"e if e >= 0.0 else e * {NAN}"],
                         ids=["underflow", "negative-underflow", "nan", "nan-end"])
def test_bisection_refuses_ends_of_one_sign(g, monkeypatch):
    """Ends whose signs agree are no bracket even when the product of their
    values underflows to 0, and a NaN end is none either: the equal
    tetrahedron's square layout with a family whose g is 1e-200 or -1e-200,
    NaN, or NaN where e < 0 (at lo, where the sides are short).  The
    generated bisection refuses it before any halving, with the message of
    the reference solve."""
    family, layout = PotentialFamily("ends", "e", g, "e ** 0"), _LAYOUTS[3]["convex_quadrilateral"]
    calls = solver_calls(monkeypatch)
    with pytest.raises(OracleError, match="bracket failed") as refused:
        layout.solve(tetrahedron_flex(), family)
    with pytest.raises(OracleError) as reference:
        layout_solve(layout, tetrahedron_flex(), family)
    assert str(refused.value) == str(reference.value)
    [(_, _, (x, _, _))] = calls
    assert x is None


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
    brackets = solver_calls(monkeypatch)
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


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph, topology", [
    pytest.param(triangle_flex((1.1, 2.3, 1.1, 2.0)), "triangle", id="triangle_1.1_2.3_1.1"),
    pytest.param(tetrahedron_flex((1.0,) * 5 + (3.0, 2.0)), "tetrahedron", id="tetrahedron_d34_3")])
def test_construct_equilibrium_refuses_unrealizable_lengths(monkeypatch, graph, topology, family):
    """Rigid lengths that form no triangle (1.1 + 1.1 < 2.3) or tetrahedron
    (d13 + d14 < d34 = 3) have no desired shape, and without one an
    undesired point need not be unstable: every subform's construction is
    refused with the message ``build_catalog`` gives, before any layout is
    solved, as is the catalog."""
    brackets = solver_calls(monkeypatch)
    message = f"{topology} distances are not realizable"
    for subform in _LAYOUTS[graph.dimension]:
        with pytest.raises(OracleError, match=message):
            construct_equilibrium(graph, family, subform)
    with pytest.raises(OracleError, match=message):
        build_catalog(graph, family)
    assert brackets == []


def test_catalog_computes_the_embedding_once(monkeypatch):
    """``build_catalog`` checks the rigid lengths once, by the embedding its
    flex-coincident entry takes, and builds each subform without computing
    it again."""
    import rigidflex.oracle as oracle

    calls, embedding = [], oracle._rigid_embedding
    monkeypatch.setattr(oracle, "_rigid_embedding",
                        lambda graph: calls.append(graph) or embedding(graph))
    for graph in (triangle_flex(), tetrahedron_flex()):
        for family in (QUADRATIC, RATIONAL):
            calls.clear()
            entries, _ = build_catalog(graph, family)
            assert entries and calls == [graph]


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
    """Cramer's rule gives no step when det J is exactly 0, as for 2 x 2
    (test_singular_or_nonfinite_seeds_do_not_converge): the reference
    ``_solve`` on a 3 x 3 with two proportional rows, and the generated
    Newton solve of the tetrahedron's distinct collinear layout where
    J = 9 [1 1 1]^T [1 1 1].  With g = dbar^2 - 16 and rho = 0 only the
    edge (1, 4), of length 5, pulls, so F = J x is not 0 at the seed, and
    the seed ends there, not converged."""
    import rigidflex.oracle as oracle

    assert _solve([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]], [1.0, 1.0, 1.0]) is None
    graph = tetrahedron_flex((4.0, 4.0, 5.0, 4.0, 4.0, 4.0, 2.0))
    family = PotentialFamily("rank-one", "e", "d2 - 16.0", "0.0 * e")
    newton = _bound(graph, family, source=_solver_source, key=(_LAYOUTS[3]["collinear_distinct"],))
    assert oracle.root(newton, [1.0, 1.0, 1.0]) == ([1.0, 1.0, 1.0], 27.0)


def layout_balances(graph, family):
    """(name, balance, box) of every multi-gap line layout of graph x family:
    the balance that ``references.balance_source`` writes from
    ``oracle._balance_lines``, the F and J that the generated Newton solve
    runs inline, bound to the graph's lengths as ``solve`` binds it, and
    the bound each gap of a root lies below
    (test_multi_gap_roots_lie_in_the_box)."""
    out = []
    for name, layout in _LAYOUTS[graph.dimension].items():
        if not layout.slots or max(layout.slots) < 2:
            continue
        slots = np.array(layout.slots)
        box = [max(db for e, ((i, j), db) in enumerate(zip(graph.edges, graph.desired))
                   if e != graph.flex_edge_index
                   and min(slots[i - 1], slots[j - 1]) <= k < max(slots[i - 1], slots[j - 1]))
               for k in range(max(layout.slots))]
        out.append((name, _bound(graph, family, source=balance_source, key=(layout,)),
                    np.array(box)))
    return out


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED],
                         ids=["triangle", "tetrahedron", "tailored"])
def test_layout_jacobian_matches_central_differences(graph, family):
    """The analytic Jacobian of every multi-gap line layout equals central
    differences of F to 1e-6 of its largest entry, at seeded gaps inside
    the box and at gaps of 1 % to 5 % of it, where the shortest edges sit
    near e = -dbar^2 and the rational g exceeds 1e5 in size.  The
    difference step is 1e-5 of the smallest gap: a smaller one would show
    the rounding of e = |z|^2 - dbar^2 there, not the Jacobian."""
    rng = np.random.default_rng(7)
    balances = layout_balances(graph, family)
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


def test_catalog_at_other_lengths_compiles_no_balance():
    """A layout's balance is compiled once per graph shape and family, with
    the lengths bound per graph (``control._bound``): after the equal
    triangle's and the equal tetrahedron's catalogs with both families, the
    tailored tetrahedron and a 3-4-5 triangle generate and compile no code,
    balance or edge pass (``control._generated`` misses nothing)."""
    import rigidflex.control as control

    for graph in (triangle_flex(), tetrahedron_flex()):
        for family in (QUADRATIC, RATIONAL):
            build_catalog(graph, family)
    misses = control._generated.cache_info().misses
    for graph in (TAILORED, triangle_flex((3.0, 4.0, 5.0, 2.0))):
        for family in (QUADRATIC, RATIONAL):
            entries, _ = build_catalog(graph, family)
            assert entries
    assert control._generated.cache_info().misses == misses


def test_second_catalog_binds_nothing(monkeypatch):
    """Every layout's balance is bound to the constants of its graph and
    family once (``control._bound``): a second catalog of an equal graph
    with the same family binds nothing and gives the same entries."""
    import rigidflex.control as control

    def catalog(graph, family):
        entries, failures = build_catalog(graph, family)
        return [(e.subform, e.method, e.positions.tobytes()) for e in entries], failures

    for make in (triangle_flex, tetrahedron_flex):
        for family in (QUADRATIC, RATIONAL):
            first = catalog(make(), family)
            misses = control._bound.cache_info().misses
            assert catalog(make(), family) == first
            assert control._bound.cache_info().misses == misses


def test_mirror_image_of_the_equal_triangle_line_is_exact():
    """Reflecting the equal triangle's distinct collinear layout swaps its two
    gaps.  The float balance sums each entry of F and J in one order, so at
    seeded gaps inside the box F(b, a) is F(a, b) reversed and J(b, a) is
    J(a, b) with its rows and columns reversed, bit for bit, whatever BLAS
    kernel runs; and the catalog's entry, reached from the symmetric seed,
    has g_12 == g_23 exactly."""
    graph = triangle_flex()
    [(name, balance, box)] = layout_balances(graph, QUADRATIC)
    assert name == "collinear_distinct"
    rng = np.random.default_rng(32)
    for a, b in (rng.uniform(0.05, 1.0, (20, 2)) * box).tolist():
        f, jacobian = balance([a, b])
        f_mirror, jacobian_mirror = balance([b, a])
        assert [v.hex() for v in f_mirror] == [v.hex() for v in f[::-1]], (a, b)
        assert ([[v.hex() for v in row] for row in jacobian_mirror()]
                == [[v.hex() for v in row[::-1]] for row in jacobian()[::-1]]), (a, b)
    entry = construct_equilibrium(graph, QUADRATIC, "collinear_distinct")
    g = dict(zip(graph.edges, edge_states(entry.positions, graph, QUADRATIC).g.tolist()))
    assert g[(1, 2)] == g[(2, 3)]


@pytest.mark.parametrize("lengths, g, rho, seed", [
    ((2.0, 8.0, 2.0, 2.0), "d2 - 4.0", "(d2 - 64.0) * e", (2.0, 2.0)),
    ((2.0, 8.0, 2.0, 2.0), "d2 - 4.0", "0.0 * e", (0.5, 0.5)),
    ((4.0,) * 4, f"e + {NAN}", "e ** 0", (1.0, 1.0)),
    ((4.0,) * 4, f"e + {INF}", "e ** 0", (1.0, 2.0)),
    ((4.0,) * 4, "e", f"e * 0.0 + {NAN}", (1.0, 1.0)),
    ((4.0,) * 4, "e", f"e * 0.0 + {INF}", (1.0, 1.0)),
], ids=["singular-J-at-seed", "singular-J-everywhere", "nan-F", "inf-F", "nan-J", "inf-J"])
def test_singular_or_nonfinite_seeds_do_not_converge(lengths, g, rho, seed):
    """A singular Jacobian or a non-finite F or J ends the seed: the seed
    counts as not converged, with no exception and no RuntimeWarning, where
    the reference Newton ends it, bit for bit.  Each case is the triangle's
    distinct collinear layout with a family that makes it.  With lengths 2,
    8, 2 and g = dbar^2 - 4 only the edge (1, 3) pulls, so J is
    60 [[1, 1], [1, 1]] where rho is 0 on the edges (1, 2) and (2, 3):
    everywhere when rho = 0, and at the seed (2, 2) alone, where e is 0
    there, when rho = (dbar^2 - 64) e.  A NaN or infinite g makes F so, and
    a NaN or infinite rho makes J so."""
    import rigidflex.oracle as oracle

    graph, family = triangle_flex(lengths), PotentialFamily("edge-case", "e", g, rho)
    layout = _LAYOUTS[2]["collinear_distinct"]
    newton = _bound(graph, family, source=_solver_source, key=(layout,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, residual = oracle.root(newton, list(seed))
        assert not residual < 1e-10
        reference, f = _newton(_bound(graph, family, source=balance_source, key=(layout,)),
                               list(seed))
        assert repr((x, residual)) == repr((reference, _max_abs(f)))
        with pytest.raises(OracleError, match="gap root-finder did not converge for t"):
            _multi_root(newton, [seed], "t")


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
def test_layout_balance_bits_are_pinned(name, family):
    """F and J of every multi-gap line layout at 20 seeded gaps inside the
    box are pinned bit for bit by one SHA-256 per graph and family: the
    roots, and so the catalog, follow from these bits."""
    import hashlib

    graph = {"triangle": triangle_flex(), "tetrahedron": tetrahedron_flex(),
             "tailored": TAILORED}[name]
    rng = np.random.default_rng(33)
    digest = hashlib.sha256()
    for _, balance, box in layout_balances(graph, family):
        for x in (rng.uniform(0.05, 1.0, (20, len(box))) * box).tolist():
            f, jacobian = balance(x)
            digest.update(" ".join(v.hex() for v in [*f, *sum(jacobian(), [])]).encode())
    assert digest.hexdigest() == BALANCE_BITS_SHA256[f"{name}-{family.name}"]


def solved(solve, *args) -> str:
    """The repr of ``solve(*args)``, or of the OracleError it raises: the
    same for two solves when their floats agree bit for bit, a NaN of
    either sign aside (the sign of a NaN sum follows the interpreter's
    specialisation of the add, not the operands)."""
    try:
        return repr(solve(*args))
    except OracleError as exc:
        return f"OracleError({str(exc)!r})"


def assert_solves_match_the_references(graph, family):
    """Every layout of graph x family solves, or refuses, as
    ``references.layout_solve`` does, bit for bit; and the generated Newton
    solve of every multi-gap layout ends where the reference Newton does
    from each of its seeds (scaled by 4), refused layouts included."""
    import rigidflex.oracle as oracle

    for name, layout in _LAYOUTS[graph.dimension].items():
        assert (solved(layout.solve, graph, family)
                == solved(layout_solve, layout, graph, family)), name
        if len(layout.templates) < 2:
            continue
        newton = _bound(graph, family, source=_solver_source, key=(layout,))
        balance = _bound(graph, family, source=balance_source, key=(layout,))
        for seed in layout.seeds:
            x = [4.0 * v for v in seed]
            reference, f = _newton(balance, x)
            assert repr(oracle.root(newton, x)) == repr((reference, _max_abs(f))), (name, seed)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=["quadratic", "rational"])
@pytest.mark.parametrize("graph", [
    triangle_flex(), triangle_flex((3.0, 4.0, 5.5, 2.0)), tetrahedron_flex(),
    tetrahedron_flex((3.0, 4.0, 3.0, 3.0, 4.0, 3.0, 2.0)), TAILORED],
    ids=["triangle", "triangle-3-4-5.5", "tetrahedron", "tetrahedron-3-4-3-3-4-3", "tailored"])
def test_generated_solvers_match_the_references(graph, family):
    """Each layout's generated bisection, Newton solve and placement give
    the interpreted references' positions, methods and messages bit for
    bit (``assert_solves_match_the_references``)."""
    assert_solves_match_the_references(graph, family)


def test_large_lengths_keep_the_absolute_residual_refusal():
    """With every length of the equal triangle times 16, the quadratic
    balance's residual at the root is above the absolute 1e-10 that
    ``_multi_root`` accepts, and the distinct collinear layout is still
    refused, with the reference's message (ROADMAP item 1)."""
    graph = dataclasses.replace(triangle_flex(), desired=(64.0,) * 4)
    layout = _LAYOUTS[2]["collinear_distinct"]
    message = solved(layout.solve, graph, QUADRATIC)
    assert message.startswith("OracleError('gap root-finder did not converge for the gaps")
    assert message == solved(layout_solve, layout, graph, QUADRATIC)
    assert build_catalog(graph, QUADRATIC)[1]["collinear_distinct"] == ast.literal_eval(
        message[len("OracleError("):-1])


@pytest.mark.parametrize("family, ks", [(RATIONAL, range(-10, 13)), (QUADRATIC, range(-10, 4))],
                         ids=["rational", "quadratic"])
@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED,
                                   triangle_flex((3.0, 4.0, 5.5, 2.0))],
                         ids=["triangle", "tetrahedron", "tailored", "triangle-3-4-5.5"])
def test_scaled_catalog_solves_match_the_references(graph, family, ks):
    """On every graph of test_catalogs_scale_exactly, with every length times
    2^k, each layout solves as the interpreted references do, bit for bit."""
    for k in ks:
        assert_solves_match_the_references(
            dataclasses.replace(graph, desired=tuple(math.ldexp(d, k) for d in graph.desired)),
            family)


@pytest.mark.parametrize("graph, family", [
    (triangle_flex(), QUADRATIC), (triangle_flex(), RATIONAL), (tetrahedron_flex(), QUADRATIC),
    (tetrahedron_flex(), RATIONAL), (TAILORED, QUADRATIC), (TAILORED, RATIONAL),
], ids=["triangle-quadratic", "triangle-rational", "tetrahedron-quadratic",
        "tetrahedron-rational", "tailored-quadratic", "tailored-rational"])
def test_one_multi_root_call_per_multi_gap_layout_attempt(graph, family, monkeypatch):
    """bench/spans.py counts a seed per ``oracle.root`` call and a useful
    attempt per ``oracle._multi_root`` call that returns, so
    ``oracle.root.success_ratio`` is useful attempts per seed.  A catalog
    calls ``_multi_root`` once per multi-gap layout that the refusals let
    through, and every ``root`` call, one per seed tried, comes from one."""
    import rigidflex.oracle as oracle

    seeds, attempts, multi_root = counted_root(monkeypatch), [], oracle._multi_root

    def counted(newton, tried, names):
        before = len(seeds)
        try:
            return multi_root(newton, tried, names)
        finally:
            attempts.append(len(seeds) - before)

    monkeypatch.setattr(oracle, "_multi_root", counted)
    _, failures = build_catalog(graph, family)
    multi = [name for name, layout in _LAYOUTS[graph.dimension].items()
             if len(layout.templates) > 1 and not REFUSALS.search(failures.get(name, ""))]
    assert len(attempts) == len(multi) > 0
    assert all(attempts) and sum(attempts) == len(seeds)


# SHA-256 of the generated root finder of every layout with a scale, per agent count and family
SOLVER_SOURCE_SHA256 = {
    "4-collinear_distinct-quadratic":
        "7a02f5deecb39cc5d595222f1983614fd62e2b9e8457119b54fa7f2ca5f1e1e3",
    "4-collinear_distinct-rational":
        "140416366f37cfce2ee2d99398e499aad40d07e61c31a06f80217a911c143727",
    "4-coincident_pair-quadratic":
        "1327809a508b242aa19a7d27a55e8fd87a75b3df9241b151205738243410b6ba",
    "4-coincident_pair-rational":
        "a6cf985a63ccf289e203a1c106ce95afb548d54079939d3852f67f182b197135",
    "5-convex_quadrilateral-quadratic":
        "449cb53cff56e9d10ee23db87dc28bfb0e5a3bc094956df68d1ddd4d7c8c7680",
    "5-convex_quadrilateral-rational":
        "3ef5a29eb4fcf2f6129981a0d80d4e6ee9efbcb86b71aaf352103af6bf0e0d88",
    "5-interior_point-quadratic":
        "4aa4eed822d271bdf953c820848b4c4b5b86638ae713ea012d3b35ab995b43da",
    "5-interior_point-rational":
        "f0af509e4c56b25d59a2bd189395449b0a6110fcdb48c1609747e68df01efc27",
    "5-triple_coincident-quadratic":
        "0e8740db865a8034c5753407e5512de02768ba9c919e9f7776758406c79b56c1",
    "5-triple_coincident-rational":
        "ef14a5018d862b7cd5ff38b5dc3eb6bc69d6d38fa235e73deac77d1dbe31f297",
    "5-double_pair-quadratic":
        "8f62bd8bb85fd3d9594038388cc9caba984fef1943ba64d45ae06bf8dcbfced0",
    "5-double_pair-rational":
        "65e53b62121a32154ac1dc1f805a23ffabb142d6268450ff1cf797484ae5f2dd",
    "5-pair_endpoint_collinear-quadratic":
        "fc7418e5f67df8b434c0834119eed64f123d3f5c23559e74968fe206ce782f58",
    "5-pair_endpoint_collinear-rational":
        "5844f8193368281a5ca606231384f7ad24d9f98dbae708723a28552fa2e514c0",
    "5-pair_interior_collinear-quadratic":
        "ff651c5985d3c326a90767246a64b2dd427694cae48bdb345405a94eba8c1121",
    "5-pair_interior_collinear-rational":
        "cad7845ac8c4883fedad46abe407ef14aa6ff1c9abf39042a1ea902b287ed1ec",
    "5-collinear_distinct-quadratic":
        "03fc894bfecf8785d170af6199c9383b4cd2169207423cc6091369c9d6891a4b",
    "5-collinear_distinct-rational":
        "2f7a34aa70f2ccdcc6f05ecb4e5912991cae41c29c35f23e41e68951d3fba82b",
}


def test_generated_solver_source_is_pinned():
    """The root finder ``_solver_source`` writes for every layout of the
    triangle and the tetrahedron with a scale, with both families, is
    pinned by its SHA-256: a change to the generator that changes any of
    these functions shows here, before it shows in a catalog."""
    import hashlib

    found = {}
    for graph in (triangle_flex(), tetrahedron_flex()):
        for name, layout in _LAYOUTS[graph.dimension].items():
            for family in (QUADRATIC, RATIONAL) if layout.templates else ():
                text = _solver_source(*graph._shape, family, layout)
                found[f"{graph.num_nodes}-{name}-{family.name}"] = \
                    hashlib.sha256(text.encode()).hexdigest()
    assert found == SOLVER_SOURCE_SHA256
