"""Hessian assembly, classification, witnesses, and sign-table verification."""

import itertools
import json
import math

import numpy as np
import pytest

from rigidflex.control import _evaluate, _pass, edge_states, gradient_control
from rigidflex.graph import FormationGraph, tetrahedron_flex, triangle_flex
from rigidflex.oracle import (
    OracleError,
    build_catalog,
    construct_equilibrium,
    desired_equilibrium,
    flex_coincident_equilibrium,
    newton_polish,
)
from rigidflex.potentials import QUADRATIC, RATIONAL, PotentialDomainError
from rigidflex.stability import (
    EQ_TOL,
    SIGN_CLAIMS,
    EquilibriumClass,
    StabilityReport,
    WitnessNotFoundError,
    analyze,
    _aligned_block,
    _claims,
    _classify,
    _simplex,
    _witness,
    assemble_hessian,
    classify,
)
from references import (
    TAILORED,
    _claim,
    aligned_last_block,
    balance_residuals,
    bincount_hessian,
    bind,
    claim_rows,
    dict_claim,
    dict_classify,
    dict_simplex,
    einsum_witness,
    loop_aligned_block,
    psd_check,
    rows_witness,
    svd_classify,
    verify_angle_inequalities,
)
from test_integrator import counting_pass

RNG = np.random.default_rng(7)


def fd_jacobian(p, graph, family, h=1e-6):
    """Central finite differences of the negative control field."""
    p = np.asarray(p, dtype=float).reshape(-1)
    n = p.size
    jac = np.zeros((n, n))
    for k in range(n):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        jac[:, k] = (-gradient_control(pp, graph, family)
                     + gradient_control(pm, graph, family)) / (2 * h)
    return jac


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_hessian_matches_finite_differences(graph, family):
    for _ in range(5):
        p = RNG.uniform(-5, 5, (graph.num_nodes, graph.dimension))
        h = assemble_hessian(p, graph, family)
        fd = fd_jacobian(p, graph, family)
        scale = max(1.0, np.abs(h).max())
        assert np.abs(h - fd).max() / scale < 1e-6


def test_hessian_block_row_sums_vanish():
    g = tetrahedron_flex()
    p = RNG.uniform(-5, 5, (5, 3))
    h = assemble_hessian(p, g, QUADRATIC)
    d = g.dimension
    total = sum(h[i * d:(i + 1) * d, :] for i in range(g.num_nodes))
    assert np.abs(total).max() < 1e-12


def reference_hessian(p, graph, family):
    """Per-edge loop: M = 2 rho z z^T + g I added to the (i, i) and (j, j)
    node blocks and subtracted from (i, j) and (j, i)."""
    st = edge_states(p, graph, family)
    d = graph.dimension
    h = np.zeros((graph.num_nodes * d, graph.num_nodes * d))
    with np.errstate(invalid="ignore"):
        for k, (i, j) in enumerate(graph.edges):
            m = 2.0 * st.rho[k] * np.outer(st.z[k], st.z[k]) + st.g[k] * np.eye(d)
            si, sj = slice((i - 1) * d, i * d), slice((j - 1) * d, j * d)
            h[si, si] += m
            h[sj, sj] += m
            h[si, sj] -= m
            h[sj, si] -= m
    return h


def add_at_hessian(p, graph, family):
    """The Hessian scattered with np.add.at into (N+1, N+1, d, d) node blocks,
    the edge blocks at (i, i), (j, j), (i, j), (j, i) in edge order."""
    st = edge_states(p, graph, family)
    n, d = graph.num_nodes, graph.dimension
    with np.errstate(invalid="ignore", over="ignore"):
        m = 2.0 * st.rho[:, None, None] * (st.z[:, :, None] * st.z[:, None, :]) \
            + st.g[:, None, None] * np.eye(d)
        tails, heads = graph.edge_tails, graph.edge_heads
        rows = np.stack([tails, heads, tails, heads], axis=1).ravel()
        cols = np.stack([tails, heads, heads, tails], axis=1).ravel()
        h = np.zeros((n, n, d, d))
        np.add.at(h, (rows, cols), np.stack([m, m, -m, -m], axis=1).reshape(-1, d, d))
    return h.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_hessian_matches_per_edge_loop(graph, family):
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(-5, 5, (graph.num_nodes, graph.dimension))
        h, ref = assemble_hessian(p, graph, family), reference_hessian(p, graph, family)
        assert h.shape == ref.shape
        assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()
        assert h.tobytes() == add_at_hessian(p, graph, family).tobytes()
    # a coincident rational edge makes its four node blocks non-finite, no others
    p[-1] = p[-2]
    h, ref = assemble_hessian(p, graph, family), reference_hessian(p, graph, family)
    assert h.tobytes() == add_at_hessian(p, graph, family).tobytes()
    finite = np.isfinite(ref)
    np.testing.assert_array_equal(np.isfinite(h), finite)
    assert finite.all() == (family is QUADRATIC)
    d = graph.dimension
    flex_blocks = np.zeros_like(finite)
    flex_blocks[-2 * d:, -2 * d:] = True
    assert not (~finite & ~flex_blocks).any()
    assert np.abs(h[finite] - ref[finite]).max() <= 1e-13 * np.abs(ref[finite]).max()


# the complete graph on four rigid agents in the plane: uncertified, yet analyzed
K4_PLANE = FormationGraph(num_nodes=5, dimension=2,
                          edges=(*itertools.combinations(range(1, 5), 2), (4, 5)),
                          desired=(4.0, 5.0, 4.5, 3.0, 4.0, 5.5, 2.0), flex_edge=(4, 5))


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), K4_PLANE],
                         ids=["triangle", "tetrahedron", "k4_plane"])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_generated_hessian_equals_the_bincount_reference_bit_for_bit(graph, family):
    """The generated H is byte for byte the Hessian that numpy scattered
    with bincount: at seeded random points, with the flex agent on its
    anchor (a coincident edge: an infinite rational g, NaN entries) and with
    a NaN or an infinite coordinate, whose NaN sign bits it must keep."""
    rng = np.random.default_rng(37)
    n, d = graph.num_nodes, graph.dimension
    points = [rng.uniform(-5, 5, (n, d)) for _ in range(20)]
    for bad in (np.nan, -np.nan, np.inf, -np.inf):
        p = rng.uniform(-5, 5, (n, d))
        p[rng.integers(n), rng.integers(d)] = bad
        points.append(p)
    for p in points[:4]:
        coincident = p.copy()
        coincident[-1] = coincident[-2]
        points.append(coincident)
    assert np.isnan(assemble_hessian(points[-1], graph, family)).any() == (family is RATIONAL)
    for p in points:
        _, _, _, z, g, rho = _evaluate(p, graph, family)
        h = assemble_hessian(p, graph, family)
        assert h.shape == (n * d, n * d)
        assert h.tobytes() == bincount_hessian(z, g, rho, graph).tobytes()
    assert analyze(points[0], graph, family).classification.kind == "not_equilibrium"


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), K4_PLANE],
                         ids=["triangle", "tetrahedron", "k4_plane"])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_aligned_block_equals_the_edge_loop_bit_for_bit(graph, family):
    """The aligned block, generated per shape as the axis projection z_k . r
    and then the Hessian in one dimension, is byte for byte the Laplacian
    that a loop over the edges sums from ``_dot`` projections, along seeded
    unit axes: at seeded random points, with a coincident pair (an
    infinite rational g, NaN entries) and with a NaN or an infinite
    coordinate, whose NaN sign bits it must keep."""
    rng = np.random.default_rng(39)
    n, d = graph.num_nodes, graph.dimension
    points = [rng.uniform(-5, 5, (n, d)) for _ in range(20)]
    for bad in (np.nan, -np.nan, np.inf, -np.inf):
        for _ in range(3):
            p = rng.uniform(-5, 5, (n, d))
            p[rng.integers(n), rng.integers(d)] = bad
            points.append(p)
    for _ in range(6):
        p = rng.uniform(-5, 5, (n, d))
        a, b = rng.choice(n, 2, replace=False)
        p[a] = p[b]
        points.append(p)
    nan_blocks = 0
    for p in points:
        _, _, _, z, g, rho = _evaluate(p, graph, family)
        r = rng.standard_normal(d)
        r = tuple((r / np.linalg.norm(r)).tolist())
        block = np.array(_aligned_block(z, g, rho, r, graph))
        assert block.shape == (n * n,)
        assert block.tobytes() == np.array(loop_aligned_block(z, g, rho, r, graph)).tobytes()
        nan_blocks += bool(np.isnan(block).any())
    assert nan_blocks >= 6


def test_hessian_and_polish_call_no_bincount_or_stack(monkeypatch):
    """analyze, assemble_hessian and newton_polish build H without numpy's
    bincount or stack: with both made to raise they still run."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy scatter in the Hessian")

    rng, g = np.random.default_rng(38), tetrahedron_flex()
    pushed = {family: construct_equilibrium(g, family, "interior_point").positions
              + 1e-6 * rng.standard_normal((5, 3)) for family in (QUADRATIC, RATIONAL)}
    for name in ("bincount", "stack"):
        monkeypatch.setattr(np, name, refuse)
    for graph in (triangle_flex(), g, K4_PLANE):
        for family in (QUADRATIC, RATIONAL):
            p = rng.uniform(-5, 5, (graph.num_nodes, graph.dimension))
            assert assemble_hessian(p, graph, family).shape == (p.size, p.size)
            assert analyze(p, graph, family).spectrum is not None
    for family, p in pushed.items():
        assert analyze(newton_polish(p, g, family), g, family).witness is not None


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_aligned_last_block_equals_block_at_rotated_positions(graph, family):
    """The Laplacian of the edge weights w along the unit vector r, the last
    row of a rotation R, is the last-axis block of the Hessian re-assembled
    at the rotated realization p R^T, and r^T H_ij r read from the full
    Hessian (the einsum reference)."""
    rng = np.random.default_rng(12)
    d = graph.dimension
    for _ in range(10):
        p = rng.uniform(-5, 5, (graph.num_nodes, d))
        rot = random_rotation(rng, d)
        st = edge_states(p, graph, family)
        block = np.reshape(_aligned_block(st.z.ravel().tolist(), st.g.tolist(), st.rho.tolist(),
                                          tuple(rot[-1].tolist()), graph), (graph.num_nodes,) * 2)
        moved = assemble_hessian(p @ rot.T, graph, family)[d - 1::d, d - 1::d]
        read = aligned_last_block(assemble_hessian(p, graph, family), rot[-1])
        for other in (moved, read):
            assert np.abs(block - other).max() <= 1e-12 * np.abs(other).max()


def test_rigid_motion_null_space_at_desired_equilibrium():
    for g in (triangle_flex(), tetrahedron_flex()):
        p = desired_equilibrium(g)
        h = assemble_hessian(p, g, QUADRATIC)
        d = g.dimension
        # translations
        for c in np.eye(d):
            v = np.tile(c, g.num_nodes)
            assert np.abs(h @ v).max() < 1e-10
        # infinitesimal rotations about the centroid
        centered = p - p.mean(axis=0)
        if d == 2:
            spins = [np.array([[0.0, -1.0], [1.0, 0.0]])]
        else:
            spins = []
            for a, b in itertools.combinations(range(3), 2):
                s = np.zeros((3, 3))
                s[a, b], s[b, a] = -1.0, 1.0
                spins.append(s)
        for s in spins:
            v = (centered @ s.T).reshape(-1)
            assert np.abs(h @ v).max() < 1e-10


def test_psd_check_at_desired_equilibrium():
    g = triangle_flex()
    p = desired_equilibrium(g)
    h = assemble_hessian(p, g, QUADRATIC)
    min_eig, is_psd = psd_check(h)
    assert is_psd
    assert min_eig > -1e-10
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_classify_desired_and_non_equilibrium():
    g = triangle_flex()
    p = desired_equilibrium(g)
    assert classify(p, g, QUADRATIC).kind == "desired"
    p2 = p.copy()
    p2[0] += 1.0
    assert classify(p2, g, QUADRATIC).kind == "not_equilibrium"


def test_classify_flex_coincident():
    g = tetrahedron_flex()
    p = flex_coincident_equilibrium(g)
    cls = classify(p, g, QUADRATIC)
    assert cls.kind == "flex_coincident"
    assert cls.diagnostics["flex_gap"] < 1e-12


def test_classify_collinear_subform():
    g = triangle_flex()
    entry = construct_equilibrium(g, QUADRATIC, "collinear_distinct")
    cls = classify(entry.positions, g, QUADRATIC)
    assert cls.kind == "degenerate_rigid"
    assert cls.subform == "collinear_distinct"


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
def test_classify_axis_is_a_normal_of_the_layout(graph):
    """At every rotated catalog entry the class's axis r is a unit vector
    with its largest component positive, orthogonal to the rigid agents'
    span (to the face of all agents but the anchor at a flex-coincident
    point), also with the flex agent moved onto its anchor, which makes a
    flex-coincident point at a degenerate shape.  Where that span leaves
    room (a line in 3-D, coincident agents) r is orthogonal to the flex edge
    too, and the aligned block is the g-weighted Laplacian of the edges."""
    rng = np.random.default_rng(5)
    d = graph.dimension
    laid = 0
    for entry in build_catalog(graph, QUADRATIC)[0]:
        p = entry.positions @ random_rotation(rng, d).T + rng.standard_normal(d)
        span = p[:d] if entry.kind == "flex_coincident" else p[:-1]
        collapsed = np.vstack([p[:-1], p[-2]])
        for q, kind in ((collapsed, "flex_coincident"), (p, entry.kind)):
            cls = classify(q, graph, QUADRATIC)
            r = np.array(cls.axis)
            assert cls.kind == kind
            assert abs(np.linalg.norm(r) - 1.0) < 1e-15
            assert r[np.abs(r).argmax()] > 0
            assert np.abs((span - span[0]) @ r).max() < 1e-12
        if np.linalg.matrix_rank(span - span[0], 1e-9) < d - 1:
            laid += 1
            st = edge_states(p, graph, QUADRATIC)
            assert np.abs(st.z @ r).max() < 1e-12
            laplacian = np.zeros((graph.num_nodes,) * 2)
            for (i, j), g in zip(graph.edges, st.g):
                laplacian[np.ix_([i - 1, j - 1], [i - 1, j - 1])] += [[g, -g], [-g, g]]
            block = aligned_last_block(assemble_hessian(p, graph, QUADRATIC), r)
            np.testing.assert_allclose(block, laplacian, rtol=0, atol=1e-12)
            block = _aligned_block(st.z.ravel().tolist(), st.g.tolist(), st.rho.tolist(),
                                   cls.axis, graph)
            np.testing.assert_allclose(np.reshape(block, laplacian.shape), laplacian,
                                       rtol=0, atol=1e-12)
    # all_coincident in 2-D; the four line forms the quadratic family
    # builds on the equal tetrahedron
    assert laid == (1 if d == 2 else 4)


def test_flex_sum_witness_form_equals_flex_gradient():
    """At the flex-coincident equilibrium the certified direction's quadratic
    form equals the flex edge's potential gradient exactly."""
    for g in (triangle_flex(), tetrahedron_flex()):
        p = flex_coincident_equilibrium(g)
        w = analyze(p, g, QUADRATIC).witness
        assert w.tag == "flex_sum"
        dbar_f = g.desired[g.flex_edge_index]
        g_f = bind(QUADRATIC, np.asarray(dbar_f))[1](np.asarray(-dbar_f**2))
        assert w.quadratic_form == pytest.approx(float(g_f), abs=1e-12)


def test_indicator_witness_form_equals_incident_gradient_sum():
    g = triangle_flex()
    entry = construct_equilibrium(g, QUADRATIC, "collinear_distinct")
    w = analyze(entry.positions, g, QUADRATIC).witness
    assert w.tag == "agent_indicator"
    agent = int(np.argmax(np.abs(w.vector))) + 1
    from rigidflex.control import edge_states
    st = edge_states(entry.positions, g, QUADRATIC)
    incident = sum(st.g[k] for k, (i, j) in enumerate(g.edges) if agent in (i, j))
    assert w.quadratic_form == pytest.approx(incident, abs=1e-9)


def test_witness_full_vector_is_negative_direction_of_full_hessian():
    g = tetrahedron_flex()
    entries, _ = build_catalog(g, QUADRATIC)
    for entry in entries:
        h = assemble_hessian(entry.positions, g, QUADRATIC)
        w = analyze(entry.positions, g, QUADRATIC).witness
        q_full = float(w.full_vector @ h @ w.full_vector)
        assert q_full == pytest.approx(w.quadratic_form, rel=1e-9, abs=1e-9)
        assert q_full < 0


def test_witness_refused_for_desired_equilibrium(monkeypatch):
    """A class without an axis, desired or unrecognized, gets no witness
    from analyze.  With GEOM_TOL at 0 no rigid layout counts as degenerate,
    so a collinear equilibrium classifies as unrecognized."""
    import rigidflex.stability as stability

    g = triangle_flex()
    report = analyze(desired_equilibrium(g), g, QUADRATIC)
    assert report.classification.kind == "desired"
    assert report.witness is None and report.claims == []
    p = construct_equilibrium(g, QUADRATIC, "collinear_distinct").positions
    monkeypatch.setattr(stability, "GEOM_TOL", 0.0)
    report = analyze(p, g, QUADRATIC)
    assert report.classification.kind == "unrecognized"
    assert report.witness is None and report.claims == []


def forged_block():
    """A desired-shape triangle misclassified on purpose as degenerate along
    (0, 1), its aligned block (positive semidefinite), and its Hessian."""
    g = triangle_flex()
    p = desired_equilibrium(g)
    cls = classify(p, g, QUADRATIC)
    forged = type(cls)(kind="degenerate_rigid", subform="collinear_distinct",
                       diagnostics={}, ambiguous=False, axis=(0.0, 1.0))
    st = edge_states(p, g, QUADRATIC)
    block = _aligned_block(st.z.ravel().tolist(), st.g.tolist(), st.rho.tolist(), forged.axis, g)
    return forged, block, assemble_hessian(p, g, QUADRATIC)


def test_witness_not_found_is_raised_not_faked():
    """No candidate form of a positive semidefinite block passes: the error
    names the least form and the threshold, and the einsum reference finds
    no witness either."""
    forged, block, h = forged_block()
    with pytest.raises(WitnessNotFoundError, match="least candidate form, agent_indicator "
                                                   "2.400e[+]01, is not below the threshold "
                                                   "-8.000e-09"):
        _witness(block, forged)
    assert einsum_witness(aligned_last_block(h, forged.axis), forged) is None


def test_sign_properties_pass_on_catalog():
    for g, fam in [(triangle_flex(), QUADRATIC), (tetrahedron_flex(), QUADRATIC),
                   (triangle_flex(), RATIONAL), (tetrahedron_flex(), RATIONAL)]:
        entries, _ = build_catalog(g, fam)
        for entry in entries:
            if entry.kind != "degenerate_rigid":
                continue
            claims = analyze(entry.positions, g, fam).claims
            assert claims, entry.subform
            assert all(c.passed for c in claims), (entry.subform,
                                                   [c.description for c in claims
                                                    if not c.passed])


def test_coincidence_clusters_match_a_pairwise_loop(monkeypatch):
    """The clusters from the pairwise distances equal those of a loop over
    pairs until nothing changes (single linkage below POS_TOL, each cluster
    named by its lowest index), on grids of spacing 0.7 POS_TOL that form
    pairs, chains and loners."""
    import rigidflex.stability as stability

    rng = np.random.default_rng(11)
    tol = 1e-3
    monkeypatch.setattr(stability, "POS_TOL", tol)
    for _ in range(300):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        pts = 0.7 * tol * rng.integers(0, 4, (n, d)) + rng.uniform(-1e-6, 1e-6, (n, d))
        ref = list(range(n))
        changed = True
        while changed:
            changed = False
            for a, b in itertools.permutations(range(n), 2):
                if np.linalg.norm(pts[a] - pts[b]) < tol and ref[b] < ref[a]:
                    ref[a], changed = ref[b], True
        length = [np.linalg.norm(pts[b] - pts[a]) for a, b in itertools.combinations(range(n), 2)]
        assert stability._coincidence_clusters(length, n) == ref


def relabelled(p, perm):
    """Agent perm[a] + 1 takes the place of rigid agent a + 1; the flex agent
    keeps its offset from its anchor, the last rigid agent."""
    q = p.copy()
    q[list(perm)] = p[:-1]
    q[-1] = q[-2] + (p[-1] - p[-2])
    return q


def test_planar_roles_are_the_canonical_hull_cycle():
    """Under every relabelling of the equal tetrahedron's planar entries the
    square's roles are its hull cycle from label 1 toward the smaller
    neighbour, and the centred triangle lists the centre last."""
    g = tetrahedron_flex()
    for subform in ("convex_quadrilateral", "interior_point"):
        p = construct_equilibrium(g, QUADRATIC, subform).positions
        for perm in itertools.permutations(range(4)):
            labels = [a + 1 for a in perm]       # in the construction's order
            if subform == "interior_point":
                expected = (*sorted(labels[:3]), labels[3])
            else:
                start = labels.index(1)
                cycle = labels[start:] + labels[:start]
                if cycle[1] > cycle[3]:
                    cycle = [cycle[0], *cycle[:0:-1]]
                expected = tuple(cycle)
            cls = classify(relabelled(p, perm), g, QUADRATIC)
            assert (cls.subform, cls.roles) == (subform, expected), perm


def test_line_roles_follow_the_slots_under_relabelling():
    """Relabelled line layouts of the equal tetrahedron: the distinct
    collinear roles run along the line from the smaller end label, and the
    pair-interior roles are the pair, then the singles, each ascending."""
    g = tetrahedron_flex()
    distinct = construct_equilibrium(g, RATIONAL, "collinear_distinct").positions
    interior = construct_equilibrium(g, QUADRATIC, "pair_interior_collinear").positions
    for perm in itertools.permutations(range(4)):
        labels = [a + 1 for a in perm]           # in the construction's order
        cls = classify(relabelled(distinct, perm), g, RATIONAL)
        line = labels if labels[0] < labels[3] else labels[::-1]
        assert (cls.subform, cls.roles) == ("collinear_distinct", tuple(line)), perm
        cls = classify(relabelled(interior, perm), g, QUADRATIC)
        expected = (*sorted(labels[:2]), *sorted(labels[2:]))
        assert (cls.subform, cls.roles) == ("pair_interior_collinear", expected), perm


def test_sign_claims_use_the_roles_of_the_given_classification(monkeypatch):
    """A coincident pair pushed 1e-5 along its line polishes onto a collinear
    equilibrium with the pair about 1e-5 apart.  Classified with POS_TOL
    1e-3 it is still a coincident pair, and its claims are read at that
    classification's roles: the two g = 0 claims fail, as they should."""
    import rigidflex.stability as stability

    g = triangle_flex()
    p = construct_equilibrium(g, QUADRATIC, "coincident_pair").positions.copy()
    p[1, 0] += 1e-5
    p = newton_polish(p, g, QUADRATIC).reshape(p.shape)
    assert 1e-6 < np.linalg.norm(p[1] - p[2]) < 1e-3
    assert classify(p, g, QUADRATIC).subform == "collinear_distinct"
    monkeypatch.setattr(stability, "POS_TOL", 1e-3)
    cls = classify(p, g, QUADRATIC)
    claims = _claims(edge_states(p, g, QUADRATIC).g.tolist(), g, cls)
    assert [(c.description, c.passed) for c in claims] == [
        ("g_23 < 0", True), ("g_12 = 0", False), ("g_13 = 0", False)]
    assert (cls.subform, cls.roles) == ("coincident_pair", (1, 2, 3))


def test_analyze_report_serializes():
    import json
    g = triangle_flex()
    entry = construct_equilibrium(g, QUADRATIC, "collinear_distinct")
    report = analyze(entry.positions, g, QUADRATIC)
    doc = json.dumps(report.to_json_dict(), allow_nan=False)
    assert "collinear_distinct" in doc
    assert report.witness is not None
    assert not report.positive_semidefinite


def test_analyze_desired_is_psd():
    g = tetrahedron_flex()
    report = analyze(desired_equilibrium(g), g, QUADRATIC)
    assert report.classification.kind == "desired"
    assert report.positive_semidefinite
    assert report.witness is None


def test_angle_inequalities_regular_tetrahedron():
    lengths = {pair: 4.0 for pair in itertools.combinations(range(1, 5), 2)}
    claims = verify_angle_inequalities(lengths)
    assert all(c.passed for c in claims)
    sums = [c.value for c in claims if "angle sum" in c.description]
    np.testing.assert_allclose(sums, 180.0, atol=1e-9)


def test_angle_inequalities_reject_degenerate_lengths():
    lengths = {pair: 4.0 for pair in itertools.combinations(range(1, 5), 2)}
    lengths[(1, 2)] = 8.0  # collapses the tetrahedron onto a plane (and worse)
    with pytest.raises(ValueError):
        verify_angle_inequalities(lengths)


# Cayley-Menger determinant 468 > 0, yet the Gram matrix at vertex 1 has
# eigenvalues (-3.67, -1.02, 15.69) and every face breaks the triangle
# inequality: a positive determinant does not prove the lengths embed
NON_EMBEDDING = {(1, 2): 1.0, (1, 3): 1.0, (1, 4): 3.0, (2, 3): 3.0, (2, 4): 1.0, (3, 4): 5.0}


def test_angle_inequalities_reject_lengths_with_positive_determinant():
    with pytest.raises(ValueError, match="do not embed"):
        verify_angle_inequalities(NON_EMBEDDING)
    regular = {pair: 4.0 for pair in NON_EMBEDDING}
    stack = {pair: np.array([regular[pair], NON_EMBEDDING[pair], regular[pair]])
             for pair in NON_EMBEDDING}
    with pytest.raises(ValueError, match="do not embed"):
        verify_angle_inequalities(stack)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_angle_inequalities_reject_non_finite_length(bad):
    lengths = {pair: 4.0 for pair in NON_EMBEDDING}
    lengths[(2, 4)] = bad
    with pytest.raises(ValueError, match="do not embed"):
        verify_angle_inequalities(lengths)


def test_angle_inequalities_of_a_stack_match_one_at_a_time():
    """Each claim of a stacked call has the stack's shape, and each member
    equals the claim of the one-set call."""
    pts = np.random.default_rng(3).uniform(-5, 5, (2, 3, 4, 3))
    lengths = {(i + 1, j + 1): np.linalg.norm(pts[..., i, :] - pts[..., j, :], axis=-1)
               for i, j in itertools.combinations(range(4), 2)}
    stacked = verify_angle_inequalities(lengths)
    for idx in np.ndindex(2, 3):
        single = verify_angle_inequalities({k: float(v[idx]) for k, v in lengths.items()})
        assert [c.description for c in single] == [c.description for c in stacked]
        for one, many in zip(single, stacked):
            assert many.value.shape == many.passed.shape == (2, 3)
            assert one.value == many.value[idx] and one.passed == many.passed[idx]


def test_classify_runs_one_kernel_pass(monkeypatch):
    """classify takes the edge states and the balance residual from one pass."""
    calls = {"pass": 0}
    counting_pass(monkeypatch, calls)
    g = triangle_flex()
    rng = np.random.default_rng(4)
    points = [desired_equilibrium(g), flex_coincident_equilibrium(g),
              construct_equilibrium(g, QUADRATIC, "collinear_distinct").positions,
              rng.uniform(-3.0, 3.0, (g.num_nodes, g.dimension))]
    for p in points:
        residual = float(balance_residuals(p, g, QUADRATIC).max())
        calls["pass"] = 0
        cls = classify(p, g, QUADRATIC)
        assert calls["pass"] == 1
        assert cls.diagnostics["residual"] == residual


def test_analyze_assembles_once_and_aligns_once(monkeypatch):
    """One analyze at a moved 3-D catalog point or the desired shape: one
    edge pass, shared by the class, the Hessian, the aligned block and the
    sign claims, one Hessian, and one aligned block, by the shape's
    generated ``aligned`` (no 1-D Hessian is made), none for the desired
    class, which has no axis."""
    import rigidflex.stability as stability

    counts = dict.fromkeys(("pass", "hessian 3-D", "aligned 3-D", "_aligned_block"), 0)

    def counted(name, key):
        fn = getattr(stability, name)

        def wrapper(*args, **kwargs):
            counts[key(*args)] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(stability, name, wrapper)

    counting_pass(monkeypatch, counts)
    counted("_hessian_pass", lambda shape: f"hessian {shape[3]}-D")
    counted("_aligned_pass", lambda shape: f"aligned {shape[3]}-D")
    counted("_aligned_block", lambda *args: "_aligned_block")
    g = tetrahedron_flex()
    entries, _ = build_catalog(g, QUADRATIC)
    rng = np.random.default_rng(13)
    targets = [(e.kind, e.positions) for e in entries] + [("desired", desired_equilibrium(g))]
    for kind, pos in targets:
        p = pos @ random_rotation(rng, 3).T + rng.standard_normal(3)
        counts.update(dict.fromkeys(counts, 0))
        report = analyze(p, g, QUADRATIC)
        assert report.classification.kind == kind
        assert (report.witness is not None) == (kind != "desired")
        aligned = int(kind != "desired")
        assert counts == {"pass": 1, "hessian 3-D": 1, "aligned 3-D": aligned,
                          "_aligned_block": aligned}


def reference_claim(spec, roles, g, zero_tol=1e-9):
    """Reference evaluator that parses a SIGN_CLAIMS row on every call:
    (description, value, passed)."""
    if " or " in spec:
        parts = [reference_claim(part, roles, g, zero_tol) for part in spec.split(" or ")]
        return (" or ".join(p[0] for p in parts), min(p[1] for p in parts),
                any(p[2] for p in parts))

    def g_sum(terms):
        names, value = [], 0.0
        for term in terms.split("+"):
            if term[0] == "@":
                a = roles["ijkl".index(term[1])]
                names.append(f"sum_g at {a}")
                total = 0.0                 # left to right: no compensated sum
                for b in roles:
                    if b != a:
                        total += g[min(a, b), max(a, b)]
                value += total
            else:
                a, b = sorted(roles["ijkl".index(r)] for r in term)
                names.append(f"g_{a}{b}")
                value += g[a, b]
        return "+".join(names), value

    terms, relation, _ = spec.rsplit(" ", 2)
    if " ? " in terms:
        pivot, options = terms.split(" ? ")
        gp = g_sum(pivot)[1]
        terms = options.split(" : ")[(gp >= -zero_tol) + (gp > zero_tol)]
    name, value = g_sum(terms)
    passed = {"<": value < 0, ">": value > 0, "=": abs(value) <= zero_tol}[relation]
    return f"{name} {relation} 0", value, passed


@pytest.mark.parametrize("d", [2, 3])
def test_parsed_sign_claims_equal_the_per_call_parser(d):
    """Every SIGN_CLAIMS row, at every role order, over g values that hit
    each branch of a pivot (negative, zero to the tolerance's edge, positive):
    the generated claims, read from a g list in edge order whose flex entry
    is NaN, give the reference's description, value bits and verdict."""
    rng = np.random.default_rng(23)
    labels = range(1, d + 2)
    graph = triangle_flex() if d == 2 else tetrahedron_flex()
    for subform, specs in SIGN_CLAIMS[d].items():
        for roles in itertools.permutations(labels):
            cls = EquilibriumClass(kind="degenerate_rigid", subform=subform, roles=roles)
            for _ in range(4):
                g = {pair: float(rng.choice([0.0, 1e-9, -1e-9, rng.standard_normal()]))
                     for pair in itertools.combinations(labels, 2)}
                claims = _claims([*map(g.__getitem__, graph.edges[:-1]), math.nan], graph, cls)
                assert len(claims) == len(specs)
                for c, spec in zip(claims, specs):
                    ref = reference_claim(spec, roles, g)
                    assert (c.description, c.value.hex(), c.passed) == (ref[0], ref[1].hex(), ref[2])


def test_sign_claims_sum_left_to_right():
    """A sum_g term adds its g values left to right from 0.0, the rule of
    every sum in the package: 1e16 + 1.0 rounds to 1e16, so the claim's
    value is 0.0, where a compensated sum (math.fsum, or the builtin sum
    from Python 3.12) gives 1.0."""
    g = [1e16, 1.0, -1e16, 0.0, 0.0, 0.0, 0.0]         # g_12, g_13, g_14 first
    assert math.fsum(g) == 1.0
    cls = EquilibriumClass(kind="degenerate_rigid", subform="convex_quadrilateral",
                           roles=(1, 2, 3, 4))
    claims = {c.description: c for c in _claims(g, tetrahedron_flex(), cls)}
    assert claims["sum_g at 1 < 0"].value == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_generated_claims_equal_the_interpreter_and_dict_claim_bit_for_bit(d):
    """The generated claims of every subform at every role order equal, in
    description, value and verdict, the interpreter that read the rows one
    claim at a time (``claim_rows`` and ``_claim``) and ``dict_claim``, which
    parses each row on the call: over g values of every sign, +-0.0, each
    side of the zero tolerance, +-inf and NaN, with the flex entry NaN."""
    rng = np.random.default_rng(29)
    labels = range(1, d + 2)
    graph = triangle_flex() if d == 2 else tetrahedron_flex()
    choices = [0.0, -0.0, 1e-9, -1e-9, 2e-9, -2e-9, math.inf, -math.inf, math.nan]
    for subform, specs in SIGN_CLAIMS[d].items():
        for roles in itertools.permutations(labels):
            cls = EquilibriumClass(kind="degenerate_rigid", subform=subform, roles=roles)
            rows = claim_rows(d, subform, roles, graph.edges)
            for case in range(6):
                by_pair = {pair: float(rng.choice(choices)) if rng.random() < 0.3 * (case > 0)
                           else float(rng.standard_normal()) for pair in graph.edges[:-1]}
                g = [*map(by_pair.__getitem__, graph.edges[:-1]), math.nan]
                got = [(c.description, c.value.hex(), c.passed) for c in _claims(g, graph, cls)]
                assert got == [(c.description, c.value.hex(), c.passed)
                               for c in (_claim(row, g) for row in rows)]
                assert got == [(c.description, c.value.hex(), c.passed)
                               for c in (dict_claim(spec, roles, by_pair) for spec in specs)]


def test_tolerances_are_read_at_call_time(monkeypatch):
    """ZERO_TOL and WITNESS_MARGIN are read at each call, not bound when the
    claims or the aligned block are generated: monkeypatched after the first
    call, each flips a verdict, and nothing is generated or compiled again."""
    import rigidflex.control as control
    import rigidflex.stability as stability

    g, graph = [1.0, 5e-10, 3.0, 2.0, -1.0, -2.0, 0.0], tetrahedron_flex()  # edge order
    zero = EquilibriumClass(kind="degenerate_rigid", subform="triple_coincident",
                            roles=(1, 2, 4, 3))             # il = g_13, jl = g_23, kl = g_34
    pivot = EquilibriumClass(kind="degenerate_rigid", subform="collinear_distinct",
                             roles=(2, 4, 1, 3))            # its pivot ij is g_24 = -1
    entry = next(e for e in build_catalog(graph, QUADRATIC)[0] if e.subform == "interior_point")
    before = [_claims(g, graph, zero)[0], _claims(g, graph, pivot)[1],
              analyze(entry.positions, graph, QUADRATIC).witness]

    def forbidden(*args):
        raise AssertionError("generated again")

    for module in (control, stability):
        monkeypatch.setattr(module, "_compiled", forbidden)
    monkeypatch.setattr(stability, "ZERO_TOL", 1e-10)
    monkeypatch.setattr(stability, "WITNESS_MARGIN", 1e12)
    after = [_claims(g, graph, zero)[0], _claims(g, graph, pivot)[1]]
    assert (before[0].description, before[0].passed) == ("g_13 = 0", True)
    assert (after[0].description, after[0].passed) == ("g_13 = 0", False)
    monkeypatch.setattr(stability, "ZERO_TOL", 2.0)        # g_24 = -1 is now zero
    assert before[1].description == "g_24+g_12+g_23 < 0"
    assert _claims(g, graph, pivot)[1].description == "g_24+g_14+g_34 < 0"
    assert before[2] is not None
    with pytest.raises(WitnessNotFoundError):
        analyze(entry.positions, graph, QUADRATIC)


# SHA-256 of the generated aligned block per graph shape (nodes, dimension)
ALIGNED_SOURCE_SHA256 = {
    "4-2": "a69fd3a4199e25615ff6e12e752f2111f20ec41721c7c28612b265f84677b2b4",
    "5-3": "78666268bd7947511595e6e9054bb6441b6944990fd2234da65f954b8afe0c5d",
    "5-2": "27a989eb2f9141d1c00868b2a0f12bacbde9829848a197b7b07ec68be1350313",
}

# SHA-256 of the generated claims per (dimension, subform): all role orders
# on the triangle's or the tetrahedron's edges, joined in permutation order
CLAIMS_SOURCE_SHA256 = {
    "2-collinear_distinct":
        "5bf62c477f64c999ba0525e85c195fc7be3ead059c4dd35fc44a0d3f51f62b47",
    "2-coincident_pair":
        "4d8137446a386d26fde7d465d849a9a93a58aecd272df16b3d6733048eb7abb8",
    "2-all_coincident":
        "0b3da8fcf48f8a31f07c39b7618436b9f274b609acb607af8354c4ff85b6a5b2",
    "3-convex_quadrilateral":
        "3b68a9c83adc4da173844c4ba9d8cf75f3e9f7aefe7c593ba121e62bc510be14",
    "3-interior_point":
        "61f43111ca50ff7457440cf94294efb946b48ca8c9db9ee572dfa592574dfcbb",
    "3-all_coincident":
        "e0d2cb7eb02622b947d607cc741410f33ec0cadf9c3a8092451aa10f52a887b0",
    "3-triple_coincident":
        "887858d9f652747bb8cf66e430be6a115d6f797c05e7638ddc0b46a06271a9f5",
    "3-double_pair":
        "03e6b3e6fd53ffedbb2c7ab196c7992a8a1a6c43eaa21020512c859e6ca3f969",
    "3-pair_endpoint_collinear":
        "1dfa8b2bce15e9edcd6ce512244eab76bbf97489b42da2352bbfdb4491006d05",
    "3-pair_interior_collinear":
        "ae3a44e620dc2469aad86fffc0921cbbf2b2c7db2e82e0e95ad02b65a2c3eec1",
    "3-collinear_distinct":
        "465407d0f3458ad772e55a31bc41d8b613fbab4149398d4e26763672bbd5e984",
}


def test_generated_aligned_and_claims_sources_are_pinned():
    """The source of ``aligned`` for the triangle, the tetrahedron and
    K4_PLANE, and of ``claims`` for every subform at every role order, is
    pinned by its SHA-256: a change to either generator shows here, before
    it shows in a verdict."""
    import hashlib

    import rigidflex.control as control
    from rigidflex.stability import _claims_source

    aligned = {f"{graph.num_nodes}-{graph.dimension}": hashlib.sha256(
        control._aligned_source(*graph._shape).encode()).hexdigest()
        for graph in (triangle_flex(), tetrahedron_flex(), K4_PLANE)}
    claims = {}
    for d, graph in ((2, triangle_flex()), (3, tetrahedron_flex())):
        for subform in SIGN_CLAIMS[d]:
            sources = (_claims_source(d, subform, roles, graph.edges)
                       for roles in itertools.permutations(range(1, d + 2)))
            claims[f"{d}-{subform}"] = hashlib.sha256("".join(sources).encode()).hexdigest()
    assert aligned == ALIGNED_SOURCE_SHA256
    assert claims == CLAIMS_SOURCE_SHA256


def separate_report(p, graph, family):
    """The stability report from ``classify``, ``assemble_hessian`` and the
    private aligned block, witness and claims, each public call with its own
    edge pass."""
    cls = classify(p, graph, family)
    h = assemble_hessian(p, graph, family)
    certified = graph.certified_topology() is not None
    witness, claims, block = None, [], None
    if cls.axis:
        st = edge_states(p, graph, family)
        block = _aligned_block(st.z.ravel().tolist(), st.g.tolist(), st.rho.tolist(),
                               cls.axis, graph)
    if certified and cls.kind in ("flex_coincident", "degenerate_rigid"):
        witness = _witness(block, cls)
        if cls.kind == "degenerate_rigid":
            claims = _claims(edge_states(p, graph, family).g.tolist(), graph, cls)
    block_spectrum = None
    if cls.axis:
        block_spectrum = np.linalg.eigvalsh(np.reshape(block, (graph.num_nodes,) * 2))
    min_eig, is_psd = psd_check(h)
    return StabilityReport(
        classification=cls, spectrum=np.linalg.eigvalsh(h), block_spectrum=block_spectrum,
        min_eigenvalue=min_eig, positive_semidefinite=is_psd,
        witness=witness, claims=claims, certified=certified)


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(), TAILORED])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_analyze_equals_the_separate_public_calls(graph, family):
    """analyze shares one edge pass and one aligned block among its parts;
    its report is bit for bit the one ``separate_report`` builds with a pass
    per public call, at rigid motions of every catalog entry and of the
    desired shape."""
    entries, _ = build_catalog(graph, family)
    rng = np.random.default_rng(19)
    d = graph.dimension
    for pos in [e.positions for e in entries] + [desired_equilibrium(graph)]:
        for _ in range(2):
            p = pos @ random_rotation(rng, d).T + rng.uniform(-10, 10, d)
            assert (json.dumps(analyze(p, graph, family).to_json_dict())
                    == json.dumps(separate_report(p, graph, family).to_json_dict()))


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
def test_analyze_rejects_rational_coincidence_points(graph):
    """The coincidence constructions (flex-coincident and the exact
    degenerate ones, 7 over both topologies) lie where the rational V is
    infinite: analyze reports a domain error there, raw and rigidly moved,
    and a witness for the quadratic family."""
    entries, _ = build_catalog(graph, QUADRATIC)
    points = [e.positions for e in entries if e.method == "coincidence-construct"]
    assert len(points) == (3 if graph.dimension == 2 else 4)
    rng = np.random.default_rng(17)
    d = graph.dimension
    for p in points:
        for q in (p, p @ random_rotation(rng, d).T + rng.standard_normal(d)):
            with pytest.raises(PotentialDomainError, match="coincidence boundary"):
                analyze(q, graph, RATIONAL)
        assert analyze(p, graph, QUADRATIC).witness is not None


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
def test_analyze_on_the_coincidence_boundary_makes_one_pass(monkeypatch, graph):
    """analyze reads V for its domain check from the edge pass that serves
    the class and the Hessian: at a rational coincidence point it makes one
    pass before it raises PotentialDomainError."""
    calls = {"pass": 0}
    counting_pass(monkeypatch, calls)
    p = flex_coincident_equilibrium(graph)
    with pytest.raises(PotentialDomainError, match="coincidence boundary"):
        analyze(p, graph, RATIONAL)
    assert calls["pass"] == 1


def assert_verdicts_equal_the_svd_reference(p, graph, family):
    """analyze's verdicts at p equal those of the singular-value reference:
    class, subform, roles, ambiguity, clusters, the witness tag and vector
    (its form within 1e-12 relative), each claim, and the PSD flag; the axis
    within 1e-12, except at a 3-D point, where the reference's SVD leaves it
    free on the circle orthogonal to z_flex and the new rule fixes it."""
    report = analyze(p, graph, family)
    cls, ref = report.classification, svd_classify(p, graph, family)
    assert (cls.kind, cls.subform, cls.roles, cls.ambiguous, cls.diagnostics.get("clusters")) \
        == (ref.kind, ref.subform, ref.roles, ref.ambiguous, ref.diagnostics.get("clusters"))
    h = assemble_hessian(p, graph, family)
    assert report.positive_semidefinite == psd_check(h)[1]
    if not cls.axis:
        assert report.witness is None and not ref.axis
        return
    point = len(cls.diagnostics.get("clusters", ())) == 1 and graph.dimension == 3
    if not point:
        np.testing.assert_allclose(cls.axis, ref.axis, rtol=0, atol=1e-12)
    witness = einsum_witness(aligned_last_block(h, ref.axis), ref)
    assert (report.witness.tag, report.witness.vector.tolist()) \
        == (witness.tag, witness.vector.tolist())
    assert report.witness.quadratic_form == pytest.approx(witness.quadratic_form, rel=1e-12)
    g = edge_states(p, graph, family).g.tolist()
    assert report.claims == (_claims(g, graph, ref) if ref.kind == "degenerate_rigid" else [])


# the tetrahedron's edge groups that a planar layout needs equal: the
# centred triangle's sides and spokes, the square's sides and diagonals
GROUPS = ((0, 0, 1, 0, 1, 1), (0, 1, 0, 0, 1, 0))


def realizable_graphs(rng, count):
    """``count`` (graph, family) pairs, triangle and tetrahedron in turn with
    both families, whose rigid lengths embed.  The lengths are uniform in
    [2, 6], or drawn from {3, 4, 5} so that the coincident layouts occur, or
    (a tetrahedron) two uniform lengths on the groups of a planar layout; the
    flex length is uniform in [1, 3]."""
    made = 0
    while made < count:
        build, m = (triangle_flex, 3) if made % 2 == 0 else (tetrahedron_flex, 6)
        rigid, mode = rng.uniform(2.0, 6.0, m), rng.integers(3)
        if mode == 1:
            rigid = rng.choice([3.0, 4.0, 5.0], m)
        elif mode == 2 and m == 6:
            rigid = rigid[list(GROUPS[rng.integers(2)])]
        graph = build((*rigid.tolist(), float(rng.uniform(1.0, 3.0))))
        try:
            desired_equilibrium(graph)
        except OracleError:
            continue
        yield graph, (QUADRATIC, RATIONAL)[made // 2 % 2]
        made += 1


def test_verdicts_equal_the_svd_reference_on_seeded_sets():
    """The equal triangle, the equal, the tailored and the 3-4-3-3-4-3
    tetrahedron with both families, then 200 seeded realizable distance
    sets: every catalog entry and the desired shape under a random rigid
    motion, and for the named graphs also as built, get the reference's
    verdicts.  The sets reach every subform of both dimensions."""
    rng = np.random.default_rng(36)
    named = [(graph, family) for graph in (triangle_flex(), tetrahedron_flex(), TAILORED,
                                           tetrahedron_flex((3.0, 4.0, 3.0, 3.0, 4.0, 3.0, 2.0)))
             for family in (QUADRATIC, RATIONAL)]
    seen = set()
    for n, (graph, family) in enumerate(itertools.chain(named, realizable_graphs(rng, 200))):
        d = graph.dimension
        entries = build_catalog(graph, family)[0]
        seen.update((d, e.subform or e.kind) for e in entries)
        for pos in [e.positions for e in entries] + [desired_equilibrium(graph)]:
            moved = pos @ random_rotation(rng, d).T + rng.uniform(-10, 10, d)
            for q in (pos, moved)[n >= len(named):]:
                assert_verdicts_equal_the_svd_reference(q, graph, family)
    assert seen == {(d, name) for d in (2, 3)
                    for name in ("flex_coincident", *SIGN_CLAIMS[d])}


def complete_flex(rng, d, k):
    """The complete graph on k rigid agents in d-D plus the flex agent,
    every length uniform in [2, 6]."""
    edges = (*itertools.combinations(range(1, k + 1), 2), (k, k + 1))
    return FormationGraph(num_nodes=k + 1, dimension=d, edges=edges,
                          desired=tuple(rng.uniform(2.0, 6.0, len(edges)).tolist()),
                          flex_edge=(k, k + 1))


def flat_points(rng, count, rank, d):
    """``count`` random points on a random affine flat of dimension ``rank``
    in d-D (rank 0: one point)."""
    return rng.normal(size=(count, rank)) @ rng.normal(size=(rank, d)) + rng.normal(size=d)


@pytest.mark.parametrize("d, k", [(2, 2), (2, 4), (3, 3), (3, 5)])
def test_classify_fewer_or_more_than_d_plus_one_agents_like_the_svd_reference(d, k):
    """On complete graphs of k rigid agents, k != d + 1, the quadratic
    class of any point (eq_tol = inf) equals the reference's, with its
    axis: rigid agents on a flat of each dimension up to d (unrecognized
    where more than d + 1 fill the space), flex-coincident points whose
    first d agents span no hyperplane while the rest lie anywhere, and a
    hyperplane with two agents coincident (four distinct agents in 3-D)."""
    rng = np.random.default_rng(40 + 10 * d + k)
    g = complete_flex(rng, d, k)
    points = [np.vstack([flat_points(rng, k, rank, d), rng.normal(size=(1, d))])
              for rank in range(1, d + 1)]
    for _ in range(3):
        rigid = np.vstack([flat_points(rng, d, d - 2, d), flat_points(rng, k - d, d, d)])
        points.append(np.vstack([rigid, rigid[-1] + 1e-8 * rng.normal(size=(1, d))]))
    plane = flat_points(rng, k, d - 1, d)
    plane[1] = plane[0]
    points.append(np.vstack([plane, rng.normal(size=(1, d))]))
    for p in points:
        x = p.ravel().tolist()
        cls = _classify(x, _pass(g, QUADRATIC)(x), g, eq_tol=math.inf)
        ref = svd_classify(p, g, QUADRATIC, eq_tol=math.inf)
        assert (cls.kind, cls.subform, cls.roles, cls.ambiguous) \
            == (ref.kind, ref.subform, ref.roles, ref.ambiguous)
        np.testing.assert_allclose(cls.axis, ref.axis, rtol=0, atol=1e-12)
    assert [_classify(x, _pass(g, QUADRATIC)(x), g, eq_tol=math.inf).kind
            for x in (p.ravel().tolist() for p in points)] == ["degenerate_rigid"] * (d - 1) \
        + ["unrecognized" if k > d else "degenerate_rigid"] + ["flex_coincident"] * 3 \
        + ["degenerate_rigid"]


def test_verdicts_call_no_svd_eigh_or_einsum(monkeypatch):
    """classify, build_catalog and every verdict of analyze run on floats:
    with numpy's svd, eig, eigh and einsum made to raise they still run on
    the equal and the 3-4-5.5 triangle and on the equal, the tailored and
    the 3-4-3-3-4-3 tetrahedron with both families, and a block without a
    negative form still raises WitnessNotFoundError.  The spectra stay
    eigvalsh."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK decomposition or einsum in a verdict")

    monkeypatch.setattr(np, "einsum", refuse)
    for name in ("svd", "eig", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(38)
    for graph in (triangle_flex(), triangle_flex((3.0, 4.0, 5.5, 2.0)), tetrahedron_flex(),
                  TAILORED, tetrahedron_flex((3.0, 4.0, 3.0, 3.0, 4.0, 3.0, 2.0))):
        d = graph.dimension
        for family in (QUADRATIC, RATIONAL):
            entries, _ = build_catalog(graph, family)
            assert entries
            for e in entries:
                p = e.positions @ random_rotation(rng, d).T + rng.normal(0, 5, d)
                assert classify(p, graph, family).kind == e.kind
                report = analyze(p, graph, family)
                assert report.witness.quadratic_form < 0
                assert all(c.passed for c in report.claims)
            assert analyze(desired_equilibrium(graph), graph, family).positive_semidefinite
    forged, block, _ = forged_block()
    with pytest.raises(WitnessNotFoundError, match="least candidate form.*threshold"):
        _witness(block, forged)


def test_all_coincident_axis_in_3d_is_fixed_by_the_flex_edge():
    """At the equal tetrahedron's all_coincident entry under rigid motions
    the axis is z_flex x the coordinate axis least along z_flex: a unit
    vector orthogonal to z_flex, its largest-magnitude component positive."""
    g = tetrahedron_flex()
    entry = construct_equilibrium(g, QUADRATIC, "all_coincident")
    rng = np.random.default_rng(39)
    for _ in range(20):
        p = entry.positions @ random_rotation(rng, 3).T + rng.normal(0, 5, 3)
        r = np.array(classify(p, g, QUADRATIC).axis)
        z = p[-2] - p[-1]
        least = np.eye(3)[2 - np.argmin(np.abs(z)[::-1])]
        expected = np.cross(z, least) / np.linalg.norm(np.cross(z, least))
        np.testing.assert_allclose(np.abs(r), np.abs(expected), rtol=0, atol=1e-15)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-15
        assert abs(r @ z) < 1e-14 * np.linalg.norm(z)
        assert r[np.abs(r).argmax()] > 0


def witness_outcome(find, block, cls):
    """A witness's tag, form bits and vector bytes, or its error message."""
    try:
        w = find(block, cls)
    except WitnessNotFoundError as exc:
        return str(exc)
    return (w.tag, w.quadratic_form.hex(), w.vector.dtype, w.vector.tobytes(),
            w.full_vector.dtype, w.full_vector.tobytes())


def assert_verdict_pieces_equal_the_dict_reference(p, graph, family, eq_tol):
    """``_classify`` at p equals ``dict_classify`` in kind, subform, roles,
    ambiguity, axis bytes and ``repr`` of its diagnostics; the class's sign
    claims equal ``dict_claim``'s in description, value bits and verdict,
    and its witness ``rows_witness``'s, or both raise alike, also with a
    corner or a diagonal entry of the block made +-inf or NaN.  Returns the
    kind."""
    x = np.asarray(p, dtype=float).ravel().tolist()
    out = _pass(graph, family)(x)
    cls, ref = (classify_at(x, out, graph, eq_tol) for classify_at in (_classify, dict_classify))
    assert (cls.kind, cls.subform, cls.roles, cls.ambiguous, repr(cls.diagnostics)) \
        == (ref.kind, ref.subform, ref.roles, ref.ambiguous, repr(ref.diagnostics))
    assert np.array(cls.axis, dtype=float).tobytes() == np.array(ref.axis, dtype=float).tobytes()
    _, _, _, z, g, rho, _ = out
    if cls.subform and graph.certified_topology():
        by_pair = dict(zip(graph.edges, g))
        refs = [dict_claim(spec, cls.roles, by_pair)
                for spec in SIGN_CLAIMS[graph.dimension][cls.subform]]
        assert [(c.description, c.value.hex(), c.passed) for c in _claims(g, graph, cls)] \
            == [(c.description, c.value.hex(), c.passed) for c in refs]
    if cls.axis:
        block, n = _aligned_block(z, g, rho, cls.axis, graph), graph.num_nodes
        assert witness_outcome(_witness, block, cls) \
            == witness_outcome(rows_witness, np.reshape(block, (n, n)), cls)
        for entry, bad in itertools.product([n - 1, 0], [math.inf, -math.inf, math.nan]):
            marred = block.copy()               # no finite point's block has these
            marred[entry] = bad
            assert witness_outcome(_witness, marred, cls) \
                == witness_outcome(rows_witness, np.reshape(marred, (n, n)), cls)
    return cls.kind


def simplex_outcome(find, points, z):
    """``_simplex``'s result with its sides and lengths as tuples in pair
    order, as ``repr`` shows it, or its error's type."""
    try:
        heights, r, length, side, t = find(points, z)
    except Exception as exc:            # a NaN face leaves no largest face in either
        return type(exc)
    if isinstance(length, dict):
        length, side = length.values(), side.values()
    return repr((heights, r, tuple(length), tuple(map(tuple, side)), tuple(t)))


VERDICT_GRAPHS = {"triangle": triangle_flex(), "triangle_3455": triangle_flex((3.0, 4.0, 5.5, 2.0)),
                  "tetrahedron": tetrahedron_flex(), "tailored": TAILORED, "k4_plane": K4_PLANE}


@pytest.mark.parametrize("name", list(VERDICT_GRAPHS))
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_verdict_pieces_equal_the_dict_reference_bit_for_bit(name, family):
    """The verdict path's tables (index pairs and faces per point count,
    cofactor positions, slot ranks, compiled sign claims, the witness's
    flat block) give ``dict_classify``, ``dict_claim`` and ``rows_witness``
    bit for bit, at the default eq_tol and at an infinite one (every finite
    point is classified): at each catalog entry and the desired shape, as
    built, under rigid motions and pushed by 1e-12 to 1e-7; at random
    points, points on random lines and planes, with the flex agent on its
    anchor or not, points of a small integer grid (exact ties of sides and
    of positions along a line), coincident pairs, and NaN and +-inf
    coordinates.  ``_simplex`` equals ``dict_simplex`` on the rigid agents
    of every point, non-finite ones included."""
    graph = VERDICT_GRAPHS[name]
    rng = np.random.default_rng(40)
    d, n = graph.dimension, graph.num_nodes
    bases = []
    if graph.certified_topology():
        bases = [e.positions for e in build_catalog(graph, family)[0]]
        bases.append(desired_equilibrium(graph))
    points = []
    for p in bases:
        moved = [p @ random_rotation(rng, d).T + rng.uniform(-10, 10, d) for _ in range(3)]
        points += [p, *moved]
        points += [q + 10.0 ** -rng.uniform(7, 12) * rng.standard_normal(q.shape)
                   for q in (p, *moved) for _ in range(2)]
    for rank in range(d + 1):
        for _ in range(4):
            rigid = flat_points(rng, n - 1, rank, d) if rank else np.tile(rng.normal(size=d),
                                                                          (n - 1, 1))
            points += [np.vstack([rigid, rng.normal(size=(1, d))]),
                       np.vstack([rigid, rigid[-1:]])]
    for _ in range(40):
        p = rng.integers(0, 3, (n, d)).astype(float)
        points.append(p)
        q = rng.uniform(-5, 5, (n, d))
        q[rng.integers(1, n - 1)] = q[0]
        points += [q, rng.uniform(-5, 5, (n, d))]
    for bad in (math.nan, math.inf, -math.inf):
        for p in points[:20]:
            q = p.copy()
            q[rng.integers(n), rng.integers(d)] = bad
            points.append(q)
    kinds = set()
    for p in points:
        for eq_tol in (EQ_TOL, math.inf):
            kinds.add(assert_verdict_pieces_equal_the_dict_reference(p, graph, family, eq_tol))
        rigid, z = p[:-1].tolist(), (p[-2] - p[-1]).tolist()
        for agents in (rigid, rigid[:d]):
            assert simplex_outcome(_simplex, agents, z) == simplex_outcome(dict_simplex, agents, z)
    expected = {"not_equilibrium", "degenerate_rigid", "flex_coincident"}
    if graph.certified_topology():
        expected.add("desired")
    assert expected <= kinds, kinds


def test_analyze_builds_no_index_combinations_per_call(monkeypatch):
    """The verdict path reads index tables made once per point count and
    sign claims compiled once per shape, and makes no index combinations
    per call: with ``itertools.combinations`` made to raise, every catalog
    of the four certified graphs of ``VERDICT_GRAPHS`` with both families is
    built and each entry analyzed, witness and claims passing."""
    def refuse(*args, **kwargs):
        raise AssertionError("itertools.combinations in a verdict")

    monkeypatch.setattr(itertools, "combinations", refuse)
    for graph in VERDICT_GRAPHS.values():
        if not graph.certified_topology():
            continue
        for family in (QUADRATIC, RATIONAL):
            entries, _ = build_catalog(graph, family)
            assert entries
            for e in entries:
                report = analyze(e.positions, graph, family)
                assert report.witness.quadratic_form < 0
                assert all(c.passed for c in report.claims)
