"""Generated-input properties of the stability analysis (needs hypothesis)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflex.control import (
    _edge_kernel,
    _float_pass,
    edge_states,
    gradient_control,
    potential_value,
)
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.oracle import build_catalog, desired_equilibrium
from rigidflex.potentials import QUADRATIC, RATIONAL
from rigidflex.stability import analyze, assemble_hessian

GRAPHS = {"triangle": triangle_flex(), "tetrahedron": tetrahedron_flex()}
FAMILIES = {"quadratic": QUADRATIC, "rational": RATIONAL}


@functools.cache
def catalog(graph_name, family_name):
    return build_catalog(GRAPHS[graph_name], FAMILIES[family_name])[0]


@functools.cache
def raw_reports(graph_name, family_name):
    """(positions, analyze report) at each catalog entry and the desired shape."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    points = [e.positions for e in catalog(graph_name, family_name)]
    return [(p, analyze(p, graph, family)) for p in points + [desired_equilibrium(graph)]]


def axis_is_unique(p, kind):
    """Whether the agents fix the axis r up to sign: the span of the rigid
    agents (of all but the anchor at a flex-coincident point) and the flex
    edge has dimension d - 1 or d.  Four coincident agents in 3-D leave r
    free on the circle orthogonal to the flex edge."""
    d = p.shape[1]
    span = p[:d] if kind == "flex_coincident" else p[:-1]
    return np.linalg.matrix_rank(np.vstack([span - span[0], p[-1] - p[-2]]), 1e-9) >= d - 1


def rotation(angles, d):
    """Proper rotation: one planar angle (2-D) or z-y-x Euler angles (3-D)."""
    c, s = np.cos(angles), np.sin(angles)
    if d == 2:
        return np.array([[c[0], -s[0]], [s[0], c[0]]])
    rz = np.array([[c[0], -s[0], 0.0], [s[0], c[0], 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[c[1], 0.0, s[1]], [0.0, 1.0, 0.0], [-s[1], 0.0, c[1]]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c[2], -s[2]], [0.0, s[2], c[2]]])
    return rz @ ry @ rx


angle_triples = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)
shifts = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(angles=angle_triples, shift=shifts)
def test_witness_is_invariant_under_rigid_motions(graph_name, family_name, angles, shift):
    """analyze at every catalog entry and at the desired shape, after a
    rotation R and a shift: the class and subform stay, the spectra, the
    minimum eigenvalue, the witness tag, vector and form agree within 1e-9
    of the largest |eigenvalue|, and the sign claims keep their descriptions
    and verdicts, with values within 1e-9.  The witness is strictly
    negative, v (x) r has the same curvature in the full Hessian, and the
    full vector is (I (x) R) times the unmoved one, up to one sign, wherever
    the agents fix r; where they do not, r is still a unit vector
    orthogonal to the flex edge."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    d = graph.dimension
    rot = rotation(np.array(angles), d)
    for pos, raw in raw_reports(graph_name, family_name):
        p = pos @ rot.T + np.array(shift[:d])
        report = analyze(p, graph, family)
        cls, raw_cls = report.classification, raw.classification
        assert (cls.kind, cls.subform) == (raw_cls.kind, raw_cls.subform)
        tol = 1e-9 * np.abs(raw.spectrum).max()
        np.testing.assert_allclose(report.spectrum, raw.spectrum, rtol=0, atol=tol)
        assert report.min_eigenvalue == pytest.approx(raw.min_eigenvalue, rel=0, abs=tol)
        w, raw_w = report.witness, raw.witness
        if cls.kind == "desired":
            assert report.block_spectrum is raw.block_spectrum is w is raw_w is None
            assert report.positive_semidefinite
            continue
        np.testing.assert_allclose(report.block_spectrum, raw.block_spectrum, rtol=0, atol=tol)
        assert w.tag == raw_w.tag
        np.testing.assert_allclose(w.vector, raw_w.vector, rtol=0, atol=tol)
        assert w.quadratic_form == pytest.approx(raw_w.quadratic_form, rel=0, abs=tol)
        assert w.quadratic_form < 0
        h = assemble_hessian(p, graph, family)
        q_full = float(w.full_vector @ h @ w.full_vector)
        assert q_full == pytest.approx(w.quadratic_form, rel=1e-9, abs=1e-9)
        np.testing.assert_array_equal(w.full_vector, np.outer(w.vector, cls.axis).ravel())
        if axis_is_unique(pos, cls.kind):
            moved = raw_w.full_vector.reshape(-1, d) @ rot.T
            sign = 1.0 if moved.ravel() @ w.full_vector > 0 else -1.0
            np.testing.assert_allclose(w.full_vector, sign * moved.ravel(), rtol=0, atol=1e-9)
        else:
            assert abs(np.linalg.norm(cls.axis) - 1.0) < 1e-15
            assert abs(np.dot(cls.axis, p[-1] - p[-2])) < 1e-9
        assert [(c.description, c.passed) for c in report.claims] == \
            [(c.description, c.passed) for c in raw.claims]
        np.testing.assert_allclose([c.value for c in report.claims],
                                   [c.value for c in raw.claims], rtol=0, atol=1e-9)


# finite coordinates from about 1e-300 to 1e151 in magnitude, zero included
coordinates = st.builds(lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-300, 150))


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_kernel_never_leaves_the_domain(graph_name, family_name, data):
    """e = fl(||z||^2 - dbar^2) >= -dbar^2 at every finite realization, with
    equality on exactly coincident pairs: the integrator relies on this and
    checks no domain bound per step."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    n, d = graph.num_nodes, graph.dimension
    p = np.array(data.draw(st.lists(coordinates, min_size=n * d, max_size=n * d))).reshape(n, d)
    node = st.integers(0, n - 1)
    for i, j in data.draw(st.lists(st.tuples(node, node), max_size=2)):
        p[j] = p[i]
    with np.errstate(all="ignore"):
        z, e, _, _ = _edge_kernel(p, graph, family.bind(graph._dbar_col))
    e = e.ravel()
    assert not np.isnan(e).any()
    assert (e >= -graph._dbar2).all()
    coincident = ~z.any(axis=1)
    assert (e[coincident] == -graph._dbar2[coincident]).all()


# the offset of an edge's head from its tail in each coordinate: at, next to
# or far from coincidence
offsets = st.sampled_from([0.0, 1e-300, 1e-12, 1e-7, 1e-3, 1.0, 1e3])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_float_pass_equals_the_array_kernel(graph_name, family_name, data):
    """The integrator's float edge pass gives the control, the squared
    errors and V of gradient_control, edge_states and potential_value bit
    for bit, at drawn desired lengths and realizations, far from the desired
    shape and at or next to coincidence.  Where an edge's e rounds to
    -dbar^2 off coincidence, the rational g is infinite: the array kernel's
    0 * inf then spreads NaN to every node, and the float control is not
    finite either."""
    base = GRAPHS[graph_name]
    n, d, m = base.num_nodes, base.dimension, base.num_edges
    lengths = data.draw(st.lists(st.floats(0.5, 10.0), min_size=m, max_size=m))
    graph = (triangle_flex if d == 2 else tetrahedron_flex)(lengths)
    family = FAMILIES[family_name]
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e4]))
    p = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * d,
                                            max_size=n * d))).reshape(n, d)
    for k, offset in data.draw(st.lists(st.tuples(st.integers(0, m - 1), offsets), max_size=2)):
        p[graph.edge_heads[k]] = p[graph.edge_tails[k]] + offset
    run, potential = _float_pass(graph, family)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u, e = run(p.ravel().tolist())
        v = potential(e)
    np.testing.assert_array_equal(e, edge_states(p, graph, family).e, strict=True)
    assert v == potential_value(p, graph, family)
    want = gradient_control(p, graph, family)
    if np.isfinite(want).all():
        np.testing.assert_array_equal(u, want, strict=True)
    else:
        assert not np.isfinite(u).all()
