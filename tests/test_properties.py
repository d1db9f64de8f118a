"""Generated-input properties of the stability analysis (needs hypothesis)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflex.control import _edge_kernel
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.oracle import build_catalog
from rigidflex.potentials import QUADRATIC, RATIONAL
from rigidflex.stability import (
    alignment_rotation,
    assemble_hessian,
    classify,
    instability_witness,
    verify_sign_properties,
)

GRAPHS = {"triangle": triangle_flex(), "tetrahedron": tetrahedron_flex()}
FAMILIES = {"quadratic": QUADRATIC, "rational": RATIONAL}


@functools.cache
def catalog(graph_name, family_name):
    return build_catalog(GRAPHS[graph_name], FAMILIES[family_name])[0]


@functools.cache
def raw_claims(graph_name, family_name):
    """The sign claims of each degenerate catalog entry, by subform."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    return {e.subform: verify_sign_properties(e.positions, graph, family)
            for e in catalog(graph_name, family_name) if e.kind == "degenerate_rigid"}


def rotation(angles, d):
    """Proper rotation: one planar angle (2-D) or z-y-x Euler angles (3-D)."""
    c, s = np.cos(angles), np.sin(angles)
    if d == 2:
        return np.array([[c[0], -s[0]], [s[0], c[0]]])
    rz = np.array([[c[0], -s[0], 0.0], [s[0], c[0], 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[c[1], 0.0, s[1]], [0.0, 1.0, 0.0], [-s[1], 0.0, c[1]]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c[2], -s[2]], [0.0, s[2], c[2]]])
    return rz @ ry @ rx


def loop_alignment_rotation(p, graph):
    """Reference frame with the row signs fixed one row at a time."""
    rigid = p[list(graph.rigid_nodes)]
    _, _, q = np.linalg.svd(rigid - rigid.mean(axis=0), full_matrices=True)
    for row in range(q.shape[0]):
        if q[row, np.argmax(np.abs(q[row]))] < 0:
            q[row] = -q[row]
    if np.linalg.det(q) < 0:
        q[-1] = -q[-1]
    return q


angle_triples = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)
shifts = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(angles=angle_triples, shift=shifts)
def test_witness_is_invariant_under_rigid_motions(graph_name, family_name, angles, shift):
    """Every catalog entry keeps its class and subform after a rotation and
    a shift, its witness stays strictly negative, the embedded direction
    v (x) r has the same curvature in the full Hessian, and its sign claims
    keep their descriptions and verdicts, with values within 1e-9.  The
    aligning frame equals the per-row reference bit for bit."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    d = graph.dimension
    rot = rotation(np.array(angles), d)
    for entry in catalog(graph_name, family_name):
        p = entry.positions @ rot.T + np.array(shift[:d])
        cls = classify(p, graph, family)
        assert (cls.kind, cls.subform) == (entry.kind, entry.subform)
        np.testing.assert_array_equal(alignment_rotation(p, graph),
                                      loop_alignment_rotation(p, graph))
        h = assemble_hessian(p, graph, family)
        w = instability_witness(p, graph, family, cls=cls, hessian=h)
        assert w.quadratic_form < 0
        q_full = float(w.full_vector @ h @ w.full_vector)
        assert q_full == pytest.approx(w.quadratic_form, rel=1e-9, abs=1e-9)
        if cls.kind == "degenerate_rigid":
            raw = raw_claims(graph_name, family_name)[entry.subform]
            moved = verify_sign_properties(p, graph, family, cls=cls)
            assert [(c.description, c.passed) for c in moved] == \
                [(c.description, c.passed) for c in raw]
            np.testing.assert_allclose([c.value for c in moved], [c.value for c in raw],
                                       rtol=0, atol=1e-9)


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
        z, e, _, _ = _edge_kernel(p, graph, family)
    assert not np.isnan(e).any()
    assert (e >= -graph._dbar2).all()
    coincident = ~z.any(axis=1)
    assert (e[coincident] == -graph._dbar2[coincident]).all()
