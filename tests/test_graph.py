"""Structural checks for formation graphs and incidence matrices."""

import numpy as np
import pytest

from rigidflex.control import edge_states
from rigidflex.graph import (
    FormationGraph,
    GraphError,
    as_positions,
    graph_from_json,
    graph_to_json,
    tetrahedron_flex,
    triangle_flex,
)
from rigidflex.potentials import QUADRATIC


def test_triangle_flex_structure():
    g = triangle_flex()
    assert g.num_nodes == 4
    assert g.dimension == 2
    assert g.edges == ((1, 2), (1, 3), (2, 3), (3, 4))
    assert g.flex_edge == (3, 4)
    assert g.flex_edge_index == 3
    assert g.certified_topology() == "triangle"


def test_tetrahedron_flex_structure():
    g = tetrahedron_flex()
    assert g.num_nodes == 5
    assert g.num_edges == 7
    assert g.certified_topology() == "tetrahedron"


def test_edge_order_is_contractual():
    with pytest.raises(GraphError):
        FormationGraph(num_nodes=4, dimension=2,
                       edges=((1, 3), (1, 2), (2, 3), (3, 4)),
                       desired=(4.0,) * 4, flex_edge=(3, 4))
    with pytest.raises(GraphError, match="must align with edges"):
        FormationGraph(num_nodes=4, dimension=2,
                       edges=((1, 2), (1, 3), (2, 3), (3, 4)),
                       desired=(4.0,) * 3, flex_edge=(3, 4))


def test_flex_node_degree_enforced():
    # extra edge to the flex node breaks the degree-1 requirement
    with pytest.raises(GraphError):
        FormationGraph(num_nodes=4, dimension=2,
                       edges=((1, 2), (1, 3), (1, 4), (2, 3), (3, 4)),
                       desired=(4.0,) * 5, flex_edge=(3, 4))


def test_flex_edge_must_join_last_two_nodes():
    with pytest.raises(GraphError):
        FormationGraph(num_nodes=4, dimension=2,
                       edges=((1, 2), (1, 3), (2, 3), (2, 4)),
                       desired=(4.0,) * 4, flex_edge=(2, 4))


def test_desired_distances_positive():
    with pytest.raises(GraphError):
        triangle_flex(desired=(4.0, 4.0, -1.0, 4.0))
    # NaN compares False with everything, so it needs its own rejection
    # so is a length whose square, fourth power or (100 dbar^2)^2 overflows,
    # and one whose fourth power is subnormal (from about 1.22e-77 down) or 0
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, 1e77, 1e100, 1e154, 1e160,
                1e-78, 1e-90):
        with pytest.raises(GraphError, match="finite and strictly positive"):
            triangle_flex(desired=(4.0, bad, 4.0, 4.0))


def test_incidence_matrix_signs():
    """Edge (i, j) has tail i and head j, in edge order: its edge vector is p_i - p_j."""
    g = triangle_flex()
    assert g.edge_tails.tolist() == [0, 0, 1, 2] and g.edge_heads.tolist() == [1, 2, 2, 3]
    p = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    z = edge_states(p, g, QUADRATIC).z
    np.testing.assert_array_equal(z, p[g.edge_tails] - p[g.edge_heads])
    np.testing.assert_allclose(z[0], [-1.0, 0.0])


def test_cached_arrays_are_read_only():
    """The graph's cached arrays, and the Hessian index that ``stability``
    caches per graph shape, are read-only."""
    from rigidflex.control import _shape
    from rigidflex.stability import _hessian_index

    g = tetrahedron_flex()
    index = _hessian_index(*_shape(g))
    for arr in (g._tails, g._heads, g._dbar, g._dbar2, index):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        index[0] = 0
    assert not hasattr(g, "_hessian_index")


def test_json_round_trip():
    g = tetrahedron_flex(desired=(4, 5, 6, 5, 4, 5, 3))
    doc = graph_to_json(g)
    g2 = graph_from_json(doc)
    assert g2 == g


def test_realization_rows_or_flat_list_of_numbers():
    """A realization as rows or one flat row of numbers (lists, tuples or
    ndarray rows, ints among them) reads as the same array."""
    g = triangle_flex()
    p = np.arange(8.0).reshape(4, 2)
    for given in (p, p.ravel(), p.tolist(), p.ravel().tolist(), list(p),
                  [tuple(row) for row in p.tolist()], [[0, 1], [2, 3], [4, 5], [6, 7]]):
        np.testing.assert_array_equal(as_positions(given, g), p)
