"""Formation graphs: node/edge structure, its cached shape, realizations.

A formation graph is a rigid interaction graph on nodes 1..N plus one flex
node N+1 attached by a single edge (N, N+1).  Edges are stored in
lexicographic order of their (i, j) pairs with i < j; that order is part of
the public contract (it fixes the order of every edge-indexed quantity and
the order in which the edge pass sums each node's terms).
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Raised when a formation graph violates its structural invariants."""


@dataclass(frozen=True)
class FormationGraph:
    """Rigid graph plus flex node, with desired inter-agent distances.

    num_nodes : total node count N+1 (1-based node labels)
    dimension : ambient dimension, 2 or 3
    edges     : tuple of (i, j) pairs, i < j, lexicographically sorted
    desired   : desired distance per edge, aligned with ``edges``, kept as floats
    flex_edge : the single edge attaching node N+1; must be (N, N+1)
    """

    num_nodes: int
    dimension: int
    edges: tuple[tuple[int, int], ...]
    desired: tuple[float, ...]
    flex_edge: tuple[int, int]

    def __post_init__(self):
        n, d = self.num_nodes, self.dimension
        if d not in (2, 3):
            raise GraphError(f"dimension must be 2 or 3, got {d}")
        if n < 3:
            raise GraphError("need at least 2 rigid nodes plus the flex node")
        pairs = [tuple(e) for e in self.edges]
        if pairs != sorted(set(pairs)):
            raise GraphError("edges must be lexicographically sorted and unique")
        for (i, j) in pairs:
            if not (1 <= i < j <= n):
                raise GraphError(f"edge ({i},{j}) out of range or not i<j")
        if len(self.desired) != len(pairs):
            raise GraphError("desired distances must align with edges")
        # edge passes subtract the cached squares; the potentials reach
        # e^2 ~ dbar^4 at the catalog's points and at validate_family's
        # e = 100 dbar^2, so dbar^4 must be a normal float (the rational g
        # divides by it) and (100 dbar^2)^2 finite; False for NaN
        if not all(db > 0 and sys.float_info.min <= db * db * db * db
                   and 1e4 * db * db * db * db < math.inf for db in self.desired):
            raise GraphError("desired distances must be finite and strictly positive, "
                             "with a normal dbar^4 and a finite (100 dbar^2)^2")
        flex = tuple(self.flex_edge)
        if flex != (n - 1, n):
            raise GraphError(f"flex edge must be ({n-1},{n}), got {flex}")
        incident_to_flex = [e for e in pairs if n in e]
        if incident_to_flex != [flex]:
            raise GraphError("flex node must have degree exactly 1 via the flex edge")

        # kept as floats and tuples: lengths, squares, the generated code's key (edge
        # tails and heads, N+1, d; the flex edge (N, N+1) sorts last) and the topology
        object.__setattr__(self, "desired", tuple(map(float, self.desired)))
        object.__setattr__(self, "_shape", (tuple(i - 1 for i, _ in pairs),
                                            tuple(j - 1 for _, j in pairs), n, d))
        object.__setattr__(self, "_dbar2", tuple(db * db for db in self.desired))
        object.__setattr__(self, "_topology", ("triangle", "tetrahedron")[d - 2]
                           if tuple(self.edges) == _certified_edges(d) else None)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def edge_tails(self) -> np.ndarray:
        """0-based index of node i for each edge (i, j), as a new array."""
        return np.array(self._shape[0])

    @property
    def edge_heads(self) -> np.ndarray:
        """0-based index of node j for each edge (i, j), as a new array."""
        return np.array(self._shape[1])

    @property
    def flex_edge_index(self) -> int:
        return self.num_edges - 1

    def certified_topology(self) -> str | None:
        """'triangle' / 'tetrahedron' when the instability theory applies, else None."""
        return self._topology


def _certified_edges(d: int) -> tuple:
    """The certified edges in d dimensions: all pairs of agents 1..d+1, then (d+1, d+2)."""
    return (*itertools.combinations(range(1, d + 2), 2), (d + 1, d + 2))


def triangle_flex(desired=(4.0, 4.0, 4.0, 4.0)) -> FormationGraph:
    """Triangle (1,2,3) plus flex node 4 in the plane."""
    return FormationGraph(4, 2, _certified_edges(2), tuple(float(x) for x in desired), (3, 4))


def tetrahedron_flex(desired=(4.0,) * 7) -> FormationGraph:
    """Tetrahedron (1,2,3,4) plus flex node 5 in 3-D.

    Edge order: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4),(4,5).
    """
    return FormationGraph(5, 3, _certified_edges(3), tuple(float(x) for x in desired), (4, 5))


def graph_from_json(doc) -> FormationGraph:
    """Build a graph from the JSON schema.

    Schema: {"dimension": d, "nodes": n, "edges": [[i, j, dbar], ...],
    "flex_edge": [i, j]} with 1-based node indices.  The dimension, the node
    count and the labels are integers and the lengths numbers, by the rules
    of ``_integer`` and ``_floats``: ValueError for 1.7, "4.0" or true.
    """
    labels = [(_integer(i, 1, "node labels"), _integer(j, 1, "node labels"))
              for i, j, _ in doc["edges"]]
    raw = sorted(zip(labels, _floats([db for *_, db in doc["edges"]], "desired distances")))
    return FormationGraph(
        num_nodes=_integer(doc["nodes"], 1, "node counts"),
        dimension=_integer(doc["dimension"], 1, "dimensions"),
        edges=tuple(e for e, _ in raw),
        desired=tuple(db for _, db in raw),
        flex_edge=tuple(_integer(x, 1, "node labels") for x in doc["flex_edge"]),
    )


def graph_to_json(graph: FormationGraph) -> dict:
    return {
        "dimension": graph.dimension,
        "nodes": graph.num_nodes,
        "edges": [[i, j, db] for (i, j), db in zip(graph.edges, graph.desired)],
        "flex_edge": list(graph.flex_edge),
    }


def simplex_gram(sq) -> np.ndarray:
    """Gram matrix G_ab = (sq_0a + sq_0b - sq_ab) / 2 at vertex 1 of a
    (..., k, k) stack of squared distances, over the other k - 1 vertices
    (halved first, so no finite ``sq`` overflows).  The lengths form a
    non-degenerate simplex exactly when G's Cholesky pivots are all > 0
    (Blumenthal 1953); the factor's rows then place vertex a + 1 in the span
    of the first a axes with a positive last coordinate, vertex 1 at 0.
    """
    half = np.asarray(sq, dtype=float) / 2
    return half[..., 0, 1:, None] + half[..., 0, None, 1:] - half[..., 1:, 1:]


def _floats(xs, what: str) -> tuple:
    """``xs``, a list, tuple or 1-D array of real numbers, as a tuple of
    floats; ValueError for anything else (a scalar, nested rows, and a
    string or a bool, which a JSON document does not give as a number)."""
    try:
        row = None if isinstance(xs, str) else tuple(xs)
    except TypeError:
        row = None
    if row is None or not all(isinstance(x, numbers.Real) and type(x) is not bool for x in row):
        raise ValueError(f"{what} must be numbers, got {xs!r}")
    return tuple(map(float, row))


def _integer(value, least: int, what: str) -> int:
    """``value`` as an int, 7.0 as 7; ValueError unless it is an integer >=
    ``least``, and a number by the rule of ``_floats``.  An int is taken
    exactly, not rounded through a float."""
    exact = isinstance(value, numbers.Integral) and type(value) is not bool
    whole = value if exact else _floats((value,), what)[0]
    if not (whole >= least and whole % 1 == 0):     # False for NaN and infinities
        raise ValueError(f"{what} are integers >= {least}, got {value!r}")
    return int(whole)


def as_positions(p, graph: FormationGraph) -> np.ndarray:
    """Validate a realization and return it as an (N+1, d) array; GraphError
    unless ``p`` is an array of numbers of that shape or flattened.  Rows, or
    one flat row, that are not an ndarray hold numbers by the rule of
    ``_floats``, as a JSON document gives them."""
    try:
        if not isinstance(p, np.ndarray):
            flat = all(isinstance(x, numbers.Real) for x in p)
            p = _floats(p, "coordinates") if flat else [_floats(row, "coordinates") for row in p]
        arr = np.asarray(p, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise GraphError(f"realization is not an array of numbers: {exc}") from None
    n, d = graph.num_nodes, graph.dimension
    if arr.shape == (n, d):
        return arr
    if arr.shape == (n * d,):
        return arr.reshape(n, d)
    raise GraphError(f"realization has shape {arr.shape}, expected ({n},{d}) or ({n*d},)")
