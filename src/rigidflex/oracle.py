"""Independent construction of equilibria for the certified topologies.

The constructions stay apart from the simulator and the edge kernel, so
their outputs can serve as ground truth.  Each undesired subform has one
layout in a table that follows ``stability.SUBFORMS_2D/3D``:

  * line layouts put rigid agent r + 1 in the slot of role r in
    ``stability.LINE_SLOTS``, on the first axis; agents in one slot
    coincide.  The unknowns are the gaps between consecutive slots and the
    equations are the balances of one agent per slot, written with the
    family's g.  A lone gap whose crossing edges share one desired
    length is exactly that length for every family (coincidence-construct);
    any other lone gap is bracketed by brentq, and two or more gaps go to
    hybr from several seeds (rootfind-collinear).  A layout with a rigid
    edge inside one slot is refused before any solving when the family's g
    diverges at zero length;
  * planar layouts are the square and the triangle with its centroid, each
    from one bracketed scalar balance, polished with the rigid agents held
    in their plane (rootfind-coplanar);
  * flow capture integrates the closed loop until an equilibrium is
    detected, then Newton-polishes the full balance system.

The flex agent sits at its desired length from its anchor along the last
axis.  ``_finalize`` builds every CatalogEntry: it polishes where asked,
rejects points outside the family's domain and classifies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, root

from .control import gradient_control
from .graph import FormationGraph, as_positions
from .integrator import detect_equilibrium, integrate
from .potentials import PotentialFamily
from .stability import LINE_SLOTS, assemble_hessian, classify, family_admits


class OracleError(RuntimeError):
    """Equilibrium construction failed (non-convergence or unmet symmetry)."""


@dataclass(frozen=True)
class CatalogEntry:
    """One constructed equilibrium, immutable once polished."""

    positions: np.ndarray          # (N+1, d)
    kind: str
    subform: str | None
    residual: float                # max_i ||sum_j g_ij z_ij||
    method: str                    # rootfind-collinear | rootfind-coplanar |
                                   # coincidence-construct | flow-capture
    family_name: str

    def to_json_dict(self) -> dict:
        return {
            "positions": [[float(x) for x in row] for row in self.positions],
            "kind": self.kind,
            "subform": self.subform,
            "residual": self.residual,
            "method": self.method,
            "family": self.family_name,
        }


def write_catalog(entries, path):
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry.to_json_dict()) + "\n")


def read_catalog(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Newton polish on the full balance system


def newton_polish(p, graph: FormationGraph, family: PotentialFamily,
                  tol: float = 1e-12, max_iter: int = 50,
                  pinned=()) -> np.ndarray:
    """Drive the balance residual below tol by Newton iteration.

    The balance map is the potential gradient, so its Jacobian is the
    assembled Hessian; least-squares steps take the minimal-norm correction,
    leaving the rigid-motion (and flex-orbit) null directions untouched.
    ``pinned`` lists flat coordinate indices to hold fixed (e.g. all third
    coordinates, for planar-constrained polishing).  Each iteration makes
    one control pass, which also gives the residual, and one Hessian.
    """
    p = as_positions(p, graph).reshape(-1).astype(float)
    free = np.setdiff1d(np.arange(p.size), np.asarray(pinned, dtype=int))
    for it in range(max_iter + 1):
        u = gradient_control(p, graph, family)
        res = float(np.linalg.norm(u.reshape(graph.num_nodes, -1), axis=1).max())
        if res < tol:
            return p
        if it == max_iter:
            raise OracleError(f"Newton polish stalled at residual {res:.3e}")
        h = assemble_hessian(p, graph, family)
        if not np.all(np.isfinite(h)):
            raise OracleError("balance Jacobian is non-finite; cannot polish "
                              "(coincident agents with a singular family?)")
        step, *_ = np.linalg.lstsq(h[np.ix_(free, free)], u[free], rcond=1e-10)
        p[free] += step


# ---------------------------------------------------------------------------
# Desired-shape embeddings


def _triangle_points(d12, d13, d23):
    x3 = (d12**2 + d13**2 - d23**2) / (2 * d12)
    y3sq = d13**2 - x3**2
    if y3sq <= 0:
        raise OracleError("triangle distances are not realizable")
    return np.array([[0.0, 0.0], [d12, 0.0], [x3, np.sqrt(y3sq)]])


def _tetrahedron_points(d):
    """Embed nodes 1..4 from the six pairwise distances d[(i, j)]."""
    tri = _triangle_points(d[(1, 2)], d[(1, 3)], d[(2, 3)])
    x3, y3 = tri[2]
    x4 = (d[(1, 2)]**2 + d[(1, 4)]**2 - d[(2, 4)]**2) / (2 * d[(1, 2)])
    y4 = (d[(1, 4)]**2 + d[(1, 3)]**2 - d[(3, 4)]**2 - 2 * x3 * x4) / (2 * y3)
    z4sq = d[(1, 4)]**2 - x4**2 - y4**2
    if z4sq <= 0:
        raise OracleError("tetrahedron distances are not realizable")
    pts = np.zeros((4, 3))
    pts[1, 0] = d[(1, 2)]
    pts[2, :2] = tri[2]
    pts[3] = (x4, y4, np.sqrt(z4sq))
    return pts


def _distance_table(graph: FormationGraph) -> dict:
    return {e: db for e, db in zip(graph.edges, graph.desired)}


def _require_certified(graph: FormationGraph) -> str:
    topo = graph.certified_topology()
    if topo is None:
        raise OracleError("oracle constructions cover only the certified "
                          "triangle and tetrahedron topologies")
    return topo


def _rigid_embedding(graph: FormationGraph) -> np.ndarray:
    topo = _require_certified(graph)
    d = _distance_table(graph)
    if topo == "triangle":
        return _triangle_points(d[(1, 2)], d[(1, 3)], d[(2, 3)])
    return _tetrahedron_points(d)


def desired_equilibrium(graph: FormationGraph) -> np.ndarray:
    """A realization with every edge at its desired length, the flex agent
    on the far side of its anchor from the rigid centroid."""
    rigid = _rigid_embedding(graph)
    direction = rigid[-1] - rigid.mean(axis=0)
    direction = direction / np.linalg.norm(direction)
    return np.vstack([rigid, rigid[-1] + graph.desired[graph.flex_edge_index] * direction])


def flex_coincident_equilibrium(graph: FormationGraph) -> np.ndarray:
    """Rigid agents at the desired shape, flex agent on top of its anchor."""
    rigid = _rigid_embedding(graph)
    return np.vstack([rigid, rigid[graph.num_nodes - 2].copy()])


# ---------------------------------------------------------------------------
# Root-finding helpers


def _require_equal(values, what):
    values = list(values)
    if any(abs(v - values[0]) > 1e-12 for v in values[1:]):
        raise OracleError(f"construction needs equal desired distances: {what}")
    return values[0]


def _bracketed_root(f, lo, hi, what):
    """brentq on [lo, hi], with a readable error when the ends share a sign."""
    if f(lo) * f(hi) > 0:
        raise OracleError(f"{what} bracket failed: f({lo:.4g})={f(lo):.4g}, "
                          f"f({hi:.4g})={f(hi):.4g}")
    return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)


def _multi_root(fun, seeds, names):
    """Try hybr from several seeds; return the first positive solution.

    A solution is judged by its gaps and residual alone: hybr may stop short
    of its own tolerance (status 3, "xtol too small") on a root it has
    already found to rounding level.  When every seed reaches a root but no
    root has all gaps positive, the error says so and lists the gaps.
    """
    tried = []
    for seed in seeds:
        sol = root(fun, np.asarray(seed, dtype=float), method="hybr", tol=1e-14)
        residual = float(np.abs(sol.fun).max())
        tried.append((seed, residual, sol.x))
        if np.all(sol.x > 1e-9) and residual < 1e-10:
            return sol.x
    if all(residual < 1e-10 for _, residual, _ in tried):
        raise OracleError(f"every gap root-finder seed converged for {names}, but no "
                          f"root has all gaps positive; gaps of the roots found: "
                          f"{[gaps.tolist() for _, _, gaps in tried]}")
    raise OracleError(f"gap root-finder did not converge for {names}; seeds and "
                      f"residuals tried: {[(seed, res) for seed, res, _ in tried]}")


# ---------------------------------------------------------------------------
# Layouts: each returns the rigid agents' positions and the method label


@dataclass(frozen=True)
class _Line:
    """Rigid agent k sits in slot ``slots[k]`` on the first axis.

    Slots are numbered along the line from 0; the gap between consecutive
    slots is unknown.  ``seeds`` are hybr starting gaps, as fractions of the
    mean desired length over slot pairs, for layouts with two or more gaps.
    """

    slots: tuple
    seeds: tuple = ()

    def _edges(self, graph: FormationGraph):
        """Slot array, rigid edges joining distinct slots, rigid edges inside one."""
        slots = np.array(self.slots)
        edges = [k for k in range(graph.num_edges) if k != graph.flex_edge_index]
        cross = [k for k in edges if slots[graph._tails[k]] != slots[graph._heads[k]]]
        return slots, cross, [k for k in edges if k not in cross]

    def admit(self, graph: FormationGraph, family: PotentialFamily):
        """Refuse the layout before any solving.

        Agents in one slot must reach every other slot along edges of the
        same desired lengths; otherwise their balances differ and the layout
        has no equilibrium.  A rigid edge inside one slot has zero length
        whatever the gaps, so neither has a family whose g is not finite at
        e = -dbar^2.
        """
        slots, cross, inner = self._edges(graph)
        reach = [[] for _ in slots]
        for k in cross:
            i, j = graph._tails[k], graph._heads[k]
            reach[i].append((slots[j], graph._dbar[k]))
            reach[j].append((slots[i], graph._dbar[k]))
        for a in range(len(slots)):
            b = int(np.argmax(slots == slots[a]))
            ra, rb = sorted(reach[a]), sorted(reach[b])
            if [s for s, _ in ra] != [s for s, _ in rb] or any(
                    abs(x - y) > 1e-12 for (_, x), (_, y) in zip(ra, rb)):
                raise OracleError(
                    f"construction needs equal desired distances: coincident agents "
                    f"{b + 1} and {a + 1} have desired lengths "
                    f"{[round(float(x), 12) for _, x in rb]} and "
                    f"{[round(float(x), 12) for _, x in ra]} to the other points")
        with np.errstate(divide="ignore", invalid="ignore"):
            if not np.isfinite(family.g(-graph._dbar2[inner], graph._dbar[inner])).all():
                raise OracleError(_BOUNDARY)

    def __call__(self, graph: FormationGraph, family: PotentialFamily):
        """Solve the gaps of a layout that ``admit`` accepts."""
        slots, cross, _ = self._edges(graph)
        tails, heads = graph._tails, graph._heads
        n_gaps = int(slots.max())
        dbar, dbar2 = graph._dbar[cross], graph._dbar2[cross]
        # diff = x_tail - x_head of each crossing edge, linear in the gaps
        cols = np.arange(n_gaps)
        a = (cols < slots[tails[cross], None]).astype(float) - (cols < slots[heads[cross], None])
        # one member per slot; the second-to-last slot's balance follows from
        # the others, as the balances of all agents sum to zero
        members = [int(np.argmax(slots == s)) for s in range(n_gaps + 1) if s != n_gaps - 1]
        r = graph._incidence[np.ix_(members, cross)]

        def balances(gaps):
            diff = a @ gaps
            return r @ (family.g(diff * diff - dbar2, dbar) * diff)

        if n_gaps > 1:
            per_pair = {}
            for k in cross:
                per_pair.setdefault(frozenset(slots[[tails[k], heads[k]]]), graph._dbar[k])
            scale = np.mean(list(per_pair.values()))
            gaps = _multi_root(balances, [np.array(s) * scale for s in self.seeds],
                               f"the gaps of line layout {self.slots}")
            method = "rootfind-collinear"
        elif n_gaps and dbar.max() - dbar.min() > 1e-12:
            gaps = [_bracketed_root(lambda x: float(balances([x])[0]),
                                    dbar.min(), dbar.max(), "gap")]
            method = "rootfind-collinear"
        else:
            gaps, method = dbar[:1], "coincidence-construct"
        rigid = np.zeros((len(slots), graph.dimension))
        rigid[:, 0] = np.concatenate([[0.0], np.cumsum(gaps)])[slots]
        return rigid, method


def _square(graph: FormationGraph, family: PotentialFamily):
    """Planar square: side balance g(s^2 - dside^2) + g(2 s^2 - ddiag^2) = 0."""
    d = _distance_table(graph)
    side = _require_equal([d[(1, 2)], d[(2, 3)], d[(3, 4)], d[(1, 4)]],
                          "the four square sides")
    diag = _require_equal([d[(1, 3)], d[(2, 4)]], "the two diagonals")

    def f(s2):
        return (float(family.g(s2 - side**2, side))
                + float(family.g(2 * s2 - diag**2, diag)))

    h = np.sqrt(_bracketed_root(f, diag**2 / 2 * (1 + 1e-9), side**2, "square")) / 2.0
    rigid = np.array([[h, h, 0.0], [-h, h, 0.0], [-h, -h, 0.0], [h, -h, 0.0]])
    return rigid, "rootfind-coplanar"


def _interior_point(graph: FormationGraph, family: PotentialFamily):
    """Equilateral triangle 1,2,3 with agent 4 at the centroid.

    Radial balance on a vertex: 3 g(s^2 - dout^2) + g(s^2/3 - dc^2) = 0,
    with s the triangle side; the centroid's balance holds by symmetry.
    """
    d = _distance_table(graph)
    dout = _require_equal([d[(1, 2)], d[(1, 3)], d[(2, 3)]], "outer triangle sides")
    dc = _require_equal([d[(1, 4)], d[(2, 4)], d[(3, 4)]], "vertex-to-center edges")

    def f(s2):
        return (3 * float(family.g(s2 - dout**2, dout))
                + float(family.g(s2 / 3 - dc**2, dc)))

    s = np.sqrt(_bracketed_root(f, dout**2, 3 * dc**2, "interior-point"))
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    rigid = np.zeros((4, 3))
    rigid[:3, 0] = s / np.sqrt(3.0) * np.cos(ang)
    rigid[:3, 1] = s / np.sqrt(3.0) * np.sin(ang)
    return rigid, "rootfind-coplanar"


# hybr starting gaps of the line layouts with two or more gaps
_SEEDS = {
    (2, "collinear_distinct"): ((0.577, 0.577), (0.4, 0.7), (0.7, 0.4)),
    (3, "pair_endpoint_collinear"): ((0.6, 0.6), (0.4, 0.8), (0.8, 0.4), (0.3, 0.5)),
    (3, "pair_interior_collinear"): ((0.6, 0.6), (0.9, 0.5), (0.5, 0.9), (1.1, 1.1)),
    (3, "collinear_distinct"): ((0.5, 0.5, 0.5), (0.4, 0.6, 0.4), (0.6, 0.3, 0.6),
                                (0.3, 0.8, 0.3), (0.7, 0.7, 0.7), (0.25, 0.4, 0.55)),
}

# One layout per subform, in the order of stability.SUBFORMS_2D / _3D: the
# planar constructions, then the line layouts of stability.LINE_SLOTS.
_PLANAR = {2: {}, 3: {"convex_quadrilateral": _square, "interior_point": _interior_point}}
_LAYOUTS = {
    dim: {**_PLANAR[dim], **{name: _Line(slots, _SEEDS.get((dim, name), ()))
                             for name, slots in table.items()}}
    for dim, table in LINE_SLOTS.items()
}

# Subforms with at most one gap: exact for every admissible potential family
# whenever the crossing edges share one desired length.
FAMILY_INDEPENDENT_SUBFORMS = {
    dim: tuple(name for name, layout in table.items()
               if isinstance(layout, _Line) and max(layout.slots) <= 1)
    for dim, table in _LAYOUTS.items()
}


def _layout(graph: FormationGraph, subform: str):
    _require_certified(graph)
    table = _LAYOUTS[graph.dimension]
    if subform not in table:
        raise OracleError(f"unknown subform {subform!r} for dimension "
                          f"{graph.dimension}; known: {sorted(table)}")
    return table[subform]


def _z_pins(graph: FormationGraph):
    """Flat indices of every third coordinate of the rigid agents."""
    d = graph.dimension
    return [i * d + (d - 1) for i in graph.rigid_nodes]


_BOUNDARY = ("construction lies on the coincidence boundary, where this "
             "potential family diverges (outside its domain)")


def _finalize(positions, graph: FormationGraph, family: PotentialFamily, method: str,
              expect=None, polish=False, pinned=()) -> CatalogEntry:
    """Polish (if asked), check the domain, classify, and build the entry.

    ``expect`` is the (kind, subform) the point must classify as, if any.
    """
    p = as_positions(positions, graph)
    if polish:
        p = newton_polish(p, graph, family, pinned=pinned).reshape(p.shape)
    if not family_admits(p, graph, family):
        raise OracleError(_BOUNDARY)
    cls = classify(p, graph, family)
    residual = cls.diagnostics["residual"]
    if expect is not None and (cls.kind, cls.subform) != expect:
        raise OracleError(
            f"constructed point classifies as {cls.kind}/{cls.subform}, "
            f"expected {expect[0]}/{expect[1]} (residual {residual:.3e})")
    return CatalogEntry(positions=p, kind=cls.kind, subform=cls.subform,
                        residual=residual, method=method, family_name=family.name)


def construct_equilibrium(graph: FormationGraph, family: PotentialFamily,
                          subform: str) -> CatalogEntry:
    """The degenerate equilibrium of one subform, from its layout.

    Raises OracleError when the desired distances do not admit the layout,
    the root-finder fails, or the point leaves the family's domain.
    """
    layout = _layout(graph, subform)
    if isinstance(layout, _Line):
        layout.admit(graph, family)
    rigid, method = layout(graph, family)
    flex = rigid[-1].copy()
    flex[-1] += graph.desired[graph.flex_edge_index]
    return _finalize(np.vstack([rigid, flex]), graph, family, method,
                     ("degenerate_rigid", subform),
                     polish=method != "coincidence-construct",
                     pinned=_z_pins(graph) if method == "rootfind-coplanar" else ())


# ---------------------------------------------------------------------------
# Flow capture


def capture_equilibrium_from_flow(p0, graph: FormationGraph, family: PotentialFamily,
                                  t_max: float = 20.0, dt: float = 1e-3,
                                  detect_tol: float = 1e-6) -> CatalogEntry:
    """Integrate until an equilibrium is detected, then polish and classify."""
    p0 = as_positions(p0, graph).reshape(-1)
    if detect_equilibrium(p0, graph, family, detect_tol).at_equilibrium:
        p = p0
    else:
        traj = integrate(p0, graph, family, t_end=t_max, dt=dt, eq_tol=detect_tol)
        hit = next((t for t, kind in traj.events if kind == "equilibrium_detected"), None)
        if hit is None:
            raise OracleError(f"no equilibrium detected before t = {t_max}")
        idx = int(np.argmin(np.abs(traj.times - hit)))
        p = traj.states[idx]
    return _finalize(p, graph, family, "flow-capture", polish=True)


# ---------------------------------------------------------------------------
# Catalog assembly


def build_catalog(graph: FormationGraph, family: PotentialFamily, subforms=None):
    """Construct the flex-coincident and every requested degenerate equilibrium.

    Returns (entries, failures): entries in a deterministic order, failures a
    name -> message map for constructions that did not succeed with this
    distance set / family (reported, not raised).  An unknown subform name
    raises OracleError.
    """
    _require_certified(graph)
    names = list(_LAYOUTS[graph.dimension]) if subforms is None else list(subforms)
    for name in names:
        _layout(graph, name)
    entries, failures = [], {}
    for name in ["flex_coincident", *names]:
        try:
            if name == "flex_coincident":
                entry = _finalize(flex_coincident_equilibrium(graph), graph, family,
                                  "coincidence-construct", ("flex_coincident", None))
            else:
                entry = construct_equilibrium(graph, family, name)
        except OracleError as exc:
            failures[name] = str(exc)
        else:
            entries.append(entry)
    return entries, failures
