"""Independent construction of equilibria for the certified topologies.

Three construction routes, deliberately separate from the simulator and the
Hessian machinery so their outputs can serve as ground truth:

  * coincidence constructions — exact by inspection (zero edge vectors and
    edges at exactly their desired lengths contribute zero force for every
    admissible potential family);
  * reduced root-finding — degenerate (collinear / coplanar-symmetric)
    ansatz with the translation gauge removed, solved by bracketed scalar
    or small multivariate root-finders on the gap lengths;
  * flow capture — integrate the closed loop until an equilibrium is
    detected, then Newton-polish the full balance system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, root

from .control import balance_residuals, edge_states, gradient_control
from .graph import FormationGraph, as_positions
from .integrator import detect_equilibrium, integrate
from .potentials import PotentialFamily
from .stability import EquilibriumClass, assemble_hessian, classify


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
    coordinates, for planar-constrained polishing).
    """
    p = as_positions(p, graph).reshape(-1).astype(float)
    free = np.setdiff1d(np.arange(p.size), np.asarray(pinned, dtype=int))
    for _ in range(max_iter):
        res = float(balance_residuals(p, graph, family).max())
        if res < tol:
            return p
        grad_v = -gradient_control(p, graph, family)
        h = assemble_hessian(p, graph, family)
        if not np.all(np.isfinite(h)):
            raise OracleError("balance Jacobian is non-finite; cannot polish "
                              "(coincident agents with a singular family?)")
        step, *_ = np.linalg.lstsq(h[np.ix_(free, free)], -grad_v[free], rcond=1e-10)
        p[free] += step
    res = float(balance_residuals(p, graph, family).max())
    if res >= tol:
        raise OracleError(f"Newton polish stalled at residual {res:.3e}")
    return p


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


def _attach_flex(rigid: np.ndarray, graph: FormationGraph, direction=None) -> np.ndarray:
    """Append the flex agent at exactly its desired distance from its anchor."""
    anchor = rigid[graph.num_nodes - 2]
    dbar_f = graph.desired[graph.flex_edge_index]
    if direction is None:
        direction = anchor - rigid.mean(axis=0)
        if np.linalg.norm(direction) < 1e-12:
            direction = np.zeros(graph.dimension)
            direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return np.vstack([rigid, anchor + dbar_f * direction])


def desired_equilibrium(graph: FormationGraph) -> np.ndarray:
    """A realization with every edge at its desired length."""
    return _attach_flex(_rigid_embedding(graph), graph)


def flex_coincident_equilibrium(graph: FormationGraph) -> np.ndarray:
    """Rigid agents at the desired shape, flex agent on top of its anchor."""
    rigid = _rigid_embedding(graph)
    return np.vstack([rigid, rigid[graph.num_nodes - 2].copy()])


# ---------------------------------------------------------------------------
# Construction helpers


def _require_equal(values, what):
    values = list(values)
    if any(abs(v - values[0]) > 1e-12 for v in values[1:]):
        raise OracleError(f"construction needs equal desired distances: {what}")
    return values[0]


def _g_of(family: PotentialFamily, length, dbar):
    return float(family.g(length * length - dbar * dbar, dbar))


def _multi_root(fun, seeds, names):
    """Try hybr from several seeds; return the first positive solution."""
    tried = []
    for seed in seeds:
        sol = root(fun, np.asarray(seed, dtype=float), method="hybr", tol=1e-14)
        tried.append((seed, float(np.abs(sol.fun).max())))
        if sol.success and np.all(sol.x > 1e-9) and np.abs(sol.fun).max() < 1e-10:
            return sol.x
    raise OracleError(f"gap root-finder did not converge for {names}; "
                      f"seeds and residuals tried: {tried}")


def _finalize(positions, graph, family, method, expect_kind, expect_subform=None,
              polish=False, pinned=()) -> CatalogEntry:
    p = as_positions(positions, graph).reshape(-1)
    if polish:
        p = newton_polish(p, graph, family, pinned=pinned)
    residual = float(balance_residuals(p, graph, family).max())
    cls = classify(p, graph, family)
    if cls.kind != expect_kind or (expect_subform is not None
                                   and cls.subform != expect_subform):
        raise OracleError(
            f"constructed point classifies as {cls.kind}/{cls.subform}, "
            f"expected {expect_kind}/{expect_subform} (residual {residual:.3e})")
    return CatalogEntry(positions=p.reshape(graph.num_nodes, graph.dimension),
                        kind=cls.kind, subform=cls.subform, residual=residual,
                        method=method, family_name=family.name)


# ---------------------------------------------------------------------------
# Two-dimensional constructions (triangle topology)


def find_collinear_equilibrium(graph: FormationGraph, family: PotentialFamily,
                               flex_off_axis: bool = True) -> CatalogEntry:
    """Three distinct collinear agents; gaps solved from the endpoint balances.

    With agents at 0, s, s+t on the x-axis the endpoint balance equations are
    g12 s + g13 (s+t) = 0 and g23 t + g13 (s+t) = 0; the middle agent's
    balance follows from the zero-sum identity.
    """
    if _require_certified(graph) != "triangle":
        raise OracleError("collinear three-agent construction is 2-D only")
    d = _distance_table(graph)
    d12, d13, d23 = d[(1, 2)], d[(1, 3)], d[(2, 3)]
    scale = np.mean([d12, d13, d23])

    def eqs(x):
        s, t = x
        g12 = _g_of(family, abs(s), d12)
        g13 = _g_of(family, abs(s + t), d13)
        g23 = _g_of(family, abs(t), d23)
        return [g12 * s + g13 * (s + t), g23 * t + g13 * (s + t)]

    seeds = [(0.577 * scale, 0.577 * scale), (0.4 * scale, 0.7 * scale),
             (0.7 * scale, 0.4 * scale)]
    s, t = _multi_root(eqs, seeds, "collinear gaps (s, t)")

    dbar_f = graph.desired[graph.flex_edge_index]
    flex_dir = np.array([0.0, 1.0]) if flex_off_axis else np.array([1.0, 0.0])
    rigid = np.array([[0.0, 0.0], [s, 0.0], [s + t, 0.0]])
    pos = np.vstack([rigid, rigid[2] + dbar_f * flex_dir])
    return _finalize(pos, graph, family, "rootfind-collinear",
                     "degenerate_rigid", "collinear_distinct", polish=True)


def coincident_pair_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Agents 2 and 3 coincident, agent 1 at its desired distance from them."""
    if _require_certified(graph) != "triangle":
        raise OracleError("coincident-pair construction is 2-D only")
    d = _distance_table(graph)
    r = _require_equal([d[(1, 2)], d[(1, 3)]], "d(1,2) = d(1,3)")
    dbar_f = graph.desired[graph.flex_edge_index]
    pos = np.array([[r, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, dbar_f]])
    return _finalize(pos, graph, family, "coincidence-construct",
                     "degenerate_rigid", "coincident_pair")


def all_coincident_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Every rigid agent at one point; the flex edge alone is at length."""
    _require_certified(graph)
    n, dim = graph.num_nodes, graph.dimension
    dbar_f = graph.desired[graph.flex_edge_index]
    pos = np.zeros((n, dim))
    pos[-1, 0] = dbar_f
    return _finalize(pos, graph, family, "coincidence-construct",
                     "degenerate_rigid", "all_coincident")


# ---------------------------------------------------------------------------
# Three-dimensional constructions (tetrahedron topology)


def _flex_perp(rigid: np.ndarray, graph: FormationGraph, axis=2) -> np.ndarray:
    dbar_f = graph.desired[graph.flex_edge_index]
    offset = np.zeros(3)
    offset[axis] = dbar_f
    return np.vstack([rigid, rigid[3] + offset])


def square_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Planar square: side balance g(s^2 - dside^2) + g(2 s^2 - ddiag^2) = 0."""
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("square construction is 3-D only")
    d = _distance_table(graph)
    side = _require_equal([d[(1, 2)], d[(2, 3)], d[(3, 4)], d[(1, 4)]],
                          "the four square sides")
    diag = _require_equal([d[(1, 3)], d[(2, 4)]], "the two diagonals")

    def f(s2):
        return (float(family.g(s2 - side**2, side))
                + float(family.g(2 * s2 - diag**2, diag)))

    lo, hi = diag**2 / 2 * (1 + 1e-9), side**2
    if f(lo) * f(hi) > 0:
        raise OracleError(f"square bracket failed: f({lo:.4g})={f(lo):.4g}, "
                          f"f({hi:.4g})={f(hi):.4g}")
    s = np.sqrt(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))
    h = s / 2.0
    rigid = np.array([[h, h, 0.0], [-h, h, 0.0], [-h, -h, 0.0], [h, -h, 0.0]])
    return _finalize(_flex_perp(rigid, graph), graph, family, "rootfind-coplanar",
                     "degenerate_rigid", "convex_quadrilateral", polish=True,
                     pinned=_z_pins(graph))


def interior_point_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Equilateral triangle 1,2,3 with agent 4 at the centroid.

    Radial balance on a vertex: 3 g(s^2 - dout^2) + g(s^2/3 - dc^2) = 0,
    with s the triangle side; the centroid's balance holds by symmetry.
    """
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("interior-point construction is 3-D only")
    d = _distance_table(graph)
    dout = _require_equal([d[(1, 2)], d[(1, 3)], d[(2, 3)]], "outer triangle sides")
    dc = _require_equal([d[(1, 4)], d[(2, 4)], d[(3, 4)]], "vertex-to-center edges")

    def f(s2):
        return (3 * float(family.g(s2 - dout**2, dout))
                + float(family.g(s2 / 3 - dc**2, dc)))

    lo, hi = dout**2, 3 * dc**2
    if f(lo) * f(hi) > 0:
        raise OracleError(f"interior-point bracket failed on [{lo:.4g}, {hi:.4g}]")
    s = np.sqrt(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))
    radius = s / np.sqrt(3.0)
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    rigid = np.zeros((4, 3))
    rigid[:3, 0] = radius * np.cos(ang)
    rigid[:3, 1] = radius * np.sin(ang)
    return _finalize(_flex_perp(rigid, graph), graph, family, "rootfind-coplanar",
                     "degenerate_rigid", "interior_point", polish=True,
                     pinned=_z_pins(graph))


def triple_coincident_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Agents 1,2,3 at one point, agent 4 at its desired distance from it."""
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("triple-coincident construction is 3-D only")
    d = _distance_table(graph)
    r = _require_equal([d[(1, 4)], d[(2, 4)], d[(3, 4)]], "edges to agent 4")
    rigid = np.zeros((4, 3))
    rigid[3, 0] = r
    return _finalize(_flex_perp(rigid, graph), graph, family,
                     "coincidence-construct", "degenerate_rigid", "triple_coincident")


def double_pair_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Pairs (1,2) and (3,4) coincident, separated so the cross sums cancel.

    For a symmetric distance set the separation solves
    g(r^2 - d13^2) + g(r^2 - d14^2) = 0; with all four cross distances equal
    the root is exactly r = dbar, making the construction family-independent.
    """
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("double-pair construction is 3-D only")
    d = _distance_table(graph)
    cross = [d[(1, 3)], d[(1, 4)], d[(2, 3)], d[(2, 4)]]
    if max(cross) - min(cross) < 1e-12:
        r, method = cross[0], "coincidence-construct"
    else:
        da = _require_equal([d[(1, 3)], d[(2, 3)]], "d(1,3) = d(2,3)")
        db = _require_equal([d[(1, 4)], d[(2, 4)]], "d(1,4) = d(2,4)")

        def f(r):
            return _g_of(family, r, da) + _g_of(family, r, db)

        lo, hi = min(da, db), max(da, db)
        r, method = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16), "rootfind-coplanar"
    rigid = np.zeros((4, 3))
    rigid[2, 0] = rigid[3, 0] = r
    return _finalize(_flex_perp(rigid, graph), graph, family, method,
                     "degenerate_rigid", "double_pair")


def pair_endpoint_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Coincident pair (1,2) at one end of a line, agents 3 and 4 beyond it."""
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("pair-endpoint construction is 3-D only")
    d = _distance_table(graph)
    d13 = _require_equal([d[(1, 3)], d[(2, 3)]], "d(1,3) = d(2,3)")
    d14 = _require_equal([d[(1, 4)], d[(2, 4)]], "d(1,4) = d(2,4)")
    d34 = d[(3, 4)]
    scale = np.mean([d13, d14, d34])

    def eqs(x):
        s, t = x
        g13 = _g_of(family, abs(s), d13)
        g14 = _g_of(family, abs(s + t), d14)
        g34 = _g_of(family, abs(t), d34)
        return [g13 * s + g14 * (s + t), 2 * g14 * (s + t) + g34 * t]

    seeds = [(0.6 * scale, 0.6 * scale), (0.4 * scale, 0.8 * scale),
             (0.8 * scale, 0.4 * scale), (0.3 * scale, 0.5 * scale)]
    s, t = _multi_root(eqs, seeds, "pair-endpoint gaps (s, t)")
    rigid = np.zeros((4, 3))
    rigid[2, 0] = s
    rigid[3, 0] = s + t
    return _finalize(_flex_perp(rigid, graph), graph, family, "rootfind-coplanar",
                     "degenerate_rigid", "pair_endpoint_collinear", polish=True)


def pair_interior_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Coincident pair (1,2) between agents 3 and 4 on a line."""
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("pair-interior construction is 3-D only")
    d = _distance_table(graph)
    d13 = _require_equal([d[(1, 3)], d[(2, 3)]], "d(1,3) = d(2,3)")
    d14 = _require_equal([d[(1, 4)], d[(2, 4)]], "d(1,4) = d(2,4)")
    d34 = d[(3, 4)]
    scale = np.mean([d13, d14, d34])

    def eqs(x):
        s, t = x                    # agent 3 at -s, pair at 0, agent 4 at t
        g13 = _g_of(family, abs(s), d13)
        g14 = _g_of(family, abs(t), d14)
        g34 = _g_of(family, abs(s + t), d34)
        return [2 * g13 * s + g34 * (s + t), 2 * g14 * t + g34 * (s + t)]

    seeds = [(0.6 * scale, 0.6 * scale), (0.9 * scale, 0.5 * scale),
             (0.5 * scale, 0.9 * scale), (1.1 * scale, 1.1 * scale)]
    s, t = _multi_root(eqs, seeds, "pair-interior gaps (s, t)")
    rigid = np.zeros((4, 3))
    rigid[2, 0] = -s
    rigid[3, 0] = t
    return _finalize(_flex_perp(rigid, graph), graph, family, "rootfind-coplanar",
                     "degenerate_rigid", "pair_interior_collinear", polish=True)


def collinear_four_equilibrium(graph: FormationGraph, family: PotentialFamily) -> CatalogEntry:
    """Four distinct collinear agents; three gaps from three agent balances."""
    if _require_certified(graph) != "tetrahedron":
        raise OracleError("four-agent collinear construction is 3-D only")
    d = _distance_table(graph)
    scale = float(np.mean(list(d.values())[:6]))

    def eqs(x):
        s1, s2, s3 = x
        x_ = np.array([0.0, s1, s1 + s2, s1 + s2 + s3])
        g = {pair: _g_of(family, abs(x_[pair[0] - 1] - x_[pair[1] - 1]), d[pair])
             for pair in d if pair[1] <= 4}
        f1 = sum(g[(1, j)] * (x_[0] - x_[j - 1]) for j in (2, 3, 4))
        f2 = (g[(1, 2)] * (x_[1] - x_[0]) + g[(2, 3)] * (x_[1] - x_[2])
              + g[(2, 4)] * (x_[1] - x_[3]))
        f4 = sum(g[(min(j, 4), max(j, 4))] * (x_[3] - x_[j - 1]) for j in (1, 2, 3))
        return [f1, f2, f4]

    seeds = [np.array(sc) * scale for sc in
             [(0.5, 0.5, 0.5), (0.4, 0.6, 0.4), (0.6, 0.3, 0.6),
              (0.3, 0.8, 0.3), (0.7, 0.7, 0.7), (0.25, 0.4, 0.55)]]
    s1, s2, s3 = _multi_root(eqs, seeds, "collinear gaps (s1, s2, s3)")
    rigid = np.zeros((4, 3))
    rigid[:, 0] = [0.0, s1, s1 + s2, s1 + s2 + s3]
    return _finalize(_flex_perp(rigid, graph), graph, family, "rootfind-coplanar",
                     "degenerate_rigid", "collinear_distinct", polish=True)


def _z_pins(graph: FormationGraph):
    """Flat indices of every third coordinate of the rigid agents."""
    d = graph.dimension
    return [i * d + (d - 1) for i in graph.rigid_nodes]


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
    p = newton_polish(p, graph, family)
    residual = float(balance_residuals(p, graph, family).max())
    cls = classify(p, graph, family)
    return CatalogEntry(positions=p.reshape(graph.num_nodes, graph.dimension),
                        kind=cls.kind, subform=cls.subform, residual=residual,
                        method="flow-capture", family_name=family.name)


# ---------------------------------------------------------------------------
# Catalog assembly


BUILDERS_2D = {
    "collinear_distinct": find_collinear_equilibrium,
    "coincident_pair": coincident_pair_equilibrium,
    "all_coincident": all_coincident_equilibrium,
}

BUILDERS_3D = {
    "convex_quadrilateral": square_equilibrium,
    "interior_point": interior_point_equilibrium,
    "all_coincident": all_coincident_equilibrium,
    "triple_coincident": triple_coincident_equilibrium,
    "double_pair": double_pair_equilibrium,
    "pair_endpoint_collinear": pair_endpoint_equilibrium,
    "pair_interior_collinear": pair_interior_equilibrium,
    "collinear_distinct": collinear_four_equilibrium,
}

# Subforms whose construction is exact for every admissible potential family.
FAMILY_INDEPENDENT_SUBFORMS = {
    2: ("coincident_pair", "all_coincident"),
    3: ("all_coincident", "triple_coincident", "double_pair"),
}


def family_admits(p, graph: FormationGraph, family: PotentialFamily) -> bool:
    """True when the family's potential is finite at this realization.

    Families that blow up at the coincidence boundary (phi -> inf as
    ||z|| -> 0) exclude coincidence configurations from their domain, so
    those constructions are not equilibria for them.
    """
    st = edge_states(p, graph, family)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.asarray(family.phi(st.e, graph.desired_array), dtype=float)
        return bool(np.all(np.isfinite(phi)) and np.all(np.isfinite(st.g)))


def build_catalog(graph: FormationGraph, family: PotentialFamily,
                  subforms=None, include_flex_coincident: bool = True):
    """Construct every requested undesired equilibrium for the topology.

    Returns (entries, failures): entries in a deterministic order, failures a
    subform -> message map for constructions that did not succeed with this
    distance set / family (reported, not raised).
    """
    _require_certified(graph)
    builders = BUILDERS_2D if graph.dimension == 2 else BUILDERS_3D
    if subforms is None:
        subforms = list(builders)
    entries, failures = [], {}
    boundary_msg = ("construction lies on the coincidence boundary, where this "
                    "potential family diverges (outside its domain)")
    if include_flex_coincident:
        p = flex_coincident_equilibrium(graph)
        if family_admits(p, graph, family):
            residual = float(balance_residuals(p, graph, family).max())
            entries.append(CatalogEntry(positions=p, kind="flex_coincident",
                                        subform=None, residual=residual,
                                        method="coincidence-construct",
                                        family_name=family.name))
        else:
            failures["flex_coincident"] = boundary_msg
    for name in subforms:
        if name not in builders:
            raise OracleError(f"unknown subform {name!r} for dimension "
                              f"{graph.dimension}; known: {sorted(builders)}")
        try:
            entry = builders[name](graph, family)
        except OracleError as exc:
            failures[name] = str(exc)
            continue
        if family_admits(entry.positions, graph, family):
            entries.append(entry)
        else:
            failures[name] = boundary_msg
    return entries, failures
