"""Independent construction of equilibria for the certified topologies.

Each undesired subform has one ``_Layout`` in ``_LAYOUTS``, in the order the
catalog walks.  Its rigid agents sit at a combination of fixed templates:
the slots of ``stability.LINE_SLOTS`` on the first axis, the unit square, or
the unit triangle with its centroid.  One method, ``_Layout.solve``, checks
that the desired lengths and the family admit the layout and then solves
the balance along the templates for the unknown scales: one by Brent's
method on a proved bracket, two or more by damped Newton on the balance's
analytic Jacobian from several seeds (rootfind-collinear,
rootfind-coplanar).  No scale, or one whose bracket closes to a point, is
exact for every family (coincidence-construct).  The layout solve
evaluates the family on its own edge set, apart from the simulator and the
edge kernel, so its roots are an independent construction.

The flex agent sits at its desired length from its anchor along the last
axis.  ``_finalize`` builds every CatalogEntry: it Newton-polishes every
point but an exact (coincidence-construct) one, rejects points outside the
family's domain and classifies; polish and classification run the edge
kernel.  Every point is constructed, never simulated: nothing here
integrates the closed loop.

``root``, one Newton solve from one seed, is a module attribute that every
seed looks up at call time, so a caller may wrap it to count seeds.  It is a
partial, not a function, so a tracer that wraps every public function of
this module and then ``oracle.root`` counts each seed once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .control import gradient_control, potential_value
from .graph import FormationGraph, as_positions, simplex_gram
from .potentials import PotentialFamily
from .stability import LINE_SLOTS, assemble_hessian, classify


POLISH_TOL = 1e-12        # balance residual that ends a Newton polish
POLISH_MAX_ITER = 50      # Newton iterations before a polish stalls
BRENT_MAX_ITER = 100      # Brent iterations on a one-scale bracket
NEWTON_MAX_STEPS = 20     # Newton steps per seed,
NEWTON_HALVINGS = 10      # and the halvings a step may take to reduce max|F|


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
                                   # coincidence-construct
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


# ---------------------------------------------------------------------------
# Newton polish on the full balance system


def newton_polish(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """Drive the balance residual below POLISH_TOL in POLISH_MAX_ITER Newton steps.

    The balance map is the potential gradient, so its Jacobian is the
    assembled Hessian; least-squares steps take the minimal-norm correction,
    leaving the rigid-motion (and flex-orbit) null directions untouched.
    Each iteration makes one control pass, which also gives the residual,
    and one Hessian.
    """
    p = as_positions(p, graph).reshape(-1).astype(float)
    for it in range(POLISH_MAX_ITER + 1):
        u = gradient_control(p, graph, family)
        res = float(np.linalg.norm(u.reshape(graph.num_nodes, -1), axis=1).max())
        if res < POLISH_TOL:
            return p
        if it == POLISH_MAX_ITER:
            raise OracleError(f"Newton polish stalled at residual {res:.3e}")
        h = assemble_hessian(p, graph, family)
        if not np.all(np.isfinite(h)):
            raise OracleError("balance Jacobian is non-finite; cannot polish "
                              "(coincident agents with a singular family?)")
        step, *_ = np.linalg.lstsq(h, u, rcond=1e-10)
        p += step


# ---------------------------------------------------------------------------
# Desired-shape embeddings


def _require_certified(graph: FormationGraph) -> str:
    topo = graph.certified_topology()
    if topo is None:
        raise OracleError("oracle constructions cover only the certified "
                          "triangle and tetrahedron topologies")
    return topo


def _rigid_embedding(graph: FormationGraph) -> np.ndarray:
    """The rigid agents at their desired distances, in ``simplex_gram``'s frame."""
    topo = _require_certified(graph)
    k, rigid = graph.num_nodes - 1, graph._rigid
    sq = np.zeros((k, k))
    sq[graph._tails[rigid], graph._heads[rigid]] = graph._dbar2[rigid]
    try:
        low = np.linalg.cholesky(simplex_gram(sq + sq.T))
    except np.linalg.LinAlgError:
        raise OracleError(f"{topo} distances are not realizable") from None
    return np.vstack([np.zeros(k - 1), low])


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


def _brent(f, xpre, xcur, fpre, fcur):
    """The root of f on [xpre, xcur], where f has the values fpre and fcur of
    opposite signs, by Brent's method (Brent 1973, ch. 4) to within
    (1e-15 + 8.9e-16 |x|) / 2.  The arithmetic follows SciPy's C routine
    ``brentq.c`` line for line, so both return the same float."""
    xblk = fblk = spre = scur = 0.0
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-15 + 8.9e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if short := abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                           # extrapolate
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)    # short step, or bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise OracleError(f"layout scale root-finder did not converge in {BRENT_MAX_ITER} iterations")


def _bracketed_root(f, lo, hi):
    """Brent's method on [lo, hi], with a readable error when the ends share a sign."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi > 0:
        raise OracleError(f"layout scale bracket failed: f({lo:.4g})={f_lo:.4g}, "
                          f"f({hi:.4g})={f_hi:.4g}")
    return _brent(f, lo, hi, f_lo, f_hi)


def _newton(fun, x):
    """Damped Newton from the seed array x0 = x: the x and F it ends at.

    ``fun(x)`` gives F(x) and a function that gives J(x), so a trial point
    that is not taken costs F alone.  Each step s solves J s = F, is cut to
    |x0| and halved until max|F| falls.  A seed ends once s, or Deuflhard's
    estimate |s| |F_new| / |F_old| of the distance left, is below 1e-15 |x0|;
    when J is singular or s not finite; when no halving reduces max|F|; when
    max|F| fell by less than 10 % over three steps; or after NEWTON_MAX_STEPS.
    """
    with np.errstate(all="ignore"):          # a non-finite F is judged, not warned
        f, jac = fun(x)
        history, bound = [np.abs(f).max()], np.dot(x, x)
        for _ in range(NEWTON_MAX_STEPS):
            try:
                step = np.linalg.solve(jac(), f)
            except np.linalg.LinAlgError:
                break
            if not 1e-30 * bound < (size := np.dot(step, step)) < np.inf:
                break
            step *= min(1.0, (bound / size) ** 0.5)
            for _ in range(NEWTON_HALVINGS + 1):
                f_t, jac_t = fun(trial := x - step)
                if (res := np.abs(f_t).max()) < history[-1]:
                    break
                step /= 2
            else:
                break
            x, f, jac = trial, f_t, jac_t
            history.append(res)
            if (np.dot(step, step) * res**2 <= 1e-30 * bound * history[-2]**2
                    or len(history) > 3 and res > 0.9 * history[-4]):
                break
    return x, f


root = partial(_newton)         # a partial, for tracers: see the module docstring


def _multi_root(fun, seeds, names):
    """Try ``root`` on ``fun`` from several seeds; return the first positive
    solution.  A seed's end point is judged by its gaps and residual alone.
    When no root has all gaps positive, the error lists the gaps of the
    roots the seeds reached apart from the seeds that did not converge,
    with their residuals.
    """
    tried = []
    for seed in seeds:
        seed = np.asarray(seed, dtype=float)
        x, f = root(fun, seed)
        residual = float(np.abs(f).max())
        tried.append((seed, residual, x))
        if np.all(x > 1e-9) and residual < 1e-10:
            return x
    roots = [gaps.tolist() for _, res, gaps in tried if res < 1e-10]
    failed = [(seed.tolist(), res) for seed, res, _ in tried if not res < 1e-10]
    if not roots:
        raise OracleError(f"gap root-finder did not converge for {names}; seeds and "
                          f"residuals tried: {failed}")
    head = (f"every gap root-finder seed converged for {names}, but no root has all "
            f"gaps positive" if not failed else
            f"no root with all gaps positive for {names}: {len(failed)} of {len(tried)} "
            f"seeds did not converge, the others reached roots with a gap <= 1e-9; "
            f"seeds and residuals that did not converge: {failed}")
    raise OracleError(f"{head}; gaps of the roots found: {roots}")


# ---------------------------------------------------------------------------
# Layouts: the rigid agents as a combination of fixed templates


@dataclass(frozen=True)
class _Layout:
    """The rigid agents sit at sum_k x_k T_k for k unknown scales x > 0.

    ``templates`` stacks the T_k as a (k, N, d) array.  In a line layout,
    rigid agent r + 1 sits in slot ``slots[r]`` (numbered along the first
    axis from 0; agents of one slot coincide) and T_k is the first unit
    vector for the agents whose slot lies past gap k, so x_k is the k-th
    gap.  A planar layout has one unit-side template, and ``equal`` names
    the edge groups whose desired lengths its symmetry needs to agree.
    ``seeds`` are the Newton seeds of the gaps, as fractions of the mean
    desired length over slot pairs.  ``solve`` checks and solves a layout
    in one pass over the rigid edges e = (i, j) and their template vectors
    t_ek = T_k[i] - T_k[j].  The edges whose t_ek are not all zero are the
    crossing edges, and the scales solve the balance over them

        F_k(x) = sum_e g(|z_e|^2 - dbar_e^2) <z_e, t_ek>,  z_e = sum_k x_k t_ek:

    F is the derivative of V along the layout, and its Jacobian is
    J_kl = sum_e 2 rho_e a_ek a_el + g_e <t_ek, t_el>, a_ek = <z_e, t_ek>.

    One scale: <z_e, t_e> = x c_e^2 with c_e = |t_e|, and g has the sign of
    e, so each term has the sign of x c_e - dbar_e.  All terms are <= 0 at
    lo = min dbar_e / c_e and >= 0 at hi = max dbar_e / c_e, so F(lo) <= 0
    <= F(hi); when lo = hi, every edge has its desired length there.

    Box bound, two or more gaps: with every gap positive, an edge crossing
    gap k has <z_e, t_ek> = |z_e| >= x_k, and any other edge has t_ek = 0.
    A gap longer than the largest desired length among its crossing edges
    makes every term of F_k positive, so no root has one.
    """

    templates: np.ndarray
    method: str
    slots: tuple = ()
    seeds: tuple = ()
    equal: tuple = ()

    def solve(self, graph: FormationGraph, family: PotentialFamily):
        """(rigid positions, method), or OracleError.

        Three refusals come before any solving.  Agents in one slot must
        reach every other slot along edges of the same desired lengths, and
        each ``equal`` group must share one length; otherwise the agents'
        balances differ and F = 0 is no equilibrium.  A rigid edge with a
        zero template vector has zero length whatever the scales, so neither
        has a family whose g is not finite at e = -dbar^2.
        """
        k, n, d = self.templates.shape
        rigid = graph._rigid
        t = self.templates[:, graph._tails[rigid]] - self.templates[:, graph._heads[rigid]]
        moving = t.any(axis=(0, 2))
        cross, inner, t = rigid[moving], rigid[~moving], t[:, moving]
        length, tails, heads = graph._dbar.tolist(), graph._tails.tolist(), graph._heads.tolist()
        edges = [(e, tails[e], heads[e]) for e in cross.tolist()]
        reach = [sorted((self.slots[i + j - a], length[e]) for e, i, j in edges if a in (i, j))
                 for a in range(len(self.slots))]
        for a, slot in enumerate(self.slots):
            ra, rb = reach[a], reach[b := self.slots.index(slot)]
            if [s for s, _ in ra] != [s for s, _ in rb] or any(
                    abs(x - y) > 1e-12 for (_, x), (_, y) in zip(ra, rb)):
                raise OracleError(
                    f"construction needs equal desired distances: coincident agents "
                    f"{b + 1} and {a + 1} have desired lengths "
                    f"{[round(float(x), 12) for _, x in rb]} and "
                    f"{[round(float(x), 12) for _, x in ra]} to the other points")
        desired = dict(zip(graph.edges, graph.desired))
        for what, group in self.equal:
            if any(abs(desired[e] - desired[group[0]]) > 1e-12 for e in group):
                raise OracleError(f"construction needs equal desired distances: {what}")
        if inner.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                if not np.isfinite(family.bind(graph._dbar[inner])[1](-graph._dbar2[inner])).all():
                    raise OracleError(_BOUNDARY)

        flat = t.reshape(k, len(cross) * d)
        dbar, dbar2 = graph._dbar[cross], graph._dbar2[cross]
        _, g, rho = family.bind(dbar)     # bound once per solve, not per balance
        gram = np.einsum("kmd,lmd->mkl", t, t)     # <t_ek, t_el>, as (m, k, k)

        def balance(x):
            """F at the scales x, and a function that gives its Jacobian there."""
            z = np.dot(x, flat).reshape(-1, d)
            e = np.vecdot(z, z) - dbar2
            ge = g(e)

            def jacobian():                         # J_kl of the class docstring
                a = np.dot(gram, x)                 # a_ek = <z_e, t_ek>, as (m, k)
                return 2.0 * np.dot(a.T * rho(e), a) + np.dot(gram.T, ge)
            return np.dot(flat, (ge[:, None] * z).ravel()), jacobian

        method = self.method
        if k == 0:
            x, method = np.zeros(0), "coincidence-construct"
        elif k == 1:
            ends = dbar / np.linalg.norm(flat.reshape(-1, d), axis=1)
            lo, hi = float(ends.min()), float(ends.max())
            if hi - lo > 1e-12:
                x = [_bracketed_root(lambda s: float(balance([s])[0][0]), lo, hi)]
            else:
                x, method = [lo], "coincidence-construct"
        else:
            per_pair = {frozenset((self.slots[i], self.slots[j])): length[e] for e, i, j in edges}
            scale = np.mean(list(per_pair.values()))
            x = _multi_root(balance, [np.array(s) * scale for s in self.seeds],
                            f"the gaps of line layout {self.slots}")
        return np.dot(x, self.templates.reshape(k, n * d)).reshape(n, d), method


def _line(slots, dim, seeds=()):
    """The line layout of a LINE_SLOTS vector: T_k moves the agents past gap k."""
    templates = np.zeros((max(slots), len(slots), dim))
    templates[..., 0] = np.array(slots) > np.arange(max(slots))[:, None]
    return _Layout(templates, "rootfind-collinear", slots, seeds)


# The tetrahedron's planar layouts: the unit square 1-2-3-4, and the unit
# equilateral triangle 1-2-3 with agent 4 at its centroid.
_PLANAR = {2: {}, 3: {
    "convex_quadrilateral": _Layout(
        np.array([[[0.5, 0.5, 0.0], [-0.5, 0.5, 0.0], [-0.5, -0.5, 0.0], [0.5, -0.5, 0.0]]]),
        "rootfind-coplanar",
        equal=(("the four square sides", ((1, 2), (2, 3), (3, 4), (1, 4))),
               ("the two diagonals", ((1, 3), (2, 4))))),
    "interior_point": _Layout(
        np.array([[[np.cos(a) / np.sqrt(3.0), np.sin(a) / np.sqrt(3.0), 0.0]
                    for a in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)] + [[0.0, 0.0, 0.0]]]),
        "rootfind-coplanar",
        equal=(("outer triangle sides", ((1, 2), (1, 3), (2, 3))),
               ("vertex-to-center edges", ((1, 4), (2, 4), (3, 4))))),
}}

# Newton seeds of the line layouts with two or more gaps
_SEEDS = {
    (2, "collinear_distinct"): ((0.577, 0.577), (0.4, 0.7), (0.7, 0.4)),
    (3, "pair_endpoint_collinear"): ((0.6, 0.6), (0.4, 0.8), (0.8, 0.4), (0.3, 0.5)),
    (3, "pair_interior_collinear"): ((0.6, 0.6), (0.9, 0.5), (0.5, 0.9), (1.1, 1.1)),
    (3, "collinear_distinct"): ((0.5, 0.5, 0.5), (0.4, 0.6, 0.4), (0.6, 0.3, 0.6),
                                (0.3, 0.8, 0.3), (0.7, 0.7, 0.7), (0.25, 0.4, 0.55)),
}

# One layout per subform, in the order build_catalog walks them: the planar
# layouts, then the line layouts of stability.LINE_SLOTS.
_LAYOUTS = {
    dim: {**_PLANAR[dim], **{name: _line(slots, dim, _SEEDS.get((dim, name), ()))
                             for name, slots in table.items()}}
    for dim, table in LINE_SLOTS.items()
}


_BOUNDARY = ("construction lies on the coincidence boundary, where this "
             "potential family diverges (outside its domain)")


def _finalize(positions, graph: FormationGraph, family: PotentialFamily, method: str,
              expect) -> CatalogEntry:
    """Polish a root-found point, check the domain, classify, and build the
    entry; ``expect`` is the (kind, subform) the point must classify as."""
    p = as_positions(positions, graph)
    if method != "coincidence-construct":
        p = newton_polish(p, graph, family).reshape(p.shape)
    if not np.isfinite(potential_value(p, graph, family)):
        raise OracleError(_BOUNDARY)
    cls = classify(p, graph, family)
    residual = cls.diagnostics["residual"]
    if (cls.kind, cls.subform) != expect:
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
    _require_certified(graph)
    table = _LAYOUTS[graph.dimension]
    if subform not in table:
        raise OracleError(f"unknown subform {subform!r} for dimension "
                          f"{graph.dimension}; known: {sorted(table)}")
    rigid, method = table[subform].solve(graph, family)
    flex = rigid[-1].copy()
    flex[-1] += graph.desired[graph.flex_edge_index]
    return _finalize(np.vstack([rigid, flex]), graph, family, method,
                     ("degenerate_rigid", subform))


# ---------------------------------------------------------------------------
# Catalog assembly


def build_catalog(graph: FormationGraph, family: PotentialFamily):
    """Construct the flex-coincident equilibrium and one of every subform.

    Returns (entries, failures): entries in a deterministic order, failures a
    name -> message map for constructions that did not succeed with this
    distance set / family (reported, not raised).  An uncertified graph
    raises OracleError; ``construct_equilibrium`` builds a single subform.
    """
    _require_certified(graph)
    entries, failures = [], {}
    for name in ["flex_coincident", *_LAYOUTS[graph.dimension]]:
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
