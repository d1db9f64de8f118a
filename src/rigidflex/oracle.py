"""Independent construction of equilibria for the certified topologies.

Each undesired subform has one ``_Layout`` in ``_LAYOUTS``, in the order the
catalog walks.  Its rigid agents sit at a combination of fixed templates,
tuples of Python floats: the slots of ``stability.LINE_SLOTS`` on the first
axis, the unit square, or the unit triangle with its centroid.  One method,
``_Layout.solve``, checks that the desired lengths and the family admit the
layout and then solves the balance along the templates for the unknown
scales: one by bisection of a proved bracket down to adjacent floats, two or
more by damped Newton on the balance's analytic Jacobian from several seeds
(rootfind-collinear, rootfind-coplanar).  No scale, or one whose bracket
ends are equal floats, is exact for every family (coincidence-construct).
The layout solve evaluates the family on its own edge set, apart from the
simulator and the edge pass, so its roots are an independent construction.

The balance and its Jacobian are generated per layout, graph shape and
family as one straight-line function on Python floats (``_balance_source``),
compiled by ``control._generated`` and bound to the graph's lengths by
``control._bound``, as the edge pass is.  Newton, its k x k solve, the
bisection and each agent's placement run on floats in a fixed summation
order, so no root or position depends on how a BLAS sums.

The flex agent sits at its desired length from its anchor along the last
axis.  ``_finalize`` builds every CatalogEntry from one edge pass at the
constructed point: it rejects points outside the family's domain and
classifies.  Every point is constructed, never simulated or polished
(``newton_polish`` serves ``rigidflex run``'s equilibrium reports).

``root``, one Newton solve from one seed, is a module attribute that every
seed looks up at call time, so a caller may wrap it to count seeds.  It is a
partial, not a function, so a tracer that wraps every public function of
this module and then ``oracle.root`` counts each seed once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .control import _bound, _call, _dot, _norm, _on_numpy, _per_call, _sum
from .graph import FormationGraph, as_positions, simplex_gram
from .potentials import PotentialFamily, evaluators
from .stability import LINE_SLOTS, _classify, _hessian


POLISH_TOL = 1e-12        # balance residual that ends a Newton polish
POLISH_MAX_ITER = 50      # Newton iterations before a polish stalls
NEWTON_MAX_STEPS = 20     # Newton steps per seed,
NEWTON_HALVINGS = 10      # and the halvings a step may take to reduce max|F|


class OracleError(RuntimeError):
    """Equilibrium construction failed (non-convergence or unmet symmetry)."""


@dataclass(frozen=True)
class CatalogEntry:
    """One constructed equilibrium, as built: never polished, immutable."""

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
    Each iteration makes one edge pass (``control._bound``) on the float
    list of p, which returns the balance residual with u, the right-hand
    side, and whose z, g and rho give the Hessian.
    """
    p, evaluate = as_positions(p, graph).reshape(-1).astype(float), _bound(graph, family)
    for it in range(POLISH_MAX_ITER + 1):
        u, _, _, z, g, rho, residual = evaluate(p.tolist())
        if residual < POLISH_TOL:
            return p
        if it == POLISH_MAX_ITER:
            raise OracleError(f"Newton polish stalled at residual {residual:.3e}")
        h = _hessian(z, g, rho, graph._shape)
        if not np.all(np.isfinite(h)):
            raise OracleError("balance Jacobian is non-finite; cannot polish "
                              "(coincident agents with a singular family?)")
        step, *_ = np.linalg.lstsq(h, np.array(u), rcond=1e-10)
        p += step


# ---------------------------------------------------------------------------
# Desired-shape embeddings


def _require_certified(graph: FormationGraph) -> str:
    topo = graph.certified_topology()
    if topo is None:
        raise OracleError("oracle constructions cover only the certified "
                          "triangle and tetrahedron topologies")
    return topo


def _rigid_embedding(graph: FormationGraph) -> list:
    """The rigid agents at their desired distances in ``simplex_gram``'s frame:
    its Cholesky factor as rows of Python floats, sums left to right, each
    column times its pivot's reciprocal as LAPACK's unblocked factor does."""
    topo = _require_certified(graph)
    k, (tails, heads, *_) = graph.num_nodes - 1, graph._shape
    sq = [[0.0] * k for _ in range(k)]
    for i, j, d2 in zip(tails[:-1], heads[:-1], graph._dbar2):
        sq[i][j] = sq[j][i] = d2
    low = [[0.0] * (k - 1) for _ in range(k)]
    for i, row in enumerate(simplex_gram(sq).tolist(), 1):
        r = low[i]
        for j in range(i - 1):
            r[j] = (row[j] - _dot(r[:j], low[j + 1])) * (1.0 / low[j + 1][j])
        if not (pivot := row[i - 1] - _dot(r[:i - 1], r)) > 0:     # also NaN
            raise OracleError(f"{topo} distances are not realizable")
        r[i - 1] = math.sqrt(pivot)
    return low


def desired_equilibrium(graph: FormationGraph) -> np.ndarray:
    """A realization with every edge at its desired length, the flex agent
    on the far side of its anchor from the rigid centroid."""
    rigid = _rigid_embedding(graph)
    direction = [a - _sum(column) / len(rigid) for a, column in zip(rigid[-1], zip(*rigid))]
    size, length = _norm(direction), graph.desired[graph.flex_edge_index]
    return np.array(rigid + [[a + length * (c / size) for a, c in zip(rigid[-1], direction)]])


def flex_coincident_equilibrium(graph: FormationGraph) -> np.ndarray:
    """Rigid agents at the desired shape, flex agent on top of its anchor."""
    rigid = _rigid_embedding(graph)
    return np.array(rigid + [rigid[-1]])


# ---------------------------------------------------------------------------
# Root-finding helpers


def _bracketed_root(f, lo, hi):
    """The root of f on [lo, hi] by bisection, with a readable error when
    the ends share a sign.  The bracket is halved by the sign of f until f
    is exactly 0 at an end or the ends are adjacent floats, and the end with
    the smaller |f| is returned (lo on a tie).  Every step shrinks a float
    interval, so no cap is needed, and no tolerance picks the end: a layout
    whose lengths are scaled by a power of two has its root scaled exactly."""
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo <= 0 <= f_hi or f_hi <= 0 <= f_lo):        # also a NaN end
        raise OracleError(f"layout scale bracket failed: f({lo:.4g})={f_lo:.4g}, "
                          f"f({hi:.4g})={f_hi:.4g}")
    while f_lo and f_hi and lo < (mid := 0.5 * (lo + hi)) < hi:
        if ((f_mid := f(mid)) < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def _max_abs(f) -> float:
    """max |F_k|, NaN if any F_k is NaN, as numpy's max gives."""
    worst = 0.0
    for v in f:
        v = abs(v)
        if v > worst or v != v:         # a NaN is taken and then kept
            worst = v
    return worst


def _solve(jac, f):
    """s with J s = F for k = 2 or 3 gaps (one scale is bisected) by
    Cramer's rule, the 3x3 determinants by cofactors along the first row, or
    None when det J is exactly 0.  For a 2x2 J with J_12 == J_21, swapping
    the unknowns swaps s bit for bit."""
    if len(f) == 2:
        ((a, b), (c, d)), (p, q) = jac, f
        det = a * d - b * c
        return None if det == 0 else [(p * d - b * q) / det, (a * q - p * c) / det]
    ((a, b, c), (d, e, g), (h, i, j)), (p, q, r) = jac, f
    ej, dj, di = e * j - g * i, d * j - g * h, d * i - e * h
    det = a * ej - b * dj + c * di
    if det == 0:
        return None
    qj, dr, er = q * j - g * r, d * r - q * h, e * r - q * i
    return [(p * ej - b * qj + c * (q * i - e * r)) / det,
            (a * qj - p * dj + c * dr) / det,
            (a * er - b * dr + p * di) / det]


def _newton(fun, x):
    """Damped Newton from the seed x0 = x, a list of floats: the x and F it
    ends at, as lists.

    ``fun(x)`` gives F(x) as a list and a function that gives J(x) as a list
    of rows, so a trial point that is not taken costs F alone.  Each step s
    solves J s = F (``_solve``), is cut to |x0| and halved until max|F|
    falls.  A seed ends once s, or Deuflhard's estimate |s| |F_new| / |F_old|
    of the distance left, is below 1e-15 |x0|; when J is exactly singular or
    s not finite; when no halving reduces max|F|; when max|F| fell by less
    than 10 % over three steps; or after NEWTON_MAX_STEPS.  It runs on
    Python floats alone: a non-finite F or J is judged, never raised or
    warned about, and no sum depends on how a BLAS sums.
    """
    f, jac = fun(x)
    history, bound = [_max_abs(f)], _dot(x, x)
    for _ in range(NEWTON_MAX_STEPS):
        step = _solve(jac(), f)
        if step is None or not 1e-30 * bound < (size := _dot(step, step)) < math.inf:
            break
        cut = min(1.0, (bound / size) ** 0.5)
        step = [s * cut for s in step]
        for _ in range(NEWTON_HALVINGS + 1):
            f_t, jac_t = fun(trial := [a - s for a, s in zip(x, step)])
            if (res := _max_abs(f_t)) < history[-1]:
                break
            step = [s / 2 for s in step]
        else:
            break
        x, f, jac = trial, f_t, jac_t
        history.append(res)
        if (_dot(step, step) * (res * res) <= 1e-30 * bound * (history[-2] * history[-2])
                or len(history) > 3 and res > 0.9 * history[-4]):
            break
    return x, f


root = functools.partial(_newton)         # a partial, for tracers: see the module docstring


def _multi_root(fun, seeds, names):
    """Try ``root`` on ``fun`` from several seeds; return the first positive
    solution.  A seed's end point is judged by its gaps and residual alone.
    When no root has all gaps positive, the error lists the gaps of the
    roots the seeds reached apart from the seeds that did not converge,
    with their residuals.
    """
    tried = []
    for seed in seeds:
        seed = [float(v) for v in seed]
        x, f = root(fun, seed)
        residual = _max_abs(f)
        tried.append((seed, residual, x))
        if residual < 1e-10 and all(v > 1e-9 for v in x):
            return x
    roots = [gaps for _, res, gaps in tried if res < 1e-10]
    failed = [(seed, res) for seed, res, _ in tried if not res < 1e-10]
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


@dataclass(frozen=True, eq=False)         # hashed by identity: a key of the code caches
class _Layout:
    """The rigid agents sit at sum_k x_k T_k for k unknown scales x > 0.

    ``templates`` holds the T_k, each N points as tuples of d floats.  In a
    line layout, rigid agent r + 1 sits in slot ``slots[r]`` (numbered along
    the first axis from 0; agents of one slot coincide) and T_k is the first
    unit vector for the agents whose slot lies past gap k, so x_k is the
    k-th gap.  A planar layout has one unit-side template, and ``equal`` names
    the edge groups whose desired lengths its symmetry needs to agree.
    ``seeds`` are the Newton seeds of the gaps, as fractions of the mean
    desired length over slot pairs.  ``solve`` checks and solves a layout
    over the rigid edges e = (i, j) and their template vectors
    t_ek = T_k[i] - T_k[j].  The edges whose t_ek are not all zero are the
    crossing edges, and the scales solve the balance over them

        F_k(x) = sum_e g(|z_e|^2 - dbar_e^2) <z_e, t_ek>,  z_e = sum_k x_k t_ek:

    F is the derivative of V along the layout, and its Jacobian is
    J_kl = sum_e 2 rho_e a_ek a_el + g_e <t_ek, t_el>, a_ek = <z_e, t_ek>.

    ``_balance_source`` writes F and J as straight-line code on Python floats
    for one layout, graph shape and family, with the crossing edges and
    their t_ek fixed in it and each edge's dbar^2 bound per graph.  It sums
    in a fixed order: z_e per coordinate over k, then |z_e|^2 and a_ek left
    to right, then F_k and J_kl edge by edge, each edge's term of J_kl
    grouped, and J_lk is J_kl.  So a mirror image of a layout has the mirror
    image of F and J, bit for bit.

    One scale: <z_e, t_e> = x c_e^2 with c_e = |t_e|, and g has the sign of
    e, so each term has the sign of x c_e - dbar_e.  All terms are <= 0 at
    lo = min dbar_e / c_e and >= 0 at hi = max dbar_e / c_e, so F(lo) <= 0
    <= F(hi), and ``_bracketed_root`` bisects [lo, hi] when lo < hi.  When
    lo and hi are one float, every edge has its desired length there.

    Box bound, two or more gaps: with every gap positive, an edge crossing
    gap k has <z_e, t_ek> = |z_e| >= x_k, and any other edge has t_ek = 0.
    A gap longer than the largest desired length among its crossing edges
    makes every term of F_k positive, so no root has one.
    """

    templates: tuple
    method: str
    slots: tuple = ()
    seeds: tuple = ()
    equal: tuple = ()

    def solve(self, graph: FormationGraph, family: PotentialFamily):
        """(rigid positions, method), or OracleError.

        Three refusals come before any solving.  Agents in one slot must
        reach every other slot along edges of equal desired lengths, and
        each ``equal`` group must share one length, as floats compare;
        otherwise the agents' balances differ and F = 0 is no equilibrium.
        A rigid edge with a zero template vector has zero length whatever
        the scales, so neither has a family whose g is not finite at
        e = -dbar^2: the family's g runs there on floats, and where floats
        raise, ``control._on_numpy`` runs it, as in the generated pass.
        ``control._bound`` binds the balance to the graph's lengths, as it
        binds every generated edge pass.  Each coordinate sums x_k T_k left
        to right.
        """
        shape, length = graph._shape, graph.desired
        edges, inner, t = _geometry(self, shape)
        reach = [sorted((self.slots[i + j - a], length[e]) for e, i, j in edges if a in (i, j))
                 for a in range(len(self.slots))]
        for a, slot in enumerate(self.slots):
            ra, rb = reach[a], reach[b := self.slots.index(slot)]
            if ra != rb:
                raise OracleError(
                    f"construction needs equal desired distances: coincident agents "
                    f"{b + 1} and {a + 1} have desired lengths "
                    f"{[x for _, x in rb]} and {[x for _, x in ra]} to the other points")
        desired = dict(zip(graph.edges, graph.desired))
        for what, group in self.equal:
            if any(desired[e] != desired[group[0]] for e in group):
                raise OracleError(f"construction needs equal desired distances: {what}")
        if inner:
            g, d2 = evaluators(family)[1], graph._dbar2
            for e in inner:
                try:
                    ge = g(-d2[e], d2[e])
                except (ZeroDivisionError, OverflowError):
                    ge = _on_numpy(g, -d2[e], d2[e])
                if not math.isfinite(ge):
                    raise OracleError(_BOUNDARY)

        *_, n, d = shape                    # N + 1 agents in d-D
        if not self.templates:
            return [[0.0] * d for _ in range(n - 1)], "coincidence-construct"
        balance = _bound(graph, family, source=_balance_source, key=(self,))
        method = self.method
        if len(self.templates) == 1:
            ends = [length[e] / _norm(te[0]) for (e, _, _), te in zip(edges, t)]
            lo, hi = min(ends), max(ends)
            if lo < hi:
                x = [_bracketed_root(lambda s: balance([s])[0][0], lo, hi)]
            else:
                x, method = [lo], "coincidence-construct"
        else:
            per_pair = {frozenset((self.slots[i], self.slots[j])): length[e] for e, i, j in edges}
            scale = _sum(per_pair.values()) / len(per_pair)
            x = _multi_root(balance, [[v * scale for v in seed] for seed in self.seeds],
                            f"the gaps of line layout {self.slots}")
        return [[_dot(x, [tk[a][c] for tk in self.templates]) for c in range(d)]
                for a in range(n - 1)], method


@functools.lru_cache(maxsize=64)
def _geometry(layout: _Layout, shape: tuple):
    """The crossing edges of a layout on a graph shape as (e, i, j), its
    other rigid edges, and each crossing edge's t_ek per scale k as tuples
    of d floats, differences of the templates' tuples."""
    tails, heads = shape[:2]
    rigid = tuple(zip(range(len(tails) - 1), tails, heads))   # the flex edge sorts last
    t = [tuple(tuple(a - b for a, b in zip(tk[i], tk[j])) for tk in layout.templates)
         for _, i, j in rigid]
    moving = [any(map(any, te)) for te in t]
    return (tuple(edge for edge, m in zip(rigid, moving) if m),
            tuple(e for (e, _, _), m in zip(rigid, moving) if not m),
            tuple(te for te, m in zip(t, moving) if m))


def _combination(terms) -> str:
    """Source of sum_i name_i c_i left to right over the (name, c) with c != 0,
    +-name where c is +-1; '0.0' when there are none."""
    parts = [name if c == 1 else f"-{name}" if c == -1 else f"{name} * {c!r}"
             for name, c in terms if c]
    return " + ".join(parts) or "0.0"


def _balance_source(tails, heads, n, d, family, layout) -> str:
    """Python source of a layout's ``balance(x)`` on one graph shape with
    one family: F at the scales x as a list and a function that gives J
    there as a list of rows, in the order of the ``_Layout`` docstring,
    with the family's g and rho inlined per edge and each edge's dbar^2
    read from the globals that ``control._bound`` binds."""
    edges, _, t = _geometry(layout, (tails, heads, n, d))
    k = len(t[0])
    xs = [f"x{l}" for l in range(k)]
    body = [f"{', '.join(xs)}, = x",
            f"{', '.join(f'd2_{e}' for e, _, _ in edges)}, = "
            f"{', '.join(f'D2_{e}' for e, _, _ in edges)},",
            *_per_call(family, ("g", "rho"), [e for e, _, _ in edges])]
    rho, force = [], [[] for _ in range(k)]
    jac = {(l, m): [] for l in range(k) for m in range(l, k)}
    for (e, _, _), te in zip(edges, t):
        coords = [c for c in range(d) if any(tl[c] for tl in te)]
        z = [f"z{e}_{c}" for c in coords]
        body += [f"{zc} = {_combination((x, tl[c]) for x, tl in zip(xs, te))}"
                 for zc, c in zip(z, coords)]
        g_lines, g = _call(f"g{e}", family, "g", e)
        rho_lines, r = _call(f"r{e}", family, "rho", e)
        body += [f"e{e} = {' + '.join(f'{zc} * {zc}' for zc in z)} - d2_{e}", *g_lines]
        moved = [l for l in range(k) if any(te[l])]
        body += [f"a{e}_{l} = {_combination(zip(z, (te[l][c] for c in coords)))}" for l in moved]
        rho += rho_lines
        for i, l in enumerate(moved):
            force[l].append(f"{g} * a{e}_{l}")
            for m in moved[i:]:
                jac[l, m].append(f"(2.0 * {r} * a{e}_{l} * a{e}_{m} + "
                                 f"{_combination([(g, _dot(te[l], te[m]))])})")
    rows = (", ".join(f"j{min(l, m)}_{max(l, m)}" for m in range(k)) for l in range(k))
    body += ["def jacobian():", *(f"    {line}" for line in rho),
             *(f"    j{l}_{m} = {' + '.join(terms) or '0.0'}" for (l, m), terms in jac.items()),
             f"    return [{', '.join(f'[{row}]' for row in rows)}]",
             f"return [{', '.join(' + '.join(terms) for terms in force)}], jacobian"]
    return "def balance(x):\n" + "".join(f"    {line}\n" for line in body)


def _line(slots, dim, seeds=()):
    """The line layout of a LINE_SLOTS vector: T_k moves the agents past gap k."""
    templates = tuple(tuple((float(s > k),) + (0.0,) * (dim - 1) for s in slots)
                      for k in range(max(slots)))
    return _Layout(templates, "rootfind-collinear", slots, seeds)


# The tetrahedron's planar layouts: the unit square 1-2-3-4, and the unit
# equilateral triangle 1-2-3 with agent 4 at its centroid.
_PLANAR = {2: {}, 3: {
    "convex_quadrilateral": _Layout(
        (((0.5, 0.5, 0.0), (-0.5, 0.5, 0.0), (-0.5, -0.5, 0.0), (0.5, -0.5, 0.0)),),
        "rootfind-coplanar",
        equal=(("the four square sides", ((1, 2), (2, 3), (3, 4), (1, 4))),
               ("the two diagonals", ((1, 3), (2, 4))))),
    "interior_point": _Layout(
        (tuple((math.cos(a) / math.sqrt(3.0), math.sin(a) / math.sqrt(3.0), 0.0)
               for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)) + ((0.0, 0.0, 0.0),),),
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
    """Check the domain, classify and build the entry from one edge pass at
    the constructed point, (N+1) x d floats; ``expect`` is the (kind, subform) to match."""
    p = np.array(positions, dtype=float)
    out = _bound(graph, family)(x := p.ravel().tolist())
    if not math.isfinite(out[2]):           # V
        raise OracleError(_BOUNDARY)
    cls = _classify(x, out, graph)
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
    flex = rigid[-1][:-1] + [rigid[-1][-1] + graph.desired[graph.flex_edge_index]]
    return _finalize(rigid + [flex], graph, family, method, ("degenerate_rigid", subform))


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
