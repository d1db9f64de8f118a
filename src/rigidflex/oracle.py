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

Each layout's root finder is generated per graph shape and family as one
straight-line function on Python floats with the balance inline
(``_solver_source``): the bisection, or one Newton solve from one seed with
its Jacobian, Cramer solve, step cut and halvings.  ``control._generated``
compiles it and ``control._bound`` binds it to the graph's lengths, as it
binds the edge pass, when a solve first runs it.  The agents sit at
sum_k x_k T_k, each coordinate summed by ``_dot``.  Every sum runs in a
fixed order on floats, so no root or position depends on how a BLAS sums.

The flex agent sits at its desired length from its anchor along the last
axis.  ``_finalize`` builds every CatalogEntry from one edge pass at the
constructed point: it rejects points outside the family's domain and
classifies.  Every point is constructed, never simulated or polished
(``newton_polish`` serves ``rigidflex run``'s equilibrium reports).

``root`` runs a layout's generated Newton solve from one seed.  It is a
module attribute that every seed looks up at call time, so a caller may wrap
it to count seeds, and a partial, not a function, so a tracer that wraps
every public function of this module and then ``oracle.root`` counts each
seed once.
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


def _rigid_embedding(graph: FormationGraph) -> list:
    """The rigid agents at their desired distances in ``simplex_gram``'s frame:
    its Cholesky factor as rows of Python floats, sums left to right, each
    column times its pivot's reciprocal as LAPACK's unblocked factor does.
    Raises OracleError for an uncertified graph and for lengths that no
    triangle or tetrahedron has."""
    if (topo := graph.certified_topology()) is None:
        raise OracleError("oracle constructions cover only the certified "
                          "triangle and tetrahedron topologies")
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


def _from_seed(newton, seed):
    """A layout's generated ``newton`` from ``seed``, with the module's step
    and halving limits read at call time: the gaps it ends at and max|F| there."""
    return newton(seed, NEWTON_MAX_STEPS, NEWTON_HALVINGS)


root = functools.partial(_from_seed)      # a partial, for tracers: see the module docstring


def _multi_root(newton, seeds, names):
    """Try ``root`` on a layout's ``newton`` from several seeds; return the
    first positive solution.  A seed's end point is judged by its gaps and
    residual alone.  When no root has all gaps positive, the error lists the
    gaps of the roots the seeds reached apart from the seeds that did not
    converge, with their residuals.
    """
    tried = []
    for seed in seeds:
        seed = [float(v) for v in seed]
        x, residual = root(newton, seed)
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

    ``_balance_lines`` writes F and J as straight-line code on Python floats
    for one layout, graph shape and family, with the crossing edges and
    their t_ek fixed in it and each edge's dbar^2 bound per graph.  It sums
    in a fixed order: z_e per coordinate over k, then |z_e|^2 and a_ek left
    to right, then F_k and J_kl edge by edge, each edge's term of J_kl
    grouped, and J_lk is J_kl.  So a mirror image of a layout has the mirror
    image of F and J, bit for bit.  ``_solver_source`` writes the root
    finder around it.

    One scale: <z_e, t_e> = x c_e^2 with c_e = |t_e|, and g has the sign of
    e, so each term has the sign of x c_e - dbar_e.  All terms are <= 0 at
    lo = min dbar_e / c_e and >= 0 at hi = max dbar_e / c_e, so F(lo) <= 0
    <= F(hi), and the generated bisection halves [lo, hi] when lo < hi.
    When lo and hi are one float, every edge has its desired length there.

    Box bound, two or more gaps: with every gap positive, an edge crossing
    gap k has <z_e, t_ek> = |z_e| >= x_k, and any other edge has t_ek = 0.
    A gap longer than the largest desired length among its crossing edges
    makes every term of F_k positive, so no root has one.
    """

    templates: tuple
    slots: tuple = ()
    seeds: tuple = ()
    equal: tuple = ()

    def solve(self, graph: FormationGraph, family: PotentialFamily):
        """(positions, method), or OracleError: ``positions`` is the flat
        list of the N + 1 agents' coordinates, the flex agent's last.

        Three refusals come before any solving.  Agents in one slot must
        reach every other slot along edges of equal desired lengths, and
        each ``equal`` group must share one length, as floats compare;
        otherwise the agents' balances differ and F = 0 is no equilibrium.
        Both read ``_geometry``'s index tables; the lengths of each slot's
        group of edges are compared sorted.  A rigid edge with a zero
        template vector has zero length whatever the scales, so neither has
        a family whose g is not finite at e = -dbar^2 (``_diverges``).
        ``control._bound`` binds, and so compiles on first use, the
        generated root finder only on the path that runs it: the Newton
        seeds of two or more gaps, or the bisection when lo < hi.  Each
        rigid coordinate is ``_dot`` of the scales and its row of template
        entries (``_geometry``).
        """
        shape, length = graph._shape, graph.desired
        _, inner, _, reach, equal, ends, spans, rows = _geometry(self, shape)
        for b, a, sides in reach:
            rb, ra = ([sorted(map(length.__getitem__, group)) for group in side] for side in sides)
            if rb != ra:
                raise OracleError(
                    f"construction needs equal desired distances: coincident agents {b + 1} "
                    f"and {a + 1} have desired lengths {sum(rb, [])} and {sum(ra, [])} "
                    f"to the other points")
        for what, group in equal:
            if any(length[e] != length[group[0]] for e in group):
                raise OracleError(f"construction needs equal desired distances: {what}")
        if any(_diverges(family, graph._dbar2[e]) for e in inner):
            raise OracleError(_BOUNDARY)

        x, solved = [], len(self.templates) > 1
        if solved:
            scale = _sum(length[e] for e in spans) / len(spans)
            x = _multi_root(_bound(graph, family, source=_solver_source, key=(self,)),
                            [[v * scale for v in seed] for seed in self.seeds],
                            f"the gaps of line layout {self.slots}")
        elif self.templates:
            ends = [length[e] / c for e, c in ends]
            lo, hi = min(ends), max(ends)
            x, solved = [lo], lo < hi
            if solved:
                x, f_lo, f_hi = _bound(graph, family, source=_solver_source, key=(self,))(lo, hi)
                if x is None:
                    raise OracleError(f"layout scale bracket failed: f({lo:.4g})={f_lo:.4g}, "
                                      f"f({hi:.4g})={f_hi:.4g}")
        p = [_dot(x, row) for row in rows]
        method = ("coincidence-construct" if not solved else
                  "rootfind-collinear" if self.slots else "rootfind-coplanar")
        return p + p[-shape[3]:-1] + [p[-1] + length[-1]], method


@functools.lru_cache(maxsize=64)
def _geometry(layout: _Layout, shape: tuple):
    """The crossing edges of a layout on a graph shape as (e, i, j), its
    other rigid edges, each crossing edge's t_ek per scale k as tuples of d
    floats (differences of the templates' tuples), and the index tables
    that ``_Layout.solve`` reads: ``reach``, per agent a whose slot an
    earlier agent b holds, (b, a, sides), where sides holds for b and then
    for a its crossing edges to each slot that either reaches, one group
    per slot in slot order; each ``equal`` group as (what, edge indices);
    per crossing edge (e, c_e), c_e = |t_e|, the one-scale bracket's ends;
    the seed scale's edges, for each slot pair the last edge between
    them, in the order the pairs first occur; and per rigid coordinate,
    node-major, its entries T_k[a][c] over the scales k."""
    tails, heads = shape[:2]
    rigid = tuple(zip(range(len(tails) - 1), tails, heads))   # the flex edge sorts last
    t = [tuple(tuple(a - b for a, b in zip(tk[i], tk[j])) for tk in layout.templates)
         for _, i, j in rigid]
    moving = [any(map(any, te)) for te in t]
    edges, t = (tuple(x for x, m in zip(xs, moving) if m) for xs in (rigid, t))
    slots, reach = layout.slots, []
    near = [[(slots[i + j - a], e) for e, i, j in edges if a in (i, j)] for a in range(len(slots))]
    for a, slot in enumerate(slots):
        if (b := slots.index(slot)) != a:
            others = sorted({s for s, _ in near[a] + near[b]})
            reach.append((b, a, tuple(tuple(tuple(e for s, e in near[c] if s == other)
                                            for other in others) for c in (b, a))))
    index = {(i + 1, j + 1): e for e, i, j in rigid}
    return (edges, tuple(e for (e, _, _), m in zip(rigid, moving) if not m), t, tuple(reach),
            tuple((what, tuple(index[pair] for pair in group)) for what, group in layout.equal),
            tuple((e, _norm(te[0])) for (e, _, _), te in zip(edges, t)),
            tuple({frozenset((slots[i], slots[j])): e for e, i, j in edges}.values())
            if slots else (),
            tuple(tuple(tk[a][c] for tk in layout.templates)
                  for a in range(shape[2] - 1) for c in range(shape[3])))


@functools.lru_cache(maxsize=64)
def _diverges(family: PotentialFamily, d2: float) -> bool:
    """Whether the family's g is not finite at e = -d2, an edge of zero length:
    on floats, and where they raise through ``control._on_numpy``, as in the
    generated pass.  Decided once per (family, d2), the 64 used last kept."""
    g = evaluators(family)[1]
    try:
        ge = g(-d2, d2)
    except (ZeroDivisionError, OverflowError):
        ge = _on_numpy(g, -d2, d2)
    return not math.isfinite(ge)


def _combination(terms) -> str:
    """Source of sum_i name_i c_i left to right over the (name, c) with c != 0,
    +-name where c is +-1; '0.0' when there are none."""
    parts = [name if c == 1 else f"-{name}" if c == -1 else f"{name} * {c!r}"
             for name, c in terms if c]
    return " + ".join(parts) or "0.0"


def _balance_lines(layout, shape, family, xs):
    """Source of a layout's balance at the scales named ``xs`` on one graph
    shape with one family, in the order of the ``_Layout`` docstring, as
    (lines that set each crossing edge's z{e}_{c}, e{e}, g{e} and a{e}_{l},
    F_k as expressions over them, lines that set rho{e} as r{e} and J_kl as
    j{l}_{m} for l <= m).  The family's g and rho are inlined per edge
    (``control._call``); they read d2_e and the per-call names of
    ``control._per_call``."""
    edges, _, t, *_ = _geometry(layout, shape)
    k, d = len(xs), shape[3]
    lines, rho, force = [], [], [[] for _ in range(k)]
    jac = {(l, m): [] for l in range(k) for m in range(l, k)}
    for (e, _, _), te in zip(edges, t):
        coords = [c for c in range(d) if any(tl[c] for tl in te)]
        z = [f"z{e}_{c}" for c in coords]
        lines += [f"{zc} = {_combination((x, tl[c]) for x, tl in zip(xs, te))}"
                  for zc, c in zip(z, coords)]
        g_lines, g = _call(f"g{e}", family, "g", e)
        rho_lines, r = _call(f"r{e}", family, "rho", e)
        lines += [f"e{e} = {' + '.join(f'{zc} * {zc}' for zc in z)} - d2_{e}", *g_lines]
        moved = [l for l in range(k) if any(te[l])]
        lines += [f"a{e}_{l} = {_combination(zip(z, (te[l][c] for c in coords)))}" for l in moved]
        rho += rho_lines
        for i, l in enumerate(moved):
            force[l].append(f"{g} * a{e}_{l}")
            for m in moved[i:]:
                jac[l, m].append(f"(2.0 * {r} * a{e}_{l} * a{e}_{m} + "
                                 f"{_combination([(g, _dot(te[l], te[m]))])})")
    return (lines, [" + ".join(terms) for terms in force],
            rho + [f"j{l}_{m} = {' + '.join(terms) or '0.0'}" for (l, m), terms in jac.items()])


def _cramer(k) -> list[str]:
    """Source lines that set s0.. to the solution of J s = F for k = 2 or 3
    gaps by Cramer's rule, from the names j{l}_{m} (l <= m; J_ml is J_lm)
    and f{l}, the 3 x 3 determinants by cofactors along the first row, and
    that break where det J is exactly 0.  For 2 x 2, swapping the unknowns
    swaps s bit for bit."""
    if k == 2:
        return ["det = j0_0 * j1_1 - j0_1 * j0_1", "if det == 0:", "    break",
                "s0 = (f0 * j1_1 - j0_1 * f1) / det", "s1 = (j0_0 * f1 - f0 * j0_1) / det"]
    return ["ej = j1_1 * j2_2 - j1_2 * j1_2", "dj = j0_1 * j2_2 - j1_2 * j0_2",
            "di = j0_1 * j1_2 - j1_1 * j0_2", "det = j0_0 * ej - j0_1 * dj + j0_2 * di",
            "if det == 0:", "    break",
            "qj = f1 * j2_2 - j1_2 * f2", "dr = j0_1 * f2 - f1 * j0_2",
            "er = j1_1 * f2 - f1 * j1_2",
            "s0 = (f0 * ej - j0_1 * qj + j0_2 * (f1 * j1_2 - j1_1 * f2)) / det",
            "s1 = (j0_0 * qj - f0 * dj + j0_2 * dr) / det",
            "s2 = (j0_0 * er - j0_1 * dr + f0 * di) / det"]


def _solver_source(tails, heads, n, d, family, layout) -> str:
    """Python source of a layout's root finder on one graph shape with one
    family: the balance inline (``_balance_lines``) at the scales y0..,
    each edge's dbar^2 read from the globals that ``control._bound`` binds
    and the per-call terms of d2 formed once per call.

    One scale: ``bisection(lo, hi)`` gives ([x], F(lo), F(hi)) and
    evaluates F alone.  It halves [lo, hi] by the sign of F until F is
    exactly 0 at an end or the ends are adjacent floats, and x is the end
    with the smaller |F| (lo on a tie); None in place of [x] when F(lo)
    and F(hi) share a sign or one is NaN.  Every step shrinks a float
    interval, so no cap is needed, and no tolerance picks the end: a layout
    whose lengths are scaled by a power of two has its root scaled exactly.

    Two or three gaps: ``newton(x, steps, halvings)`` gives the gaps that
    damped Newton from the seed x0 = x, a list of floats, ends at and
    max|F| there (NaN if any F_k is, as numpy's max gives).  Each step s
    solves J s = F (``_cramer``), is cut to |x0| and halved until max|F|
    falls.  A seed ends once s, or Deuflhard's estimate |s| |F_new| /
    |F_old| of the distance left, is below 1e-15 |x0|; when det J is
    exactly 0 or s not finite; when ``halvings`` halvings do not reduce
    max|F|; when max|F| fell by less than 10 % over three steps; or after
    ``steps`` steps.  A non-finite F or J is judged, never raised or warned
    about.  |s|^2 and |x0|^2 sum left to right, as ``_dot`` sums."""
    edges = _geometry(layout, (tails, heads, n, d))[0]
    k = len(layout.templates)
    ys = [f"y{l}" for l in range(k)]
    force, f, jac = _balance_lines(layout, (tails, heads, n, d), family, ys)
    head = [f"{', '.join(f'd2_{e}' for e, _, _ in edges)}, = "
            f"{', '.join(f'D2_{e}' for e, _, _ in edges)},",
            *_per_call(family, ("g",) if k == 1 else ("g", "rho"), [e for e, _, _ in edges])]
    if k == 1:
        body = [*head, "y0 = lo", *force, f"f_lo = {f[0]}", "y0 = hi", *force, f"f_hi = {f[0]}",
                "if not (f_lo <= 0 <= f_hi or f_hi <= 0 <= f_lo):", "    return None, f_lo, f_hi",
                "while f_lo and f_hi and lo < (y0 := 0.5 * (lo + hi)) < hi:",
                *(f"    {line}" for line in force), f"    f0 = {f[0]}",
                "    if (f0 < 0) == (f_lo < 0):", "        lo, f_lo = y0, f0",
                "    else:", "        hi, f_hi = y0, f0",
                "return [lo if abs(f_lo) <= abs(f_hi) else hi], f_lo, f_hi"]
        return "def bisection(lo, hi):\n" + "".join(f"    {line}\n" for line in body)
    xs, ss = (", ".join(f"{v}{l}" for l in range(k)) for v in "xs")
    square = "0.0" + "".join(f" + s{l} * s{l}" for l in range(k))
    evaluate = [*force, *(f"f{l} = {value}" for l, value in enumerate(f)), "r = abs(f0)",
                *(line for l in range(1, k)
                  for line in (f"v = abs(f{l})", "if v > r or v != v:", "    r = v"))]
    loop = [*jac, *_cramer(k), f"size = {square}",
            "if not (1e-30 * bound < size and isfinite(size)):", "    break",
            "cut = min(1.0, (bound / size) ** 0.5)",
            f"{ss}, = {', '.join(f's{l} * cut' for l in range(k))},",
            "for _ in range(halvings + 1):",
            *(f"    y{l} = x{l} - s{l}" for l in range(k)), *(f"    {line}" for line in evaluate),
            "    if r < history[-1]:", "        break",
            *(f"    s{l} = s{l} / 2" for l in range(k)),
            "else:", "    break",
            f"{xs}, = {', '.join(ys)},", "history.append(r)",
            f"if (({square}) * (r * r) <= 1e-30 * bound * (history[-2] * history[-2])",
            "        or len(history) > 3 and r > 0.9 * history[-4]):", "    break"]
    body = [*head, f"{xs}, = {', '.join(ys)}, = x",
            f"bound = 0.0{''.join(f' + x{l} * x{l}' for l in range(k))}", *evaluate,
            "history = [r]", "for _ in range(steps):", *(f"    {line}" for line in loop),
            f"return [{xs}], history[-1]"]
    return "def newton(x, steps, halvings):\n" + "".join(f"    {line}\n" for line in body)


def _line(slots, dim, seeds=()):
    """The line layout of a LINE_SLOTS vector: T_k moves the agents past gap k."""
    templates = tuple(tuple((float(s > k),) + (0.0,) * (dim - 1) for s in slots)
                      for k in range(max(slots)))
    return _Layout(templates, slots, seeds)


# The tetrahedron's planar layouts: the unit square 1-2-3-4, and the unit
# equilateral triangle 1-2-3 with agent 4 at its centroid.
_PLANAR = {2: {}, 3: {
    "convex_quadrilateral": _Layout(
        (((0.5, 0.5, 0.0), (-0.5, 0.5, 0.0), (-0.5, -0.5, 0.0), (0.5, -0.5, 0.0)),),
        equal=(("the four square sides", ((1, 2), (2, 3), (3, 4), (1, 4))),
               ("the two diagonals", ((1, 3), (2, 4))))),
    "interior_point": _Layout(
        (tuple((math.cos(a) / math.sqrt(3.0), math.sin(a) / math.sqrt(3.0), 0.0)
               for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)) + ((0.0, 0.0, 0.0),),),
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


def _finalize(x: list, graph: FormationGraph, family: PotentialFamily, method: str,
              expect) -> CatalogEntry:
    """Check the domain, classify and build the entry from one edge pass at
    the constructed point, the flat list x of (N+1) d floats; ``expect`` is
    the (kind, subform) to match."""
    out = _bound(graph, family)(x)
    if not math.isfinite(out[2]):           # V
        raise OracleError(_BOUNDARY)
    cls = _classify(x, out, graph)
    residual = cls.diagnostics["residual"]
    if (cls.kind, cls.subform) != expect:
        raise OracleError(
            f"constructed point classifies as {cls.kind}/{cls.subform}, "
            f"expected {expect[0]}/{expect[1]} (residual {residual:.3e})")
    return CatalogEntry(positions=np.array(x).reshape(-1, graph.dimension), kind=cls.kind,
                        subform=cls.subform, residual=residual, method=method,
                        family_name=family.name)


def construct_equilibrium(graph: FormationGraph, family: PotentialFamily,
                          subform: str) -> CatalogEntry:
    """The degenerate equilibrium of one subform, from its layout.

    Raises OracleError, as ``build_catalog`` does, for an uncertified graph
    and for rigid lengths that form no triangle or tetrahedron
    (``_rigid_embedding``), and when the desired distances do not admit the
    layout, the root-finder fails, or the point leaves the family's domain.
    """
    _rigid_embedding(graph)
    table = _LAYOUTS[graph.dimension]
    if subform not in table:
        raise OracleError(f"unknown subform {subform!r} for dimension "
                          f"{graph.dimension}; known: {sorted(table)}")
    return _degenerate(graph, family, subform)


def _degenerate(graph: FormationGraph, family: PotentialFamily, subform: str) -> CatalogEntry:
    """``construct_equilibrium`` past its checks of the graph and the name."""
    x, method = _LAYOUTS[graph.dimension][subform].solve(graph, family)
    return _finalize(x, graph, family, method, ("degenerate_rigid", subform))


# ---------------------------------------------------------------------------
# Catalog assembly


def build_catalog(graph: FormationGraph, family: PotentialFamily):
    """Construct the flex-coincident equilibrium and one of every subform.

    Returns (entries, failures): entries in a deterministic order, failures a
    name -> message map for constructions that did not succeed with this
    distance set / family (reported, not raised).  An uncertified graph
    raises OracleError, and so do rigid lengths that form no triangle or
    tetrahedron (``_rigid_embedding``, whose agents the flex-coincident
    entry takes), once: with no desired shape the undesired points need not
    be unstable.  ``construct_equilibrium`` builds a single subform.
    """
    rigid = _rigid_embedding(graph)
    entries, failures = [], {}
    for name in ["flex_coincident", *_LAYOUTS[graph.dimension]]:
        try:
            if name == "flex_coincident":
                entry = _finalize([c for row in rigid + [rigid[-1]] for c in row], graph, family,
                                  "coincidence-construct", ("flex_coincident", None))
            else:
                entry = _degenerate(graph, family, name)
        except OracleError as exc:
            failures[name] = str(exc)
        else:
            entries.append(entry)
    return entries, failures
