"""Gradient control law, the one edge pass, and the flex agent's leader input.

Convention: the shape potential is V(p) = 1/2 * sum_edges phi(e), chosen so
that the per-agent control u_i = -sum_j g_ij z_ij is exactly the negative
gradient of V (with e = ||z||^2 - dbar^2, grad_p_i phi(e_ij) = 2 g_ij z_ij).
Scaling V leaves trajectories, equilibria, and stability verdicts unchanged.

Every edge pass of the package is generated here, one straight-line Python
function at a time with the family's formulas inlined, each rewritten once
(``_terms``) so that a call computes each value once: a term of dbar^2
alone once per call, a repeated term once per evaluation, each edge's
force once and each node's control as one sum of its edges' forces.
``evaluate`` is the pass behind ``edge_states``, ``gradient_control`` and
``potential_value``, the analysis and the catalog, and behind each
``integrate`` segment start; ``advance`` is the integrator's RK4 loop.
Both also return the balance residual max_i ||u_i||, which decides every
equilibrium, formed inline from their control names (``_residual_lines``).
``hessian`` is H from a pass's z, g and rho, each symmetric pair of
entries formed once, and ``aligned`` the same H in one dimension at the
edge coordinates z_k . r that it forms itself: the block that
``stability``'s witness reads.  Each sums on Python floats in edge order,
so no result depends on how a BLAS sums.  Every generated text of the
package, these, ``oracle``'s layout root finders and ``stability``'s sign
claims, becomes a function in one place, ``_generated``, which keeps its
text in ``linecache`` while its code lives, and ``_bound`` binds those
that read a graph's lengths, a family's evaluators or a leader's
constants to globals that it builds.
``LeaderSpec`` holds the flex agent's leader input as values, a windowed
one as a sample table that the generated step looks up inline, and its
arrival test.
"""

from __future__ import annotations

import ast
import bisect
import builtins
import functools
import itertools
import linecache
import math
import re
import weakref
from dataclasses import dataclass
from types import CodeType, FunctionType

import numpy as np

from .graph import FormationGraph, _floats, as_positions
from .potentials import PotentialFamily, evaluators

# Balance residual max_i ||u_i|| below which a realization is an equilibrium:
# the default of integrate, classify, analyze and the CLI.
EQ_TOL = 1e-9


def _check_eq_tol(eq_tol: float):
    """ValueError unless ``eq_tol`` is finite and >= 0 (integrate, analyze)."""
    if not 0 <= eq_tol < math.inf:      # False for NaN
        raise ValueError(f"eq_tol must be finite and non-negative, got {eq_tol!r}")


def _norm(u) -> float:
    """||u|| as the square root of the sum of squares left to right, the
    rule of ||z||^2 and V, so it does not depend on how a BLAS sums."""
    sq = 0.0
    for x in u:
        sq += x * x
    return math.sqrt(sq)


def _sum(xs) -> float:
    """xs summed left to right from 0.0 (the builtin ``sum`` compensates from 3.12)."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _dot(u, v) -> float:
    """<u, v> summed left to right, as ``_norm`` sums."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


@dataclass(frozen=True)
class EdgeState:
    """Per-edge kinematics and potential derivatives, in edge order, V and
    the balance residual, from one edge pass (``evaluate``) in fresh arrays."""

    z: np.ndarray      # (m, d) edge vectors p_i - p_j
    e: np.ndarray      # (m,) squared distance errors
    g: np.ndarray      # (m,) d phi / d e
    rho: np.ndarray    # (m,) d g / d e
    u: np.ndarray      # (N+1, d) control of the same pass, u_i = -sum_j g_ij z_ij
    v: float           # V = 1/2 sum phi(e) of the same pass, inf on the coincidence boundary
    residual: float    # the balance residual max_i ||u_i||, NaN if any u_i is


def edge_states(p, graph: FormationGraph, family: PotentialFamily) -> EdgeState:
    u, e, v, z, g, rho, residual = _bound(graph, family)(as_positions(p, graph).ravel().tolist())
    d = graph.dimension
    return EdgeState(z=np.array(z).reshape(-1, d), e=np.array(e), g=np.array(g),
                     rho=np.array(rho), u=np.array(u).reshape(-1, d), v=v, residual=residual)


def potential_value(p, graph: FormationGraph, family: PotentialFamily) -> float:
    """V = 1/2 sum phi(e) at a realization."""
    return _bound(graph, family)(as_positions(p, graph).ravel().tolist())[2]


def gradient_control(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """Stacked control u with blocks u_i = -sum_j g_ij z_ij."""
    return np.array(_bound(graph, family)(as_positions(p, graph).ravel().tolist())[0])


@dataclass(frozen=True)
class LeaderSpec:
    """Additional flex-agent input of the closed loop, as values only, so
    that equal specs are equal and hash alike.  ``integrate``'s compiled
    step adds it to the control and its target potential to V; ``arrived``
    takes a flat, node-major state: a list or a 1-D array of (N+1) d
    numbers, the flex agent's d coordinates last.

    mode 'none'     : plain gradient law.
    mode 'windowed' : v(t) on [t0, tf], zero outside; v(t) is the row of
                      ``values`` at the last of ``times`` at or before t,
                      the first row before the first time.
    mode 'target'   : v(t) = k_f * (p_t - p_flex), pulls the flex agent to p_t.

    A mode takes only its own fields (``_MODE_FIELDS``): ValueError names
    any field of another mode that differs from its default.
    """

    mode: str = "none"
    t0: float = 0.0
    tf: float = 0.0
    times: tuple = ()       # strictly increasing sample times
    values: tuple = ()      # one tuple of d velocity components per sample time
    k_f: float = 0.0
    p_t: tuple = ()

    def __post_init__(self):
        if self.mode not in _MODE_FIELDS:
            raise ValueError(f"unknown leader mode {self.mode!r}")
        t0, tf, k_f = _floats((self.t0, self.tf, self.k_f), "leader t0, tf and k_f")
        fields = {"t0": t0, "tf": tf, "k_f": k_f,
                  "times": _floats(self.times, "windowed times"),
                  "values": tuple(_floats(row, "windowed v rows") for row in self.values),
                  "p_t": _floats(self.p_t, "target p_t")}
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        stray = [name for name, value in fields.items()
                 if name not in _MODE_FIELDS[self.mode] and value != getattr(LeaderSpec, name)]
        if stray:
            raise ValueError(f"leader mode {self.mode!r} takes no {', '.join(stray)}")
        times, values = self.times, self.values
        if self.mode == "windowed" and not (
                all(map(math.isfinite, (self.t0, self.tf, *times)))
                and all(all(map(math.isfinite, row)) for row in values)
                and self.t0 <= self.tf and times and len(times) == len(values)
                and all(a < b for a, b in zip(times, times[1:]))
                and len({len(row) for row in values}) == 1 and values[0]):
            raise ValueError("windowed mode needs a finite window t0 <= tf and a non-empty "
                             "table of finite samples, times strictly increasing and rows "
                             "of equal width")
        if self.mode == "target" and not (0 < self.k_f < math.inf and self.p_t     # False for NaN
                                          and all(map(math.isfinite, self.p_t))):
            raise ValueError("target mode needs a finite k_f > 0 and a target p_t of "
                             "finite coordinates")

    def check(self, dimension: int) -> LeaderSpec:
        """This spec; ValueError unless a target point, or each windowed
        sample, has ``dimension`` coordinates (the flat state has no rows to
        tell the flex agent's coordinates by)."""
        if self.mode == "target" and len(self.p_t) != dimension:
            raise ValueError(f"target p_t must be {dimension} finite coordinates")
        if self.mode == "windowed" and len(self.values[0]) != dimension:
            raise ValueError(f"windowed v rows must be {dimension} velocity components")
        return self

    def arrived(self, state) -> bool:
        """Whether the flex agent is within 1e-3 of p_t, ||p_t - p_flex||
        by ``_norm``; False outside target mode."""
        flex = state[len(state) - len(self.p_t):]
        return self.mode == "target" and _norm([t - x for t, x in zip(self.p_t, flex)]) < 1e-3


# the fields of each leader mode besides ``mode``; the others keep their defaults
_MODE_FIELDS = {"none": (), "target": ("k_f", "p_t"), "windowed": ("t0", "tf", "times", "values")}


# the keys of a leader document besides "mode", per mode
_LEADER_KEYS = {"target": ("k_f", "p_t"), "windowed": ("t0", "tf", "v")}


def leader_spec_from_json(doc) -> LeaderSpec:
    """The spec of a leader document: null, {} or {"mode": "none"};
    {"mode": "target", "k_f":, "p_t": [...]}; or {"mode": "windowed",
    "t0":, "tf":, "v": [[t, vx, vy(, vz)], ...]}, each row a sample time and
    its velocity.  A document takes exactly its mode's keys, and ValueError
    names any other; ``LeaderSpec`` checks the values, and
    ``LeaderSpec.check`` the dimension."""
    if doc is None:
        return LeaderSpec()
    if not isinstance(doc, dict):
        raise ValueError(f"a leader document is an object or null, got {doc!r}")
    mode = doc.get("mode", "none")
    unknown = sorted(doc.keys() - {"mode", *_LEADER_KEYS.get(mode, ())})
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} in a leader document "
                         f"of mode {mode!r}")
    if mode == "target":
        return LeaderSpec(mode, k_f=doc["k_f"], p_t=doc["p_t"])
    if mode == "windowed":
        v = doc["v"]
        return LeaderSpec(mode, t0=doc["t0"], tf=doc["tf"], times=[t for t, *_ in v],
                          values=[row for _, *row in v])
    return LeaderSpec(mode)                 # "none", or LeaderSpec's unknown-mode error


# ---------------------------------------------------------------------------
# The generated edge pass and RK4 step


def _on_numpy(f, e: float, d2: float) -> float:
    """An evaluator ``f`` at (e, d2) as a numpy float, for where Python floats
    raise (a division by zero at the coincidence boundary): it rounds alike
    and returns the array evaluator's infinity.  It is a pass's only numpy
    arithmetic and ignores its errors itself, in a fresh errstate per call."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(f(np.float64(e), d2))


def _named(node, name_of):
    """The arithmetic tree ``node``, each outermost subtree that ``name_of``
    names (a str) made that name."""
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and (name := name_of(node)):
        return ast.Name(name)
    for child in ("left", "right", "operand"):
        if hasattr(node, child):
            setattr(node, child, _named(getattr(node, child), name_of))
    return node


@functools.lru_cache(maxsize=32)
def _terms(family: PotentialFamily) -> dict:
    """Each formula of a family rewritten once for the float pass, in e and
    d2: ``which -> (per_call, temps, formula)``.  Each outermost term of d2
    and numbers under +, - and * cannot raise and is the same at every step:
    it is named pre<j> (one name per distinct term of the family), and
    ``per_call`` holds the formula's (name, source) pairs.  Then each term
    that occurs more than once, innermost first, is named sub<j>, and
    ``temps`` holds its (name, source) in that order.  Every operation keeps
    its operands, so every value keeps its bits; a formula of more than
    arithmetic is kept as written."""
    # the nodes of a formula it rewrites, and those of a term that cannot
    # raise on floats (+, - and * give inf or NaN where they overflow)
    arithmetic = (ast.BinOp, ast.UnaryOp, ast.Name, ast.Constant, ast.operator, ast.unaryop,
                  ast.Load)
    exact = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.USub, ast.Load)
    hoisted, out = {}, {}
    for which in ("phi", "g", "rho"):
        tree = ast.parse(getattr(family, which), mode="eval").body
        if not all(isinstance(node, arithmetic) for node in ast.walk(tree)):
            out[which] = (), (), getattr(family, which)
            continue
        tree = _named(tree, lambda node: all(
            isinstance(n, exact) or isinstance(n, ast.Name) and n.id == "d2"
            for n in ast.walk(node)) and hoisted.setdefault(ast.unparse(node), f"pre{len(hoisted)}"))
        reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        temps = []
        while True:
            inner = [n for n in ast.walk(tree) if isinstance(n, (ast.BinOp, ast.UnaryOp))]
            dumps = [ast.dump(n) for n in inner]
            repeated = [n for n, key in zip(inner, dumps) if dumps.count(key) > 1]
            if not repeated:
                break
            first = min(repeated, key=lambda n: len(list(ast.walk(n))))
            key, name = ast.dump(first), f"sub{len(temps)}"
            temps.append((name, ast.unparse(first)))
            tree = _named(tree, lambda node: ast.dump(node) == key and name)
        out[which] = (tuple((pre, source) for source, pre in hoisted.items() if pre in reads),
                      tuple(temps), ast.unparse(tree))
    return out


def _at(source: str, k: int) -> str:
    """``source`` at edge k: its names e and d2 made ``e{k}`` and ``d2_{k}``
    (not the e of 1e-6), and ``_terms``' pre<j> and sub<j> made ``pre<j>_{k}``
    and ``sub<j>_{k}``."""
    return re.sub(r"(?<![\w.])(e|d2|pre\d+|sub\d+)\b",
                  lambda x: f"e{k}" if x[1] == "e" else f"{x[1]}_{k}", source)


def _call(name: str, family: PotentialFamily, which: str, k: int) -> tuple[list[str], str]:
    """(lines, value): source lines that set ``name`` to the family's formula
    ``which`` (as ``_terms`` rewrote it) at edge k, and the expression that
    reads it.  The temporaries are set inside the same ``try``; where floats
    raise, ``_on_numpy`` runs the evaluator PHI, G or RHO, the formula as
    written.  A formula that is one name needs no line: it is read where it
    is used.  The per-call names it reads are ``_per_call``'s."""
    _, temps, formula = _terms(family)[which]
    if formula.isidentifier():
        return [], _at(formula, k)
    return (["try:", *(f"    {_at(t, k)} = {_at(source, k)}" for t, source in temps),
             f"    {name} = {_at(formula, k)}", "except (ZeroDivisionError, OverflowError):",
             f"    {name} = _on_numpy({which.upper()}, e{k}, d2_{k})"], name)


def _per_call(family: PotentialFamily, which, edges) -> list[str]:
    """Source lines that set, once per call, the per-call names (``_terms``)
    that the formulas ``which`` read, at each of ``edges``, after d2_k."""
    terms = _terms(family)
    used = dict.fromkeys(pair for w in which for pair in terms[w][0])
    return [f"{_at(pre, k)} = {_at(source, k)}" for k in edges for pre, source in used]


def _edge_pass(x, u, tails, heads, d, family) -> list[str]:
    """Source lines of one edge pass from the state names ``x`` to the
    control names ``u``.  Per edge k: zk_c = p_i - p_j per coordinate,
    ||z||^2 left to right, ek = ||z||^2 - dbar^2, g(ek), and the force
    fk_c = g zk_c, or 0.0 where ||z||^2 is exactly 0 (a coincident edge of
    a family whose g is infinite there exerts none).  Then each control name
    is one sum, 0.0 - f.. + f.. over its node's edges in edge order, minus
    at the tail.  That equals u_i -= g z, u_j += g z edge by edge with a
    coincident edge skipped, bit for bit: a sum that starts at +0.0 is
    never -0.0, and adding or subtracting +0.0 leaves any other value as it is."""
    lines, terms = [], [[] for _ in u]
    for k, (i, j) in enumerate(zip(tails, heads)):
        z, f = ([f"{v}{k}_{c}" for c in range(d)] for v in "zf")
        g_lines, g = _call(f"g{k}", family, "g", k)
        lines += [f"{z[c]} = {x[d * i + c]} - {x[d * j + c]}" for c in range(d)]
        lines += ["sq = " + " + ".join(f"{zc} * {zc}" for zc in z), f"e{k} = sq - d2_{k}",
                  *g_lines, "if sq:", *(f"    {fc} = {g} * {zc}" for fc, zc in zip(f, z)),
                  "else:", f"    {' = '.join(f)} = 0.0"]
        for c in range(d):
            terms[d * i + c].append(f" - {f[c]}")
            terms[d * j + c].append(f" + {f[c]}")
    return lines + [f"{name} = 0.0{''.join(t)}" for name, t in zip(u, terms)]


def _residual_lines(u, d) -> list[str]:
    """Source lines that set ``res`` to the balance residual max_i ||u_i||
    of the control names ``u``, d per node in node order.  Each node's norm
    is sqrt(0.0 + x*x + y*y (+ z*z)), its squares summed left to right as
    ``_norm`` sums them, and it is taken where it is larger or NaN, so the
    residual is NaN where any norm is, as numpy's max gives."""
    lines = ["res = 0.0"]
    for i in range(0, len(u), d):
        lines += [f"r = sqrt(0.0{''.join(f' + {x} * {x}' for x in u[i:i + d])})",
                  "if r > res or r != r:", "    res = r"]
    return lines


def _leader_input(mode, time, x, u, flex) -> list[str]:
    """Source lines that add the leader input at ``time`` to the flex
    agent's control names: k_f (p_t - p_flex) in target mode; on [t0, tf]
    in windowed mode, the row of the sample table at the last sample time
    at or before ``time``, the first row before the first time."""
    if mode == "target":
        return [f"{u[c]} += k_f * (pt_{k} - {x[c]})" for k, c in enumerate(flex)]
    if mode == "windowed":
        return [f"if t0 <= {time} <= tf:",
                f"    {', '.join(f'v{k}' for k in range(len(flex)))}, = "
                f"values[max(bisect_right(times, {time}) - 1, 0)]",
                *(f"    {u[c]} += v{k}" for k, c in enumerate(flex))]
    return []


def _step_source(tails, heads, n, d, family, mode, name) -> str:
    """Python source of one function, ``evaluate(p)`` or ``advance(p, k1,
    w, t, boundary, dt, n, dv)``, for one graph shape, family and leader
    mode (see ``_bound``)."""
    size, m = n * d, len(tails)
    flex = range(size - d, size)
    p, s, a, b, c, r, q = ([f"{x}{k}" for k in range(size)] for x in "psabcrq")
    # the call's constants, read into locals once per call
    bound = {f"d2_{k}": f"D2_{k}" for k in range(m)}
    if mode == "target":
        bound.update(k_f="K_F", **{f"pt_{k}": f"PT_{k}" for k in range(d)})
    elif mode == "windowed":
        bound.update(t0="T0", tf="TF", times="TIMES", values="VALUES")
    formulas = ("phi", "g", "rho") if name == "evaluate" else ("phi", "g")
    constants = [f"{', '.join(bound)}, = {', '.join(bound.values())},",
                 *_per_call(family, formulas, range(m))]

    def closing(x, u):
        """The pass at an accepted state x into the control names u and its
        Lyapunov value w: V = 1/2 sum phi(e) left to right, plus (k_f/2)
        ||p_t - p_flex||^2 in target mode."""
        phi = [_call(f"phi{k}", family, "phi", k) for k in range(m)]
        lines = _edge_pass(x, u, tails, heads, d, family) + [line for f, _ in phi for line in f]
        pot = "0.5 * (0.0" + "".join(f" + {value}" for _, value in phi) + ")"
        if mode != "target":
            return lines + [f"w = {pot}"]
        lines += [f"o{k} = pt_{k} - {x[i]}" for k, i in enumerate(flex)]
        return lines + [f"w = {pot} + 0.5 * k_f * ("
                        + " + ".join(f"o{k} * o{k}" for k in range(d)) + ")"]

    errors = ", ".join(f"e{k}" for k in range(m))
    if name == "evaluate":
        rho = [_call(f"r{k}", family, "rho", k) for k in range(m)]
        g = (_call(f"g{k}", family, "g", k)[1] for k in range(m))
        body = [*constants, f"{', '.join(p)}, = p", *closing(p, a),
                *(line for lines, _ in rho for line in lines), *_residual_lines(a, d),
                f"return [{', '.join(a)}], [{errors}], w, "
                f"[{', '.join(f'z{k}_{c}' for k in range(m) for c in range(d))}], "
                f"[{', '.join(g)}], [{', '.join(value for _, value in rho)}], res"]
        return "def evaluate(p):\n" + "".join(f"    {line}\n" for line in body)

    def stage(k, out, scale, time):
        """The stage state p + scale k and the velocity ``out`` there."""
        return [*(f"{s[i]} = {p[i]} + {k[i]} * {scale}" for i in range(size)),
                *_edge_pass(s, out, tails, heads, d, family),
                *_leader_input(mode, time, s, out, flex)]

    # V is no Lyapunov function while a windowed input acts: a step that
    # meets [t0, tf] is left out of the worst increase dv
    rise = ["dw = w - w_prev", "if dw > dv:", "    dv = dw"]
    if mode == "windowed":
        rise = ["if not (t <= tf and t0 <= t + h):", *(f"    {line}" for line in rise)]
    step = ["h = boundary - t", "if not h > 1e-12:", "    break", "if h > dt:", "    h = dt",
            "half = 0.5 * h", *["th = t + half"] * (mode == "windowed"), "sixth = h / 6.0",
            *_leader_input(mode, "t", p, a, flex),
            *stage(a, b, "half", "th"), *stage(b, c, "half", "th"), *stage(c, r, "h", "t + h"),
            *(f"{q[i]} = {p[i]} + ((({a[i]} + 2.0 * {b[i]}) + 2.0 * {c[i]}) + {r[i]}) * sixth"
              for i in range(size)),
            "w_prev = w",
            *closing(q, a),
            "if not isfinite(w):",
            f"    return [{', '.join(p)}], None, None, w, t, dv, None",
            *rise,
            *(f"{p[i]} = {q[i]}" for i in range(size)),
            "t += h"]
    body = [*constants, f"{', '.join(p)}, = p", f"{', '.join(a)}, = k1",
            "for _ in range(n):", *(f"    {line}" for line in step), *_residual_lines(a, d),
            f"return [{', '.join(p)}], [{', '.join(a)}], [{errors}], w, t, dv, res"]
    return ("def advance(p, k1, w, t, boundary, dt, n, dv):\n"
            + "".join(f"    {line}\n" for line in body))


def _hessian_lines(tails, heads, n, d) -> list[str]:
    """Source lines from a pass's names z{k}_{c}, g{k} and rho{k} to the
    return of H's (n d)^2 entries, row-major, as numpy formed them.  Edge
    k's M[a][b] = (2.0 rho) (z_a z_b) + g delta_ab (g * 0.0 off the
    diagonal) goes to node blocks (i,i), (j,j), (i,j), (j,i) as M, M, -M,
    -M, each entry 0.0 + its terms in edge order.  M is formed for a <= b
    only: M[b][a] is M[a][b] bit for bit (z_b z_a is z_a z_b, but for which
    NaN a product of two NaNs keeps), so H is symmetric term by term and
    each sum off the diagonal is formed once for both entries."""
    lines, entries = [], {}     # (row, column), row <= column -> its sum so far
    for k, (i, j) in enumerate(zip(tails, heads)):
        lines.append(f"t = 2.0 * rho{k}")
        for a, b in itertools.combinations_with_replacement(range(d), 2):  # g * 1.0 is g
            m = f"m{k}_{a}{b}"
            lines += [f"{m} = t * (z{k}_{a} * z{k}_{b}) + g{k}" + " * 0.0" * (a != b),
                      f"o{m} = 0.0 + -{m}"]                 # the -M blocks' entries
            for key in ((d * i + a, d * i + b), (d * j + a, d * j + b)):
                entries[key] = entries.get(key, "0.0") + f" + {m}"
            for key in ((d * i + a, d * j + b), (d * i + b, d * j + a)):
                entries[min(key), max(key)] = f"o{m}"
    for (row, col), total in entries.items():
        if row < col and " + " in total:    # read twice: named once
            lines.append(f"h{row}_{col} = {total}")
            entries[row, col] = f"h{row}_{col}"
    flat = (entries.get(tuple(sorted(divmod(x, n * d))), "0.0") for x in range((n * d) ** 2))
    return lines + [f"return [{', '.join(flat)}]"]


def _hessian_source(tails, heads, n, d) -> str:
    """Python source of ``hessian(z, g, rho)``: H from one pass's lists
    (``_hessian_lines``)."""
    edges = range(len(tails))
    lines = [f"{', '.join(f'z{k}_{c}' for k in edges for c in range(d))}, = z",
             *(f"{', '.join(f'{x}{k}' for k in edges)}, = {x}" for x in ("g", "rho")),
             *_hessian_lines(tails, heads, n, d)]
    return "def hessian(z, g, rho):\n" + "".join(f"    {line}\n" for line in lines)


def _aligned_source(tails, heads, n, d) -> str:
    """Python source of ``aligned(z, r, g, rho)``: the n^2 block r^T H_ij r
    along the unit axis r, flat and row-major, from one pass's lists.  It is
    H in one dimension (``_hessian_lines``) at the edge coordinates z_k . r,
    each formed as 0.0 + z_k0 r0 + z_k1 r1 (+ z_k2 r2) left to right, as
    ``_dot`` sums: the Laplacian of the edge weights
    w_k = r^T M_k r = 2 rho_k (z_k . r)^2 + g_k."""
    edges = range(len(tails))
    lines = [f"{', '.join(f'y{k}_{c}' for k in edges for c in range(d))}, = z",
             f"{', '.join(f'r{c}' for c in range(d))}, = r",
             *(f"z{k}_0 = 0.0{''.join(f' + y{k}_{c} * r{c}' for c in range(d))}" for k in edges),
             *(f"{', '.join(f'{x}{k}' for k in edges)}, = {x}" for x in ("g", "rho")),
             *_hessian_lines(tails, heads, n, 1)]
    return "def aligned(z, r, g, rho):\n" + "".join(f"    {line}\n" for line in lines)


@functools.lru_cache(maxsize=256)
def _generated(source, *key):
    """The function that the text ``source(*key)`` defines, compiled on
    first use and kept for the 256 (source, key) pairs used last.  It gets
    the globals of ``source``'s module, whose names it reads at each call,
    and its text goes to ``linecache`` as ``<rigidflex source(key)>``, a
    file name of its own per source and key, so that tracebacks and
    profilers show it, for as long as its code lives: in this function or
    in one that ``_bound`` made from it.  An evicted function takes its
    text with it once nothing runs its code."""
    text = source(*key)
    filename = f"<rigidflex {source.__name__}{key!r}>"
    linecache.cache[filename] = entry = (len(text), None, text.splitlines(True), filename)
    code = next(c for c in compile(text, filename, "exec").co_consts if isinstance(c, CodeType))
    weakref.finalize(code, lambda: linecache.cache.get(filename) is entry
                     and linecache.cache.pop(filename))
    return FunctionType(code, source.__globals__)


@functools.lru_cache(maxsize=128)
def _bound(graph: FormationGraph, family: PotentialFamily, leader=LeaderSpec(),
           source=_step_source, key=("none", "evaluate")):
    """``_generated(source, *graph._shape, family, *key)`` bound to the
    globals that it reads, made once per (graph, family, leader, source,
    key) and kept for the 128 used last: the family's numpy evaluators PHI,
    G and RHO for ``_on_numpy``, each edge's dbar^2 as D2_k, and a leader's
    k_f and p_t, or t0, tf and its sample table as TIMES and VALUES; no
    leader by default.  No generated function writes a global.  Specs that
    differ only in the sign of a zero compare equal and share one binding,
    which changes no bit: the times are only compared, p_t - p_flex is
    squared or scaled, and a scaled difference or a sample row is added to a
    control, a sum from +0.0 that is never -0.0.  By default it is
    ``evaluate`` with no leader, the one edge pass; a ``_step_source`` key
    is (leader mode, name), and ``integrate`` binds ``advance`` with its
    leader's mode and ``evaluate`` with 'target' or 'none', whether a target
    term is added.  ``oracle``'s layout root finders are bound here too.

    ``evaluate(p)`` maps a flat, node-major list of (N+1) d floats to, as
    new lists, the gradient control u in that layout, the squared errors e
    in edge order and, in third place, the Lyapunov value w = V + the target
    potential, then the edge vectors z (edge-major, d entries per edge) and
    g and rho per edge, at every edge (an exactly coincident one exerts no
    force), and last the balance residual max_i ||u_i|| (``_residual_lines``).
    ``advance(p, k1, w, t, boundary, dt, n, dv)``, with k1 and w what
    ``evaluate`` gave at p, takes up to n RK4 steps of length
    min(dt, boundary - t) from time t while boundary - t > 1e-12 (callers
    leave it at least one).  It returns the state, u and e there as new
    lists, w, the time, dv raised to the worst step's increase of w,
    leaving out the steps that meet a windowed leader's [t0, tf], and the
    balance residual of u, formed once after the last step.  A step whose w
    is not finite is not taken: advance then returns the state, time and dv
    before it, None for u, e and the residual, and that w.

    Both read the call's constants into locals once and run straight-line
    code over local floats, unrolled over the edges and coordinates: the
    stage states and p + (h/6) (((k1 + 2 k2) + 2 k3) + k4) are formed per
    coordinate, and each stage is ``_edge_pass`` plus the leader input at
    t, t + h/2, t + h/2 and t + h (t + h/2 formed only for a windowed
    leader, the one mode that reads it), with the family's g, phi and rho
    formulas inlined per edge as ``_terms`` rewrote them (``_call``) and
    their per-call terms (``_per_call``) formed once per call.  Each node's
    control is one sum of its edges' forces in edge order and V sums phi(e)
    left to right, so no sum depends on the CPU.  A non-finite coordinate
    reaches only its own node's edges, and a non-finite g z only its edge's
    two nodes.  There is no domain check: ||z||^2 >= 0 (or NaN), and
    rounding is monotone, so e = fl(||z||^2 - dbar^2) >= -dbar^2.  Only
    ``_on_numpy`` does numpy arithmetic, so no caller sets a floating-point
    error state.
    """
    names = dict(zip(("PHI", "G", "RHO"), evaluators(family)), __builtins__=builtins,
                 _on_numpy=_on_numpy, isfinite=math.isfinite, bisect_right=bisect.bisect_right,
                 sqrt=math.sqrt, **{f"D2_{k}": dbar2 for k, dbar2 in enumerate(graph._dbar2)})
    if leader.mode == "target":
        names["K_F"] = leader.k_f
        names.update((f"PT_{k}", x) for k, x in enumerate(leader.p_t))
    elif leader.mode == "windowed":
        names.update(T0=leader.t0, TF=leader.tf, TIMES=leader.times, VALUES=leader.values)
    return FunctionType(_generated(source, *graph._shape, family, *key).__code__, names)
