"""Independent reference implementations that the tests compare the package against."""

import itertools
import math

import numpy as np

from rigidflex.control import (_bound, _dot, _norm, _on_numpy, _per_call, _sum, edge_states,
                               gradient_control)
from rigidflex.graph import FormationGraph, simplex_gram
from rigidflex.integrator import integrate
import rigidflex.oracle as oracle
from rigidflex.oracle import OracleError, newton_polish
from rigidflex.potentials import evaluators
import rigidflex.stability as stability
from rigidflex.stability import (
    EQ_TOL,
    LINE_SLOTS,
    GEOM_TOL,
    POS_TOL,
    SHAPE_TOL,
    SIGN_CLAIMS,
    WITNESS_MARGIN,
    Claim,
    EquilibriumClass,
    Witness,
    WitnessNotFoundError,
    _coincidence_clusters,
    classify,
)


def tetrahedron_with(des):
    """Tetrahedron-plus-flex graph with desired lengths des[(i, j)], 4 elsewhere."""
    edges = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5))
    return FormationGraph(num_nodes=5, dimension=3, edges=edges,
                          desired=tuple(des.get(e, 4.0) for e in edges), flex_edge=(4, 5))


# the tailored tetrahedron: unequal lengths whose quadratic balance has a
# pair-at-endpoint root at gaps (2, 3), d13 = d23 = sqrt(26.5), d34 = sqrt(39)
TAILORED = tetrahedron_with({(1, 3): math.sqrt(26.5), (2, 3): math.sqrt(26.5),
                             (3, 4): math.sqrt(39.0)})

def bind(family, dbar):
    """A family's (phi, g, rho) as functions of e alone at the desired
    lengths ``dbar`` (a Python float, or an array broadcast against e),
    over ``evaluators`` at d2 = dbar * dbar."""
    d2 = dbar * dbar
    return tuple(lambda e, f=f: f(e, d2) for f in evaluators(family))


def leader_velocity(spec, t):
    """A windowed spec's sample at t by a scan of its table: the row of the
    last sample time at or before t, the first row before the first time."""
    row = spec.values[0]
    for time, value in zip(spec.times, spec.values):
        if time <= t:
            row = value
    return row


def leader_control(p, t, graph, family, spec):
    """Gradient control plus the leader input on the flex block, on numpy
    arrays, written from the spec's fields apart from ``leader_input``."""
    u = gradient_control(p, graph, family)
    d = graph.dimension
    p_flex = np.asarray(p, dtype=float).reshape(-1)[-d:]
    if spec.mode == "target":
        u[-d:] += spec.k_f * (np.array(spec.p_t) - p_flex)
    elif spec.mode == "windowed" and spec.t0 <= t <= spec.tf:
        u[-d:] += np.array(leader_velocity(spec, t))
    return u


def leader_input(spec, t, state, u):
    """The reference leader law on a flat, node-major state (flex agent
    last): add the input at time t in place to the flex entries of the
    control list ``u`` and return ``u``, k_f (p_t - p_flex) in target mode
    and ``leader_velocity`` on [t0, tf] in windowed mode."""
    if spec.mode == "target":
        k_f, flex = spec.k_f, len(u) - len(spec.p_t)
        for c, target in enumerate(spec.p_t, flex):
            u[c] += k_f * (target - state[c])
    elif spec.mode == "windowed" and spec.t0 <= t <= spec.tf:
        v = leader_velocity(spec, t)
        for c, vc in enumerate(v, len(u) - len(v)):
            u[c] += vc
    return u


def leader_potential(spec, state):
    """(k_f/2) ||p_t - p_flex||^2, summed left to right, in target mode;
    0.0 otherwise."""
    if spec.mode != "target":
        return 0.0
    total = 0.0
    for target, x in zip(spec.p_t, state[len(state) - len(spec.p_t):]):
        total += (target - x) * (target - x)
    return 0.5 * spec.k_f * total


def apply_perturbation(p, event, graph):
    """A flat, node-major state p with the event's displacement added to its
    agent's row on numpy arrays, as a flat array."""
    pos = np.array(p, dtype=float).reshape(graph.num_nodes, graph.dimension)
    pos[event.agent - 1] += event.displacement
    return pos.reshape(-1)


def balance_residuals(p, graph, family):
    """(N+1,) array of per-agent balance norms ||sum_j g_ij z_ij||."""
    u = gradient_control(p, graph, family).reshape(graph.num_nodes, graph.dimension)
    return np.linalg.norm(u, axis=1)


def array_pass(p, graph, family):
    """The edge pass on numpy arrays at a realization p: (z, e, g, rho, u,
    V) with z and u as (m, d) and (N+1, d) rows.  Per edge z = p_i - p_j,
    ||z||^2 summed left to right, e, and g and rho at every edge; the
    forces g z of the edges with ||z||^2 != 0 are scattered with
    ``np.add.at``, -g z to node i and +g z to node j, edge by edge, so each
    node sums its terms in edge order.  V = 1/2 sum phi(e) left to right
    (numpy's cumulative sum is sequential)."""
    d = graph.dimension
    pos = np.asarray(p, dtype=float).reshape(graph.num_nodes, d)
    tails, heads = graph.edge_tails, graph.edge_heads
    phi, g_of, rho_of = bind(family, np.array(graph.desired))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = pos[tails] - pos[heads]
        sq = z[:, 0] * z[:, 0]
        for c in range(1, d):
            sq = sq + z[:, c] * z[:, c]
        e = sq - graph._dbar2
        g, rho = g_of(e), rho_of(e)
        live = sq != 0
        f = g[live, None] * z[live]
        u = np.zeros_like(pos)
        np.add.at(u, np.stack([tails[live], heads[live]], 1).ravel(),
                  np.stack([-f, f], 1).reshape(-1, d))
        v = 0.5 * float(np.cumsum(phi(e))[-1])
    return z, e, g, rho, u, v


def float_pass(graph, family):
    """The edge pass on Python floats as loops over the edges and
    coordinates: ``(run, potential)``.  ``run(p)`` maps a flat, node-major
    list of floats to the control list and the squared errors, per edge
    z = p_i - p_j, ||z||^2 left to right, e, g(e), then u_i -= g z and
    u_j += g z, skipping an exactly-zero edge; ``potential(e)`` is
    V = 1/2 sum phi(e) left to right.  An evaluator that raises runs on a
    numpy float."""
    d, size = graph.dimension, graph.num_nodes * graph.dimension
    phis, gs = zip(*(bind(family, dbar)[:2] for dbar in graph.desired))
    edges = list(zip(graph.edge_tails.tolist(), graph.edge_heads.tolist(), graph._dbar2, gs))

    def call(f, e):
        try:
            return f(e)
        except (ZeroDivisionError, OverflowError):
            return float(f(np.float64(e)))

    def run(p):
        u, errors = [0.0] * size, []
        for i, j, dbar2, g in edges:
            z = [p[d * i + c] - p[d * j + c] for c in range(d)]
            sq = z[0] * z[0]
            for zc in z[1:]:
                sq += zc * zc
            e = sq - dbar2
            errors.append(e)
            if sq:
                f = call(g, e)
                for c in range(d):
                    u[d * i + c] -= f * z[c]
                    u[d * j + c] += f * z[c]
        return u, errors

    def potential(errors):
        v = 0.0
        for phi, e in zip(phis, errors):
            v += call(phi, e)
        return 0.5 * v

    return run, potential


def rk4_step(graph, family, spec, p, k1, t, h):
    """One classical RK4 step as per-stage lists over ``float_pass``, k1
    being the gradient control at p: (new state, gradient control, squared
    errors, V plus the target potential), all at the new state.  The stage
    states and p + (h/6) (((k1 + 2 k2) + 2 k3) + k4) are formed per
    coordinate."""
    run, potential = float_pass(graph, family)
    half, t_half, sixth = 0.5 * h, t + 0.5 * h, h / 6.0
    k1 = leader_input(spec, t, p, list(k1))
    s = [x + k * half for x, k in zip(p, k1)]
    k2 = leader_input(spec, t_half, s, run(s)[0])
    s = [x + k * half for x, k in zip(p, k2)]
    k3 = leader_input(spec, t_half, s, run(s)[0])
    s = [x + k * h for x, k in zip(p, k3)]
    k4 = leader_input(spec, t + h, s, run(s)[0])
    p_new = [x + (((a + 2.0 * b) + 2.0 * c) + k) * sixth
             for x, a, b, c, k in zip(p, k1, k2, k3, k4)]
    u, e = run(p_new)
    return p_new, u, e, potential(e) + leader_potential(spec, p_new)


def rk4_advance(graph, family, spec, p, k1, e, w, t, boundary, dt, n, dv):
    """Up to n ``rk4_step`` calls while boundary - t > 1e-12, each of length
    min(dt, boundary - t), from the state p with its gradient control k1,
    squared errors e and Lyapunov value w: (state, control, errors, w, t,
    dv, residual) after the last step, dv raised to the worst increase of w
    over the steps that do not meet a windowed leader's [t0, tf], and the
    control's ``_residual``.  A step whose w is not finite is not taken:
    (state, None, None, that w, t, dv, None) before it."""
    t0, tf = (spec.t0, spec.tf) if spec.mode == "windowed" else (math.inf, -math.inf)
    for _ in range(n):
        if not boundary - t > 1e-12:
            break
        h = min(dt, boundary - t)
        p_new, u, e_new, w_new = rk4_step(graph, family, spec, p, k1, t, h)
        if not math.isfinite(w_new):
            return p, None, None, w_new, t, dv, None
        if not (t <= tf and t0 <= t + h):
            dv = max(dv, w_new - w)
        p, k1, e, w, t = p_new, u, e_new, w_new, t + h
    return p, k1, e, w, t, dv, _residual(k1, graph.dimension)


def gradient_norm(u):
    """||u|| with the squares summed left to right: the square root of the
    last partial sum of numpy's cumulative sum, which is sequential."""
    return float(np.sqrt(np.cumsum(np.square(u))[-1]))


def _residual(u, d: int) -> float:
    """The balance residual as ``control`` computed it before the generated
    pass returned it: the largest ``_norm`` of an agent's d entries in a
    flat, node-major list u; NaN if any is NaN, the last NaN found."""
    worst = 0.0
    for i in range(0, len(u), d):
        r = _norm(u[i:i + d])
        if r > worst or r != r:         # a NaN is taken and then kept
            worst = r
    return worst


def balance_residual(u, d):
    """The largest per-agent norm of a flat, node-major control list, by
    numpy's norm along an axis and numpy's max."""
    return float(np.linalg.norm(np.reshape(u, (-1, d)), axis=1).max())


def local_frame_control(neighbor_offsets, g_values):
    """Control of one agent from measurements in its own frame.

    ``neighbor_offsets`` holds the relative positions p_i - p_j expressed in
    the agent's rotated frame, one row per neighbor; ``g_values`` the matching
    potential gradients.  No alignment between agents' frames is needed: the
    result equals the rotated global-frame control block.
    """
    offsets = np.atleast_2d(np.asarray(neighbor_offsets, dtype=float))
    g = np.asarray(g_values, dtype=float)
    return -(g[:, None] * offsets).sum(axis=0)


def psd_check(matrix):
    """(min eigenvalue, PSD verdict) of a symmetric matrix at the tolerance
    1e-8 * max(||H||_2, 1), the default of ``analyze``'s verdict."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, np.abs(matrix).max())):
        raise ValueError("psd_check expects a symmetric matrix")
    spectrum = np.linalg.eigvalsh(matrix)
    eig_tol = 1e-8 * max(abs(spectrum[0]), abs(spectrum[-1]), 1.0)
    return float(spectrum[0]), bool(spectrum[0] >= -eig_tol)


def capture_from_flow(p0, graph, family, t_end):
    """The flow cross-check of the oracle's constructions: integrate from p0
    for t_end in RK4 steps of 1e-3, take the recorded state nearest the
    first equilibrium detected at residual 1e-6, Newton-polish it, and
    return its positions and class."""
    traj = integrate(p0, graph, family, t_end=t_end, dt=1e-3, eq_tol=1e-6)
    hit = next(t for t, kind in traj.events if kind == "equilibrium_detected")
    p = newton_polish(traj.states[np.argmin(np.abs(traj.times - hit))], graph, family)
    p = p.reshape(graph.num_nodes, graph.dimension)
    return p, classify(p, graph, family)


# ---------------------------------------------------------------------------
# A layout solve as the interpreter ran it: the bit-for-bit references of
# oracle's generated bisection and Newton solve, and of its placement


def balance_source(tails, heads, n, d, family, layout) -> str:
    """Python source of a layout's ``balance(x)`` on one graph shape with
    one family, for ``control._bound`` to bind with key (layout,): F at the
    scales x as a list and a function that gives J there as a list of rows,
    from ``oracle._balance_lines``, with the per-call terms of d2 formed
    once per call and rho and J only when J is asked for."""
    edges = oracle._geometry(layout, (tails, heads, n, d))[0]
    k = len(layout.templates)
    xs = [f"x{l}" for l in range(k)]
    force, f, jac = oracle._balance_lines(layout, (tails, heads, n, d), family, xs)
    rows = (", ".join(f"j{min(l, m)}_{max(l, m)}" for m in range(k)) for l in range(k))
    body = [f"{', '.join(xs)}, = x",
            f"{', '.join(f'd2_{e}' for e, _, _ in edges)}, = "
            f"{', '.join(f'D2_{e}' for e, _, _ in edges)},",
            *_per_call(family, ("g", "rho"), [e for e, _, _ in edges]), *force,
            "def jacobian():", *(f"    {line}" for line in jac),
            f"    return [{', '.join(f'[{row}]' for row in rows)}]",
            f"return [{', '.join(f)}], jacobian"]
    return "def balance(x):\n" + "".join(f"    {line}\n" for line in body)


def _bracketed_root(f, lo, hi):
    """The root of f on [lo, hi] by bisection, with a readable error when
    the ends share a sign.  The bracket is halved by the sign of f until f
    is exactly 0 at an end or the ends are adjacent floats, and the end with
    the smaller |f| is returned (lo on a tie)."""
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
    """s with J s = F for k = 2 or 3 gaps by Cramer's rule, the 3x3
    determinants by cofactors along the first row, or None when det J is
    exactly 0."""
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
    """Damped Newton from the seed x0 = x on ``fun(x)``, which gives F(x) as
    a list and a function that gives J(x) as rows: the x and F it ends at.
    Each step s solves J s = F (``_solve``), is cut to |x0| and halved up to
    ``oracle.NEWTON_HALVINGS`` times until max|F| falls; the stopping rules
    are those of ``oracle._solver_source``, with ``oracle.NEWTON_MAX_STEPS``
    read at call time."""
    f, jac = fun(x)
    history, bound = [_max_abs(f)], _dot(x, x)
    for _ in range(oracle.NEWTON_MAX_STEPS):
        step = _solve(jac(), f)
        if step is None or not 1e-30 * bound < (size := _dot(step, step)) < math.inf:
            break
        cut = min(1.0, (bound / size) ** 0.5)
        step = [s * cut for s in step]
        for _ in range(oracle.NEWTON_HALVINGS + 1):
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


def layout_solve(layout, graph, family):
    """``_Layout.solve`` as the interpreter ran it: the refusals by sorting
    each agent's (slot, length) pairs, the bisection and the Newton seeds on
    the bound ``balance_source`` (``_bracketed_root``, ``_newton``), and
    each coordinate as ``_dot`` of the scales and the template entries; the
    method follows from the layout's kind, a line layout (``slots``) or a
    planar one.  The seeds go through ``oracle._multi_root``, and so through
    ``oracle.root``.  Gives (the flat positions, the flex agent's last,
    method) or raises OracleError with the message ``solve`` gives."""
    shape, length = graph._shape, graph.desired
    edges, inner, t = oracle._geometry(layout, shape)[:3]
    reach = [sorted((layout.slots[i + j - a], length[e]) for e, i, j in edges if a in (i, j))
             for a in range(len(layout.slots))]
    for a, slot in enumerate(layout.slots):
        ra, rb = reach[a], reach[b := layout.slots.index(slot)]
        if ra != rb:
            raise OracleError(
                f"construction needs equal desired distances: coincident agents "
                f"{b + 1} and {a + 1} have desired lengths "
                f"{[x for _, x in rb]} and {[x for _, x in ra]} to the other points")
    desired = dict(zip(graph.edges, graph.desired))
    for what, group in layout.equal:
        if any(desired[e] != desired[group[0]] for e in group):
            raise OracleError(f"construction needs equal desired distances: {what}")
    g, d2 = evaluators(family)[1], graph._dbar2
    for e in inner:
        try:
            ge = g(-d2[e], d2[e])
        except (ZeroDivisionError, OverflowError):
            ge = _on_numpy(g, -d2[e], d2[e])
        if not math.isfinite(ge):
            raise OracleError(oracle._BOUNDARY)
    *_, n, d = shape
    x, method = [], "coincidence-construct"
    if layout.templates:
        balance = _bound(graph, family, source=balance_source, key=(layout,))
        method = "rootfind-collinear" if layout.slots else "rootfind-coplanar"
    if len(layout.templates) == 1:
        ends = [length[e] / _norm(te[0]) for (e, _, _), te in zip(edges, t)]
        lo, hi = min(ends), max(ends)
        if lo < hi:
            x = [_bracketed_root(lambda s: balance([s])[0][0], lo, hi)]
        else:
            x, method = [lo], "coincidence-construct"
    elif layout.templates:
        per_pair = {frozenset((layout.slots[i], layout.slots[j])): length[e] for e, i, j in edges}
        scale = _sum(per_pair.values()) / len(per_pair)

        def newton(seed, steps, halvings):      # as oracle.root calls a generated one
            gaps, f = _newton(balance, seed)
            return gaps, _max_abs(f)

        x = oracle._multi_root(newton, [[v * scale for v in seed] for seed in layout.seeds],
                               f"the gaps of line layout {layout.slots}")
    rigid = [[_dot(x, [tk[a][c] for tk in layout.templates]) for c in range(d)]
             for a in range(n - 1)]
    flex = rigid[-1][:-1] + [rigid[-1][-1] + length[-1]]
    return [c for row in rigid + [flex] for c in row], method


_APEX_FIRST = np.array([[apex, *(x for x in range(4) if x != apex)] for apex in range(4)])


def verify_angle_inequalities(lengths) -> list[Claim]:
    """Vertex-angle inequalities for realizable tetrahedra.

    ``lengths`` maps unordered vertex pairs from {1,2,3,4} to edge lengths,
    each a float or an array, all of one shape; each claim's value and
    verdict take that shape.  At every vertex the three face angles satisfy
    each pairwise sum exceeding the third and a total below 360 degrees.
    Each angle comes from the Gram matrix at its apex (``simplex_gram``),
    cos = G_bc / (sqrt(G_bb) sqrt(G_cc)).  Raises ValueError unless every
    length set embeds as a non-degenerate tetrahedron: a finite Cholesky
    factor of the Gram matrix at vertex 1.
    """
    dist = {tuple(sorted(pair)): val for pair, val in dict(lengths).items()}
    if sorted(dist) != list(itertools.combinations(range(1, 5), 2)):
        raise ValueError("need all six edge lengths of a tetrahedron on nodes 1..4")
    sq = np.zeros(np.broadcast_shapes(*map(np.shape, dist.values())) + (4, 4))
    for (a, b), val in dist.items():
        sq[..., a - 1, b - 1] = sq[..., b - 1, a - 1] = np.square(val)
    # the Gram matrix at each apex, the other vertices in ascending order
    gram = simplex_gram(sq[..., _APEX_FIRST[:, :, None], _APEX_FIRST[:, None, :]])
    try:
        if not np.isfinite(np.linalg.cholesky(gram[..., 0, :, :])).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise ValueError("edge lengths do not embed as a non-degenerate tetrahedron") from None
    b, c = [0, 0, 1], [1, 2, 2]
    norm = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))       # edge lengths at the apex
    cos = gram[..., b, c] / (norm[..., b] * norm[..., c])
    th = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    th = np.moveaxis(th, (-2, -1), (0, 1))                      # (apex, pair, ...)
    total = th.sum(axis=1)
    claims = []
    for apex in range(4):
        claims.append(Claim(f"angle sum at {apex + 1} < 360", total[apex], total[apex] < 360.0))
        for a in range(3):
            rest = total[apex] - th[apex, a]
            claims.append(Claim(f"vertex {apex + 1}: pair sum > third (drop {a})",
                                rest - th[apex, a], rest > th[apex, a]))
    return claims


# ---------------------------------------------------------------------------
# The singular-value classification and the einsum block that ``classify``
# and ``analyze`` used before the axis, the planar roles and the aligned
# block took closed forms on floats


def aligned_last_block(h, r):
    """(N+1)^2 block r^T H_ij r of the full Hessian h along the unit vector r."""
    d = len(r)
    n = len(h) // d
    return np.einsum("a,iajb,b->ij", r, h.reshape(n, d, n, d), r)


def normal_space(rows):
    """(singular values of ``rows``, orthonormal rows spanning the
    complement of their row space)."""
    _, sv, vt = np.linalg.svd(rows)
    return sv, vt[int((sv >= GEOM_TOL * max(1.0, sv[0])).sum()):]


def svd_axis(normal, z_flex):
    """The unit axis from the orthonormal rows ``normal`` spanning the
    normal space of an affine span: where it has room, the combination
    orthogonal to z_flex (an SVD's choice); largest component positive."""
    if len(normal) > 1:
        normal = np.linalg.svd((normal @ z_flex)[None])[2][-1:] @ normal
    r = normal[0]
    return tuple((r if r[np.abs(r).argmax()] > 0 else -r).tolist())


def svd_flex_axis(rigid, z_flex):
    """The flex-coincident axis: the normal space of the first d agents'
    span, or where it has room, of all rigid agents' span, if that does not
    fill the space."""
    d = rigid.shape[1]
    normal = normal_space(rigid[1:d] - rigid[0])[1]
    if len(normal) > 1:
        span = normal_space(rigid[1:] - rigid[0])[1]
        normal = span if len(span) else normal
    return svd_axis(normal, z_flex)


def svd_planar_layout(x):
    """Planar subform and roles from the affine dependence of four centred
    points x, the left null vector of [1 | x] by an SVD."""
    w = np.linalg.svd(np.hstack([np.ones((4, 1)), x]))[0][:, -1].tolist()
    for t in range(4):
        if w[t] and all(-w[a] / w[t] > 1e-9 for a in range(4) if a != t):
            return "interior_point", (*(a + 1 for a in range(4) if a != t), t + 1)
    across = max((1, 2, 3), key=lambda a: w[0] * w[a])
    j, l = (a for a in (1, 2, 3) if a != across)
    return "convex_quadrilateral", (1, j + 1, across + 1, l + 1)


def svd_classify(p, graph, family, eq_tol=EQ_TOL):
    """The class by singular values: the degeneracy is the smallest
    singular value of the centred rigid agents, and the axis and the planar
    roles come from SVDs."""
    pos = np.asarray(p, dtype=float).reshape(graph.num_nodes, graph.dimension)
    st = edge_states(pos, graph, family)
    diag = {"residual": st.residual}
    if not st.residual < eq_tol:
        return EquilibriumClass(kind="not_equilibrium", diagnostics=diag)
    diag["shape_error"] = float(np.abs(st.e).max())
    ambiguous = 0.1 * eq_tol < st.residual < 10.0 * eq_tol
    if diag["shape_error"] < SHAPE_TOL:
        return EquilibriumClass(kind="desired", diagnostics=diag, ambiguous=ambiguous)
    z_flex = st.z[graph.flex_edge_index]
    diag["flex_gap"] = float(np.linalg.norm(z_flex))
    rigid = pos[:-1]
    if diag["flex_gap"] < POS_TOL:
        return EquilibriumClass(kind="flex_coincident", diagnostics=diag, ambiguous=ambiguous,
                                axis=svd_flex_axis(rigid, z_flex))
    x = rigid - rigid.mean(axis=0)
    sv, normal = normal_space(x)
    diag["degeneracy"] = float(sv[-1])
    if sv[-1] >= GEOM_TOL:
        return EquilibriumClass(kind="unrecognized", diagnostics=diag, ambiguous=True)
    ambiguous = ambiguous or sv[-1] > 0.1 * GEOM_TOL
    cluster = _coincidence_clusters([float(np.linalg.norm(rigid[b] - rigid[a]))
                                     for a, b in itertools.combinations(range(len(rigid)), 2)],
                                    len(rigid))
    diag["clusters"] = [[a + 1 for a, c in enumerate(cluster) if c == head]
                        for head in sorted(set(cluster))]
    if x.shape == (4, 3) and len(set(cluster)) == 4 and len(normal) == 1:
        subform, roles = svd_planar_layout(x)
    else:
        # any nonzero centred point orders points on a line through the centroid
        ref = x[np.abs(x).argmax() // x.shape[1]]
        subform, roles = dict_line_layout(x.tolist(), cluster, ref.tolist())
    return EquilibriumClass(kind="degenerate_rigid", subform=subform, diagnostics=diag,
                            ambiguous=ambiguous, roles=roles, axis=svd_axis(normal, z_flex))


def einsum_witness(block, cls):
    """The witness read from an aligned block array: each candidate's form
    is v^T B v over its support (``np.ix_``); None where no form lies below
    the margin."""
    n = len(block)
    finite = np.isfinite(block)
    threshold = -WITNESS_MARGIN * (max(1.0, float(np.abs(block[finite]).max()))
                                   if finite.any() else 1.0)

    def form(v):
        nz = v != 0.0
        with np.errstate(invalid="ignore"):
            return float(v[nz] @ block[np.ix_(nz, nz)] @ v[nz])

    candidates = [("agent_indicator", np.eye(n)[i]) for i in range(n - 1)]
    if cls.kind == "flex_coincident":
        candidates.insert(0, ("flex_sum", np.append(np.ones(n - 1), 0.0)))
    for tag, v in candidates:
        if (q := form(v)) < threshold:
            return Witness(vector=v, full_vector=np.outer(v, cls.axis).ravel(),
                           quadratic_form=q, tag=tag)
    return None


def loop_aligned_block(z, g, rho, r, graph):
    """The aligned block r^T H_ij r as rows of floats, by a loop over the
    edges: the Laplacian of the edge weights w_k = g_k + 2 rho_k (z_k . r)^2,
    each entry 0.0 plus its terms in edge order; ``z`` is a pass's flat list."""
    d, n = len(r), graph.num_nodes
    block = [[0.0] * n for _ in range(n)]
    for k, (i, j) in enumerate(graph.edges):
        a = _dot(z[d * k:d * k + d], r)
        w = g[k] + 2.0 * rho[k] * (a * a)           # no float ** : it raises on overflow
        for row, col, entry in ((i, i, w), (j, j, w), (i, j, -w), (j, i, -w)):
            block[row - 1][col - 1] += entry
    return block


# ---------------------------------------------------------------------------
# The Hessian as ``stability`` scattered it with numpy before ``control``
# generated it per graph shape


@np.errstate(invalid="ignore", over="ignore")
def bincount_hessian(z, g, rho, graph):
    """The Hessian from one edge pass's z, g and rho (lists or arrays), its
    edge blocks summed in edge order by ``hessian_index``."""
    d = graph.dimension
    nd, z = graph.num_nodes * d, np.array(z).reshape(-1, d)
    m = 2.0 * np.array(rho)[:, None, None] * (z[:, :, None] * z[:, None, :]) \
        + np.array(g)[:, None, None] * np.eye(d)
    blocks = np.stack([m, m, -m, -m], axis=1).ravel()
    index = hessian_index(tuple(graph.edge_tails.tolist()), tuple(graph.edge_heads.tolist()),
                          graph.num_nodes, d)
    return np.bincount(index, blocks, nd * nd).reshape(nd, nd)


def hessian_index(tails: tuple, heads: tuple, n: int, d: int) -> np.ndarray:
    """Flat (n d)^2 index of ``bincount_hessian``'s blocks [M, M, -M, -M] at
    node blocks (i,i), (j,j), (i,j), (j,i), in edge order."""
    i, j, axis = np.array(tails), np.array(heads), np.arange(d)
    rows = np.stack([i, j, i, j], 1)[..., None, None] * d + axis[:, None]
    return (rows * (n * d) + np.stack([i, j, j, i], 1)[..., None, None] * d + axis).ravel()


# ---------------------------------------------------------------------------
# The verdict pieces as ``stability`` wrote them before they read index
# tables made once per shape and before its simplex was generated: a simplex
# of sides and lengths in dicts keyed by index pairs
# (``itertools.combinations`` per call) with its axis candidates made by
# ``_cross`` and ``_normal``, slots found with ``list.index`` and line forms
# by slot sizes, cofactors from per-call index lists, sign claims over g
# keyed by label pairs, and the witness over the block's rows


def _cross(a, b) -> list:
    """a x b of two 3-vectors."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _normal(v) -> list:
    """v x the coordinate axis least along v, the last on a tie."""
    c = min((2, 1, 0), key=lambda c: abs(v[c]))
    return _cross(v, [float(k == c) for k in range(3)])


# slot sizes along the line -> (subform, its roles sorted by slot)
_LINE_FORMS = {
    d: {tuple(slots.count(s) for s in range(max(slots) + 1)):
        (name, sorted(range(len(slots)), key=slots.__getitem__))
        for name, slots in table.items()}
    for d, table in LINE_SLOTS.items()
}


def dict_simplex(points, z) -> tuple:
    """(heights, r, length, side, t) of the simplex on the ``points`` and
    the flex edge ``z``, as the generated ``simplex`` forms them, with
    ``side[a, b]`` and ``length[a, b]`` in dicts over the pairs a < b."""
    d, z = len(z), [*z, 0.0][:3]
    pts = points if d == 3 else [[*p, 0.0] for p in points]
    side, length = {}, {}
    for a, b in itertools.combinations(range(len(pts)), 2):
        (p0, p1, p2), (q0, q1, q2) = pts[a], pts[b]
        v = side[a, b] = [q0 - p0, q1 - p1, q2 - p2]
        length[a, b] = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    longest = max(length, key=length.get)
    t, heights, n = side[longest], [length[longest]], None
    if len(pts) > 2:
        area = -1.0
        for i, j, k in itertools.combinations(range(len(pts)), 3):
            c = _cross(side[i, j], side[i, k])
            if (size := math.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])) > area:
                area, n, face = size, c, (i, j, k)
        i, j, k = face
        heights.append(area / max(length[i, j], length[i, k], length[j, k]) if area else 0.0)
        if d == 3 and len(pts) > 3:
            far = max(abs(_dot(n, side[min(a, i), max(a, i)])) for a in range(len(pts))
                      if a not in face)
            heights.append(far / area if area else 0.0)
    span = next((s for s, h in enumerate(heights) if not h >= GEOM_TOL), len(heights))
    if span == d:
        return heights, None, length, side, t
    candidates = ([n] if span == 2 else [_normal(z)] if span == 0
                  else ([_cross(t, z)] if d == 3 else []) + [_normal(t)])
    for v in candidates + [[float(c == d - 1) for c in range(3)]]:     # e_d where all vanish
        if 0 < (size := _norm(v)) < math.inf:
            r = [c / size for c in v[:d]]
            return heights, tuple(r if max(r, key=abs) > 0 else [-c for c in r]), length, side, t


def dict_line_layout(x: list, cluster: list, t: list):
    """Subform and roles of points x on a line of direction t, by LINE_SLOTS,
    as ``stability._line_form`` reads them from the clusters' ranks along t:
    the slot sizes along the line, or their reflection, name the subform
    (``_LINE_FORMS``), each slot found by ``list.index`` and each size by
    ``list.count``; where both orientations fit, the smallest role tuple
    wins, and a layout that fits no row has none."""
    n, d = len(x), len(x[0])
    along = [_dot(a, t) for a in x]
    heads = sorted(set(cluster), key=along.__getitem__)
    slots = [heads.index(c) for c in cluster]
    found = []
    for side in (slots, [len(heads) - 1 - s for s in slots]):
        form = _LINE_FORMS[d].get(tuple(side.count(s) for s in range(len(heads))))
        if form is not None:
            subform, by_slot = form
            roles = [0] * n
            for r, a in zip(by_slot, sorted(range(n), key=side.__getitem__)):
                roles[r] = a + 1
            found.append((tuple(roles), subform))
    if not found:
        return None, ()
    roles, subform = min(found)
    return subform, roles


def dict_planar_layout(side: dict, normal: tuple):
    """The planar (subform, roles) of the generated ``simplex`` from
    ``dict_simplex``'s sides, each cofactor w_t = (-1)^t normal .
    (side ab x side ac) over the others a < b < c."""
    w = [(-1) ** t * _dot(normal, _cross(side[a, b], side[a, c]))
         for t in range(4) for a, b, c in [[s for s in range(4) if s != t]]]
    for t in range(4):
        if w[t] and all(-w[a] / w[t] > 1e-9 for a in range(4) if a != t):
            return "interior_point", (*(a + 1 for a in range(4) if a != t), t + 1)
    across = max((1, 2, 3), key=lambda a: w[0] * w[a])
    j, l = (a for a in (1, 2, 3) if a != across)
    return "convex_quadrilateral", (1, j + 1, across + 1, l + 1)


def dict_classify(x: list, out: tuple, graph, eq_tol: float = EQ_TOL) -> EquilibriumClass:
    """``stability._classify`` from ``dict_simplex``, ``dict_line_layout``
    and ``dict_planar_layout``, each cluster listed by a scan per head."""
    u, e, _, z, _, _, _ = out
    d = graph.dimension
    residual = _residual(u, d)
    diag = {"residual": residual}
    if not residual < eq_tol:
        return EquilibriumClass(kind="not_equilibrium", diagnostics=diag)
    shape_err = max(map(abs, e))
    diag["shape_error"] = shape_err
    ambiguous = 0.1 * eq_tol < residual < 10.0 * eq_tol
    if shape_err < SHAPE_TOL:
        return EquilibriumClass(kind="desired", diagnostics=diag, ambiguous=ambiguous)
    z_flex = z[-d:]
    flex_gap = _norm(z_flex)
    diag["flex_gap"] = flex_gap
    rigid = [x[a:a + d] for a in range(0, len(x) - d, d)]
    if flex_gap < POS_TOL:
        heights, axis = dict_simplex(rigid[:d], z_flex)[:2]
        if min(heights) < GEOM_TOL:
            axis = dict_simplex(rigid, z_flex)[1] or axis
        return EquilibriumClass(kind="flex_coincident", diagnostics=diag, ambiguous=ambiguous,
                                axis=axis)
    heights, axis, length, side, t = dict_simplex(rigid, z_flex)
    thin = min([*heights, 0.0][:d])
    diag["degeneracy"] = thin
    if axis is None:
        return EquilibriumClass(kind="unrecognized", diagnostics=diag, ambiguous=True)
    ambiguous = ambiguous or thin > 0.1 * GEOM_TOL
    cluster = _coincidence_clusters(list(length.values()), len(rigid))
    diag["clusters"] = [[a + 1 for a, c in enumerate(cluster) if c == head]
                        for head in sorted(set(cluster))]
    if d == 3 and len(cluster) == len(set(cluster)) == 4 and heights[1] >= GEOM_TOL:
        subform, roles = dict_planar_layout(side, axis)
    else:
        subform, roles = dict_line_layout(rigid, cluster, t)
    return EquilibriumClass(kind="degenerate_rigid", subform=subform, diagnostics=diag,
                            ambiguous=ambiguous, roles=roles, axis=axis)


def _g_terms(terms: str, roles: tuple):
    """Description of a '+'-joined sum of g terms over roles, and its terms,
    each a tuple of label pairs ("@" terms sum several)."""
    names, parts = [], []
    for term in terms.split("+"):
        if term[0] == "@":
            a = roles["ijkl".index(term[1])]
            names.append(f"sum_g at {a}")
            parts.append(tuple((min(a, b), max(a, b)) for b in roles if b != a))
        else:
            a, b = sorted(roles["ijkl".index(r)] for r in term)
            names.append(f"g_{a}{b}")
            parts.append(((a, b),))
    return "+".join(names), tuple(parts)


def _g_total(parts: tuple, g: dict) -> float:
    return _sum(_sum(g[pair] for pair in part) for part in parts)


def dict_claim(spec: str, roles: tuple, g: dict) -> Claim:
    """One row of SIGN_CLAIMS at the given roles, parsed on the call; g maps
    label pairs to g.  "A or B" holds when either alternative does, with the
    smaller value.  A value within ZERO_TOL of 0 counts as zero."""
    descriptions, values, passed = [], [], False
    for part in spec.split(" or "):
        terms, relation, _ = part.rsplit(" ", 2)
        pivot, _, terms = terms.rpartition(" ? ")
        options = [_g_terms(option, roles) for option in terms.split(" : ")]
        option = 0
        if pivot:
            gp = _g_total(_g_terms(pivot, roles)[1], g)
            option = (gp >= -stability.ZERO_TOL) + (gp > stability.ZERO_TOL)
        name, parts = options[option]
        value = _g_total(parts, g)
        descriptions.append(f"{name} {relation} 0")
        values.append(value)
        passed = passed or (value < 0 if relation == "<" else
                            value > 0 if relation == ">" else abs(value) <= stability.ZERO_TOL)
    return Claim(" or ".join(descriptions), min(values), passed)


# ---------------------------------------------------------------------------
# The sign claims as ``stability`` interpreted them before it generated one
# function per subform, roles and edges: rows compiled into edge indices,
# then read one claim at a time


def claim_rows(d: int, subform: str, roles: tuple, edges: tuple) -> tuple:
    """The SIGN_CLAIMS rows of a subform at the given roles, compiled for the
    graph's ``edges``: per row its alternatives, each a relation, the pivot's
    terms ("" if none) and the options, each a (description, terms) pair; a
    term is a tuple of edge indices ("@" terms hold several, in role order)."""
    at = {pair: k for k, pair in enumerate(edges)}

    def terms(spec: str) -> tuple:
        names, parts = [], []
        for term in spec.split("+"):
            if term[0] == "@":
                a = roles["ijkl".index(term[1])]
                names.append(f"sum_g at {a}")
                parts.append(tuple(at[min(a, b), max(a, b)] for b in roles if b != a))
            else:
                a, b = sorted(roles["ijkl".index(r)] for r in term)
                names.append(f"g_{a}{b}")
                parts.append((at[a, b],))
        return "+".join(names), tuple(parts)

    def alternative(part: str) -> tuple:
        body, relation, _ = part.rsplit(" ", 2)
        pivot, _, body = body.rpartition(" ? ")
        return relation, pivot and terms(pivot)[1], tuple(
            (f"{name} {relation} 0", parts) for name, parts in map(terms, body.split(" : ")))

    return tuple(tuple(map(alternative, spec.split(" or "))) for spec in SIGN_CLAIMS[d][subform])


def _total(parts: tuple, g: list) -> float:
    """Each term's g values summed left to right from 0.0, then the terms (``_sum``'s rule)."""
    total = 0.0
    for part in parts:
        term = 0.0
        for k in part:
            term += g[k]
        total += term
    return total


def _claim(row: tuple, g: list) -> Claim:
    """One row of ``claim_rows`` on g in edge order.  "A or B" holds when
    either alternative does, with the smaller value.  A value within
    ZERO_TOL of 0 counts as zero."""
    descriptions, values, passed = [], [], False
    tol = stability.ZERO_TOL
    for relation, pivot, options in row:
        option = 0
        if pivot:
            gp = _total(pivot, g)
            option = (gp >= -tol) + (gp > tol)
        description, parts = options[option]
        value = _total(parts, g)
        descriptions.append(description)
        values.append(value)
        passed = passed or (value < 0 if relation == "<" else
                            value > 0 if relation == ">" else abs(value) <= tol)
    return Claim(" or ".join(descriptions), min(values), passed)


def rows_witness(block: np.ndarray, cls: EquilibriumClass) -> Witness:
    """``stability._witness`` over the block's rows, each vector built with
    numpy: ``np.zeros``, then ``np.outer`` with the axis."""
    rows, n = block.tolist(), len(block)
    threshold = -WITNESS_MARGIN * max([1.0, *(abs(x) for row in rows for x in row
                                               if math.isfinite(x))])
    forms = [("agent_indicator", i, rows[i][i]) for i in range(n - 1)]
    if cls.kind == "flex_coincident":
        forms.insert(0, ("flex_sum", slice(n - 1), rows[-1][-1]))
    for tag, ones, q in forms:
        if q < threshold:
            v = np.zeros(n)
            v[ones] = 1.0
            return Witness(vector=v, full_vector=np.outer(v, cls.axis).ravel(),
                           quadratic_form=q, tag=tag)
    tag, _, q = min(forms, key=lambda form: form[2])
    raise WitnessNotFoundError(
        f"no negative direction found (class {cls.kind}/{cls.subform}): the least "
        f"candidate form, {tag} {q:.3e}, is not below the threshold {threshold:.3e}")
