"""Hessian assembly, equilibrium classification, and instability certificates.

The shape potential's Hessian H is code that ``control`` generates: it adds
edge blocks M_e = 2 rho_e z_e z_e^T + g_e I_d to the diagonal node blocks of
edge e = (i, j) and subtracts them from its off-diagonal node blocks.  At an
undesired equilibrium the collapsed rigid subformation has a degenerate axis
r.  For node weights v, (v (x) r)^T H (v (x) r) = v^T H_r v, where the
aligned block H_r[i, j] = r^T H_ij r is the Laplacian of the edge weights
w_e = g_e + 2 rho_e (z_e . r)^2.  A v with v^T H_r v < 0 certifies that the
equilibrium is a saddle of the potential and hence unstable.

``classify`` decides on Python floats, once: the axis r in closed form (at a
3-D point, z_flex x the coordinate axis least along z_flex), the
``degeneracy`` (the rigid agents' simplex's smallest height), and for a
degenerate-rigid class its subform and roles, the rigid agents' labels in
role order i, j, k, l.  Line forms are looked up in LINE_SLOTS, the slot
table the oracle builds its line equilibria from; planar forms come from the
signs of the agents' affine dependence, in signed triangle areas.  The sign
claims are data over the roles (SIGN_CLAIMS).  No verdict calls LAPACK but
the witness's eigenvector fallback; the spectra are reported, not judged.

``analyze``, the one entry point for the witness and the sign claims, makes
one edge pass (``control._pass``) and hands its lists to the private
``_classify``, ``_hessian``, ``_aligned_block``, ``_witness`` and
``_claims``; ``classify`` and ``assemble_hessian`` are each one pass plus
their private counterpart.  Tolerances are module constants read at call
time (EQ_TOL from ``control``); only ``analyze`` takes one per call,
``eq_tol``.  The PSD tolerance is derived from H.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .control import (EQ_TOL, _check_eq_tol, _dot, _evaluate, _hessian_pass, _norm, _pass,
                      _residual, _sum)
from .graph import FormationGraph, as_positions
from .potentials import PotentialDomainError, PotentialFamily

SHAPE_TOL = 1e-6        # max |e| for the desired-shape set
POS_TOL = 1e-6          # coincidence detection
GEOM_TOL = 1e-7         # collinearity/coplanarity: the simplex's smallest height
WITNESS_MARGIN = 1e-10  # a witness form must lie below -WITNESS_MARGIN * max |block|
ZERO_TOL = 1e-9         # |value| at most this satisfies an "= 0" sign claim


class WitnessNotFoundError(RuntimeError):
    """No strictly negative direction found for a claimed undesired equilibrium."""


# ---------------------------------------------------------------------------
# Hessian assembly


def assemble_hessian(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """((N+1)d)^2 symmetric Hessian of the shape potential."""
    _, _, _, z, g, rho = _evaluate(p, graph, family)
    return _hessian(z, g, rho, graph)


def _hessian(z, g, rho, graph: FormationGraph) -> np.ndarray:
    """The Hessian from one edge pass's z, g and rho lists by the shape's
    generated ``hessian``: a non-finite edge block (a coincident edge of a
    family that diverges there) reaches only its own four node blocks,
    where a product with the incidence matrix would spread 0 * inf."""
    nd = graph.num_nodes * graph.dimension
    return np.array(_hessian_pass(graph._shape)(z, g, rho), dtype=float).reshape(nd, nd)


def _aligned_block(z, g, rho, r, graph: FormationGraph) -> list:
    """The (N+1)^2 block r^T H_ij r along the unit axis r as rows of floats:
    the Laplacian of the edge weights w_k = r^T M_k r = g_k + 2 rho_k
    (z_k . r)^2, diagonals summed in edge order; ``z`` is the pass's flat list."""
    d, n = len(r), graph.num_nodes
    block = [[0.0] * n for _ in range(n)]
    for k, (i, j) in enumerate(graph.edges):
        a = _dot(z[d * k:d * k + d], r)
        w = g[k] + 2.0 * rho[k] * (a * a)           # no float ** : it raises on overflow
        for row, col, entry in ((i, i, w), (j, j, w), (i, j, -w), (j, i, -w)):
            block[row - 1][col - 1] += entry
    return block


def _cross(a, b) -> list:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _normal(v) -> list:
    """v x the coordinate axis least along v, the last on a tie."""
    c = min((2, 1, 0), key=lambda c: abs(v[c]))
    return _cross(v, [float(k == c) for k in range(3)])


def _coincidence_clusters(length: dict, n: int) -> list[int]:
    """Each of n points' cluster, named by its lowest member, from the
    distances ``length[a, b]``, a < b: points closer than POS_TOL share one."""
    cluster = list(range(n))
    for (a, b), dist in length.items():
        if dist < POS_TOL and cluster[a] != cluster[b]:
            lo, hi = sorted((cluster[a], cluster[b]))
            cluster = [lo if c == hi else c for c in cluster]
    return cluster


def _simplex(points, z) -> tuple:
    """(heights, r, length, side, t) of the simplex on the ``points`` in d-D
    (2-D points and the flex edge ``z`` in the plane of the first two axes);
    ``side[a, b]`` is point b - point a, a < b, and ``length[a, b]`` its norm.

    The heights, one per point past the first up to d: the longest side t,
    the largest face's height over its own longest side, and in 3-D the
    farthest other point's height over that face (3 V / A for four points).
    The first below GEOM_TOL, or a missing one, leaves the affine span S a
    point, a line or a plane.  r is the unit axis orthogonal to S, None
    where S fills the space: a hyperplane's normal (the largest face's in
    3-D); on a 3-D line t x z, or ``_normal(t)`` where that vanishes; at a
    point ``_normal(z)``, the last axis where z = 0; its largest-magnitude
    component positive."""
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


# ---------------------------------------------------------------------------
# Classification


# Line forms: role r of a subform sits in slot LINE_SLOTS[d][subform][r].
# Slots are numbered along the line from 0, and the agents of one slot
# coincide.  The oracle builds each line equilibrium from these vectors, and
# classify reads the subform and its roles back from the slots it finds.
LINE_SLOTS = {
    2: {"collinear_distinct": (0, 1, 2), "coincident_pair": (1, 0, 0),
        "all_coincident": (0, 0, 0)},
    3: {"all_coincident": (0, 0, 0, 0), "triple_coincident": (0, 0, 0, 1),
        "double_pair": (0, 0, 1, 1), "pair_endpoint_collinear": (0, 0, 1, 2),
        "pair_interior_collinear": (1, 1, 0, 2), "collinear_distinct": (0, 1, 2, 3)},
}

# slot sizes along the line -> (subform, its roles sorted by slot)
_LINE_FORMS = {
    d: {tuple(slots.count(s) for s in range(max(slots) + 1)):
        (name, sorted(range(len(slots)), key=slots.__getitem__))
        for name, slots in table.items()}
    for d, table in LINE_SLOTS.items()
}


@dataclass(frozen=True)
class EquilibriumClass:
    kind: str                      # desired | flex_coincident | degenerate_rigid |
                                   # not_equilibrium | unrecognized
    subform: str | None = None
    diagnostics: dict = field(default_factory=dict)
    ambiguous: bool = False
    roles: tuple = ()              # degenerate_rigid: the rigid agents' labels
                                   # in role order i, j, k, l
    axis: tuple = ()               # flex_coincident, degenerate_rigid: the unit
                                   # degenerate axis r that the witness reads


def classify(p, graph: FormationGraph, family: PotentialFamily) -> EquilibriumClass:
    """Classify a realization among desired / undesired equilibrium sets.

    A degenerate-rigid class carries its subform and the roles its sign
    claims read, from the rigid agents' distances and the heights of their
    simplex, the least one its ``degeneracy``.  Both undesired classes carry
    their axis r in closed form (``_simplex``; at a 3-D point z_flex x the
    axis least along z_flex); at a flex-coincident point the first d agents'
    hyperplane normal, else all rigid agents' or the first d's degenerate axis.
    """
    x = as_positions(p, graph).ravel().tolist()
    return _classify(x, _pass(graph, family)(x), graph)


def _classify(x: list, out: tuple, graph: FormationGraph,
              eq_tol: float = EQ_TOL) -> EquilibriumClass:
    """``classify`` at the flat realization ``x`` from its edge pass ``out``,
    the lists (u, e, V, z, g, rho), whose balance residual decides an
    equilibrium."""
    u, e, _, z, _, _ = out
    d = graph.dimension
    residual = _residual(u, d)
    diag = {"residual": residual}
    if not residual < eq_tol:               # also a NaN residual
        return EquilibriumClass(kind="not_equilibrium", diagnostics=diag)

    shape_err = max(map(abs, e))
    diag["shape_error"] = shape_err
    ambiguous = 0.1 * eq_tol < residual < 10.0 * eq_tol
    if shape_err < SHAPE_TOL:
        return EquilibriumClass(kind="desired", diagnostics=diag, ambiguous=ambiguous)

    z_flex = z[-d:]                         # the flex edge sorts last
    flex_gap = _norm(z_flex)
    diag["flex_gap"] = flex_gap
    rigid = [x[a:a + d] for a in range(0, len(x) - d, d)]
    if flex_gap < POS_TOL:
        heights, axis = _simplex(rigid[:d], z_flex)[:2]
        if min(heights) < GEOM_TOL:
            axis = _simplex(rigid, z_flex)[1] or axis
        return EquilibriumClass(kind="flex_coincident", diagnostics=diag, ambiguous=ambiguous,
                                axis=axis)

    heights, axis, length, side, t = _simplex(rigid, z_flex)
    thin = min([*heights, 0.0][:d])         # 0 = degenerate, as is a missing height
    diag["degeneracy"] = thin
    if axis is None:
        return EquilibriumClass(kind="unrecognized", diagnostics=diag, ambiguous=True)
    ambiguous = ambiguous or thin > 0.1 * GEOM_TOL

    cluster = _coincidence_clusters(length, len(rigid))
    diag["clusters"] = [[a + 1 for a, c in enumerate(cluster) if c == head]
                        for head in sorted(set(cluster))]
    # four distinct tetrahedron agents that do not share one line
    if d == 3 and len(cluster) == len(set(cluster)) == 4 and heights[1] >= GEOM_TOL:
        subform, roles = _planar_layout(side, axis)
    else:
        subform, roles = _line_layout(rigid, cluster, t)
    return EquilibriumClass(kind="degenerate_rigid", subform=subform, diagnostics=diag,
                            ambiguous=ambiguous, roles=roles, axis=axis)


def _line_layout(x: list, cluster: list[int], t: list):
    """Subform and roles of points x on a line of direction t, by LINE_SLOTS.

    The slot sizes along the line, or their reflection, name the subform.
    Where both orientations fit, the lexicographically smallest role tuple
    wins.  A layout that fits no row (a graph other than the triangle or the
    tetrahedron) has no subform.
    """
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


def _planar_layout(side: dict, normal: tuple):
    """Subform and roles of four distinct coplanar points from their sides (``_simplex``).

    The signs of the affine dependence sum_a w_a x_a = 0, sum_a w_a = 0
    (Radon's partition) split the agents 3:1, one inside the triangle of the
    others and listed last, or 2:2, the diagonals of a convex quadrilateral,
    listed as the hull cycle from the lowest label toward its smaller
    neighbour.
    """
    # w_t = (-1)^t times the others' triangle area signed along the plane's
    # ``normal``, a cofactor of [1 | x]; agent t, if w_t != 0, has the
    # barycentric coordinates -w_a / w_t in the triangle of the others
    w = [(-1) ** t * _dot(normal, _cross(side[a, b], side[a, c]))
         for t in range(4) for a, b, c in [[s for s in range(4) if s != t]]]
    for t in range(4):
        if w[t] and all(-w[a] / w[t] > 1e-9 for a in range(4) if a != t):
            return "interior_point", (*(a + 1 for a in range(4) if a != t), t + 1)
    across = max((1, 2, 3), key=lambda a: w[0] * w[a])
    j, l = (a for a in (1, 2, 3) if a != across)
    return "convex_quadrilateral", (1, j + 1, across + 1, l + 1)


# ---------------------------------------------------------------------------
# Instability witness


@dataclass(frozen=True)
class Witness:
    vector: np.ndarray             # node weights v, length N+1
    full_vector: np.ndarray        # v (x) r
    quadratic_form: float
    tag: str                       # flex_sum | agent_indicator | eigenvector


def _witness(block: list, cls: EquilibriumClass) -> Witness:
    """Certified negative direction of ``_aligned_block`` along ``cls.axis``.

    Candidates: the all-ones-except-flex vector (flex-coincident case), its
    form w of the flex edge, the flex agent's diagonal entry; each agent's
    indicator, its form its diagonal entry; then, only if these fail, the
    eigenvector of the block's lowest eigenvalue.  The first form below
    -WITNESS_MARGIN times the block's largest finite |entry| (at least 1)
    wins; raises WitnessNotFoundError if none does.
    """
    n = len(block)
    finite = [abs(x) for row in block for x in row if math.isfinite(x)]
    threshold = -WITNESS_MARGIN * max([1.0, *finite])

    def candidates():
        if cls.kind == "flex_coincident":       # (tag, where v is 1 or v, form)
            yield "flex_sum", slice(n - 1), block[-1][-1]
        for i in range(n - 1):
            yield "agent_indicator", i, block[i][i]
        if len(finite) == n * n:
            v = np.linalg.eigh(block)[1][:, 0]
            yield "eigenvector", v, float(v @ np.array(block) @ v)

    for tag, v, q in candidates():
        if q < threshold:                   # False for a NaN form
            if tag != "eigenvector":        # only the winner's vector is built
                ones, v = v, np.zeros(n)
                v[ones] = 1.0
            return Witness(vector=v, full_vector=np.outer(v, cls.axis).ravel(),
                           quadratic_form=q, tag=tag)
    # unbounded curvature at a coincidence boundary has no eigendecomposition
    lowest = np.linalg.eigh(block)[0][0] if len(finite) == n * n else -np.inf
    raise WitnessNotFoundError(
        f"no negative direction found (class {cls.kind}/{cls.subform}, "
        f"min block eigenvalue {lowest:.3e})")


# ---------------------------------------------------------------------------
# Sign-property verification (undesired-equilibrium taxonomies)


@dataclass(frozen=True)
class Claim:
    description: str
    value: float
    passed: bool


# The sign claims of each subform, over the roles i, j, k, l that classify
# assigns.  "ij+ik < 0" claims g_ij + g_ik < 0, and "@i" is the sum of g over
# the rigid edges at i.  "A or B" holds when either claim does.
# "ij ? A : B : C" makes claim A, B or C as g_ij is negative, zero or positive.
SIGN_CLAIMS = {
    2: {
        "collinear_distinct": ("ij < 0", "jk < 0", "ik > 0", "ij+ik < 0", "jk+ik < 0"),
        "coincident_pair": ("jk < 0", "ij = 0", "ik = 0"),
        "all_coincident": ("ij < 0", "ik < 0", "jk < 0"),
    },
    3: {
        "convex_quadrilateral": ("ij < 0", "jk < 0", "kl < 0", "il < 0", "ik > 0", "jl > 0",
                                 "@i < 0", "@j < 0", "@k < 0", "@l < 0"),
        "interior_point": ("il < 0", "jl < 0", "kl < 0", "ij > 0", "ik > 0", "jk > 0"),
        "all_coincident": ("ij < 0", "ik < 0", "il < 0", "jk < 0", "jl < 0", "kl < 0"),
        "triple_coincident": ("il = 0", "jl = 0", "kl = 0", "ij < 0", "ik < 0", "jk < 0"),
        "double_pair": ("ik+il = 0", "jk+jl = 0", "ik+jk = 0", "il+jl = 0", "ij < 0", "kl < 0"),
        "pair_endpoint_collinear": ("il+jl+kl < 0", "@i < 0 or @j < 0"),
        "pair_interior_collinear": ("il+jl+kl < 0", "ik+jk+kl < 0"),
        "collinear_distinct": ("il+jl+kl < 0", "ij ? ij+ik+il : ij+jk+jl : ik+jk+kl < 0"),
    },
}


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


@functools.lru_cache(maxsize=None)
def _parsed_claim(spec: str, roles: tuple) -> tuple:
    """One SIGN_CLAIMS row at the given roles, parsed once: per alternative
    its relation, pivot terms ("" if none) and options, each a (description,
    terms) pair."""
    parsed = []
    for part in spec.split(" or "):
        terms, relation, _ = part.rsplit(" ", 2)
        pivot, _, terms = terms.rpartition(" ? ")
        options = [_g_terms(option, roles) for option in terms.split(" : ")]
        parsed.append((relation, pivot and _g_terms(pivot, roles)[1],
                       tuple((f"{name} {relation} 0", parts) for name, parts in options)))
    return tuple(parsed)


def _claim(spec: str, roles: tuple, g: dict) -> Claim:
    """One row of SIGN_CLAIMS at the given roles; g maps label pairs to g.
    "A or B" holds when either alternative does, with the smaller value.
    A value within ZERO_TOL of 0 counts as zero."""
    descriptions, values, passed = [], [], False
    for relation, pivot, options in _parsed_claim(spec, roles):
        option = 0
        if pivot:
            gp = _g_total(pivot, g)
            option = (gp >= -ZERO_TOL) + (gp > ZERO_TOL)
        description, parts = options[option]
        value = _g_total(parts, g)
        descriptions.append(description)
        values.append(value)
        passed = passed or (value < 0 if relation == "<" else
                            value > 0 if relation == ">" else abs(value) <= ZERO_TOL)
    return Claim(" or ".join(descriptions), min(values), passed)


def _claims(g, graph: FormationGraph, cls: EquilibriumClass) -> list[Claim]:
    """Every sign claim of a degenerate-rigid class, from one edge pass's g
    in edge order.

    The claims are the subform's SIGN_CLAIMS rows, read at the roles that
    ``classify`` assigned (``cls.roles``).  Every g term names its labels in
    ascending order.
    """
    g = dict(zip(graph.edges, g))
    return [_claim(spec, cls.roles, g)
            for spec in SIGN_CLAIMS[graph.dimension][cls.subform]]


# ---------------------------------------------------------------------------
# Stability report


def _json_float(x):
    """Strict-JSON representation: non-finite values become +/-"inf" strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _json_floats(arr):
    if arr is None:
        return None
    return [_json_float(x) for x in arr]


@dataclass(frozen=True)
class StabilityReport:
    classification: EquilibriumClass
    spectrum: np.ndarray
    block_spectrum: np.ndarray | None
    min_eigenvalue: float
    positive_semidefinite: bool
    witness: Witness | None
    claims: list
    certified: bool                    # witness machinery applies to this topology

    def to_json_dict(self) -> dict:
        return {
            "class": self.classification.kind,
            "subform": self.classification.subform,
            "diagnostics": {k: _json_float(v) if isinstance(v, float) else v
                            for k, v in self.classification.diagnostics.items()},
            "ambiguous": self.classification.ambiguous,
            "spectrum": _json_floats(self.spectrum),
            "block_spectrum": _json_floats(self.block_spectrum),
            "min_eigenvalue": _json_float(self.min_eigenvalue),
            "positive_semidefinite": self.positive_semidefinite,
            "certified": self.certified,
            "witness": None if self.witness is None else {
                "tag": self.witness.tag,
                "vector": [float(x) for x in self.witness.vector],
                "full_vector": [float(x) for x in self.witness.full_vector],
                "quadratic_form": _json_float(self.witness.quadratic_form),
            },
            "claims": [
                {"claim": c.description, "value": _json_float(c.value),
                 "passed": c.passed}
                for c in self.claims
            ],
        }


def analyze(p, graph: FormationGraph, family: PotentialFamily,
            eq_tol: float = EQ_TOL) -> StabilityReport:
    """Full stability workup: classification, spectra, witness, sign claims.

    Witness construction and sign-property tables are only attempted for the
    two certified topologies; other graphs get spectrum and class only.
    A class without an axis has no block spectrum.  One edge pass serves the
    class, the Hessian and the sign claims, and one aligned block serves the
    witness and the block spectrum.  Raises WitnessNotFoundError when an
    undesired class on a certified graph has no witness, never a silent
    pass, and PotentialDomainError at finite positions where V is not finite
    (the coincidence boundary of a family that diverges there, or a V that
    overflows), and ValueError for an eq_tol that is not finite and >= 0.
    H is PSD when lambda_min >= -1e-8 * max(|lambda_min|, |lambda_max|, 1).
    """
    _check_eq_tol(eq_tol)
    pos = as_positions(p, graph)
    x = pos.ravel().tolist()
    _, e, v, z, g, rho = out = _pass(graph, family)(x)
    cls = _classify(x, out, graph, eq_tol)
    h = _hessian(z, g, rho, graph)
    finite_h = bool(np.isfinite(h).all())
    # V diverges only where some g does, so only a non-finite H needs the
    # check (a quadratic V may overflow where H is finite: no domain error)
    if not finite_h and np.isfinite(pos).all() and not math.isfinite(v):
        if any(ek == -d2 for ek, d2 in zip(e, graph._dbar2)):
            raise PotentialDomainError(f"realization lies on the coincidence boundary, where the "
                                       f"{family.name} potential diverges (outside its domain)")
        raise PotentialDomainError(f"V of the {family.name} potential overflows at this "
                                   f"realization (no agents coincide): V = {v!r}")
    certified = graph.certified_topology() is not None
    block = _aligned_block(z, g, rho, cls.axis, graph) if cls.axis else None

    witness = None
    claims: list = []
    if certified and block is not None:
        witness = _witness(block, cls)
        if cls.kind == "degenerate_rigid":
            claims = _claims(g, graph, cls)

    if finite_h:
        spectrum = np.linalg.eigvalsh(h)
        block_spectrum = None if block is None else np.linalg.eigvalsh(block)
        eig_tol = 1e-8 * max(abs(spectrum[0]), abs(spectrum[-1]), 1.0)
        min_eig, is_psd = float(spectrum[0]), bool(spectrum[0] >= -eig_tol)
    else:
        # non-finite coordinates: no finite spectrum exists
        spectrum = block_spectrum = None
        min_eig, is_psd = -np.inf, False
    return StabilityReport(
        classification=cls, spectrum=spectrum, block_spectrum=block_spectrum,
        min_eigenvalue=min_eig, positive_semidefinite=is_psd,
        witness=witness, claims=claims, certified=certified,
    )
