"""Hessian assembly, equilibrium classification, and instability certificates.

The shape potential's Hessian H is code that ``control`` generates: it adds
edge blocks M_e = 2 rho_e z_e z_e^T + g_e I_d to the diagonal node blocks of
edge e = (i, j) and subtracts them from its off-diagonal node blocks.  At an
undesired equilibrium the collapsed rigid subformation has a degenerate axis
r.  For node weights v, (v (x) r)^T H (v (x) r) = v^T H_r v, where the
aligned block H_r[i, j] = r^T H_ij r is the Laplacian of the edge weights
w_e = g_e + 2 rho_e (z_e . r)^2: the same generated Hessian in one
dimension, at the edge coordinates z_e . r.  A v with v^T H_r v < 0
certifies that the equilibrium is a saddle of the potential and hence
unstable; the witness tries the paper's v, whose forms are diagonal
entries of H_r.

``classify`` decides on Python floats, once: the axis r in closed form (at a
3-D point, z_flex x the coordinate axis least along z_flex), the
``degeneracy`` (the rigid agents' simplex's smallest height), and for a
degenerate-rigid class its subform and roles, the rigid agents' labels in
role order i, j, k, l.  Line forms are looked up in LINE_SLOTS, the slot
table the oracle builds its line equilibria from; planar forms come from the
signs of the agents' affine dependence, in signed triangle areas.  The sign
claims are data over the roles (SIGN_CLAIMS), generated once per subform,
roles and edges as one straight-line function over g (``_claims_source``,
made by ``control._generated``), and the simplex's index pairs and faces
are made once per point count (``_faces``).  The balance residual that
decides an equilibrium comes with the edge pass, and the aligned block from
``control``'s generated ``aligned``.  No verdict calls LAPACK; the spectra
are reported, not judged.

``analyze``, the one entry point for the witness and the sign claims, makes
one edge pass (``control._bound``), hands its lists to the private
``_classify``, ``_hessian`` and ``_witness``, and calls the generated
``aligned`` and ``claims`` itself; ``classify`` and ``assemble_hessian``
are each one pass plus their private counterpart.  Tolerances are module
constants read at call time (EQ_TOL from ``control``); only ``analyze``
takes one per call, ``eq_tol``.  The PSD tolerance is derived from H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .control import (EQ_TOL, _aligned_source, _bound, _check_eq_tol, _dot, _generated,
                      _hessian_source, _norm)
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
    _, _, _, z, g, rho, _ = _bound(graph, family)(as_positions(p, graph).ravel().tolist())
    return _hessian(z, g, rho, graph._shape)


def _hessian(z, g, rho, shape: tuple) -> np.ndarray:
    """The Hessian of a graph shape (``FormationGraph._shape``) as an array
    from one edge pass's z, g and rho lists by the shape's generated
    ``hessian``: a non-finite edge block (a coincident edge of a family that
    diverges there) reaches only its own four node blocks, where a product
    with the incidence matrix would spread 0 * inf."""
    nd = shape[2] * shape[3]
    return np.fromiter(_generated(_hessian_source, *shape)(z, g, rho), float,
                       count=nd * nd).reshape(nd, nd)


def _cross(a, b) -> list:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _normal(v) -> list:
    """v x the coordinate axis least along v, the last on a tie."""
    c = min((2, 1, 0), key=lambda c: abs(v[c]))
    return _cross(v, [float(k == c) for k in range(3)])


@functools.lru_cache(maxsize=None)
def _faces(n: int) -> tuple:
    """The index pairs of n points in lexicographic order, and per triple i < j < k in order
    the positions of its pairs ij, ik and jk and of those joining i to each other point."""
    pairs = tuple((a, b) for a in range(n) for b in range(a + 1, n))
    at = {pair: s for s, pair in enumerate(pairs)}.__getitem__
    return pairs, tuple((at((i, j)), at((i, k)), at((j, k)),
                         tuple(at((min(a, i), max(a, i))) for a in range(n) if a not in (i, j, k)))
                        for i, j in pairs for k in range(j + 1, n))


def _coincidence_clusters(length: list, n: int) -> list[int]:
    """Each of n points' cluster, named by its lowest member, from their
    distances in ``_faces(n)`` pair order: points closer than POS_TOL share one."""
    cluster = list(range(n))
    for (a, b), dist in zip(_faces(n)[0], length):
        if dist < POS_TOL and cluster[a] != cluster[b]:
            lo, hi = sorted((cluster[a], cluster[b]))
            cluster = [lo if c == hi else c for c in cluster]
    return cluster


def _simplex(points, z) -> tuple:
    """(heights, r, length, side, t) of the simplex on the ``points`` in d-D
    (2-D points and the flex edge ``z`` in the plane of the first two axes);
    ``side`` lists point b - point a, ``length`` its norm, per pair a < b of ``_faces``.

    The heights, one per point past the first up to d: the first longest side t,
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
    pairs, faces = _faces(len(pts))
    side, length, longest = [], [], 0
    for s, (a, b) in enumerate(pairs):
        (p0, p1, p2), (q0, q1, q2) = pts[a], pts[b]
        v0, v1, v2 = q0 - p0, q1 - p1, q2 - p2
        side.append((v0, v1, v2))
        length.append(math.sqrt(v0 * v0 + v1 * v1 + v2 * v2))
        if length[s] > length[longest]:     # a NaN found first is kept, as by max
            longest = s
    t, heights, n = side[longest], [length[longest]], None
    if len(pts) > 2:
        area = -1.0
        for face in faces:
            (a0, a1, a2), (b0, b1, b2) = side[face[0]], side[face[1]]
            c = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
            if (size := math.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])) > area:
                area, n, largest = size, c, face
        ij, ik, jk, off = largest
        heights.append(area / max(length[ij], length[ik], length[jk]) if area else 0.0)
        if d == 3 and len(pts) > 3:
            far = max(abs(0.0 + n[0] * s[0] + n[1] * s[1] + n[2] * s[2])
                      for s in map(side.__getitem__, off))
            heights.append(far / area if area else 0.0)
    span = next((s for s, h in enumerate(heights) if not h >= GEOM_TOL), len(heights))
    if span == d:
        return heights, None, length, side, t
    for v in _axes(span, d, n, z, t):
        if 0 < (size := _norm(v)) < math.inf:
            r = [c / size for c in v[:d]]
            return heights, tuple(r if max(r, key=abs) > 0 else [-c for c in r]), length, side, t


def _axes(span: int, d: int, n, z, t):
    """``_simplex``'s candidate axes in order, each made only if the one
    before it vanishes: the hyperplane normal n, or at a point ``_normal(z)``,
    or on a line t x z (in 3-D) and then ``_normal(t)``; last e_d."""
    if span == 2:
        yield n
    elif span == 0:
        yield _normal(z)
    else:
        if d == 3:
            yield _cross(t, z)
        yield _normal(t)
    yield [float(c == d - 1) for c in range(3)]


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
    return _classify(x, _bound(graph, family)(x), graph)


def _classify(x: list, out: tuple, graph: FormationGraph,
              eq_tol: float = EQ_TOL) -> EquilibriumClass:
    """``classify`` at the flat realization ``x`` from its edge pass ``out``,
    the lists (u, e, V, z, g, rho) and the balance residual, which decides
    an equilibrium."""
    _, e, _, z, _, _, residual = out
    d = graph.dimension
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

    cluster, groups = _coincidence_clusters(length, len(rigid)), {}
    for a, head in enumerate(cluster, 1):   # a head is its cluster's first member
        groups.setdefault(head, []).append(a)
    diag["clusters"] = list(groups.values())
    # four distinct tetrahedron agents that do not share one line
    if d == 3 and len(cluster) == len(groups) == 4 and heights[1] >= GEOM_TOL:
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
    rank = {c: s for s, c in enumerate(sorted(dict.fromkeys(cluster), key=along.__getitem__))}
    slots, sizes = [rank[c] for c in cluster], [0] * len(rank)
    for s in slots:
        sizes[s] += 1
    found = []
    for side, size in ((slots, sizes), ([len(rank) - 1 - s for s in slots], sizes[::-1])):
        form = _LINE_FORMS[d].get(tuple(size))
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


def _planar_layout(side: list, normal: tuple):
    """Subform and roles of four distinct coplanar points from their sides (``_simplex``).

    The signs of the affine dependence sum_a w_a x_a = 0, sum_a w_a = 0
    (Radon's partition) split the agents 3:1, one inside the triangle of the
    others and listed last, or 2:2, the diagonals of a convex quadrilateral,
    listed as the hull cycle from the lowest label toward its smaller
    neighbour.
    """
    # w_t = (-1)^t times the others' triangle area signed along the plane's
    # ``normal``, a cofactor of [1 | x], from the sides ab and ac of the
    # others a < b < c, face 3 - t of ``_faces(4)``; agent t, if w_t != 0,
    # has the barycentric coordinates -w_a / w_t in the triangle of the others
    n0, n1, n2 = normal
    w = [(-1) ** t * (0.0 + n0 * (a1 * b2 - a2 * b1) + n1 * (a2 * b0 - a0 * b2)
                      + n2 * (a0 * b1 - a1 * b0))
         for t, (ab, ac, *_) in enumerate(_faces(4)[1][::-1])
         for (a0, a1, a2), (b0, b1, b2) in [(side[ab], side[ac])]]
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
    tag: str                       # flex_sum | agent_indicator


def _witness(block: list, cls: EquilibriumClass) -> Witness:
    """Certified negative direction of the aligned block's flat list along ``cls.axis``.

    Candidates, each form a diagonal entry of the block: the
    all-ones-except-flex vector (flex-coincident case), its form w of the
    flex edge, the flex agent's entry; then each agent's indicator, its
    form the agent's entry.  The first form below -WITNESS_MARGIN times the
    block's largest finite |entry| (at least 1) wins; raises
    WitnessNotFoundError, naming the least form and that threshold, if none
    does.
    """
    n, top = math.isqrt(len(block)), 1.0
    for x in map(abs, block):
        if top < x < math.inf:              # the first largest finite |entry|
            top = x
    threshold = -WITNESS_MARGIN * top
    forms = [("agent_indicator", i, i + 1, block[i * (n + 1)]) for i in range(n - 1)]
    if cls.kind == "flex_coincident":       # (tag, v is 1 from start to stop, form)
        forms.insert(0, ("flex_sum", 0, n - 1, block[-1]))
    for tag, start, stop, q in forms:
        if q < threshold:                   # False for a NaN form
            v = [0.0] * start + [1.0] * (stop - start) + [0.0] * (n - stop)
            return Witness(vector=np.array(v), full_vector=np.array([a * r for a in v
                                                                     for r in cls.axis]),
                           quadratic_form=q, tag=tag)
    tag, *_, q = min(forms, key=lambda form: form[-1])
    raise WitnessNotFoundError(
        f"no negative direction found (class {cls.kind}/{cls.subform}): the least "
        f"candidate form, {tag} {q:.3e}, is not below the threshold {threshold:.3e}")


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


def _claims_source(d: int, subform: str, roles: tuple, edges: tuple) -> str:
    """Python source of ``claims(g)``: the SIGN_CLAIMS rows of a subform at
    the given roles, one Claim per row, over g in the order of the graph's
    ``edges``, each g term named by its labels in ascending order.

    Each value is one expression: each term's g values summed left to right
    from 0.0, then the terms from 0.0 ("@" terms in role order).  A pivot
    picks its option, and "A or B" its smaller value (min's first of the
    least), by if expressions; "A or B" holds when either alternative does.
    A value within ZERO_TOL (>= 0) of 0 counts as zero; ZERO_TOL and Claim
    are read from this module at each call."""
    at = {pair: k for k, pair in enumerate(edges)}

    def terms(spec: str) -> tuple:
        """The description of a '+'-joined sum of g terms, and its value's source."""
        names, sums = [], []
        for term in spec.split("+"):
            if term[0] == "@":
                a = roles["ijkl".index(term[1])]
                names.append(f"sum_g at {a}")
                ks = [at[min(a, b), max(a, b)] for b in roles if b != a]
            else:
                a, b = sorted(roles["ijkl".index(r)] for r in term)
                names.append(f"g_{a}{b}")
                ks = [at[a, b]]
            sums.append(f"(0.0{''.join(f' + g{k}' for k in ks)})")
        return "+".join(names), "0.0 + " + " + ".join(sums)

    def pick(options, p) -> str:
        """The option as the pivot p is below -tol, within tol or above."""
        return f"({options[2]} if {p} > tol else {options[1]} if {p} >= -tol else {options[0]})"

    verdict = {"<": "{} < 0", ">": "{} > 0", "=": "abs({}) <= tol"}
    lines, claims = [f"{', '.join(f'g{k}' for k in range(len(edges)))}, = g", "tol = ZERO_TOL"], []
    for j, spec in enumerate(SIGN_CLAIMS[d][subform]):
        described, values, passed = [], [], []
        for part in spec.split(" or "):
            body, relation, _ = part.rsplit(" ", 2)
            pivot, _, body = body.rpartition(" ? ")
            names, sums = zip(*map(terms, body.split(" : ")))
            names = [repr(f"{name} {relation} 0") for name in names]
            value = f"v{j}_{len(values)}"
            if pivot:
                p = f"p{j}_{len(values)}"
                lines += [f"{p} = {terms(pivot)[1]}", f"{value} = {pick(sums, p)}"]
                described.append(pick(names, p))
            else:
                lines.append(f"{value} = {sums[0]}")
                described.append(names[0])
            values.append(value)
            passed.append(verdict[relation].format(value))
        least = values[0]
        for value in values[1:]:        # min(values): the first of the least
            lines.append(f"m{j} = {value} if {value} < {least} else {least}")
            least = f"m{j}"
        described = " + ' or ' + ".join(described)
        claims.append(f"Claim({described}, {least}, {' or '.join(passed)})")
    lines.append(f"return [{', '.join(claims)}]")
    return "def claims(g):\n" + "".join(f"    {line}\n" for line in lines)


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
    x = as_positions(p, graph).ravel().tolist()
    _, e, v, z, g, rho, _ = out = _bound(graph, family)(x)
    cls = _classify(x, out, graph, eq_tol)
    h = _hessian(z, g, rho, graph._shape)
    finite_h = bool(np.isfinite(h).all())
    # V diverges only where some g does, so only a non-finite H needs the
    # check (a quadratic V may overflow where H is finite: no domain error)
    if not finite_h and all(map(math.isfinite, x)) and not math.isfinite(v):
        if any(ek == -d2 for ek, d2 in zip(e, graph._dbar2)):
            raise PotentialDomainError(f"realization lies on the coincidence boundary, where the "
                                       f"{family.name} potential diverges (outside its domain)")
        raise PotentialDomainError(f"V of the {family.name} potential overflows at this "
                                   f"realization (no agents coincide): V = {v!r}")
    certified = graph.certified_topology() is not None
    # the flat (N+1)^2 block r^T H_ij r along the axis r (``_aligned_source``)
    block = _generated(_aligned_source, *graph._shape)(z, cls.axis, g, rho) if cls.axis else None

    witness, claims = None, []
    if certified and block is not None:
        witness = _witness(block, cls)
        if cls.kind == "degenerate_rigid":     # the SIGN_CLAIMS rows at the class's roles
            claims = _generated(_claims_source, graph.dimension, cls.subform, cls.roles,
                                graph.edges)(g)

    if finite_h:
        spectrum = np.linalg.eigvalsh(h)
        block_spectrum = None if block is None else np.linalg.eigvalsh(
            np.reshape(block, (graph.num_nodes,) * 2))
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
