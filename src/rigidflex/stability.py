"""Hessian assembly, equilibrium classification, and instability certificates.

The shape potential's Hessian H is assembled from per-edge blocks
M_e = 2 rho_e z_e z_e^T + g_e I_d, added to the two diagonal node blocks of
edge e = (i, j) and subtracted from its two off-diagonal node blocks.  At an
undesired equilibrium the collapsed rigid subformation has a degenerate axis
r.  For node weights v the direction v (x) r has curvature
(v (x) r)^T H (v (x) r) = v^T H_r v, where the aligned block is
H_r[i, j] = r^T H_ij r.  A v with v^T H_r v < 0 certifies that the
equilibrium is a saddle of the potential and hence unstable.

``classify`` decides the layout of an undesired equilibrium once: its axis
r, and for a degenerate-rigid one its subform and its roles, the rigid
agents' labels in role order i, j, k, l.  Line forms are looked up in
LINE_SLOTS, the slot table the oracle builds its line equilibria from;
planar forms come from the signs of the agents' affine dependence.  The
paper's sign claims are data over those roles (SIGN_CLAIMS), which
``_claims`` evaluates.

``analyze`` is the one entry point for the witness and the sign claims.  It
makes one edge pass (``control.edge_states``) and hands it to the private
``_classify``, ``_hessian``, ``_witness`` and ``_claims``; the public
``classify`` and ``assemble_hessian`` are each one pass plus their private
counterpart.  Tolerances are module constants: EQ_TOL from ``control``, and
SHAPE_TOL, POS_TOL, GEOM_TOL, WITNESS_MARGIN and ZERO_TOL here, read at call
time.  Only ``analyze`` takes one per call, ``eq_tol``, which a run reads
from its scenario; the PSD tolerance is derived from H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .control import EQ_TOL, EdgeState, _check_eq_tol, _norm, _shape, edge_states
from .graph import FormationGraph, as_positions
from .potentials import PotentialDomainError, PotentialFamily

SHAPE_TOL = 1e-6        # max |e| for the desired-shape set
POS_TOL = 1e-6          # coincidence detection
GEOM_TOL = 1e-7         # collinearity/coplanarity via smallest singular value
WITNESS_MARGIN = 1e-10  # a witness form must lie below -WITNESS_MARGIN * max |block|
ZERO_TOL = 1e-9         # |value| at most this satisfies an "= 0" sign claim


class WitnessNotFoundError(RuntimeError):
    """No strictly negative direction found for a claimed undesired equilibrium."""


# ---------------------------------------------------------------------------
# Hessian assembly


def assemble_hessian(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """((N+1)d)^2 symmetric Hessian of the shape potential."""
    return _hessian(edge_states(p, graph, family), graph)


@np.errstate(invalid="ignore", over="ignore")
def _hessian(st: EdgeState, graph: FormationGraph) -> np.ndarray:
    """The Hessian from one edge pass ``st``, its edge blocks summed in edge
    order by ``_hessian_index`` rather than multiplied by the incidence
    matrix: a non-finite block (a coincident edge of a family that diverges
    there) then reaches only its own four node blocks, where a product with
    B would spread 0 * inf to all of them."""
    nd = graph.num_nodes * graph.dimension
    m = 2.0 * st.rho[:, None, None] * (st.z[:, :, None] * st.z[:, None, :]) \
        + st.g[:, None, None] * np.eye(graph.dimension)
    blocks = np.stack([m, m, -m, -m], axis=1).ravel()
    return np.bincount(_hessian_index(*_shape(graph)), blocks, nd * nd).reshape(nd, nd)


@functools.lru_cache(maxsize=32)
def _hessian_index(tails: tuple, heads: tuple, n: int, d: int) -> np.ndarray:
    """Flat (n d)^2 index of ``_hessian``'s blocks [M, M, -M, -M] at node blocks
    (i,i), (j,j), (i,j), (j,i), in edge order; read-only, built once per shape."""
    i, j, axis = np.array(tails), np.array(heads), np.arange(d)
    rows = np.stack([i, j, i, j], 1)[..., None, None] * d + axis[:, None]
    index = (rows * (n * d) + np.stack([i, j, j, i], 1)[..., None, None] * d + axis).ravel()
    index.flags.writeable = False
    return index


def _aligned_last_block(h: np.ndarray, r) -> np.ndarray:
    """(N+1)^2 block r^T H_ij r along the unit vector r."""
    d = len(r)
    n = len(h) // d
    return np.einsum("a,iajb,b->ij", r, h.reshape(n, d, n, d), r)


# ---------------------------------------------------------------------------
# Geometry helpers


def _coincidence_clusters(points: np.ndarray) -> list[int]:
    """Each point's cluster, named by its lowest member index.

    Points closer than POS_TOL, directly or through a chain of such pairs,
    share a cluster.
    """
    diff = points[:, None] - points
    near = (np.sqrt(np.vecdot(diff, diff)) < POS_TOL).tolist()
    cluster = list(range(len(points)))
    for a, row in enumerate(near):
        for b in range(a):
            if row[b] and cluster[a] != cluster[b]:
                lo, hi = sorted((cluster[a], cluster[b]))
                cluster = [lo if c == hi else c for c in cluster]
    return cluster


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

    A degenerate-rigid class carries its subform and the roles that its sign
    claims read, both decided here from the rigid agents' singular values and
    one array of their pairwise distances.  Both undesired classes carry
    their axis r (see ``_axis``), the only frame the analysis reads.
    """
    pos = as_positions(p, graph)
    return _classify(pos, edge_states(pos, graph, family), graph)


def _classify(pos: np.ndarray, st: EdgeState, graph: FormationGraph,
              eq_tol: float = EQ_TOL) -> EquilibriumClass:
    """``classify`` at the (N+1, d) realization ``pos`` from its edge pass
    ``st``, whose balance residual ``st.residual`` decides an equilibrium."""
    residual = st.residual
    diag = {"residual": residual}
    if not residual < eq_tol:               # also a NaN residual
        return EquilibriumClass(kind="not_equilibrium", diagnostics=diag)

    shape_err = float(np.abs(st.e).max())
    diag["shape_error"] = shape_err
    ambiguous = 0.1 * eq_tol < residual < 10.0 * eq_tol
    if shape_err < SHAPE_TOL:
        return EquilibriumClass(kind="desired", diagnostics=diag, ambiguous=ambiguous)

    z_flex = st.z[graph.flex_edge_index]
    flex_gap = _norm(z_flex)
    diag["flex_gap"] = flex_gap
    rigid = pos[:-1]
    if flex_gap < POS_TOL:
        return EquilibriumClass(kind="flex_coincident", diagnostics=diag, ambiguous=ambiguous,
                                axis=_flex_axis(rigid, z_flex))

    x = rigid - rigid.mean(axis=0)
    sv, normal = _normal_space(x)
    thin = float(sv[-1])                    # 0 = degenerate
    diag["degeneracy"] = thin
    if thin >= GEOM_TOL:
        return EquilibriumClass(kind="unrecognized", diagnostics=diag, ambiguous=True)
    ambiguous = ambiguous or thin > 0.1 * GEOM_TOL

    cluster = _coincidence_clusters(rigid)
    diag["clusters"] = [[a + 1 for a, c in enumerate(cluster) if c == head]
                        for head in sorted(set(cluster))]
    # four distinct tetrahedron agents that do not share one line
    if x.shape == (4, 3) and len(set(cluster)) == 4 and len(normal) == 1:
        subform, roles = _planar_layout(x)
    else:
        subform, roles = _line_layout(x, cluster)
    return EquilibriumClass(kind="degenerate_rigid", subform=subform, diagnostics=diag,
                            ambiguous=ambiguous, roles=roles, axis=_axis(normal, z_flex))


def _axis(normal: np.ndarray, z_flex: np.ndarray) -> tuple:
    """The degenerate axis r of an undesired class, from the orthonormal rows
    ``normal`` spanning the normal space of the rigid agents' affine span S.

    Where S fills the space (a flex-coincident point at a full-rank shape),
    the span of the first d agents, all but the anchor on the certified
    graphs, stands in for S (``_flex_axis``).  Where the normal space has
    room (a line in 3-D, coincident agents), r is also orthogonal to the
    flex edge z_flex: then every edge is orthogonal to r on a line form, and
    the aligned block is the g-weighted Laplacian whatever r is.  r's
    largest-magnitude component is positive.
    """
    if len(normal) > 1:
        normal = np.linalg.svd((normal @ z_flex)[None])[2][-1:] @ normal
    r = normal[0]
    return tuple((r if r[np.abs(r).argmax()] > 0 else -r).tolist())


def _normal_space(rows: np.ndarray):
    """(singular values of ``rows``, orthonormal rows spanning the
    complement of their row space)."""
    _, sv, vt = np.linalg.svd(rows)
    return sv, vt[int((sv >= GEOM_TOL * max(1.0, sv[0])).sum()):]


def _flex_axis(rigid: np.ndarray, z_flex: np.ndarray) -> tuple:
    """``_axis`` at a flex-coincident point.  Where the first d agents span a
    hyperplane, S is that hyperplane or the whole space, so the hyperplane's
    normal is r either way and S needs no decomposition."""
    d = rigid.shape[1]
    normal = _normal_space(rigid[1:d] - rigid[0])[1]
    if len(normal) > 1:
        span = _normal_space(rigid[1:] - rigid[0])[1]
        normal = span if len(span) else normal
    return _axis(normal, z_flex)


def _line_layout(x: np.ndarray, cluster: list[int]):
    """Subform and roles of centred points x on a line, by LINE_SLOTS.

    The slot sizes along the line, or their reflection, name the subform.
    Where both orientations fit, the lexicographically smallest role tuple
    wins.  A layout that fits no row (a graph other than the triangle or the
    tetrahedron) has no subform.
    """
    n, d = x.shape
    # the points lie on a line through their centroid, so any nonzero point
    # orders them along it
    along = (x @ x[np.abs(x).argmax() // d]).tolist()
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


def _planar_layout(x: np.ndarray):
    """Subform and roles of four distinct coplanar centred points x.

    The signs of the affine dependence sum_a w_a x_a = 0, sum_a w_a = 0
    (Radon's partition) split the agents 3:1, one inside the triangle of the
    others and listed last, or 2:2, the diagonals of a convex quadrilateral,
    listed as the hull cycle from the lowest label toward its smaller
    neighbour.
    """
    # w spans the left null space of [1 | x]; agent t, if w_t != 0, has the
    # barycentric coordinates -w_a / w_t in the triangle of the others
    w = np.linalg.svd(np.hstack([np.ones((4, 1)), x]))[0][:, -1].tolist()
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


def _witness(block: np.ndarray, cls: EquilibriumClass) -> Witness:
    """Certified negative direction of the block aligned with ``cls.axis``.

    Candidate order: the all-ones-except-flex vector (flex-coincident case),
    per-agent indicator vectors in index order, then the eigenvector of the
    most negative eigenvalue of the block; the eigendecomposition runs only
    if every cheaper candidate fails.  The first candidate whose quadratic
    form lies below -WITNESS_MARGIN times the block's largest finite |entry|
    (at least 1) wins; raises WitnessNotFoundError if none does.
    """
    n = len(block)
    finite = np.isfinite(block)
    scale = max(1.0, float(np.abs(block[finite]).max())) if finite.any() else 1.0
    threshold = -WITNESS_MARGIN * scale

    def form(v):
        nz = v != 0.0          # restrict to the candidate's support so that
        sub = block[np.ix_(nz, nz)]   # untouched non-finite entries cannot
        with np.errstate(invalid="ignore"):    # poison the quadratic form
            return float(v[nz] @ sub @ v[nz])

    def candidates():
        if cls.kind == "flex_coincident":
            v = np.ones(n)
            v[-1] = 0.0
            yield "flex_sum", v, form(v)
        for i, q in enumerate(block.diagonal()[:-1].tolist()):
            yield "agent_indicator", np.eye(n)[i], q    # its form 1 * b_ii * 1, exactly
        if finite.all():
            v = np.linalg.eigh(block)[1][:, 0]
            yield "eigenvector", v, form(v)

    for tag, v, q in candidates():
        if q < threshold:                   # False for a NaN form
            return Witness(vector=v, full_vector=np.outer(v, cls.axis).ravel(),
                           quadratic_form=q, tag=tag)
    # unbounded curvature at a coincidence boundary has no eigendecomposition
    lowest = np.linalg.eigh(block)[0][0] if finite.all() else -np.inf
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
    value = 0.0
    for part in parts:
        value += g[part[0]] if len(part) == 1 else sum(g[pair] for pair in part)
    return value


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


def _claims(st: EdgeState, graph: FormationGraph, cls: EquilibriumClass) -> list[Claim]:
    """Every sign claim of a degenerate-rigid class, from the edge pass ``st``.

    The claims are the subform's SIGN_CLAIMS rows, read at the roles that
    ``classify`` assigned (``cls.roles``).  Every g term names its labels in
    ascending order.
    """
    g = dict(zip(graph.edges, st.g.tolist()))
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
    st = edge_states(pos, graph, family)
    cls = _classify(pos, st, graph, eq_tol)
    h = _hessian(st, graph)
    finite_h = bool(np.isfinite(h).all())
    # V diverges only where some g does, so only a non-finite H needs the
    # check (a quadratic V may overflow where H is finite: no domain error)
    if not finite_h and np.isfinite(pos).all() and not np.isfinite(st.v):
        if (st.e == -graph._dbar2).any():
            raise PotentialDomainError(f"realization lies on the coincidence boundary, where the "
                                       f"{family.name} potential diverges (outside its domain)")
        raise PotentialDomainError(f"V of the {family.name} potential overflows at this "
                                   f"realization (no agents coincide): V = {st.v!r}")
    certified = graph.certified_topology() is not None
    block = _aligned_last_block(h, cls.axis) if cls.axis else None

    witness = None
    claims: list = []
    if certified and block is not None:
        witness = _witness(block, cls)
        if cls.kind == "degenerate_rigid":
            claims = _claims(st, graph, cls)

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
