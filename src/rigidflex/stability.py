"""Hessian assembly, equilibrium classification, and instability certificates.

The shape potential's Hessian H is assembled from per-edge blocks
M_e = 2 rho_e z_e z_e^T + g_e I_d, added to the two diagonal node blocks of
edge e = (i, j) and subtracted from its two off-diagonal node blocks.  At an
undesired equilibrium the collapsed rigid subformation has a degenerate axis
r (the last axis of the aligning frame).  For node weights v the direction
v (x) r has curvature (v (x) r)^T H (v (x) r) = v^T H_r v, where the aligned
last-axis block is H_r[i, j] = r^T H_ij r.  A v with v^T H_r v < 0 certifies
that the equilibrium is a saddle of the potential and hence unstable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .control import edge_states, potential_value
from .graph import FormationGraph, as_positions
from .potentials import PotentialDomainError, PotentialFamily

# Default tolerances (overridable per call).
EQ_TOL = 1e-9          # balance residual for equilibrium membership
SHAPE_TOL = 1e-6       # max |e| for the desired-shape set
POS_TOL = 1e-6         # coincidence detection
GEOM_TOL = 1e-7        # collinearity/coplanarity via smallest singular value


class WitnessNotFoundError(RuntimeError):
    """No strictly negative direction found for a claimed undesired equilibrium."""


def family_admits(p, graph: FormationGraph, family: PotentialFamily) -> bool:
    """True when the family's potential V is finite at this realization.

    Families that blow up at the coincidence boundary (phi -> inf as
    ||z|| -> 0) exclude coincidence configurations from their domain, so
    those points are not equilibria for them.
    """
    return bool(np.isfinite(potential_value(p, graph, family)))


# ---------------------------------------------------------------------------
# Hessian assembly


@np.errstate(invalid="ignore", over="ignore")
def assemble_hessian(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """((N+1)d)^2 symmetric Hessian of the shape potential.

    The edge blocks are scattered by index, in edge order, rather than
    multiplied by the incidence matrix: a non-finite block (a coincident
    edge of a family that diverges there) then reaches only its own four
    node blocks, where a product with B would spread 0 * inf to all of them.
    """
    n, d = graph.num_nodes, graph.dimension
    st = edge_states(p, graph, family)
    m = 2.0 * st.rho[:, None, None] * (st.z[:, :, None] * st.z[:, None, :]) \
        + st.g[:, None, None] * np.eye(d)
    tails, heads = graph._tails, graph._heads
    rows = np.stack([tails, heads, tails, heads], axis=1).ravel()
    cols = np.stack([tails, heads, heads, tails], axis=1).ravel()
    h = np.zeros((n, n, d, d))
    np.add.at(h, (rows, cols), np.stack([m, m, -m, -m], axis=1).reshape(-1, d, d))
    return h.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def _aligned_last_block(h: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """(N+1)^2 block r^T H_ij r for the last axis r of the frame ``rotation``."""
    d = len(rotation)
    n = len(h) // d
    return np.einsum("a,iajb,b->ij", rotation[-1], h.reshape(n, d, n, d), rotation[-1])


def _psd_verdict(spectrum: np.ndarray, eig_tol: float | None):
    """(min eigenvalue, PSD verdict) of an ascending spectrum."""
    scale = max(abs(spectrum[0]), abs(spectrum[-1]), 1.0)
    if eig_tol is None:
        eig_tol = 1e-8 * scale
    return float(spectrum[0]), bool(spectrum[0] >= -eig_tol)


def psd_check(matrix: np.ndarray, eig_tol: float | None = None):
    """(min eigenvalue, PSD verdict).  Default tolerance 1e-8 * ||H||_2."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, np.abs(matrix).max())):
        raise ValueError("psd_check expects a symmetric matrix")
    return _psd_verdict(np.linalg.eigvalsh(matrix), eig_tol)


# ---------------------------------------------------------------------------
# Geometry helpers


def _thinness(points: np.ndarray) -> float:
    """Smallest singular value of the centered point cloud (0 = degenerate)."""
    x = points - points.mean(axis=0)
    return float(np.linalg.svd(x, compute_uv=False)[-1])


def _coincidence_clusters(points: np.ndarray, tol: float) -> list[list[int]]:
    """Group point indices whose pairwise distances are below tol."""
    n = len(points)
    unassigned = list(range(n))
    clusters = []
    while unassigned:
        seed = unassigned.pop(0)
        cluster = [seed]
        changed = True
        while changed:
            changed = False
            for j in list(unassigned):
                if any(np.linalg.norm(points[j] - points[i]) < tol for i in cluster):
                    cluster.append(j)
                    unassigned.remove(j)
                    changed = True
        clusters.append(sorted(cluster))
    return clusters


def alignment_rotation(p, graph: FormationGraph) -> np.ndarray:
    """Deterministic orthogonal frame from the rigid-subgraph geometry.

    Principal axes of the rigid agents' positions, ordered by decreasing
    variance, become the new coordinate axes; the most degenerate direction
    lands on the last axis.  Row signs are canonicalized and the determinant
    made positive so the choice is reproducible.
    """
    pos = as_positions(p, graph)
    rigid = pos[list(graph.rigid_nodes)]
    x = rigid - rigid.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=True)
    q = vt.copy()
    for row in range(q.shape[0]):
        lead = np.argmax(np.abs(q[row]))
        if q[row, lead] < 0:
            q[row] = -q[row]
    if np.linalg.det(q) < 0:
        q[-1] = -q[-1]
    return q


def _in_triangle(point, tri, tol=1e-9) -> bool:
    """Strict interior test via barycentric coordinates (2-D inputs)."""
    a, b, c = tri
    t = np.column_stack([b - a, c - a])
    det = np.linalg.det(t)
    if abs(det) < tol:
        return False
    lam = np.linalg.solve(t, point - a)
    l1, l2 = lam
    l0 = 1.0 - l1 - l2
    return l0 > tol and l1 > tol and l2 > tol


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class EquilibriumClass:
    kind: str                      # desired | flex_coincident | degenerate_rigid |
                                   # not_equilibrium | unrecognized
    subform: str | None = None
    diagnostics: dict = field(default_factory=dict)
    ambiguous: bool = False


# Subform tags, by geometry of the rigid agents.
SUBFORMS_2D = ("collinear_distinct", "coincident_pair", "all_coincident")
SUBFORMS_3D = ("convex_quadrilateral", "interior_point", "all_coincident",
               "triple_coincident", "double_pair", "pair_endpoint_collinear",
               "pair_interior_collinear", "collinear_distinct")


def classify(p, graph: FormationGraph, family: PotentialFamily,
             eq_tol: float = EQ_TOL, shape_tol: float = SHAPE_TOL,
             pos_tol: float = POS_TOL, geom_tol: float = GEOM_TOL) -> EquilibriumClass:
    """Classify a realization among desired / undesired equilibrium sets."""
    pos = as_positions(p, graph)
    st = edge_states(pos, graph, family)
    residual = float(np.linalg.norm(st.u, axis=1).max())
    diag = {"residual": residual}
    if not residual < eq_tol:               # also a NaN residual
        return EquilibriumClass(kind="not_equilibrium", diagnostics=diag)

    shape_err = float(np.abs(st.e).max())
    diag["shape_error"] = shape_err
    ambiguous = 0.1 * eq_tol < residual < 10.0 * eq_tol
    if shape_err < shape_tol:
        return EquilibriumClass(kind="desired", diagnostics=diag, ambiguous=ambiguous)

    flex_gap = float(np.linalg.norm(st.z[graph.flex_edge_index]))
    diag["flex_gap"] = flex_gap
    if flex_gap < pos_tol:
        return EquilibriumClass(kind="flex_coincident", diagnostics=diag,
                                ambiguous=ambiguous)

    rigid = pos[list(graph.rigid_nodes)]
    thin = _thinness(rigid)
    diag["degeneracy"] = thin
    if thin >= geom_tol:
        return EquilibriumClass(kind="unrecognized", diagnostics=diag, ambiguous=True)
    ambiguous = ambiguous or thin > 0.1 * geom_tol

    subform = _subform(rigid, graph.dimension, pos_tol, geom_tol)
    diag["clusters"] = [
        [i + 1 for i in c] for c in _coincidence_clusters(rigid, pos_tol)
    ]
    return EquilibriumClass(kind="degenerate_rigid", subform=subform,
                            diagnostics=diag, ambiguous=ambiguous)


def _subform(rigid: np.ndarray, dimension: int, pos_tol: float, geom_tol: float) -> str:
    clusters = _coincidence_clusters(rigid, pos_tol)
    sizes = sorted(len(c) for c in clusters)

    if dimension == 2:
        if sizes == [3]:
            return "all_coincident"
        if sizes == [1, 2]:
            return "coincident_pair"
        return "collinear_distinct"

    if sizes == [4]:
        return "all_coincident"
    if sizes == [1, 3]:
        return "triple_coincident"
    if sizes == [2, 2]:
        return "double_pair"
    if sizes == [1, 1, 2]:
        centers = np.array([rigid[c].mean(axis=0) for c in clusters])
        pair_idx = next(k for k, c in enumerate(clusters) if len(c) == 2)
        axis = _line_axis(centers)
        s = centers @ axis
        order = np.argsort(s)
        if order[0] == pair_idx or order[-1] == pair_idx:
            return "pair_endpoint_collinear"
        return "pair_interior_collinear"
    # four distinct coplanar agents
    x = rigid - rigid.mean(axis=0)
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-2] < geom_tol * max(1.0, sv[0]):
        return "collinear_distinct"
    plane = _plane_coordinates(rigid)
    for k in range(4):
        others = [plane[i] for i in range(4) if i != k]
        if _in_triangle(plane[k], others):
            return "interior_point"
    return "convex_quadrilateral"


def _line_axis(points: np.ndarray) -> np.ndarray:
    x = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(x)
    return vt[0]


def _plane_coordinates(points: np.ndarray) -> np.ndarray:
    """Project (nearly) coplanar 3-D points onto their best-fit plane."""
    x = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(x)
    return x @ vt[:2].T


# ---------------------------------------------------------------------------
# Instability witness


@dataclass(frozen=True)
class Witness:
    vector: np.ndarray             # node weights v, length N+1
    full_vector: np.ndarray        # v (x) r, r = rotation[-1], in the original frame
    quadratic_form: float
    tag: str                       # flex_sum | agent_indicator | eigenvector
    rotation: np.ndarray           # aligning frame; its last row is r


def instability_witness(p, graph: FormationGraph, family: PotentialFamily,
                        cls: EquilibriumClass | None = None,
                        hessian: np.ndarray | None = None,
                        margin_scale: float = 1e-10) -> Witness:
    """Certified negative direction of the Hessian at an undesired equilibrium.

    Candidate order: the all-ones-except-flex vector (flex-coincident case),
    per-agent indicator vectors in index order (degenerate-rigid case, in the
    frame that aligns the rigid agents with the leading axes), then the
    eigenvector of the most negative eigenvalue of the aligned last-axis
    block.  The first candidate whose quadratic form clears the strictness
    margin wins; raises WitnessNotFoundError if none does.  ``hessian`` is
    the assembled Hessian at ``p``, if the caller already has it.
    """
    if cls is None:
        cls = classify(p, graph, family)
    if cls.kind not in ("flex_coincident", "degenerate_rigid", "unrecognized"):
        raise ValueError(f"witness requested for class {cls.kind!r}")
    if hessian is None:
        hessian = assemble_hessian(p, graph, family)

    n, d = graph.num_nodes, graph.dimension
    if cls.kind == "flex_coincident":
        rotation = np.eye(d)
    else:
        rotation = alignment_rotation(p, graph)
    block = _aligned_last_block(hessian, rotation)
    finite = np.isfinite(block)
    scale = max(1.0, float(np.abs(block[finite]).max())) if finite.any() else 1.0
    threshold = -margin_scale * scale

    candidates: list[tuple[str, np.ndarray]] = []
    ones_no_flex = np.ones(n)
    ones_no_flex[-1] = 0.0
    if cls.kind == "flex_coincident":
        candidates.append(("flex_sum", ones_no_flex))
    for i in range(n - 1):
        v = np.zeros(n)
        v[i] = 1.0
        candidates.append(("agent_indicator", v))
    if finite.all():
        w, vecs = np.linalg.eigh(block)
        candidates.append(("eigenvector", vecs[:, 0]))
    else:
        # unbounded curvature at a coincidence boundary; only candidates
        # touching finite entries are meaningful, and -inf forms certify
        w = np.array([-np.inf])

    for tag, v in candidates:
        nz = v != 0.0          # restrict to the candidate's support so that
        sub = block[np.ix_(nz, nz)]   # untouched non-finite entries cannot
        with np.errstate(invalid="ignore"):    # poison the quadratic form
            q = float(v[nz] @ sub @ v[nz])
        if q < threshold and not np.isnan(q):
            return Witness(vector=v, full_vector=np.outer(v, rotation[-1]).ravel(),
                           quadratic_form=q, tag=tag, rotation=rotation)
    raise WitnessNotFoundError(
        f"no negative direction found (class {cls.kind}/{cls.subform}, "
        f"min block eigenvalue {w[0]:.3e})")


# ---------------------------------------------------------------------------
# Sign-property verification (undesired-equilibrium taxonomies)


@dataclass(frozen=True)
class Claim:
    description: str
    value: float
    passed: bool


def _g_lookup(p, graph: FormationGraph, family: PotentialFamily):
    st = edge_states(p, graph, family)

    def g(i, j):
        return float(st.g[graph.edge_index(i, j)])

    return g


def _role_order_collinear(points: np.ndarray, labels: list[int]) -> list[int]:
    axis = _line_axis(points)
    s = points @ axis
    order = [labels[k] for k in np.argsort(s)]
    if order[0] > order[-1]:
        order = order[::-1]
    return order


def verify_sign_properties(p, graph: FormationGraph, family: PotentialFamily,
                           cls: EquilibriumClass | None = None,
                           zero_tol: float = 1e-9) -> list[Claim]:
    """Evaluate every sign claim attached to the identified undesired subform.

    Role labels (which agent plays i, j, k, l) are assigned from the geometry;
    for fully distinct collinear 3-D forms both line orientations are tried
    and the better-scoring one reported.
    """
    pos = as_positions(p, graph)
    if cls is None:
        cls = classify(p, graph, family)
    if cls.kind != "degenerate_rigid":
        raise ValueError("sign properties are defined for degenerate-rigid equilibria")
    g = _g_lookup(pos, graph, family)
    rigid = pos[list(graph.rigid_nodes)]
    labels = [i + 1 for i in graph.rigid_nodes]
    clusters = _coincidence_clusters(rigid, POS_TOL)
    sub = cls.subform

    def lt(name, val):
        return Claim(f"{name} < 0", val, val < 0)

    def gt(name, val):
        return Claim(f"{name} > 0", val, val > 0)

    def zero(name, val):
        return Claim(f"{name} = 0", val, abs(val) <= zero_tol)

    if graph.dimension == 2:
        if sub == "collinear_distinct":
            i, j, k = _role_order_collinear(rigid, labels)
            return [
                lt(f"g_{i}{j}", g(i, j)),
                lt(f"g_{j}{k}", g(j, k)),
                gt(f"g_{i}{k}", g(i, k)),
                lt(f"g_{i}{j}+g_{i}{k}", g(i, j) + g(i, k)),
                lt(f"g_{j}{k}+g_{i}{k}", g(j, k) + g(i, k)),
            ]
        if sub == "coincident_pair":
            pair = next(c for c in clusters if len(c) == 2)
            single = next(c for c in clusters if len(c) == 1)
            j, k = [labels[x] for x in pair]
            i = labels[single[0]]
            return [
                lt(f"g_{j}{k}", g(j, k)),
                zero(f"g_{i}{j}", g(i, j)),
                zero(f"g_{i}{k}", g(i, k)),
            ]
        if sub == "all_coincident":
            return [lt(f"g_{a}{b}", g(a, b))
                    for a, b in itertools.combinations(labels, 2)]
        raise ValueError(f"unknown 2-D subform {sub!r}")

    # 3-D forms
    if sub == "convex_quadrilateral":
        plane = _plane_coordinates(rigid)
        center = plane.mean(axis=0)
        ang = np.arctan2(plane[:, 1] - center[1], plane[:, 0] - center[0])
        i, j, k, l = [labels[x] for x in np.argsort(ang)]  # cyclic hull order
        claims = [
            lt(f"g_{i}{j}", g(i, j)), lt(f"g_{j}{k}", g(j, k)),
            lt(f"g_{k}{l}", g(k, l)), lt(f"g_{i}{l}", g(i, l)),
            gt(f"g_{i}{k}", g(i, k)), gt(f"g_{j}{l}", g(j, l)),
        ]
        for a in (i, j, k, l):
            others = [x for x in (i, j, k, l) if x != a]
            s = sum(g(a, b) for b in others)
            claims.append(lt(f"sum_g at {a}", s))
        return claims
    if sub == "interior_point":
        plane = _plane_coordinates(rigid)
        interior = None
        for idx in range(4):
            others = [plane[x] for x in range(4) if x != idx]
            if _in_triangle(plane[idx], others):
                interior = idx
        k = labels[interior]
        outer = [x for x in labels if x != k]
        claims = [lt(f"g_{min(a, k)}{max(a, k)}", g(a, k)) for a in outer]
        claims += [gt(f"g_{a}{b}", g(a, b))
                   for a, b in itertools.combinations(outer, 2)]
        return claims
    if sub == "all_coincident":
        return [lt(f"g_{a}{b}", g(a, b))
                for a, b in itertools.combinations(labels, 2)]
    if sub == "triple_coincident":
        triple = next(c for c in clusters if len(c) == 3)
        single = next(c for c in clusters if len(c) == 1)
        l = labels[single[0]]
        ijk = [labels[x] for x in triple]
        claims = [zero(f"g_{min(a, l)}{max(a, l)}", g(a, l)) for a in ijk]
        claims += [lt(f"g_{a}{b}", g(a, b))
                   for a, b in itertools.combinations(ijk, 2)]
        return claims
    if sub == "double_pair":
        pair1, pair2 = [c for c in clusters if len(c) == 2]
        i, j = [labels[x] for x in pair1]
        k, l = [labels[x] for x in pair2]
        return [
            zero(f"g_{i}{k}+g_{i}{l}", g(i, k) + g(i, l)),
            zero(f"g_{j}{k}+g_{j}{l}", g(j, k) + g(j, l)),
            zero(f"g_{i}{k}+g_{j}{k}", g(i, k) + g(j, k)),
            zero(f"g_{i}{l}+g_{j}{l}", g(i, l) + g(j, l)),
            lt(f"g_{i}{j}", g(i, j)),
            lt(f"g_{k}{l}", g(k, l)),
        ]
    if sub in ("pair_endpoint_collinear", "pair_interior_collinear"):
        pair = next(c for c in clusters if len(c) == 2)
        singles = [c[0] for c in clusters if len(c) == 1]
        i, j = [labels[x] for x in pair]
        centers = {labels[s]: rigid[s] for s in singles}
        axis = _line_axis(rigid)
        pair_s = float(rigid[pair[0]] @ axis)
        ordered = sorted(centers, key=lambda lab: abs(float(centers[lab] @ axis) - pair_s))
        if sub == "pair_endpoint_collinear":
            k, l = ordered                    # k nearer the coincident pair
            sum_l = g(i, l) + g(j, l) + g(k, l)
            opt1 = g(i, j) + g(i, k) + g(i, l)
            opt2 = g(i, j) + g(j, k) + g(j, l)
            return [
                lt(f"g_{i}{l}+g_{j}{l}+g_{k}{l}", sum_l),
                Claim(f"sum_g at {i} < 0 or sum_g at {j} < 0",
                      min(opt1, opt2), opt1 < 0 or opt2 < 0),
            ]
        k, l = ordered[0], ordered[1]
        # pair interior: both singles flank the pair
        sum_l = g(i, l) + g(j, l) + g(k, l)
        sum_k = g(i, k) + g(j, k) + g(k, l)
        return [
            lt(f"g_{i}{l}+g_{j}{l}+g_{k}{l}", sum_l),
            lt(f"g_{i}{k}+g_{j}{k}+g_{k}{l}", sum_k),
        ]
    if sub == "collinear_distinct":
        best = None
        for order in (_role_order_collinear(rigid, labels),
                      _role_order_collinear(rigid, labels)[::-1]):
            i, j, k, l = order
            sum_l = g(i, l) + g(j, l) + g(k, l)
            claims = [lt(f"g_{i}{l}+g_{j}{l}+g_{k}{l}", sum_l)]
            gij = g(i, j)
            if gij < -zero_tol:
                claims.append(lt(f"g_{i}{j}+g_{i}{k}+g_{i}{l}",
                                 gij + g(i, k) + g(i, l)))
            elif gij > zero_tol:
                claims.append(lt(f"g_{i}{k}+g_{j}{k}+g_{k}{l}",
                                 g(i, k) + g(j, k) + g(k, l)))
            else:
                claims.append(lt(f"g_{i}{j}+g_{j}{k}+g_{j}{l}",
                                 gij + g(j, k) + g(j, l)))
            score = sum(c.passed for c in claims)
            if best is None or score > best[0]:
                best = (score, claims)
        return best[1]
    raise ValueError(f"unknown 3-D subform {sub!r}")


# ---------------------------------------------------------------------------
# Tetrahedron angle inequalities


def verify_angle_inequalities(lengths) -> list[Claim]:
    """Vertex-angle inequalities for a realizable tetrahedron.

    ``lengths`` maps unordered vertex pairs from {1,2,3,4} to edge lengths.
    At every vertex the three face angles satisfy each pairwise sum exceeding
    the third and a total below 360 degrees.
    """
    dist = {}
    for (a, b), val in dict(lengths).items():
        dist[(min(a, b), max(a, b))] = float(val)
    if sorted(dist) != sorted(itertools.combinations(range(1, 5), 2)):
        raise ValueError("need all six edge lengths of a tetrahedron on nodes 1..4")
    if _cayley_menger(dist) <= 0:
        raise ValueError("edge lengths do not embed as a non-degenerate tetrahedron")

    def angle(apex, a, b):
        da, db = dist[(min(apex, a), max(apex, a))], dist[(min(apex, b), max(apex, b))]
        dab = dist[(min(a, b), max(a, b))]
        c = (da**2 + db**2 - dab**2) / (2 * da * db)
        return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))

    claims = []
    for apex in range(1, 5):
        others = [x for x in range(1, 5) if x != apex]
        th = [angle(apex, others[0], others[1]),
              angle(apex, others[0], others[2]),
              angle(apex, others[1], others[2])]
        total = sum(th)
        claims.append(Claim(f"angle sum at {apex} < 360", total, total < 360.0))
        for a in range(3):
            rest = sum(th) - th[a]
            claims.append(Claim(f"vertex {apex}: pair sum > third (drop {a})",
                                rest - th[a], rest > th[a]))
    return claims


def _cayley_menger(dist) -> float:
    m = np.ones((5, 5))
    m[0, 0] = 0.0
    for a in range(1, 5):
        for b in range(1, 5):
            if a == b:
                m[a, b] = 0.0
            else:
                m[a, b] = dist[(min(a, b), max(a, b))] ** 2
    return float(np.linalg.det(m))


# ---------------------------------------------------------------------------
# Stability report


def _json_float(x):
    """Strict-JSON representation: non-finite values become +/-"inf" strings."""
    x = float(x)
    if np.isfinite(x):
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
    block_spectrum: np.ndarray
    min_eigenvalue: float
    positive_semidefinite: bool
    witness: Witness | None
    claims: list
    certified: bool                    # witness machinery applies to this topology

    def to_json_dict(self) -> dict:
        return {
            "class": self.classification.kind,
            "subform": self.classification.subform,
            "diagnostics": {k: v for k, v in self.classification.diagnostics.items()},
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
            eq_tol: float = EQ_TOL, eig_tol: float | None = None) -> StabilityReport:
    """Full stability workup: classification, spectra, witness, sign claims.

    Witness construction and sign-property tables are only attempted for the
    two certified topologies; other graphs get spectrum and class only.
    Raises PotentialDomainError at finite positions where V is not finite
    (the coincidence boundary of a family that diverges there).
    """
    cls = classify(p, graph, family, eq_tol=eq_tol)
    h = assemble_hessian(p, graph, family)
    finite_h = bool(np.isfinite(h).all())
    # V diverges only where some g does, so only a non-finite H needs the check
    if (not finite_h and np.isfinite(as_positions(p, graph)).all()
            and not family_admits(p, graph, family)):
        raise PotentialDomainError(f"realization lies on the coincidence boundary, where "
                                   f"the {family.name} potential diverges (outside its domain)")
    certified = graph.certified_topology() is not None

    witness = None
    claims: list = []
    if certified and cls.kind in ("flex_coincident", "degenerate_rigid"):
        witness = instability_witness(p, graph, family, cls=cls, hessian=h)
        if cls.kind == "degenerate_rigid":
            claims = verify_sign_properties(p, graph, family, cls=cls)
    if witness is not None:
        rotation = witness.rotation
    elif cls.kind == "degenerate_rigid":
        rotation = alignment_rotation(p, graph)
    else:
        rotation = np.eye(graph.dimension)

    if finite_h:
        spectrum = np.linalg.eigvalsh(h)
        block_spectrum = np.linalg.eigvalsh(_aligned_last_block(h, rotation))
        min_eig, is_psd = _psd_verdict(spectrum, eig_tol)
    else:
        # non-finite coordinates: no finite spectrum exists
        spectrum = None
        block_spectrum = None
        min_eig, is_psd = -np.inf, False
    return StabilityReport(
        classification=cls, spectrum=spectrum, block_spectrum=block_spectrum,
        min_eigenvalue=min_eig, positive_semidefinite=is_psd,
        witness=witness, claims=claims, certified=certified,
    )
