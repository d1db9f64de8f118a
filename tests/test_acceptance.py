"""Acceptance gate: the ten headline criteria, one test per criterion.

Each test prints a single ``[PASS] criterion N`` line once its assertions
hold, so the suite output doubles as an acceptance report.  Expensive
trajectories are computed once in module-scoped fixtures and shared between
the scenario-reproduction criteria and the Lyapunov-monotonicity criterion.

Two additional strict-xfail tests record that the nominal off-separatrix
flex heights (9.228 / 6.485) do NOT reach the degenerate saddles; the
bundled scenarios use the numerically determined separatrix heights, from
which the saddle visits occur at the expected times.
"""

import itertools
import time

import numpy as np
import pytest

from rigidflex.cli import _resolve_scenario
from rigidflex.control import edge_states, gradient_control, leader_spec_from_json
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.integrator import integrate, random_perturbation
from rigidflex.oracle import build_catalog, construct_equilibrium, desired_equilibrium
from rigidflex.potentials import QUADRATIC, RATIONAL
from rigidflex.stability import analyze, assemble_hessian
from references import TAILORED, local_frame_control, verify_angle_inequalities

EPS_EIG_REL = 1e-8
WITNESS_MARGIN = 1e-10

TRIANGLE = triangle_flex()
TETRA = tetrahedron_flex()

# Nominal (off-separatrix) initial conditions for the saddle scenarios.
P0_2D_NOMINAL = np.array([[12.0, 2.0], [-12.0, 2.0], [0.0, -2.0], [0.0, 9.228]])
P0_3D_NOMINAL = np.array([
    [11.547005383792516, 0.0, 0.0],
    [-5.773502691896258, 10.0, 0.0],
    [-5.773502691896258, -10.0, 0.0],
    [0.0, 0.0, -3.0],
    [0.0, 0.0, 6.485],
])


def thinness(points):
    x = points - points.mean(axis=0)
    return float(np.linalg.svd(x, compute_uv=False)[-1])


def first_degenerate_hit(traj, graph, deadline, extra=None):
    """Earliest recorded time <= deadline with degenerate rigid agents,
    vanishing gradient, and (optionally) an extra per-state predicate."""
    n_rigid = graph.num_nodes - 1
    for i, t in enumerate(traj.times):
        if t > deadline:
            break
        pos = traj.states[i].reshape(graph.num_nodes, graph.dimension)
        if thinness(pos[:n_rigid]) >= 1e-4:
            continue
        if traj.grad_norms[i] >= 1e-6:
            continue
        if extra is not None and not extra(pos):
            continue
        return t
    return None


@pytest.fixture(scope="module")
def run_2d():
    doc = _resolve_scenario("triangle_flex_2d")
    events = [random_perturbation(3.1, 4, 2, 0.01, seed=7)]
    start = time.perf_counter()
    traj = integrate(np.array(doc["initial"]), TRIANGLE, QUADRATIC, 20.0,
                     dt=1e-3, events=events, eq_tol=1e-6)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def run_3d():
    doc = _resolve_scenario("tetra_flex_3d")
    events = [random_perturbation(1.5, 5, 3, 0.01, seed=11)]
    start = time.perf_counter()
    traj = integrate(np.array(doc["initial"]), TETRA, QUADRATIC, 20.0,
                     dt=1e-3, events=events, eq_tol=1e-6)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def leader_runs():
    out = {}
    for name, graph in [("triangle_flex_leader", TRIANGLE),
                        ("tetra_flex_leader", TETRA)]:
        doc = _resolve_scenario(name)
        spec = leader_spec_from_json(doc["leader"])
        out[name] = (integrate(np.array(doc["initial"]), graph, QUADRATIC, 20.0,
                               dt=1e-3, leader=spec), spec)
    return out


def test_criterion_01_planar_reproduction(run_2d):
    """Collinear saddle visit, then reconvergence after the perturbation."""
    traj, elapsed = run_2d

    def flex_edge_at_length(pos):
        return abs(np.linalg.norm(pos[2] - pos[3]) - 4.0) < 1e-4

    hit = first_degenerate_hit(traj, TRIANGLE, 0.5, extra=flex_edge_at_length)
    assert hit is not None, "no collinear equilibrium visit by t = 0.5 s"
    assert any(k == "perturbation_applied" for _, k in traj.events)
    assert np.abs(traj.edge_errors[-1]).max() < 1e-6
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: collinear at t={hit:.2f}s, final max|e|="
          f"{np.abs(traj.edge_errors[-1]).max():.1e}, runtime {elapsed:.2f}s")


def test_criterion_02_spatial_reproduction(run_3d):
    """Coplanar saddle visit, then reconvergence after the perturbation."""
    traj, elapsed = run_3d
    hit = first_degenerate_hit(traj, TETRA, 1.2)
    assert hit is not None, "no coplanar equilibrium visit by t = 1.2 s"
    assert np.abs(traj.edge_errors[-1]).max() < 1e-6
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 2: coplanar at t={hit:.2f}s, final max|e|="
          f"{np.abs(traj.edge_errors[-1]).max():.1e}, runtime {elapsed:.2f}s")


def test_criterion_03_leader_scenarios(leader_runs):
    """Flex agent reaches the target point while the shape converges."""
    for name, (traj, spec) in leader_runs.items():
        pos = traj.final_state.reshape(-1, len(spec.p_t))
        gap = np.linalg.norm(pos[-1] - spec.p_t)
        assert gap < 1e-3, name
        assert np.abs(traj.edge_errors[-1]).max() < 1e-6, name
    print("\n[PASS] criterion 3: both leader runs reach the target with "
          "all distance errors < 1e-6")


def test_criterion_04_hessian_correctness():
    """Analytic Hessian vs central differences at 100 random realizations."""
    rng = np.random.default_rng(2024)
    worst_rel, worst_sum = 0.0, 0.0
    for graph in (TRIANGLE, TETRA):
        d = graph.dimension
        for _ in range(100):
            p = rng.uniform(-5, 5, (graph.num_nodes, d)).reshape(-1)
            h = assemble_hessian(p, graph, QUADRATIC)
            scale = max(1.0, float(np.abs(p).max()))
            eps = 1e-5 * scale
            fd = np.empty_like(h)
            for k in range(p.size):
                pp, pm = p.copy(), p.copy()
                pp[k] += eps
                pm[k] -= eps
                fd[:, k] = (-gradient_control(pp, graph, QUADRATIC)
                            + gradient_control(pm, graph, QUADRATIC)) / (2 * eps)
            worst_rel = max(worst_rel,
                            float(np.abs(h - fd).max() / max(1.0, np.abs(h).max())))
            total = sum(h[i * d:(i + 1) * d, :] for i in range(graph.num_nodes))
            worst_sum = max(worst_sum, float(np.abs(total).max()))
    assert worst_rel < 1e-6
    assert worst_sum < 1e-12
    print(f"\n[PASS] criterion 4: FD relative error {worst_rel:.1e}, "
          f"block-sum residual {worst_sum:.1e} over 200 realizations")


def test_criterion_05_spectral_structure_at_desired_set():
    """(N+1)d - rank R zero eigenvalues, R the rigidity matrix, remainder
    strictly positive.  H = 2 R^T diag(rho(0)) R at the desired shape; the
    count equals (N+1)d - m only for a minimally rigid graph."""
    for graph, expected_zero in [(TRIANGLE, 4), (TETRA, 8)]:
        p = desired_equilibrium(graph)
        w = np.linalg.eigvalsh(assemble_hessian(p, graph, QUADRATIC))
        tol = EPS_EIG_REL * max(abs(w[0]), abs(w[-1]))
        n_zero = int(np.sum(np.abs(w) < tol))
        assert n_zero == expected_zero, (graph.dimension, w)
        assert np.all(w[np.abs(w) >= tol] > 0)
    print("\n[PASS] criterion 5: 4 of 8 (2-D) and 8 of 15 (3-D) zero "
          "eigenvalues, remainder strictly positive")


def _certify_catalog(graph, family):
    entries, failures = build_catalog(graph, family)
    certified = []
    for entry in entries:
        h = assemble_hessian(entry.positions, graph, family)
        w = analyze(entry.positions, graph, family).witness
        if np.all(np.isfinite(h)):
            norm = float(np.linalg.norm(h, 2))
            assert np.linalg.eigvalsh(h)[0] < 0, entry.subform
        else:
            norm = float(np.abs(h[np.isfinite(h)]).max())
        assert w.quadratic_form < -WITNESS_MARGIN * norm, entry.subform
        certified.append(entry.subform or entry.kind)
    return certified, failures


def test_criterion_06_instability_certificates_2d():
    certified, failures = _certify_catalog(TRIANGLE, QUADRATIC)
    assert failures == {}
    assert set(certified) == {"flex_coincident", "collinear_distinct",
                              "coincident_pair", "all_coincident"}
    print(f"\n[PASS] criterion 6: witnesses certified for {sorted(certified)}")


def test_criterion_07_instability_certificates_3d():
    """Every constructible spatial subform carries a witness.

    The quadratic family covers six subforms at equal distances; the rational
    family adds the fully distinct collinear form; a tailored unequal distance
    set provides the remaining pair-at-endpoint form.
    """
    certified_q, failures_q = _certify_catalog(TETRA, QUADRATIC)
    certified_r, _ = _certify_catalog(TETRA, RATIONAL)

    entry = construct_equilibrium(TAILORED, QUADRATIC, "pair_endpoint_collinear")
    w = analyze(entry.positions, TAILORED, QUADRATIC).witness
    assert w.quadratic_form < 0

    covered = set(certified_q) | set(certified_r) | {entry.subform}
    assert covered >= {"flex_coincident", "convex_quadrilateral",
                       "interior_point", "all_coincident", "triple_coincident",
                       "double_pair", "pair_endpoint_collinear",
                       "pair_interior_collinear", "collinear_distinct"}
    # unconstructible combinations are reported, never silently dropped
    assert set(failures_q) == {"pair_endpoint_collinear", "collinear_distinct"}
    print(f"\n[PASS] criterion 7: all 8 spatial subforms plus the "
          f"flex-coincident class certified across families")


def test_criterion_08_sign_tables_and_angle_inequalities():
    total = 0
    for graph, family in [(TRIANGLE, QUADRATIC), (TETRA, QUADRATIC),
                          (TRIANGLE, RATIONAL), (TETRA, RATIONAL)]:
        entries, _ = build_catalog(graph, family)
        for entry in entries:
            if entry.kind != "degenerate_rigid":
                continue
            claims = analyze(entry.positions, graph, family).claims
            assert all(c.passed for c in claims), (entry.subform, family.name)
            total += len(claims)

    # the 10,000 seeded tetrahedra in one stacked call; a set that does not
    # embed raises ValueError for the whole stack
    pts = np.random.default_rng(99).uniform(-5, 5, (10_000, 4, 3))
    lengths = {(i + 1, j + 1): np.linalg.norm(pts[:, i] - pts[:, j], axis=-1)
               for i, j in itertools.combinations(range(4), 2)}
    claims = verify_angle_inequalities(lengths)
    assert all(c.passed.shape == (10_000,) and c.passed.all() for c in claims)
    print(f"\n[PASS] criterion 8: {total} sign claims across both catalogs, "
          f"angle inequalities on {len(pts)} random tetrahedra")


def test_criterion_09_symmetry_suite():
    rng = np.random.default_rng(5)
    for graph in (TRIANGLE, TETRA):
        d = graph.dimension
        for _ in range(20):
            p = rng.uniform(-5, 5, (graph.num_nodes, d))
            u = gradient_control(p, graph, QUADRATIC).reshape(-1, d)
            # translation invariance
            shift = rng.uniform(-3, 3, d)
            u_t = gradient_control(p + shift, graph, QUADRATIC).reshape(-1, d)
            assert np.abs(u - u_t).max() < 1e-12
            # rotation equivariance
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            u_r = gradient_control(p @ q.T, graph, QUADRATIC).reshape(-1, d)
            assert np.abs(u_r - u @ q.T).max() < 1e-12
            # local-frame equivalence: per-agent rotated measurements
            st = edge_states(p, graph, QUADRATIC)
            for agent in range(1, graph.num_nodes + 1):
                r, _ = np.linalg.qr(rng.standard_normal((d, d)))
                offsets = [r @ (st.z[k] if i == agent else -st.z[k])
                           for k, (i, j) in enumerate(graph.edges)
                           if agent in (i, j)]
                gvals = [st.g[k] for k, (i, j) in enumerate(graph.edges)
                         if agent in (i, j)]
                local = local_frame_control(offsets, gvals)
                assert np.abs(local - r @ u[agent - 1]).max() < 1e-12
    print("\n[PASS] criterion 9: translation/rotation/local-frame symmetries "
          "hold to 1e-12 over randomized trials")


def test_criterion_10_lyapunov_monotonicity(run_2d, run_3d, leader_runs):
    """Per-step decrease of the shape potential (and the composite target
    quantity in leader mode) along every accepted integration step."""
    worst = max(run_2d[0].max_lyapunov_increase,
                run_3d[0].max_lyapunov_increase,
                *(traj.max_lyapunov_increase
                  for traj, _ in leader_runs.values()))
    assert worst <= 1e-10
    print(f"\n[PASS] criterion 10: worst per-step Lyapunov increase "
          f"{worst:.1e} <= 1e-10")


# ---------------------------------------------------------------------------
# Off-separatrix starting heights, recorded as strict expected failures


@pytest.mark.xfail(strict=True, reason=(
    "starting flex height 9.228 converges directly to the desired shape; "
    "the collinear saddle is reached from the separatrix height "
    "9.283327951874789 used by the bundled scenario"))
def test_nominal_2d_height_reaches_collinear_saddle():
    traj = integrate(P0_2D_NOMINAL, TRIANGLE, QUADRATIC, 0.6, dt=1e-3)
    assert first_degenerate_hit(traj, TRIANGLE, 0.5) is not None


@pytest.mark.xfail(strict=True, reason=(
    "starting flex height 6.485 converges directly to the desired shape; "
    "the coplanar saddle is reached from the separatrix height "
    "6.549358366575817 used by the bundled scenario"))
def test_nominal_3d_height_reaches_coplanar_saddle():
    traj = integrate(P0_3D_NOMINAL, TETRA, QUADRATIC, 1.3, dt=1e-3)
    assert first_degenerate_hit(traj, TETRA, 1.2) is not None
