"""Gradient control law, leader variants, and frame-independence."""

import warnings

import numpy as np
import pytest

from rigidflex.control import (
    LeaderSpec,
    balance_residuals,
    edge_states,
    gradient_control,
    leader_spec_from_json,
    potential_value,
)
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.potentials import QUADRATIC, RATIONAL
from references import leader_control, local_frame_control

RNG = np.random.default_rng(42)


def random_positions(graph, scale=5.0):
    return RNG.uniform(-scale, scale, (graph.num_nodes, graph.dimension))


def numeric_gradient(p, graph, family, h=1e-7):
    p = p.reshape(-1).astype(float)
    grad = np.zeros_like(p)
    for k in range(p.size):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        grad[k] = (potential_value(pp, graph, family)
                   - potential_value(pm, graph, family)) / (2 * h)
    return grad


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_control_is_negative_gradient(graph, family):
    for _ in range(5):
        p = random_positions(graph)
        u = gradient_control(p, graph, family)
        np.testing.assert_allclose(u, -numeric_gradient(p, graph, family),
                                   rtol=1e-5, atol=1e-6)


def test_control_matches_per_agent_sum():
    g = triangle_flex()
    p = random_positions(g)
    st = edge_states(p, g, QUADRATIC)
    u = gradient_control(p, g, QUADRATIC).reshape(4, 2)
    # agent 3 touches edges (1,3), (2,3), (3,4)
    expected = -(st.g[1] * -st.z[1] + st.g[2] * -st.z[2] + st.g[3] * st.z[3])
    np.testing.assert_allclose(u[2], expected, atol=1e-12)


def test_translation_invariance():
    g = tetrahedron_flex()
    p = random_positions(g)
    shift = np.array([1.7, -2.3, 0.4])
    u0 = gradient_control(p, g, QUADRATIC)
    u1 = gradient_control(p + shift, g, QUADRATIC)
    np.testing.assert_allclose(u0, u1, atol=1e-12)


def test_rotation_equivariance():
    g = triangle_flex()
    p = random_positions(g)
    th = 0.83
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    u0 = gradient_control(p, g, QUADRATIC).reshape(4, 2)
    u1 = gradient_control(p @ r.T, g, QUADRATIC).reshape(4, 2)
    np.testing.assert_allclose(u1, u0 @ r.T, atol=1e-12)


def test_local_frame_control_equivalence():
    """Each agent may express measurements in its own rotated frame."""
    g = triangle_flex()
    p = random_positions(g)
    st = edge_states(p, g, QUADRATIC)
    u = gradient_control(p, g, QUADRATIC).reshape(4, 2)
    for agent in range(1, 5):
        th = RNG.uniform(0, 2 * np.pi)
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        offsets, gvals = [], []
        for k, (i, j) in enumerate(g.edges):
            if i == agent:
                offsets.append(r @ st.z[k])
                gvals.append(st.g[k])
            elif j == agent:
                offsets.append(r @ -st.z[k])
                gvals.append(st.g[k])
        local = local_frame_control(offsets, gvals)
        np.testing.assert_allclose(local, r @ u[agent - 1], atol=1e-12)


def test_balance_residuals_zero_at_desired_shape():
    from rigidflex.oracle import desired_equilibrium
    g = triangle_flex()
    p = desired_equilibrium(g)
    assert balance_residuals(p, g, QUADRATIC).max() < 1e-12


def test_coincident_edge_contributes_no_force():
    # rational g diverges at coincidence but the zero edge vector wins
    g = triangle_flex()
    p = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    u = gradient_control(p, g, RATIONAL)
    assert np.all(np.isfinite(u))


def leader_input(spec, t, state):
    """The input that ``spec.add_input`` adds to a zero control at the
    (N+1, d) ``state``, as (N+1, d) rows."""
    flat = state.reshape(-1)
    return np.asarray(spec.add_input(t, flat, np.zeros_like(flat))).reshape(state.shape)


def test_target_leader_input_value():
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([10.0, 10.0]))
    state = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [0.0, 9.228]])
    np.testing.assert_allclose(leader_input(spec, 0.0, state)[-1], [50.0, 3.86])
    assert spec.potential(state.reshape(-1)) == pytest.approx(0.5 * 5.0 * (10.0**2 + 0.772**2))
    assert not spec.arrived(state.reshape(-1))
    state[-1] = [10.0, 10.0 - 9e-4]
    assert spec.arrived(state.reshape(-1).tolist())


def test_windowed_leader_switches_off():
    spec = leader_spec_from_json(
        {"mode": "windowed", "t0": 1.0, "tf": 2.0,
         "v": [[1.0, 0.5, -0.5], [1.5, 1.0, 0.0]]}, 2)
    state = np.zeros((4, 2))
    np.testing.assert_allclose(leader_input(spec, 1.2, state)[-1], [0.5, -0.5])
    np.testing.assert_allclose(leader_input(spec, 1.7, state)[-1], [1.0, 0.0])
    np.testing.assert_allclose(leader_input(spec, 2.5, state)[-1], [0.0, 0.0])
    assert spec.potential(state.reshape(-1)) == 0.0 and not spec.arrived(state.reshape(-1))


def test_leader_only_drives_flex_agent():
    g = triangle_flex()
    p = random_positions(g).reshape(-1)
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([10.0, 10.0]))
    u_plain = gradient_control(p, g, QUADRATIC)
    u_led = spec.add_input(0.0, p.tolist(), u_plain.tolist())
    np.testing.assert_array_equal(u_led[:-2], u_plain[:-2])
    np.testing.assert_array_equal(u_led, leader_control(p, 0.0, g, QUADRATIC, spec))
    assert not np.allclose(u_led[-2:], u_plain[-2:])


def test_leader_mode_validation():
    with pytest.raises(ValueError):
        LeaderSpec(mode="target", k_f=0.0, p_t=np.zeros(2))
    with pytest.raises(ValueError):
        LeaderSpec(mode="windowed", v=None, t0=0.0, tf=1.0)
    with pytest.raises(ValueError):
        LeaderSpec(mode="orbit")


# ---------------------------------------------------------------------------
# Edge-kernel equivalence against an independent scatter-add implementation


def reference_control(p, graph, family):
    """u_i = -sum_j g_ij z_ij by scatter-adding per-edge forces (np.add.at)."""
    pos = np.asarray(p, dtype=float).reshape(graph.num_nodes, graph.dimension)
    tails = np.array([i - 1 for i, _ in graph.edges])
    heads = np.array([j - 1 for _, j in graph.edges])
    z = pos[tails] - pos[heads]
    sq = np.einsum("ij,ij->i", z, z)
    dbar = np.array(graph.desired)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = family.bind(dbar)[1](sq - dbar**2)[:, None] * z
    f[sq == 0.0] = 0.0
    u = np.zeros_like(pos)
    np.subtract.at(u, tails, f)
    np.add.at(u, heads, f)
    return u.reshape(-1)


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex(desired=(4, 5, 6, 5, 4, 5, 3))])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_kernel_matches_scatter_add_reference(graph, family):
    rng = np.random.default_rng(2024)
    for _ in range(50):
        p = rng.uniform(-6.0, 6.0, (graph.num_nodes, graph.dimension))
        ref = reference_control(p, graph, family)
        u = gradient_control(p, graph, family)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
def test_rational_coincident_edge_gives_finite_control(graph):
    rng = np.random.default_rng(7)
    p = rng.uniform(-3.0, 3.0, (graph.num_nodes, graph.dimension))
    p[-1] = p[-2]                       # the flex edge has exactly zero length
    u = gradient_control(p, graph, RATIONAL)
    assert np.all(np.isfinite(u))
    ref = reference_control(p, graph, RATIONAL)
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    # the coincident flex agent feels no force at all
    assert np.all(u[-graph.dimension:] == 0.0)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_potential_value_matches_independent_sum(family):
    g = tetrahedron_flex(desired=(4, 5, 6, 5, 4, 5, 3))
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(-5.0, 5.0, (g.num_nodes, g.dimension))
        total = 0.0
        for (i, j), dbar in zip(g.edges, g.desired):
            e = float(np.sum((p[i - 1] - p[j - 1]) ** 2)) - dbar**2
            total += 0.5 * e**2 if family is QUADRATIC else e**2 / (e + dbar**2)
        assert potential_value(p, g, family) == pytest.approx(0.5 * total, rel=1e-12)


def test_integrate_is_bit_reproducible():
    from rigidflex.integrator import PerturbationEvent, integrate

    g = triangle_flex()
    p0 = np.random.default_rng(3).uniform(-5.0, 5.0, (4, 2))
    spec = LeaderSpec(mode="target", k_f=2.0, p_t=np.array([3.0, 3.0]))
    ev = PerturbationEvent(time=0.1234, agent=2, displacement=np.array([0.3, -0.2]))
    a, b = (integrate(p0, g, RATIONAL, t_end=0.3, leader=spec, events=[ev], record_every=7)
            for _ in range(2))
    for name in ("times", "states", "edge_errors", "grad_norms"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.events == b.events
    assert a.max_lyapunov_increase == b.max_lyapunov_increase


def test_non_finite_coordinate_reaches_every_edge():
    """z = B^T p: an infinite coordinate on one node makes that coordinate of
    every edge vector non-finite, and with it every e, g and control block;
    the other coordinates stay exact, and the point is no equilibrium."""
    from rigidflex.stability import analyze

    g = tetrahedron_flex()
    p = np.random.default_rng(5).uniform(-3.0, 3.0, (g.num_nodes, g.dimension))
    finite = edge_states(p, g, QUADRATIC)
    p[0, 0] = np.inf
    s = edge_states(p, g, QUADRATIC)
    assert not np.any(np.isfinite(s.z[:, 0]))
    np.testing.assert_array_equal(s.z[:, 1:], finite.z[:, 1:])
    assert not np.any(np.isfinite(s.e)) and not np.any(np.isfinite(s.g))
    assert np.isnan(potential_value(p, g, QUADRATIC))
    assert not np.any(np.isfinite(gradient_control(p, g, QUADRATIC)))
    assert not np.any(np.isfinite(balance_residuals(p, g, QUADRATIC)))
    with np.errstate(invalid="ignore"):      # the Hessian products see the inf
        assert analyze(p, g, QUADRATIC).classification.kind == "not_equilibrium"


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
@pytest.mark.parametrize("case", ["coincident_edge", "non_finite"])
def test_public_entry_points_raise_no_runtime_warning(graph, case):
    """The kernel sets no floating-point error state; every public entry point
    ignores divide/invalid once per call, so a coincident rational edge
    (g = -inf) or a non-finite coordinate surfaces no RuntimeWarning."""
    from rigidflex.integrator import IntegrationError, integrate
    from rigidflex.stability import assemble_hessian

    p = np.random.default_rng(7).uniform(-3.0, 3.0, (graph.num_nodes, graph.dimension))
    if case == "coincident_edge":
        p[-1] = p[-2]
    else:
        p[0, 0] = np.inf
    spec = LeaderSpec(mode="target", k_f=1.0, p_t=np.zeros(graph.dimension))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gradient_control(p, graph, RATIONAL)
        potential_value(p, graph, RATIONAL)
        edge_states(p, graph, RATIONAL)
        assemble_hessian(p, graph, RATIONAL)
        with pytest.raises(IntegrationError):
            integrate(p, graph, RATIONAL, t_end=0.01)
        with pytest.raises(IntegrationError):       # V plus the target-mode term
            integrate(p, graph, RATIONAL, t_end=0.01, leader=spec)
