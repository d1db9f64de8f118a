"""Closed-loop integration: events, equilibrium detection, monotonicity."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from rigidflex.control import LeaderSpec, balance_residuals, potential_value
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.integrator import (
    IntegrationError,
    PerturbationEvent,
    Trajectory,
    apply_perturbation,
    integrate,
    random_perturbation,
)
from rigidflex.oracle import build_catalog, desired_equilibrium
from rigidflex.potentials import QUADRATIC, RATIONAL, PotentialFamily
from references import leader_control


def test_desired_start_is_constant_trajectory():
    g = triangle_flex()
    p0 = desired_equilibrium(g)
    traj = integrate(p0, g, QUADRATIC, t_end=1.0, dt=1e-3)
    np.testing.assert_allclose(traj.states[-1], p0.reshape(-1), atol=1e-12)
    assert np.abs(traj.edge_errors).max() < 1e-12


def test_convergence_from_generic_start():
    g = triangle_flex()
    p0 = np.array([[5.0, 0.5], [-4.0, 1.0], [0.3, -3.0], [1.0, 4.0]])
    traj = integrate(p0, g, QUADRATIC, t_end=10.0, dt=1e-3)
    assert np.abs(traj.edge_errors[-1]).max() < 1e-8
    assert any(kind == "equilibrium_detected" for _, kind in traj.events)


def test_potential_decreases_along_flow():
    g = tetrahedron_flex()
    rng = np.random.default_rng(1)
    p0 = rng.uniform(-4, 4, (5, 3))
    traj = integrate(p0, g, QUADRATIC, t_end=5.0, dt=1e-3)
    v = [potential_value(s, g, QUADRATIC) for s in traj.states]
    assert all(b <= a + 1e-10 for a, b in zip(v, v[1:]))
    assert traj.max_lyapunov_increase <= 1e-10


def test_perturbation_applied_exactly_on_time():
    g = triangle_flex()
    p0 = desired_equilibrium(g)
    ev = PerturbationEvent(time=0.2345, agent=4, displacement=np.array([0.1, 0.0]))
    traj = integrate(p0, g, QUADRATIC, t_end=1.0, dt=1e-3, events=[ev])
    times = [t for t, kind in traj.events if kind == "perturbation_applied"]
    assert times == [0.2345]
    # the state jump is recorded at the event time
    idx = np.where(np.isclose(traj.times, 0.2345))[0]
    assert len(idx) >= 1


def test_reconvergence_after_perturbation():
    g = triangle_flex()
    p0 = desired_equilibrium(g)
    ev = random_perturbation(time=0.1, agent=2, dimension=2, magnitude=0.5, seed=9)
    traj = integrate(p0, g, QUADRATIC, t_end=10.0, dt=1e-3, events=[ev])
    assert np.abs(traj.edge_errors[-1]).max() < 1e-8


def test_random_perturbation_is_seeded_and_normalized():
    a = random_perturbation(1.0, 3, 3, 0.01, seed=5)
    b = random_perturbation(1.0, 3, 3, 0.01, seed=5)
    np.testing.assert_array_equal(a.displacement, b.displacement)
    assert np.linalg.norm(a.displacement) == pytest.approx(0.01)
    np.testing.assert_array_equal(random_perturbation(1.0, 3, 3, 0.01, seed=5.0).displacement,
                                  a.displacement)
    for seed in (5.5, -1, float("nan")):
        with pytest.raises(ValueError, match="random seeds are integers >= 0"):
            random_perturbation(1.0, 3, 3, 0.01, seed=seed)


def test_apply_perturbation_bounds_checked():
    g = triangle_flex()
    p = desired_equilibrium(g)
    with pytest.raises(ValueError):
        apply_perturbation(p, PerturbationEvent(1.0, 9, np.zeros(2)), g)
    with pytest.raises(ValueError):
        apply_perturbation(p, PerturbationEvent(1.0, 1, np.zeros(3)), g)


def test_event_outside_horizon_rejected():
    g = triangle_flex()
    ev = PerturbationEvent(time=5.0, agent=1, displacement=np.zeros(2))
    with pytest.raises(ValueError):
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=1.0, events=[ev])


@pytest.mark.parametrize("settings, match", [
    ({"t_end": 0.0}, "t_end"), ({"dt": 0.0}, "dt"), ({"dt": -1.0}, "dt"),
    ({"dt": float("nan")}, "dt"), ({"record_every": 0}, "record_every"),
    ({"dt": float("inf")}, "dt"),
])
def test_step_settings_rejected(settings, match):
    """A zero step would never advance (the fixed-step loop hangs), a
    negative one runs backwards, an infinite one takes all of t_end at once,
    and record_every 0 divides by zero."""
    g = triangle_flex()
    with pytest.raises(ValueError, match=match):
        integrate(desired_equilibrium(g), g, QUADRATIC, **{"t_end": 1.0, **settings})


@pytest.mark.parametrize("p_t", [[10.0], 10.0, [10.0, 10.0, 10.0], [[10.0, 10.0]]])
def test_target_point_of_the_wrong_shape_rejected(p_t):
    """A target point that is not d coordinates is refused before the first
    step, not broadcast against the flex agent's position."""
    g = triangle_flex()
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=p_t)
    with pytest.raises(ValueError, match="target p_t"):
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=1.0, leader=spec)


@pytest.mark.parametrize("v", [[1.0], 1.0, [1.0, 1.0, 1.0]])
def test_windowed_velocity_of_the_wrong_shape_rejected(v):
    """A windowed velocity that is not d components is refused before the
    first step: on the flat state, three components would move agent 3 too."""
    g = triangle_flex()
    spec = LeaderSpec(mode="windowed", v=lambda t: np.asarray(v), t0=0.0, tf=0.5)
    with pytest.raises(ValueError, match="windowed v"):
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=1.0, leader=spec)


def test_no_scipy_module_loads(tmp_path):
    """The package needs no scipy: in a fresh interpreter, importing the CLI,
    ``rigidflex catalog`` on both certified graphs with both families,
    analyze of a catalog entry, validate-potential and a short integrate
    load no module whose top-level name is scipy."""
    code = textwrap.dedent("""\
        import contextlib, io, sys
        import rigidflex.cli
        from rigidflex import desired_equilibrium, integrate, triangle_flex
        from rigidflex.potentials import QUADRATIC
        main = rigidflex.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            for graph in ("triangle_flex", "tetrahedron_flex"):
                with open(f"{graph}.json", "w") as fh:
                    fh.write(f'"{graph}"')
                for family in ("quadratic", "rational"):
                    out = f"{graph}-{family}"
                    assert main(["catalog", f"{graph}.json", "--family", family,
                                 "--out", out]) == 0
            with open("triangle_flex-rational/catalog.jsonl") as fh, \\
                    open("entry.json", "w") as entry:
                entry.write(fh.readline())
            assert main(["analyze", "entry.json", "triangle_flex.json",
                         "--family", "rational"]) == 0
            assert main(["validate-potential", "quadratic"]) == 0
        g = triangle_flex()
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.05)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_target_leader_run_reaches_target():
    g = triangle_flex()
    p0 = desired_equilibrium(g)
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([6.0, 6.0]))
    traj = integrate(p0, g, QUADRATIC, t_end=10.0, dt=1e-3, leader=spec)
    pos = traj.final_state.reshape(4, 2)
    assert np.linalg.norm(pos[-1] - spec.p_t) < 1e-3
    assert any(kind == "target_reached" for _, kind in traj.events)
    assert traj.max_lyapunov_increase <= 1e-10


def test_lyapunov_increase_leaves_out_the_steps_of_a_windowed_input():
    """While a windowed input acts V may rise, so the worst increase is taken
    over the steps that do not meet [t0, tf]: recomputed from every step's
    state it is the largest rise outside the window, and a step inside it
    rose by more than the CLI's 1e-10 slack."""
    g = triangle_flex()
    spec = LeaderSpec(mode="windowed", v=lambda t: np.array([1.0, 0.0]), t0=0.5, tf=1.0)
    traj = integrate(desired_equilibrium(g), g, QUADRATIC, t_end=2.0, dt=1e-3, leader=spec,
                     record_every=1)
    rise = np.diff([potential_value(s, g, QUADRATIC) for s in traj.states])
    meets = (traj.times[:-1] <= spec.tf) & (traj.times[1:] >= spec.t0)
    assert traj.max_lyapunov_increase == rise[~meets].max()
    assert rise[meets].max() > 1e-10


def test_trajectory_csv_round_trip(tmp_path):
    g = triangle_flex()
    traj = integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.05, dt=1e-3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:3] == ["t", "x1", "y1"]
    assert header[-1] == "gradnorm"
    assert "e_34" in header
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == len(header)


def test_trajectory_csv_bytes_are_those_of_repr_per_value(tmp_path):
    """to_csv writes each value as repr(float(x)): signed zeros, subnormals,
    huge values and non-finite values included, over several blocks of rows."""
    g = triangle_flex()
    rng = np.random.default_rng(5)
    k = 600
    values = rng.standard_normal((k, 1 + 8 + 4 + 1)) * 10.0 ** rng.integers(-310, 300, (k, 14))
    values[:4, 1] = [-0.0, np.inf, -np.inf, np.nan]
    traj = Trajectory(times=values[:, 0], states=values[:, 1:9], edge_errors=values[:, 9:13],
                      grad_norms=values[:, 13], graph=g)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + k
    assert lines[1:] == [",".join(repr(float(x)) for x in row) for row in values]


def test_nonpositive_horizon_rejected():
    g = triangle_flex()
    with pytest.raises(ValueError):
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.0)


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()], ids=["2d", "3d"])
def test_rational_start_on_coincidence_boundary_is_rejected(graph):
    """V is infinite when the flex agent sits on its neighbour; before the
    check, the first step threw the agents to |p| ~ 1e4 (2-D) or 1e6 (3-D)."""
    # on a grid of eighths, so the unit shifts below are exact
    rng = np.random.default_rng(7)
    p0 = np.round(8.0 * rng.uniform(-3.0, 3.0, (graph.num_nodes, graph.dimension))) / 8.0
    p0[-1] = p0[-2]
    with pytest.raises(IntegrationError, match="not finite") as info:
        integrate(p0, graph, RATIONAL, t_end=0.05)
    assert info.value.time == 0.0
    np.testing.assert_array_equal(info.value.last_state, p0)
    # so is a perturbation that puts the flex agent on its neighbour
    start = p0.copy()
    start[-1] += 1.0
    jump = PerturbationEvent(time=0.0, agent=graph.num_nodes,
                             displacement=-np.ones(graph.dimension))
    with pytest.raises(IntegrationError, match="not finite") as info:
        integrate(start, graph, RATIONAL, t_end=0.05, events=[jump])
    np.testing.assert_array_equal(info.value.last_state, p0)


def test_fixed_step_loop_runs_one_kernel_pass_per_state(monkeypatch):
    """Four float edge passes per accepted RK4 step (three stages plus the
    new state, reused as the next step's first stage), plus one at t = 0 and
    one after each perturbation; neither the public gradient_control nor the
    array kernel is called."""
    import rigidflex.control as control
    import rigidflex.integrator as integrator

    calls = {"kernel": 0}
    float_pass = integrator._float_pass

    def counted_float_pass(*args):
        run, potential = float_pass(*args)

        def counted_run(p):
            calls["kernel"] += 1
            return run(p)

        return counted_run, potential

    def forbidden(*args, **kwargs):
        raise AssertionError("public control function or array kernel called in the loop")

    monkeypatch.setattr(integrator, "_float_pass", counted_float_pass)
    monkeypatch.setattr(control, "_edge_kernel", forbidden)
    # the integrator imports no gradient_control; one added later is caught
    monkeypatch.setattr(integrator, "gradient_control", forbidden, raising=False)
    g = triangle_flex()
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([6.0, 6.0]))
    events = [PerturbationEvent(time=0.1234, agent=2, displacement=np.array([0.1, 0.0])),
              PerturbationEvent(time=0.25, agent=4, displacement=np.array([0.0, -0.2]))]
    traj = integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.4, dt=1e-3,
                     leader=spec, events=events, record_every=1)
    assert [k for _, k in traj.events].count("perturbation_applied") == 2
    # one record per step, plus one at t = 0 and one after each perturbation
    steps = len(traj.times) - 1 - len(events)
    assert steps == 124 + 127 + 150      # dt = 1e-3, clamped onto 0.1234 and 0.25
    assert calls["kernel"] == 4 * steps + 1 + len(events)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=lambda f: f.name)
def test_results_share_no_memory_with_buffers_of_later_calls(monkeypatch, family):
    """No array that integrate, edge_states, gradient_control or
    potential_value returns shares memory with an array that a later kernel
    pass or integrate call returns, and a second integrate call leaves the
    first trajectory unchanged.  Each record holds the errors and gradient norm of its own
    state, not of a later pass."""
    import rigidflex.control as control

    written = []
    kernel = control._edge_kernel

    def recording_kernel(*args):
        out = kernel(*args)
        written.extend(out)
        return out

    monkeypatch.setattr(control, "_edge_kernel", recording_kernel)
    g = tetrahedron_flex()
    rng = np.random.default_rng(11)
    starts = [desired_equilibrium(g) + 0.1 * rng.standard_normal((g.num_nodes, 3))
              for _ in range(2)]
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([6.0, 6.0, 6.0]))
    later = []

    def results(p0):
        traj = integrate(p0, g, family, t_end=0.02, dt=1e-3, leader=spec, record_every=3)
        later.extend((traj.times, traj.states, traj.edge_errors, traj.grad_norms))
        st = control.edge_states(p0, g, family)
        return [traj.times, traj.states, traj.edge_errors, traj.grad_norms, traj.final_state,
                st.z, st.e, st.g, st.rho, st.u, control.gradient_control(p0, g, family),
                np.asarray(potential_value(p0, g, family))]

    first = results(starts[0])
    kept = [a.copy() for a in first]
    for state, e, gnorm in zip(*first[1:4]):
        np.testing.assert_array_equal(e, control.edge_states(state, g, family).e, strict=True)
        assert gnorm == np.linalg.norm(control.gradient_control(state, g, family))
    mark, mark_later = len(written), len(later)
    results(starts[1])
    assert len(written) > mark
    for a in first:
        assert not any(np.shares_memory(a, b) for b in written[mark:] + later[mark_later:])
    for a, b in zip(first, kept):
        np.testing.assert_array_equal(a, b, strict=True)


def reference_rk4(p0, graph, family, t_end, dt, leader, eq_tol):
    """Fixed-step classical RK4 on the reference leader_control, with the event
    rules of integrate checked after every step: (states, event log).  The
    stages are combined as (h / 6) (1, 2, 2, 1) K, one product over the
    stage stack K, so the states match integrate's bit for bit."""
    d = graph.dimension
    p, t = np.asarray(p0, dtype=float).reshape(-1), 0.0
    states, log = [p], []
    eq_armed, target_armed = True, leader.mode == "target"

    def f(t, p):
        return leader_control(p, t, graph, family, leader)

    while t_end - t > 1e-12:
        h = min(dt, t_end - t)
        k1 = f(t, p)
        k2 = f(t + 0.5 * h, p + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, p + 0.5 * h * k2)
        k4 = f(t + h, p + h * k3)
        p, t = p + (h / 6.0) * np.dot((1.0, 2.0, 2.0, 1.0), np.stack([k1, k2, k3, k4])), t + h
        states.append(p)
        residual = float(balance_residuals(p, graph, family).max())
        if eq_armed and residual < eq_tol:
            log.append((t, "equilibrium_detected"))
            eq_armed = False
        elif not eq_armed and residual > 100.0 * eq_tol:
            eq_armed = True
        if target_armed and np.linalg.norm(p[-d:] - leader.p_t) < 1e-3:
            log.append((t, "target_reached"))
            target_armed = False
    return np.array(states), log


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()], ids=["2d", "3d"])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=lambda f: f.name)
@pytest.mark.parametrize("mode", ["none", "windowed", "target"])
def test_integrate_matches_reference_rk4_on_public_control(graph, family, mode):
    d = graph.dimension
    rng = np.random.default_rng(3)
    p0 = desired_equilibrium(graph) + 0.05 * rng.standard_normal((graph.num_nodes, d))
    leader = {
        "none": LeaderSpec(),
        "windowed": LeaderSpec(mode="windowed", v=lambda t: np.full(d, 0.5), t0=0.1, tf=0.2),
        "target": LeaderSpec(mode="target", k_f=200.0, p_t=p0[-1] + 0.01),
    }[mode]
    ref_states, ref_log = reference_rk4(p0, graph, family, 0.3, 1e-3, leader, eq_tol=0.1)
    traj = integrate(p0, graph, family, t_end=0.3, dt=1e-3, leader=leader,
                     record_every=1, eq_tol=0.1)
    assert len(ref_states) == 301
    np.testing.assert_array_equal(traj.states, ref_states, strict=True)
    assert traj.events == ref_log


def test_non_finite_leader_input_mid_run_raises_at_the_last_finite_state():
    """A windowed leader whose v(t) is NaN from t = 0.15 on: the step that
    reaches it raises with the time and state before that step."""
    g = triangle_flex()
    p0 = desired_equilibrium(g)
    spec = LeaderSpec(mode="windowed", t0=0.1, tf=0.2,
                      v=lambda t: np.full(2, np.nan if t >= 0.15 else 0.5))
    with pytest.raises(IntegrationError, match="not finite") as info:
        integrate(p0, g, QUADRATIC, t_end=0.3, dt=1e-3, leader=spec)
    t = info.value.time
    assert 0.15 - 1e-3 < t < 0.15
    last = info.value.last_state
    assert last.shape == (4, 2) and np.isfinite(last).all()
    held = integrate(p0, g, QUADRATIC, t_end=t, dt=1e-3, leader=spec).final_state
    np.testing.assert_allclose(last.reshape(-1), held, rtol=1e-12, atol=0)


def test_infinite_lyapunov_value_at_finite_positions_raises():
    """V = inf at finite positions stops the run like a non-finite state: a
    family whose energy is infinite past e = 5, with the flex agent pushed
    out by a windowed leader until its edge crosses that level."""
    def bind(dbar):
        phi, g, rho = QUADRATIC.bind(dbar)
        return (lambda e: np.where(e > 5.0, np.inf, phi(e)), g, rho)

    capped = PotentialFamily("capped", bind)
    g = triangle_flex()
    spec = LeaderSpec(mode="windowed", v=lambda t: np.array([50.0, 0.0]), t0=0.0, tf=1.0)
    with pytest.raises(IntegrationError, match="inf") as info:
        integrate(desired_equilibrium(g), g, capped, t_end=1.0, dt=1e-3, leader=spec)
    assert 0.0 < info.value.time < 1.0
    last = info.value.last_state
    assert np.isfinite(last).all()
    assert np.isfinite(potential_value(last, g, capped))
