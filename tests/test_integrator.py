"""Closed-loop integration: events, equilibrium detection, monotonicity."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from rigidflex.cli import _resolve_scenario
from rigidflex.control import LeaderSpec, _bound, leader_spec_from_json, potential_value
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.integrator import (
    IntegrationError,
    PerturbationEvent,
    Trajectory,
    integrate,
    random_perturbation,
)
from rigidflex.oracle import build_catalog, desired_equilibrium
from rigidflex.potentials import FAMILIES, QUADRATIC, RATIONAL, PotentialFamily, evaluators
from rigidflex.stability import analyze
from references import apply_perturbation, balance_residuals, gradient_norm, leader_control


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


def test_random_perturbation_does_not_depend_on_the_blas_kernel():
    """A random displacement is the draw scaled by magnitude over its norm
    summed left to right, bit for bit, for seeds 0-199 in 2-D and 3-D: no
    BLAS dot product, whose kernel may fuse or reorder the sum, takes part."""
    for d in (2, 3):
        for seed in range(200):
            v = np.random.default_rng(seed).standard_normal(d).tolist()
            sq = 0.0
            for x in v:
                sq += x * x
            scale = 0.01 / math.sqrt(sq)
            event = random_perturbation(1.0, 3, d, 0.01, seed=seed)
            assert [x.hex() for x in event.displacement] == [(x * scale).hex() for x in v], \
                (seed, d)


def test_perturbation_event_is_a_value():
    """An event holds its displacement as a tuple of floats, so equal events
    compare equal, hash alike and key a dict, whether the displacement came
    as a list, a tuple, an array or integers; a non-finite one is refused."""
    given = ([0.5, 0.0], (0.5, 0.0), np.array([0.5, 0.0]), [0.5, 0])
    events = [PerturbationEvent(time=0.1, agent=2, displacement=d) for d in given]
    assert len(set(events)) == 1 and events[0] == events[-1]
    assert {events[0]: "jump"}[events[2]] == "jump"
    assert events[0].displacement == (0.5, 0.0)
    assert all(type(x) is float for x in events[2].displacement)
    assert events[0] != PerturbationEvent(time=0.1, agent=2, displacement=[0.5, 1e-300])
    event = random_perturbation(1.0, 3, 3, 0.01, seed=5)
    assert event == random_perturbation(1.0, 3, 3, 0.01, seed=5)
    assert hash(event) == hash(random_perturbation(1.0, 3, 3, 0.01, seed=5.0))
    for bad in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            PerturbationEvent(time=0.1, agent=2, displacement=bad)


def _assert_rejected_before_first_step(monkeypatch, events):
    """Each event alone makes integrate raise ValueError before the first
    step: the step is never bound."""
    import rigidflex.integrator as integrator

    def no_step(*args, **kwargs):
        raise AssertionError("a step was bound before the events were checked")

    monkeypatch.setattr(integrator, "_bound", no_step)
    g = triangle_flex()
    for ev in events:
        with pytest.raises(ValueError):
            integrate(desired_equilibrium(g), g, QUADRATIC, t_end=1.0, events=[ev])


def test_apply_perturbation_bounds_checked(monkeypatch):
    """integrate applies the perturbations itself; an event on agent 9 of
    the 4-agent triangle, or with a 3-vector displacement in the plane, is
    rejected before the first step."""
    _assert_rejected_before_first_step(monkeypatch, [
        PerturbationEvent(time=0.5, agent=9, displacement=np.zeros(2)),
        PerturbationEvent(time=0.5, agent=1, displacement=np.zeros(3)),
    ])


def test_event_outside_horizon_rejected(monkeypatch):
    """An event after t_end is rejected before the first step."""
    _assert_rejected_before_first_step(monkeypatch, [
        PerturbationEvent(time=5.0, agent=1, displacement=np.zeros(2)),
    ])


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()], ids=["triangle", "tetra"])
@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=["quadratic", "rational"])
def test_perturbation_adds_the_displacement_bit_for_bit(graph, family):
    """At each event, at t = 0, between steps and at t_end, the record
    after the jump is the numpy sum of the record before it and the
    displacement, bit for bit, and the run raises no warning."""
    d = graph.dimension
    events = [random_perturbation(t, agent, d, 0.3, seed)
              for t, agent, seed in ((0.0, 2, 1), (0.1234, graph.num_nodes, 2), (0.25, 1, 3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(desired_equilibrium(graph), graph, family, t_end=0.25, events=events)
    assert [t for t, kind in traj.events if kind == "perturbation_applied"] == [0.0, 0.1234, 0.25]
    for ev in events:
        j = np.flatnonzero(traj.times == ev.time)[-1]
        assert traj.states[j].tobytes() == \
            apply_perturbation(traj.states[j - 1], ev, graph).tobytes()


@pytest.mark.parametrize("eq_tol", [float("nan"), -1.0, float("inf")])
def test_eq_tol_not_finite_and_non_negative_rejected(eq_tol):
    """integrate and analyze refuse an eq_tol that is NaN (no residual is
    below it), negative (none is) or infinite (every finite one is)."""
    g = triangle_flex()
    p = desired_equilibrium(g)
    with pytest.raises(ValueError, match="eq_tol"):
        integrate(p, g, QUADRATIC, t_end=1.0, eq_tol=eq_tol)
    with pytest.raises(ValueError, match="eq_tol"):
        analyze(p, g, QUADRATIC, eq_tol=eq_tol)


@pytest.mark.parametrize("settings, match", [
    ({"t_end": 0.0}, "t_end"), ({"dt": 0.0}, "dt"), ({"dt": -1.0}, "dt"),
    ({"dt": float("nan")}, "dt"), ({"record_every": 0}, "record_every"),
    ({"dt": float("inf")}, "dt"), ({"record_every": 2.5}, "record_every"),
    ({"record_every": 1.5}, "record_every"),
])
def test_step_settings_rejected(settings, match):
    """A zero step would never advance (the fixed-step loop hangs), a
    negative one runs backwards, an infinite one takes all of t_end at once,
    record_every 0 would never record, and a fractional record_every has
    no whole number of steps between records."""
    g = triangle_flex()
    with pytest.raises(ValueError, match=match):
        integrate(desired_equilibrium(g), g, QUADRATIC, **{"t_end": 1.0, **settings})


@pytest.mark.parametrize("p_t", [[10.0], 10.0, [10.0, 10.0, 10.0], [[10.0, 10.0]]])
def test_target_point_of_the_wrong_shape_rejected(p_t):
    """A target point that is not d coordinates is refused before the first
    step, not broadcast against the flex agent's position."""
    g = triangle_flex()
    with pytest.raises(ValueError, match="target p_t"):
        spec = LeaderSpec(mode="target", k_f=5.0, p_t=p_t)
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=1.0, leader=spec)


@pytest.mark.parametrize("v", [[1.0], 1.0, [1.0, 1.0, 1.0]])
def test_windowed_velocity_of_the_wrong_shape_rejected(v):
    """A windowed velocity sample that is not d components is refused before
    the first step: on the flat state, three components would move agent 3
    too."""
    g = triangle_flex()
    with pytest.raises(ValueError, match="windowed v"):
        spec = LeaderSpec(mode="windowed", times=[0.0], values=[v], t0=0.0, tf=0.5)
        integrate(desired_equilibrium(g), g, QUADRATIC, t_end=1.0, leader=spec)


def run_fresh(code, tmp_path):
    """Run ``code`` in a new interpreter on this package; return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    run_fresh(code, tmp_path)


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
    spec = LeaderSpec(mode="windowed", times=[0.0], values=[(1.0, 0.0)], t0=0.5, tf=1.0)
    traj = integrate(desired_equilibrium(g), g, QUADRATIC, t_end=2.0, dt=1e-3, leader=spec,
                     record_every=1)
    rise = np.diff([potential_value(s, g, QUADRATIC) for s in traj.states])
    meets = (traj.times[:-1] <= spec.tf) & (traj.times[1:] >= spec.t0)
    assert traj.max_lyapunov_increase == rise[~meets].max()
    assert rise[meets].max() > 1e-10


# no edge force: a step moves the flex agent by the leader input alone
INERT = PotentialFamily("inert", "0.0", "0.0", "0.0")


@pytest.mark.parametrize("t, rows", [
    (0.0, (0, 0, 0)),           # every stage before the first sample time
    (1.0, (0, 0, 0)),           # the first stage at the first sample time
    (1.5, (0, 0, 1)),           # the last stage at the second sample time
    (2.0, (1, 1, 1)),           # the first stage at the second sample time
    (2.25, (1, 1, 1)),          # every stage between two sample times
    (2.75, (1, 2, 2)),          # the middle stages at the last sample time
    (3.5, (2, 2, 2)),           # every stage after the last sample time
])
def test_windowed_step_looks_up_the_last_sample_at_or_before_each_stage(t, rows):
    """One RK4 step of h = 0.5 from t, with no edge force, moves the flex
    agent by (h/6) (((v(t) + 2 v(t + h/2)) + 2 v(t + h/2)) + v(t + h)),
    where v(s) is the table's row at the last sample time at or before s,
    the first row before the first time; no other agent moves."""
    g = triangle_flex()
    values = [(1.0, -1.0), (16.0, -16.0), (256.0, -256.0)]
    spec = LeaderSpec(mode="windowed", t0=0.0, tf=10.0, times=[1.0, 2.0, 3.0], values=values)
    advance, evaluate = compiled_step(g, INERT, spec)
    p = desired_equilibrium(g).ravel().tolist()
    k1, _, w = evaluate(p)[:3]
    state, _, _, _, time, _, _ = advance(p, k1, w, t, t + 0.5, 0.5, 1, -math.inf)
    a, b, c = (values[k] for k in rows)
    sixth = 0.5 / 6.0
    assert time == t + 0.5
    assert state == p[:-2] + [x + (((va + 2.0 * vb) + 2.0 * vb) + vc) * sixth
                              for x, va, vb, vc in zip(p[-2:], a, b, c)]


# SHA-256 of the CSVs of windowed runs, taken before the leader table was
# looked up inline: window [0.1, 0.4], which starts before the first sample
# time 0.15 and covers the samples at 0.15, 0.25, 0.3 and 0.35
WINDOWED_CSV_SHA256 = {
    ("triangle", "quadratic"): "e50b9396696edaaaca9f922d22330b029aa823fb507f50d3c7d0a33f34f6daf4",
    ("triangle", "rational"): "5147f62d6fb7a56c5d9a75098ec0a74a7006d698512db75f4b7bc408a76d17ca",
    ("tetrahedron", "quadratic"):
        "236f4f1fe4392328da0384fb768a3b933153aeaedc0fa014ae1513c47fc6ad42",
    ("tetrahedron", "rational"):
        "3aa45cbfd40fbc9f52afe75222cab1f87f48229489118aafa28af53e1104101a",
}


@pytest.mark.parametrize("graph_name, family_name", sorted(WINDOWED_CSV_SHA256))
def test_windowed_run_csv_bytes_are_pinned(tmp_path, graph_name, family_name):
    """A windowed run from the leader scenario's start, recording every
    step to t = 0.5, writes the pinned CSV bytes."""
    graph, p0 = {"triangle": (triangle_flex(), _resolve_scenario("triangle_flex_leader")),
                 "tetrahedron": (tetrahedron_flex(), _resolve_scenario("tetra_flex_leader"))
                 }[graph_name]
    rows = [[0.15, 2.0, -1.0, 0.5], [0.25, -3.0, 0.25, 1.5], [0.3, 0.75, 4.0, -2.0],
            [0.35, 1.0, 1.0, 1.0], [0.5, -8.0, 8.0, -8.0]]
    spec = leader_spec_from_json({"mode": "windowed", "t0": 0.1, "tf": 0.4,
                                  "v": [row[:1 + graph.dimension] for row in rows]})
    traj = integrate(p0["initial"], graph, FAMILIES[family_name], t_end=0.5, leader=spec,
                     record_every=1)
    traj.to_csv(tmp_path / "run.csv")
    digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
    assert digest == WINDOWED_CSV_SHA256[graph_name, family_name]


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


def compiled_step(graph, family, leader):
    """(advance, evaluate) as ``integrate`` binds them (``control._bound``):
    ``advance`` for the leader's mode, and ``evaluate`` with the target
    potential in target mode and without it in the others."""
    target = "target" if leader.mode == "target" else "none"
    return (_bound(graph, family, leader, key=(leader.mode, "advance")),
            _bound(graph, family, leader, key=(target, "evaluate")))


def counting_step(calls, monkeypatch):
    """A stand-in for ``integrator._bound`` that counts in ``calls`` the
    calls of ``advance`` and of ``evaluate``, and of each edge's phi and g:
    phi runs once per edge at each accepted state, g once per edge in each
    edge pass.  The function it binds is the family's with phi and g
    wrapped in counters, which the inlined formulas reach through
    ``builtins``."""
    import builtins

    import rigidflex.integrator as integrator

    bound = integrator._bound

    def counted(key, f):
        def call(*a):
            calls[key] += 1
            return f(*a)

        return call

    def stand_in(graph, family, leader, key):
        phi, g, _ = evaluators(family)
        monkeypatch.setattr(builtins, "counted_phi", counted("phi", phi), raising=False)
        monkeypatch.setattr(builtins, "counted_g", counted("g", g), raising=False)
        family = PotentialFamily(f"counted {family.name}", "counted_phi(e, d2)",
                                 "counted_g(e, d2)", family.rho)
        return counted(key[-1], bound(graph, family, leader, key=key))

    return stand_in


def counting_pass(monkeypatch, calls, key="pass"):
    """Count in ``calls[key]`` the runs of the bound edge pass behind
    edge_states, gradient_control and potential_value, and behind the
    analysis and the catalog, which bind it by name (``_bound`` of a graph
    and a family alone); any other binding, such as a layout's balance,
    passes uncounted."""
    import rigidflex.control as control
    import rigidflex.oracle as oracle
    import rigidflex.stability as stability

    bound = control._bound

    def stand_in(graph, family, *args, **kwargs):
        evaluate = bound(graph, family, *args, **kwargs)
        if args or kwargs:
            return evaluate

        def counted(p):
            calls[key] += 1
            return evaluate(p)

        return counted

    for module in (control, oracle, stability):
        monkeypatch.setattr(module, "_bound", stand_in)


def test_fixed_step_loop_runs_one_kernel_pass_per_state(monkeypatch):
    """One ``advance`` call per record after t = 0 and after each
    perturbation, one ``evaluate`` at t = 0 and after each perturbation,
    one V per accepted state and four edge passes per accepted step (the
    pass at each state is the next step's first stage); neither the public
    gradient_control nor the analysis entry points' bound pass is called."""
    import rigidflex.control as control
    import rigidflex.integrator as integrator

    calls = {"advance": 0, "evaluate": 0, "phi": 0, "g": 0}

    def forbidden(*args, **kwargs):
        raise AssertionError("public control function or analysis pass called in the loop")

    monkeypatch.setattr(integrator, "_bound", counting_step(calls, monkeypatch))
    monkeypatch.setattr(control, "_bound", forbidden)
    # the integrator imports no gradient_control; one added later is caught
    monkeypatch.setattr(integrator, "gradient_control", forbidden, raising=False)
    g = triangle_flex()
    m = len(g.edges)
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([6.0, 6.0]))
    events = [PerturbationEvent(time=0.1234, agent=2, displacement=np.array([0.1, 0.0])),
              PerturbationEvent(time=0.25, agent=4, displacement=np.array([0.0, -0.2]))]
    traj = integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.4, dt=1e-3,
                     leader=spec, events=events, record_every=7)
    assert [k for _, k in traj.events].count("perturbation_applied") == 2
    # dt = 1e-3, clamped onto 0.1234 and 0.25: 124, 127 and 150 steps, and a
    # record every 7 steps and at each segment's end
    segments = (124, 127, 150)
    steps, records = sum(segments), sum(math.ceil(k / 7) for k in segments)
    assert len(traj.times) == 1 + len(events) + records
    starts = 1 + len(events)
    assert calls == {"advance": records, "evaluate": starts,
                     "phi": m * (steps + starts), "g": m * (4 * steps + starts)}


def test_import_compiles_no_step(tmp_path):
    """Importing the package and its CLI compiles no RK4 step."""
    run_fresh(textwrap.dedent("""
        import linecache
        import rigidflex, rigidflex.cli, rigidflex.control as control
        assert control._generated.cache_info().currsize == 0
        assert not [name for name in linecache.cache if name.startswith("<rigidflex")]
    """), tmp_path)


def test_analysis_half_compiles_no_advance(tmp_path):
    """In a fresh interpreter, the catalogs of both certified graphs with
    both families and analyze at every entry compile one ``evaluate`` per
    graph shape and family and no ``advance``."""
    out = run_fresh(textwrap.dedent("""
        import linecache
        from rigidflex import FAMILIES, analyze, build_catalog, tetrahedron_flex, triangle_flex
        for g in (triangle_flex(), tetrahedron_flex()):
            for family in FAMILIES.values():
                for entry in build_catalog(g, family)[0]:
                    analyze(entry.positions, g, family)
        sources = ["".join(lines) for name, (_, _, lines, _) in linecache.cache.items()
                   if name.startswith("<rigidflex")]
        print(sum("def evaluate(" in s for s in sources), sum("def advance(" in s for s in sources))
    """), tmp_path)
    assert out.split() == ["4", "0"]


def test_every_generated_function_comes_from_the_one_factory(tmp_path):
    """In a fresh interpreter, the catalogs of both certified graphs with
    both families, analyze at every entry and one integrate per leader mode
    compile each function once, through ``control._generated``: its cache
    holds as many functions as ``linecache`` holds generated texts."""
    out = run_fresh(textwrap.dedent("""
        import linecache
        import rigidflex.control as control
        from rigidflex import (FAMILIES, LeaderSpec, analyze, build_catalog, desired_equilibrium,
                               integrate, tetrahedron_flex, triangle_flex)
        for g in (triangle_flex(), tetrahedron_flex()):
            for family in FAMILIES.values():
                for entry in build_catalog(g, family)[0]:
                    analyze(entry.positions, g, family)
        g = triangle_flex()
        for leader in (LeaderSpec(), LeaderSpec(mode="target", k_f=5.0, p_t=(6.0, 6.0)),
                       LeaderSpec(mode="windowed", t0=0.0, tf=0.005, times=(0.0,),
                                  values=((1.0, 0.0),))):
            integrate(desired_equilibrium(g), g, FAMILIES["quadratic"], t_end=0.01, leader=leader)
        print(sum(name.startswith("<rigidflex") for name in linecache.cache),
              control._generated.cache_info().currsize)
    """), tmp_path)
    texts, functions = map(int, out.split())
    assert texts == functions > 0


def test_windowed_run_shares_evaluate_with_a_plain_run(monkeypatch):
    """``evaluate`` is compiled once per graph shape and whether a target
    potential is added: a run with no leader and a windowed run of one shape
    generate two ``advance`` functions and one ``evaluate``."""
    import rigidflex.control as control

    names = []
    generated = control._generated

    def recorded(source, *key):
        misses = generated.cache_info().misses
        function = generated(source, *key)
        if generated.cache_info().misses > misses:
            names.append(function.__name__)
        return function

    monkeypatch.setattr(control, "_generated", recorded)
    generated.cache_clear()
    control._bound.cache_clear()
    g = triangle_flex()
    integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.01)
    window = LeaderSpec(mode="windowed", times=[0.0], values=[(1.0, 0.0)], t0=0.0, tf=0.005)
    integrate(desired_equilibrium(g), g, QUADRATIC, t_end=0.01, leader=window)
    assert names.count("evaluate") == 1
    assert names.count("advance") == 2


@pytest.mark.parametrize("mode", ["none", "target", "windowed"])
def test_second_integrate_of_a_shape_compiles_nothing(mode):
    """After one run of a graph shape and leader mode with each family,
    runs at other lengths, with either family and other leader constants
    generate and compile no code."""
    import rigidflex.control as control

    def leader(k):
        return {"none": LeaderSpec(),
                "target": LeaderSpec(mode="target", k_f=5.0 + k, p_t=[k, -k]),
                "windowed": LeaderSpec(mode="windowed", times=[0.0], values=[(k, k)],
                                       t0=0.01 * k, tf=0.02 * k)}[mode]

    g = triangle_flex()
    control._bound.cache_clear()        # so the first runs reach _generated
    for family in (QUADRATIC, RATIONAL):
        integrate(desired_equilibrium(g), g, family, t_end=0.01, leader=leader(1.0))
    misses = control._generated.cache_info().misses
    for k, (lengths, family) in enumerate([((3.0, 4.0, 5.0, 2.0), RATIONAL),
                                           ((1.5, 2.5, 2.0, 7.0), QUADRATIC)], 2):
        g = triangle_flex(lengths)
        integrate(desired_equilibrium(g), g, family, t_end=0.01, leader=leader(k))
    assert control._generated.cache_info().misses == misses


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()],
                         ids=["triangle", "tetrahedron"])
def test_leaders_equal_but_for_a_signed_zero_share_one_binding(graph):
    """Leader specs whose target point or sample rows differ only in the
    sign of a zero compare and hash equal, so ``_bound`` binds the
    second's step to the constants of the first.  That changes no byte: on a cold
    cache, each spec gives the same trajectory whether it runs first or
    second, with the flex agent started on the zero coordinate, so that
    p_t - p_flex starts as a signed zero.  A further run of an equal spec
    binds nothing."""
    import rigidflex.control as control

    d = graph.dimension
    p0 = desired_equilibrium(graph)
    p0[-1, 0] = 0.0
    rest = (1.0,) * (d - 1)
    pairs = [(LeaderSpec(mode="target", k_f=5.0, p_t=(0.0, *rest)),
              LeaderSpec(mode="target", k_f=5.0, p_t=(-0.0, *rest))),
             (LeaderSpec(mode="windowed", times=(0.0, 0.005), values=((0.0, *rest), (-0.0,) * d),
                         t0=0.0, tf=0.01),
              LeaderSpec(mode="windowed", times=(0.0, 0.005), values=((-0.0, *rest), (0.0,) * d),
                         t0=0.0, tf=0.01))]

    def run(spec):
        traj = integrate(p0, graph, RATIONAL, t_end=0.02, leader=spec, record_every=1)
        return b"".join(a.tobytes() for a in (traj.times, traj.states, traj.edge_errors,
                                              traj.grad_norms)) \
            + repr((traj.events, traj.max_lyapunov_increase)).encode()

    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
        runs = []
        for order in ((a, b), (b, a)):
            control._bound.cache_clear()
            runs.append([run(spec) for spec in order])
            assert control._bound.cache_info().misses == 2      # advance and evaluate
        assert runs[0] == runs[1][::-1]
    misses = control._bound.cache_info().misses
    assert run(pairs[1][0]) == runs[0][0]
    assert control._bound.cache_info().misses == misses


DIGEST = textwrap.dedent("""
    import hashlib
    import numpy as np
    from rigidflex.control import LeaderSpec
    from rigidflex.graph import triangle_flex
    from rigidflex.integrator import integrate
    from rigidflex.oracle import desired_equilibrium
    from rigidflex.potentials import RATIONAL

    def digest(lengths):
        g = triangle_flex(lengths)
        rng = np.random.default_rng(5)
        p0 = desired_equilibrium(g) + 0.05 * rng.standard_normal((4, 2))
        spec = LeaderSpec(mode="target", k_f=5.0, p_t=[3.0, 3.0])
        traj = integrate(p0, g, RATIONAL, t_end=0.05, leader=spec, record_every=1)
        h = hashlib.sha256()
        for a in (traj.times, traj.states, traj.edge_errors, traj.grad_norms):
            h.update(a.tobytes())
        h.update(repr((traj.events, traj.max_lyapunov_increase)).encode())
        return h.hexdigest()
""")


def test_graphs_of_one_shape_in_one_process_match_fresh_processes(tmp_path):
    """Two triangles at different lengths, run one after the other in this
    process, give the bytes that each gives in a new interpreter: the
    shared code keeps no constants of an earlier call."""
    lengths = [(4.0, 4.0, 4.0, 4.0), (3.0, 4.0, 5.0, 2.5)]
    namespace = {}
    exec(DIGEST, namespace)
    here = [namespace["digest"](x) for x in lengths]
    fresh = [run_fresh(DIGEST + f"print(digest({x!r}))", tmp_path).strip() for x in lengths]
    assert here == fresh and here[0] != here[1]


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL], ids=lambda f: f.name)
def test_results_share_no_memory_with_buffers_of_later_calls(family):
    """No array that integrate, edge_states, gradient_control or
    potential_value returns shares memory with an array that a later call
    of them returns, and a second integrate call leaves the first
    trajectory unchanged.  Each record holds the errors and gradient norm
    of its own state, not of a later pass."""
    import rigidflex.control as control

    g = tetrahedron_flex()
    rng = np.random.default_rng(11)
    starts = [desired_equilibrium(g) + 0.1 * rng.standard_normal((g.num_nodes, 3))
              for _ in range(2)]
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([6.0, 6.0, 6.0]))

    def results(p0):
        traj = integrate(p0, g, family, t_end=0.02, dt=1e-3, leader=spec, record_every=3)
        st = control.edge_states(p0, g, family)
        return [traj.times, traj.states, traj.edge_errors, traj.grad_norms, traj.final_state,
                st.z, st.e, st.g, st.rho, st.u, control.gradient_control(p0, g, family),
                np.asarray(potential_value(p0, g, family))]

    first = results(starts[0])
    kept = [a.copy() for a in first]
    for state, e, gnorm in zip(*first[1:4]):
        np.testing.assert_array_equal(e, control.edge_states(state, g, family).e, strict=True)
        assert gnorm == gradient_norm(control.gradient_control(state, g, family))
    second = results(starts[1])
    for a in first:
        assert not any(np.shares_memory(a, b) for b in second)
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
        "windowed": LeaderSpec(mode="windowed", times=[0.0], values=[(0.5,) * d],
                               t0=0.1, tf=0.2),
        "target": LeaderSpec(mode="target", k_f=200.0, p_t=p0[-1] + 0.01),
    }[mode]
    ref_states, ref_log = reference_rk4(p0, graph, family, 0.3, 1e-3, leader, eq_tol=0.1)
    traj = integrate(p0, graph, family, t_end=0.3, dt=1e-3, leader=leader,
                     record_every=1, eq_tol=0.1)
    assert len(ref_states) == 301
    np.testing.assert_array_equal(traj.states, ref_states, strict=True)
    assert traj.events == ref_log


def test_overflowing_leader_input_mid_run_raises_at_the_last_finite_state():
    """A windowed leader whose velocity is 1e308 from t = 0.15 on: the first
    step with a stage there overflows V, and it raises with the time and
    state before that step."""
    g = triangle_flex()
    p0 = desired_equilibrium(g)
    spec = LeaderSpec(mode="windowed", t0=0.1, tf=0.2, times=[0.0, 0.15],
                      values=[(0.5, 0.5), (1e308, 1e308)])
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
    capped = PotentialFamily("capped", "float('inf') if e > 5.0 else 0.5 * (e * e)",
                             QUADRATIC.g, QUADRATIC.rho)
    g = triangle_flex()
    spec = LeaderSpec(mode="windowed", times=[0.0], values=[(50.0, 0.0)], t0=0.0, tf=1.0)
    with pytest.raises(IntegrationError, match="inf") as info:
        integrate(desired_equilibrium(g), g, capped, t_end=1.0, dt=1e-3, leader=spec)
    assert 0.0 < info.value.time < 1.0
    last = info.value.last_state
    assert np.isfinite(last).all()
    assert np.isfinite(potential_value(last, g, capped))
