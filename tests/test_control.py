"""Gradient control law, leader variants, and frame-independence."""

import contextlib
import json
import math
import textwrap
import warnings

import numpy as np
import pytest

from rigidflex.control import (
    LeaderSpec,
    edge_states,
    gradient_control,
    leader_spec_from_json,
    potential_value,
)
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.potentials import QUADRATIC, RATIONAL, PotentialFamily
from references import (
    _residual,
    array_pass,
    balance_residual,
    balance_residuals,
    bind,
    float_pass,
    leader_control,
    leader_input,
    leader_potential,
    leader_velocity,
    local_frame_control,
    rk4_advance,
)
from test_integrator import compiled_step, run_fresh

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


def input_rows(spec, t, state):
    """The input that the reference ``leader_input`` adds to a zero control
    at the (N+1, d) ``state``, as (N+1, d) rows."""
    flat = state.reshape(-1)
    return np.asarray(leader_input(spec, t, flat, np.zeros_like(flat))).reshape(state.shape)


def test_target_leader_input_value():
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([10.0, 10.0]))
    state = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [0.0, 9.228]])
    np.testing.assert_allclose(input_rows(spec, 0.0, state)[-1], [50.0, 3.86])
    assert leader_potential(spec, state.reshape(-1)) == \
        pytest.approx(0.5 * 5.0 * (10.0**2 + 0.772**2))
    assert not spec.arrived(state.reshape(-1))
    state[-1] = [10.0, 10.0 - 9e-4]
    assert spec.arrived(state.reshape(-1).tolist())


def test_windowed_leader_switches_off():
    spec = leader_spec_from_json(
        {"mode": "windowed", "t0": 1.0, "tf": 2.0,
         "v": [[1.0, 0.5, -0.5], [1.5, 1.0, 0.0]]})
    state = np.zeros((4, 2))
    np.testing.assert_allclose(input_rows(spec, 1.2, state)[-1], [0.5, -0.5])
    np.testing.assert_allclose(input_rows(spec, 1.7, state)[-1], [1.0, 0.0])
    np.testing.assert_allclose(input_rows(spec, 2.5, state)[-1], [0.0, 0.0])
    # v(t) is the last sample at or before t, and the first before the first
    assert [leader_velocity(spec, t) for t in (0.2, 1.0, 1.4999, 1.5, 9.0)] == \
        [(0.5, -0.5)] * 3 + [(1.0, 0.0)] * 2
    assert leader_potential(spec, state.reshape(-1)) == 0.0 and not spec.arrived(state.reshape(-1))


def test_leader_only_drives_flex_agent():
    g = triangle_flex()
    p = random_positions(g).reshape(-1)
    spec = LeaderSpec(mode="target", k_f=5.0, p_t=np.array([10.0, 10.0]))
    u_plain = gradient_control(p, g, QUADRATIC)
    u_led = leader_input(spec, 0.0, p.tolist(), u_plain.tolist())
    np.testing.assert_array_equal(u_led[:-2], u_plain[:-2])
    np.testing.assert_array_equal(u_led, leader_control(p, 0.0, g, QUADRATIC, spec))
    assert not np.allclose(u_led[-2:], u_plain[-2:])


def test_leader_mode_validation():
    with pytest.raises(ValueError):
        LeaderSpec(mode="target", k_f=0.0, p_t=np.zeros(2))
    with pytest.raises(ValueError):
        LeaderSpec(mode="windowed", t0=0.0, tf=1.0)
    with pytest.raises(ValueError):
        LeaderSpec(mode="orbit")
    # a leader document that is not an object, or a windowed table with no velocity column
    for doc in (0, False, [], "target", {"mode": "windowed", "t0": 0.0, "tf": 1.0, "v": [[]]},
                {"mode": "windowed", "t0": 0.0, "tf": 1.0, "v": [[0.0]]}):
        with pytest.raises(ValueError):
            leader_spec_from_json(doc)


LEADER_DOCS = [
    {"mode": "target", "k_f": 5.0, "p_t": [10.0, 10.0]},
    {"mode": "windowed", "t0": 0.1, "tf": 0.4, "v": [[0.15, 2.0, -1.0], [0.25, -3.0, 0.25]]},
    None,
]


def plain_values(x):
    """Whether ``x`` is a str, a float or a tuple of such values, nested."""
    return type(x) in (str, float) or (type(x) is tuple and all(map(plain_values, x)))


def test_leader_spec_is_a_value():
    """Equal leader documents give equal specs that hash alike and key a
    dict, and every field is a str, a float or a tuple of floats.  A
    target point given as a list, a tuple, an array or integers is one
    spec; null, {} and {"mode": "none"} are the plain law."""
    specs = [leader_spec_from_json(doc) for doc in LEADER_DOCS]
    again = [leader_spec_from_json(json.loads(json.dumps(doc))) for doc in LEADER_DOCS]
    assert specs == again and list(map(hash, specs)) == list(map(hash, again))
    assert {spec: k for k, spec in enumerate(specs)}[again[1]] == 1 and len(set(specs)) == 3
    assert all(plain_values(value) for spec in specs for value in vars(spec).values())
    points = ([10.0, 10.0], (10.0, 10.0), np.array([10.0, 10.0]), [10, 10])
    assert {LeaderSpec(mode="target", k_f=5, p_t=point) for point in points} == {specs[0]}
    assert [leader_spec_from_json(doc) for doc in (None, {}, {"mode": "none"})] == \
        [LeaderSpec()] * 3 == [specs[2]] * 3


@pytest.mark.parametrize("mode, stray, names", [
    ("target", dict(t0=3.0, times=(0.0,), values=((1.0,),)), "t0, times, values"),
    ("target", dict(tf=math.nan), "tf"),
    ("windowed", dict(k_f=5.0), "k_f"),
    ("windowed", dict(p_t=(1.0, 2.0)), "p_t"),
    ("none", dict(k_f=5.0, p_t=(1.0, 2.0), t0=1.0), "t0, k_f, p_t"),
], ids=["target_with_window", "target_with_nan_tf", "windowed_with_k_f", "windowed_with_p_t",
        "none_with_target"])
def test_leader_spec_takes_only_its_modes_fields(mode, stray, names):
    """A field of another mode that differs from its default is refused by
    name, so one leader has one spec: a target spec that also carries a
    window would drive the same run as the plain one yet compare unequal.
    A field left at its default is no stray."""
    own = {"none": {}, "target": dict(k_f=5.0, p_t=(1.0, 2.0)),
           "windowed": dict(t0=0.0, tf=1.0, times=(0.0,), values=((1.0, 0.0),))}[mode]
    with pytest.raises(ValueError, match=f"leader mode '{mode}' takes no {names}$"):
        LeaderSpec(mode=mode, **own, **stray)
    defaults = {name: LeaderSpec.__dataclass_fields__[name].default for name in stray}
    assert LeaderSpec(mode=mode, **own, **defaults) == LeaderSpec(mode=mode, **own)


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0], [(1.0, 0.0), (math.nan, 0.0)]),
    ([0.0, math.inf], [(1.0, 0.0), (0.0, 1.0)]),
    ([0.0, 1.0], [(1.0, 0.0), (1.0,)]),
    ([0.0, 0.0], [(1.0, 0.0), (0.0, 1.0)]),
    ([1.0, 0.5], [(1.0, 0.0), (0.0, 1.0)]),
    ([], []),
    ([0.0], [()]),
    ([0.0, 1.0], [(1.0, 0.0)]),
], ids=["nan_sample", "inf_time", "ragged", "repeated_time", "decreasing_time", "empty",
        "no_component", "unpaired_time"])
def test_windowed_table_refused(times, values):
    """A non-finite sample, ragged rows, times not strictly increasing, an
    empty table, rows with no component and a time without a row are
    refused when the spec is made."""
    with pytest.raises(ValueError, match="windowed mode needs"):
        LeaderSpec(mode="windowed", t0=0.0, tf=1.0, times=times, values=values)


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
        f = bind(family, dbar)[1](sq - dbar**2)[:, None] * z
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


def test_non_finite_coordinate_reaches_only_its_nodes_edges():
    """An infinite coordinate on one node makes that coordinate of its own
    edges' vectors non-finite, and with them their e and g and the control
    of every node they join; the other edges and the nodes they alone join
    stay exact.  V is infinite, and the point is no equilibrium."""
    from rigidflex.stability import analyze

    g = tetrahedron_flex()
    p = np.random.default_rng(5).uniform(-3.0, 3.0, (g.num_nodes, g.dimension))
    finite = edge_states(p, g, QUADRATIC)
    p[0, 0] = np.inf
    s = edge_states(p, g, QUADRATIC)
    own = (g.edge_tails == 0) | (g.edge_heads == 0)
    assert own.tolist() == [True] * 3 + [False] * 4
    assert not np.any(np.isfinite(s.z[own, 0]))
    np.testing.assert_array_equal(s.z[:, 1:], finite.z[:, 1:])
    np.testing.assert_array_equal(s.z[~own], finite.z[~own])
    assert not np.any(np.isfinite(s.e[own])) and not np.any(np.isfinite(s.g[own]))
    for name in ("e", "g", "rho"):
        np.testing.assert_array_equal(getattr(s, name)[~own], getattr(finite, name)[~own])
    assert potential_value(p, g, QUADRATIC) == np.inf
    joined = np.isin(np.arange(g.num_nodes), [0, 1, 2, 3])
    u = gradient_control(p, g, QUADRATIC).reshape(g.num_nodes, g.dimension)
    assert not np.any(np.isfinite(u[joined]))
    np.testing.assert_array_equal(u[~joined], finite.u[~joined])
    assert np.isfinite(balance_residuals(p, g, QUADRATIC)).tolist() == (~joined).tolist()
    with np.errstate(invalid="ignore"):      # the Hessian products see the inf
        assert analyze(p, g, QUADRATIC).classification.kind == "not_equilibrium"


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
@pytest.mark.parametrize("case", ["coincident_edge", "non_finite"])
def test_public_entry_points_raise_no_runtime_warning(graph, case):
    """The edge pass runs on Python floats, and its one numpy fallback
    ignores its own floating-point errors, so a coincident rational edge
    (g = -inf) or a non-finite coordinate surfaces no RuntimeWarning from
    a public entry point."""
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


def test_second_analysis_call_binds_and_compiles_nothing(monkeypatch):
    """edge_states, gradient_control and potential_value bind the compiled
    pass once per graph and family: a second call on the same pair, or on
    an equal graph, binds (``_constants``), generates and compiles
    nothing (``_generated``)."""
    import rigidflex.control as control

    g = tetrahedron_flex(desired=(4, 5, 6, 5, 4, 5, 3))
    p = random_positions(g)
    want = [edge_states(p, g, RATIONAL).u, gradient_control(p, g, RATIONAL),
            potential_value(p, g, RATIONAL)]
    misses = control._generated.cache_info().misses

    def forbidden(*args):
        raise AssertionError("edge pass bound again")

    monkeypatch.setattr(control, "_constants", forbidden)
    for graph in (g, tetrahedron_flex(desired=(4, 5, 6, 5, 4, 5, 3))):
        np.testing.assert_array_equal(edge_states(p, graph, RATIONAL).u, want[0], strict=True)
        np.testing.assert_array_equal(gradient_control(p, graph, RATIONAL), want[1], strict=True)
        assert potential_value(p, graph, RATIONAL) == want[2]
    assert control._generated.cache_info().misses == misses


def test_families_of_one_name_keep_their_own_generated_source():
    """Two families of one name but other formulas each keep their own
    ``evaluate`` text in ``linecache``, under a file name of its own: a
    traceback or a profiler shows the code that ran, not the other
    family's."""
    import linecache

    import rigidflex.control as control

    graph, p = triangle_flex(), random_positions(triangle_flex())
    other = PotentialFamily("quadratic", "0.5 * (e * e)", "e / (e - e)", "e ** 0")
    for family in (QUADRATIC, other):
        edge_states(p, graph, family)
    names = [control._bound(graph, family).__code__.co_filename for family in (QUADRATIC, other)]
    assert names[0] != names[1]
    for name, family in zip(names, (QUADRATIC, other)):
        assert "".join(linecache.getlines(name)) \
            == control._step_source(*graph._shape, family, "none", "evaluate")
    assert "g0 = e0 / (e0 - e0)" in "".join(linecache.getlines(names[1]))


def test_linecache_holds_the_texts_of_live_generated_functions_only(tmp_path):
    """``_generated`` keeps the 256 functions used last, and ``linecache``
    the text of each function that can still run and of no other: in a
    fresh interpreter, the triangle's ``evaluate`` bound by ``_bound`` and
    then ``aligned`` compiled for the 462 two-dimensional five-agent shapes
    with four or five of the ten pairs as edges evict ``evaluate``'s entry,
    but its text stays while the bound function lives.  Once it is dropped,
    ``linecache`` holds as many ``<rigidflex`` texts as the factory, and
    clearing the factory leaves none."""
    out = run_fresh(textwrap.dedent("""
        import itertools, linecache
        import rigidflex.control as control
        from rigidflex.graph import triangle_flex
        from rigidflex.potentials import QUADRATIC
        evaluate = control._bound(triangle_flex(), QUADRATIC)
        pairs = list(itertools.combinations(range(5), 2))
        for edges in itertools.chain(*(itertools.combinations(pairs, k) for k in (4, 5))):
            control._generated(control._aligned_source, *zip(*edges), 5, 2)
        def texts():
            return sum(name.startswith("<rigidflex") for name in linecache.cache)
        name = evaluate.__code__.co_filename
        print(control._generated.cache_info().misses, control._generated.cache_info().currsize,
              texts(), "".join(linecache.getlines(name)).startswith("def evaluate("))
        del evaluate
        control._bound.cache_clear()
        print(texts(), name in linecache.cache)
        control._generated.cache_clear()
        print(texts())
    """), tmp_path)
    assert out.split() == ["463", "256", "257", "True", "256", "False", "0"]


@pytest.mark.parametrize("graph", [triangle_flex(), tetrahedron_flex()])
def test_numpy_fallback_guards_itself(graph):
    """At a rational coincidence point the pass falls back to numpy, which
    ignores its own divide error: edge_states gives g = -inf and rho = inf
    on the coincident edge and V = inf, potential_value V = inf and
    gradient_control a finite u (the coincident edge exerts no force), and
    integrate started there raises IntegrationError, with no RuntimeWarning
    and no FloatingPointError, both outside and inside an enclosing
    ``np.errstate`` that raises on every error."""
    from rigidflex.integrator import IntegrationError, integrate

    p = np.random.default_rng(3).uniform(-3.0, 3.0, (graph.num_nodes, graph.dimension))
    p[-1] = p[-2]
    for outer in (contextlib.nullcontext(), np.errstate(all="raise")):
        with warnings.catch_warnings(), outer:
            warnings.simplefilter("error")
            st = edge_states(p, graph, RATIONAL)
            assert (st.g[-1], st.rho[-1], st.v) == (-np.inf, np.inf, np.inf)
            assert potential_value(p, graph, RATIONAL) == np.inf
            assert np.isfinite(gradient_control(p, graph, RATIONAL)).all()
            with pytest.raises(IntegrationError, match="not finite"):
                integrate(p, graph, RATIONAL, t_end=0.01)


# SHA-256 of the generated source per (graph, family, leader mode, function)
STEP_SOURCE_SHA256 = {
    "4-quadratic-none-advance":
        "907ce1815334384fe6703492ba91ff96fb2bc93cf590e2a82899ec7c365e5717",
    "4-quadratic-none-evaluate":
        "38f80dfe6eb923e62c4674484f6a306561d4d2f1f6bde747e1ddec7c7ba33429",
    "4-quadratic-target-advance":
        "407cdffdcaa6a2916b983d126d0bcbd524bff496592cde7d7941461ca5ab9062",
    "4-quadratic-target-evaluate":
        "16ea0393a30b77bc0ea27430fce23bfafc8f5421ef2fb917db02ec01cea29eb2",
    "4-quadratic-windowed-advance":
        "a1d898b2a2c140d8db2855c5658e8d3266f612a17e7273d25e047365b8a10ace",
    "4-quadratic-windowed-evaluate":
        "2f62a94bcf57535f811973d606b7ced0acbdf2e7c141152da4b90f9c7181918d",
    "4-rational-none-advance":
        "007b552bae2084d138a851382ef4d225721ddeab7beb79599618fa9a86da486a",
    "4-rational-none-evaluate":
        "1525d3cabf80924c939874e2c79ba94e5e9b3a5dbe9ce43d110d230cf7f8fe50",
    "4-rational-target-advance":
        "77fb51adf070eed702695a681f41141bab9bf7bb6013c35e55da25f08c78ed1a",
    "4-rational-target-evaluate":
        "58fba2b87658355977bdf87be74680ab4fdcad7be7bcfbbde96024348900077d",
    "4-rational-windowed-advance":
        "ebf3bbd27fbe6de495bc7daa5b098f66d1bc3b6078a7ff7f155dc980af3e117b",
    "4-rational-windowed-evaluate":
        "66b86b2c8b2908563546049879dfc797d2f5ba188cc1824716b75bb1f28f97de",
    "5-quadratic-none-advance":
        "31b14e29f0321f3c07555a88e4a75363c6f97c50221956da8d577fb17df0900c",
    "5-quadratic-none-evaluate":
        "ef4087920cc1b957562acce53996aa10725a03e2a6adb09dfe364b7ed1a338a9",
    "5-quadratic-target-advance":
        "b0bec7b6685fcbd98465cc53152b407299c0e1b4450063940862e136b6236eed",
    "5-quadratic-target-evaluate":
        "3eb5eacb95bb80d85b300d6b9d5f94db01fb13db5a216705e55e37e6483f0f2c",
    "5-quadratic-windowed-advance":
        "03015bc04c00e1cbd308b772636f88da651e63f7443c37f1bf73c9fef306a6ee",
    "5-quadratic-windowed-evaluate":
        "f95a0c1a4a152df2ce7c0735f236ec1658527b9ca0b52b6d750ff99fe11d052e",
    "5-rational-none-advance":
        "54729bfc539e96b73c1e52693e24ab5921178ec72eb711016406708f1bd4285c",
    "5-rational-none-evaluate":
        "143053b18e65a414ea390b4b7624d873ac6b96f201790072a9d9e8f4dd4530d7",
    "5-rational-target-advance":
        "3abd00a98b60b898dff40e606c83d29f3b4670b15a1063f0b137bc6f06be99ea",
    "5-rational-target-evaluate":
        "7130785d396780936610578320f37ec78aae0e23428bc44703ed81d94da0cb56",
    "5-rational-windowed-advance":
        "8f6d4e853d07899a6fd582d8d9b78543b2d309314b6e04a4794d44ca0bb6673f",
    "5-rational-windowed-evaluate":
        "7d952e73eb4324a633add34e21285a171ae1f8ffdf53d46944bde8740d253576",
}


def test_generated_step_source_is_pinned():
    """The source ``_step_source`` writes for the triangle and the
    tetrahedron, with both families, each leader mode and both functions,
    is pinned by its SHA-256: a change to the generator that changes any
    of these functions shows here, before it shows in a trajectory."""
    import hashlib

    import rigidflex.control as control

    found = {}
    for graph in (triangle_flex(), tetrahedron_flex()):
        for family in (QUADRATIC, RATIONAL):
            for mode in ("none", "target", "windowed"):
                for name in ("advance", "evaluate"):
                    source = control._step_source(*graph._shape, family, mode, name)
                    found[f"{graph.num_nodes}-{family.name}-{mode}-{name}"] = \
                        hashlib.sha256(source.encode()).hexdigest()
    assert found == STEP_SOURCE_SHA256


def test_generated_residual_equals_numpy_bit_for_bit():
    """The balance residual that ``evaluate`` and ``advance`` return
    (``_residual_lines``) is numpy's per-agent norm and max bit for bit, and
    the interpreted ``_residual`` it replaced, on seeded controls of every
    node count 1..6 in 1, 2 and 3 dimensions with NaN, +-inf and -0.0
    entries (and a NaN of the other sign for the interpreter: both keep the
    last NaN); and the residual of a pass is the interpreter's on the pass's
    own control at the shapes that Tier-1 compiles, NaN and infinite
    coordinates and coincident pairs among them."""
    import rigidflex.control as control

    rng = np.random.default_rng(43)
    for n in range(1, 7):
        for d in (1, 2, 3):
            names = [f"a{k}" for k in range(n * d)]
            lines = [f"{', '.join(names)}, = u", *control._residual_lines(names, d), "return res"]
            source = "def residual(u):\n" + "".join(f"    {line}\n" for line in lines)
            namespace = {"sqrt": math.sqrt}
            exec(source, namespace)
            residual = namespace["residual"]
            for case in range(40):
                u = (10.0 ** rng.integers(-200, 160) * rng.standard_normal(n * d)).tolist()
                for _ in range(case % 4):
                    u[rng.integers(n * d)] = [math.nan, math.inf, -math.inf, -0.0][rng.integers(4)]
                with np.errstate(over="ignore"):
                    want = np.float64(balance_residual(u, d)).tobytes()
                assert np.float64(residual(u)).tobytes() == want
                # a NaN of the other sign at one node: the last NaN is kept (the
                # sign of a sum of NaNs of both signs is the interpreter's to pick)
                i = d * rng.integers(n)
                u[i + rng.integers(d)] = math.nan
                u[i:i + d] = [-math.nan if x != x else x for x in u[i:i + d]]
                assert np.float64(residual(u)).tobytes() == np.float64(_residual(u, d)).tobytes()
    graphs = [triangle_flex(), tetrahedron_flex(), tetrahedron_flex(desired=(4, 5, 6, 5, 4, 5, 3))]
    for graph in graphs:
        n, d = graph.num_nodes, graph.dimension
        points = [rng.uniform(-5, 5, (n, d)) for _ in range(10)]
        for bad in (math.nan, math.inf, -math.inf):
            points.append(rng.uniform(-5, 5, (n, d)))
            points[-1][rng.integers(n), rng.integers(d)] = bad
        points.append(points[0].copy())
        points[-1][-1] = points[-1][-2]
        for family in (QUADRATIC, RATIONAL):
            advance, evaluate = compiled_step(graph, family, LeaderSpec())
            for p in points:
                x = p.ravel().tolist()
                u, _, w, *_, res = evaluate(x)
                assert np.float64(res).tobytes() == np.float64(_residual(u, d)).tobytes()
                assert np.float64(edge_states(p, graph, family).residual).tobytes() \
                    == np.float64(res).tobytes()
                if math.isfinite(w):
                    _, k1, _, _, _, _, res = advance(x, u, w, 0.0, 1.0, 1e-3, 2, -math.inf)
                    if k1 is not None:
                        assert np.float64(res).tobytes() == np.float64(_residual(k1, d)).tobytes()


# families whose formulas repeat terms: nested e * e (quartic), and a
# repeated term inside a repeated term, beside terms of d2 alone (nested)
QUARTIC = PotentialFamily("quartic", "0.5 * (e * e) + 0.25 * ((e * e) * (e * e))",
                          "e + (e * e) * e", "1.0 + 3.0 * (e * e)")
NESTED = PotentialFamily("nested", "(e + d2) * (e + d2) + (e + d2) * (e + d2) * d2",
                         "1.0 / ((e + d2) * (e + d2)) - 1.0 / (d2 * d2)",
                         "-2.0 / ((e + d2) * (e + d2) * (e + d2))")


def test_rewritten_formulas_keep_every_bit():
    """``_terms`` names each term of d2 alone once per call (pre<j>) and
    each repeated term once per evaluation (sub<j>, innermost first), and
    leaves a formula that is one name bare.  With the rewritten formulas,
    the pass equals the array pass of the formulas as written (a NaN as a
    NaN), and its control and errors and the RK4 step equal the float
    pass and the reference step bit for bit, at random points, coincident
    pairs (where NESTED divides by zero after its temporaries are set and
    falls back to numpy) and NaN and infinite coordinates."""
    import rigidflex.control as control

    assert control._terms(QUADRATIC)["g"] == ((), (), "e")
    assert control._terms(RATIONAL)["g"] == ((("pre0", "d2 * d2"),), (("sub0", "e + d2"),),
                                             "1.0 - pre0 / (sub0 * sub0)")
    assert control._terms(RATIONAL)["rho"] == ((("pre1", "2.0 * (d2 * d2)"),),
                                               (("sub0", "e + d2"),), "pre1 / (sub0 * sub0 * sub0)")
    assert control._terms(QUARTIC)["phi"] == ((), (("sub0", "e * e"),),
                                              "0.5 * sub0 + 0.25 * (sub0 * sub0)")
    assert control._terms(NESTED)["phi"] == (
        (), (("sub0", "e + d2"), ("sub1", "sub0 * sub0")), "sub1 + sub1 * d2")
    rng = np.random.default_rng(41)
    for graph in (triangle_flex(), tetrahedron_flex()):
        n, d = graph.num_nodes, graph.dimension
        points = [rng.uniform(-3.0, 3.0, (n, d)) for _ in range(6)]
        for bad in (math.nan, math.inf, -math.inf):
            points.append(rng.uniform(-3.0, 3.0, (n, d)))
            points[-1][rng.integers(n), rng.integers(d)] = bad
        for p in points[:3]:
            points.append(p.copy())
            points[-1][-1] = points[-1][-2]
        for family in (QUADRATIC, RATIONAL, QUARTIC, NESTED):
            advance, evaluate = compiled_step(graph, family, LeaderSpec())
            run = float_pass(graph, family)[0]
            for p in points:
                states = edge_states(p, graph, family)
                with np.errstate(all="ignore"):
                    want = array_pass(p, graph, family)
                for got, value in zip((states.z, states.e, states.g, states.rho, states.u,
                                       states.v), want):
                    np.testing.assert_array_equal(got, value, strict=True)
                x = (0.1 * p).ravel().tolist()
                k1, e0, w = evaluate(x)[:3]
                with np.errstate(all="ignore"):
                    assert [np.asarray(a).tobytes() for a in (k1, e0)] \
                        == [np.asarray(b).tobytes() for b in run(x)]
                    want = rk4_advance(graph, family, LeaderSpec(), x, k1, e0, w, 0.0, 1.0,
                                       1e-3, 3, -math.inf)
                got = advance(x, k1, w, 0.0, 1.0, 1e-3, 3, -math.inf)
                assert [None if a is None else np.asarray(a).tobytes() for a in got] \
                    == [None if b is None else np.asarray(b).tobytes() for b in want]
