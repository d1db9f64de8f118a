"""Generated-input properties of the stability analysis (needs hypothesis)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidflex.control import (
    LeaderSpec,
    _norm,
    edge_states,
    gradient_control,
    leader_spec_from_json,
    potential_value,
)
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.oracle import build_catalog, desired_equilibrium
from rigidflex.potentials import QUADRATIC, RATIONAL
from rigidflex.stability import analyze, assemble_hessian, classify
from references import (
    _residual,
    array_pass,
    balance_residual,
    float_pass,
    gradient_norm,
    leader_potential,
    rk4_advance,
)
from test_integrator import compiled_step

GRAPHS = {"triangle": triangle_flex(), "tetrahedron": tetrahedron_flex()}
FAMILIES = {"quadratic": QUADRATIC, "rational": RATIONAL}


@functools.cache
def catalog(graph_name, family_name):
    return build_catalog(GRAPHS[graph_name], FAMILIES[family_name])[0]


@functools.cache
def raw_reports(graph_name, family_name):
    """(positions, analyze report) at each catalog entry and the desired shape."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    points = [e.positions for e in catalog(graph_name, family_name)]
    return [(p, analyze(p, graph, family)) for p in points + [desired_equilibrium(graph)]]


def axis_is_unique(p, kind):
    """Whether the agents fix the axis r up to sign: the span of the rigid
    agents (of all but the anchor at a flex-coincident point) and the flex
    edge has dimension d - 1 or d.  Four coincident agents in 3-D leave r
    free on the circle orthogonal to the flex edge."""
    d = p.shape[1]
    span = p[:d] if kind == "flex_coincident" else p[:-1]
    return np.linalg.matrix_rank(np.vstack([span - span[0], p[-1] - p[-2]]), 1e-9) >= d - 1


def rotation(angles, d):
    """Proper rotation: one planar angle (2-D) or z-y-x Euler angles (3-D)."""
    c, s = np.cos(angles), np.sin(angles)
    if d == 2:
        return np.array([[c[0], -s[0]], [s[0], c[0]]])
    rz = np.array([[c[0], -s[0], 0.0], [s[0], c[0], 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[c[1], 0.0, s[1]], [0.0, 1.0, 0.0], [-s[1], 0.0, c[1]]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c[2], -s[2]], [0.0, s[2], c[2]]])
    return rz @ ry @ rx


angle_triples = st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)
shifts = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(angles=angle_triples, shift=shifts)
def test_witness_is_invariant_under_rigid_motions(graph_name, family_name, angles, shift):
    """analyze at every catalog entry and at the desired shape, after a
    rotation R and a shift: the class and subform stay, the spectra, the
    minimum eigenvalue, the witness tag, vector and form agree within 1e-9
    of the largest |eigenvalue|, and the sign claims keep their descriptions
    and verdicts, with values within 1e-9.  The witness is strictly
    negative, v (x) r has the same curvature in the full Hessian, and the
    full vector is (I (x) R) times the unmoved one, up to one sign, wherever
    the agents fix r; where they do not, r is still a unit vector
    orthogonal to the flex edge."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    d = graph.dimension
    rot = rotation(np.array(angles), d)
    for pos, raw in raw_reports(graph_name, family_name):
        p = pos @ rot.T + np.array(shift[:d])
        report = analyze(p, graph, family)
        cls, raw_cls = report.classification, raw.classification
        assert (cls.kind, cls.subform) == (raw_cls.kind, raw_cls.subform)
        tol = 1e-9 * np.abs(raw.spectrum).max()
        np.testing.assert_allclose(report.spectrum, raw.spectrum, rtol=0, atol=tol)
        assert report.min_eigenvalue == pytest.approx(raw.min_eigenvalue, rel=0, abs=tol)
        w, raw_w = report.witness, raw.witness
        if cls.kind == "desired":
            assert report.block_spectrum is raw.block_spectrum is w is raw_w is None
            assert report.positive_semidefinite
            continue
        np.testing.assert_allclose(report.block_spectrum, raw.block_spectrum, rtol=0, atol=tol)
        assert w.tag == raw_w.tag
        np.testing.assert_allclose(w.vector, raw_w.vector, rtol=0, atol=tol)
        assert w.quadratic_form == pytest.approx(raw_w.quadratic_form, rel=0, abs=tol)
        assert w.quadratic_form < 0
        h = assemble_hessian(p, graph, family)
        q_full = float(w.full_vector @ h @ w.full_vector)
        assert q_full == pytest.approx(w.quadratic_form, rel=1e-9, abs=1e-9)
        np.testing.assert_array_equal(w.full_vector, np.outer(w.vector, cls.axis).ravel())
        if axis_is_unique(pos, cls.kind):
            moved = raw_w.full_vector.reshape(-1, d) @ rot.T
            sign = 1.0 if moved.ravel() @ w.full_vector > 0 else -1.0
            np.testing.assert_allclose(w.full_vector, sign * moved.ravel(), rtol=0, atol=1e-9)
        else:
            assert abs(np.linalg.norm(cls.axis) - 1.0) < 1e-15
            assert abs(np.dot(cls.axis, p[-1] - p[-2])) < 1e-9
        assert [(c.description, c.passed) for c in report.claims] == \
            [(c.description, c.passed) for c in raw.claims]
        np.testing.assert_allclose([c.value for c in report.claims],
                                   [c.value for c in raw.claims], rtol=0, atol=1e-9)


# finite coordinates from about 1e-300 to 1e151 in magnitude, zero included
coordinates = st.builds(lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-300, 150))


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_kernel_never_leaves_the_domain(graph_name, family_name, data):
    """e = fl(||z||^2 - dbar^2) >= -dbar^2 at every finite realization, with
    equality on exactly coincident pairs: the integrator relies on this and
    checks no domain bound per step."""
    graph, family = GRAPHS[graph_name], FAMILIES[family_name]
    n, d = graph.num_nodes, graph.dimension
    p = np.array(data.draw(st.lists(coordinates, min_size=n * d, max_size=n * d))).reshape(n, d)
    node = st.integers(0, n - 1)
    for i, j in data.draw(st.lists(st.tuples(node, node), max_size=2)):
        p[j] = p[i]
    states = edge_states(p, graph, family)
    z, e = states.z, states.e
    assert not np.isnan(e).any()
    dbar2 = np.array(graph._dbar2)
    assert (e >= -dbar2).all()
    coincident = ~z.any(axis=1)
    assert (e[coincident] == -dbar2[coincident]).all()


# the offset of an edge's head from its tail in each coordinate: at, next to
# or far from coincidence
offsets = st.sampled_from([0.0, 1e-300, 1e-12, 1e-7, 1e-3, 1.0, 1e3])


def draw_realization(data, graph_name):
    """A graph of the named shape at drawn desired lengths in [0.5, 10] and
    a realization of it at scale 1e-3, 1 or 1e4, sometimes with -0.0, NaN,
    inf or -inf at a drawn coordinate, and with up to two edges put at, next
    to or far from coincidence (an edge at coincidence on a -0.0 has z = -0.0
    there)."""
    base = GRAPHS[graph_name]
    n, d, m = base.num_nodes, base.dimension, base.num_edges
    lengths = data.draw(st.lists(st.floats(0.5, 10.0), min_size=m, max_size=m))
    graph = (triangle_flex if d == 2 else tetrahedron_flex)(lengths)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e4]))
    p = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * d,
                                            max_size=n * d))).reshape(n, d)
    if data.draw(st.booleans()):
        p.flat[data.draw(st.integers(0, n * d - 1))] = data.draw(
            st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
    for k, offset in data.draw(st.lists(st.tuples(st.integers(0, m - 1), offsets), max_size=2)):
        p[graph.edge_heads[k]] = p[graph.edge_tails[k]] + offset
    return graph, p


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_float_pass_equals_the_array_kernel(graph_name, family_name, data):
    """The compiled float pass behind edge_states, gradient_control and
    potential_value gives the edge vectors, squared errors, g, rho, control
    and V (``EdgeState.v`` and ``potential_value`` alike, bit for bit) of
    the numpy reference pass in ``tests/references.py`` exactly, and the
    balance residual (``EdgeState.residual`` and ``classify``'s alike) is
    numpy's per-agent norm and max of that control, or NaN where numpy's is
    (whose max keeps a NaN's sign and payload or not, by where it sits), at drawn
    desired lengths and realizations, far from the desired shape and at or
    next to coincidence (where the rational g and rho are infinite).
    Neither sums through a BLAS, so this holds on every CPU."""
    graph, p = draw_realization(data, graph_name)
    family = FAMILIES[family_name]
    states = edge_states(p, graph, family)
    z, e, g, rho, u, v = array_pass(p, graph, family)
    for got, want in ((states.z, z), (states.e, e), (states.g, g), (states.rho, rho),
                      (states.u, u), (gradient_control(p, graph, family), u.ravel())):
        np.testing.assert_array_equal(got, want, strict=True)
    np.testing.assert_array_equal(potential_value(p, graph, family), v)
    assert bits(states.v) == bits(potential_value(p, graph, family)) == bits(v)
    with np.errstate(over="ignore"):
        residual = balance_residual(u, graph.dimension)
    for got in (states.residual, classify(p, graph, family).diagnostics["residual"]):
        assert bits(got) == bits(residual) or (math.isnan(got) and math.isnan(residual))


def bits(values):
    """The float64 bytes of ``values``: signed zeros and NaN payloads count."""
    return np.asarray(values, dtype=float).tobytes()


def leader(mode, d):
    """A leader of each mode in d dimensions; the windowed velocity changes
    at t0 = 0.5, at 0.5005 and at tf = 1.0."""
    if mode == "target":
        return LeaderSpec(mode="target", k_f=200.0, p_t=[10.0, -10.0, 0.25][:d])
    if mode == "windowed":
        samples = [[0.5] + [1.0] * d, [0.5005] + [-0.3] * d, [1.0] + [2.5] * d]
        return leader_spec_from_json({"mode": "windowed", "t0": 0.5, "tf": 1.0, "v": samples})
    return LeaderSpec()


def result_bits(result):
    """``bits`` of each value of an ``advance`` result; None stays None."""
    return [None if x is None else bits(x) for x in result]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("family_name", sorted(FAMILIES))
@pytest.mark.parametrize("mode", ["none", "target", "windowed", "diverging"])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data(),
       t=st.sampled_from([0.0, 0.4995, 0.49975, 0.5, 0.50025, 0.7, 0.9995, 0.99975, 1.0]),
       dt=st.sampled_from([1e-3, 5e-4, 2.5e-4]), n=st.integers(1, 4),
       left=st.sampled_from([0.4, 1.0, 2.5, 3.0, 5.7]),
       dv=st.sampled_from([-math.inf, 0.0]))
def test_compiled_step_equals_the_reference_step(graph_name, family_name, mode, data, t, dt,
                                                 n, left, dv):
    """One ``advance`` call of k steps equals k steps of the per-stage list
    RK4 over the float pass of ``tests/references.py`` bit for bit, for
    each k up to n: state, control, squared errors, V plus the target
    potential, time and worst increase of V.  The interval to the boundary
    is left * dt, so the last step is clamped (0.4, 2.5, 5.7) or not, and n
    may exceed the steps left; windowed steps start on, straddle or end on
    t0 or tf and are left out of the worst increase.  Realizations are
    drawn with edges at or next to coincidence (a rational edge at
    e = -dbar^2 runs the numpy fallback), and large ones diverge within
    the interval.  A diverging leader's velocity jumps to 1e308 a quarter
    or one and a half steps in, which makes V non-finite: advance returns the
    non-finite V with the time and state before the step that reaches it.  ``evaluate`` equals the
    reference pass and potential at the start."""
    graph, p = draw_realization(data, graph_name)
    family = FAMILIES[family_name]
    if mode == "diverging":
        steps_to_nan = data.draw(st.sampled_from([0.25, 1.5]))
        t_nan = t + steps_to_nan * dt
        spec = LeaderSpec(mode="windowed", t0=0.0, tf=2.0, times=[0.0, t_nan],
                          values=[(0.5,) * graph.dimension, (1e308,) * graph.dimension])
    else:
        spec = leader(mode, graph.dimension)
    advance, evaluate = compiled_step(graph, family, spec)
    run, potential = float_pass(graph, family)
    p = p.ravel().tolist()
    boundary = t + left * dt
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k1, e, w = evaluate(p)[:3]
        want_k1, want_e = run(p)
        assert (bits(k1), bits(e)) == (bits(want_k1), bits(want_e))
        assert bits(w) == bits(potential(want_e) + leader_potential(spec, p))
        for k in range(1, n + 1):
            got = advance(p, k1, w, t, boundary, dt, k, dv)
            want = rk4_advance(graph, family, spec, p, k1, e, w, t, boundary, dt, k, dv)
            assert result_bits(got) == result_bits(want)
    if mode == "diverging" and steps_to_nan < min(n, left) and math.isfinite(w):
        assert not math.isfinite(got[3]) and got[1] is None and got[2] is None
        assert got[4] <= t_nan


@settings(derandomize=True, max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3]), agents=st.integers(1, 5), data=st.data())
def test_record_norms_equal_numpy_bit_for_bit(d, agents, data):
    """The recorded gradient norm equals the square root of numpy's
    sequential cumulative sum of squares, and the equilibrium residual
    equals numpy's per-agent norm and max, bit for bit, at drawn controls
    of every scale (squares that overflow among them), and with a NaN at a
    drawn coordinate, which both carry through.  The coordinates are
    seeded normal draws, whose sums round differently in each order."""
    scale = data.draw(st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e160]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = (scale * rng.standard_normal(agents * d)).tolist()
    if data.draw(st.booleans()):
        u[data.draw(st.integers(0, len(u) - 1))] = math.nan
    with np.errstate(over="ignore"):
        assert bits(_norm(u)) == bits(gradient_norm(u))
        assert bits(_residual(u, d)) == bits(balance_residual(u, d))
