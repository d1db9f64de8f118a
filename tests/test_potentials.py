"""Potential-family conditions and derivative consistency."""

import pickle

import numpy as np
import pytest

from rigidflex.control import edge_states
from rigidflex.graph import tetrahedron_flex, triangle_flex
from rigidflex.integrator import integrate
from rigidflex.oracle import build_catalog, desired_equilibrium
from rigidflex.potentials import (
    QUADRATIC,
    RATIONAL,
    PotentialDomainError,
    PotentialFamily,
    get_family,
    validate_family,
)
from rigidflex.stability import analyze
from references import array_pass, bind

DBAR = 4.0


def finite_difference(f, e, h=1e-6):
    return (f(e + h) - f(e - h)) / (2 * h)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_g_is_derivative_of_phi(family):
    phi, g, _ = bind(family, np.asarray(DBAR))
    grid = np.linspace(-0.9 * DBAR**2, 50.0, 200)
    fd = np.array([finite_difference(phi, e) for e in grid])
    np.testing.assert_allclose(g(grid), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_rho_is_derivative_of_g(family):
    _, g, rho = bind(family, np.asarray(DBAR))
    grid = np.linspace(-0.9 * DBAR**2, 50.0, 200)
    fd = np.array([finite_difference(g, e) for e in grid])
    np.testing.assert_allclose(rho(grid), fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_families_satisfy_conditions(family):
    assert validate_family(family, DBAR) == []
    assert validate_family(family, 1.7) == []


@pytest.mark.parametrize("name, dbar, passes", [
    ("quadratic", 1e76, True), ("quadratic", 1e77, False),
    ("rational", 1e50, True), ("rational", 1e51, False)])
def test_validator_rejects_dbar_where_family_overflows(name, dbar, passes):
    """The grid reaches 100 dbar^2, where the quadratic phi = e^2 / 2
    overflows from about dbar = 1e77 and the rational rho's cube from 1e51;
    such a dbar is rejected, not reported as passing (phi = inf) or failing."""
    if passes:
        assert validate_family(get_family(name), dbar) == []
    else:
        with pytest.raises(PotentialDomainError, match="stay finite"):
            validate_family(get_family(name), dbar)


def test_quadratic_values():
    phi, g, rho = bind(QUADRATIC, np.asarray(DBAR))
    assert phi(np.asarray(2.0)) == 2.0
    assert g(np.asarray(-3.0)) == -3.0
    assert rho(np.asarray(123.0)) == 1.0


def test_rational_values():
    # phi(e) = e^2/(e + dbar^2): g is bounded above by 1 and negative below 0
    _, g, rho = bind(RATIONAL, np.asarray(DBAR))
    assert g(np.asarray(0.0)) == 0.0
    assert g(np.asarray(1e9)) < 1.0
    assert g(np.asarray(-8.0)) < 0.0
    assert rho(np.asarray(0.0)) == pytest.approx(2.0 / DBAR**2)


def test_get_family():
    assert get_family("quadratic") is QUADRATIC
    assert get_family("rational") is RATIONAL
    with pytest.raises(KeyError):
        get_family("nope")


def test_validator_catches_sign_violation():
    # g = e^3 has rho = 3e^2 which vanishes at 0 and g is not strictly
    # increasing in the derivative sense; the validator must flag it
    bad = PotentialFamily("cubic", "0.25 * e ** 4", "e ** 3", "3.0 * e ** 2")
    problems = validate_family(bad, DBAR)
    assert any("rho" in p for p in problems)


def test_validator_catches_wrong_sign_g():
    bad = PotentialFamily("flipped", "0.5 * e ** 2", "-e", "e ** 0")
    problems = validate_family(bad, DBAR)
    assert problems  # not increasing and wrong sign


@pytest.mark.parametrize("phi, problems", [
    ("-0.5 * (e * e)", ["phi takes negative values", "phi vanishes away from e = 0"]),
    ("0.5 * (e * e) + 1.0", ["phi(0) != 0"]),
], ids=["negative", "lifted"])
def test_validator_names_each_phi_violation(phi, problems):
    """With the quadratic family's g and rho, a phi below zero, or one that
    is not zero at e = 0, is reported by exactly its own messages."""
    assert validate_family(PotentialFamily("bad", phi, "e", "e ** 0"), DBAR) == problems


def closed_forms(e, dbar):
    """(phi, g, rho) of both families written out on float64 arrays, with
    dbar^4 as dbar^2 dbar^2 and s^3 as (s s) s."""
    s, d4 = e + dbar**2, dbar**2 * dbar**2
    return {"quadratic": (0.5 * e**2, e, np.ones_like(e)),
            "rational": (e**2 / s, 1.0 - d4 / s**2, 2.0 * d4 / ((s * s) * s))}


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_evaluators_equal_closed_forms_exactly(family):
    """Array, per-edge dbar and scalar evaluation, and the evaluators bound
    to fixed desired lengths as a column, including the coincidence
    boundary e = -dbar^2, reproduce the closed forms bit for bit.  Scalars
    are compared with the closed forms on scalars: numpy rounds a scalar
    power differently from an array power."""
    bars = np.concatenate([[1.0, DBAR], np.random.default_rng(8).uniform(0.5, 10.0, 8)])
    dbar = np.repeat(bars, 41)
    e = np.tile(np.linspace(-1.0, 3.0, 41), len(bars)) * dbar**2
    assert np.count_nonzero(e == -(dbar**2)) == len(bars)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = closed_forms(e, dbar)[family.name]
        bound, flat, at_dbar = (bind(family, b) for b in (dbar[:, None], dbar, np.asarray(DBAR)))
        for k, want in enumerate(expected):
            np.testing.assert_array_equal(flat[k](e), want)
            np.testing.assert_array_equal(bound[k](e[:, None]), want[:, None], strict=True)
            np.testing.assert_array_equal(at_dbar[k](e[41:82]), want[41:82])
            for i in range(0, len(e), 5):
                got = bind(family, np.asarray(dbar[i]))[k](np.asarray(e[i]))
                assert np.ndim(got) == 0
                np.testing.assert_array_equal(
                    got, closed_forms(np.asarray(e[i]), np.asarray(dbar[i]))[family.name][k])


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_family_survives_pickling(family):
    """A built-in family pickles (its formulas are strings), so it can be
    sent to a worker process, and evaluates the same after the round trip."""
    copy = pickle.loads(pickle.dumps(family))
    e = np.linspace(-0.9, 3.0, 9) * DBAR**2
    for a, b in zip(bind(family, np.asarray(DBAR)), bind(copy, np.asarray(DBAR))):
        np.testing.assert_array_equal(a(e), b(e))


def test_rational_dbar4_is_the_same_for_float_0d_and_column_binds():
    """The rational family's dbar^4 is (dbar^2)^2, and its rho's
    (e + dbar^2)^3 is (s s) s, products with no ``**``, for a Python float, a
    0-d array and a column of lengths alike, so neither hangs on numpy's
    vectorized power or on libm's ``pow``: on seeded lengths and errors g
    and rho give the same bits all three ways."""
    assert not any("**" in f for f in (RATIONAL.phi, RATIONAL.g, RATIONAL.rho))
    rng = np.random.default_rng(24)
    lengths = rng.uniform(1e-3, 100.0, 2000)
    e = lengths * lengths * rng.uniform(-0.999, 100.0, 2000)
    d2 = lengths * lengths
    s = e + d2
    np.testing.assert_array_equal(bind(RATIONAL, lengths)[1](e), 1.0 - (d2 * d2) / (s * s),
                                  strict=True)
    for k in (1, 2):
        column = bind(RATIONAL, lengths[:, None])[k](e[:, None])[:, 0]
        floats = np.array([bind(RATIONAL, x)[k](y) for x, y in zip(lengths.tolist(), e.tolist())])
        zero_d = np.array([bind(RATIONAL, np.asarray(x))[k](np.asarray(y))
                           for x, y in zip(lengths, e)])
        assert column.tobytes() == floats.tobytes() == zero_d.tobytes()


def test_a_family_given_only_as_formulas_runs_everywhere():
    """A third family, phi = e^2/2 + e^4/4, stated only as formulas, passes
    the validator over four decades of dbar and needs nothing else: on the
    unit-length triangle and tetrahedron every catalog entry has a witness
    and passes its claims, the compiled pass equals the numpy reference bit
    for bit at seeded points (some with a coincident edge), and a run keeps
    V non-increasing to 1e-10 per step."""
    quartic = PotentialFamily("quartic", "0.5 * (e * e) + 0.25 * ((e * e) * (e * e))",
                              "e + (e * e) * e", "1.0 + 3.0 * (e * e)")
    for dbar in (0.01, 1.0, 4.0, 1e3):
        assert validate_family(quartic, dbar) == []
    rng = np.random.default_rng(30)
    for graph in (triangle_flex((1.0,) * 4), tetrahedron_flex((1.0,) * 7)):
        entries, _ = build_catalog(graph, quartic)
        assert entries
        for entry in entries:
            report = analyze(entry.positions, graph, quartic)
            assert report.witness is not None, entry.subform
            assert all(c.passed for c in report.claims), entry.subform
        for k in range(25):
            p = rng.uniform(-1.5, 1.5, (graph.num_nodes, graph.dimension))
            if k % 3 == 0:
                i, j = graph.edges[k % len(graph.edges)]
                p[j - 1] = p[i - 1]
            states = edge_states(p, graph, quartic)
            z, e, g, rho, u, v = array_pass(p, graph, quartic)
            for got, want in ((states.z, z), (states.e, e), (states.g, g),
                              (states.rho, rho), (states.u, u)):
                np.testing.assert_array_equal(got, want, strict=True)
            assert states.v == v
        p0 = desired_equilibrium(graph) + 0.2 * rng.standard_normal((graph.num_nodes,
                                                                     graph.dimension))
        assert integrate(p0, graph, quartic, t_end=3.0).max_lyapunov_increase <= 1e-10
