"""Potential-family conditions and derivative consistency."""

import pickle

import numpy as np
import pytest

from rigidflex.potentials import (
    QUADRATIC,
    RATIONAL,
    PotentialDomainError,
    PotentialFamily,
    get_family,
    validate_family,
)

DBAR = 4.0


def finite_difference(f, e, h=1e-6):
    return (f(e + h) - f(e - h)) / (2 * h)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_g_is_derivative_of_phi(family):
    phi, g, _ = family.bind(np.asarray(DBAR))
    grid = np.linspace(-0.9 * DBAR**2, 50.0, 200)
    fd = np.array([finite_difference(phi, e) for e in grid])
    np.testing.assert_allclose(g(grid), fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_rho_is_derivative_of_g(family):
    _, g, rho = family.bind(np.asarray(DBAR))
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
    phi, g, rho = QUADRATIC.bind(np.asarray(DBAR))
    assert phi(np.asarray(2.0)) == 2.0
    assert g(np.asarray(-3.0)) == -3.0
    assert rho(np.asarray(123.0)) == 1.0


def test_rational_values():
    # phi(e) = e^2/(e + dbar^2): g is bounded above by 1 and negative below 0
    _, g, rho = RATIONAL.bind(np.asarray(DBAR))
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
    bad = PotentialFamily("cubic", lambda dbar: (lambda e: 0.25 * e**4, lambda e: e**3,
                                                 lambda e: 3.0 * e**2))
    problems = validate_family(bad, DBAR)
    assert any("rho" in p for p in problems)


def test_validator_catches_wrong_sign_g():
    bad = PotentialFamily("flipped", lambda dbar: (lambda e: 0.5 * e**2, lambda e: -e,
                                                   np.ones_like))
    problems = validate_family(bad, DBAR)
    assert problems  # not increasing and wrong sign


def closed_forms(e, dbar):
    """(phi, g, rho) of both families written out on float64 arrays."""
    s = e + dbar**2
    return {"quadratic": (0.5 * e**2, e, np.ones_like(e)),
            "rational": (e**2 / s, 1.0 - dbar**4 / s**2, 2.0 * dbar**4 / s**3)}


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
        bound, flat, at_dbar = (family.bind(b) for b in (dbar[:, None], dbar, np.asarray(DBAR)))
        for k, want in enumerate(expected):
            np.testing.assert_array_equal(flat[k](e), want)
            np.testing.assert_array_equal(bound[k](e[:, None]), want[:, None], strict=True)
            np.testing.assert_array_equal(at_dbar[k](e[41:82]), want[41:82])
            for i in range(0, len(e), 5):
                got = family.bind(np.asarray(dbar[i]))[k](np.asarray(e[i]))
                assert np.ndim(got) == 0
                np.testing.assert_array_equal(
                    got, closed_forms(np.asarray(e[i]), np.asarray(dbar[i]))[family.name][k])


@pytest.mark.parametrize("family", [QUADRATIC, RATIONAL])
def test_family_survives_pickling(family):
    """A built-in family pickles by reference, so it can be sent to a worker
    process, and evaluates the same after the round trip."""
    copy = pickle.loads(pickle.dumps(family))
    e = np.linspace(-0.9, 3.0, 9) * DBAR**2
    for a, b in zip(family.bind(np.asarray(DBAR)), copy.bind(np.asarray(DBAR))):
        np.testing.assert_array_equal(a(e), b(e))
