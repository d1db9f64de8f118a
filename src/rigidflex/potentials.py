"""Edge potential families.

Each family, bound to desired lengths dbar, supplies three evaluators over
the squared distance error e = ||z||^2 - dbar^2 on the domain e > -dbar^2:

    phi(e)  -- nonnegative edge energy, zero iff e == 0
    g(e)    -- d phi / d e, strictly increasing, sign(g) == sign(e)
    rho(e)  -- d g / d e, strictly positive
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class PotentialDomainError(ValueError):
    """A point outside a family's domain, or a desired length that admits no
    sample grid inside it."""


@dataclass(frozen=True)
class PotentialFamily:
    """An edge potential given by ``bind(dbar)``: its (phi, g, rho) as
    functions of e alone at the desired lengths ``dbar``, a float array
    (broadcast against e) or one Python float, with the constants the family
    derives from dbar computed once.  The built-in families write phi and g
    with products, which round alike on floats and arrays (Python's ``**``
    calls libm's ``pow``), so their float evaluators at one length equal
    their array evaluators bit for bit."""

    name: str
    bind: Callable


_QUADRATIC = (lambda e: 0.5 * (e * e), lambda e: e, np.ones_like)


def _quadratic(dbar):
    """phi = e^2 / 2; g and rho are its exact derivatives."""
    return _QUADRATIC


def _rational(dbar):
    """phi = e^2 / (e + dbar^2); g and rho are its exact derivatives.  dbar^4
    is numpy's ``dbar**4``, for a float dbar too: (dbar^2)^2 differs from it
    in the last bit for about half of all lengths, and libm's ``pow`` for
    about one in twenty where numpy's power is vectorized."""
    d2, d4 = dbar * dbar, np.power(dbar, 4.0)
    if isinstance(dbar, float):
        d4 = float(d4)

    def g(e):
        s = e + d2
        return 1.0 - d4 / (s * s)

    return (lambda e: (e * e) / (e + d2), g, lambda e: 2.0 * d4 / (e + d2) ** 3)


QUADRATIC = PotentialFamily("quadratic", _quadratic)
RATIONAL = PotentialFamily("rational", _rational)

FAMILIES = {f.name: f for f in (QUADRATIC, RATIONAL)}


def get_family(tag: str) -> PotentialFamily:
    try:
        return FAMILIES[tag]
    except KeyError:
        raise KeyError(f"unknown potential family {tag!r}; known: {sorted(FAMILIES)}")


def validate_family(family: PotentialFamily, dbar: float) -> list[str]:
    """Check the potential-family conditions on a sample grid.

    Verifies phi >= 0 with phi = 0 only at e = 0, g strictly increasing with
    sign(g) = sign(e), and rho > 0, over a grid of (-dbar^2, 100 dbar^2)
    whose innermost samples are +-1e-6 dbar^2, so the grid scales with dbar.
    Analyticity near 0 cannot be checked from point evaluations and is not
    attempted.  Returns a list of violation messages; empty means the family
    passed.  A dbar whose grid is not finite or leaves the domain, or at
    which phi, g or rho overflows on the grid, raises PotentialDomainError.
    """
    dbar = float(dbar)
    dbar2 = dbar * dbar                     # inf, not OverflowError, for a huge dbar
    if not (dbar > 0 and 1e-6 < dbar2 and np.isfinite(100.0 * dbar2)):
        raise PotentialDomainError(f"dbar must be finite and positive with 1e-6 < dbar^2 "
                                   f"and 100 dbar^2 finite, got {dbar!r}")
    grid = dbar2 * np.concatenate([np.linspace(-(1 - 1e-3), -1e-6, 400), [0.0],
                                   np.linspace(1e-6, 100.0, 400)])
    try:
        with np.errstate(over="raise"):
            phi, g, rho = (np.asarray(f(grid), dtype=float)
                           for f in family.bind(np.asarray(dbar)))
    except FloatingPointError as exc:
        raise PotentialDomainError(f"dbar must be small enough that phi, g and rho stay "
                                   f"finite on the sample grid, got {dbar!r}: {exc}") from None

    problems = []
    if np.any(phi < 0):
        problems.append("phi takes negative values")
    at_zero, off_zero = grid == 0.0, grid != 0.0
    if np.any(phi[at_zero] != 0):
        problems.append("phi(0) != 0")
    if np.any(phi[off_zero] <= 0):
        problems.append("phi vanishes away from e = 0")
    if np.any(np.diff(g) <= 0):
        problems.append("g is not strictly increasing over the grid")
    if np.any(np.sign(g[off_zero]) != np.sign(grid[off_zero])):
        problems.append("sign(g) != sign(e) somewhere on the grid")
    if np.any(rho <= 0):
        problems.append("rho is not strictly positive over the grid")
    return problems
