"""Edge potential families.

A family states three formulas, Python expressions in the squared distance
error e = ||z||^2 - dbar^2 and in d2 = dbar^2, on the domain e > -d2:

    phi  -- nonnegative edge energy, zero iff e == 0
    g    -- d phi / d e, strictly increasing, sign(g) == sign(e)
    rho  -- d g / d e, strictly positive
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class PotentialDomainError(ValueError):
    """A point outside a family's domain or where its potential overflows,
    or a desired length that admits no sample grid inside it."""


@dataclass(frozen=True)
class PotentialFamily:
    """An edge potential stated once: phi, g and rho as Python expressions
    in ``e`` and ``d2`` (= dbar^2) that name nothing of their own, so a
    shared term such as ``(e + d2)`` is repeated.  ``evaluators`` compiles
    them for floats and arrays as written; ``control``'s edge pass inlines
    them rewritten (``control._terms``), each repeated term computed once
    and each term of d2 alone once per call, which keeps every value's bits.  The
    built-in families use products and quotients, which round alike on
    floats and arrays (a float's ``**`` calls libm's ``pow``, numpy has its
    own), so their values agree bit for bit; ``e ** 0`` is exactly 1.0, NaN
    and infinities included."""

    name: str
    phi: str
    g: str
    rho: str


QUADRATIC = PotentialFamily("quadratic", "0.5 * (e * e)", "e", "e ** 0")
# phi = e^2 / s with s = e + dbar^2; dbar^4 is d2 d2 and s^3 is (s s) s
RATIONAL = PotentialFamily("rational", "(e * e) / (e + d2)",
                           "1.0 - (d2 * d2) / ((e + d2) * (e + d2))",
                           "2.0 * (d2 * d2) / (((e + d2) * (e + d2)) * (e + d2))")

FAMILIES = {f.name: f for f in (QUADRATIC, RATIONAL)}


@functools.lru_cache(maxsize=32)
def evaluators(family: PotentialFamily) -> tuple:
    """(phi, g, rho) of a family as functions ``f(e, d2)``, compiled once
    per family; each takes floats or arrays that broadcast together."""
    return tuple(eval(f"lambda e, d2: {formula}", {})
                 for formula in (family.phi, family.g, family.rho))


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
            phi, g, rho = (np.asarray(f(grid, np.float64(dbar2)), dtype=float)
                           for f in evaluators(family))
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
