"""Gradient control law and the flex agent's leader input.

Convention: the shape potential is V(p) = 1/2 * sum_edges phi(e), chosen so
that the per-agent control u_i = -sum_j g_ij z_ij is exactly the negative
gradient of V (with e = ||z||^2 - dbar^2, grad_p_i phi(e_ij) = 2 g_ij z_ij).
Scaling V leaves trajectories, equilibria, and stability verdicts unchanged.
``LeaderSpec`` holds the flex agent's leader input and its arrival test;
the integrator's compiled RK4 step states the input and the target
potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import FormationGraph, as_positions
from .potentials import PotentialFamily

# Balance residual max_i ||u_i|| below which a realization is an equilibrium:
# the default of integrate, classify, analyze and the CLI.
EQ_TOL = 1e-9


@dataclass(frozen=True)
class EdgeState:
    """Per-edge kinematics and potential derivatives, in edge order."""

    z: np.ndarray      # (m, d) edge vectors p_i - p_j
    e: np.ndarray      # (m,) squared distance errors
    g: np.ndarray      # (m,) d phi / d e
    rho: np.ndarray    # (m,) d g / d e
    u: np.ndarray      # (N+1, d) control of the same pass, u_i = -sum_j g_ij z_ij


def _edge_kernel(pos: np.ndarray, graph: FormationGraph, bound: tuple):
    """The one pass over the edges shared by the control, the potential and
    the Hessian, at an (N+1, d) realization ``pos``, with ``bound`` the
    family bound to the graph's desired lengths, ``family.bind(graph._dbar_col)``.

    Returns edge vectors z = B^T p (m, d), squared errors e and gradients g
    as (m, 1) columns (so g z needs no broadcast view) and the control
    u = (-B)(g z) as (N+1, d) blocks, from the graph's cached B^T and -B,
    all in fresh arrays.  ||z||^2 is summed unfused, left to right, as the
    integrator's compiled step sums it (``np.vecdot`` would fuse
    multiply-adds).  An exactly-zero edge vector contributes no force, even
    for families whose g diverges at the coincidence boundary: zeroing its
    g z changes nothing unless that product is non-finite.  There is no
    domain check here:
    ||z||^2 is a sum of squares, so it is >= 0 (or NaN), and rounding is
    monotone, so e = fl(||z||^2 - dbar^2) >= -dbar^2 also in floating
    point.  The kernel sets no floating-point error state (g may divide by
    zero at the coincidence boundary, a diverging step overflows, non-finite
    input gives invalid products): each public entry point that runs it
    enters ``_ignore_fp`` once per call.

    z = B^T p is exact for finite positions.  A non-finite coordinate of
    one node makes that coordinate of every edge vector non-finite
    (0 * inf = NaN), hence every e, g and block of u, not only those of
    the node's own edges.
    """
    z = np.dot(graph._incidence_t, pos)
    sq = np.add.reduce(z * z, axis=1, keepdims=True)
    e = sq - graph._dbar2_col
    g = bound[1](e)
    f = g * z
    if np.count_nonzero(sq) < len(sq):
        f[sq[:, 0] == 0.0] = 0.0
    return z, e, g, np.dot(graph._neg_incidence, f)


# used as a decorator; nests safely
_ignore_fp = np.errstate(divide="ignore", invalid="ignore", over="ignore")


@_ignore_fp
def edge_states(p, graph: FormationGraph, family: PotentialFamily) -> EdgeState:
    bound = family.bind(graph._dbar_col)
    z, e, g, u = _edge_kernel(as_positions(p, graph), graph, bound)
    return EdgeState(z=z, e=e.ravel(), g=g.ravel(), rho=bound[2](e).ravel(), u=u)


@_ignore_fp
def potential_value(p, graph: FormationGraph, family: PotentialFamily) -> float:
    """V = 1/2 sum phi(e) at a realization."""
    pos, bound = as_positions(p, graph), family.bind(graph._dbar_col)
    return 0.5 * float(bound[0](_edge_kernel(pos, graph, bound)[1]).sum())


def balance_residuals(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """(N+1,) array of per-agent balance norms ||sum_j g_ij z_ij||."""
    u = gradient_control(p, graph, family).reshape(graph.num_nodes, graph.dimension)
    return np.linalg.norm(u, axis=1)


@_ignore_fp
def gradient_control(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """Stacked control u with blocks u_i = -sum_j g_ij z_ij."""
    return _edge_kernel(as_positions(p, graph), graph, family.bind(graph._dbar_col))[3].reshape(-1)


@dataclass(frozen=True)
class LeaderSpec:
    """Additional flex-agent input of the closed loop.  ``integrate``'s
    compiled step adds it to the control and its target potential to V;
    ``arrived`` takes a flat, node-major state: a list or a 1-D array of
    (N+1) d numbers, the flex agent's d coordinates last.

    mode 'none'     : plain gradient law.
    mode 'windowed' : v(t) active only on [t0, tf], zero outside.
    mode 'target'   : v(t) = k_f * (p_t - p_flex), pulls the flex agent to p_t.
    """

    mode: str = "none"
    v: Callable[[float], np.ndarray] | None = None
    t0: float = 0.0
    tf: float = 0.0
    k_f: float = 0.0
    p_t: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("none", "windowed", "target"):
            raise ValueError(f"unknown leader mode {self.mode!r}")
        if self.mode == "windowed":
            if self.v is None or not np.isfinite([self.t0, self.tf]).all() or self.tf < self.t0:
                raise ValueError("windowed mode needs v(t) and a finite window [t0, tf]")
        if self.mode == "target":
            object.__setattr__(self, "p_t", np.asarray(self.p_t, dtype=float))    # NaN for None
            if not (0 < self.k_f < np.inf and np.isfinite(self.p_t).all()):     # False for NaN
                raise ValueError("target mode needs a finite k_f > 0 and a finite target point")

    def check(self, dimension: int) -> LeaderSpec:
        """This spec; ValueError unless a target point, or a windowed
        velocity at t0, has ``dimension`` coordinates (the flat state has no
        rows to tell the flex agent's coordinates by)."""
        if self.mode == "target" and self.p_t.shape != (dimension,):
            raise ValueError(f"target p_t must be {dimension} finite coordinates")
        if self.mode == "windowed" and np.shape(self.v(self.t0)) != (dimension,):
            raise ValueError(f"windowed v(t) must be {dimension} velocity components")
        return self

    def arrived(self, state) -> bool:
        """Whether the flex agent is within 1e-3 of p_t, ||p_t - p_flex||^2
        summed left to right; False outside target mode."""
        if self.mode != "target":
            return False
        total = 0.0
        for target, x in zip(self.p_t.tolist(), state[len(state) - len(self.p_t):]):
            total += (target - x) * (target - x)
        return math.sqrt(total) < 1e-3


def leader_spec_from_json(doc, dimension: int) -> LeaderSpec:
    """Parse {"mode": ...} leader documents; piecewise-constant samples for
    windowed mode as {"t0":, "tf":, "v": [[t, vx, vy(, vz)], ...]}."""
    mode = "none" if doc is None else doc.get("mode", "none")
    if mode == "target":
        return LeaderSpec(mode="target", k_f=float(doc["k_f"]), p_t=doc["p_t"]).check(dimension)
    if mode == "windowed":
        samples = np.asarray(doc["v"], dtype=float)
        if (samples.ndim != 2 or samples.shape[1] != 1 + dimension
                or not np.isfinite(samples).all() or (np.diff(samples[:, 0]) <= 0).any()):
            raise ValueError(f"windowed v must be a non-empty list of finite [t, {dimension} "
                             f"velocity components] rows, t strictly increasing")
        times, values = samples[:, 0], samples[:, 1:]

        def v(t, times=times, values=values):
            k = int(np.searchsorted(times, t, side="right")) - 1
            k = min(max(k, 0), len(times) - 1)
            return values[k]

        return LeaderSpec(mode="windowed", v=v, t0=float(doc["t0"]), tf=float(doc["tf"]))
    return LeaderSpec(mode=mode)            # "none", or LeaderSpec's unknown-mode error

