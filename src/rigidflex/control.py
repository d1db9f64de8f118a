"""Gradient control law and the flex agent's leader input.

Convention: the shape potential is V(p) = 1/2 * sum_edges phi(e), chosen so
that the per-agent control u_i = -sum_j g_ij z_ij is exactly the negative
gradient of V (with e = ||z||^2 - dbar^2, grad_p_i phi(e_ij) = 2 g_ij z_ij).
Scaling V leaves trajectories, equilibria, and stability verdicts unchanged.
``LeaderSpec`` owns the closed loop's one leader law: the input it adds to
the flex agent's control, its target potential and its arrival test.
"""

from __future__ import annotations

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


def _workspace(graph: FormationGraph) -> tuple:
    """``_edge_kernel``'s buffers at one graph: z, squared lengths, e, g z."""
    m, d = graph.num_edges, graph.dimension
    return np.empty((m, d)), np.empty((m, 1)), np.empty((m, 1)), np.empty((m, d))


def _edge_kernel(pos: np.ndarray, graph: FormationGraph, bound: tuple,
                 u: np.ndarray | None = None, ws: tuple | None = None):
    """The one pass over the edges shared by the control, the potential and
    the Hessian, at an (N+1, d) realization ``pos``, with ``bound`` the
    family bound to the graph's desired lengths, ``family.bind(graph._dbar_col)``.

    Returns edge vectors z = B^T p (m, d), squared errors e and gradients g
    as (m, 1) columns (so g z needs no broadcast view) and the control
    u = (-B)(g z) as (N+1, d) blocks, from the graph's cached B^T and -B.
    u goes into a given C-contiguous (N+1, d) float buffer, the rest into
    the buffers of ``ws``, a ``_workspace`` made once per ``integrate``
    call (a caller that keeps them past the next pass copies them); without
    these, into fresh arrays.  An exactly-zero edge vector contributes no
    force, even for families whose g diverges at the coincidence boundary:
    zeroing its g z changes nothing unless that product is non-finite.
    There is no domain check here: ||z||^2 is a sum of squares, so it is
    >= 0 (or NaN), and rounding is monotone, so e = fl(||z||^2 - dbar^2)
    >= -dbar^2 also in floating point.  The kernel sets no floating-point
    error state (g may divide by zero at the coincidence boundary, a
    diverging step overflows, non-finite input gives invalid products): each
    public entry point that runs it enters ``_ignore_fp`` once per call.

    z = B^T p is exact for finite positions.  A non-finite coordinate of
    one node makes that coordinate of every edge vector non-finite
    (0 * inf = NaN), hence every e, g and block of u, not only those of
    the node's own edges.
    """
    z, sq, e, f = ws or (None, None, None, None)
    z = np.dot(graph._incidence_t, pos, z)
    sq = np.vecdot(z, z, out=sq, keepdims=True)
    e = np.subtract(sq, graph._dbar2_col, e)
    g = bound[1](e)
    f = np.multiply(g, z, f)
    if np.count_nonzero(sq) < len(sq):
        f[sq[:, 0] == 0.0] = 0.0
    return z, e, g, np.dot(graph._neg_incidence, f, u)


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
    """Additional flex-agent input, the one leader law of the closed loop.
    Its methods take an (N+1, d) state or a (..., N+1, d) stack of them.

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
        """This spec; ValueError unless a target point has ``dimension`` coordinates."""
        if self.mode == "target" and self.p_t.shape != (dimension,):
            raise ValueError(f"target p_t must be {dimension} finite coordinates")
        return self

    def add_input(self, t: float, state: np.ndarray, u: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Add the input at time t in place to the flex rows of the control ``u``
        at ``state`` and return ``u``: target mode as u + k_f (p_t - p_flex),
        its pull formed in the (..., d) scratch ``out`` when given."""
        if self.mode == "target":
            flex, pull = u[..., -1, :], np.subtract(self.p_t, state[..., -1, :], out)
            np.add(flex, np.multiply(self.k_f, pull, pull), flex)
        elif self.mode == "windowed" and self.t0 <= t <= self.tf:
            flex = u[..., -1, :]
            np.add(flex, self.v(t), flex)
        return u

    def potential(self, state: np.ndarray):
        """(k_f/2) ||p_t - p_flex||^2 per state in target mode, else 0.0."""
        if self.mode != "target":
            return 0.0
        return 0.5 * self.k_f * ((self.p_t - state[..., -1, :]) ** 2).sum(axis=-1)

    def arrived(self, state: np.ndarray):
        """Per state, whether the flex agent is within 1e-3 of p_t; False outside target mode."""
        if self.mode != "target":
            return False
        return np.linalg.norm(state[..., -1, :] - self.p_t, axis=-1) < 1e-3


def leader_spec_from_json(doc, dimension: int) -> LeaderSpec:
    """Parse {"mode": ...} leader documents; piecewise-constant samples for
    windowed mode as {"t0":, "tf":, "v": [[t, vx, vy(, vz)], ...]}."""
    if doc is None:
        return LeaderSpec()
    mode = doc.get("mode", "none")
    if mode == "none":
        return LeaderSpec()
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
    raise ValueError(f"unknown leader mode {mode!r}")

