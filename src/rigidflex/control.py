"""Gradient control law, local-frame form, and the leader-augmented variant.

Convention: the shape potential is V(p) = 1/2 * sum_edges phi(e), chosen so
that the per-agent control u_i = -sum_j g_ij z_ij is exactly the negative
gradient of V (with e = ||z||^2 - dbar^2, grad_p_i phi(e_ij) = 2 g_ij z_ij).
Scaling V leaves trajectories, equilibria, and stability verdicts unchanged.
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
    error state (g may divide by zero at the coincidence boundary;
    non-finite input gives invalid products): each public entry point that
    runs it enters ``_ignore_fp`` once per call.

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


_ignore_fp = np.errstate(divide="ignore", invalid="ignore")   # used as a decorator; nests safely


@_ignore_fp
def edge_states(p, graph: FormationGraph, family: PotentialFamily) -> EdgeState:
    bound = family.bind(graph._dbar_col)
    z, e, g, u = _edge_kernel(as_positions(p, graph), graph, bound)
    return EdgeState(z=z, e=e.ravel(), g=g.ravel(), rho=bound[2](e).ravel(), u=u)


def _lyapunov(pos: np.ndarray, e: np.ndarray, phi, spec: LeaderSpec | None) -> float:
    """V = 1/2 sum phi(e) for the (m, 1) column e and the bound phi, plus
    (k_f/2) ||p_t - p_flex||^2 in target mode."""
    v = 0.5 * float(phi(e).sum())
    if spec is not None and spec.mode == "target":
        v += 0.5 * spec.k_f * float(((spec.p_t - pos[-1]) ** 2).sum())
    return v


@_ignore_fp
def potential_value(p, graph: FormationGraph, family: PotentialFamily) -> float:
    pos, bound = as_positions(p, graph), family.bind(graph._dbar_col)
    return _lyapunov(pos, _edge_kernel(pos, graph, bound)[1], bound[0], None)


def balance_residuals(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """(N+1,) array of per-agent balance norms ||sum_j g_ij z_ij||."""
    u = gradient_control(p, graph, family).reshape(graph.num_nodes, graph.dimension)
    return np.linalg.norm(u, axis=1)


@_ignore_fp
def gradient_control(p, graph: FormationGraph, family: PotentialFamily) -> np.ndarray:
    """Stacked control u with blocks u_i = -sum_j g_ij z_ij."""
    return _edge_kernel(as_positions(p, graph), graph, family.bind(graph._dbar_col))[3].reshape(-1)


def local_frame_control(neighbor_offsets, g_values) -> np.ndarray:
    """Control of one agent from measurements in its own frame.

    ``neighbor_offsets`` holds the relative positions p_i - p_j expressed in
    the agent's rotated frame, one row per neighbor; ``g_values`` the matching
    potential gradients.  No alignment between agents' frames is needed: the
    result equals the rotated global-frame control block.
    """
    offsets = np.atleast_2d(np.asarray(neighbor_offsets, dtype=float))
    g = np.asarray(g_values, dtype=float)
    return -(g[:, None] * offsets).sum(axis=0)


@dataclass(frozen=True)
class LeaderSpec:
    """Additional flex-agent input.

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
            if not 0 < self.k_f < np.inf or self.p_t is None:      # False for NaN
                raise ValueError("target mode needs a finite k_f > 0 and a target point")
            object.__setattr__(self, "p_t", np.asarray(self.p_t, dtype=float))

    def flex_input(self, t: float, p_flex: np.ndarray) -> np.ndarray:
        if self.mode == "windowed":
            if self.t0 <= t <= self.tf:
                return np.asarray(self.v(t), dtype=float)
            return np.zeros_like(p_flex)
        if self.mode == "target":
            return self.k_f * (self.p_t - p_flex)
        return np.zeros_like(p_flex)


def leader_spec_from_json(doc, dimension: int) -> LeaderSpec:
    """Parse {"mode": ...} leader documents; piecewise-constant samples for
    windowed mode as {"t0":, "tf":, "v": [[t, vx, vy(, vz)], ...]}."""
    if doc is None:
        return LeaderSpec()
    mode = doc.get("mode", "none")
    if mode == "none":
        return LeaderSpec()
    if mode == "target":
        p_t = np.asarray(doc["p_t"], dtype=float)
        if p_t.shape != (dimension,) or not np.isfinite(p_t).all():
            raise ValueError(f"target p_t must be {dimension} finite coordinates")
        return LeaderSpec(mode="target", k_f=float(doc["k_f"]), p_t=p_t)
    if mode == "windowed":
        samples = np.asarray(doc["v"], dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 1 + dimension or not np.isfinite(samples).all():
            raise ValueError(f"windowed v must be a non-empty list of finite [t, {dimension} "
                             f"velocity components] rows")
        times, values = samples[:, 0], samples[:, 1:]

        def v(t, times=times, values=values):
            k = int(np.searchsorted(times, t, side="right")) - 1
            k = min(max(k, 0), len(times) - 1)
            return values[k]

        return LeaderSpec(mode="windowed", v=v, t0=float(doc["t0"]), tf=float(doc["tf"]))
    raise ValueError(f"unknown leader mode {mode!r}")


def leader_control(p, t: float, graph: FormationGraph, family: PotentialFamily,
                   spec: LeaderSpec) -> np.ndarray:
    """Gradient control plus the leader input injected into the flex block."""
    u = gradient_control(p, graph, family)
    if spec.mode != "none":
        d = graph.dimension
        pos = as_positions(p, graph)
        u[-d:] += spec.flex_input(t, pos[-1])
    return u
