"""Independent reference implementations that the tests compare the package against."""

import numpy as np

from rigidflex.control import gradient_control
from rigidflex.integrator import integrate
from rigidflex.oracle import newton_polish
from rigidflex.stability import classify


def leader_control(p, t, graph, family, spec):
    """Gradient control plus the leader input on the flex block, written
    from the spec's fields apart from ``LeaderSpec.add_input``."""
    u = gradient_control(p, graph, family)
    d = graph.dimension
    p_flex = np.asarray(p, dtype=float).reshape(-1)[-d:]
    if spec.mode == "target":
        u[-d:] += spec.k_f * (spec.p_t - p_flex)
    elif spec.mode == "windowed" and spec.t0 <= t <= spec.tf:
        u[-d:] += np.asarray(spec.v(t), dtype=float)
    return u


def local_frame_control(neighbor_offsets, g_values):
    """Control of one agent from measurements in its own frame.

    ``neighbor_offsets`` holds the relative positions p_i - p_j expressed in
    the agent's rotated frame, one row per neighbor; ``g_values`` the matching
    potential gradients.  No alignment between agents' frames is needed: the
    result equals the rotated global-frame control block.
    """
    offsets = np.atleast_2d(np.asarray(neighbor_offsets, dtype=float))
    g = np.asarray(g_values, dtype=float)
    return -(g[:, None] * offsets).sum(axis=0)


def psd_check(matrix):
    """(min eigenvalue, PSD verdict) of a symmetric matrix at the tolerance
    1e-8 * max(||H||_2, 1), the default of ``analyze``'s verdict."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, np.abs(matrix).max())):
        raise ValueError("psd_check expects a symmetric matrix")
    spectrum = np.linalg.eigvalsh(matrix)
    eig_tol = 1e-8 * max(abs(spectrum[0]), abs(spectrum[-1]), 1.0)
    return float(spectrum[0]), bool(spectrum[0] >= -eig_tol)


def capture_from_flow(p0, graph, family, t_end):
    """The flow cross-check of the oracle's constructions: integrate from p0
    for t_end in RK4 steps of 1e-3, take the recorded state nearest the
    first equilibrium detected at residual 1e-6, Newton-polish it, and
    return its positions and class."""
    traj = integrate(p0, graph, family, t_end=t_end, dt=1e-3, eq_tol=1e-6)
    hit = next(t for t, kind in traj.events if kind == "equilibrium_detected")
    p = newton_polish(traj.states[np.argmin(np.abs(traj.times - hit))], graph, family)
    p = p.reshape(graph.num_nodes, graph.dimension)
    return p, classify(p, graph, family)
