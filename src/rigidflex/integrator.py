"""Closed-loop simulation of the single-integrator formation dynamics.

A single fixed-step classical Runge-Kutta (RK4) loop, with exact clamping
onto scheduled event times.  Along every run the Lyapunov quantity, V plus
the leader's target potential, is monitored step by step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .control import EQ_TOL, LeaderSpec, _edge_kernel, _ignore_fp, _workspace
from .graph import FormationGraph, as_positions
from .potentials import PotentialFamily


class IntegrationError(RuntimeError):
    def __init__(self, message, time=None, last_state=None):
        super().__init__(message)
        self.time = time
        self.last_state = last_state


@dataclass(frozen=True)
class PerturbationEvent:
    """Instantaneous displacement of one agent at a scheduled time."""

    time: float
    agent: int                      # 1-based agent label
    displacement: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "displacement", np.asarray(self.displacement, dtype=float))
        object.__setattr__(self, "agent", _integer(self.agent, 1, "agent labels"))
        if not np.isfinite(self.displacement).all():
            raise ValueError("perturbation displacements (and random magnitudes) must be finite")


def _integer(value, least: int, what: str) -> int:
    """``value`` as an int, 7.0 as 7; ValueError unless it is an integer >= ``least``.
    An int is taken exactly, not rounded through a float."""
    whole = int(value) if isinstance(value, (int, np.integer)) else float(value)
    if not (whole >= least and whole % 1 == 0):     # False for NaN and infinities
        raise ValueError(f"{what} are integers >= {least}, got {value!r}")
    return int(whole)


def random_perturbation(time: float, agent: int, dimension: int, magnitude: float,
                        seed: int) -> PerturbationEvent:
    """Seeded random-direction displacement of fixed magnitude; ValueError
    unless the seed is a non-negative integer."""
    rng = np.random.default_rng(_integer(seed, 0, "random seeds"))
    v = rng.standard_normal(dimension)
    v *= magnitude / np.linalg.norm(v)
    return PerturbationEvent(time=time, agent=agent, displacement=v)


def _check_event(event: PerturbationEvent, graph: FormationGraph):
    """Raise ValueError unless the event's agent and displacement fit the graph."""
    if event.agent > graph.num_nodes:
        raise ValueError(f"agent {event.agent} out of range for {graph.num_nodes} nodes")
    if event.displacement.shape != (graph.dimension,):
        raise ValueError("displacement does not match the ambient dimension")


def apply_perturbation(p, event: PerturbationEvent, graph: FormationGraph) -> np.ndarray:
    _check_event(event, graph)
    pos = as_positions(p, graph).copy()
    pos[event.agent - 1] += event.displacement
    return pos.reshape(-1)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray              # (k, (N+1) d)
    edge_errors: np.ndarray         # (k, m)
    grad_norms: np.ndarray          # (k,)
    events: list = field(default_factory=list)   # (time, kind) pairs
    max_lyapunov_increase: float = -np.inf
    graph: FormationGraph | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path):
        g = self.graph
        coords = "xyz"[: g.dimension]
        header = ["t"]
        for i in range(1, g.num_nodes + 1):
            header += [f"{c}{i}" for c in coords]
        header += [f"e_{i}{j}" for (i, j) in g.edges]
        header += ["gradnorm"]
        data = np.column_stack([self.times, self.states, self.edge_errors, self.grad_norms])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in data:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")

    def events_to_json(self, path):
        with open(path, "w") as fh:
            json.dump([{"time": t, "kind": k} for t, k in self.events], fh, indent=2)
            fh.write("\n")


_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])


def _rk4_step(f, t, p, h, k, s, out):
    """One classical RK4 step from the (N+1, d) state ``p`` into C-contiguous ``out``.

    ``k`` is the four rows of the stage stack, then the stack as a (4, -1)
    view K: the caller supplies row 1 = f(t, p), and ``f(t, state, row)``
    writes each later stage into its row.  Stage states p + c k are built in
    the scratch buffer ``s``; ``out`` takes p + (h / 6) (1, 2, 2, 1) K.
    """
    k1, k2, k3, k4, stack = k
    half = 0.5 * h
    f(t + half, np.add(p, np.multiply(k1, half, s), s), k2)
    f(t + half, np.add(p, np.multiply(k2, half, s), s), k3)
    f(t + h, np.add(p, np.multiply(k3, h, s), s), k4)
    np.dot(_RK4_WEIGHTS, stack, out.ravel())
    return np.add(p, np.multiply(out, h / 6.0, out), out)


@_ignore_fp
def integrate(p0, graph: FormationGraph, family: PotentialFamily, t_end: float,
              dt: float = 1e-3, leader: LeaderSpec | None = None,
              events=(), record_every: int = 10, eq_tol: float = EQ_TOL) -> Trajectory:
    """Integrate the closed loop from p0 to t_end with fixed-step RK4.

    Scheduled perturbations are applied as instantaneous state jumps at
    exactly their stated times (step clamping).  The returned trajectory
    carries an event log (equilibrium detection, perturbations, target
    arrival) and the worst per-step increase of V + ``leader.potential``
    over the steps that do not meet a windowed leader's [t0, tf].
    The velocity is the gradient control plus ``leader.add_input``; a target
    point that is not d coordinates raises ValueError before the first step.

    The state is an (N+1, d) array, the edge kernel's layout.  The loop
    runs the kernel once per accepted state and reuses that pass as the next
    step's first RK4 stage and for the Lyapunov value, the record and the
    equilibrium check: four kernel passes per step, plus one at the start of
    each segment.  The family is bound to the desired lengths once per
    call.  Each pass writes into one workspace made per call, its
    control into a row of the (4, N+1, d) stage stack, which the step
    combines in one product into the spare of two state buffers; records
    and IntegrationError.last_state are copies.  The whole call ignores
    floating-point divide, invalid and overflow errors once: the guard
    judges the non-finite values they leave.

    One guard per step: V at the new state must be finite, else
    IntegrationError carries the time and state before that step.  A
    non-finite coordinate makes V non-finite, and the kernel cannot leave
    the potential's domain, so no other check is needed.  A segment start
    (p0 or a perturbed state) where V is not finite raises too.
    """
    if not 0 < t_end < math.inf:       # False for NaN
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not (0 < dt < math.inf and record_every >= 1):
        raise ValueError("dt must be positive and finite and record_every at least 1")
    n, d = graph.num_nodes, graph.dimension
    leader = (leader or LeaderSpec()).check(d)
    p = as_positions(p0, graph).astype(float, order="C")
    spare = np.empty((n, d))        # the state buffer the next step writes
    stack = np.empty((4, n, d))     # RK4 stages; row 0 holds the accepted state's pass
    rows = (*stack, stack.reshape(4, -1))     # its rows, and K for _rk4_step
    scratch = np.empty((n, d))      # RK4 stage state
    pull = np.empty(d)              # scratch of leader.add_input
    bound, ws = family.bind(graph._dbar_col), _workspace(graph)    # once per call
    k1 = stack[0]

    def stage(t, state, out):
        return leader.add_input(t, state, _edge_kernel(state, graph, bound, out, ws)[3], pull)

    def evaluate(state):
        """Kernel pass at an accepted state, its control written into ``k1``:
        squared errors (a workspace column), control, Lyapunov value."""
        _, e, _, u = _edge_kernel(state, graph, bound, k1, ws)
        return e, u, 0.5 * float(bound[0](e).sum()) + leader.potential(state)

    def guard(w, t_w, t, state):
        """Raise unless the Lyapunov value w reached at t_w is finite; the
        error carries the last accepted time and state."""
        if not math.isfinite(w):
            raise IntegrationError(
                f"Lyapunov value {w!r} at t={t_w:g} is not finite (coincident "
                "agents on the potential's boundary, or a non-finite state)",
                time=t, last_state=state.copy())

    def start(t, state):
        """``evaluate`` at the start of a segment, where V must be finite."""
        e, u, w = evaluate(state)
        guard(w, t, t, state)
        return e, u, w

    schedule = sorted(events, key=lambda ev: ev.time)
    if any(not (0.0 <= ev.time <= t_end) for ev in schedule):
        raise ValueError("perturbation events must lie inside [0, t_end]")
    for ev in schedule:                 # every event, before the first step
        _check_event(ev, graph)
    # V is no Lyapunov function while a windowed input acts: a step that
    # meets [t0, tf] is left out of the worst increase
    t0, tf = (leader.t0, leader.tf) if leader.mode == "windowed" else (math.inf, -math.inf)

    times, states, errors, gnorms = [], [], [], []
    log: list[tuple[float, str]] = []
    max_dv = -np.inf
    eq_armed = True
    target_armed = True

    def record(t, state, e, u):
        times.append(t)
        states.append(state.copy())
        errors.append(e.copy())
        gnorms.append(np.linalg.norm(u))

    def check_events(t, state, u):
        nonlocal eq_armed, target_armed
        residual = float(np.linalg.norm(u, axis=1).max())
        if eq_armed and residual < eq_tol:
            log.append((t, "equilibrium_detected"))
            eq_armed = False
        elif not eq_armed and residual > 100.0 * eq_tol:
            eq_armed = True
        if target_armed and leader.arrived(state):
            log.append((t, "target_reached"))
            target_armed = False

    t = 0.0
    e, u, w = start(t, p)
    record(t, p, e, u)
    for event, boundary in [*((ev, ev.time) for ev in schedule), (None, t_end)]:
        w_prev = w
        step_count = 0
        while boundary - t > 1e-12:
            h = min(dt, boundary - t)
            leader.add_input(t, p, k1, pull)
            p_new = _rk4_step(stage, t, p, h, rows, scratch, spare)
            e, u, w = evaluate(p_new)
            guard(w, t + h, t, p)
            if not (t <= tf and t0 <= t + h):
                max_dv = max(max_dv, w - w_prev)
            p, spare, t = p_new, p, t + h
            w_prev = w
            step_count += 1
            if step_count % record_every == 0 or boundary - t <= 1e-12:
                record(t, p, e, u)
                check_events(t, p, u)
        t = boundary
        if event is not None:
            p = apply_perturbation(p, event, graph).reshape(n, d)
            log.append((boundary, "perturbation_applied"))
            eq_armed = True
            e, u, w = start(t, p)
            record(t, p, e, u)

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states).reshape(len(states), n * d),
        edge_errors=np.asarray(errors).reshape(len(errors), -1),
        grad_norms=np.asarray(gnorms),
        events=log,
        max_lyapunov_increase=float(max_dv),
        graph=graph,
    )
