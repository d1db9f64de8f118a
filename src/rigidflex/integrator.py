"""Closed-loop simulation of the single-integrator formation dynamics.

A single fixed-step classical Runge-Kutta (RK4) loop, with exact clamping
onto scheduled event times.  Along every run the Lyapunov quantity, V plus
the leader's target potential, is monitored step by step.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .control import EQ_TOL, LeaderSpec, _float_pass, _ignore_fp
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
        """One header line, then one line per record: each value as
        ``repr(float(x))``.  Rows are formatted from Python floats, 256 at a
        time, so the whole table never exists as float objects."""
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
            for start in range(0, len(data), 256):
                for row in data[start:start + 256].tolist():
                    fh.write(",".join(map(repr, row)) + "\n")

    def events_to_json(self, path):
        with open(path, "w") as fh:
            json.dump([{"time": t, "kind": k} for t, k in self.events], fh, indent=2)
            fh.write("\n")


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

    The state is one flat, node-major list of (N+1) d Python floats, and
    each RK4 stage is one ``_float_pass`` over the edges, bound to the graph
    and the family once per call: on states this small, numpy's per-call
    cost would be most of the work.  The loop runs the pass once per
    accepted state and reuses it as the next step's first stage and for the
    Lyapunov value, the record and the equilibrium check: four passes per
    step, plus one at the start of each segment.  The stage states and
    p + (h/6) (((k1 + 2 k2) + 2 k3) + k4) are formed per coordinate, in the
    order of numpy's product of (1, 2, 2, 1) with the stage stack.  Records
    go into compact ``array('d')`` buffers; the equilibrium check and the
    recorded gradient norm take numpy's norms of the recorded control.  The
    whole call ignores floating-point divide, invalid and overflow errors
    once: the guard judges the non-finite values they leave.

    One guard per step: V at the new state must be finite, else
    IntegrationError carries the time and state before that step.  A
    non-finite coordinate makes V non-finite, and the pass cannot leave
    the potential's domain, so no other check is needed.  A segment start
    (p0 or a perturbed state) where V is not finite raises too.
    """
    if not 0 < t_end < math.inf:       # False for NaN
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not (0 < dt < math.inf and record_every >= 1):
        raise ValueError("dt must be positive and finite and record_every at least 1")
    n, d = graph.num_nodes, graph.dimension
    leader = (leader or LeaderSpec()).check(d)
    p = as_positions(p0, graph).ravel().tolist()
    schedule = sorted(events, key=lambda ev: ev.time)
    if any(not (0.0 <= ev.time <= t_end) for ev in schedule):
        raise ValueError("perturbation events must lie inside [0, t_end]")
    for ev in schedule:                 # every event, before the first step
        _check_event(ev, graph)
    run, potential = _float_pass(graph, family)      # once per call

    def evaluate(state):
        """The pass at an accepted state: control, squared errors, Lyapunov value."""
        u, e = run(state)
        return u, e, potential(e) + leader.potential(state)

    def guard(w, t_w, t, state):
        """Raise unless the Lyapunov value w reached at t_w is finite; the
        error carries the last accepted time and state."""
        if not math.isfinite(w):
            raise IntegrationError(
                f"Lyapunov value {w!r} at t={t_w:g} is not finite (coincident "
                "agents on the potential's boundary, or a non-finite state)",
                time=t, last_state=np.array(state).reshape(n, d))

    def start(t, state):
        """``evaluate`` at the start of a segment, where V must be finite."""
        u, e, w = evaluate(state)
        guard(w, t, t, state)
        return u, e, w

    # V is no Lyapunov function while a windowed input acts: a step that
    # meets [t0, tf] is left out of the worst increase
    t0, tf = (leader.t0, leader.tf) if leader.mode == "windowed" else (math.inf, -math.inf)

    times, states, errors, gnorms = array("d"), array("d"), array("d"), array("d")
    log: list[tuple[float, str]] = []
    max_dv = -math.inf
    eq_armed = True
    target_armed = True

    def record(t, state, e, u):
        """Append a sample; return its control as an array."""
        times.append(t)
        states.extend(state)
        errors.extend(e)
        u = np.array(u)
        gnorms.append(np.linalg.norm(u))
        return u

    def check_events(t, state, u):
        nonlocal eq_armed, target_armed
        residual = float(np.linalg.norm(u.reshape(n, d), axis=1).max())
        if eq_armed and residual < eq_tol:
            log.append((t, "equilibrium_detected"))
            eq_armed = False
        elif not eq_armed and residual > 100.0 * eq_tol:
            eq_armed = True
        if target_armed and leader.arrived(state):
            log.append((t, "target_reached"))
            target_armed = False

    t = 0.0
    k1, e, w = start(t, p)
    record(t, p, e, k1)
    for event, boundary in [*((ev, ev.time) for ev in schedule), (None, t_end)]:
        w_prev = w
        step_count = 0
        while boundary - t > 1e-12:
            h = min(dt, boundary - t)
            half, t_half, sixth = 0.5 * h, t + 0.5 * h, h / 6.0
            leader.add_input(t, p, k1)
            s = [x + k * half for x, k in zip(p, k1)]
            k2 = leader.add_input(t_half, s, run(s)[0])
            s = [x + k * half for x, k in zip(p, k2)]
            k3 = leader.add_input(t_half, s, run(s)[0])
            s = [x + k * h for x, k in zip(p, k3)]
            k4 = leader.add_input(t + h, s, run(s)[0])
            p_new = [x + (((a + 2.0 * b) + 2.0 * c) + k) * sixth
                     for x, a, b, c, k in zip(p, k1, k2, k3, k4)]
            k1, e, w = evaluate(p_new)
            guard(w, t + h, t, p)
            if not (t <= tf and t0 <= t + h):
                max_dv = max(max_dv, w - w_prev)
            p, t = p_new, t + h
            w_prev = w
            step_count += 1
            if step_count % record_every == 0 or boundary - t <= 1e-12:
                check_events(t, p, record(t, p, e, k1))
        t = boundary
        if event is not None:
            p = apply_perturbation(p, event, graph).tolist()
            log.append((boundary, "perturbation_applied"))
            eq_armed = True
            k1, e, w = start(t, p)
            record(t, p, e, k1)

    k = len(times)
    return Trajectory(
        times=np.frombuffer(times),
        states=np.frombuffer(states).reshape(k, n * d),
        edge_errors=np.frombuffer(errors).reshape(k, -1),
        grad_norms=np.frombuffer(gnorms),
        events=log,
        max_lyapunov_increase=float(max_dv),
        graph=graph,
    )
