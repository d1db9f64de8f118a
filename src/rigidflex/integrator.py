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

from .control import EQ_TOL, LeaderSpec, _bound, _check_eq_tol, _norm
from .graph import FormationGraph, _floats, _integer, as_positions
from .potentials import PotentialFamily


class IntegrationError(RuntimeError):
    def __init__(self, message, time=None, last_state=None):
        super().__init__(message)
        self.time = time
        self.last_state = last_state


@dataclass(frozen=True)
class PerturbationEvent:
    """Instantaneous displacement of one agent at a scheduled time, as
    values only, so that equal events are equal and hash alike."""

    time: float
    agent: int                      # 1-based agent label
    displacement: tuple             # d floats

    def __post_init__(self):
        object.__setattr__(self, "time", _floats((self.time,), "event times")[0])
        object.__setattr__(self, "displacement", _floats(self.displacement, "displacements"))
        object.__setattr__(self, "agent", _integer(self.agent, 1, "agent labels"))
        if not all(map(math.isfinite, self.displacement)):
            raise ValueError("perturbation displacements (and random magnitudes) must be finite")


def random_perturbation(time: float, agent: int, dimension: int, magnitude: float,
                        seed: int) -> PerturbationEvent:
    """Seeded random-direction displacement of fixed magnitude, the draw
    scaled by its ``_norm``, so no BLAS kernel changes it; ValueError unless
    the seed is a non-negative integer and the magnitude a number."""
    rng = np.random.default_rng(_integer(seed, 0, "random seeds"))
    v = rng.standard_normal(dimension).tolist()
    scale = _floats((magnitude,), "random magnitudes")[0] / _norm(v)
    return PerturbationEvent(time=time, agent=agent, displacement=[x * scale for x in v])


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


def integrate(p0, graph: FormationGraph, family: PotentialFamily, t_end: float,
              dt: float = 1e-3, leader: LeaderSpec | None = LeaderSpec(),
              events=(), record_every: int = 10, eq_tol: float = EQ_TOL) -> Trajectory:
    """Integrate the closed loop from p0 to t_end with fixed-step RK4.

    Scheduled perturbations are applied as instantaneous state jumps at
    exactly their stated times (step clamping).  The returned trajectory
    carries an event log (equilibrium detection, perturbations, target
    arrival) and the worst per-step increase of V plus the target potential
    (k_f/2) ||p_t - p_flex||^2 over the steps that do not meet a windowed
    leader's [t0, tf].  The velocity is the gradient control plus the
    leader's input on the flex agent (none for the default leader, made
    once, or None).  Every input, each event's agent and
    displacement too, is checked once here: ValueError before the first step.

    The state is one flat, node-major list of (N+1) d Python floats: on
    states this small, numpy's per-call cost would be most of the work.
    The loop turns once per record: each turn is one call of the
    straight-line ``advance`` that ``control._bound`` ties to the graph,
    the family and the leader, bound once per (graph, family, leader).
    It takes the steps up to the next record (every record_every steps
    and at each event and t_end) and returns the control, squared
    errors and Lyapunov value there, which serve as the next call's first
    stage and the record, and the balance residual of that control, which
    the equilibrium check reads; ``evaluate`` gives them at each segment
    start.  Records go into compact ``array('d')`` buffers and make no
    numpy call: the recorded gradient norm sums the squared control left to
    right (``_norm``).  A perturbation is added to the agent's d
    floats of the list; an add that overflows gives inf, and the guard
    judges the state it leaves.  The loop does no numpy arithmetic.

    One guard per step: V at the new state must be finite, else
    IntegrationError carries the time and state before that step.  A
    non-finite coordinate makes V non-finite, and the pass cannot leave
    the potential's domain, so no other check is needed.  A segment start
    (p0 or a perturbed state) where V is not finite raises too.
    """
    if not 0 < t_end < math.inf:       # False for NaN
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    record_every = _integer(record_every, 1, "record_every values")
    _check_eq_tol(eq_tol)
    n, d = graph.num_nodes, graph.dimension
    leader = (leader or LeaderSpec()).check(d)
    p = as_positions(p0, graph).ravel().tolist()
    schedule = sorted(events, key=lambda ev: ev.time)
    for ev in schedule:                 # every event, before the first step
        if not 0.0 <= ev.time <= t_end:
            raise ValueError("perturbation events must lie inside [0, t_end]")
        if ev.agent > n:
            raise ValueError(f"agent {ev.agent} out of range for {n} nodes")
        if len(ev.displacement) != d:
            raise ValueError("displacement does not match the ambient dimension")
    advance = _bound(graph, family, leader, key=(leader.mode, "advance"))
    # every mode but target, the one that adds a term to V, shares one evaluate
    target = "target" if leader.mode == "target" else "none"
    evaluate = _bound(graph, family, leader, key=(target, "evaluate"))

    def failure(w, t_w, t, state):
        """The error for a Lyapunov value w reached at t_w that is not
        finite; it carries the last accepted time and state."""
        return IntegrationError(
            f"Lyapunov value {w!r} at t={t_w:g} is not finite (coincident "
            "agents on the potential's boundary, or a non-finite state)",
            time=t, last_state=np.array(state).reshape(n, d))

    def start(t, state):
        """``evaluate`` at the start of a segment, where V must be finite."""
        u, e, w = evaluate(state)[:3]
        if not math.isfinite(w):
            raise failure(w, t, t, state)
        return u, e, w

    times, states, errors, gnorms = array("d"), array("d"), array("d"), array("d")
    log: list[tuple[float, str]] = []
    max_dv = -math.inf
    eq_armed = True
    target_armed = True

    def record(t, state, e, u):
        """Append a sample."""
        times.append(t)
        states.extend(state)
        errors.extend(e)
        gnorms.append(_norm(u))

    def check_events(t, state, residual):
        nonlocal eq_armed, target_armed
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
        while boundary - t > 1e-12:
            p, k1, e, w, t, max_dv, residual = advance(p, k1, w, t, boundary, dt,
                                                       record_every, max_dv)
            if not math.isfinite(w):
                raise failure(w, t + min(dt, boundary - t), t, p)
            record(t, p, e, k1)
            check_events(t, p, residual)
        t = boundary
        if event is not None:
            i = d * (event.agent - 1)
            p[i:i + d] = [x + y for x, y in zip(p[i:i + d], event.displacement)]
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
