"""Phase transport along loop trajectories and the loop holonomy.

A section component in a local frame evolves along a trajectory sigma(t) by

    d(theta)/dt = alpha_frame(X_t)(sigma(t)) - f_t(sigma(t)),

with theta the accumulated phase in revolutions (full turns).  The generator
is real, so the modulus of the section component is constant by construction
and only the phase is stored.  When the trajectory leaves the active frame's
safe zone, the frame is switched and the phase jumps by -n phi / (2 pi)
(north to south) or +n phi / (2 pi) (south to north), phi being the azimuth
of the switch point; this is the frame transition exp(-i n phi) written in
revolutions.  The reduction mod 1 of the final phase is the holonomy
argument; the unreduced lift is kept because winding computations on loop
families need it.

The phase is integrated as one adaptive system together with the trajectory,
with frame switches located by event detection inside a hysteresis band, so
a trajectory through a pole never evaluates a singular potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import (
    HamiltonianLoop,
    IntegrationError,
    LoopClosureError,
    TimeDepHamiltonian,
    _segment_times,
    check_rel_tol,
    hamiltonian_vector_field,
)
from .sphere import (
    DEFAULT_SWITCH_THETA,
    TWO_PI,
    Chart,
    OrbitSphere,
    potential_eval,
    unit_vector,
)

_ATOL = 1e-13


def circle_distance(x: float, y: float) -> float:
    """Distance between two phases in revolutions, measured on the circle."""
    d = (float(x) - float(y)) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class UnitPhase:
    """Point on the unit circle stored as a phase in revolutions, in [0, 1)."""

    value: float

    def __post_init__(self):
        if not (0.0 <= self.value < 1.0):
            raise ValueError("unit phase must lie in [0, 1); use from_revolutions")

    @classmethod
    def from_revolutions(cls, revs: float) -> "UnitPhase":
        v = float(revs) % 1.0
        if v >= 1.0:  # tiny negative inputs can round up to exactly 1.0
            v = 0.0
        return cls(v)

    @property
    def as_complex(self) -> complex:
        return complex(np.exp(2.0j * math.pi * self.value))

    def __add__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase.from_revolutions(self.value + other.value)

    def __sub__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase.from_revolutions(self.value - other.value)

    def distance_to(self, other) -> float:
        v = other.value if isinstance(other, UnitPhase) else float(other)
        return circle_distance(self.value, v)


@dataclass(frozen=True)
class PhaseState:
    """Transport state at t = 1: endpoint, phase lift in the start frame, switch count."""

    point: np.ndarray
    phase: float
    transitions: int


def transport_phase(
    M: OrbitSphere,
    loop: HamiltonianLoop,
    q,
    rel_tol: float = 1e-10,
    thresholds: tuple[float, float] = DEFAULT_SWITCH_THETA,
    check_closure: bool = True,
) -> PhaseState:
    """Transport the section phase around the loop trajectory based at q.

    Requires the loop Hamiltonian to be normalized (zero mean); the result's
    ``phase`` is the unreduced lift in revolutions, and its reduction mod 1
    is the holonomy argument.  Raises LoopClosureError when the trajectory
    from q fails to return to q within the loop's closure tolerance, and
    IntegrationError if the step-size control breaks down.
    """
    check_rel_tol(rel_tol)
    th_lo, th_hi = thresholds
    if not (0.0 < th_lo < th_hi < math.pi):
        raise ValueError("thresholds must satisfy 0 < lo < hi < pi")

    f = loop.hamiltonian
    z_exit_north = math.cos(th_hi)  # leave the north frame below this height
    z_exit_south = math.cos(th_lo)  # leave the south frame above this height

    u0 = unit_vector(q)
    chart = Chart.NORTH if u0[2] >= 0.5 * (z_exit_north + z_exit_south) else Chart.SOUTH
    start_chart = chart
    y = np.append(u0, 0.0)
    t = 0.0
    transitions = 0
    stops = _segment_times(0.0, 1.0, f.breakpoints)[1:]

    def make_rhs(active: Chart):
        def rhs(tt, yy):
            u = yy[:3]
            un = u / np.linalg.norm(u)
            x_vec = hamiltonian_vector_field(M, f, tt, un)
            a = potential_eval(M, active, un, x_vec)
            return np.append(x_vec, a - float(f.eval(tt, un)))

        return rhs

    def make_event(z_c: float, direction: float):
        def ev(tt, yy):
            return yy[2] - z_c

        ev.terminal = True
        ev.direction = direction
        return ev

    while t < 1.0 - 1e-14:
        t_end = next(s for s in stops if s > t + 1e-14)
        if chart is Chart.NORTH:
            event = make_event(z_exit_north, -1.0)
        else:
            event = make_event(z_exit_south, +1.0)
        sol = solve_ivp(
            make_rhs(chart),
            (t, t_end),
            y,
            method="RK45",
            rtol=rel_tol,
            atol=_ATOL,
            events=(event,),
        )
        if sol.status == -1:
            raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t[-1]))
        if sol.status == 1:
            t = float(sol.t_events[0][0])
            y_e = sol.y_events[0][0]
            u = y_e[:3] / np.linalg.norm(y_e[:3])
            phi = math.atan2(u[1], u[0]) % TWO_PI
            jump = M.n * phi / TWO_PI
            phase = y_e[3] + (-jump if chart is Chart.NORTH else jump)
            y = np.append(u, phase)
            chart = chart.other()
            transitions += 1
            if transitions > 10_000:
                raise IntegrationError("chart switch limit exceeded", t=t)
        else:
            y = sol.y[:, -1].copy()
            y[:3] /= np.linalg.norm(y[:3])
            t = t_end

    endpoint = y[:3]
    phase = float(y[3])
    if chart is not start_chart:
        # The phase must be reported in the starting frame; an odd number of
        # switches leaves it in the other one.  Mismatches only happen away
        # from the poles, so the azimuth of the endpoint is well defined.
        phi = math.atan2(endpoint[1], endpoint[0]) % TWO_PI
        jump = M.n * phi / TWO_PI
        phase += -jump if chart is Chart.NORTH else jump
    if check_closure:
        defect = float(np.linalg.norm(endpoint - u0))
        if defect > loop.closure_tol:
            raise LoopClosureError(
                f"loop '{loop.label}' does not close at the base point: "
                f"defect {defect:.3e} exceeds tolerance {loop.closure_tol:.3e}"
            )
    return PhaseState(point=endpoint, phase=phase, transitions=transitions)


def kappa(
    M: OrbitSphere,
    loop: HamiltonianLoop,
    q,
    rel_tol: float = 1e-10,
    thresholds: tuple[float, float] = DEFAULT_SWITCH_THETA,
) -> UnitPhase:
    """Holonomy of the transport around the loop, as a unit phase.

    The value is independent of the base point q; tests assert this rather
    than assume it.
    """
    state = transport_phase(M, loop, q, rel_tol=rel_tol, thresholds=thresholds)
    return UnitPhase.from_revolutions(state.phase)


def kappa_at_fixed_point(
    M: OrbitSphere, f: TimeDepHamiltonian, p, grad_tol: float = 1e-10
) -> UnitPhase:
    """Holonomy shortcut at a critical point of a unit-period generator.

    At a fixed point the trajectory is constant and the whole phase comes
    from the Hamiltonian term, so the holonomy argument is (-f(p)) mod 1.
    No integration is performed.
    """
    u = unit_vector(p)
    g = np.asarray(f.grad(0.0, u), dtype=float)
    if float(np.linalg.norm(g)) > grad_tol:
        raise ValueError(
            f"p is not a critical point: |grad f| = {np.linalg.norm(g):.3e} > {grad_tol:g}"
        )
    return UnitPhase.from_revolutions(-float(f.eval(0.0, u)))


def phase_spread(phases) -> float:
    """Largest pairwise circle distance between phases in revolutions; 0 for none."""
    vals = np.asarray(phases, dtype=float)
    diffs = np.abs(vals[:, None] - vals[None, :]) % 1.0
    return float(np.max(np.minimum(diffs, 1.0 - diffs))) if len(vals) else 0.0


def base_point_spread(
    M: OrbitSphere, loop: HamiltonianLoop, points, rel_tol: float = 1e-10
) -> float:
    """Largest pairwise circle distance between kappa values over the points."""
    return phase_spread([kappa(M, loop, q, rel_tol=rel_tol).value for q in points])


def product_loop(xi: HamiltonianLoop, psi: HamiltonianLoop) -> HamiltonianLoop:
    """Path product: run psi at double speed on [0, 1/2], then xi on [1/2, 1]."""
    f_psi = psi.hamiltonian
    f_xi = xi.hamiltonian

    def ev(t, u):
        if t < 0.5:
            return 2.0 * f_psi.eval(2.0 * t, u)
        return 2.0 * f_xi.eval(2.0 * t - 1.0, u)

    def gr(t, u):
        if t < 0.5:
            return 2.0 * np.asarray(f_psi.grad(2.0 * t, u), dtype=float)
        return 2.0 * np.asarray(f_xi.grad(2.0 * t - 1.0, u), dtype=float)

    breaks = {0.5}
    breaks.update(0.5 * b for b in f_psi.breakpoints if 0.0 < b < 1.0)
    breaks.update(0.5 + 0.5 * b for b in f_xi.breakpoints if 0.0 < b < 1.0)
    f = TimeDepHamiltonian(
        eval=ev,
        grad=gr,
        label=f"({xi.label}).({psi.label})",
        breakpoints=tuple(sorted(breaks)),
    )
    return HamiltonianLoop(
        f,
        closure_tol=max(xi.closure_tol, psi.closure_tol),
        label=f"({xi.label}).({psi.label})",
    )

