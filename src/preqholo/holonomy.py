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
for all base points of a loop at once, with frame switches located by event
detection inside a hysteresis band, so a trajectory through a pole never
evaluates a singular potential.
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


def _chunk_size(rel_tol: float) -> int:
    """Most points one solve can carry at rel_tol / sqrt(N) above scipy's floor.

    scipy raises any rtol below 100 eps to 100 eps (with a warning), which
    would quietly loosen the per-point error control of a large batch.
    """
    floor = 100.0 * np.finfo(float).eps
    size = max(1, int((rel_tol / floor) ** 2))
    while size > 1 and rel_tol / math.sqrt(size) < floor:
        size -= 1
    return size


def transport_phases(
    M: OrbitSphere,
    loop: HamiltonianLoop,
    points,
    rel_tol: float = 1e-10,
    thresholds: tuple[float, float] = DEFAULT_SWITCH_THETA,
) -> list[PhaseState]:
    """Transport the section phase around the loop trajectories based at points.

    All base points are carried by one adaptive solve on an N x (3 + 1)
    state, each in its own frame.  The RK45 error norm is an RMS over the
    whole state, so rtol and atol are divided by sqrt(N) to keep every point
    as accurate as a solve of its own; batches too large for that are split.
    Requires the loop Hamiltonian to be normalized (zero mean); each result's
    ``phase`` is the unreduced lift in revolutions, and its reduction mod 1
    is the holonomy argument.  Raises LoopClosureError when a trajectory
    fails to return to its base point within the loop's closure tolerance,
    and IntegrationError if the step-size control breaks down.
    """
    check_rel_tol(rel_tol)
    th_lo, th_hi = thresholds
    if not (0.0 < th_lo < th_hi < math.pi):
        raise ValueError("thresholds must satisfy 0 < lo < hi < pi")
    u0 = np.array([unit_vector(q) for q in points], dtype=float).reshape(-1, 3)
    size = _chunk_size(rel_tol)
    states: list[PhaseState] = []
    for lo in range(0, len(u0), size):
        states += _transport_batch(M, loop, u0[lo : lo + size], lo, rel_tol, thresholds)
    return states


def _transport_batch(M, loop, u0, offset, rel_tol, thresholds) -> list[PhaseState]:
    f = loop.hamiltonian
    n_pts = len(u0)
    z_exit_north = math.cos(thresholds[1])  # leave the north frame below this height
    z_exit_south = math.cos(thresholds[0])  # leave the south frame above this height

    # Chart signs: +1 north, -1 south.  A point's margin, sign * u_z minus
    # its exit level, is positive inside its frame's safe zone.
    start_sign = np.where(u0[:, 2] >= 0.5 * (z_exit_north + z_exit_south), 1.0, -1.0)
    sign = start_sign
    y = np.column_stack([u0, np.zeros(n_pts)])
    t = 0.0
    transitions = np.zeros(n_pts, dtype=int)
    stops = _segment_times(0.0, 1.0, f.breakpoints)[1:]
    scale = 1.0 / math.sqrt(n_pts)

    def make_rhs(sgn):
        def rhs(tt, yy):
            u = yy.reshape(n_pts, 4)[:, :3]
            un = u / np.sqrt((u * u).sum(axis=1, keepdims=True))
            x_vec = hamiltonian_vector_field(M, f, tt, un)
            out = np.empty((n_pts, 4))
            out[:, :3] = x_vec
            out[:, 3] = potential_eval(M, sgn, un, x_vec) - f.eval(tt, un)
            return out.ravel()

        return rhs

    def make_event(sgn):
        exit_level = np.where(sgn > 0, z_exit_north, -z_exit_south)

        def ev(tt, yy):
            return float(np.min(sgn * yy[2::4] - exit_level))

        ev.terminal = True
        ev.direction = -1.0
        return ev, exit_level

    while t < 1.0 - 1e-14:
        t_end = next(s for s in stops if s > t + 1e-14)
        event, exit_level = make_event(sign)
        sol = solve_ivp(
            make_rhs(sign),
            (t, t_end),
            y.ravel(),
            method="RK45",
            rtol=rel_tol * scale,
            atol=_ATOL * scale,
            events=(event,),
        )
        if sol.status == -1:
            raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t[-1]))
        if sol.status == 1:
            t = float(sol.t_events[0][0])
            y = sol.y_events[0][0].reshape(n_pts, 4).copy()
            y[:, :3] /= np.linalg.norm(y[:, :3], axis=1, keepdims=True)
            # Switch every point at or past its exit level, not only the one
            # that fired the event: a point crossing in the same step would
            # otherwise restart beyond its threshold and never be detected.
            margin = sign * y[:, 2] - exit_level
            flip = margin <= max(float(margin.min()), 0.0)
            y[flip, 3] -= sign[flip] * _frame_jump(M, y[flip, :3])
            sign = np.where(flip, -sign, sign)
            transitions += flip
            if transitions.max() > 10_000:
                raise IntegrationError("chart switch limit exceeded", t=t)
        else:
            y = sol.y[:, -1].reshape(n_pts, 4).copy()
            y[:, :3] /= np.linalg.norm(y[:, :3], axis=1, keepdims=True)
            t = t_end

    # Phases are reported in the starting frame; an odd number of switches
    # leaves a point in the other one.  Mismatches only happen away from the
    # poles, so the azimuth of the endpoint is well defined.
    odd = sign != start_sign
    y[odd, 3] -= sign[odd] * _frame_jump(M, y[odd, :3])
    defects = np.linalg.norm(y[:, :3] - u0, axis=1)
    bad = np.flatnonzero(defects > loop.closure_tol)
    if len(bad):
        i = int(bad[0])
        raise LoopClosureError(
            f"loop '{loop.label}' does not close at base point {offset + i}: "
            f"defect {defects[i]:.3e} exceeds tolerance {loop.closure_tol:.3e}"
        )
    return [
        PhaseState(point=y[i, :3].copy(), phase=float(y[i, 3]), transitions=int(transitions[i]))
        for i in range(n_pts)
    ]


def _frame_jump(M: OrbitSphere, u: np.ndarray) -> np.ndarray:
    """Phase jump n phi / (2 pi) of the frame transition at points u, in revolutions."""
    phi = np.arctan2(u[:, 1], u[:, 0]) % TWO_PI
    return M.n * phi / TWO_PI


def transport_phase(
    M: OrbitSphere,
    loop: HamiltonianLoop,
    q,
    rel_tol: float = 1e-10,
    thresholds: tuple[float, float] = DEFAULT_SWITCH_THETA,
) -> PhaseState:
    """Transport the section phase around the loop trajectory based at q.

    The batch of one of ``transport_phases``.
    """
    return transport_phases(M, loop, [q], rel_tol=rel_tol, thresholds=thresholds)[0]


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


def kappas(
    M: OrbitSphere, loop: HamiltonianLoop, points, rel_tol: float = 1e-10
) -> list[float]:
    """Holonomy from every base point, in revolutions in [0, 1), all transported in one batch."""
    states = transport_phases(M, loop, points, rel_tol=rel_tol)
    return [UnitPhase.from_revolutions(st.phase).value for st in states]


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

