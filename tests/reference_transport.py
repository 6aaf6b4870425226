"""Reference oracle: frame-based phase transport of one base point in its own solve.

This is the two-chart transport that the batched spinor transport of
``holonomy.transport_phases`` replaced.  It stays here, outside the package,
so the spinor path can be compared against an independent integration of
another form of the same equation: one 4-vector state (point and phase in
the active frame's potential), one terminal event per chart, a hysteresis
band of switch thresholds, the frame jump -+ n phi / (2 pi) and the same
closure check.  Its phase lift may differ from the spinor lift by an
integer; the reductions mod 1 agree.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from preqholo.dynamics import IntegrationError, LoopClosureError, hamiltonian_vector_field
from preqholo.holonomy import PhaseState
from preqholo.sphere import TWO_PI, Chart, potential_eval, unit_vector

_ATOL = 1e-13

# Colatitude thresholds of the hysteresis band used when switching chart
# frames along a trajectory: leave the north frame above the second angle,
# return to it below the first.  Both poles sit deep inside one frame's
# regular zone, so trajectories may cross the poles freely.
DEFAULT_SWITCH_THETA = (math.pi / 3.0, 2.0 * math.pi / 3.0)


def reference_transport_phase(M, loop, q, rel_tol=1e-10, thresholds=DEFAULT_SWITCH_THETA):
    """Transport the section phase around the loop trajectory based at q."""
    th_lo, th_hi = thresholds
    f = loop.hamiltonian
    z_exit_north = math.cos(th_hi)
    z_exit_south = math.cos(th_lo)

    u0 = unit_vector(q)
    chart = Chart.NORTH if u0[2] >= 0.5 * (z_exit_north + z_exit_south) else Chart.SOUTH
    start_chart = chart
    y = np.append(u0, 0.0)
    t = 0.0
    transitions = 0
    inner = sorted(b for b in f.breakpoints if 1e-14 < b < 1.0 - 1e-14)
    stops = [*inner, 1.0]

    def make_rhs(active):
        def rhs(tt, yy):
            u = yy[:3]
            un = u / np.linalg.norm(u)
            x_vec = hamiltonian_vector_field(M, f, tt, un)
            a = potential_eval(M, active, un, x_vec)
            return np.append(x_vec, a - float(f.eval(tt, un)))

        return rhs

    def make_event(z_c, direction):
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
            make_rhs(chart), (t, t_end), y, method="RK45", rtol=rel_tol, atol=_ATOL, events=(event,)
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
        phi = math.atan2(endpoint[1], endpoint[0]) % TWO_PI
        jump = M.n * phi / TWO_PI
        phase += -jump if chart is Chart.NORTH else jump
    defect = float(np.linalg.norm(endpoint - u0))
    if defect > loop.closure_tol:
        raise LoopClosureError(
            f"loop '{loop.label}' does not close at the base point: "
            f"defect {defect:.3e} exceeds tolerance {loop.closure_tol:.3e}"
        )
    return PhaseState(point=endpoint, phase=phase)
