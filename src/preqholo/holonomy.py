"""Phase transport along loop trajectories and the loop holonomy.

The section is transported as a spinor.  A trajectory u(t) on the sphere is
the Bloch vector u = chi^dag sigma chi / |chi|^2 of a spinor chi in C^2 that
turns with the angular velocity w = u x X_t(u) of the trajectory,

    d(chi)/dt = -(i/2) (w . sigma) chi.

w has no component along u, so chi is the horizontal (Berry) lift of u(t),
and it needs no chart anywhere on the sphere.  The level-n section picks up
n times the spin-1/2 geometric phase, and the Hamiltonian term on top:

    phase = -n arg<chi(0), chi(1)> / (2 pi) - integral_0^1 f_t(u(t)) dt

in revolutions.  Its reduction mod 1 is the holonomy argument.  The
unreduced value is the lift in the chart frame whose cap the trajectory
encloses with the smaller area; it is defined up to an integer, which
comparisons on the circle ignore.

All base points of a loop are integrated as one adaptive system, one smooth
solve per piecewise-smooth segment of the Hamiltonian.
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
)
from .sphere import TWO_PI, OrbitSphere, unit_vector

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
    """Transport state at t = 1: endpoint and phase lift in revolutions."""

    point: np.ndarray
    phase: float

    @property
    def transitions(self) -> int:
        """Chart switches: always 0, the spinor transport uses no chart.

        Kept only while ``bench/tracer.py`` reads it; see ROADMAP item 6.
        """
        return 0


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
    M: OrbitSphere, loop: HamiltonianLoop, points, rel_tol: float = 1e-10
) -> list[PhaseState]:
    """Transport the section phase around the loop trajectories based at points.

    All base points are carried by one adaptive solve on an N x 3 complex
    state: the two spinor components and the running integral of f_t.  The
    RK45 error norm is an RMS over the whole state, so rtol and atol are
    divided by sqrt(N) to keep every point as accurate as a solve of its
    own; batches too large for that are split.  Requires the loop
    Hamiltonian to be normalized (zero mean); each result's ``phase`` is the
    unreduced lift in revolutions, and its reduction mod 1 is the holonomy
    argument.  Raises LoopClosureError when a trajectory fails to return to
    its base point within the loop's closure tolerance, and IntegrationError
    if the step-size control breaks down.
    """
    check_rel_tol(rel_tol)
    u0 = np.array([unit_vector(q) for q in points], dtype=float).reshape(-1, 3)
    size = _chunk_size(rel_tol)
    states: list[PhaseState] = []
    for lo in range(0, len(u0), size):
        states += _transport_batch(M, loop, u0[lo : lo + size], lo, rel_tol)
    return states


def _spinors(u: np.ndarray) -> np.ndarray:
    """Unit spinors (a, b) with Bloch vectors u, one row each; the overall phase is arbitrary."""
    x, y, z = u.T
    north = z >= 0.0
    chi = np.empty((len(u), 2), dtype=complex)
    chi[:, 0] = np.where(north, 1.0 + z, x - 1j * y)
    chi[:, 1] = np.where(north, x + 1j * y, 1.0 - z)
    return chi / np.sqrt(2.0 * (1.0 + np.abs(z)))[:, None]


# The right-hand side works on the real view (Re a, Im a, Re b, Im b) of each
# spinor, where a complex 2 x 2 matrix acts as the real 4 x 4 matrix _real(m)
# and every product is one small matrix product for the whole batch.
def _real(m: np.ndarray) -> np.ndarray:
    r = np.empty((4, 4))
    r[0::2, 0::2] = r[1::2, 1::2] = m.real
    r[1::2, 0::2] = m.imag
    r[0::2, 1::2] = -m.imag
    return r


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# chi^dag sigma_j chi and |chi|^2 as quadratic forms in x (x) x.
_FORMS = np.stack([_real(m).ravel() for m in (*_PAULI, np.eye(2))], axis=1)
# -(i/2) (w . sigma) chi as a bilinear form in w (x) x.
_TURN = np.concatenate([_real(-0.5j * m).T for m in _PAULI])


def _bloch(x: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors chi^dag sigma chi / |chi|^2 of spinors in real view (N, 4)."""
    q = (x[:, :, None] * x[:, None, :]).reshape(len(x), 16) @ _FORMS
    return q[:, :3] / q[:, 3:]


def _transport_batch(M, loop, u0, offset, rel_tol) -> list[PhaseState]:
    f = loop.hamiltonian
    n_pts = len(u0)
    scale = 1.0 / math.sqrt(n_pts)
    # For unit u, w = u x X_t(u) = (2/k) (u (u . g) - g) with g = grad f.
    turn = (2.0 / M.k) * _TURN

    def rhs(t, yy):
        x = yy.reshape(n_pts, 3)[:, :2].view(float)
        u = _bloch(x)
        g = np.asarray(f.grad(t, u), dtype=float)
        v = u * (u * g).sum(axis=1, keepdims=True) - g
        out = np.empty((n_pts, 6))
        out[:, :4] = (v[:, :, None] * x[:, None, :]).reshape(n_pts, 12) @ turn
        out[:, 4] = f.eval(t, u)
        out[:, 5] = 0.0
        return out.view(complex).ravel()

    chi0 = _spinors(u0)
    y = np.zeros((n_pts, 3), dtype=complex)
    y[:, :2] = chi0
    stops = _segment_times(0.0, 1.0, f.breakpoints)
    for t0, t1 in zip(stops[:-1], stops[1:]):
        sol = solve_ivp(
            rhs, (t0, t1), y.ravel(), method="RK45", rtol=rel_tol * scale, atol=_ATOL * scale
        )
        if not sol.success:
            raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t[-1]))
        y = sol.y[:, -1].reshape(n_pts, 3)

    points = _bloch(y[:, :2].view(float))
    defects = np.linalg.norm(points - u0, axis=1)
    bad = np.flatnonzero(defects > loop.closure_tol)
    if len(bad):
        i = int(bad[0])
        raise LoopClosureError(
            f"loop '{loop.label}' does not close at base point {offset + i}: "
            f"defect {defects[i]:.3e} exceeds tolerance {loop.closure_tol:.3e}"
        )
    # <chi0, chi1> in real arithmetic, so an unmoved spinor has an exactly
    # real overlap and a phase of exactly 0.
    p0, p1 = chi0, y[:, :2]
    re = (p0.real * p1.real + p0.imag * p1.imag).sum(axis=1)
    im = (p0.real * p1.imag - p0.imag * p1.real).sum(axis=1)
    phases = -M.n * np.arctan2(im, re) / TWO_PI - y[:, 2].real
    return [PhaseState(point=points[i], phase=float(phases[i])) for i in range(n_pts)]


def transport_phase(
    M: OrbitSphere, loop: HamiltonianLoop, q, rel_tol: float = 1e-10
) -> PhaseState:
    """Transport the section phase around the loop trajectory based at q.

    The batch of one of ``transport_phases``.
    """
    return transport_phases(M, loop, [q], rel_tol=rel_tol)[0]


def kappa(M: OrbitSphere, loop: HamiltonianLoop, q, rel_tol: float = 1e-10) -> UnitPhase:
    """Holonomy of the transport around the loop, as a unit phase.

    The value is independent of the base point q; tests assert this rather
    than assume it.
    """
    return UnitPhase.from_revolutions(transport_phase(M, loop, q, rel_tol=rel_tol).phase)


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

