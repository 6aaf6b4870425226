"""Phase transport along loop trajectories and the loop holonomy.

The section is transported as the spinor chi of ``dynamics``, the
horizontal lift of the trajectory.  The level-n section picks up n times
the spin-1/2 geometric phase, and the Hamiltonian term on top:

    phase = -n arg<chi(0), chi(1)> / (2 pi) - integral_0^1 f_t(u(t)) dt

in revolutions.  Its reduction mod 1 is the holonomy argument.  The
unreduced value is the lift in the chart frame whose cap the trajectory
encloses with the smaller area; it is defined up to an integer, which
comparisons on the circle ignore.  A batch is rows of (loop, base
point): all rows are carried by one batched solve of the package's one
integrator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HamiltonianLoop,
    LoopClosureError,
    TimeDepHamiltonian,
    _state_points,
    _spinors,
    _transport,
    compose_hamiltonian,
)
from .sphere import TWO_PI, OrbitSphere, unit_vector

# The largest |grad f| at which ``kappa_at_fixed_point`` takes p as critical.
FIXED_POINT_GRAD_TOL = 1e-10


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

    def distance_to(self, other) -> float:
        v = other.value if isinstance(other, UnitPhase) else float(other)
        return circle_distance(self.value, v)


@dataclass(frozen=True)
class PhaseState:
    """Transport state at t = 1: endpoint, phase lift in revolutions, and the
    integral of the Hamiltonian ``sdot`` along the trajectory (Omega; 0
    without ``sdot``)."""

    point: np.ndarray
    phase: float
    omega: float = 0.0

    @property
    def transitions(self) -> int:
        """Chart switches: always 0, the spinor transport uses no chart.

        Kept only while ``bench/tracer.py`` reads it; see ROADMAP item 1.
        """
        return 0


def transport_phases(
    M: OrbitSphere, loop, points, rel_tol: float = 1e-10, sdot=None
) -> list[PhaseState]:
    """Transport the section phase around the loop trajectories based at points.

    ``loop`` is one HamiltonianLoop for every point or a sequence with one
    loop per point; ``sdot`` likewise is one TimeDepHamiltonian, one per
    point, or None.  Row i is (loop i, point i).  All rows are carried by
    one batched solve (``dynamics._transport``), which also integrates f_t
    and ``sdot`` along each trajectory.  With ``sdot`` the s-derivative of
    a family's Hamiltonians (``LoopFamily.s_deriv``), each state's
    ``omega`` is the one-form Omega(s); without it, ``omega`` is 0.
    Requires the loop Hamiltonians to be normalized (zero mean); each
    result's ``phase`` is the unreduced lift in revolutions, and its
    reduction mod 1 is the holonomy argument.
    Raises LoopClosureError, naming the row and its loop, when a
    trajectory fails to return to its base point within its loop's closure
    tolerance, and IntegrationError if the right-hand side is not finite or
    the step-size control breaks down.
    """
    u0 = np.array([unit_vector(q) for q in points], dtype=float).reshape(-1, 3)
    if isinstance(loop, HamiltonianLoop):
        loops, f = [loop] * len(u0), loop.hamiltonian
    else:
        loops = list(loop)
        f = [lp.hamiltonian for lp in loops]
    y = _transport(M, f, u0, rel_tol, sdot)[-1]
    ends = _state_points(y)
    defects = np.linalg.norm(ends - u0, axis=1)
    bad = np.flatnonzero(defects > [lp.closure_tol for lp in loops])
    if len(bad):
        i = int(bad[0])
        defect = f"defect {defects[i]:.3e} exceeds tolerance {loops[i].closure_tol:.3e}"
        raise LoopClosureError(f"loop '{loops[i].label}' does not close at base point {i}: {defect}", i, defect)
    # <chi0, chi1> in real arithmetic, so an unmoved spinor has an exactly
    # real overlap and a phase of exactly 0.
    p0, p1 = _spinors(u0), y[:, :2]
    re = (p0.real * p1.real + p0.imag * p1.imag).sum(axis=1)
    im = (p0.real * p1.imag - p0.imag * p1.real).sum(axis=1)
    phases = -M.n * np.arctan2(im, re) / TWO_PI - y[:, 2].real
    return [
        PhaseState(point=ends[i], phase=float(phases[i]), omega=float(y[i, 2].imag))
        for i in range(len(u0))
    ]


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


def kappa_at_fixed_point(M: OrbitSphere, f: TimeDepHamiltonian, p) -> UnitPhase:
    """Holonomy shortcut at a critical point of a unit-period generator.

    At a fixed point the trajectory is constant and the whole phase comes
    from the Hamiltonian term, so the holonomy argument is (-f(p)) mod 1.
    No integration is performed.
    """
    u = unit_vector(p)
    g = np.asarray(f.grad(0.0, u), dtype=float)
    if float(np.linalg.norm(g)) > FIXED_POINT_GRAD_TOL:
        raise ValueError(
            f"p is not a critical point: |grad f| = {np.linalg.norm(g):.3e} > {FIXED_POINT_GRAD_TOL:g}"
        )
    return UnitPhase.from_revolutions(-float(f.eval(0.0, u)))


def phase_spread(phases) -> float:
    """Largest pairwise circle distance between phases in revolutions; 0 for none.

    The distance from a phase grows towards its antipode, so each distinct
    phase is measured only against the few that sort next to its antipode
    on the circle, with the pairwise formula |x - y| mod 1 folded to
    [0, 1/2]: O(N log N) time and O(N) memory, and the value of the
    all-pairs maximum.
    """
    # Python's sort and bisect: numpy's sort and search kernels would page
    # ~0.3 MB into the peak memory of a short run.
    vals = sorted(set(np.asarray(phases, dtype=float).tolist()), key=lambda v: v % 1.0)
    if len(vals) < 2:
        return 0.0
    pos = [v % 1.0 for v in vals]
    antipode = np.array([bisect.bisect_left(pos, (p + 0.5) % 1.0) for p in pos])
    vals = np.array(vals)
    diffs = np.abs(vals[:, None] - vals[(antipode[:, None] + np.arange(-2, 3)) % len(vals)]) % 1.0
    return float(np.max(np.minimum(diffs, 1.0 - diffs)))


def product_loop(xi: HamiltonianLoop, psi: HamiltonianLoop) -> HamiltonianLoop:
    """Path product: run psi at double speed on [0, 1/2], then xi on [1/2, 1].

    Two parts (``compose_hamiltonian``): 2 psi_{2t} for t < 1/2 and
    2 xi_{2t - 1} after.  The product of two linear loops is linear, with
    the product's axis; read at an array of times, it reads each piece at
    only the times of its own half.  1/2 is a breakpoint: the integrator
    reads each piece only strictly inside its own half, so the solve of
    [0, 1/2] never sees xi.
    """
    label = f"({xi.label}).({psi.label})"
    f = compose_hamiltonian(
        [(0.5, psi.hamiltonian, 2.0, 0.0, 2.0), (math.inf, xi.hamiltonian, 2.0, -1.0, 2.0)], label=label
    )
    return HamiltonianLoop(f, closure_tol=max(xi.closure_tol, psi.closure_tol), label=label)

