"""Families of loops: the loop-space one-form, derivative checks, winding.

For a family s -> psi^s of loops generated by normalized Hamiltonians f^s_t,
the loop-space one-form evaluates as

    Omega(s) = integral_0^1 (d f^s_t / ds)(psi^s_t(q)) dt,

independent of the base point q for closed families.  It is integrated
along the trajectory by the same spinor transport that gives the holonomy,
so one solve at s gives both, and one batched solve of rows (s, point)
gives them for many s at once.  The derivative of the holonomy phase (in
revolutions) along the family is -Omega(s), which
``kappa_derivative_check`` verifies by central differences.  On a closed
family the map s -> kappa(psi^s) has an integer winding number, extracted
from a guarded continuous lift of the sampled phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import (
    HamiltonianLoop,
    LoopClosureError,
    MemberAxis,
    TimeDepHamiltonian,
    _gauss_legendre,
    constant_axis,
    linear_hamiltonian,
    scale_hamiltonian,
    zero_hamiltonian,
)
from .holonomy import PhaseState, UnitPhase, transport_phases
from .sphere import OrbitSphere
from .su2 import AlgebraDirection, invariant_loop, mixing_loop, profile_functions


# Finest grid of the phase lift, in s-intervals.  A starting grid finer than
# this could never be evaluated, so config rejects a larger s_samples.  A
# `preqholo run` of omega on closed-mixing from 'auto:3' at s_samples 2^14
# takes 2.2-3.0 s and 120 MB peak RSS on a shared 2-core Xeon with numpy
# 2.4; each of its 16,385 members is a mixing_loop, built once.
MAX_LIFT_SAMPLES = 2**14


class UnwrapError(RuntimeError):
    """Phase samples could not be lifted continuously at the maximum grid."""


class MemberClosureError(LoopClosureError):
    """A member of a family fails to close; the message names its s and base point."""


@dataclass
class LoopFamily:
    """A one-parameter family s -> loop, with the s-derivative of its generators.

    ``s_deriv(s)`` is the Hamiltonian d f^s_t / ds, itself a time-dependent
    function on the sphere: the integrand of Omega(s), which the transport
    evaluates as it does f^s_t.  It is linear (``linear_axis``) whenever
    the generators are.  ``closed`` declares that the loops at s = 0 and
    s = 1 coincide; their generators may differ by a constant, which moves
    no point.  A registry family's member at s is the registry loop it
    stands for, built by its su2 builder (``invariant_loop``,
    ``mixing_loop``), so the transport reads a batch of members as it reads
    those loops.  ``loop_at`` builds each member once, so the rows of a
    batch at one s share one propagator.
    """

    loop_builder: Callable[[float], HamiltonianLoop]
    s_deriv: Callable[[float], TimeDepHamiltonian]
    closed: bool = False
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def loop_at(self, s: float) -> HamiltonianLoop:
        key = float(s)
        if key not in self._cache:
            self._cache[key] = self.loop_builder(key)
        return self._cache[key]


def member_states(
    M: OrbitSphere, fam: LoopFamily, svals, points, rel_tol: float = 1e-10, omega: bool = True
) -> list[list[PhaseState]]:
    """Transport states of the members at every s from every point, in one batched solve.

    Returns one list per s with one state per point.  With ``omega`` each
    state carries Omega(s) from its point; without it no s-derivative is
    integrated.  Every member must be a loop: otherwise MemberClosureError
    names the first member that fails and its base point.
    """
    svals = [float(s) for s in svals]
    sdots = {s: fam.s_deriv(s) for s in svals} if omega else {}
    n = len(points)
    try:
        states = transport_phases(
            M,
            [fam.loop_at(s) for s in svals for _ in points],
            [q for _ in svals for q in points],
            rel_tol=rel_tol,
            sdot=[sdots[s] for s in svals for _ in points] if omega else None,
        )
    except LoopClosureError as exc:
        s, j = svals[exc.row // n], exc.row % n
        raise MemberClosureError(
            f"family '{fam.label}': the member at s={s!r}, loop '{fam.loop_at(s).label}', "
            f"does not close at base point {j}: {exc.defect}"
        ) from exc
    return [states[i * n : (i + 1) * n] for i in range(len(svals))]


def omega_eval(
    M: OrbitSphere, fam: LoopFamily, s: float, q, rel_tol: float = 1e-10
) -> float:
    """The loop-space one-form at parameter s, evaluated from base point q.

    The integral of the s-derivative of the Hamiltonians along the
    trajectory, carried by the transport of the loop at s.  The member at s
    must be a loop: MemberClosureError otherwise.
    """
    return member_states(M, fam, [s], [q], rel_tol=rel_tol)[0][0].omega


@dataclass(frozen=True)
class DerivativeCheck:
    """Both sides of the family-derivative identity and their mismatch.

    ``rel_err`` is the difference relative to the larger magnitude, floored
    at one revolution per unit s so the figure stays meaningful when both
    sides vanish (they do on normalized closed families).
    """

    lhs: float
    rhs: float
    rel_err: float


def kappa_derivative_check(
    M: OrbitSphere,
    fam: LoopFamily,
    s: float,
    q,
    ds: float = 1e-3,
    rel_tol: float = 1e-10,
) -> DerivativeCheck:
    """Centered-difference holonomy-phase slope against -Omega at s.

    Both sides come from one solve of the two rows at s +- ds: the
    difference of their holonomies, taken on the circle so no phase lift
    enters, against minus the mean of their Omega values.
    """
    (plus,), (minus,) = member_states(M, fam, [s + ds, s - ds], [q], rel_tol=rel_tol)
    d = ((plus.phase - minus.phase + 0.5) % 1.0) - 0.5
    lhs = d / (2.0 * ds)
    rhs = -0.5 * (plus.omega + minus.omega)
    rel_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
    return DerivativeCheck(lhs=lhs, rhs=rhs, rel_err=rel_err)


def lift_circle_samples(
    eval_phases: Callable[[np.ndarray], object], s_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Continuous lift of a circle-valued map sampled on a uniform s-grid.

    ``eval_phases(svals)`` returns the map's phases in revolutions at an
    array of s values, so a caller can evaluate them in one batch; they
    are reduced mod 1 here, and only here.  Adjacent samples
    are joined by the nearest circle representative; any wrapped jump of a
    quarter revolution or more triggers a dyadic refinement of the grid, up
    to ``MAX_LIFT_SAMPLES`` intervals.  Each grid level is one call of
    ``eval_phases``, on only the points no coarser level evaluated: every
    other point of the doubled grid equals a point of the old one bit for
    bit.  An UnwrapError names the finest grid evaluated and the largest
    wrapped jump on it.
    """
    m = int(s_samples)
    if not 2 <= m <= MAX_LIFT_SAMPLES:
        raise ValueError(f"s_samples must lie in [2, {MAX_LIFT_SAMPLES}]")
    seen: dict[float, float] = {}
    while True:
        svals = np.linspace(0.0, 1.0, m + 1)
        new = np.array([s for s in svals if s not in seen])
        seen.update(zip(new, (UnitPhase.from_revolutions(v).value for v in eval_phases(new))))
        phases = np.array([seen[s] for s in svals])
        diffs = ((np.diff(phases) + 0.5) % 1.0) - 0.5
        jump = float(np.max(np.abs(diffs)))
        if jump < 0.25:
            lift = np.concatenate([[phases[0]], phases[0] + np.cumsum(diffs)])
            return svals, lift
        if 2 * m > MAX_LIFT_SAMPLES:
            raise UnwrapError(
                f"adjacent phase jumps stay above 0.25 revolutions: the largest wrapped jump "
                f"is {jump:.3f} revolutions on the finest grid evaluated, {m} intervals"
            )
        m *= 2


def phase_lift(
    M: OrbitSphere,
    fam: LoopFamily,
    q,
    s_samples: int = 64,
    rel_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Continuous lift of s -> kappa(loop_at(s)) sampled from base point q, one solve per grid level."""

    def eval_phases(svals):
        return [row[0].phase for row in member_states(M, fam, svals, [q], rel_tol=rel_tol, omega=False)]

    return lift_circle_samples(eval_phases, s_samples)


def winding_number(
    M: OrbitSphere,
    fam: LoopFamily,
    q,
    s_samples: int = 64,
    rel_tol: float = 1e-10,
) -> int:
    """Integer total phase change of s -> kappa(loop_at(s)) over a closed family.

    The grading of the family is minus this winding.
    """
    if not fam.closed:
        raise ValueError("winding_number requires a closed loop family")
    _, lift = phase_lift(M, fam, q, s_samples=s_samples, rel_tol=rel_tol)
    return winding_of(lift)


def winding_of(lift) -> int:
    """The integer total change of a phase lift over a closed family.

    Raises UnwrapError unless the total lies within 0.1 of an integer.
    """
    total = float(lift[-1] - lift[0])
    w = round(total)
    if abs(total - w) > 0.1:
        raise UnwrapError(f"phase lift does not close to an integer: total {total:.6f}")
    return int(w)


def double_integral_check(
    M: OrbitSphere,
    fam: LoopFamily,
    q,
    s_nodes: int = 16,
    rel_tol: float = 1e-10,
) -> float:
    """Integral over s of Omega(s), one solve over the Gauss nodes; vanishes for
    degree-zero closed families."""
    x, w = _gauss_legendre(s_nodes)
    rows = member_states(M, fam, x, [q], rel_tol=rel_tol)
    return float(sum(wt * row[0].omega for row, wt in zip(rows, w)))


def concatenate(fam1: LoopFamily, fam2: LoopFamily) -> LoopFamily:
    """s-wise path product of two families; the caller matches the base loops.

    Below s = 1/2 the member is fam1's at 2s, else fam2's at 2s - 1,
    and d/ds is twice the half's (``scale_hamiltonian``, linear if it is).
    """

    def builder(s):
        if s < 0.5:
            return fam1.loop_at(2.0 * s)
        return fam2.loop_at(2.0 * s - 1.0)

    def derivative(s):
        if s < 0.5:
            return scale_hamiltonian(fam1.s_deriv(2.0 * s), 2.0)
        return scale_hamiltonian(fam2.s_deriv(2.0 * s - 1.0), 2.0)

    return LoopFamily(
        loop_builder=builder,
        s_deriv=derivative,
        closed=fam1.closed and fam2.closed,
        label=f"({fam1.label}).({fam2.label})",
    )


def constant_family(loop: HamiltonianLoop) -> LoopFamily:
    """Family that does not move; its one-form and winding vanish.

    Every member is the loop itself and every s-derivative one zero
    Hamiltonian, so the rows of a batch of members share both, and they
    stay on the linear path when the loop is linear.
    """
    zero = zero_hamiltonian()
    return LoopFamily(
        loop_builder=lambda s: loop,
        s_deriv=lambda s: zero,
        closed=True,
        label=f"constant[{loop.label}]",
    )


def subgroup_rotation_family(
    M: OrbitSphere,
    start_angle: float = 0.0,
    turns: float = 1.0,
    closure_tol: float = 1e-6,
) -> LoopFamily:
    """Invariant loops with the equatorial axis rotated by 2 pi * turns * s.

    Every member is a one-parameter-subgroup loop, the ``invariant_loop``
    of the direction (cos lam, sin lam, 0) with lam = start_angle +
    2 pi turns s; the family is closed in s exactly when ``turns`` is an
    integer.  The member's axis -pi k (-cos lam, sin lam, 0) does not
    depend on t, and neither does its s-derivative, the ``constant_axis``
    -2 pi^2 k turns (sin lam, cos lam, 0) of its value at s.
    """
    rate = 2.0 * math.pi * float(turns)
    k = M.k

    def member(s):
        lam = start_angle + rate * s
        return invariant_loop(M, AlgebraDirection(math.cos(lam), math.sin(lam)), closure_tol=closure_tol)

    def s_deriv(s):
        lam = start_angle + rate * s
        value = -math.pi * k * rate * np.array([math.sin(lam), math.cos(lam), 0.0])
        return linear_hamiltonian(constant_axis(value))

    return LoopFamily(
        loop_builder=member,
        s_deriv=s_deriv,
        closed=float(turns).is_integer(),
        label=f"subgroup-rotation[turns={turns:g}]",
    )


def _mixing_family(M, amp_fn, amp_dot_fn, profile, closure_tol, closed, label):
    """The ``mixing_loop`` of amplitude a(s) = amp_fn(s) at every s.

    Its s-derivative is no word: the member s_deriv(s) is the
    ``MemberAxis`` at s of one field over an array of s, read for a whole
    batch of members in one call.  amp_fn reads a scalar s or an array of
    s, to the same doubles at each s; amp_dot_fn reads an array.
    """
    g_fn, gd_fn = profile_functions(profile)
    k = M.k

    # g(t) and g'(t) as a column (T, 1) at an array of times, so that they
    # broadcast against a(s) (S,).
    def s_axis(svals, t):
        a, c = amp_fn(svals), k * amp_dot_fn(svals)
        g = np.expand_dims(g_fn(t), -1)
        th = 2.0 * a * g
        d = [-2.0 * math.pi * g * np.sin(th), 2.0 * math.pi * g * np.cos(th), -np.expand_dims(gd_fn(t), -1)]
        return np.stack([c * np.broadcast_to(x, th.shape) for x in d], axis=-1)

    return LoopFamily(
        loop_builder=lambda s: mixing_loop(M, amp_fn(s), profile, closure_tol=closure_tol),
        s_deriv=lambda s: linear_hamiltonian(MemberAxis(s_axis, s)),
        closed=closed,
        label=label,
    )


def mixing_family(
    M: OrbitSphere,
    amplitude: float = 0.5,
    profile: str = "cosine-ramp",
    closure_tol: float = 1e-6,
) -> LoopFamily:
    """Two-axis mixing path: drift amplitude grows linearly from 0 to ``amplitude``.

    Interpolates from the bare A-axis invariant loop at s = 0 to the fully
    mixed loop at s = 1 through honest loops at every s.
    """
    amp = float(amplitude)
    return _mixing_family(
        M,
        lambda s: amp * s,
        lambda s: np.full_like(s, amp),
        profile,
        closure_tol,
        closed=False,
        label=f"mixing[amp={amp:g},{profile}]",
    )


def closed_mixing_family(
    M: OrbitSphere,
    amplitude: float = 0.5,
    profile: str = "cosine-ramp",
    closure_tol: float = 1e-6,
) -> LoopFamily:
    """Closed two-axis mixing family: amplitude amplitude*sin^2(pi s).

    Returns to the bare A-axis loop at both endpoints, so winding numbers
    and the double integral are defined; the family contracts to a constant
    one by scaling the amplitude, hence has degree zero.
    """
    amp = float(amplitude)
    # np.square, as an array's ** 2 computes it: a scalar's ** 2 is pow,
    # which can round apart, and a member's a(s) must be the doubles its
    # s-derivative field reads at s.
    return _mixing_family(
        M,
        lambda s: amp * np.square(np.sin(np.pi * s)),
        lambda s: amp * np.pi * np.sin(2.0 * np.pi * s),
        profile,
        closure_tol,
        closed=True,
        label=f"closed-mixing[amp={amp:g},{profile}]",
    )
