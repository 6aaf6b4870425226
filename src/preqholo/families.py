"""Families of loops: the loop-space one-form, derivative checks, winding.

For a family s -> psi^s of loops generated by normalized Hamiltonians f^s_t,
the loop-space one-form evaluates as

    Omega(s) = integral_0^1 (d f^s_t / ds)(psi^s_t(q)) dt,

independent of the base point q for closed families.  It is integrated
along the trajectory by the same spinor transport that gives the holonomy,
so one solve at s gives both.  The derivative of the holonomy phase (in
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
from numpy.polynomial.legendre import leggauss

from .dynamics import HamiltonianLoop, scale_hamiltonian
from .holonomy import kappa, transport_phases
from .sphere import OrbitSphere, fibonacci_sphere
from .su2 import AlgebraDirection, invariant_loop, mixing_loop, profile_functions


# Finest grid of the phase lift, in s-intervals.  A starting grid finer than
# this could never be evaluated, so config rejects a larger s_samples.
MAX_LIFT_SAMPLES = 2**14


class UnwrapError(RuntimeError):
    """Phase samples could not be lifted continuously at the maximum grid."""


@dataclass
class LoopFamily:
    """A one-parameter family s -> loop with s-derivative access.

    ``s_deriv(s, t, u)`` is the derivative of the generating Hamiltonians
    along s, for one point u or a batch.  ``closed`` declares that the
    families at s = 0 and s = 1 coincide.
    """

    loop_builder: Callable[[float], HamiltonianLoop]
    s_deriv: Callable
    closed: bool = False
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def loop_at(self, s: float) -> HamiltonianLoop:
        key = float(s)
        if key not in self._cache:
            self._cache[key] = self.loop_builder(key)
        return self._cache[key]

    def sdot(self, s: float) -> Callable:
        """Callable (t, u) -> d f^s_t(u) / ds at the given s."""
        return lambda t, u: self.s_deriv(s, t, u)

    def closure_defect_in_s(self) -> float:
        """Largest |f^0_t - f^1_t| over a probe grid; zero for closed families."""
        probe_points = fibonacci_sphere(12)
        f0 = self.loop_at(0.0).hamiltonian
        f1 = self.loop_at(1.0).hamiltonian
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 7):
            d = np.abs(np.asarray(f0.eval(t, probe_points)) - np.asarray(f1.eval(t, probe_points)))
            worst = max(worst, float(np.max(d)))
        return worst


def omega_eval(
    M: OrbitSphere, fam: LoopFamily, s: float, q, rel_tol: float = 1e-10
) -> float:
    """The loop-space one-form at parameter s, evaluated from base point q.

    The integral of the s-derivative of the Hamiltonians along the
    trajectory, carried by the transport of the loop at s.  The member at s
    must be a loop: LoopClosureError otherwise.
    """
    return transport_phases(M, fam.loop_at(s), [q], rel_tol=rel_tol, sdot=fam.sdot(s))[0].omega


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
    h_s: float = 1e-3,
    rel_tol: float = 1e-10,
) -> DerivativeCheck:
    """Centered-difference holonomy-phase slope against -Omega at s.

    Both sides come from the transports at s +- h_s: the difference of
    their holonomies, taken on the circle so no phase lift enters, against
    minus the mean of their Omega values.
    """
    plus, minus = (
        transport_phases(M, fam.loop_at(x), [q], rel_tol=rel_tol, sdot=fam.sdot(x))[0]
        for x in (s + h_s, s - h_s)
    )
    d = ((plus.phase - minus.phase + 0.5) % 1.0) - 0.5
    lhs = d / (2.0 * h_s)
    rhs = -0.5 * (plus.omega + minus.omega)
    rel_err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
    return DerivativeCheck(lhs=lhs, rhs=rhs, rel_err=rel_err)


def lift_circle_samples(
    eval_phase: Callable[[float], float], s_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Continuous lift of a circle-valued map sampled on a uniform s-grid.

    Adjacent samples are joined by the nearest circle representative; any
    wrapped jump of a quarter revolution or more triggers a dyadic
    refinement of the grid, up to ``MAX_LIFT_SAMPLES`` intervals.
    Refinement reuses the samples already taken: every other point of the
    doubled grid equals a point of the old one bit for bit.
    """
    m = int(s_samples)
    if not 2 <= m <= MAX_LIFT_SAMPLES:
        raise ValueError(f"s_samples must lie in [2, {MAX_LIFT_SAMPLES}]")
    seen: dict[float, float] = {}
    while m <= MAX_LIFT_SAMPLES:
        svals = np.linspace(0.0, 1.0, m + 1)
        for s in svals:
            if s not in seen:
                seen[s] = float(eval_phase(s)) % 1.0
        phases = np.array([seen[s] for s in svals])
        diffs = ((np.diff(phases) + 0.5) % 1.0) - 0.5
        if np.max(np.abs(diffs)) < 0.25:
            lift = np.concatenate([[phases[0]], phases[0] + np.cumsum(diffs)])
            return svals, lift
        m *= 2
    raise UnwrapError(f"adjacent phase jumps stay above 0.25 revolutions at {MAX_LIFT_SAMPLES} samples")


def phase_lift(
    M: OrbitSphere,
    fam: LoopFamily,
    q,
    s_samples: int = 64,
    rel_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Continuous lift of s -> kappa(loop_at(s)) sampled from base point q."""
    return lift_circle_samples(
        lambda s: kappa(M, fam.loop_at(s), q, rel_tol=rel_tol).value, s_samples
    )


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
    """Integral over s of Omega(s); vanishes for degree-zero closed families."""
    x, w = leggauss(s_nodes)
    svals = 0.5 * (x + 1.0)
    wts = 0.5 * w
    return float(
        sum(wt * omega_eval(M, fam, s, q, rel_tol=rel_tol) for s, wt in zip(svals, wts))
    )


def concatenate(fam1: LoopFamily, fam2: LoopFamily) -> LoopFamily:
    """s-wise path product of two families; the caller matches the base loops."""

    def builder(s):
        if s < 0.5:
            return fam1.loop_at(2.0 * s)
        return fam2.loop_at(2.0 * s - 1.0)

    def sd(s, t, u):
        if s < 0.5:
            return 2.0 * fam1.s_deriv(2.0 * s, t, u)
        return 2.0 * fam2.s_deriv(2.0 * s - 1.0, t, u)

    return LoopFamily(
        loop_builder=builder,
        s_deriv=sd,
        closed=fam1.closed and fam2.closed,
        label=f"({fam1.label}).({fam2.label})",
    )


def constant_family(loop: HamiltonianLoop) -> LoopFamily:
    """Family that does not move; its one-form and winding vanish."""

    def sd(s, t, u):
        u = np.asarray(u, dtype=float)
        return 0.0 if u.ndim == 1 else np.zeros(u.shape[0])

    return LoopFamily(
        loop_builder=lambda s: loop,
        s_deriv=sd,
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

    Every member is a one-parameter-subgroup loop; the family is closed in s
    exactly when ``turns`` is an integer.
    """
    rate = 2.0 * math.pi * float(turns)
    k = M.k

    def angle(s):
        return start_angle + rate * s

    def builder(s):
        lam = angle(s)
        return invariant_loop(
            M, AlgebraDirection(math.cos(lam), math.sin(lam)), closure_tol=closure_tol
        )

    def sd(s, t, u):
        # d/ds of -pi k (-cos(lam) u_x + sin(lam) u_y)
        lam = angle(s)
        u = np.asarray(u, dtype=float)
        return -math.pi * k * rate * (math.sin(lam) * u[..., 0] + math.cos(lam) * u[..., 1])

    return LoopFamily(
        loop_builder=builder,
        s_deriv=sd,
        closed=float(turns).is_integer(),
        label=f"subgroup-rotation[turns={turns:g}]",
    )


def _mixing_family(M, amp_fn, amp_dot_fn, profile, closure_tol, closed, label):
    g_fn, gd_fn = profile_functions(profile)
    k = M.k

    def builder(s):
        return mixing_loop(M, amp_fn(s), profile=profile, closure_tol=closure_tol)

    def sd(s, t, u):
        a = amp_fn(s)
        da = amp_dot_fn(s)
        g = g_fn(t)
        th = 2.0 * a * g
        u = np.asarray(u, dtype=float)
        return (
            k
            * da
            * (
                -2.0 * g * math.pi * math.sin(th) * u[..., 0]
                + 2.0 * g * math.pi * math.cos(th) * u[..., 1]
                - gd_fn(t) * u[..., 2]
            )
        )

    return LoopFamily(loop_builder=builder, s_deriv=sd, closed=closed, label=label)


def mixing_family(
    M: OrbitSphere,
    amplitude: float = 1.0,
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
        lambda s: amp,
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
    return _mixing_family(
        M,
        lambda s: amp * math.sin(math.pi * s) ** 2,
        lambda s: amp * math.pi * math.sin(2.0 * math.pi * s),
        profile,
        closure_tol,
        closed=True,
        label=f"closed-mixing[amp={amp:g},{profile}]",
    )


def scaling_family(base: HamiltonianLoop) -> LoopFamily:
    """Family f^s = (1 + s) * f; only s = 0 is a loop for generic bases."""

    def builder(s):
        return HamiltonianLoop(
            scale_hamiltonian(base.hamiltonian, 1.0 + s),
            closure_tol=base.closure_tol,
            label=f"(1+{s:g})*{base.label}",
        )

    return LoopFamily(
        loop_builder=builder,
        s_deriv=lambda s, t, u: base.hamiltonian.eval(t, u),
        closed=False,
        label=f"scaling[{base.label}]",
    )
