"""Closed-form SU(2) reference data: group elements, the sphere action,
invariant Hamiltonians and loops, and the exact invariant flow used as an oracle.

Conventions.  The algebra basis is

    A = [[0, i], [i, 0]],   B = [[0, 1], [-1, 0]],   Z = [[i, 0], [0, -i]],

and a group element is parametrized by the first row (x, y) of the matrix
[[x, y], [-conj(y), conj(x)]].  A point of the sphere with spherical
coordinates (theta, phi) corresponds to the moment values

    h_A = -k sin(theta) cos(phi),  h_B = k sin(theta) sin(phi),  h_Z = k cos(theta),

so in Cartesian storage h_C(u) = k * w . u with w = (-a, b, z) for
C = aA + bB + zZ.  The invariant field X_C (the one with omega(X_C,.) = dh_C)
is 2 w x u, and its flow is the left action of exp(tC).  Under the sign
convention of the dynamics module, X_C is the Hamiltonian field of -h_C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HamiltonianLoop,
    SubgroupWord,
    TimeDepHamiltonian,
    constant_axis,
    linear_hamiltonian,
    steady_angle,
    unit_rate,
)
from .sphere import OrbitSphere, unit_vector

_A_MAT = np.array([[0.0, 1.0j], [1.0j, 0.0]])
_B_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_Z_MAT = np.array([[1.0j, 0.0], [0.0, -1.0j]])
_P = np.diag([-1.0, 1.0, 1.0])


@dataclass(frozen=True)
class SU2Element:
    """Group element [[x, y], [-conj(y), conj(x)]] with |x|^2 + |y|^2 = 1."""

    x: complex
    y: complex

    def __post_init__(self):
        r = abs(self.x) ** 2 + abs(self.y) ** 2
        if abs(r - 1.0) > 1e-12:
            raise ValueError(f"not unitary: |x|^2 + |y|^2 = {r}")

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(1.0 + 0.0j, 0.0j)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.x, self.y], [-np.conj(self.y), np.conj(self.x)]])

    def inverse(self) -> "SU2Element":
        return SU2Element(np.conj(self.x), -self.y)

    def __matmul__(self, other: "SU2Element") -> "SU2Element":
        x = self.x * other.x - self.y * np.conj(other.y)
        y = self.x * other.y + self.y * np.conj(other.x)
        r = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
        return SU2Element(x / r, y / r)


@dataclass(frozen=True)
class AlgebraDirection:
    """Coefficients of aA + bB + zZ; loop generation requires unit norm."""

    a: float
    b: float
    z: float = 0.0

    @property
    def norm(self) -> float:
        return math.sqrt(self.a**2 + self.b**2 + self.z**2)

    def axis(self) -> np.ndarray:
        """Point-space axis of the generated rotation: w = (-a, b, z)."""
        return np.array([-self.a, self.b, self.z])


DIR_A = AlgebraDirection(1.0, 0.0, 0.0)
DIR_B = AlgebraDirection(0.0, 1.0, 0.0)
DIR_Z = AlgebraDirection(0.0, 0.0, 1.0)


def exp_su2(direction: AlgebraDirection, t: float) -> SU2Element:
    """Closed-form exponential exp(t * (aA + bB + zZ)).

    Equals cos(t|C|) I + sin(t|C|)/|C| * C; the t = 0 case is the identity
    without reference to the (then undefined) unit phase of the direction.
    """
    nrm = direction.norm
    if nrm == 0.0 or t == 0.0:
        return SU2Element.identity()
    ang = t * nrm
    s = math.sin(ang) / nrm
    x = math.cos(ang) + 1.0j * direction.z * s
    y = (direction.b + 1.0j * direction.a) * s
    r = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
    return SU2Element(x / r, y / r)


def rotation_matrix(g: SU2Element) -> np.ndarray:
    """Rotation of point space induced by the group element.

    Columns are read off from the conjugation g E g^{-1} of the basis
    matrices, then conjugated by the sign flip that relates moment
    coordinates (h_A, h_B, h_Z)/k to the stored unit vector.
    """
    gm = g.matrix
    gi = g.inverse().matrix
    cols = []
    for e_mat in (_A_MAT, _B_MAT, _Z_MAT):
        w = gm @ e_mat @ gi
        cols.append([w[0, 1].imag, w[0, 1].real, w[0, 0].imag])
    m = np.array(cols).T
    return _P @ m @ _P


def act(g: SU2Element, p) -> np.ndarray:
    """Action of the group element on sphere points (single or batched)."""
    r = rotation_matrix(g)
    u = np.asarray(p, dtype=float)
    if u.ndim == 1:
        return unit_vector(r @ u)
    out = u @ r.T
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def closed_form_flow(direction: AlgebraDirection, t: float, p) -> np.ndarray:
    """Exact flow of the invariant field X_dir: left action of exp(t dir)."""
    return act(exp_su2(direction, t), p)


def _moment_label(direction: AlgebraDirection) -> str:
    return f"h[a={direction.a:g},b={direction.b:g},z={direction.z:g}]"


def invariant_hamiltonian(M: OrbitSphere, direction: AlgebraDirection) -> TimeDepHamiltonian:
    """Moment function h_dir(u) = k * w . u, a linear Hamiltonian with the constant axis k w."""
    return linear_hamiltonian(constant_axis(M.k * direction.axis()), label=_moment_label(direction))


def invariant_loop(
    M: OrbitSphere, direction: AlgebraDirection, closure_tol: float = 1e-6
) -> HamiltonianLoop:
    """Unit-period loop generated by pi * (-h_dir) for a unit direction.

    The underlying flow exp(t dir) has period pi on the sphere; scaling by pi
    reparametrizes it to [0, 1].  The moment functions are linear in u, so
    the Hamiltonian already has zero mean.  Its axis is the constant
    -pi k w (``constant_axis``), built directly: the doubles of scaling
    ``invariant_hamiltonian`` by -pi, without its composition.
    """
    nrm = math.hypot(direction.a, direction.b, direction.z)  # direction.norm raises OverflowError from ~1.35e154
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"invariant loops require a unit direction, got |(a,b,z)| = {nrm!r}")
    label = _moment_label(direction)
    f = linear_hamiltonian(constant_axis(-math.pi * (M.k * direction.axis())), label=f"pi*(-{label})")
    return HamiltonianLoop(f, closure_tol=closure_tol, label=f"invariant[{label}]")


def _ramp(t):
    """The 'cosine-ramp' drift g(t) = (1 - cos 2 pi t) / 2."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * t))


def _ramp_rate(t):
    """g'(t) = pi sin 2 pi t of ``_ramp``."""
    return np.pi * np.sin(2.0 * np.pi * t)


def profile_functions(name: str):
    """Named drift profiles g(t) for the mixing loop, with derivatives.

    Both read a scalar t or an array of times elementwise.  They are the
    same module-level functions at every call, so the words of any two
    mixing loops of one profile, and of the members of a mixing family,
    share their angles and are read as one group (``dynamics._word_groups``).
    """
    if name == "constant":
        return steady_angle, unit_rate
    if name == "cosine-ramp":
        return _ramp, _ramp_rate
    raise ValueError(f"unknown profile '{name}' (expected 'constant' or 'cosine-ramp')")


def mixing_loop(
    M: OrbitSphere,
    amplitude: float,
    profile: str = "cosine-ramp",
    closure_tol: float = 1e-6,
) -> HamiltonianLoop:
    """Two-axis loop: the basic A-axis loop with its axis swung by a z-drift.

    The flow is act(exp(amplitude * g(t) * Z) exp(pi t A), .), a genuine loop
    whenever g(0) = g(1) = 0 ('cosine-ramp' for every amplitude) or when the
    residual z-rotation is a multiple of pi ('constant' drift with amplitude
    in pi * Z).  The generating Hamiltonian is linear in u, hence zero mean:

        f_t(u) = k [ pi cos(2 A g) u_x + pi sin(2 A g) u_y - A g'(t) u_z ],

    the axis of the word exp(-i A g(t) sigma_z) exp(i pi t sigma_x)
    (``SubgroupWord``), whose transport is read in closed form.
    """
    g_fn, gd_fn = profile_functions(profile)
    amp = float(amplitude)
    k = M.k
    # exp(-i a g(t) sigma_z) exp(i pi t sigma_x): the letters (-k a e_z, g) and (k pi e_x, t)
    drift, turn = np.array([0.0, 0.0, -k * amp]), np.array([k * math.pi, 0.0, 0.0])
    letters = ((drift, g_fn, gd_fn), (turn, steady_angle, unit_rate))
    label = f"mix[amp={amp:g},{profile}]"
    f = linear_hamiltonian(SubgroupWord(letters, k=k), label=label)
    return HamiltonianLoop(f, closure_tol=closure_tol, label=label)
