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

from .dynamics import HamiltonianLoop, TimeDepHamiltonian, scale_hamiltonian
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

    def unit(self) -> "AlgebraDirection":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero direction")
        return AlgebraDirection(self.a / n, self.b / n, self.z / n)

    @property
    def matrix(self) -> np.ndarray:
        return self.a * _A_MAT + self.b * _B_MAT + self.z * _Z_MAT

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


def invariant_hamiltonian(M: OrbitSphere, direction: AlgebraDirection) -> TimeDepHamiltonian:
    """Moment function h_dir(u) = k * w . u, with its analytic gradient."""
    w = direction.axis()
    k = M.k

    def ev(t, u):
        return k * (np.asarray(u, dtype=float) @ w)

    def gr(t, u):
        u = np.asarray(u, dtype=float)
        proj = (u @ w)[..., None] * u
        return k * (w - proj)

    return TimeDepHamiltonian(
        eval=ev,
        grad=gr,
        label=f"h[a={direction.a:g},b={direction.b:g},z={direction.z:g}]",
        time_independent=True,
    )


def invariant_loop(
    M: OrbitSphere, direction: AlgebraDirection, closure_tol: float = 1e-6
) -> HamiltonianLoop:
    """Unit-period loop generated by pi * (-h_dir) for a unit direction.

    The underlying flow exp(t dir) has period pi on the sphere; scaling by pi
    reparametrizes it to [0, 1].  The moment functions are linear in u, so
    the Hamiltonian already has zero mean.
    """
    if abs(direction.norm - 1.0) > 1e-12:
        raise ValueError("invariant loops require a unit direction")
    h = invariant_hamiltonian(M, direction)
    f = scale_hamiltonian(h, -math.pi, label=f"pi*(-{h.label})")
    return HamiltonianLoop(f, closure_tol=closure_tol, label=f"invariant[{h.label}]")


def profile_functions(name: str):
    """Named drift profiles g(t) for the mixing loop, with derivatives."""
    if name == "constant":
        return (lambda t: t), (lambda t: 1.0)
    if name == "cosine-ramp":
        return (
            lambda t: 0.5 * (1.0 - math.cos(2.0 * math.pi * t)),
            lambda t: math.pi * math.sin(2.0 * math.pi * t),
        )
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

        f_t(u) = k [ pi cos(2 A g) u_x + pi sin(2 A g) u_y - A g'(t) u_z ].
    """
    g_fn, gd_fn = profile_functions(profile)
    amp = float(amplitude)
    k = M.k

    def wvec(t):
        th = 2.0 * amp * g_fn(t)
        return np.array(
            [math.pi * math.cos(th), math.pi * math.sin(th), -amp * gd_fn(t)]
        )

    def ev(t, u):
        return k * (np.asarray(u, dtype=float) @ wvec(t))

    def gr(t, u):
        u = np.asarray(u, dtype=float)
        w = wvec(t)
        proj = (u @ w)[..., None] * u
        return k * (w - proj)

    label = f"mix[amp={amp:g},{profile}]"
    f = TimeDepHamiltonian(eval=ev, grad=gr, label=label, time_independent=False)
    return HamiltonianLoop(f, closure_tol=closure_tol, label=label)
