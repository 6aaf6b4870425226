import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from numpy.polynomial.legendre import leggauss

from preqholo import LoopFamily, OrbitSphere, TimeDepHamiltonian, linear_axis, linear_hamiltonian, potential_eval

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def sphere1():
    return OrbitSphere(1)


@pytest.fixture
def sphere2():
    return OrbitSphere(2)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def geodesic(a, b):
    """Arc-length-parametrized great-circle segment and its velocity."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ang = math.acos(min(1.0, max(-1.0, float(a @ b))))
    sa = math.sin(ang)

    def point(tau):
        return (math.sin((1 - tau) * ang) * a + math.sin(tau * ang) * b) / sa

    def velocity(tau):
        return (-ang * math.cos((1 - tau) * ang) * a + ang * math.cos(tau * ang) * b) / sa

    return point, velocity


def line_integral_potential(M, frame, point_fn, velocity_fn, nodes=48):
    """Gauss-Legendre line integral of the chart potential along a curve."""
    x, w = leggauss(nodes)
    taus = 0.5 * (x + 1.0)
    wts = 0.5 * w
    return sum(
        wt * potential_eval(M, frame, point_fn(tau), velocity_fn(tau))
        for tau, wt in zip(taus, wts)
    )


def constant_hamiltonian(c):
    """f_t = c, a Hamiltonian with a zero gradient that linear_axis does not vouch for."""
    c = float(c)

    def ev(t, u):
        u = np.asarray(u, dtype=float)
        return c if u.ndim == 1 else np.full(u.shape[0], c)

    def gr(t, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return TimeDepHamiltonian(eval=ev, grad=gr, label=f"const[{c}]")


def quadratic_hamiltonian(c=1.0):
    """Zero-mean non-linear Hamiltonian c * u_x * u_y; flow is not a rotation."""

    def ev(t, u):
        u = np.asarray(u, float)
        return c * u[..., 0] * u[..., 1]

    def gr(t, u):
        u = np.asarray(u, float)
        g = c * np.stack(
            [u[..., 1], u[..., 0], np.zeros_like(u[..., 0])], axis=-1
        )
        proj = np.expand_dims(np.sum(g * u, axis=-1), -1) * u
        return g - proj

    return TimeDepHamiltonian(eval=ev, grad=gr, label=f"{c}*xy", time_independent=True)


def plain(fn):
    """fn behind a plain function, which the transport cannot tell from a time-dependent one."""
    return lambda *args: fn(*args)


def plain_hamiltonian(f):
    """A linear Hamiltonian with its axis behind ``plain``: the same axis, solved as if it depended on t."""
    return linear_hamiltonian(plain(linear_axis(f)), label=f.label, breakpoints=f.breakpoints)


def plain_loop(loop):
    """A loop of a linear Hamiltonian with its axis behind ``plain`` (``plain_hamiltonian``)."""
    return dataclasses.replace(loop, hamiltonian=plain_hamiltonian(loop.hamiltonian))


def plain_family(fam):
    """fam with each member's and each s-derivative's axis behind ``plain`` (``plain_loop``, ``plain_hamiltonian``)."""
    return LoopFamily(
        loop_builder=lambda s: plain_loop(fam.loop_at(s)),
        s_deriv=lambda s: plain_hamiltonian(fam.s_deriv(s)),
        closed=fam.closed,
        label=fam.label,
    )
