"""The registries of config: an entry built from its required parameters only
is the library builder called with the same parameters, so every default is
the library's own, and an entry whose generator does not depend on t builds
constant axes."""

import numpy as np
import pytest

from preqholo import (
    DIR_A,
    HamiltonianLoop,
    OrbitSphere,
    closed_mixing_family,
    constant_family,
    invariant_loop,
    mixing_family,
    mixing_loop,
    subgroup_rotation_family,
)
from preqholo.config import FAMILY_NAMES, HAMILTONIAN_NAMES, Tolerances, build_family, build_loop
from preqholo.dynamics import _steady_x, linear_axis, scale_hamiltonian, zero_hamiltonian

M = OrbitSphere(2)
TIMES = (0.0, 0.3, 0.75, np.array([0.1, 0.5, 0.9]))
SVALS = (0.0, 0.4, 1.0)


def scaled(loop, factor):
    return HamiltonianLoop(scale_hamiltonian(loop.hamiltonian, factor), label=f"{factor}*{loop.label}")


# Each registry entry: its spec with the required parameters only, and the
# library call with the same parameters.
LOOPS = {
    "zero": ({"name": "zero"}, lambda: HamiltonianLoop(zero_hamiltonian(), label="zero")),
    "invariant": ({"name": "invariant"}, lambda: invariant_loop(M, DIR_A)),
    "mix": ({"name": "mix", "amplitude": 1.3}, lambda: mixing_loop(M, 1.3)),
    "scaled": (
        {"name": "scaled", "base": {"name": "invariant"}, "factor": 3},
        lambda: scaled(invariant_loop(M, DIR_A), 3),
    ),
}
FAMILIES = {
    "constant": ({"name": "constant"}, lambda: constant_family(invariant_loop(M, DIR_A))),
    "subgroup-rotation": ({"name": "subgroup-rotation"}, lambda: subgroup_rotation_family(M)),
    "mixing": ({"name": "mixing"}, lambda: mixing_family(M)),
    "closed-mixing": ({"name": "closed-mixing"}, lambda: closed_mixing_family(M)),
}


def assert_same_hamiltonian(got, want):
    assert (got.label, got.breakpoints) == (want.label, want.breakpoints)
    for t in TIMES:
        assert got.axis(t).tobytes() == want.axis(t).tobytes()


def assert_same_loop(got, want):
    assert (got.label, got.closure_tol) == (want.label, want.closure_tol)
    assert_same_hamiltonian(got.hamiltonian, want.hamiltonian)


@pytest.mark.parametrize("name", HAMILTONIAN_NAMES)
def test_a_loop_built_from_its_required_parameters_is_the_library_default(name):
    spec, library = LOOPS[name]
    assert_same_loop(build_loop(M, spec, Tolerances()), library())


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_a_family_built_from_its_required_parameters_is_the_library_default(name):
    spec, library = FAMILIES[name]
    got, want = build_family(M, spec, Tolerances()), library()
    assert (got.label, got.closed) == (want.label, want.closed)
    for s in SVALS:
        assert_same_loop(got.loop_at(s), want.loop_at(s))
        assert_same_hamiltonian(got.s_deriv(s), want.s_deriv(s))


# Registry specs, with whether the generators they build (and, for a family,
# its members' s-derivatives) do not depend on t.  Every entry appears.
CONSTANT_LOOPS = [
    ({"name": "zero"}, True),
    ({"name": "invariant", "a": 0.6, "b": 0.8}, True),
    ({"name": "scaled", "base": {"name": "invariant"}, "factor": 2}, True),
    ({"name": "scaled", "base": {"name": "zero"}, "factor": 3}, True),
    ({"name": "mix", "amplitude": 1.3}, False),
    ({"name": "mix", "amplitude": 2.0, "profile": "constant"}, False),
    ({"name": "scaled", "base": {"name": "mix", "amplitude": 0.7}, "factor": 3}, False),
]
CONSTANT_FAMILIES = [
    ({"name": "constant"}, True),
    ({"name": "constant", "hamiltonian": {"name": "scaled", "base": {"name": "invariant"}, "factor": 2}}, True),
    ({"name": "subgroup-rotation", "start_angle": 0.4, "turns": 2}, True),
    ({"name": "constant", "hamiltonian": {"name": "mix", "amplitude": 1.1}}, False),
    ({"name": "mixing", "amplitude": 0.8}, False),
    ({"name": "mixing", "amplitude": 1.3, "profile": "constant"}, False),
    ({"name": "closed-mixing", "amplitude": 0.9}, False),
]


def test_constant_generators_build_constant_axes():
    # a batch of constant axes is read in closed form, with no solve
    # (dynamics._closed_form); an axis of such an entry wrapped in a
    # function would lose that, and fail here instead of only running slower
    assert {spec["name"] for spec, _ in CONSTANT_LOOPS} == set(HAMILTONIAN_NAMES)
    assert {spec["name"] for spec, _ in CONSTANT_FAMILIES} == set(FAMILY_NAMES)
    for spec, constant in CONSTANT_LOOPS:
        assert (_steady_x(linear_axis(build_loop(M, spec, Tolerances()).hamiltonian)) is not None) is constant, spec
    for spec, constant in CONSTANT_FAMILIES:
        fam = build_family(M, spec, Tolerances())
        hs = [h for s in SVALS for h in (fam.loop_at(s).hamiltonian, fam.s_deriv(s))]
        assert all(_steady_x(linear_axis(h)) is not None for h in hs) is constant, spec
