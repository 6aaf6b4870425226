import dataclasses
import re

import numpy as np
import pytest

from preqholo import (
    DIR_A,
    HamiltonianLoop,
    LoopFamily,
    OrbitSphere,
    UnwrapError,
    closed_mixing_family,
    concatenate,
    constant_family,
    double_integral_check,
    fibonacci_sphere,
    invariant_loop,
    kappa_derivative_check,
    lift_circle_samples,
    linear_axis,
    mixing_family,
    mixing_loop,
    sphere_point,
    subgroup_rotation_family,
    unit_vector,
    winding_number,
)
from preqholo.families import MAX_LIFT_SAMPLES, omega_eval as family_omega, winding_of

from conftest import constant_hamiltonian
from oracles import closure_defect_in_s


@pytest.fixture
def q():
    return sphere_point(1.1, 0.7)


DERIVATIVE_FAMILIES = {
    "subgroup-rotation-integer": lambda M: subgroup_rotation_family(M, start_angle=0.3, turns=2.0),
    "subgroup-rotation-half": lambda M: subgroup_rotation_family(M, turns=0.5),
    "mixing": lambda M: mixing_family(M, amplitude=1.0),
    "closed-mixing-cosine-ramp": lambda M: closed_mixing_family(M, amplitude=0.8),
    "closed-mixing-constant": lambda M: closed_mixing_family(M, amplitude=0.8, profile="constant"),
    "constant": lambda M: constant_family(mixing_loop(M, 0.7)),
    "concatenate": lambda M: concatenate(
        closed_mixing_family(M, amplitude=0.8), closed_mixing_family(M, amplitude=0.5, profile="constant")
    ),
}


@pytest.mark.parametrize("name", list(DERIVATIVE_FAMILIES))
def test_sdot_fd_matches_analytic(sphere1, name, rng):
    # s_deriv(s) is the Hamiltonian d f^s_t / ds: it matches a central
    # difference of the generators, and it is linear like them, the
    # constant family's zero too
    fam = DERIVATIVE_FAMILIES[name](sphere1)
    h = 1e-4
    for s in (0.13, 0.37, 0.62, 0.88):
        deriv = fam.s_deriv(s)
        assert linear_axis(deriv) is not None
        f_plus = fam.loop_builder(s + h).hamiltonian
        f_minus = fam.loop_builder(s - h).hamiltonian
        for _ in range(5):
            t = rng.uniform()
            p = unit_vector(rng.normal(size=3))
            fd = float(f_plus.eval(t, p) - f_minus.eval(t, p)) / (2.0 * h)
            assert fd == pytest.approx(float(deriv.eval(t, p)), rel=1e-5, abs=1e-8)


def test_family_closure_probe(sphere1):
    assert closure_defect_in_s(closed_mixing_family(sphere1, 0.5)) < 1e-9
    assert closure_defect_in_s(subgroup_rotation_family(sphere1, turns=1.0)) < 1e-9
    assert closure_defect_in_s(mixing_family(sphere1, 1.0)) > 0.01


def test_omega_constant_family(sphere1, q):
    fam = constant_family(invariant_loop(sphere1, DIR_A))
    assert abs(family_omega(sphere1, fam, 0.4, q)) < 1e-12


def test_omega_vanishes_on_subgroup_sweep(sphere1, q):
    # rotating the axis of an invariant loop never changes the holonomy, and
    # the one-form along the sweep is zero at every parameter
    fam = subgroup_rotation_family(sphere1, turns=0.5)
    for s in np.linspace(0.0, 1.0, 10):
        assert abs(family_omega(sphere1, fam, float(s), q)) < 1e-6


def test_omega_base_point_independence(sphere1):
    fam = mixing_family(sphere1, amplitude=1.0)
    vals = [family_omega(sphere1, fam, 0.3, p) for p in fibonacci_sphere(20)]
    assert np.ptp(vals) < 1e-5


def test_derivative_check_constant_family(sphere1, q):
    fam = constant_family(invariant_loop(sphere1, DIR_A))
    dc = kappa_derivative_check(sphere1, fam, 0.5, q)
    assert dc.lhs == pytest.approx(0.0, abs=1e-7)
    assert dc.rhs == pytest.approx(0.0, abs=1e-12)


def test_derivative_check_subgroup_family(sphere1, q):
    fam = subgroup_rotation_family(sphere1, turns=0.5)
    dc = kappa_derivative_check(sphere1, fam, 0.4, q)
    assert abs(dc.lhs) < 1e-5
    assert abs(dc.rhs) < 1e-6


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_derivative_check_mixing_family(sphere2, q, s):
    dc = kappa_derivative_check(sphere2, mixing_family(sphere2, 1.0), s, q)
    assert dc.rel_err < 1e-3
    # richardson oracle for the slope itself: halving the step agrees
    dc_half = kappa_derivative_check(sphere2, mixing_family(sphere2, 1.0), s, q, ds=5e-4)
    assert abs(dc.lhs - dc_half.lhs) < 1e-4


def drift_family(base, rate, closed=False):
    """Generators f_t + rate * s over a fixed loop: every member has the flow of
    base, so Omega = rate everywhere and kappa(s) = kappa(0) - rate * s."""
    f = base.hamiltonian

    def builder(s):
        g = dataclasses.replace(f, eval=lambda t, u, ss=s: f.eval(t, u) + rate * ss, label=f"drift[{s:g}]")
        return HamiltonianLoop(g, closure_tol=base.closure_tol, label=f"drift[{s:g}]")

    return LoopFamily(
        loop_builder=builder, s_deriv=lambda s: constant_hamiltonian(rate), closed=closed, label="drift"
    )


def test_derivative_identity_detects_constant_drift(sphere1, q):
    # generators shifted by an s-dependent constant leave every flow alone
    # but move the phase; both sides of the identity equal -d(shift)/ds,
    # a nonzero two-sided check of the transport bookkeeping
    rate = 0.3
    fam = drift_family(invariant_loop(sphere1, DIR_A), rate)
    dc = kappa_derivative_check(sphere1, fam, 0.4, q)
    assert dc.lhs == pytest.approx(-rate, abs=1e-6)
    assert dc.rhs == pytest.approx(-rate, abs=1e-9)
    assert dc.rel_err < 1e-3


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("m", [1, -2, 3])
def test_drift_family_has_integer_period(n, m, q):
    # f^s_t = f_t + m s is a loop in the loop space (every member has the
    # same flow, and kappa(1) = kappa(0) - m), though its generators at
    # s = 0 and s = 1 differ by m: the one-form has period m and the
    # winding is -m, the first nonzero values of both
    M = OrbitSphere(n)
    fam = drift_family(mixing_loop(M, 1.3), m, closed=True)
    assert family_omega(M, fam, 0.37, q) == pytest.approx(m, abs=1e-9)
    assert double_integral_check(M, fam, q, s_nodes=4) == pytest.approx(m, abs=1e-6)
    assert winding_number(M, fam, q, s_samples=16) == -m


def test_lift_circle_samples_winding():
    svals, lift = lift_circle_samples(lambda s: (3.0 * s) % 1.0, 64)
    assert lift[-1] - lift[0] == pytest.approx(3.0, abs=1e-12)


def test_lift_refines_coarse_grid():
    calls = []

    def phase(s):
        calls.append(s)
        return (3.0 * s) % 1.0

    svals, lift = lift_circle_samples(phase, 4)
    # 4 samples alias a winding of 3; the lift must have refined the grid
    assert len(svals) > 5
    assert lift[-1] - lift[0] == pytest.approx(3.0, abs=1e-12)


def test_lift_refinement_reuses_samples():
    calls = []

    def phase(svals):
        calls.append(np.array(svals))
        return (1.5 * svals) % 1.0

    # steps of 0.75 and 0.375 rev fail the jump test; 8 intervals pass.
    # One batched call per grid level, each over only the new midpoints.
    svals, lift = lift_circle_samples(phase, 2)
    assert [len(c) for c in calls] == [3, 2, 4]
    assert np.array_equal(calls[1], [0.25, 0.75])
    assert len(set(np.concatenate(calls))) == 9
    direct_s, direct_lift = lift_circle_samples(lambda s: (1.5 * s) % 1.0, 8)
    assert np.array_equal(svals, direct_s)
    assert np.array_equal(lift, direct_lift)


def test_lift_unwrap_failure():
    rng = np.random.default_rng(0)
    with pytest.raises(UnwrapError):
        lift_circle_samples(lambda s: rng.uniform(size=len(s)), 8)


def test_unwrap_error_names_finest_grid_and_largest_jump():
    # random phases never resolve; the error reports the grid it reached
    # (3 * 2^12 intervals: the last doubling of 3 below the 2^14 cap) and
    # the largest wrapped jump seen there
    rng = np.random.default_rng(1)
    levels = []

    def phases(svals):
        levels.append(len(svals))
        return rng.uniform(size=len(svals))

    with pytest.raises(UnwrapError) as err:
        lift_circle_samples(phases, 3)
    finest = 3 * 2**12
    assert finest <= MAX_LIFT_SAMPLES < 2 * finest
    assert f"{finest} intervals" in str(err.value)
    assert sum(levels) == finest + 1
    jump = float(re.search(r"jump is ([0-9.]+) revolutions", str(err.value)).group(1))
    assert 0.25 <= jump <= 0.5


def test_winding_of_requires_a_near_integer_total():
    with pytest.raises(UnwrapError):
        winding_of([0.0, 0.4])
    assert winding_of([0.0, 1.02]) == 1


def test_winding_requires_closed(sphere1, q):
    with pytest.raises(ValueError):
        winding_number(sphere1, mixing_family(sphere1, 1.0), q)


def test_winding_constant_family(sphere1, q):
    assert winding_number(sphere1, constant_family(invariant_loop(sphere1, DIR_A)), q, s_samples=8) == 0


def test_winding_subgroup_rotation(sphere1, q):
    fam = subgroup_rotation_family(sphere1, turns=1.0)
    assert winding_number(sphere1, fam, q, s_samples=16) == 0


def test_winding_stable_under_doubling(sphere1, q):
    fam = closed_mixing_family(sphere1, 0.6)
    w16 = winding_number(sphere1, fam, q, s_samples=16)
    w32 = winding_number(sphere1, fam, q, s_samples=32)
    assert w16 == w32 == 0


def test_winding_additive_under_concatenation(sphere1, q):
    rot = subgroup_rotation_family(sphere1, turns=1.0)
    mix = closed_mixing_family(sphere1, 0.5)
    w_rot = winding_number(sphere1, rot, q, s_samples=16)
    w_mix = winding_number(sphere1, mix, q, s_samples=16)
    w_cat = winding_number(sphere1, concatenate(rot, mix), q, s_samples=32)
    assert w_cat == w_rot + w_mix


def test_winding_homotopy_invariance(sphere1, q):
    # two explicitly homotopic closed families (amplitude scaling deforms
    # one into the other) must have equal winding
    w_a = winding_number(sphere1, closed_mixing_family(sphere1, 0.3), q, s_samples=16)
    w_b = winding_number(sphere1, closed_mixing_family(sphere1, 0.9), q, s_samples=16)
    assert w_a == w_b


def test_winding_consistent_with_one_form_sum(sphere1, q):
    # the integral of the one-form over the family agrees with minus the
    # winding before rounding
    fam = subgroup_rotation_family(sphere1, turns=1.0)
    svals = np.linspace(0.0, 1.0, 9)[:-1]
    total = sum(family_omega(sphere1, fam, float(s), q) for s in svals) / 8.0
    w = winding_number(sphere1, fam, q, s_samples=16)
    assert abs(-total - w) < 1e-3


def test_double_integral_constant_family(sphere1, q):
    val = double_integral_check(sphere1, constant_family(invariant_loop(sphere1, DIR_A)), q, s_nodes=4)
    assert abs(val) < 1e-12


def test_double_integral_subgroup_family(sphere1, q):
    val = double_integral_check(sphere1, subgroup_rotation_family(sphere1, turns=1.0), q, s_nodes=8)
    assert abs(val) < 1e-6


def test_double_integral_perturbed_family(sphere1, q):
    # degree-zero perturbation of the constant family; oracle: the winding
    # is zero, so the double integral must vanish
    fam = closed_mixing_family(sphere1, 0.4)
    assert winding_number(sphere1, fam, q, s_samples=16) == 0
    assert abs(double_integral_check(sphere1, fam, q, s_nodes=8)) < 1e-4


def test_loop_at_cache(sphere1):
    fam = subgroup_rotation_family(sphere1, turns=1.0)
    assert fam.loop_at(0.25) is fam.loop_at(0.25)
