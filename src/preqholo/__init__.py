"""Numerical holonomy of prequantum transport on the integer-level sphere.

The package computes the holonomy of the natural line-bundle transport along
loops of Hamiltonian flows on the sphere whose rescaled area form has total
integral n, together with the mod-1 action of a loop, the loop-space
one-form on families of loops, and integer winding numbers of closed
families.  Closed-form SU(2) flows provide exact oracles for every
integrator in the package.
"""

__version__ = "0.1.0"

from .dynamics import (
    HamiltonianLoop,
    IntegrationError,
    LoopClosureError,
    SubgroupWord,
    TimeDepHamiltonian,
    Trajectory,
    WordField,
    compose_hamiltonian,
    constant_axis,
    hamiltonian_vector_field,
    integrate_isotopy,
    linear_axis,
    linear_hamiltonian,
    scale_hamiltonian,
    steady_angle,
    trajectories,
    unit_rate,
    zero_hamiltonian,
)
from .families import (
    DerivativeCheck,
    LoopFamily,
    UnwrapError,
    closed_mixing_family,
    concatenate,
    constant_family,
    double_integral_check,
    kappa_derivative_check,
    lift_circle_samples,
    member_states,
    mixing_family,
    phase_lift,
    subgroup_rotation_family,
    winding_number,
)
from .holonomy import (
    PhaseState,
    UnitPhase,
    circle_distance,
    kappa,
    kappa_at_fixed_point,
    kappas,
    product_loop,
    transport_phase,
    transport_phases,
)
from .sphere import (
    Chart,
    ChartDomainError,
    OrbitSphere,
    fibonacci_sphere,
    potential_eval,
    sphere_point,
    spherical_coords,
    unit_vector,
)
from .su2 import (
    DIR_A,
    DIR_B,
    DIR_Z,
    AlgebraDirection,
    SU2Element,
    act,
    closed_form_flow,
    exp_su2,
    invariant_hamiltonian,
    invariant_loop,
    mixing_loop,
)

__all__ = [name for name in dir() if not name.startswith("_")]
