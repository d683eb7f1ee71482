"""Reduced dynamics, relative equilibria and stability atlases for charged
particles on a sphere in a uniform radial magnetic field."""

from .core import (
    BodyFrameVelocity,
    CollisionApproach,
    DEFAULT_TOL,
    DegenerateConfiguration,
    DomainError,
    MagsphereError,
    NearRightAngle,
    NoAdmissibleRoot,
    NonFiniteState,
    OutsideDomain,
    Potential,
    ReducedState,
    ResidualTooLarge,
    SystemParams,
    Tolerances,
    cot_potential,
    identical_params,
    table_potential,
)
from .reduced import (
    Trajectory,
    casimir,
    hamiltonian,
    integrate,
    residual,
)
from .fullspace import (
    FullState,
    FullTrajectory,
    full_integrate,
    geodesic_distance,
    lift_state,
    momentum_map,
    reduce_state,
)
from .equilibria import (
    EquilibriumRecord,
    Family,
    RightAngleFamily,
    casimir_on_type1,
    solve_general,
    solve_right_angle,
    type1,
    type2,
    type2_threshold,
)
from .stability import (
    Classification,
    LinearizationReport,
    classify,
    hessian_signature,
    linearize,
    threshold_stability,
    type1_boundary,
)
from .symmetry import opposite_charge, swap, swap_matrix, time_reversal
from . import atlas

__version__ = "0.1.0"
