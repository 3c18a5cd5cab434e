"""Numerical calculus for degenerate Kolmogorov operators.

Homogeneous group structure, explicit Gaussian fundamental solutions,
the intrinsic second-order Taylor expansion with its flow-path planner,
Dini-modulus machinery, and a manufactured-solution harness that checks
the interior estimate inequalities at desk scale.
"""

from .errors import (
    AccuracyError,
    DomainError,
    EllipticityError,
    HypoellipticityError,
    KolmoError,
    ManufactureError,
    NonConvergenceError,
    PlanIntegrityError,
    StructureError,
    UsageError,
)
from .group import (
    BlockStructure,
    Exponents,
    OperatorSpec,
    Point,
    compose_rows,
    dilate_rows,
    finite_rows,
    heat_spec,
    inverse_rows,
    kdist_rows,
    knorm_rows,
    kolmogorov_spec,
    level_exponents,
    level_map_solve,
    load_spec,
    make_spec,
    project_level,
    sample_ball,
    scaled_B,
    validate_structure,
)
from .kernel import (
    Covariance,
    KernelContext,
    KernelJet,
    covariance,
    gamma,
    gamma_grad,
    gamma_hess_m,
    kernel_jet_rows,
    kernel_mass,
)
from .matrixcalc import mat_exp, sqrt_spd
from .modulus import (
    DiniReport,
    ModulusTable,
    counterexample_certificate,
    counterexample_f,
    counterexample_mixed,
    dini_integral,
    empirical_modulus,
    schauder_functional,
    schauder_functional_rows,
    table_from_function,
)
from .taylor import (
    C2Bundle,
    PathPlan,
    PathSegment,
    connect,
    endpoint_error,
    flow_X,
    flow_Y,
    gamma_traj,
    gaussian_bundle,
    quadratic_bundle,
    remainder_profile,
    taylor2,
    verify_plan,
)
from .verify import (
    EstimateReport,
    ManufacturedProblem,
    apply_L_fd,
    harmonic_family,
    manufacture,
    verify_apriori,
    verify_invariance,
    verify_mean_value,
    verify_schauder,
    verify_singular_bounds,
)

__version__ = "0.1.0"
