"""Dunkl operators, the intertwining operator, and its Gaussian kernel."""

from .exact import ComplexRational
from .poly import (
    HermiteData,
    Polynomial,
    directional_derivative,
    evaluate,
    fischer,
    fischer_via_gaussian,
    heat_half,
    hermite,
    inverse_heat_half,
    laplacian,
    sphere_sup_norm,
)
from .reflection_groups import (
    MultiplicityFunction,
    PositiveSystem,
    ReflectionGroup,
    RootSystem,
    act_on_polynomial,
    build_root_system,
    generate_group,
    reflect,
    select_positive,
    validate_multiplicity,
)
from .operators import (
    DunklContext,
    GroupAlgebraElement,
    NotInMStarError,
    dunkl_apply,
    dunkl_kernel,
    estimate_delta,
    euler_W,
    homogeneous_kernel,
    intertwine,
    intertwine_inverse,
    make_context,
    operator_A,
    solve_H,
)
from .kernel import (
    KernelEvaluator,
    TailBound,
    certified_radius,
    convolution_check,
    derivative_relation_check,
    fourier_check,
    gaussian_image_check,
    lk_eval,
    lk_eval_hermite,
    lk_mass,
    make_evaluator,
    phi_x_apply,
    phi_x_norm,
    positivity_scan,
    symmetry_scan,
)
from .quad import (
    GaussianWeighted,
    QuadratureRule,
    fourier_quadrature,
    gauss_rule,
    integrate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
