"""fracext: fractional powers of linear operators via extension-problem
boundary traces, heat-semigroup subordination, and wave-equation
representations, with independent spectral oracles for every formula."""

from .extension import (
    ExtensionEvaluation,
    ExtensionSolver,
    TraceEstimate,
    boundary_traces,
    neumann_trace,
    pde_residual,
    quotient_trace,
    rotate_imaginary,
    solve_cosine_form,
    solve_cosine_fractional,
    solve_fractional_data,
    solve_regularized,
    solve_semigroup_form,
)
from .families import (
    GrowthProfile,
    OperatorFamily,
    cosine_family,
    cosine_to_semigroup,
    heat_semigroup,
    integra_identity_residual,
    integrate_family,
    integrated_cosine,
    integrated_exponential,
    measure_growth,
    temperedness_profile,
    verify_resolvent,
)
from .funcalc import (
    FractionalPowerResult,
    balakrishnan_power,
    cero_residual,
    integrated_power,
    msm_limit_residual,
    pi_alpha,
    shifted_negative_power,
    spectral_power_oracle,
)
from .kernels import (
    Kernel,
    SectorPoint,
    convolve_halfline,
    eval_kernel,
    sobolev_norm,
    time_derivative,
    weyl_derivative,
    weyl_integral,
    z_derivative,
)
from .operators import (
    LinearOperator,
    SpectralDecomposition,
    apply,
    build_fourier_multiplier,
    build_laplacian_1d,
    resolvent_solve,
    spectral_decompose,
)
from .quadrature import (
    QuadratureResult,
    integrate_halfline,
    integrate_interval,
    richardson_limit,
)
from .specfun import (
    FracOrder,
    NamedConstants,
    constants_for,
    gamma,
    lower_incomplete_gamma,
)

__version__ = "0.1.0"
