"""Front propagation in a logistic reaction-diffusion model whose diffusion
coefficient ``a(x) = x**2 + epsilon`` nearly vanishes at the origin.

The package pairs a conservative finite-difference solver with the matching
closed-form machinery: drift-model front evolution, ray transport of the
exponential tail, and the spectrum of the diffusion operator with the
logistic prediction of the domain mean.
"""

from .asymptotics import (
    RootPair,
    SfaResidualReport,
    TwcBranch,
    sfa_evolve,
    sfa_residual,
    stationary_roots,
)
from .config import ConfigError, ExperimentConfig, config_digest, load_config
from .domain import (
    DiffusionProfile,
    Field,
    Grid,
    logistic_reaction,
    make_constant_diffusion,
    make_quadratic_diffusion,
    step_initial_condition,
    x_of_xi,
    xi_of_x,
)
from .front import (
    FitReport,
    FrontNotTransitedError,
    FrontPath,
    fit_power_law,
    front_positions,
    track_front,
    trapping_time,
)
from .solver import (
    FactoredSymmetricTridiagonal,
    TridiagonalOperator,
    build_operator,
    factor_step_matrix,
    march,
)
from .spectral import (
    EigenSolveError,
    EigenSystem,
    average_prediction,
    solve_eigenproblem,
)
from .wkb import (
    Branch,
    CharacteristicPath,
    WkbParams,
    characteristic_label,
    integrate_characteristic,
    phase_along,
)

__version__ = "0.1.0"
