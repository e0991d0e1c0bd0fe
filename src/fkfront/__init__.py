"""Front propagation in a logistic reaction-diffusion model whose diffusion
coefficient ``a(x) = x**2 + epsilon`` nearly vanishes at the origin.

The package pairs a conservative finite-difference solver with the matching
closed-form machinery: drift-model front evolution, ray transport of the
exponential tail, and the spectrum of the diffusion operator with the
logistic prediction of the domain mean.

Every name below is re-exported from its submodule, which is imported the
first time the name is looked up (PEP 562), so ``import fkfront`` loads
neither numpy nor any submodule.
"""

import importlib

# exported name -> submodule that defines it (and lists it in its __all__)
_EXPORTS = {
    **dict.fromkeys(
        ["sfa_evolve", "sfa_residual", "stationary_roots"], "asymptotics"),
    **dict.fromkeys(
        ["ConfigError", "ExperimentConfig", "config_digest", "load_config"], "config"),
    **dict.fromkeys(
        ["Grid", "logistic_reaction", "make_constant_diffusion", "make_quadratic_diffusion",
         "step_initial_condition", "x_of_xi", "xi_of_x"], "domain"),
    **dict.fromkeys(["fit_power_law", "front_positions", "window_transits"], "front"),
    "march": "solver",
    **dict.fromkeys(
        ["EigenSolveError", "average_prediction", "solve_eigenproblem"], "spectral"),
    **dict.fromkeys(["TridiagonalOperator", "build_operator"], "stencil"),
    **dict.fromkeys(
        ["Branch", "characteristic_label", "phase_along"], "wkb"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
