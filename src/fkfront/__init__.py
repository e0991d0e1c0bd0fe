"""Front propagation in a logistic reaction-diffusion model whose diffusion
coefficient ``a(x) = x**2 + epsilon`` nearly vanishes at the origin.

The package pairs a conservative finite-difference solver with the matching
closed-form machinery: drift-model front evolution, ray transport of the
exponential tail, and the spectrum of the diffusion operator with the
logistic prediction of the domain mean.

Each name is imported from the module that defines it, such as
``from fkfront.solver import march``; ``import fkfront`` loads neither
numpy nor any submodule.
"""
