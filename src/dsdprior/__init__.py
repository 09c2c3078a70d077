"""Design-and-structure-dependent priors for scale parameters of latent
Gaussian model components.

The pipeline: design/structure matrices -> quadratic-form eigenvalue
weights of the component's sampling variance -> two-moment Gamma
approximation -> closed-form prior densities (beta-prime base prior,
gamma-mixture marginal benchmark, design-and-structure-dependent prior)
-> deterministic scale solve for the scale hyperparameter.
"""

__version__ = "0.1.0"
