"""Mean-field spin models with orthogonally invariant couplings.

Builds instances H(s) = (1/2) s^T Jbar s + h^T s on the hypercube with
Jbar = O^T Dbar O for Haar O, and provides the analysis stack around them:
free-probability transforms of the spectral law, the replica-symmetric
fixed point and its derived constants, approximate message passing with the
spectrum-dependent Onsager correction, exact and Monte Carlo Gibbs baselines,
band-restricted partition functions, and TAP residual diagnostics.
"""

from tapglass.spectral import (
    SpectralLaw,
    empirical_atoms,
    law_from_spec,
    semicircle,
    two_point,
)

__all__ = [
    "SpectralLaw",
    "empirical_atoms",
    "law_from_spec",
    "semicircle",
    "two_point",
]

__version__ = "0.1.0"
