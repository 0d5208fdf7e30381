"""Memory-kernel identification for a dispersive wave equation.

Forward solver for the wave system with a convolution memory term and
acoustic boundary conditions, and reconstruction of the unknown kernel
from an integral measurement by contraction iteration with window
continuation.
"""

from .direct import (
    DirectSolution,
    ProblemData,
    overdetermination,
    solve_direct,
    solve_linear_dirichlet,
)
from .energy import EnergyTrack, energy_series
from .equivalence import (
    CompatReport,
    EquivSetup,
    build_setup,
    check_compatibility,
)
from .errors import (
    AlphaDegenerate,
    BoundaryIncompatible,
    CompatibilityFailed,
    NoConvergence,
    PsiDegenerate,
)
from .expressions import differentiate, parse, to_text
from .grids import Grid, quad_trapz, second_diff
from .inverse import InverseOptions, Reconstruction, reconstruct
from .timeconv import Kernel, conv, conv_field, integrate_prefix, l2_time_norm

__all__ = [
    "AlphaDegenerate",
    "BoundaryIncompatible",
    "CompatReport",
    "CompatibilityFailed",
    "DirectSolution",
    "EnergyTrack",
    "EquivSetup",
    "Grid",
    "InverseOptions",
    "Kernel",
    "NoConvergence",
    "ProblemData",
    "PsiDegenerate",
    "Reconstruction",
    "build_setup",
    "check_compatibility",
    "conv",
    "conv_field",
    "differentiate",
    "energy_series",
    "integrate_prefix",
    "l2_time_norm",
    "overdetermination",
    "parse",
    "quad_trapz",
    "reconstruct",
    "second_diff",
    "solve_direct",
    "solve_linear_dirichlet",
    "to_text",
]
