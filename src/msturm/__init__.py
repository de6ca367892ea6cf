"""Forward and inverse spectral toolkit for matrix Sturm-Liouville operators.

The package solves the self-adjoint eigenvalue problem

    -Y'' + Q(x) Y = lam Y  on (0, pi),   Y(0) = 0,
    T (Y'(pi) - H Y(pi)) = (I - T) Y(pi) = 0,

in both directions: from coefficients to eigenvalues and weight matrices
(:mod:`msturm.forward`), and from that spectral data back to the
potential and the boundary coefficient through a truncated linear system
in a weighted sequence space (:mod:`msturm.model`, :mod:`msturm.maineq`,
:mod:`msturm.reconstruct`).  Star-shaped graph problems reduce to the
matrix form and recover edge potentials from diagonal weight data
(:mod:`msturm.graph`).  File formats and the command line live in
:mod:`msturm.cli`.
"""

from .core import (
    DEFAULT_TOL,
    BoundaryCoefficient,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
    shift_spectrum,
    validate_problem,
    validate_spectral_data,
)
from .forward import (
    EigenRecord,
    SolutionTrace,
    WeylSample,
    boundary_form,
    characteristic,
    find_eigenvalues,
    integrate,
    spectral_data,
    weight_matrix,
    weyl_matrix,
)
from .model import (
    AsymptoticSummary,
    CollapsedWeights,
    build_model,
    collapse_weights,
    estimate_T,
    estimate_p,
    estimate_z_A_Theta,
    forward_asymptotics,
    model_solution,
    model_spectral_data,
)
from .maineq import (
    Group,
    build_groups,
    diagnostics_xi,
)
from .reconstruct import (
    EpsilonTrace,
    InverseOptions,
    ReconstructionResult,
    epsilon_series,
    recover_QH,
    sec6_closed_form,
    sec6_spectral_data,
    solve_inverse,
)
from .graph import (
    ScalarLocalData,
    StarGraphProblem,
    derive_star_models,
    extract_local_data,
    graph_to_matrix,
    solve_local_inverse,
    solve_star_matrix,
)

__version__ = "0.1.0"
