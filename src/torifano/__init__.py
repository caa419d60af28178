"""Coupled Kähler-Einstein and soliton criteria for toric Fano manifolds.

Everything reduces to convex geometry of the moment polytopes: a
decomposition of the anticanonical class into k ample pieces admits a
coupled Kähler-Einstein tuple exactly when the barycenters of the pieces
sum to zero, and a coupled soliton for the unique vector field killing the
sum of weighted barycenters.  The package computes these invariants
exactly over the rationals, solves for the soliton field, evaluates the
toric Donaldson-Futaki invariant, and integrates the one-dimensional
coupled Monge-Ampère continuity path.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DegenerateLiftError,
    DomainMismatchError,
    EmptyPolytopeError,
    InputError,
    UnboundedPolytopeError,
    UnknownExampleError,
)
from .geometry import (
    Ampleness,
    Fan,
    Polytope,
    SimplexMesh,
    ampleness_class,
    minkowski_sum,
    polytope_from_halfspaces,
    polytope_from_support,
    support_function,
    translate,
    triangulate,
    validate_fan,
)
from .masolver import (
    ContinuityResult,
    MAState,
    initial_state,
    legendre_dual,
    ma_step_1d,
    obstruction_residual,
    reference_potential,
    solve_continuity_1d,
)
from .moments import (
    MomentReport,
    WeightedMoments,
    barycenter,
    divided_difference_exp,
    moment_report,
    volume,
    weighted_barycenter,
    weighted_moments,
)
from .problems import (
    ProblemDocument,
    builtin_example,
    document_from_dict,
    document_to_dict,
    load_problem,
    registry_names,
)
from .stability import (
    Decomposition,
    KEVerdict,
    SolitonResidual,
    SolitonSolution,
    coupled_ke_verdict,
    destabilizer,
    df_invariant,
    lifted_config,
    soliton_residual,
    solve_soliton,
    sum_barycenter,
    validate_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
