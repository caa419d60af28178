"""Coupled Kähler-Einstein and soliton criteria for toric Fano manifolds.

Everything reduces to convex geometry of the moment polytopes: a
decomposition of the anticanonical class into k ample pieces admits a
coupled Kähler-Einstein tuple exactly when the barycenters of the pieces
sum to zero, and a coupled soliton for the unique vector field killing the
sum of weighted barycenters.  The package computes these invariants
exactly over the rationals, solves for the soliton field, evaluates the
toric Donaldson-Futaki invariant, and integrates the one-dimensional
coupled Monge-Ampère continuity path.

The public names below are loaded on first access (PEP 562), so that
``import torifano`` is cheap and numpy is imported only by the float
routes that need it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the names the package re-exports from it.
_EXPORTS = {
    "errors": (
        "ConfigurationError",
        "DegenerateLiftError",
        "DomainMismatchError",
        "EmptyPolytopeError",
        "InputError",
        "UnboundedPolytopeError",
        "UnknownExampleError",
    ),
    "geometry": (
        "Ampleness",
        "Fan",
        "Polytope",
        "SimplexMesh",
        "ampleness_class",
        "minkowski_sum",
        "polytope_from_halfspaces",
        "polytope_from_support",
        "support_function",
        "translate",
        "triangulate",
        "validate_fan",
    ),
    "linalg": (),
    "masolver": (
        "ContinuityResult",
        "MAState",
        "initial_state",
        "legendre_dual",
        "ma_step_1d",
        "obstruction_residual",
        "reference_potential",
        "solve_continuity_1d",
    ),
    "moments": (
        "MomentReport",
        "WeightedMoments",
        "barycenter",
        "divided_difference_exp",
        "moment_report",
        "volume",
        "weighted_barycenter",
        "weighted_moments",
    ),
    "problems": (
        "ProblemDocument",
        "builtin_example",
        "document_from_dict",
        "document_to_dict",
        "load_problem",
        "registry_names",
    ),
    "quadrature": (),
    "stability": (
        "Decomposition",
        "KEVerdict",
        "SolitonResidual",
        "SolitonSolution",
        "coupled_ke_verdict",
        "destabilizer",
        "df_invariant",
        "lifted_config",
        "soliton_residual",
        "solve_soliton",
        "sum_barycenter",
        "validate_decomposition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
