"""The names that the frobkit package exports are pinned, so that a new public
name, or the loss of one, is a deliberate decision: change PUBLIC in the same
change.  Submodules are attributes of the package but not exported names."""
import types

import frobkit

PUBLIC = frozenset({
    # field
    "FieldElement", "FieldSpec", "frobenius_root",
    # polyring
    "BudgetExceededError", "FreeVector", "GroebnerBasis",
    "GuardExceededError", "Limits", "ParseError", "Polynomial",
    "QuotientContext", "RingContext",
    "buchberger", "format_polynomial", "format_vector", "is_regular_sequence",
    "module_buchberger", "module_quotient", "module_staircase", "normal_form",
    "parse_polynomial", "parse_vector", "saturate", "submodule_equal",
    "use_limits",
    # frobenius
    "FrobeniusDecomposition", "cartier_volume", "pth_root_decompose",
    # cartier
    "CartierModule", "InfiniteDimensionalError", "NilpotenceVerdict",
    "SemilinearEndo", "StableImageResult", "cartier_structure_violations",
    "hom_commuting", "is_crystal_supported_on", "is_nilpotent",
    "kappa_apply", "nil_isomorphism_test", "stable_image",
    "volume_cartier_module",
    # gamma
    "GammaSheaf", "gamma_is_nilpotent", "gamma_iterate",
    "gamma_structure_violations", "gen_stable_dimension", "twist_to_cartier",
    "twist_to_gamma",
    # koszul
    "ClosedImmersion", "TransitionMatrix", "cartier_pullback",
    "check_pullback_twist_commutes", "dualizing_module", "gamma_pullback",
    "transition_factor",
    # solutions
    "FiberDegenerationError", "RationalPoint", "SolutionSpace",
    "artin_schreier_kernel", "enumerate_points", "point_field",
    "solutions_at_point",
})


def test_public_names_are_pinned():
    exported = {name for name, value in vars(frobkit).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
