"""frobkit: exact computer algebra for Frobenius-semilinear operators over
finite fields — Cartier modules, gamma-sheaves, the dualizing twist between
them, Koszul pullbacks along regular sequences, nilpotence and crystal tests,
and solution spaces at rational points."""

from .field import FieldElement, FieldSpec, frobenius_root
from .polyring import (BudgetExceededError, FreeVector, GroebnerBasis,
                       Limits, ParseError, Polynomial, QuotientContext,
                       RingContext, buchberger, format_polynomial,
                       format_vector, is_regular_sequence, module_buchberger,
                       module_quotient, module_staircase, normal_form,
                       parse_polynomial, parse_vector, saturate,
                       submodule_equal, use_limits)
from .frobenius import (FrobeniusDecomposition, cartier_volume,
                        pth_root_decompose)
from .cartier import (CartierModule, InfiniteDimensionalError,
                      NilpotenceVerdict, SemilinearEndo, StableImageResult,
                      cartier_structure_violations, hom_commuting,
                      is_crystal_supported_on, is_nilpotent, kappa_apply,
                      nil_isomorphism_test, restrict_to_principal_open,
                      stable_image, volume_cartier_module)
from .gamma import (GammaIterate, GammaSheaf, gamma_is_nilpotent,
                    gamma_iterate, gamma_structure_violations,
                    gen_stable_dimension, twist_to_cartier, twist_to_gamma)
from .koszul import (ClosedImmersion, TransitionMatrix, cartier_pullback,
                     check_pullback_twist_commutes, dualizing_module,
                     gamma_pullback, transition_factor)
from .solutions import (FiberDegenerationError, GuardExceededError,
                        RationalPoint, SolutionSpace, artin_schreier_kernel,
                        enumerate_points, point_field, solutions_at_point)

__version__ = "0.1.0"
