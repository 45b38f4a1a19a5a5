"""Exact computer algebra for multiplicative Hom-associative structures.

The package provides the free term algebra on twist-exponent leaves, a
bounded congruence-saturation equality oracle, evaluation into concrete
carriers (polynomial, twisted, matrix), the four-generator matrix
bialgebra with its comultiplication, the plane with its coaction, twists of
the classical versions, and bounded enveloping models of Hom-Lie algebras.
"""

from .congruence import (Bound, EqualityResult, OutOfWindowError, RelationBasis,
                         ResourceCapError, SaturationConfig, Verdict,
                         enumerate_terms, hom_associator, saturate)
from .grammar import TermSyntaxError, format_lincomb, format_term, parse_lincomb
from .terms import Leaf, LinComb, Node, arity, grading, make_leaf, rename, weight
from .morphisms import (AssignmentError, MorphismAssignment, NamingError,
                        UnitMismatchError, evaluate, matrix_of_morphism,
                        morphism_from_matrix, rename_embed)
from .algebras import (CheckReport, HomAlgebraDescriptor, PreconditionError,
                       UnitFlavor, check_hom_associative, check_multiplicative,
                       check_unital, free_algebra, matrix_algebra, poly_algebra,
                       q_poly_algebra, rational_algebra, yau_twist_algebra)
from .poly import Poly, PolyEndo, monomials_up_to, parse_poly, random_poly
from .bialgebras import (FreeComoduleAlgebra, FreeHomBialgebra,
                         PolyComoduleAlgebra, PolyHomBialgebra,
                         check_comodule, check_comodule_homalgebra,
                         check_comultiplicative, check_delta_is_morphism,
                         check_hom_coassoc, classical_affine_comodule,
                         classical_m2_bialgebra, hom_affine_plane,
                         lambda_scaling_pair, m_bialgebra,
                         representability_check, twist_comodule,
                         yau_twist_bialgebra)
from .homlie import (EnvelopeBialgebra, HomLieAlgebra, abelian_hom_lie,
                     affine_line_twisted, bracket_relations, bracket_sides,
                     check_envelope_bialgebra, check_hom_lie, commutator_checks,
                     dimension_report, direct_sum, envelope, hom_lie_algebra,
                     load_hom_lie, twist_hom_lie)
from .reports import LawItem, LawReport, dump_json, render_text, report_document

__version__ = "0.1.0"
