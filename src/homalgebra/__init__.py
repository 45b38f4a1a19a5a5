"""Exact computer algebra for multiplicative Hom-associative structures.

The package provides the free term algebra on twist-exponent leaves, a
bounded congruence-saturation equality oracle, evaluation into concrete
carriers (polynomial, twisted, matrix), the four-generator matrix
bialgebra with its comultiplication, the plane with its coaction, twists of
the classical versions, and bounded enveloping models of Hom-Lie algebras.

Modules load on first use.  Importing the package registers every module but
``cli`` in ``sys.modules`` through ``importlib.util.LazyLoader``, and a
module's code runs when one of its attributes is first read, so a command
pays only for the modules it touches.  The names below are exported through
a module ``__getattr__`` (PEP 562): ``homalgebra.saturate`` loads
``congruence`` the first time it is read.

To keep it so, a module binds a sibling that not every command needs as a
module (``from . import poly``), and nothing that runs at import reads a
sibling's attribute.  ``reduce`` runs ``terms``, ``grammar``, ``congruence``
and ``reports``; the free suites add ``algebras``, ``morphisms`` and
``bialgebras`` but no ``poly``; the polynomial suites (``m2-representability``,
``twist``) run ``poly`` but neither ``congruence`` nor ``grammar``; ``verify
envelope`` adds ``homlie``; ``check algebra`` runs ``terms``, ``algebras``,
``poly`` and ``reports``.  Number literals are read in ``terms``, and the
records nothing copies with ``dataclasses.replace`` are ``terms.Record``
classes, so ``reduce`` never imports ``dataclasses``; the carriers, whose API
includes ``replace``, stay dataclasses (README, "Modules load on first use").
"""

import importlib.util
import sys

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "congruence": ("Bound", "EqualityResult", "OutOfWindowError", "RelationBasis",
                   "ResourceCapError", "SaturationConfig", "Verdict",
                   "enumerate_terms", "saturate"),
    "grammar": ("TermSyntaxError", "format_lincomb", "format_term", "parse_lincomb"),
    "terms": ("Leaf", "LinComb", "Node", "arity", "grading", "make_leaf", "rename",
              "weight"),
    "morphisms": ("AssignmentError", "MorphismAssignment", "NamingError",
                  "UnitMismatchError", "evaluate", "morphism_from_matrix",
                  "rename_embed"),
    "algebras": ("HomAlgebraDescriptor", "PreconditionError", "UnitFlavor",
                 "check_hom_associative", "check_multiplicative", "check_unital",
                 "free_algebra", "matrix_algebra", "poly_algebra", "q_poly_algebra",
                 "yau_twist_algebra"),
    "poly": ("Poly", "PolyEndo", "monomials_up_to", "parse_poly", "random_poly"),
    "bialgebras": ("FreeComoduleAlgebra", "FreeHomBialgebra", "PolyComoduleAlgebra",
                   "PolyHomBialgebra", "check_comodule", "check_comodule_homalgebra",
                   "check_comultiplicative", "check_delta_is_morphism",
                   "check_hom_coassoc", "classical_affine_comodule",
                   "classical_m2_bialgebra", "hom_affine_plane", "lambda_scaling_pair",
                   "m_bialgebra", "representability_check", "twist_comodule",
                   "yau_twist_bialgebra"),
    "homlie": ("EnvelopeBialgebra", "HomLieAlgebra", "affine_line_twisted",
               "bracket_relations", "bracket_sides", "check_envelope_bialgebra",
               "check_hom_lie", "dimension_report", "direct_sum", "envelope",
               "hom_lie_algebra", "load_hom_lie", "twist_hom_lie"),
    "reports": ("CheckReport", "LawItem", "LawReport", "dump_json", "render_text",
                "report_document"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME, "__version__"])


def _register(module: str):
    """The lazy module ``homalgebra.<module>``, in ``sys.modules``."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
