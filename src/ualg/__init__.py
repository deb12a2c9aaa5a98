"""Multi-sorted universal algebra with stack-validated flat terms.

Terms are flat sequences of operation symbols checked by a sort-stack
machine; algebras interpret signatures over arbitrary or finite carriers;
equations are model checked exhaustively over finite algebras.

The names below are exported lazily (PEP 562): ``import ualg`` loads no
submodule, and the first use of a name, as ``ualg.holds`` or ``from
ualg import holds``, imports the submodule that defines it.  So a
command line that only checks terms never loads the algebra and
equation modules.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "algebra": (
        "Algebra",
        "AlgebraError",
        "FiniteAlgebra",
        "Hom",
        "HomVerdict",
        "UNIT_ELEMENT",
        "check_hom",
        "compose_hom",
        "hom_to_unit",
        "unit_algebra",
    ),
    "equations": (
        "EqReport",
        "EqSpec",
        "EqSystem",
        "EqVerdict",
        "Equation",
        "EquationError",
        "free_vars",
        "holds",
        "holds_sampled",
        "is_eqalgebra",
    ),
    "free_algebra": (
        "Assignment",
        "FreeAlgebra",
        "MissingBindingError",
        "UniversalityVerdict",
        "check_universality",
        "evaluate",
        "universal_map",
    ),
    "signature": (
        "OpId",
        "Signature",
        "SignatureError",
        "SortId",
        "VarId",
        "VarSpec",
        "make_signature",
        "make_signature_simple",
        "make_signature_single_sorted",
        "make_varspec",
        "vsignature",
    ),
    "term_vm": (
        "ExecReport",
        "Term",
        "TermError",
        "UnknownSymbolError",
        "build_term",
        "depth",
        "enumerate_terms",
        "infer_sort",
        "oplistexec",
        "parse_term",
        "term_decompose",
        "term_fold",
        "term_from_syms",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, or the submodule
    ``name`` itself, and keep the name here for its next use."""
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()).union(__all__, _EXPORTS))
