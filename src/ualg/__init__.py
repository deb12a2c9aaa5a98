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

_EXPORTS = {
    "algebra": (
        "Algebra",
        "AlgebraError",
        "FiniteAlgebra",
        "Hom",
        "UNIT_ELEMENT",
        "compose_hom",
        "hom_to_unit",
        "unit_algebra",
    ),
    "modelcheck": ("HomVerdict", "check_hom"),
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
    "signature": ("OpId", "Signature", "SignatureError", "SortId", "VarId", "make_signature"),
    "shorthand": ("make_signature_simple", "make_signature_single_sorted"),
    "varspec": ("VarSpec", "make_varspec", "vsignature"),
    "term_vm": (
        "ExecReport",
        "Term",
        "TermError",
        "UnknownSymbolError",
        "depth",
        "enumerate_terms",
        "infer_sort",
        "oplistexec",
        "parse_term",
        "term_decompose",
        "term_from_syms",
    ),
    "terms": ("build_term", "term_fold"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _lazy(namespace: dict, where: dict[str, str]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the module whose
    globals are ``namespace``: a name that ``where`` maps to a submodule
    of this package is imported from it on first use and kept in
    ``namespace``; a name that ``where`` maps to itself is that
    submodule.  The import is a relative import statement's, so
    ``python -X importtime`` lists it."""

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = __import__(where[name], namespace, None, (name,), 1)
        if where[name] != name:
            value = namespace[name] = getattr(value, name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace).union(where))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), {**_MODULE_OF, **{module: module for module in _EXPORTS}})
