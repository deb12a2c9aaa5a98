"""JSON readers and writers for signatures, finite algebras, variable
blocks with equations, assignments, and homomorphism maps.

All formats are plain UTF-8 JSON.  Array order is meaningful: the
``operations`` array of a signature defines operation indices, and the
carrier arrays of an algebra define enumeration order.  Names, sorts and
labels must be JSON strings and carriers, arities and table arguments
arrays of them; equation names must be distinct, and so must the
``args`` of the rows of one table.  Any other shape raises
``FormatError``, which the CLI reports with exit code 2, and so does a
document nested too deeply for the JSON parser.

A homomorphism map file is read here only as to its shape, one object
of labels to labels per sort; ``algebra.check_hom`` checks its sorts,
keys and images against the two algebras.

Importing this module loads only ``signature`` and ``term_vm`` besides
it, which is all that reading a signature or a term needs.  The loaders
of algebras and of equation files import ``FiniteAlgebra``, ``EqSpec``
and ``Equation`` when they are called.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from os import PathLike

from .signature import Signature, VarSpec, make_signature, make_varspec, vsignature
from .term_vm import parse_term


class FormatError(ValueError):
    """Raised when a JSON document does not match the expected shape."""


def _expect(obj: object, key: str, kind: type, where: str) -> object:
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where}: missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise FormatError(f"{where}: {key!r} must be a {kind.__name__}")
    return value


def _expect_strings(obj: object, key: str, where: str) -> list[str]:
    value = _expect(obj, key, list, where)
    if not all(isinstance(x, str) for x in value):
        raise FormatError(f"{where}: {key!r} must be a list of strings")
    return value


def load_json(path: str | PathLike) -> object:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply") from None


def dump_json(obj: object, path: str | PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# -- signatures ----------------------------------------------------------

def signature_from_obj(obj: object) -> Signature:
    sorts = _expect_strings(obj, "sorts", "signature")
    ops_obj = _expect(obj, "operations", list, "signature")
    ops = []
    for entry in ops_obj:
        name = _expect(entry, "name", str, "operation")
        arity = _expect_strings(entry, "arity", f"operation {name!r}")
        sort = _expect(entry, "sort", str, f"operation {name!r}")
        ops.append((name, arity, sort))
    return make_signature(sorts, ops)


def signature_to_obj(sig: Signature) -> dict:
    return {
        "sorts": list(sig.sorts),
        "operations": [
            {"name": nm, "arity": list(sig.arity_of(nm)), "sort": sig.sort_of(nm)}
            for nm in sig.ops
        ],
    }


def load_signature(path: str | PathLike) -> Signature:
    return signature_from_obj(load_json(path))


# -- finite algebras -----------------------------------------------------

def algebra_from_obj(obj: object) -> FiniteAlgebra:
    from .algebra import FiniteAlgebra

    sig = signature_from_obj(_expect(obj, "signature", dict, "algebra"))
    carriers = _expect(obj, "carriers", dict, "algebra")
    for sort in carriers:
        _expect_strings(carriers, sort, "carriers")
    ops_obj = _expect(obj, "operations", dict, "algebra")
    tables = {}
    for nm, rows in ops_obj.items():
        if not isinstance(rows, list):
            raise FormatError(f"operations[{nm!r}] must be a list of rows")
        table = {}
        for row in rows:
            args = _expect_strings(row, "args", f"table row of {nm!r}")
            result = _expect(row, "result", str, f"table row of {nm!r}")
            key = tuple(args)
            if key in table:
                raise FormatError(f"operations[{nm!r}]: duplicate row for args {args}")
            table[key] = result
        tables[nm] = table
    return FiniteAlgebra(sig, carriers, tables)


def algebra_to_obj(algebra: FiniteAlgebra) -> dict:
    sig, tables = algebra.signature, algebra.tables
    return {
        "signature": signature_to_obj(sig),
        "carriers": {s: list(algebra.carriers[s]) for s in sig.sorts},
        "operations": {
            nm: [{"args": list(args), "result": result} for args, result in tables[nm].items()]
            for nm in sig.ops
        },
    }


def load_algebra(path: str | PathLike) -> FiniteAlgebra:
    return algebra_from_obj(load_json(path))


# -- variable blocks, equations, assignments, hom maps --------------------

def varspec_from_obj(sig: Signature, obj: object) -> VarSpec:
    if obj is None:
        obj = {}
    if not isinstance(obj, dict) or not all(isinstance(s, str) for s in obj.values()):
        raise FormatError("'variables' must be an object mapping names to sorts")
    return make_varspec(sig, list(obj.items()))


def eqspec_from_obj(sig: Signature, obj: object) -> EqSpec:
    from .equations import EqSpec, Equation

    varspec = varspec_from_obj(sig, obj.get("variables") if isinstance(obj, dict) else None)
    vsig = vsignature(sig, varspec)
    eqs_obj = _expect(obj, "equations", list, "equation file")
    equations = []
    seen = set()
    for entry in eqs_obj:
        name = _expect(entry, "name", str, "equation")
        if name in seen:
            raise FormatError(f"duplicate equation name {name!r}")
        seen.add(name)
        sort = _expect(entry, "sort", str, f"equation {name!r}")
        lhs = _expect(entry, "lhs", str, f"equation {name!r}")
        rhs = _expect(entry, "rhs", str, f"equation {name!r}")
        equations.append(Equation(name, sort, parse_term(vsig, lhs), parse_term(vsig, rhs)))
    return EqSpec(sig, varspec, tuple(equations))


def eqspec_to_obj(spec: EqSpec) -> dict:
    return {
        "variables": {v: s for v, s in spec.varspec.items()},
        "equations": [
            {"name": eq.name, "sort": eq.sort, "lhs": eq.lhs.text(), "rhs": eq.rhs.text()}
            for eq in spec.equations
        ],
    }


def load_eqspec(path: str | PathLike, sig: Signature) -> EqSpec:
    return eqspec_from_obj(sig, load_json(path))


def assignment_from_obj(obj: object) -> dict[str, str]:
    assign = _expect(obj, "assign", dict, "assignment file")
    for k, v in assign.items():
        if not isinstance(v, str):
            raise FormatError(f"assignment for {k!r} must be a string label")
    return dict(assign)


def load_assignment(path: str | PathLike) -> dict[str, str]:
    return assignment_from_obj(load_json(path))


def resolve_assignment(
    algebra: FiniteAlgebra, varspec: VarSpec, raw: Mapping[str, str]
) -> dict[str, str]:
    """Check assignment keys against the variable block and labels against
    the carriers of their sorts."""
    resolved = {}
    for v, label in raw.items():
        if not varspec.is_var(v):
            raise FormatError(f"assignment binds undeclared variable {v!r}")
        sort = varspec.sort_of(v)
        if label not in algebra.elements(sort):
            raise FormatError(f"label {label!r} is not in the carrier of sort {sort!r}")
        resolved[v] = label
    return resolved


def hom_maps_from_obj(obj: object) -> dict[str, dict[str, str]]:
    maps = _expect(obj, "maps", dict, "hom map file")
    out = {}
    for sort, table in maps.items():
        if not isinstance(table, dict) or not all(isinstance(y, str) for y in table.values()):
            raise FormatError(f"maps[{sort!r}] must be an object mapping labels to labels")
        out[sort] = dict(table)
    return out


def load_hom_maps(path: str | PathLike) -> dict[str, dict[str, str]]:
    return hom_maps_from_obj(load_json(path))

