"""JSON reading: the shape checks every format shares, and signatures.

All formats are plain UTF-8 JSON.  Array order is meaningful: the
``operations`` array of a signature defines operation indices, and the
carrier arrays of an algebra define enumeration order.  Names, sorts and
labels must be JSON strings and carriers, arities and table arguments
arrays of them; equation names must be distinct, and so must the
``args`` of the rows of one table.  Any other shape raises
``FormatError``, which the CLI reports with exit code 2, and so does a
document nested too deeply for the JSON parser.

Importing this module loads only ``signature`` besides it, which is all
that reading a signature needs.  The readers of algebras, variable
blocks with equations, assignments and homomorphism maps, and every
writer, live in ``algebra_io``; they stay importable from here, and
their first use loads that module (PEP 562).
"""

from __future__ import annotations

import json
from os import PathLike

from . import _lazy
from .signature import Signature, make_signature


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


def load_signature(path: str | PathLike) -> Signature:
    return signature_from_obj(load_json(path))


__getattr__, __dir__ = _lazy(globals(), dict.fromkeys((
    "algebra_from_obj", "algebra_to_obj", "assignment_from_obj", "dump_json", "eqspec_from_obj", "eqspec_to_obj",
    "hom_maps_from_obj", "load_algebra", "load_assignment", "load_eqspec", "load_hom_maps", "resolve_assignment",
    "signature_to_obj", "varspec_from_obj",
), "algebra_io"))
