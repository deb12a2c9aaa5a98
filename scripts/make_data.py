#!/usr/bin/env python3
"""Regenerate the JSON data files bundled with the package.

The fixtures in ualg.examples are the source of truth; this script
materializes them under src/ualg/data/ in the documented file formats.
"""

from pathlib import Path

from ualg import examples as ex
from ualg.jsonio import algebra_to_obj, dump_json, eqspec_to_obj, signature_to_obj

DATA = Path(__file__).resolve().parent.parent / "src" / "ualg" / "data"


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)

    dump_json(signature_to_obj(ex.monoid_signature()), DATA / "monoid_signature.json")
    for n in (2, 3, 4):
        dump_json(algebra_to_obj(ex.additive_mod_algebra(n)), DATA / f"monoid_z{n}.json")
    dump_json(algebra_to_obj(ex.subtraction_mod_algebra(3)), DATA / "monoid_sub3.json")
    dump_json(eqspec_to_obj(ex.monoid_eqspec()), DATA / "monoid_equations.json")
    dump_json(
        {"maps": {"u": {"0": "0", "1": "1", "2": "0", "3": "1"}}},
        DATA / "hom_z4_to_z2.json",
    )

    dump_json(signature_to_obj(ex.bool_signature()), DATA / "bool_signature.json")
    dump_json(algebra_to_obj(ex.bool_algebra()), DATA / "bool_algebra.json")
    free = ex.bool_free()
    from ualg.equations import EqSpec, Equation
    from ualg.term_vm import parse_term

    eqs = EqSpec(
        ex.bool_signature(),
        ex.bool_varspec(),
        (
            Equation(
                "dummett",
                "u",
                parse_term(free.vsig, "disj impl x y impl y x"),
                parse_term(free.vsig, "top"),
            ),
            Equation(
                "excluded_middle",
                "u",
                parse_term(free.vsig, "disj x neg x"),
                parse_term(free.vsig, "top"),
            ),
        ),
    )
    dump_json(eqspec_to_obj(eqs), DATA / "bool_equations.json")

    sig, alg = ex.list_signature_and_algebra(("a", "b"), max_len=4)
    dump_json(signature_to_obj(sig), DATA / "list_signature.json")
    dump_json(algebra_to_obj(alg), DATA / "list_algebra.json")

    for path in sorted(DATA.glob("*.json")):
        print(f"wrote {path.relative_to(DATA.parent.parent.parent)}")


if __name__ == "__main__":
    main()
