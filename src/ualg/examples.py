"""Ready-made example structures: the two-sorted list datatype, additive
monoids modulo n, and boolean connectives with truth-table semantics;
and what ``ualg examples`` prints for each."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import product

from .algebra import AlgebraError, FiniteAlgebra
from .equations import EqReport, EqSpec, Equation, is_eqalgebra
from .free_algebra import FreeAlgebra, evaluate
from .shorthand import make_signature_single_sorted
from .signature import Frozen, Signature, make_signature
from .term_vm import Term, parse_term
from .varspec import VarSpec, make_varspec

# -- list datatype -----------------------------------------------------

LIST_OVERFLOW = "overflow"


class ListBoundError(ValueError):
    """A term builds a list longer than the materialized bound."""


def list_signature() -> Signature:
    return make_signature(
        ["elem", "list"],
        [("nil", [], "list"), ("cons", ["elem", "list"], "list")],
    )


def _list_label(items: Sequence[str]) -> str:
    return "[" + ",".join(items) + "]"


def list_signature_and_algebra(
    elem_carrier: Sequence[str] = ("a", "b"), max_len: int = 4
) -> tuple[Signature, FiniteAlgebra]:
    """List constructors over a finite element carrier.

    Lists are materialized up to ``max_len`` elements, ordered by length
    and then element-wise by carrier order; one extra sink label absorbs
    anything longer so the cons table stays total.  ``list_eval`` turns
    the sink into a diagnostic.
    """
    if not elem_carrier:
        raise AlgebraError("the element carrier must be nonempty")
    sig = list_signature()
    tuples: list[tuple[str, ...]] = [()]
    for length in range(1, max_len + 1):
        tuples.extend(product(elem_carrier, repeat=length))
    labels = [_list_label(t) for t in tuples]
    carriers = {"elem": tuple(elem_carrier), "list": tuple(labels) + (LIST_OVERFLOW,)}
    cons_table = {}
    for x in elem_carrier:
        cons_table[(x, LIST_OVERFLOW)] = LIST_OVERFLOW
        for t in tuples:
            cons_table[(x, _list_label(t))] = (
                LIST_OVERFLOW if len(t) == max_len else _list_label((x,) + t)
            )
    tables = {"nil": {(): _list_label(())}, "cons": cons_table}
    return sig, FiniteAlgebra(sig, carriers, tables)


class ListFixture(Frozen):
    """The list datatype's signature and algebra, with one variable per
    element label, of sort elem, assigned that label."""

    __slots__ = ()
    _fields = ("signature", "algebra", "varspec", "assignment", "max_len")

    def __new__(
        cls,
        signature: Signature,
        algebra: FiniteAlgebra,
        varspec: VarSpec,
        assignment: Mapping[str, str],
        max_len: int,
    ):
        return tuple.__new__(cls, (signature, algebra, varspec, assignment, max_len))

    @property
    def free(self) -> FreeAlgebra:
        return FreeAlgebra(self.signature, self.varspec)


def list_fixture(elem_carrier: Sequence[str] = ("a", "b"), max_len: int = 4) -> ListFixture:
    sig, alg = list_signature_and_algebra(elem_carrier, max_len)
    varspec = make_varspec(sig, [(x, "elem") for x in elem_carrier])
    return ListFixture(sig, alg, varspec, {x: x for x in elem_carrier}, max_len)


def list_eval(fix: ListFixture, term: Term | str) -> str:
    """Evaluate a list term to its label, rejecting the overflow sink."""
    if isinstance(term, str):
        term = parse_term(fix.free.vsig, term)
    result = evaluate(fix.algebra, fix.assignment, term)
    if result == LIST_OVERFLOW:
        raise ListBoundError(
            f"term builds a list longer than the materialized bound of {fix.max_len}"
        )
    return result


# -- additive monoids modulo n ------------------------------------------

def monoid_signature() -> Signature:
    return make_signature_single_sorted([2, 0], names=["mul", "e"])


def _mod_algebra(n: int, combine) -> FiniteAlgebra:
    if n < 1:
        raise AlgebraError("the modulus must be at least 1")
    sig = monoid_signature()
    labels = tuple(str(i) for i in range(n))
    mul = {(a, b): str(combine(int(a), int(b)) % n) for a in labels for b in labels}
    tables = {"mul": mul, "e": {(): "0"}}
    return FiniteAlgebra(sig, {"u": labels}, tables)


def additive_mod_algebra(n: int) -> FiniteAlgebra:
    """Z mod n under addition with unit 0."""
    return _mod_algebra(n, lambda a, b: a + b)


def subtraction_mod_algebra(n: int = 3) -> FiniteAlgebra:
    """Z mod n with subtraction in place of addition: keeps the right
    identity but breaks the left identity and associativity."""
    return _mod_algebra(n, lambda a, b: a - b)


def monoid_varspec() -> VarSpec:
    return make_varspec(monoid_signature(), [("x", "u"), ("y", "u"), ("z", "u")])


def monoid_eqspec() -> EqSpec:
    """Left identity, right identity, and associativity over x, y, z."""
    sig = monoid_signature()
    varspec = monoid_varspec()
    free = FreeAlgebra(sig, varspec)
    eq = lambda name, lhs, rhs: Equation(
        name, "u", parse_term(free.vsig, lhs), parse_term(free.vsig, rhs)
    )
    return EqSpec(
        sig,
        varspec,
        (
            eq("lid", "mul e x", "x"),
            eq("rid", "mul x e", "x"),
            eq("assoc", "mul mul x y z", "mul x mul y z"),
        ),
    )


def monoid_fixture(n: int) -> tuple[EqSpec, FiniteAlgebra, EqReport]:
    """The monoid equations checked on (Z mod n, +, 0); all of them hold."""
    spec = monoid_eqspec()
    algebra = additive_mod_algebra(n)
    return spec, algebra, is_eqalgebra(algebra, spec)


# -- booleans and truth-table semantics ---------------------------------

FALSE, TRUE = "false", "true"

_BOOL_FN = {
    "bot": lambda: False,
    "top": lambda: True,
    "neg": lambda a: not a,
    "conj": lambda a, b: a and b,
    "disj": lambda a, b: a or b,
    "impl": lambda a, b: (not a) or b,
}


def bool_signature() -> Signature:
    return make_signature_single_sorted(
        [0, 0, 1, 2, 2, 2], names=["bot", "top", "neg", "conj", "disj", "impl"]
    )


def bool_algebra() -> FiniteAlgebra:
    sig = bool_signature()
    labels = (FALSE, TRUE)
    to_label = {False: FALSE, True: TRUE}
    from_label = {FALSE: False, TRUE: True}
    tables = {}
    for nm in sig.ops:
        fn = _BOOL_FN[nm]
        k = len(sig.arity_of(nm))
        tables[nm] = {
            args: to_label[fn(*(from_label[x] for x in args))]
            for args in product(labels, repeat=k)
        }
    return FiniteAlgebra(sig, {"u": labels}, tables)


def bool_varspec() -> VarSpec:
    return make_varspec(bool_signature(), [("x", "u"), ("y", "u"), ("z", "u")])


def bool_free() -> FreeAlgebra:
    return FreeAlgebra(bool_signature(), bool_varspec())


def tarski_interp(assignment: Mapping[str, bool], t: Term) -> bool:
    """Truth-table evaluation of a boolean formula term."""
    labels = {v: (TRUE if b else FALSE) for v, b in assignment.items()}
    return evaluate(bool_algebra(), labels, t) == TRUE


# -- what ``ualg examples`` prints ----------------------------------------

def print_list() -> None:
    fix = list_fixture(("a", "b"), max_len=4)
    print("list datatype over elements [a, b], lists materialized up to length 4")
    for text in ("nil", "cons a nil", "cons b cons a nil"):
        print(f"{text} -> {list_eval(fix, text)}")
    arity = " ".join(fix.signature.arity_of("cons"))
    print(f"arity of cons: {arity} -> {fix.signature.sort_of('cons')}")


def print_monoid() -> None:
    from .commands import report_equations

    spec, algebra, _ = monoid_fixture(3)
    for name, alg in (("+", algebra), ("-", subtraction_mod_algebra(3))):
        print(f"monoid equations on (Z mod 3, {name}, 0)")
        report_equations(alg, spec)


def print_bool() -> None:
    free = bool_free()
    print("boolean connectives under truth-table semantics")
    formula = parse_term(free.vsig, "conj x impl z neg y")
    value = tarski_interp({"x": True, "y": True, "z": False}, formula)
    print(f"conj x impl z neg y | x=true y=true z=false -> {str(value).lower()}")
    ground = parse_term(free.vsig, "impl bot top")
    print(f"impl bot top -> {str(tarski_interp({}, ground)).lower()}")
    dummett = parse_term(free.vsig, "disj impl x y impl y x")
    if all(
        tarski_interp({"x": a, "y": b}, dummett)
        for a in (False, True)
        for b in (False, True)
    ):
        print("dummett: disj impl x y impl y x holds under all 4 assignments of x, y")
    else:
        print("dummett: disj impl x y impl y x FAILS")
