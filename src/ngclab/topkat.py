"""Relational Kleene algebra with top and tests.

Terms are evaluated extensionally over an enumerated state space: tests are
sub-identity filters, composition is relational composition, star is
reflexive-transitive closure, and top is the universal relation.  Programs
compile to terms whose evaluation matches their relational denotation, and a
catalog of equation schemas over (pre, program, post) expresses the triple
logics that the relational model can see.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedTermError
from .relations import Relation
from .semantics import denote_relation
from .space import Predicate, StateSpace
from .syntax import (
    Assign,
    Choice,
    Diverge,
    Ite,
    Program,
    Seq,
    Skip,
    While,
    guard_to_predicate,
)


class KatTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Zero(KatTerm):
    pass


@dataclass(frozen=True)
class One(KatTerm):
    pass


@dataclass(frozen=True)
class Top(KatTerm):
    pass


@dataclass(frozen=True)
class Test(KatTerm):
    predicate: Predicate


@dataclass(frozen=True)
class Prim(KatTerm):
    relation: Relation


@dataclass(frozen=True)
class Plus(KatTerm):
    left: KatTerm
    right: KatTerm


@dataclass(frozen=True)
class Dot(KatTerm):
    left: KatTerm
    right: KatTerm


@dataclass(frozen=True)
class Star(KatTerm):
    inner: KatTerm


@dataclass(frozen=True)
class NotT(KatTerm):
    inner: KatTerm


def is_test_term(t: KatTerm) -> bool:
    """Membership in the Boolean subalgebra generated by tests, 0, and 1."""
    if isinstance(t, (Zero, One, Test)):
        return True
    if isinstance(t, (Plus, Dot)):
        return is_test_term(t.left) and is_test_term(t.right)
    if isinstance(t, NotT):
        return is_test_term(t.inner)
    return False


def eval_kat(t: KatTerm, space: StateSpace) -> Relation:
    """Evaluate a term in the relational model over the given space."""
    n = space.size
    if isinstance(t, Zero):
        return Relation.empty(n)
    if isinstance(t, One):
        return Relation.identity(n)
    if isinstance(t, Top):
        return Relation.top(n)
    if isinstance(t, Test):
        if t.predicate.space != space:
            raise MalformedTermError("test predicate lives in a different space")
        return Relation.from_test(n, t.predicate.bits)
    if isinstance(t, Prim):
        if t.relation.n != n:
            raise MalformedTermError("primitive relation has the wrong size")
        return t.relation
    if isinstance(t, Plus):
        return eval_kat(t.left, space) | eval_kat(t.right, space)
    if isinstance(t, Dot):
        return eval_kat(t.left, space).compose(eval_kat(t.right, space))
    if isinstance(t, Star):
        return eval_kat(t.inner, space).star()
    if isinstance(t, NotT):
        if not is_test_term(t.inner):
            raise MalformedTermError("negation applies only to test terms")
        inner = eval_kat(t.inner, space)
        bits = ~inner.domain_bits() & space.full_mask
        return Relation.from_test(n, bits)
    raise TypeError(f"not a term: {t!r}")


def compile_kat(p: Program, space: StateSpace) -> KatTerm:
    """Translate a program to a term; eval_kat of the result equals the
    relational denotation."""
    if isinstance(p, Skip):
        return One()
    if isinstance(p, Diverge):
        return Zero()
    if isinstance(p, Assign):
        return Prim(denote_relation(p, space))
    if isinstance(p, Seq):
        return Dot(compile_kat(p.first, space), compile_kat(p.second, space))
    if isinstance(p, Choice):
        return Plus(compile_kat(p.left, space), compile_kat(p.right, space))
    if isinstance(p, Ite):
        g = Test(guard_to_predicate(p.guard, space))
        ng = Test(~guard_to_predicate(p.guard, space))
        return Plus(
            Dot(g, compile_kat(p.then, space)),
            Dot(ng, compile_kat(p.orelse, space)),
        )
    if isinstance(p, While):
        g = Test(guard_to_predicate(p.guard, space))
        ng = Test(~guard_to_predicate(p.guard, space))
        return Dot(Star(Dot(g, compile_kat(p.body, space))), ng)
    raise TypeError(f"not a program: {p!r}")


def domain(r: Relation, space: StateSpace) -> Predicate:
    """States related to something; r composed with top is domain(r) x space."""
    return Predicate(space, r.domain_bits())


def codomain(r: Relation, space: StateSpace) -> Predicate:
    """States something relates to; top composed with r is space x codomain(r)."""
    return Predicate(space, r.codomain_bits())


# --- the equation catalog ----------------------------------------------------
#
# Each equation is a tuple of (left word, right word, equal) clauses that must
# all hold; a word spells a composition left to right over the letters
# b, c (the test relations of pre and post), B, C (their negations), p (the
# program), T (top) and 0 (the empty relation).

_CATALOG = {
    "LISBON": (("bpcT", "bT", True),),
    "PARTIAL_CORRECTNESS": (("Tbpc", "Tbp", True),),
    "PC_CONTRA": (("BpCT", "pCT", True),),
    "DWLP_UB": (("BpCT", "BT", True),),
    "INCORRECTNESS": (("Tbpc", "Tc", True),),
    "ANGELIC_PARTIAL_INCORRECTNESS": (("Tbpc", "Tpc", True),),
    "DEMONIC_PARTIAL_INCORRECTNESS": (("bpcT", "pcT", True),),
    "DSLP_UB": (("TBpC", "TC", True),),
    "DSP_UB": (("TBpC", "TpC", True),),
    "IN_BETWEEN": (("bpcT", "bpT", True),),
    # a system of two: partial incorrectness plus reachability of c
    "DEMONIC_INCORRECTNESS": (("bpcT", "pcT", True), ("Tc", "Tpc", True)),
    # a system of two: some b-to-c execution exists, none lands outside c
    "OUTCOME_CONJUNCTION": (("bpc", "0", False), ("bpC", "0", True)),
}

EQUATIONS = tuple(_CATALOG)

# catalog metadata: syntactic moves connecting the equation schemas.
# "flip" carries the top element to the other side while swapping the
# pre/post roles; "insert-program" adds the program on the right-hand side,
# trading the liberal reading for the non-liberal one; "swap-negate"
# exchanges the pre-program prefix with the program-post suffix and negates
# all tests, trading angelic for demonic resolution.
EQUATION_TRANSFORMATIONS = (
    ("flip", "PARTIAL_CORRECTNESS", "DEMONIC_PARTIAL_INCORRECTNESS"),
    ("flip", "LISBON", "INCORRECTNESS"),
    ("flip", "IN_BETWEEN", "ANGELIC_PARTIAL_INCORRECTNESS"),
    ("insert-program", "LISBON", "IN_BETWEEN"),
    ("insert-program", "INCORRECTNESS", "ANGELIC_PARTIAL_INCORRECTNESS"),
    ("insert-program", "DSLP_UB", "DSP_UB"),
    ("swap-negate", "ANGELIC_PARTIAL_INCORRECTNESS", "DEMONIC_PARTIAL_INCORRECTNESS"),
)


class _Chains(dict):
    """The relations of one triple (b, rel, c) by word, each built once: a
    word starting with top is top composed with the rest of it, any other
    word is its longest proper prefix composed with its last letter."""

    def __init__(self, rel: Relation, b: int, c: int):
        n = rel.n
        super().__init__({"p": rel, "T": Relation.top(n), "0": Relation.empty(n)})
        full = (1 << n) - 1
        self.tests = {"b": b, "c": c, "B": full ^ b, "C": full ^ c}

    def __missing__(self, word: str) -> Relation:
        if len(word) == 1:
            value = Relation.from_test(self["p"].n, self.tests[word])
        elif word[0] == "T":
            value = self["T"].compose(self[word[1:]])
        else:
            value = self[word[:-1]].compose(self[word[-1]])
        self[word] = value
        return value

    def holds(self, eq: str) -> bool:
        return all((self[left] == self[right]) == equal
                   for left, right, equal in _CATALOG[eq])


def catalog_values(rel: Relation, b: int, c: int) -> tuple[bool, ...]:
    """Every catalog equation on one triple, in EQUATIONS order, sharing the
    composed sub-chains between equations; b and c are state bitmasks."""
    chains = _Chains(rel, b, c)
    return tuple(chains.holds(eq) for eq in EQUATIONS)


def check_equation(eq: str, b: Predicate, p, c: Predicate) -> bool:
    """Evaluate one catalog equation (or system) over the relational
    denotation of p; p may be a Program or a raw Relation."""
    space = b.space
    if c.space != space:
        raise ValueError("pre- and postcondition live in different spaces")
    rel = p if isinstance(p, Relation) else denote_relation(p, space)
    if rel.n != space.size:
        raise ValueError("program relation has the wrong size")
    if eq not in _CATALOG:
        raise KeyError(f"unknown equation id {eq!r}")
    return _Chains(rel, b.bits, c.bits).holds(eq)
