"""The reference model of relational Kleene algebra with top and tests, and
the definitional evaluator of the equation catalog built on it.

The model is that of Zhang, de Amorim and Gaboardi's TopKAT ("On
incorrectness logic and Kleene algebra with top and tests", POPL 2022) over
an enumerated state space: tests are sub-identity filters, `+` is union,
composition is relational composition, star is reflexive-transitive closure
and top is the universal relation.  Its carrier is `ngclab.relations.Relation`
itself, so a value it computes compares equal to a profile's relation; the
algebra is free functions over it.  The terms (`KatTerm` and its nine
classes) evaluate in that model (`eval_kat`), and a program compiles to a
term (`compile_kat`) whose value is its profile's relation, a third route
to the composer's result.  `domain` and `codomain` are what composing with
top selects.

`topkat` evaluates the catalog as rectangles of image/preimage masks; the
`Chains` evaluator builds every word of a triple as a full relation by
composition, each sub-chain once.  It is the slow path the rectangle
evaluator replaced, kept as the reference that the rectangle evaluator and
the survey's BRIDGES theorem are checked against.
"""

from ngclab.relations import Relation
from ngclab.semantics import profile
from ngclab.space import Predicate, StateSpace, iter_bits
from ngclab.syntax import (
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
from ngclab.topkat import _CATALOG, EQUATIONS
from ngclab.values import Frozen, setfield


class MalformedTermError(Exception):
    """An algebra term violates a structural side condition."""


# --- the relational algebra ----------------------------------------------------

def empty(n: int) -> Relation:
    return Relation(n, (0,) * n)


def identity(n: int) -> Relation:
    return Relation(n, tuple(1 << i for i in range(n)))


def top(n: int) -> Relation:
    full = (1 << n) - 1
    return Relation(n, (full,) * n)


def from_pairs(n: int, pairs) -> Relation:
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    return Relation(n, tuple(rows))


def from_test(n: int, bits: int) -> Relation:
    """The sub-identity relation filtering for the given state set."""
    return Relation(n, tuple((1 << i) if bits >> i & 1 else 0 for i in range(n)))


def _check(a: Relation, b: Relation):
    if a.n != b.n:
        raise ValueError("relations over different state spaces")


def union(a: Relation, b: Relation) -> Relation:
    _check(a, b)
    return Relation(a.n, tuple(x | y for x, y in zip(a.rows, b.rows)))


def compose(a: Relation, b: Relation) -> Relation:
    """Relational composition: first a, then b."""
    _check(a, b)
    image = {}      # by distinct row of a: its image under b
    for row in set(a.rows):
        acc = 0
        for j in iter_bits(row):
            acc |= b.rows[j]
        image[row] = acc
    return Relation(a.n, tuple(map(image.__getitem__, a.rows)))


def star(a: Relation) -> Relation:
    """Least reflexive-transitive relation containing a, by squaring."""
    closure = union(a, identity(a.n))
    while True:
        squared = compose(closure, closure)
        if squared == closure:
            return closure
        closure = squared


def converse(a: Relation) -> Relation:
    rows = [0] * a.n
    for i, row in enumerate(a.rows):
        for j in iter_bits(row):
            rows[j] |= 1 << i
    return Relation(a.n, tuple(rows))


def leq(a: Relation, b: Relation) -> bool:
    """The order of a Kleene algebra, a <= b iff a + b = b: inclusion."""
    return union(a, b) == b


def domain(r: Relation, space: StateSpace) -> Predicate:
    """States related to something; r composed with top is domain(r) x space."""
    return Predicate(space, r.domain_bits())


def codomain(r: Relation, space: StateSpace) -> Predicate:
    """States something relates to; top composed with r is space x codomain(r)."""
    return Predicate(space, r.codomain_bits())


# --- terms -----------------------------------------------------------------------

class KatTerm(Frozen):
    __slots__ = ()


class Zero(KatTerm):
    __slots__ = ()


class One(KatTerm):
    __slots__ = ()


class Top(KatTerm):
    __slots__ = ()


class Test(KatTerm):
    __slots__ = ("predicate",)

    def __init__(self, predicate: Predicate):
        setfield(self, "predicate", predicate)


class Prim(KatTerm):
    __slots__ = ("relation",)

    def __init__(self, relation: Relation):
        setfield(self, "relation", relation)


class Plus(KatTerm):
    __slots__ = ("left", "right")

    def __init__(self, left: KatTerm, right: KatTerm):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Dot(KatTerm):
    __slots__ = ("left", "right")

    def __init__(self, left: KatTerm, right: KatTerm):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Star(KatTerm):
    __slots__ = ("inner",)

    def __init__(self, inner: KatTerm):
        setfield(self, "inner", inner)


class NotT(KatTerm):
    __slots__ = ("inner",)

    def __init__(self, inner: KatTerm):
        setfield(self, "inner", inner)


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
        return empty(n)
    if isinstance(t, One):
        return identity(n)
    if isinstance(t, Top):
        return top(n)
    if isinstance(t, Test):
        if t.predicate.space != space:
            raise MalformedTermError("test predicate lives in a different space")
        return from_test(n, t.predicate.bits)
    if isinstance(t, Prim):
        if t.relation.n != n:
            raise MalformedTermError("primitive relation has the wrong size")
        return t.relation
    if isinstance(t, Plus):
        return union(eval_kat(t.left, space), eval_kat(t.right, space))
    if isinstance(t, Dot):
        return compose(eval_kat(t.left, space), eval_kat(t.right, space))
    if isinstance(t, Star):
        return star(eval_kat(t.inner, space))
    if isinstance(t, NotT):
        if not is_test_term(t.inner):
            raise MalformedTermError("negation applies only to test terms")
        inner = eval_kat(t.inner, space)
        bits = ~inner.domain_bits() & space.full_mask
        return from_test(n, bits)
    raise TypeError(f"not a term: {t!r}")


def compile_kat(p: Program, space: StateSpace) -> KatTerm:
    """Translate a program to a term whose eval_kat is the relation of the
    program's profile; an assignment is its profile's relation, a primitive."""
    if isinstance(p, Skip):
        return One()
    if isinstance(p, Diverge):
        return Zero()
    if isinstance(p, Assign):
        return Prim(profile(p, space).relation)
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


# --- the catalog by full composition ---------------------------------------------

class Chains(dict):
    """The relations of one triple (b, rel, c) by word, each built once: a
    word starting with top is top composed with the rest of it, any other
    word is its longest proper prefix composed with its last letter."""

    def __init__(self, rel: Relation, b: int, c: int):
        n = rel.n
        super().__init__({"p": rel, "T": top(n), "0": empty(n)})
        full = (1 << n) - 1
        self.tests = {"b": b, "c": c, "B": full ^ b, "C": full ^ c}

    def __missing__(self, word: str) -> Relation:
        if len(word) == 1:
            value = from_test(self["p"].n, self.tests[word])
        elif word[0] == "T":
            value = compose(self["T"], self[word[1:]])
        else:
            value = compose(self[word[:-1]], self[word[-1]])
        self[word] = value
        return value

    def holds(self, eq: str) -> bool:
        return all((self[left] == self[right]) == equal
                   for left, right, equal in _CATALOG[eq])


def reference_values(rel: Relation, b: int, c: int) -> tuple:
    """Every catalog equation on one triple, in EQUATIONS order."""
    chains = Chains(rel, b, c)
    return tuple(chains.holds(eq) for eq in EQUATIONS)
