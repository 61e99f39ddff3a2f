"""The definitional evaluator of the equation catalog: every word of a triple
built as a full relation by composition, each sub-chain once.

`topkat` evaluates the catalog as rectangles of image/preimage masks; this is
the slow path it replaced, kept as the reference that the rectangle evaluator
and the survey's BRIDGES theorem are checked against.
"""

from ngclab.relations import Relation
from ngclab.topkat import _CATALOG, EQUATIONS


def leq(a: Relation, b: Relation) -> bool:
    """The order of a Kleene algebra, a <= b iff a + b = b: inclusion."""
    return a | b == b


class Chains(dict):
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


def reference_values(rel: Relation, b: int, c: int) -> tuple:
    """Every catalog equation on one triple, in EQUATIONS order."""
    chains = Chains(rel, b, c)
    return tuple(chains.holds(eq) for eq in EQUATIONS)
