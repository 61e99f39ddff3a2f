"""Binary relations over an enumerated finite state space.

A relation on n states is stored as n successor bitmasks, one per source
index.  Composition, union, and reflexive-transitive closure are the word
operations the relational algebra evaluator is built on.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable

# imported as a module, not by name: perfbench's tracer wraps every name one
# ngclab module imports from another as a layer, and a per-bit step is not one
from . import space as _space
from .values import Frozen, setfield


class Relation(Frozen):
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if len(rows) != n:
            raise ValueError("row count does not match relation size")
        if rows and not 0 <= min(rows) <= max(rows) < 1 << n:
            raise ValueError("row bits outside the state enumeration")
        setfield(self, "n", n)
        setfield(self, "rows", rows)

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "Relation":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def top(cls, n: int) -> "Relation":
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        return cls(n, tuple(rows))

    @classmethod
    def from_test(cls, n: int, bits: int) -> "Relation":
        """The sub-identity relation filtering for the given state set."""
        return cls(n, tuple((1 << i) if bits >> i & 1 else 0 for i in range(n)))

    def _check(self, other: "Relation"):
        if other.n != self.n:
            raise ValueError("relations over different state spaces")

    def __or__(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: first self, then other."""
        self._check(other)
        image = {}      # by distinct row of self: its image under other
        for row in set(self.rows):
            acc = 0
            for j in _space.iter_bits(row):
                acc |= other.rows[j]
            image[row] = acc
        return Relation(self.n, tuple(map(image.__getitem__, self.rows)))

    def star(self) -> "Relation":
        """Least reflexive-transitive relation containing self, by squaring."""
        closure = self | Relation.identity(self.n)
        while True:
            squared = closure.compose(closure)
            if squared == closure:
                return closure
            closure = squared

    def converse(self) -> "Relation":
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in _space.iter_bits(row):
                rows[j] |= 1 << i
        return Relation(self.n, tuple(rows))

    def domain_bits(self) -> int:
        return _space.mask_of(list(map(bool, self.rows)))

    def codomain_bits(self) -> int:
        return reduce(or_, self.rows, 0)

    def pairs(self) -> Iterable[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in _space.iter_bits(row):
                yield i, j

    def __repr__(self) -> str:
        return f"Relation({self.n}, {sorted(self.pairs())})"
