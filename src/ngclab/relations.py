"""Binary relations over an enumerated finite state space.

A relation on n states is stored as n successor bitmasks, one per source
index.  It is what a profile reads: its rows, its domain and its codomain.
The relational algebra over it (union, composition, star, converse) is the
test reference (`tests/kat_reference.py`); no command composes relations.
"""

from __future__ import annotations

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

    def domain_bits(self) -> int:
        return _space.mask_of(list(map(bool, self.rows)))

    def codomain_bits(self) -> int:
        # a loop: faster than reduce(or_, rows, 0) at the sizes profiles have
        bits = 0
        for row in self.rows:
            bits |= row
        return bits

    def __repr__(self) -> str:
        pairs = [(i, j) for i, row in enumerate(self.rows) for j in _space.iter_bits(row)]
        return f"Relation({self.n}, {pairs})"
