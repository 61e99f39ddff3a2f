"""The per-kind transformer oracle: the reference for the profile's tables.

Each transformer is read off its quantifier definition over the profile, one
kind at a time, with pre(q) the states whose row meets q and img(q) the
union of the rows of the states in q:

    awp = pre(q)    dwlp = ~pre(~q)    dwp = dwlp - div    awlp = awp | div
    asp = img(q)    dslp = ~img(~q)    dsp = dslp & reach  aslp = asp | ~reach

`semantics.rows_table`, behind every oracle read of the library, computes
all eight of a predicate at once from the relation's rows; the tests check it
against this route and against the inductive engine.
"""

from functools import lru_cache, reduce
from operator import or_

from ngclab.relations import Relation

from kat_reference import converse as _converse


@lru_cache(maxsize=1 << 12)
def converse(relation: Relation) -> Relation:
    return _converse(relation)


def pre(rows, q: int) -> int:
    """The states with some final state in q."""
    return sum(1 << i for i, row in enumerate(rows) if row & q)


def img(rows, q: int) -> int:
    """The final states of some run from a state in q."""
    return reduce(or_, (row for i, row in enumerate(rows) if q >> i & 1), 0)


def oracle_bits(kind, prof, q: int) -> int:
    """The kind's transformer of q over the profile, as a mask."""
    full = prof.space.full_mask
    rows = prof.relation.rows
    if kind.backward:
        # q is a postcondition; pre(q) collects the predecessors of q
        if kind.angelic:
            bits = pre(rows, q)
            return bits | prof.may_div if kind.liberal else bits
        bits = full ^ pre(rows, full ^ q)
        return bits if kind.liberal else bits & ~prof.may_div
    # q is a precondition over initial states
    if kind.angelic:
        bits = img(rows, q)
        return bits | full ^ prof.reach if kind.liberal else bits
    bits = full ^ img(rows, full ^ q)
    return bits if kind.liberal else bits & prof.reach
