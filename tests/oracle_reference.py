"""The per-kind transformer oracle: the reference for the profile's tables.

Each transformer is read off its quantifier definition over the profile, one
kind at a time, with pre(q) the image of q under the converse relation and
img(q) its image under the relation:

    awp = pre(q)    dwlp = ~pre(~q)    dwp = dwlp - div    awlp = awp | div
    asp = img(q)    dslp = ~img(~q)    dsp = dslp & reach  aslp = asp | ~reach

`semantics.rows_table`, behind every oracle read of the library, computes
all eight of a predicate at once from the relation's rows; the tests check it
against this route and against the inductive engine.
"""

from functools import lru_cache

from ngclab.relations import Relation


@lru_cache(maxsize=1 << 12)
def converse(relation: Relation) -> Relation:
    return relation.converse()


def oracle_bits(kind, prof, q: int) -> int:
    """The kind's transformer of q over the profile, as a mask."""
    full = prof.space.full_mask
    if kind.backward:
        # q is a postcondition; pre(q) collects the predecessors of q
        pre = converse(prof.relation).image_bits
        if kind.angelic:
            bits = pre(q)
            return bits | prof.may_div if kind.liberal else bits
        bits = full ^ pre(full ^ q)
        return bits if kind.liberal else bits & ~prof.may_div
    # q is a precondition over initial states
    img = prof.relation.image_bits
    if kind.angelic:
        bits = img(q)
        return bits | full ^ prof.reach if kind.liberal else bits
    bits = full ^ img(full ^ q)
    return bits if kind.liberal else bits & prof.reach
