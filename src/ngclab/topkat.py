"""The equation catalog of Kleene algebra with top and tests, and its
rectangle evaluator.

A catalog of equation schemas over (pre, program, post) expresses the triple
logics that the relational model can see: tests are sub-identity filters,
composition is relational composition and top is the universal relation.

The catalog is not evaluated by composing relations.  A word containing top
is a rectangle, R;T;S = dom(R) x cod(S), so each word is compiled once, at
import, into domain and codomain masks built from preimages and images (awp
and asp, read off a profile), and each clause compares two rectangles
or tests a top-free word for emptiness.  The term algebra itself, and the
evaluator that composes full relations, are the test reference
(`tests/kat_reference.py`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import unknown_name
from .semantics import ASP, AWP, profile
from .space import Predicate
from .syntax import Program


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


# --- the rectangle evaluator ---------------------------------------------------
#
# In the relational model every word u T v is the rectangle dom(u) x cod(v),
# and a rectangle with an empty side is the empty relation.  dom(u) folds the
# letters of u from the right, starting from the full set (a test intersects,
# p takes the preimage); cod(v) folds v from the left (a test intersects, p
# takes the image).  A T-free word is only ever compared with 0, and it is
# empty iff its codomain is.  So each clause compiles, once, to two mask
# slots that are equal iff its two words are: T;R = T;S iff cod(R) = cod(S),
# R;T = S;T iff dom(R) = dom(S), and any other two rectangles are compared
# as one packed int each, 0 when either side is empty.  The folds of a plan
# are shared by all its words, so one triple costs a few reads of a
# profile's transformer tables -- the preimage of m is awp(m), its image
# asp(m) -- and some mask arithmetic.

_FULL, _B, _C, _NB, _NC, _ZERO = range(6)   # the first mask slots of a triple
_FIRST_STEP_SLOT = 6
_TEST_SLOTS = {"b": _B, "c": _C, "B": _NB, "C": _NC}
_AND, _IMAGE, _PREIMAGE, _RECTANGLE = range(4)   # step ops


class _Plan(NamedTuple):
    # (op, x, y): the next mask slot is slot x & slot y, the image or
    # preimage of slot x under the relation, or the rectangle slot x by
    # slot y packed into one int
    steps: tuple
    # every clause as (slot, slot, equal)
    clauses: tuple
    # per equation: the (start, stop) span of its clauses
    equations: tuple


def _compile(catalog: dict) -> _Plan:
    """One plan for every equation of a catalog, each fold computed once."""
    steps, slots = [], {}

    def step(op, x, y=None):
        if op == _AND and x == _FULL:
            return y
        key = (op, x, y)
        if key not in slots:
            slots[key] = _FIRST_STEP_SLOT + len(steps)
            steps.append(key)
        return slots[key]

    def fold(letters, op):
        acc = _FULL
        for letter in letters:
            if letter == "0":
                return _ZERO    # whatever else the word holds, it is empty
            if letter == "p":
                acc = step(op, acc)
            else:
                acc = step(_AND, acc, _TEST_SLOTS[letter])
        return acc

    def sides(left, right):
        if "T" not in left + right and "0" in (left, right):
            return fold(left, _IMAGE), fold(right, _IMAGE)
        if left.count("T") != 1 or right.count("T") != 1:
            raise ValueError(f"catalog clause {left} = {right} is neither two "
                             "words with one top each nor a T-free word against 0")
        (ul, vl), (ur, vr) = left.split("T"), right.split("T")
        dl, dr = fold(reversed(ul), _PREIMAGE), fold(reversed(ur), _PREIMAGE)
        cl, cr = fold(vl, _IMAGE), fold(vr, _IMAGE)
        if dl == dr == _FULL:
            return cl, cr
        if cl == cr == _FULL:
            return dl, dr
        return step(_RECTANGLE, dl, cl), step(_RECTANGLE, dr, cr)

    clauses, equations = [], []
    for eq_clauses in catalog.values():
        equations.append((len(clauses), len(clauses) + len(eq_clauses)))
        clauses += [(*sides(left, right), equal) for left, right, equal in eq_clauses]
    return _Plan(tuple(steps), tuple(clauses), tuple(equations))


def _evaluate(plan: _Plan, tables, b: int, c: int, full: int) -> tuple[bool, ...]:
    n = full.bit_length()
    m = [full, b, c, full ^ b, full ^ c, 0]
    for op, x, y in plan.steps:
        if op == _AND:
            m.append(m[x] & m[y])
        elif op == _IMAGE:
            m.append(tables[m[x]][ASP])
        elif op == _PREIMAGE:
            m.append(tables[m[x]][AWP])
        else:
            m.append(m[x] << n | m[y] if m[x] and m[y] else 0)
    held = [(m[x] == m[y]) == equal for x, y, equal in plan.clauses]
    return tuple([all(held[start:stop]) for start, stop in plan.equations])


_CATALOG_PLAN = _compile(_CATALOG)


def catalog_values(tables, b: int, c: int, full: int) -> tuple[bool, ...]:
    """Every catalog equation on one triple, in EQUATIONS order, from the
    transformer tables of a profile (`semantics.Profile`) of the masks it
    folds; b, c and full are state bitmasks."""
    return _evaluate(_CATALOG_PLAN, tables, b, c, full)


def check_equation(eq: str, b: Predicate, p: Program, c: Predicate) -> bool:
    """Evaluate one catalog equation (or system) over the relation of p's
    profile."""
    if eq not in _CATALOG:
        raise unknown_name("equation id", eq)
    space = b.space
    if c.space != space:
        raise ValueError("pre- and postcondition live in different spaces")
    prof = profile(p, space)
    return catalog_values(prof, b.bits, c.bits, space.full_mask)[EQUATIONS.index(eq)]
