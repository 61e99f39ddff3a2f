"""The eight predicate transformers, computed two independent ways.

The oracle route reads the quantifier definitions straight off the program's
profile, as image/preimage algebra over its relation and the may-divergence
the composer computes.  The inductive route applies Dijkstra-style
structural rules with Kleene-iterated loop fixpoints (least from the empty
set, greatest from the full space) to a rule chain compiled once per program
and state space.
The two must agree everywhere; the test suite checks that differentially.
The oracle's one store is the class store: per semantic class, the eight
results of each predicate, computed together on first use and shared by
every caller.  Here too are the three facts about the transformers that
the taxonomy of logics follows from: their pointwise orderings, their
negation duals and two adjunctions.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import and_, or_

# as a module, not by name, as relations.py imports it: the benchmark's
# tracer wraps every name imported from another module as a layer
from . import space as _space
from . import syntax as _syntax   # for statements and assign_table
from .errors import InvariantError
from .semantics import Profile, profile
from .space import Predicate, State, StateSpace
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


class TransformerKind(Enum):
    AWP = "awp"
    DWP = "dwp"
    AWLP = "awlp"
    DWLP = "dwlp"
    ASP = "asp"
    DSP = "dsp"
    ASLP = "aslp"
    DSLP = "dslp"

    def __init__(self, value: str):
        # plain attributes, fixed once per member: they sit on hot paths
        self.position = len(type(self)._member_names_)   # members before it
        self.backward = value in ("awp", "dwp", "awlp", "dwlp")
        self.angelic = value in ("awp", "awlp", "asp", "aslp")
        self.liberal = value in ("awlp", "dwlp", "aslp", "dslp")


# A transformer table holds one predicate's eight results in TransformerKind
# order; these are their positions, each kind's `position`.
AWP, DWP, AWLP, DWLP, ASP, DSP, ASLP, DSLP = range(8)

# The three facts, over table positions, that the implications between the
# triple logics and their contrapositive and Galois partners derive from:
# orderings (x, y): x(q) <= y(q) for every q
ORDERING = ((DWP, AWP), (DWP, DWLP), (AWP, AWLP), (DWLP, AWLP),
            (DSP, ASP), (DSP, DSLP), (ASP, ASLP), (DSLP, ASLP))
# negation duals (x, y): x(q) = ~y(~q), and so y(q) = ~x(~q)
DUALS = ((AWP, DWLP), (DWP, AWLP), (ASP, DSLP), (DSP, ASLP))
# adjunctions f -| g, by the logic they found: f(x) <= y iff x <= g(y), where
# x is the condition f reads (the precondition if f is forward)
ADJUNCTIONS = (("partial-correctness", ASP, DWLP), ("partial-incorrectness", AWP, DSLP))


# --- semantic oracle ---------------------------------------------------------
#
# Image/preimage algebra over the profile, with pre(q) the states having some
# final state in q and img(q) the final states of some run from q:
#   awp = pre(q)    dwlp = ~pre(~q)    dwp = dwlp - div    awlp = awp | div
#   asp = img(q)    dslp = ~img(~q)    dsp = dslp & reach  aslp = asp | ~reach

# most states for which rows_table sets its masks state by state: measured
# on random rows and on those of the countdown and of x := x + 1, that loop
# is 2.5-4x faster than the four linear passes up to 27 states and 5-25 %
# faster at 64-125; the two are within 15 % of each other at 216-512, the
# passes win from about 1 000 on, and at 2^18 the loop's ever longer ints
# take 1.4 s on the countdown's rows against 0.08 s
_LOOPED = 200


def rows_table(rows: tuple[int, ...], may_div: int, q: int) -> tuple[int, ...]:
    """The transformer table of q in the semantic class with these relation
    rows and may-divergence, from pre(q), pre(~q), img(q) and img(~q): the
    eight results depend on nothing else."""
    n = len(rows)
    full = (1 << n) - 1
    not_q = full ^ q
    if n <= _LOOPED:
        pre = pre_not = img = img_not = 0
        bit = 1
        for row in rows:
            if row & q:
                pre |= bit
            if row & not_q:
                pre_not |= bit
            if q & bit:
                img |= row
            else:
                img_not |= row
            bit <<= 1
    else:
        pre = _space.mask_of(bytes(map(bool, map(and_, rows, repeat(q)))))
        pre_not = _space.mask_of(bytes(map(bool, map(and_, rows, repeat(not_q)))))
        in_q, in_not_q = _space.flag_bytes(q, n), _space.flag_bytes(not_q, n)
        img = reduce(or_, compress(rows, in_q), 0)
        img_not = reduce(or_, compress(rows, in_not_q), 0)
    reach = img | img_not
    dwlp = full ^ pre_not
    dslp = full ^ img_not
    return (pre, dwlp & ~may_div, pre | may_div, dwlp,
            img, dslp & reach, img | full ^ reach, dslp)


def oracle_transform(kind: TransformerKind, p: Program, q: Predicate) -> Predicate:
    """Quantifier definition of the transformer, off the program's profile:
    the kind's entry in q's table from the class store."""
    return Predicate(q.space, class_tables(profile(p, q.space))[q.bits][kind.position])


class _Tables(dict):
    """One semantic class's transformer tables by predicate bits, each
    computed on first use."""

    def __init__(self, rows: tuple[int, ...], may_div: int):
        super().__init__()
        self.rows = rows
        self.may_div = may_div

    def __missing__(self, q: int) -> tuple[int, ...]:
        table = self[q] = rows_table(self.rows, self.may_div, q)
        return table


@lru_cache(maxsize=1 << 16)
def _class_store(rows: tuple[int, ...], may_div: int) -> _Tables:
    return _Tables(rows, may_div)


def class_tables(prof: Profile) -> dict[int, tuple[int, ...]]:
    """The transformer tables of prof's semantic class -- every program with
    its relation rows and may-divergence, over any space of its size -- by
    predicate bits.  One store, shared by all the theorems of a survey and
    by the search."""
    return _class_store(prof.relation.rows, prof.may_div)


# --- inductive rules ---------------------------------------------------------
#
# A program compiles once per state space into a rule chain: the tuple of its
# steps in execution order, `;` flattened and `skip` (the identity under every
# rule) left out.  A step is a tuple, tag first:
#   (_DIVERGE,)
#   (_ASSIGN, pairs)                 pairs: (1 << i, 1 << succ[i]) per state i
#   (_CHOICE, left, right)           two chains
#   (_ITE, g, not_g, then, orelse)   guard masks and two chains
#   (_WHILE, g, not_g, body)
# The rules below walk these chains; loops are Kleene-iterated (least from the
# empty set, greatest from the full space).  The chain holds only what the AST
# rules read off the program -- guard masks and assignment successor tables --
# never the program's profile.

_DIVERGE, _ASSIGN, _CHOICE, _ITE, _WHILE = range(5)


@lru_cache(maxsize=1 << 16)
def _rules(p: Program, space: StateSpace) -> tuple:
    """p's rule chain over the space; sub-programs are looked up here too,
    so the chains of shared sub-programs are built once."""
    if isinstance(p, Seq):
        chain = []
        for q in _syntax.statements(p):
            chain += _rules(q, space)
        return tuple(chain)
    if isinstance(p, Skip):
        return ()
    if isinstance(p, Diverge):
        return ((_DIVERGE,),)
    if isinstance(p, Assign):
        succ = _syntax.assign_table(p.var, p.expr, space)
        return ((_ASSIGN, tuple((1 << i, 1 << j) for i, j in enumerate(succ))),)
    if isinstance(p, Choice):
        return ((_CHOICE, _rules(p.left, space), _rules(p.right, space)),)
    if isinstance(p, (Ite, While)):
        g = guard_to_predicate(p.guard, space).bits
        if isinstance(p, Ite):
            return ((_ITE, g, space.full_mask ^ g,
                     _rules(p.then, space), _rules(p.orelse, space)),)
        return ((_WHILE, g, space.full_mask ^ g, _rules(p.body, space)),)
    raise TypeError(f"not a program: {p!r}")


def _backward(kind: TransformerKind, chain: tuple, c: int, full: int) -> int:
    for step in reversed(chain):
        tag = step[0]
        if tag == _ASSIGN:
            bits = 0
            for bit, succ_bit in step[1]:
                if c & succ_bit:
                    bits |= bit
            c = bits
        elif tag == _CHOICE:
            a = _backward(kind, step[1], c, full)
            b = _backward(kind, step[2], c, full)
            c = a | b if kind.angelic else a & b
        elif tag == _ITE:
            _, g, not_g, then, orelse = step
            c = g & _backward(kind, then, c, full) | not_g & _backward(kind, orelse, c, full)
        elif tag == _WHILE:
            _, g, not_g, body = step
            done = not_g & c
            x = full if kind.liberal else 0
            for _ in range(full.bit_length() + 2):
                nxt = done | g & _backward(kind, body, x, full)
                if nxt == x:
                    break
                x = nxt
            else:
                raise InvariantError("fixpoint iteration failed to stabilize")
            c = x
        else:   # diverge
            c = full if kind.liberal else 0
    return c


def _forward(angelic: bool, chain: tuple, b: int, full: int) -> int:
    # only ASP (angelic) and DSLP have direct rules; DSP and ASLP are combinations
    for step in chain:
        tag = step[0]
        if tag == _ASSIGN:
            acc = 0
            if angelic:   # asp: reachable from b
                for bit, succ_bit in step[1]:
                    if b & bit:
                        acc |= succ_bit
                b = acc
            else:         # dslp: not reachable from outside b
                for bit, succ_bit in step[1]:
                    if not b & bit:
                        acc |= succ_bit
                b = full ^ acc
        elif tag == _CHOICE:
            a = _forward(angelic, step[1], b, full)
            d = _forward(angelic, step[2], b, full)
            b = a | d if angelic else a & d
        elif tag == _ITE:
            _, g, not_g, then, orelse = step
            if angelic:
                b = _forward(True, then, g & b, full) | _forward(True, orelse, not_g & b, full)
            else:
                b = _forward(False, then, not_g | b, full) & _forward(False, orelse, g | b, full)
        elif tag == _WHILE:
            _, g, not_g, body = step
            y = 0 if angelic else full
            for _ in range(full.bit_length() + 2):
                if angelic:
                    nxt = b | _forward(True, body, g & y, full)
                else:
                    nxt = b & _forward(False, body, not_g | y, full)
                if nxt == y:
                    break
                y = nxt
            else:
                raise InvariantError("fixpoint iteration failed to stabilize")
            b = not_g & y if angelic else g | y
        else:   # diverge
            b = 0 if angelic else full
    return b


def inductive_transform(kind: TransformerKind, p: Program, q: Predicate) -> Predicate:
    """Structural-recursion route; must equal oracle_transform on all inputs."""
    space = q.space
    chain = _rules(p, space)
    full = space.full_mask
    if kind.backward:
        return Predicate(space, _backward(kind, chain, q.bits, full))
    if kind is TransformerKind.ASP or kind is TransformerKind.DSLP:
        return Predicate(space, _forward(kind.angelic, chain, q.bits, full))
    asp = _forward(True, chain, q.bits, full)
    dslp = _forward(False, chain, q.bits, full)
    return Predicate(space, asp & dslp if kind is TransformerKind.DSP else asp | dslp)


# --- behavioral classes ------------------------------------------------------

# class index by (can terminate in c, can terminate outside c, can diverge)
_COREACH_CLASSES = {
    (True, False, False): 1,
    (True, False, True): 2,
    (True, True, False): 3,
    (False, False, True): 4,
    (True, True, True): 5,
    (False, True, True): 6,
    (False, True, False): 7,
}

# which classes each backward transformer includes
COREACH_INCLUSION = {
    TransformerKind.DWP: frozenset({1}),
    TransformerKind.AWP: frozenset({1, 2, 3, 5}),
    TransformerKind.DWLP: frozenset({1, 2, 4}),
    TransformerKind.AWLP: frozenset({1, 2, 3, 4, 5, 6}),
}

# class index by (reachable from b, reachable from outside b)
_REACH_CLASSES = {
    (True, False): 1,
    (True, True): 2,
    (False, False): 3,
    (False, True): 4,
}

REACH_INCLUSION = {
    TransformerKind.DSP: frozenset({1}),
    TransformerKind.ASP: frozenset({1, 2}),
    TransformerKind.DSLP: frozenset({1, 3}),
    TransformerKind.ASLP: frozenset({1, 2, 3}),
}


def coreachability_class(p: Program, c: Predicate, sigma: State) -> int:
    """Which of the seven terminate-in / terminate-outside / diverge classes
    the initial state falls into."""
    prof = profile(p, c.space)
    i = sigma.index
    row = prof.relation.rows[i]
    key = (
        bool(row & c.bits),
        bool(row & ~c.bits & c.space.full_mask),
        bool(prof.may_div >> i & 1),
    )
    if key == (False, False, False):
        raise InvariantError(
            "state neither terminates nor diverges; semantics is broken"
        )
    return _COREACH_CLASSES[key]


def reachability_class(p: Program, b: Predicate, tau: State) -> int:
    """Which of the four reachable-from / reachable-from-outside classes the
    final state falls into."""
    j = tau.index
    column = _space.mask_of([row >> j & 1 for row in profile(p, b.space).relation.rows])
    key = (bool(column & b.bits), bool(column & ~b.bits & b.space.full_mask))
    return _REACH_CLASSES[key]
