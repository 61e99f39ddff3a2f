"""The eight predicate transformers, computed two independent ways.

The oracle route reads the quantifier definitions straight off the program's
profile, as image/preimage algebra over its relation and the may-divergence
the composer computes.  The inductive route applies Dijkstra-style
structural rules with Kleene-iterated loop fixpoints (least from the empty
set, greatest from the full space) to a rule chain compiled once per program
and state space.
The two must agree everywhere; the test suite checks that differentially.
The oracle reads one store, the program's profile: per semantic class, the
eight results of each predicate, computed together on first use and shared
by every caller.  Here too are the three facts about the transformers that
the taxonomy of logics follows from: their pointwise orderings, their
negation duals and two adjunctions.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

# as a module, not by name, as relations.py imports space: the benchmark's
# tracer wraps every name imported from another module as a layer
from . import syntax as _syntax   # for statements and assign_table
from .errors import InvariantError
from .semantics import AWLP, AWP, ASLP, ASP, DSLP, DSP, DWLP, DWP, profile
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

def oracle_transform(kind: TransformerKind, p: Program, q: Predicate) -> Predicate:
    """Quantifier definition of the transformer, off the program's semantic
    class: the kind's entry in q's table (`semantics.rows_table`)."""
    return Predicate(q.space, profile(p, q.space)[q.bits][kind.position])


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
    pre = profile(p, b.space)[1 << tau.index][AWP]     # the states reaching tau
    key = (bool(pre & b.bits), bool(pre & ~b.bits & b.space.full_mask))
    return _REACH_CLASSES[key]
