"""The eight predicate transformers, computed two independent ways.

The oracle route reads the quantifier definitions straight off the program's
profile, as image/preimage algebra over its relation and the may-divergence
the composer computes.  The inductive route applies Dijkstra-style
structural rules with Kleene-iterated loop fixpoints (least from the empty
set, greatest from the full space) through closures compiled once per
program and state space, one backward and one forward per program: a `;`
chain loops over its statements' closures, and an assignment steps over
pairs of one-bit masks up to `semantics._LOOPED` states and, above that
switch, over its successor table in time linear in the state count.
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
from itertools import compress

# as a module, not by name, as relations.py imports space: the benchmark's
# tracer wraps every name imported from another module as a layer
from . import space as _space     # for mask_of and flag_bytes
from . import syntax as _syntax   # for statements and assign_table
from .errors import InvariantError
from .semantics import _LOOPED, AWLP, AWP, ASLP, ASP, DSLP, DSP, DWLP, DWP, profile
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
# A program compiles once per state space into two closures: `backward(c,
# angelic, liberal)`, the rules of the four weakest (liberal) preconditions,
# and `forward(b, angelic)`, those of asp (angelic) and dslp, which dsp and
# aslp combine.  A `;` chain loops over its statements' closures, `skip` (the
# identity under every rule) left out; `[]` and `if` combine the results of
# their sides; a loop is Kleene-iterated (least from the empty set, greatest
# from the full space).  The closures hold only what the rules read off the
# program -- guard masks and assignment successor tables -- never its profile.
#
# An assignment's step is chosen when it is compiled, at rows_table's switch:
# up to _LOOPED states, a loop over the pairs (1 << i, 1 << succ[i]); above,
# passes over the successor table, linear in n, where the pairs would take
# about n^2/8 bytes.  The preimage of c reads c's flag at each state's
# successor; the image marks the successors of the selected states in a
# bytearray, and dslp is the complement of the image of the complement.


@lru_cache(maxsize=1 << 16)
def _compile(p: Program, space: StateSpace) -> tuple:
    """p's closures (backward, forward) over the space; sub-programs are
    compiled through here too, so shared sub-programs are compiled once."""
    rule = _COMPILERS.get(type(p))
    if rule is None:
        raise TypeError(f"not a program: {p!r}")
    return rule(p, space)


def _skip_backward(c, angelic, liberal):
    return c


def _skip_forward(b, angelic):
    return b


_SKIP = (_skip_backward, _skip_forward)


def _diverge(p: Diverge, space: StateSpace) -> tuple:
    full = space.full_mask

    def backward(c, angelic, liberal):
        return full if liberal else 0

    def forward(b, angelic):
        return 0 if angelic else full

    return backward, forward


def _assign(p: Assign, space: StateSpace) -> tuple:
    n, full = space.size, space.full_mask
    succ = _syntax.assign_table(p.var, p.expr, space)
    if n <= _LOOPED:
        pairs = tuple((1 << i, 1 << j) for i, j in enumerate(succ))

        def backward(c, angelic, liberal):
            bits = 0
            for bit, succ_bit in pairs:
                if c & succ_bit:
                    bits |= bit
            return bits

        def forward(b, angelic):
            acc = 0
            if angelic:   # asp: reachable from b
                for bit, succ_bit in pairs:
                    if b & bit:
                        acc |= succ_bit
                return acc
            for bit, succ_bit in pairs:   # dslp: not reachable from outside b
                if not b & bit:
                    acc |= succ_bit
            return full ^ acc

        return backward, forward

    succ = tuple(succ)

    def backward(c, angelic, liberal):
        return _space.mask_of(bytes(map(_space.flag_bytes(c, n).__getitem__, succ)))

    def image(b):
        marks = bytearray(n)
        for j in compress(succ, _space.flag_bytes(b, n)):
            marks[j] = 1
        return _space.mask_of(marks)

    def forward(b, angelic):
        return image(b) if angelic else full ^ image(full ^ b)

    return backward, forward


def _seq(p: Seq, space: StateSpace) -> tuple:
    steps = [_compile(q, space) for q in _syntax.statements(p) if type(q) is not Skip]
    if len(steps) < 2:
        return steps[0] if steps else _SKIP
    backs = tuple(backward for backward, _ in reversed(steps))
    fores = tuple(forward for _, forward in steps)

    def backward(c, angelic, liberal):
        for step in backs:
            c = step(c, angelic, liberal)
        return c

    def forward(b, angelic):
        for step in fores:
            b = step(b, angelic)
        return b

    return backward, forward


def _choice(p: Choice, space: StateSpace) -> tuple:
    left_backward, left_forward = _compile(p.left, space)
    right_backward, right_forward = _compile(p.right, space)

    def backward(c, angelic, liberal):
        a = left_backward(c, angelic, liberal)
        b = right_backward(c, angelic, liberal)
        return a | b if angelic else a & b

    def forward(b, angelic):
        a = left_forward(b, angelic)
        d = right_forward(b, angelic)
        return a | d if angelic else a & d

    return backward, forward


def _ite(p: Ite, space: StateSpace) -> tuple:
    g = guard_to_predicate(p.guard, space).bits
    not_g = space.full_mask ^ g
    then_backward, then_forward = _compile(p.then, space)
    else_backward, else_forward = _compile(p.orelse, space)

    def backward(c, angelic, liberal):
        return (g & then_backward(c, angelic, liberal)
                | not_g & else_backward(c, angelic, liberal))

    def forward(b, angelic):
        if angelic:
            return then_forward(g & b, True) | else_forward(not_g & b, True)
        return then_forward(not_g | b, False) & else_forward(g | b, False)

    return backward, forward


def _while(p: While, space: StateSpace) -> tuple:
    full = space.full_mask
    g = guard_to_predicate(p.guard, space).bits
    not_g = full ^ g
    body_backward, body_forward = _compile(p.body, space)
    rounds = range(full.bit_length() + 2)

    def backward(c, angelic, liberal):
        done = not_g & c
        x = full if liberal else 0
        for _ in rounds:
            nxt = done | g & body_backward(x, angelic, liberal)
            if nxt == x:
                return x
            x = nxt
        raise InvariantError("fixpoint iteration failed to stabilize")

    def forward(b, angelic):
        y = 0 if angelic else full
        for _ in rounds:
            if angelic:
                nxt = b | body_forward(g & y, True)
            else:
                nxt = b & body_forward(not_g | y, False)
            if nxt == y:
                return not_g & y if angelic else g | y
            y = nxt
        raise InvariantError("fixpoint iteration failed to stabilize")

    return backward, forward


_COMPILERS = {Skip: lambda p, space: _SKIP, Diverge: _diverge, Assign: _assign, Seq: _seq,
              Choice: _choice, Ite: _ite, While: _while}


def inductive_transform(kind: TransformerKind, p: Program, q: Predicate) -> Predicate:
    """Structural-recursion route; must equal oracle_transform on all inputs."""
    space = q.space
    backward, forward = _compile(p, space)
    if kind.backward:
        return Predicate(space, backward(q.bits, kind.angelic, kind.liberal))
    if kind is TransformerKind.ASP or kind is TransformerKind.DSLP:
        return Predicate(space, forward(q.bits, kind.angelic))
    asp = forward(q.bits, True)
    dslp = forward(q.bits, False)
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
