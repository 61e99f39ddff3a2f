"""The eight predicate transformers, computed two independent ways.

The oracle route reads the quantifier definitions straight off the program's
profile, as image/preimage algebra over its relation and graph-detected
may-divergence.  The inductive
route is structural recursion on the program with Kleene-iterated loop
fixpoints (least from the empty set, greatest from the full space).  The two
must agree everywhere; the test suite checks that differentially.
"""

from __future__ import annotations

from enum import Enum

from .errors import InvariantError
from .semantics import Profile, _assign_successors, profile
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
        self.backward = value in ("awp", "dwp", "awlp", "dwlp")
        self.forward = not self.backward
        self.angelic = value in ("awp", "awlp", "asp", "aslp")
        self.demonic = not self.angelic
        self.liberal = value in ("awlp", "dwlp", "aslp", "dslp")


BACKWARD_KINDS = tuple(k for k in TransformerKind if k.backward)
FORWARD_KINDS = tuple(k for k in TransformerKind if k.forward)


# --- semantic oracle ---------------------------------------------------------
#
# Image/preimage algebra over the profile, with pre(q) the states having some
# final state in q and img(q) the final states of some run from q:
#   awp = pre(q)    dwlp = ~pre(~q)    dwp = dwlp - div    awlp = awp | div
#   asp = img(q)    dslp = ~img(~q)    dsp = dslp & reach  aslp = asp | ~reach

def _oracle_bits(kind: TransformerKind, prof: Profile, q: int) -> int:
    full = prof.space.full_mask
    if kind.backward:
        # q is a postcondition; pre(q) collects the predecessors of q
        pre = prof.inverse_relation.image_bits
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


def transformer_table(prof: Profile, q: int) -> tuple[int, ...]:
    """All eight transformers of q, in TransformerKind order, from one pass
    over the relation's rows."""
    full = prof.space.full_mask
    pre = pre_not = img = img_not = 0
    bit = 1
    for row in prof.relation.rows:
        if row & q:
            pre |= bit
        if row & ~q:
            pre_not |= bit
        if q & bit:
            img |= row
        else:
            img_not |= row
        bit <<= 1
    div = prof.may_div
    reach = img | img_not
    dwlp = full ^ pre_not
    dslp = full ^ img_not
    return (pre, dwlp & ~div, pre | div, dwlp,
            img, dslp & reach, img | full ^ reach, dslp)


def oracle_transform(kind: TransformerKind, p: Program, q: Predicate) -> Predicate:
    """Quantifier definition of the transformer, off the collecting semantics."""
    prof = profile(p, q.space)
    return Predicate(q.space, _oracle_bits(kind, prof, q.bits))


# --- inductive rules ---------------------------------------------------------

def _fixpoint(step, start: int, size: int) -> int:
    value = start
    for _ in range(size + 2):
        nxt = step(value)
        if nxt == value:
            return value
        value = nxt
    raise InvariantError("fixpoint iteration failed to stabilize")


def _backward(kind: TransformerKind, p: Program, c: int, space: StateSpace) -> int:
    full = space.full_mask
    if isinstance(p, Skip):
        return c
    if isinstance(p, Diverge):
        return full if kind.liberal else 0
    if isinstance(p, Assign):
        succ = _assign_successors(p.var, p.expr, space)
        bits = 0
        for i in range(space.size):
            if c >> succ[i] & 1:
                bits |= 1 << i
        return bits
    if isinstance(p, Seq):
        return _backward(kind, p.first, _backward(kind, p.second, c, space), space)
    if isinstance(p, Choice):
        a = _backward(kind, p.left, c, space)
        b = _backward(kind, p.right, c, space)
        return a | b if kind.angelic else a & b
    if isinstance(p, Ite):
        g = guard_to_predicate(p.guard, space).bits
        return (
            g & _backward(kind, p.then, c, space)
            | ~g & full & _backward(kind, p.orelse, c, space)
        )
    if isinstance(p, While):
        g = guard_to_predicate(p.guard, space).bits

        def step(x: int) -> int:
            return ~g & full & c | g & _backward(kind, p.body, x, space)

        start = full if kind.liberal else 0
        return _fixpoint(step, start, space.size)
    raise TypeError(f"not a program: {p!r}")


def _forward(kind: TransformerKind, p: Program, b: int, space: StateSpace) -> int:
    # only ASP and DSLP have direct rules; DSP and ASLP are combinations
    full = space.full_mask
    angelic = kind is TransformerKind.ASP
    if isinstance(p, Skip):
        return b
    if isinstance(p, Diverge):
        return 0 if angelic else full
    if isinstance(p, Assign):
        succ = _assign_successors(p.var, p.expr, space)
        hit = 0
        miss = 0
        for i in range(space.size):
            if b >> i & 1:
                hit |= 1 << succ[i]
            else:
                miss |= 1 << succ[i]
        # asp: reachable from b; dslp: not reachable from outside b
        return hit if angelic else ~miss & full
    if isinstance(p, Seq):
        return _forward(kind, p.second, _forward(kind, p.first, b, space), space)
    if isinstance(p, Choice):
        a = _forward(kind, p.left, b, space)
        d = _forward(kind, p.right, b, space)
        return a | d if angelic else a & d
    if isinstance(p, Ite):
        g = guard_to_predicate(p.guard, space).bits
        if angelic:
            return (
                _forward(kind, p.then, g & b, space)
                | _forward(kind, p.orelse, ~g & full & b, space)
            )
        return (
            _forward(kind, p.then, ~g & full | b, space)
            & _forward(kind, p.orelse, g | b, space)
        )
    if isinstance(p, While):
        g = guard_to_predicate(p.guard, space).bits
        if angelic:
            def step(y: int) -> int:
                return b | _forward(kind, p.body, g & y, space)

            return ~g & full & _fixpoint(step, 0, space.size)

        def step(y: int) -> int:
            return b & _forward(kind, p.body, ~g & full | y, space)

        return g | _fixpoint(step, full, space.size)
    raise TypeError(f"not a program: {p!r}")


def inductive_transform(kind: TransformerKind, p: Program, q: Predicate) -> Predicate:
    """Structural-recursion route; must equal oracle_transform on all inputs."""
    space = q.space
    if kind.backward:
        return Predicate(space, _backward(kind, p, q.bits, space))
    if kind is TransformerKind.ASP or kind is TransformerKind.DSLP:
        return Predicate(space, _forward(kind, p, q.bits, space))
    asp = _forward(TransformerKind.ASP, p, q.bits, space)
    dslp = _forward(TransformerKind.DSLP, p, q.bits, space)
    if kind is TransformerKind.DSP:
        return Predicate(space, asp & dslp)
    if kind is TransformerKind.ASLP:
        return Predicate(space, asp | dslp)
    raise InvariantError(f"unhandled transformer kind {kind}")


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
    prof = profile(p, b.space)
    row = prof.inverse_relation.rows[tau.index]
    key = (bool(row & b.bits), bool(row & ~b.bits & b.space.full_mask))
    return _REACH_CLASSES[key]
