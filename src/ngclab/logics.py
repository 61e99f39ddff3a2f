"""The triple logics: eighteen ways to read a (pre, program, post) triple.

Sixteen arise from bounding each transformer from below or above; two more
bound the union and the intersection of the angelic weakest pre and the
demonic weakest liberal pre.  The subset condition has two kernels.  The
per-pair one, `violations`, decides one (pre, post) pair from its two
transformer tables and is the definitional reference: `holds`, the command
line's `check`, the theorems and the search's outcome claim read it.  The
per-class one, `validity_sets`, gives each logic's valid pairs of a
semantic class at once as one int, read off the class's transformer
tables: the search's logic-pair and blindspot scans compare two such sets,
and so do Fig. 4 and the two Galois connections on a corpus whose programs
share one pair list.  The tests hold the two kernels equal on every pair.
Which logics are contrapositive or Galois partners is derived from the
transformers' negation duals and adjunctions (`transformers.DUALS`,
`ADJUNCTIONS`).
Also here: the collapse assumptions, stated once, and their classifier.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import unknown_name
from .semantics import Profile, profile
from .space import Predicate, StateSpace, low_bit
from .syntax import Choice, Ite, Program, Seq, While, pretty_program
from .transformers import ADJUNCTIONS, AWP, DUALS, DWLP, TransformerKind
from .values import Frozen, setfield


class Bound(Enum):
    LB = "lb"  # pre- or postcondition below the transformer result
    UB = "ub"  # transformer result below the pre- or postcondition


class LogicId(Frozen):
    # name: a stable identifier, e.g. "awp-lb"; kind: None for the
    # union/intersection logics; shape: the subset condition as `violations`
    # reads it (table position of the transformer, or None for the
    # union/intersection logics; backward; lower bound), derived, so not
    # part of equality, repr or pickling
    __slots__ = ("name", "kind", "bound", "shape")
    _fields = ("name", "kind", "bound")

    def __init__(self, name: str, kind: Optional[TransformerKind], bound: Bound):
        setfield(self, "name", name)
        setfield(self, "kind", kind)
        setfield(self, "bound", bound)
        setfield(self, "shape", (
            None if kind is None else kind.position,
            kind is None or kind.backward,
            bound is Bound.LB,
        ))

    def __repr__(self) -> str:
        return f"LogicId({self.name})"


def _mk(kind: TransformerKind, bound: Bound) -> LogicId:
    return LogicId(f"{kind.value}-{bound.value}", kind, bound)


AWP_LB = _mk(TransformerKind.AWP, Bound.LB)
DWP_LB = _mk(TransformerKind.DWP, Bound.LB)
AWLP_LB = _mk(TransformerKind.AWLP, Bound.LB)
DWLP_LB = _mk(TransformerKind.DWLP, Bound.LB)
AWP_UB = _mk(TransformerKind.AWP, Bound.UB)
DWP_UB = _mk(TransformerKind.DWP, Bound.UB)
AWLP_UB = _mk(TransformerKind.AWLP, Bound.UB)
DWLP_UB = _mk(TransformerKind.DWLP, Bound.UB)
ASP_LB = _mk(TransformerKind.ASP, Bound.LB)
DSP_LB = _mk(TransformerKind.DSP, Bound.LB)
ASLP_LB = _mk(TransformerKind.ASLP, Bound.LB)
DSLP_LB = _mk(TransformerKind.DSLP, Bound.LB)
ASP_UB = _mk(TransformerKind.ASP, Bound.UB)
DSP_UB = _mk(TransformerKind.DSP, Bound.UB)
ASLP_UB = _mk(TransformerKind.ASLP, Bound.UB)
DSLP_UB = _mk(TransformerKind.DSLP, Bound.UB)
UNION_LOGIC = LogicId("union-lb", None, Bound.LB)
INTERSECTION_LOGIC = LogicId("intersection-lb", None, Bound.LB)

ALL_LOGICS: tuple[LogicId, ...] = (
    AWP_LB, DWP_LB, AWLP_LB, DWLP_LB,
    AWP_UB, DWP_UB, AWLP_UB, DWLP_UB,
    ASP_LB, DSP_LB, ASLP_LB, DSLP_LB,
    ASP_UB, DSP_UB, ASLP_UB, DSLP_UB,
    UNION_LOGIC, INTERSECTION_LOGIC,
)

_BY_NAME = {logic.name: logic for logic in ALL_LOGICS}
# the sixteen bounded logics by (table position of the transformer, bound)
BOUNDED = {(logic.kind.position, logic.bound): logic for logic in ALL_LOGICS[:16]}

# colloquial aliases accepted on the command line
ALIASES = {
    "lisbon": AWP_LB,
    "total-correctness": DWP_LB,
    "partial-correctness": DWLP_LB,
    "angelic-partial-correctness": AWLP_LB,
    "incorrectness": ASP_LB,
    "demonic-incorrectness": DSP_LB,
    "partial-incorrectness": DSLP_LB,
    "angelic-partial-incorrectness": ASLP_LB,
    "necessary-preconditions": AWP_UB,
    "in-between": UNION_LOGIC,
    "outcome": INTERSECTION_LOGIC,
}


def logic_by_name(name: str) -> LogicId:
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name in ALIASES:
        return ALIASES[name]
    raise unknown_name("logic", name)


# contrapositive partners: holds(L, (b, p, c)) iff holds(partner(L), (~b, p, ~c)),
# where the partner bounds the negation dual of L's transformer the other way
_DUAL = dict(DUALS + tuple((y, x) for x, y in DUALS))
_FLIP = {Bound.LB: Bound.UB, Bound.UB: Bound.LB}
CONTRAPOSITIVE = {logic: BOUNDED[_DUAL[pos], _FLIP[bound]]
                  for (pos, bound), logic in BOUNDED.items()}

# Galois partners, equivalent on every triple: g-lb and f-ub for f -| g
_ADJOINT = [(BOUNDED[g, Bound.LB], BOUNDED[f, Bound.UB]) for _, f, g in ADJUNCTIONS]
GALOIS = dict(_ADJOINT + [(y, x) for x, y in _ADJOINT])


class Triple(Frozen):
    __slots__ = ("pre", "program", "post")

    def __init__(self, pre: Predicate, program: Program, post: Predicate):
        if pre.space != post.space:
            raise ValueError("pre- and postcondition live in different spaces")
        setfield(self, "pre", pre)
        setfield(self, "program", program)
        setfield(self, "post", post)

    @property
    def space(self) -> StateSpace:
        return self.pre.space

    def negated(self) -> "Triple":
        return Triple(~self.pre, self.program, ~self.post)

    def __repr__(self) -> str:
        return f"{{{self.pre!r}}} {pretty_program(self.program)} {{{self.post!r}}}"


def violations(logics, tb, tc, b: int, c: int, full: int) -> list[int]:
    """Per logic, the mask of the states breaking its subset condition on
    (b, c), given the transformer tables of b and c: a backward logic reads
    only tc, a forward one only tb.  A lower bound is broken by the bound's
    states outside the transformer result, an upper bound by the result's
    states outside the bound; the triple is valid iff its mask is 0."""
    out = []
    for logic in logics:
        pos, backward, lower = logic.shape
        if pos is None:
            awp, dwlp = tc[AWP], tc[DWLP]
            out.append(b & ~(awp | dwlp if logic is UNION_LOGIC else awp & dwlp))
        elif backward:
            out.append(b & ~tc[pos] if lower else tc[pos] & ~b & full)
        else:
            out.append(c & ~tb[pos] if lower else tb[pos] & ~c & full)
    return out


# the tables of `_pair_sets` by (P, stride): constants of P, each built on
# first use and kept for the life of the process, as no cache clear needs to
# drop them
_PAIR_SETS: dict = {}


def _pair_sets(npred: int, stride: int) -> tuple[list[int], list[int]]:
    """Over npred predicates, per state mask m: the predicates below m (the
    subsets of m) and the predicates above m (its supersets), each as one
    set with predicate q at bit q * stride."""
    sets = _PAIR_SETS.get((npred, stride))
    if sets is None:
        below = [1]
        for m in range(1, npred):
            rest = m & (m - 1)          # m without its lowest state, m ^ rest
            below.append(below[rest] | below[rest] << (m ^ rest) * stride)
        full = npred - 1
        # q is above m iff q is m plus a predicate below the complement of m
        above = [below[full ^ m] << m * stride for m in range(npred)]
        sets = _PAIR_SETS[npred, stride] = below, above
    return sets


def validity_sets(logics, prof: Profile, post_major: bool = False) -> list[int]:
    """Per logic, its valid (pre, post) pairs of predicate bits in prof's
    class as one int over the space's P predicates: the pair (b, c) is bit
    b * P + c, or c * P + b when post_major.  The class's P transformer
    tables are read once.  Under a backward logic, the valid b at a fixed c
    are those below its result at c (a lower bound) or above it (an upper
    bound), a set over b; under a forward logic, the valid c at a fixed b
    are those below or above its result at b.  Each is one lookup in a
    table of `_pair_sets`, spread to stride P where the set runs over the
    major predicate, and shifted to the fixed predicate's place."""
    npred = 1 << prof.space.size
    tables = list(map(prof.__getitem__, range(npred)))
    out = []
    for logic in logics:
        pos, backward, lower = logic.shape
        if backward != post_major:      # the set runs over the major predicate
            stride, step = npred, 1
        else:
            stride, step = 1, npred
        below, above = _pair_sets(npred, stride)
        table = below if lower else above
        valid = 0
        if pos is None:
            both = logic is INTERSECTION_LOGIC
            for q, t in enumerate(tables):
                valid |= table[t[AWP] & t[DWLP] if both else t[AWP] | t[DWLP]] << q * step
        else:
            for q, t in enumerate(tables):
                valid |= table[t[pos]] << q * step
        out.append(valid)
    return out


def violated_states(logic: LogicId, t: Triple) -> int:
    """The mask of the states breaking the logic's subset condition on the
    triple, from one transformer table of the program's profile: the
    postcondition's for a backward logic, the precondition's for a forward
    one."""
    _, backward, _ = logic.shape
    table = profile(t.program, t.space)[t.post.bits if backward else t.pre.bits]
    return violations((logic,), table, table, t.pre.bits, t.post.bits,
                      t.space.full_mask)[0]


def holds(logic: LogicId, t: Triple) -> bool:
    """Validity of the triple under the logic's subset condition."""
    return not violated_states(logic, t)


# --- assumption classifiers ----------------------------------------------------

class Flag(Frozen):
    # witness: a State or a program fragment when holds is False
    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: object = None):
        setfield(self, "holds", holds)
        setfield(self, "witness", witness)


# The four semantic collapse assumptions: whether each is scoped to the
# precondition (else the postcondition), and a profile's states breaking it.
ASSUMPTIONS = {
    "termination": (True, lambda prof: prof.may_div),
    "reachability": (False, lambda prof: ~prof.reach),
    "reversibility": (False, lambda prof: prof.irreversible),
    "no_branching_divergence": (True, lambda prof: prof.may_div & ~prof.must_div),
}


class AssumptionSet(Frozen):
    __slots__ = ("termination", "reachability", "determinism", "reversibility",
                 "no_branching_divergence")

    def __init__(self, termination: Optional[Flag] = None,
                 reachability: Optional[Flag] = None,
                 determinism: Optional[Flag] = None,
                 reversibility: Optional[Flag] = None,
                 no_branching_divergence: Optional[Flag] = None):
        setfield(self, "termination", termination)
        setfield(self, "reachability", reachability)
        setfield(self, "determinism", determinism)
        setfield(self, "reversibility", reversibility)
        setfield(self, "no_branching_divergence", no_branching_divergence)


def syntactic_choice(p: Program) -> Optional[Program]:
    """The first nondeterministic choice subterm, in preorder, if any.  An
    explicit stack, so that a `;` chain of any length is walked."""
    todo = [p]
    while todo:
        p = todo.pop()
        if isinstance(p, Choice):
            return p
        if isinstance(p, Seq):
            todo += (p.second, p.first)
        elif isinstance(p, Ite):
            todo += (p.orelse, p.then)
        elif isinstance(p, While):
            todo.append(p.body)
    return None


def classify(
    p: Program,
    space: StateSpace,
    scope_pre: Optional[Predicate] = None,
    scope_post: Optional[Predicate] = None,
) -> AssumptionSet:
    """Evaluate the five collapse assumptions, each semantic one over the
    scope its `ASSUMPTIONS` entry names; determinism is syntactic."""
    prof = profile(p, space)
    pre_bits = space.full_mask if scope_pre is None else scope_pre.bits
    post_bits = space.full_mask if scope_post is None else scope_post.bits
    flags = {}
    for name, (on_pre, breaking) in ASSUMPTIONS.items():
        bad = breaking(prof) & (pre_bits if on_pre else post_bits)
        flags[name] = Flag(bad == 0, None if bad == 0 else space.state(low_bit(bad)))
    offending = syntactic_choice(p)
    return AssumptionSet(determinism=Flag(offending is None, offending), **flags)
