"""Program meaning: each program's profile, its input-output relation and
its may-divergence, composed from its sub-programs'.

`profile` reads nothing off a whole-program graph.  A memoised composer
builds the meaning of each (sub-program, space) once, bottom up: `;`
composes the relations (walking a `;` chain without recursion), and a
state may diverge in `a ; b` iff it may in a or reaches a state where b may;
`[]` takes the union; `if` selects by the guard; a loop is one SCC pass
over the states, where a state satisfying the guard has the body's
successors and every other state is final, so it may diverge iff it reaches
a cycle or a state where the body may.  A relation is kept as the union of
a few successor tables and rows (one successor mask per state).  A table
has an entry per state and one for a sink, n: the state's successor, or n
where it has none, and n for the sink itself, so tables compose with `map`
and a partial function needs no domain of its own.  Skip and an assignment
are tables, `if` gives the sink to the states its guard sends to a side
without tables, and a loop is the identity outside its guard beside rows
for the states under it.  Tables become rows only in a union of more than
four and as the profile's relation.  The budget is states times program
nodes, checked before each combine.  The composer is checked
against an operational reference, one pass over the configurations of the
program compiled to points, which lives beside the tests
(`tests/profile_reference.py`).

A program's profile is its semantic class, one object per relation,
may-divergence and space, so profiles compare by identity.  It is the store
of the class's transformer tables by predicate bits, read off the
relation's images and preimages (`rows_table`, which fixes the positions of
the eight results in a table).  A table, and the class's reachable states
and its final states with more than one initial state, are derived only
when first read.

One walk reads a program's syntax, memoised per (sub-program, space)
(`_meaning`): a leaf is its own meaning, a `;` chain is folded with `_then`
from its end, and any other node goes through `_combine`, the one step from
a constructor to its combine function (`_then`, `_choice_of`, `_ite_of`,
`_while_of`).  A profile is compositional: the constructor, the guard and
the parts' profiles fix it.  `classify`, the stream classifier, uses that
through the same `_combine` on the rows of an enumeration
(`generators.exhaustive_rows`), where each part comes earlier in the stream,
or on programs, each a leaf.  It builds no program, and `_combine` runs once
per (constructor, guard, parts' profiles) key.  Only `_class` builds a
`Profile`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, compress, repeat, zip_longest
from operator import and_, getitem, itemgetter, or_
from typing import Iterable, Iterator, NamedTuple

from . import space as _space  # for its bit and flag helpers; see relations.py
from . import syntax as _syntax  # for statements and assign_table, likewise
from .errors import BudgetExceededError
from .relations import Relation
from .space import StateSpace
from .syntax import (
    Assign,
    Choice,
    Diverge,
    Guard,
    Ite,
    Program,
    Seq,
    Skip,
    While,
    guard_to_predicate,
)

DEFAULT_NODE_BUDGET = 10**6


# --- the composer: a program's profile from its sub-programs' ---------------

class _Meaning(NamedTuple):
    """What the composer keeps per (program, space): a relation as the union
    of its successor tables and its rows, and its may-divergence."""

    nodes: int      # non-`;` nodes in the program the walk composed, which the
                    # budget multiplies by n (the classifier counts per entry)
    succs: tuple    # at most _WIDTH successor tables (a tuple, or a range for
                    # the identity) of n + 1 entries: entry i is state i's
                    # successor, or n where i has none; entry n is n
    rows: tuple     # n + 1 successor masks, the last 0, or None for none
    may: int        # may-divergence mask


# Tables and rows run over the n states and the sink, n, whose row is 0 and
# which never diverges.  Skip and an assignment are one table, and diverge is
# empty.  `;` composes each part of a with each part of b, `[]` joins the
# parts, and `if` selects table by table.  A loop is rows, beside the
# identity outside its guard as a table unless the states under it reach
# them all.  So a few partial functions never become a mask per state, which
# can take memory quadratic in n, whatever they sit beside and however a
# later statement maps them.  Tables become rows only in a union wider than
# _WIDTH and as the profile's relation; equal rows stay one shared int
# wherever a rule builds, selects or looks rows up.
_WIDTH = 4


def _pre(table: tuple, mask: int, n: int) -> int:
    """The states that the table sends into the mask."""
    flags = _space.flag_string(mask, n + 1)
    return int("".join(map(flags.__getitem__, table))[::-1], 2)


def _check_budget(nodes: int, n: int) -> None:
    """Refuse a profile whose program nodes times states exceed the budget,
    before the work that would build it."""
    budget = DEFAULT_NODE_BUDGET
    if n * nodes > budget:
        raise BudgetExceededError(
            f"states x program nodes = {n} x {nodes} exceeds the budget of {budget}")


def _rows(meaning: _Meaning, space: StateSpace) -> tuple[int, ...]:
    """The whole relation as rows, built once per distinct successor (or
    tuple of successors) and shared."""
    tables, rows = meaning.succs, meaning.rows
    n = space.size
    if not tables:
        return (0,) * (n + 1) if rows is None else rows
    bit = {s: 1 << s for s in set().union(*tables)}
    bit[n] = 0                                  # the sink: no successor
    if len(tables) == 1:
        built = tuple(map(bit.__getitem__, tables[0]))
    else:
        keys = list(zip(*tables))
        one = {key: reduce(or_, map(bit.__getitem__, key)) for key in set(keys)}
        built = tuple(map(one.__getitem__, keys))
    return built if rows is None else _union(built, rows)


def _union(rows: tuple, more: tuple) -> tuple:
    """Two rows tuples joined per state; a row joined with 0 stays shared."""
    return tuple([a | b if a and b else a or b for a, b in zip(rows, more)])


def _join(nodes: int, tables, rows: tuple | None, may: int, space: StateSpace) -> _Meaning:
    """A meaning from its parts: a repeated table and a table with no
    successor dropped, and too many tables folded into rows."""
    n = space.size
    if len(tables) > 1:
        tables = dict.fromkeys(tables)
    tables = tuple([table for table in tables if table.count(n) <= n])
    meaning = _Meaning(nodes, tables, rows, may)
    if len(tables) > _WIDTH:
        return _Meaning(nodes, (), _rows(meaning, space), may)
    return meaning


@lru_cache(maxsize=1 << 18)
def _meaning(p: Program, space: StateSpace) -> _Meaning:
    """p's meaning over the space: a leaf's own; a `;` chain's, flattened
    without recursion and composed from its end; and any other node's, its
    constructor's combine function on its parts' meanings.  The budget is
    checked on each node after its parts, and on a chain once, on its total."""
    kind, n = type(p), space.size
    if kind in (Skip, Diverge, Assign):
        _check_budget(1, n)
        if kind is Skip:
            return _Meaning(1, (range(n + 1),), None, 0)
        if kind is Diverge:
            return _Meaning(1, (), None, space.full_mask)
        return _Meaning(1, ((*_syntax.assign_table(p.var, p.expr, space), n),), None, 0)
    if kind is Seq:
        chain = [_meaning(q, space) for q in reversed(_syntax.statements(p))]  # last first
        nodes = sum([meaning.nodes for meaning in chain])
        _check_budget(nodes, n)
        meaning = chain[0]
        for first in chain[1:]:
            meaning = _then(first, meaning, nodes, space)
        return meaning
    if kind is Choice:
        guard, a, b = None, _meaning(p.left, space), _meaning(p.right, space)
    elif kind is Ite:
        guard, a, b = p.guard, _meaning(p.then, space), _meaning(p.orelse, space)
    elif kind is While:
        guard, a, b = p.guard, None, _meaning(p.body, space)
    else:
        raise TypeError(f"not a program: {p!r}")
    nodes = 1 + b.nodes + (0 if a is None else a.nodes)
    _check_budget(nodes, n)
    return _combine(kind, guard, a, b, nodes, space)


def _combine(ctor: type, guard, a: _Meaning | None, b: _Meaning, nodes: int,
             space: StateSpace) -> _Meaning:
    """The constructor's combine function on its parts' meanings: a loop's
    body is b."""
    if ctor is Seq:
        return _then(a, b, nodes, space)
    if ctor is Choice:
        return _choice_of(a, b, nodes, space)
    if ctor is Ite:
        return _ite_of(guard, a, b, nodes, space)
    return _while_of(guard, b, nodes, space)


def _then(a: _Meaning, b: _Meaning, nodes: int, space: StateSpace) -> _Meaning:
    """a ; b: each part of a (a table, or its rows) composed with each part
    of b, and may-divergence may(a) | pre_a(may(b)).  A sink entry of a
    table stays the sink: b's tables send n to n, and b's rows give it 0."""
    n = space.size
    succs, rows, may = b.succs, b.rows, b.may
    if len(a.succs) * len(succs) > _WIDTH:
        succs, rows = (), _rows(b, space)
    a_may = a.may
    tables, parts = [], []
    for first in a.succs:
        for second in succs:
            tables.append(tuple(map(second.__getitem__, first)))
        if rows is not None:
            parts.append(tuple(map(rows.__getitem__, first)))
        if may:
            a_may |= _pre(first, may, n)
    if a.rows is not None:
        image = {}              # by distinct row of a: its image under b
        iter_bits, full = _space.iter_bits, space.full_mask
        for row in set(a.rows):
            acc = 0
            for j in iter_bits(row):
                for second in succs:
                    acc |= 1 << second[j]
                if rows is not None:
                    acc |= rows[j]
            image[row] = acc & full             # not the sink
        parts.append(tuple(map(image.__getitem__, a.rows)))
        if may:
            a_may |= _space.mask_of([row & may != 0 for row in a.rows])
    rows = None
    for part in parts:
        rows = part if rows is None else _union(rows, part)
    return _join(nodes, tables, rows, a_may, space)


def _choice_of(left: _Meaning, right: _Meaning, nodes: int, space: StateSpace) -> _Meaning:
    """left [] right: the parts joined, and may-divergence either's."""
    rows = left.rows
    if rows is None:
        rows = right.rows
    elif right.rows is not None:
        rows = _union(rows, right.rows)
    return _join(nodes, left.succs + right.succs, rows, left.may | right.may, space)


def _ite_of(guard: Guard, then: _Meaning, orelse: _Meaning, nodes: int,
            space: StateSpace) -> _Meaning:
    """Table by table, the then side's entries where the guard holds and the
    else side's elsewhere, the side with fewer tables giving the sink for
    the rest; the sink stays the sink, as both sides send it there."""
    n = space.size
    g = guard_to_predicate(guard, space).bits
    flags = _space.flag_bytes(g, n + 1)
    tables = [_select(flags, left, right)
              for left, right in zip_longest(then.succs, orelse.succs, fillvalue=repeat(n))]
    rows = None
    if then.rows is not None or orelse.rows is not None:
        rows = _select(flags, then.rows or repeat(0), orelse.rows or repeat(0))
    may = then.may & g | orelse.may & ~g & space.full_mask
    return _join(nodes, tables, rows, may, space)


def _select(flags: bytes, then, orelse) -> tuple:
    """Per state, then's entry where the flag is 1, else orelse's."""
    return tuple(map(getitem, zip(orelse, then), flags))


def _while_of(guard: Guard, body: _Meaning, nodes: int, space: StateSpace) -> _Meaning:
    """One SCC pass over the states, which handles each edge once: a state
    where the guard holds has the body's successors, and every other state
    is closed from the start, with itself as its final state; the sink is
    closed from the start too, with no final state.  A state's final states
    are the closed ones it reaches, and it may diverge iff it reaches a
    cycle or a state where the body may diverge.  As in Tarjan's algorithm,
    an edge v -> w adds to v's answer w's final states and cycle flag if w
    is closed, marks a cycle (w is then in v's component) if w is open, and
    otherwise explores w first and merges w's answer into v's when it
    returns.  A root that closes hands its component's final states,
    complete by then, to the members; each member of a component of more
    than one state has already marked its own cycle.  A state outside the
    guard gets its mask only when a state under the guard reaches it: if
    every one is reached, the final states of all states are the loop's
    rows, and otherwise the loop is the identity on the states outside the
    guard beside rows for those under it."""
    n = space.size
    _, succs, rows, may = body
    g = guard_to_predicate(guard, space).bits
    exits, sink = ~g & space.full_mask, 1 << n
    under = _space.flag_bytes(g | sink, n + 1)      # the sink has no final state,
    closed = bytearray(_space.flag_bytes(exits | sink, n + 1))  # and is closed
    finals = [0] * (n + 1)
    cyclic = bytearray(_space.flag_bytes(may & g, n + 1))
    iter_bits = _space.iter_bits

    if rows is None and len(succs) == 1:
        # one table: a state's one successor, in a tuple, which the walk
        # reads again after that successor returns; by then it is closed, or
        # open in v's component, and reading it again changes nothing
        table = succs[0]

        def successors(v):
            return (table[v],)
    else:
        def successors(v):
            tables = map(itemgetter(v), succs)
            return tables if rows is None else chain(tables, iter_bits(rows[v]))
    number = [-1] * n           # discovery number of a state under the guard
    low = [0] * n
    stack: list[int] = []       # Tarjan's stack of open states
    count = 0
    reached = 0                 # states outside the guard given their own mask
    for root in range(n):
        if closed[root]:            # (each pass from a root closes all it finds)
            continue
        number[root] = low[root] = count
        count += 1
        stack.append(root)
        path, pending = [root], [successors(root)]
        while path:
            v = path[-1]
            for w in pending[-1]:
                if closed[w]:
                    reach = finals[w]
                    if not reach and not under[w]:  # outside the guard, first reached
                        reach = finals[w] = 1 << w
                        reached += 1
                    if reach and reach is not finals[v]:  # share, don't copy
                        finals[v] = finals[v] | reach if finals[v] else reach
                    if cyclic[w]:
                        cyclic[v] = 1
                elif number[w] < 0:         # discover w: explore it next
                    number[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append(w)
                    pending.append(successors(w))
                    break
                else:                       # w open: in v's component
                    if number[w] < low[v]:
                        low[v] = number[w]
                    cyclic[v] = 1
            else:                           # no successor of v left: return
                path.pop()
                pending.pop()
                if low[v] == number[v]:     # v roots a component: close it
                    reach = finals[v]
                    while True:
                        member = stack.pop()
                        closed[member] = 1
                        finals[member] = reach
                        if member == v:
                            break
                if path:                    # merge v into its parent u
                    u = path[-1]
                    reach = finals[v]
                    if reach and reach is not finals[u]:
                        finals[u] = finals[u] | reach if finals[u] else reach
                    if cyclic[v]:
                        cyclic[u] = 1
                    if low[v] < low[u]:
                        low[u] = low[v]
    may = _space.mask_of(cyclic)
    if reached == exits.bit_count():            # every final state's mask is built
        return _Meaning(nodes, (), tuple(finals), may)
    return _Meaning(nodes, (_select(under, repeat(n), range(n + 1)),),
                    _select(under, finals, repeat(0)) if g else None, may)


# --- the semantic class: a profile per (space, relation, may-divergence) ----
#
# Image/preimage algebra over the class, with pre(q) the states having some
# final state in q and img(q) the final states of some run from q:
#   awp = pre(q)    dwlp = ~pre(~q)    dwp = dwlp - div    awlp = awp | div
#   asp = img(q)    dslp = ~img(~q)    dsp = dslp & reach  aslp = asp | ~reach

# most states for which rows_table sets its masks state by state: measured
# on random rows and on those of the countdown and of x := x + 1, that loop
# is 2.5-4x faster than the four linear passes up to 27 states and 5-25 %
# faster at 64-125; the two are within 15 % of each other at 216-512, the
# passes win from about 1 000 on, and at 2^18 the loop's ever longer ints
# take 1.4 s on the countdown's rows against 0.08 s.  The inductive engine's
# assignments switch from pairs of one-bit masks to passes over the
# successor table here too: on x := x + y + z + 1 and random predicates, the
# pairs' preimage is faster up to 125 states (12 us against 15 us) and the
# two are even at 216 (23 against 22 us); the pairs' image is faster up to
# 27 states (2.0 against 3.3 us) and slower from 64 on
_LOOPED = 200

# A transformer table holds one predicate's eight results in this order,
# `transformers.TransformerKind`'s; these are their positions.
AWP, DWP, AWLP, DWLP, ASP, DSP, ASLP, DSLP = range(8)


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


class Profile(dict):
    """A semantic class: a relation over a space and its may-divergence, all
    that the transformer oracles read.  It maps predicate bits to their
    transformer table (the eight results at the positions above), each
    computed on first use.  `profile` gives every program of a class in a
    space the same object, so a profile compares and hashes by identity, not
    as the dict of the tables read so far: two profiles over different
    spaces are different classes."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __init__(self, space: StateSpace, relation: Relation, may_div: int):
        super().__init__()
        rows = relation.rows
        self.space, self.relation, self.may_div = space, relation, may_div
        self.must_div = space.full_mask ^ relation.domain_bits() if 0 in rows else 0

    def __missing__(self, q: int) -> tuple[int, ...]:
        table = self[q] = rows_table(self.relation.rows, self.may_div, q)
        return table

    # derived on first read and kept as attributes, as StateSpace keeps its
    # columns: many classes never need them
    _reach = _irreversible = None

    @property
    def reach(self) -> int:
        if self._reach is None:
            self._reach = self.relation.codomain_bits()
        return self._reach

    @property
    def irreversible(self) -> int:
        """The final states with more than one initial state."""
        if self._irreversible is None:
            seen = irreversible = 0
            for row in self.relation.rows:
                irreversible |= seen & row
                seen |= row
            self._irreversible = irreversible
        return self._irreversible


@lru_cache(maxsize=1 << 18)
def profile(p: Program, space: StateSpace) -> Profile:
    """p's semantic class over the space, shared by every program in it."""
    return _profile_of(_meaning(p, space), space)


def _profile_of(meaning: _Meaning, space: StateSpace) -> Profile:
    return _class(space, _rows(meaning, space)[:space.size], meaning.may)


@lru_cache(maxsize=1 << 18)
def _class(space: StateSpace, rows: tuple[int, ...], may_div: int) -> Profile:
    return Profile(space, Relation(space.size, rows), may_div)


def classify(rows: Iterable, space: StateSpace) -> Iterator[Profile]:
    """The profile over the space of each entry of a row stream (see
    `generators.exhaustive_rows`), in order, with no program built.  A
    leaf's meaning is the walk's.  A profile depends only on the
    constructor, the guard and the parts' profiles, so a composite entry is
    keyed by those: the first entry of a key is composed from its parts'
    meanings by the constructor's combine function, and a later one gets
    the key's profile.  Every composite entry is first checked against the
    budget on its node count (its parts', plus one unless it is a `;`), so
    the budget refuses the entry that composing each program would.  Per
    entry only its profile, its node count and one meaning of its class are
    kept, for as long as the stream lives."""
    n = space.size
    cap = DEFAULT_NODE_BUDGET // n      # n x nodes exceeds the budget iff nodes exceed cap
    profiles: list[Profile] = []
    counts: list[int] = []
    meanings: list[_Meaning] = []
    keys: dict = {}         # (constructor, guard, i's profile) -> {j's profile: its class}
    for row in rows:
        if type(row) is not tuple:          # a leaf
            meaning = _meaning(row, space)
            prof = _profile_of(meaning, space)
            profiles.append(prof)
            counts.append(meaning.nodes)
            meanings.append(meaning)
            yield prof
            continue
        ctor, guard, i, js = row
        step = 0 if ctor is Seq else 1      # a `;` is not a node
        if i is None:                       # a loop row: entry j is the body
            first, base, key = None, step, (ctor, guard)
        else:
            first, base, key = meanings[i], step + counts[i], (ctor, guard, profiles[i])
        known = keys.get(key)
        if known is None:
            known = keys[key] = {}
        for j in js:
            nodes = base + counts[j]
            if nodes > cap:
                _check_budget(nodes, n)
            part = profiles[j]
            cls = known.get(part)
            if cls is None:
                meaning = _combine(ctor, guard, first, meanings[j], nodes, space)
                cls = known[part] = _profile_of(meaning, space), meaning
            profiles.append(cls[0])
            counts.append(nodes)
            meanings.append(cls[1])
            yield cls[0]
