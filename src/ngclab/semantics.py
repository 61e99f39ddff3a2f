"""Program meaning three ways: collecting semantics, a small-step
configuration graph (the only place divergence is observable), and the
relational denotation derived from the collecting semantics.

The graph runs over integer configurations `point * n + state`, where the
points are a flat compilation of the program.  On a finite, finitely
branching graph an infinite execution exists from a configuration iff that
configuration can reach a node lying on a cycle (a lasso).  `profile` reads
both the relation and may-divergence off one strongly-connected-component
pass over that graph, which handles each edge once: an edge into a closed
component adds that component's final states and cycle flag, an edge to an
open node marks a cycle, a child's answer merges into its parent when it
returns, and a component's answer is complete when its root closes.  The
profile's converse relation and reachable states are derived only when first
read.  `collecting` and `denote_relation` stay AST walks, an independent
route the tests compare it against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import add, not_, sub

from . import space as _space  # for iter_bits and mask_of; see relations.py
from .errors import BudgetExceededError
from .relations import Relation
from .space import Predicate, StateSpace
from .syntax import (
    Assign,
    Choice,
    Diverge,
    Ite,
    Program,
    Seq,
    Skip,
    While,
    _spread,
    expr_column,
    guard_to_predicate,
)

DEFAULT_NODE_BUDGET = 10**6


@lru_cache(maxsize=65536)
def _assign_successors(var: str, expr, space: StateSpace) -> tuple[int, ...]:
    """Assignment is a total function on states; tabulate it once.  Only
    var's digit changes: succ(i) = i + (e(i) - var(i)) * stride_var."""
    stride, column = space.columns[space.var_index(var)]
    value = expr_column(expr, space)
    delta = map(sub, _spread(value), column)
    return tuple(map(add, range(space.size), map(stride.__mul__, delta)))


def _over_budget(node_budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"configuration graph exceeded {node_budget} nodes")


def _collect_bits(p: Program, bits: int, space: StateSpace) -> int:
    if isinstance(p, Skip):
        return bits
    if isinstance(p, Diverge):
        return 0
    if isinstance(p, Assign):
        succ = _assign_successors(p.var, p.expr, space)
        acc = 0
        for i in _space.iter_bits(bits):
            acc |= 1 << succ[i]
        return acc
    if isinstance(p, Seq):
        return _collect_bits(p.second, _collect_bits(p.first, bits, space), space)
    if isinstance(p, Choice):
        return _collect_bits(p.left, bits, space) | _collect_bits(p.right, bits, space)
    if isinstance(p, Ite):
        g = guard_to_predicate(p.guard, space).bits
        return (
            _collect_bits(p.then, bits & g, space)
            | _collect_bits(p.orelse, bits & ~g & space.full_mask, space)
        )
    if isinstance(p, While):
        g = guard_to_predicate(p.guard, space).bits
        x = 0
        while True:
            nxt = bits | _collect_bits(p.body, x & g, space)
            if nxt == x:
                break
            x = nxt
        return x & ~g & space.full_mask
    raise TypeError(f"not a program: {p!r}")


def collecting(p: Program, initial: Predicate) -> Predicate:
    """All final states reachable from the initial set; loops by least fixpoint."""
    space = initial.space
    return Predicate(space, _collect_bits(p, initial.bits, space))


def denote_relation(p: Program, space: StateSpace) -> Relation:
    """Initial-to-final state relation; branching divergence is invisible here."""
    rows = tuple(_collect_bits(p, 1 << i, space) for i in range(space.size))
    return Relation(space.size, rows)


# --- program points and the configuration graph ---------------------------
#
# A program compiles, once per state space, to a flat list of program points;
# point 0 is the terminal point.  A configuration is the int `point * n +
# state`, so configurations below n are the finished ones.  A point is
# (kind, first, second, data) with successor points pre-multiplied by n:

_GOTO = 0     # skip (to its continuation) and diverge (to itself)
_ASSIGN = 1   # to the continuation, through the successor table in data
_CHOICE = 2   # to either of two points
_BRANCH = 3   # if and while: to first where the guard flag in data is "1",
              # else to second; a while point is its body's continuation


class _Points:
    """A program compiled over a state space."""

    def __init__(self, p: Program, space: StateSpace):
        self.n = space.size
        self.space = space
        self.points: list = [None]
        self.entry = self._chain(p, 0)

    def _add(self, kind, first: int, second: int = 0, data=None) -> int:
        n = self.n
        self.points.append((kind, first * n, second * n, data))
        return len(self.points) - 1

    def _chain(self, p: Program, cont: int) -> int:
        """Entry point of p followed by point `cont`: iterates along `;`."""
        if type(p) is not Seq:
            return self._single(p, cont)
        chain, todo = [], [p]
        while todo:
            q = todo.pop()
            if type(q) is Seq:
                todo += (q.second, q.first)
            else:
                chain.append(q)
        for q in reversed(chain):
            cont = self._single(q, cont)
        return cont

    def _single(self, p: Program, cont: int) -> int:
        compile_point = _COMPILE.get(type(p))
        if compile_point is None:
            raise TypeError(f"not a program: {p!r}")
        return compile_point(self, p, cont)

    def _skip(self, p: Skip, cont: int) -> int:
        return self._add(_GOTO, cont)

    def _diverge(self, p: Diverge, cont: int) -> int:
        # a self-loop: the point about to be added
        return self._add(_GOTO, len(self.points))

    def _assign(self, p: Assign, cont: int) -> int:
        return self._add(_ASSIGN, cont, 0, _assign_successors(p.var, p.expr, self.space))

    def _choice(self, p: Choice, cont: int) -> int:
        return self._add(_CHOICE, self._chain(p.left, cont), self._chain(p.right, cont))

    def _flags(self, guard) -> str:
        bits = guard_to_predicate(guard, self.space).bits
        return format(bits, "b").zfill(self.n)[::-1]

    def _ite(self, p: Ite, cont: int) -> int:
        flags = self._flags(p.guard)
        return self._add(_BRANCH, self._chain(p.then, cont), self._chain(p.orelse, cont),
                         flags)

    def _while(self, p: While, cont: int) -> int:
        flags = self._flags(p.guard)
        point = len(self.points)
        self.points.append(None)
        body = self._chain(p.body, point)
        n = self.n
        self.points[point] = (_BRANCH, body * n, cont * n, flags)
        return point

    def step(self, node: int) -> tuple[int, int]:
        """The successors of a configuration that has not finished: the first,
        and the second of a choice, or -1."""
        point, state = divmod(node, self.n)
        kind, first, second, data = self.points[point]
        if kind == _GOTO:
            return first + state, -1
        if kind == _ASSIGN:
            return first + data[state], -1
        if kind == _CHOICE:
            return first + state, second + state
        return (first if data[state] == "1" else second) + state, -1

    def seed(self, state: int) -> int:
        return self.entry * self.n + state


_COMPILE = {Skip: _Points._skip, Diverge: _Points._diverge, Assign: _Points._assign,
            Choice: _Points._choice, Ite: _Points._ite, While: _Points._while}


@dataclass
class TransitionGraph:
    """Configurations as ints: `state_of(node)` is the state, and the nodes
    below `space.size` are the terminal ones."""

    space: StateSpace
    nodes: list[int]
    edges: dict[int, tuple[int, ...]]
    seeds: dict[int, int]

    def successors(self, node: int) -> tuple[int, ...]:
        return self.edges.get(node, ())

    def is_terminal(self, node: int) -> bool:
        return node < self.space.size

    def state_of(self, node: int) -> int:
        return node % self.space.size

    def terminal_states(self, seed_index: int) -> Predicate:
        """Final states reachable from one seed, read off the graph."""
        start = self.seeds[seed_index]
        seen = {start}
        queue = deque([start])
        bits = 0
        while queue:
            node = queue.popleft()
            if self.is_terminal(node):
                bits |= 1 << node
                continue
            for nxt in self.edges[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return Predicate(self.space, bits)

    def to_dot(self) -> str:
        def label(node: int) -> str:
            state = self.space.state(self.state_of(node))
            if self.is_terminal(node):
                return f"end {state!r}"
            return f"pc {node // self.space.size} | {state!r}"

        lines = ["digraph configurations {"]
        for node in self.nodes:
            shape = "doublecircle" if self.is_terminal(node) else "box"
            lines.append(f'  n{node} [shape={shape}, label="{label(node)}"];')
        for node in self.nodes:
            for nxt in self.edges.get(node, ()):
                lines.append(f"  n{node} -> n{nxt};")
        lines.append("}")
        return "\n".join(lines)


def build_graph(
    p: Program,
    seeds: Predicate,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TransitionGraph:
    """All configurations reachable from seeding p on each seed state."""
    points = _Points(p, seeds.space)
    n, step = points.n, points.step
    seed_map = {i: points.seed(i) for i in seeds.indices()}
    nodes: list[int] = []
    edges: dict[int, tuple[int, ...]] = {}
    seen = set(seed_map.values())
    queue = deque(seed_map.values())
    while queue:
        node = queue.popleft()
        nodes.append(node)
        if len(nodes) > node_budget:
            raise _over_budget(node_budget)
        if node < n:
            continue
        first, second = step(node)
        succs = edges[node] = (first,) if second < 0 else (first, second)
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return TransitionGraph(seeds.space, nodes, edges, seed_map)


def _final_and_divergent(points: _Points, node_budget: int) -> tuple[list[int], int]:
    """Per state: the final states its seed reaches, and (as a bitmask over
    states) whether the seed can reach a cycle.  One iterative Tarjan pass
    over the configurations reachable from the seeds that handles each edge
    once.  A configuration is numbered on discovery, and by that number
    keeps its `low`, whether its component has closed, and a final-state
    mask and a cycle flag.  A terminal configuration has no successors, so
    it closes at once as a component of its own.  While a node is open these
    are the parts found so far of its component's answer, and an edge
    v -> w adds to v's:

    - w closed: its component is complete, so w's mask and flag are final;
    - w open: the edge lies inside one component (Tarjan's lemma), so it
      lowers v's `low` and sets v's cycle flag;
    - w new: w is explored first; when it returns, still open (so in v's
      component) or closed, its mask and flag merge into v's.

    A root that closes holds its whole component's answer, because every
    member has merged into its parent on return; the members are popped and
    given that answer, with no second pass over their edges.  A configuration
    has at most two successors, so the DFS path keeps, beside each open node,
    only its pending second successor (-1 for none), not a successor tuple
    and an iterator over it."""
    n = points.n
    step = points.step
    number: dict[int, int] = {}     # configuration -> discovery number
    low: list[int] = []             # the rest by discovery number
    closed: list[bool] = []
    finals: list[int] = []
    cyclic: list[bool] = []
    stack: list[int] = []           # Tarjan's stack of open nodes
    path: list[int] = []            # the DFS path of open nodes, and beside
    pending: list[int] = []         # each its unexplored second successor
    base = points.seed(0)           # seeds are consecutive: base + state
    for root in range(base, base + n):
        if root in number:
            continue
        node = root                 # seeds are never terminal
        while True:
            if node >= 0:           # an edge from path[-1] (or the root) to node
                w = number.get(node)
                if w is None:
                    w = len(low)
                    if w >= node_budget:
                        raise _over_budget(node_budget)
                    number[node] = w
                    low.append(w)
                    if node >= n:   # discover node: explore it next
                        closed.append(False)
                        finals.append(0)
                        cyclic.append(False)
                        stack.append(w)
                        path.append(w)
                        node, second = step(node)
                        pending.append(second)
                        continue
                    closed.append(True)
                    finals.append(1 << node)
                    cyclic.append(False)
                v = path[-1]
                if closed[w]:
                    reach = finals[w]
                    if reach and reach is not finals[v]:  # share, don't copy
                        finals[v] = finals[v] | reach if finals[v] else reach
                    if cyclic[w]:
                        cyclic[v] = True
                else:
                    if w < low[v]:
                        low[v] = w
                    cyclic[v] = True
            else:                   # path[-1] has no successor left: return
                w = path.pop()
                pending.pop()
                if low[w] == w:     # w roots a component: close it
                    reach, loops = finals[w], cyclic[w]
                    while True:
                        member = stack.pop()
                        closed[member] = True
                        finals[member] = reach
                        cyclic[member] = loops
                        if member == w:
                            break
                if not path:
                    break
                v = path[-1]        # merge w into its parent v
                reach = finals[w]
                if reach and reach is not finals[v]:
                    finals[v] = finals[v] | reach if finals[v] else reach
                if cyclic[w]:
                    cyclic[v] = True
                if low[w] < low[v]:
                    low[v] = low[w]
            node = pending[-1]      # v's second successor, or -1: return
            pending[-1] = -1
    rows, flags = [], []
    for node in range(base, base + n):
        w = number[node]
        rows.append(finals[w])
        flags.append(cyclic[w])
    return rows, _space.mask_of(flags)


def may_diverge(p: Program, space: StateSpace) -> Predicate:
    """States admitting an infinite execution: the seed reaches a lasso."""
    return Predicate(space, profile(p, space).may_div)


# --- cached per-program profile ---------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Everything the transformer oracles need, computed once per program."""

    space: StateSpace
    relation: Relation
    may_div: int
    must_div: int

    # derived from the relation on first read and kept as attributes, as
    # StateSpace keeps its columns: many profiles never need them
    _inverse = None
    _reach = None

    @property
    def inverse_relation(self) -> Relation:
        inverse = self._inverse
        if inverse is None:
            inverse = self.relation.converse()
            object.__setattr__(self, "_inverse", inverse)
        return inverse

    @property
    def reach(self) -> int:
        reach = self._reach
        if reach is None:
            reach = self.relation.codomain_bits()
            object.__setattr__(self, "_reach", reach)
        return reach


@lru_cache(maxsize=1 << 18)
def profile(p: Program, space: StateSpace) -> Profile:
    budget = DEFAULT_NODE_BUDGET
    if space.size > budget:
        # the seed configurations alone exceed the budget: fail before compiling
        raise _over_budget(budget)
    rows, may = _final_and_divergent(_Points(p, space), budget)
    must = _space.mask_of(list(map(not_, rows)))
    return Profile(space, Relation(space.size, tuple(rows)), may, must)
