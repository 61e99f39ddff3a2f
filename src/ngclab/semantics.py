"""Program meaning three ways: collecting semantics, a small-step
configuration graph (the only place divergence is observable), and the
relational denotation derived from the collecting semantics.

The graph runs over integer configurations `point * n + state`, where the
points are a flat compilation of the program.  On a finite, finitely
branching graph an infinite execution exists from a configuration iff that
configuration can reach a node lying on a cycle (a lasso).  `profile` reads
both the relation and may-divergence off one strongly-connected-component
pass over that graph; `collecting` and `denote_relation` stay AST walks, an
independent route the tests compare it against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from . import space as _space  # for iter_bits; see relations.py
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

    def _add(self, kind, first: int, second: int = 0, data=None, point=None) -> int:
        if point is None:
            point = len(self.points)
            self.points.append(None)
        self.points[point] = (kind, first * self.n, second * self.n, data)
        return point

    def _chain(self, p: Program, cont: int) -> int:
        """Entry point of p followed by point `cont`: iterates along `;`."""
        chain, todo = [], [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Seq):
                todo += (q.second, q.first)
            else:
                chain.append(q)
        for q in reversed(chain):
            cont = self._single(q, cont)
        return cont

    def _single(self, p: Program, cont: int) -> int:
        if isinstance(p, Skip):
            return self._add(_GOTO, cont)
        if isinstance(p, Diverge):   # a self-loop: the point about to be added
            return self._add(_GOTO, len(self.points))
        if isinstance(p, Assign):
            return self._add(_ASSIGN, cont, 0, _assign_successors(p.var, p.expr, self.space))
        if isinstance(p, Choice):
            return self._add(_CHOICE, self._chain(p.left, cont), self._chain(p.right, cont))
        if isinstance(p, (Ite, While)):
            bits = guard_to_predicate(p.guard, self.space).bits
            flags = format(bits, "b").zfill(self.n)[::-1]
            if isinstance(p, Ite):
                return self._add(_BRANCH, self._chain(p.then, cont),
                                 self._chain(p.orelse, cont), flags)
            point = len(self.points)
            self.points.append(None)
            return self._add(_BRANCH, self._chain(p.body, point), cont, flags, point)
        raise TypeError(f"not a program: {p!r}")

    def successors(self, node: int) -> tuple[int, ...]:
        point, state = divmod(node, self.n)
        if not point:
            return ()
        kind, first, second, data = self.points[point]
        if kind == _GOTO:
            return (first + state,)
        if kind == _ASSIGN:
            return (first + data[state],)
        if kind == _CHOICE:
            return (first + state, second + state)
        return ((first if data[state] == "1" else second) + state,)

    def seed(self, state: int) -> int:
        return self.entry * self.n + state


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
        succs = points.successors(node)
        if not succs:
            continue
        edges[node] = succs
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return TransitionGraph(seeds.space, nodes, edges, seed_map)


def _final_and_divergent(points: _Points, node_budget: int) -> tuple[list[int], int]:
    """Per state: the final states its seed reaches, and (as a bitmask over
    states) whether the seed can reach a cycle.  One iterative Tarjan pass
    over the configurations reachable from the seeds; strongly connected
    components close sinks first, so each one combines its successors'
    already-final answers."""
    n = points.n
    successors = points.successors
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    edges: dict[int, tuple[int, ...]] = {}
    component: dict[int, int] = {}
    finals: list[int] = []      # by component: reachable terminal states
    cyclic: list[bool] = []     # by component: reaches a cycle
    stack: list[int] = []
    work: list[tuple[int, int]] = []

    def enter(node: int) -> None:
        if len(index) >= node_budget:
            raise _over_budget(node_budget)
        index[node] = low[node] = len(index)
        stack.append(node)
        edges[node] = successors(node)
        work.append((node, 0))

    for root in map(points.seed, range(n)):
        if root in index:
            continue
        enter(root)
        while work:
            node, child = work[-1]
            succs = edges[node]
            if child < len(succs):
                work[-1] = (node, child + 1)
                nxt = succs[child]
                if nxt not in index:
                    enter(nxt)
                elif nxt not in component and index[nxt] < low[node]:
                    low[node] = index[nxt]
                continue
            work.pop()
            if work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]
            if low[node] != index[node]:
                continue
            comp = len(finals)
            members = []
            while True:
                member = stack.pop()
                component[member] = comp
                members.append(member)
                if member == node:
                    break
            reach = 1 << node if node < n else 0    # a terminal configuration
            loops = False   # set by any edge inside the component
            for member in members:
                for nxt in edges[member]:
                    other = component[nxt]
                    if other == comp:
                        loops = True
                    else:   # the first contribution is shared, not copied
                        reach = reach | finals[other] if reach else finals[other]
                        loops = loops or cyclic[other]
            finals.append(reach)
            cyclic.append(loops)
    rows, may = [], 0
    for state in range(n):
        comp = component[points.seed(state)]
        rows.append(finals[comp])
        if cyclic[comp]:
            may |= 1 << state
    return rows, may


def may_diverge(p: Program, space: StateSpace) -> Predicate:
    """States admitting an infinite execution: the seed reaches a lasso."""
    return Predicate(space, profile(p, space).may_div)


# --- cached per-program profile ---------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Everything the transformer oracles need, computed once per program."""

    space: StateSpace
    relation: Relation
    inverse_relation: Relation
    may_div: int
    must_div: int

    @property
    def reach(self) -> int:
        return self.relation.codomain_bits()


@lru_cache(maxsize=1 << 18)
def profile(p: Program, space: StateSpace) -> Profile:
    budget = DEFAULT_NODE_BUDGET
    if space.size > budget:
        # the seed configurations alone exceed the budget: fail before compiling
        raise _over_budget(budget)
    rows, may = _final_and_divergent(_Points(p, space), budget)
    rel = Relation(space.size, tuple(rows))
    must = 0
    for i, row in enumerate(rows):
        if row == 0:
            must |= 1 << i
    return Profile(space, rel, rel.converse(), may, must)
