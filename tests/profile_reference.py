"""The operational reference for `semantics.profile`: one Tarjan pass over
the configuration graph of a program compiled to points.

`profile` composes each program's relation and may-divergence from its
sub-programs'; this is the whole-program pass it replaced, kept as the route
it is checked against.  It reads the program only through `Points`, the
small-step semantics: a flat compilation of the program over a state space
that shares only the syntax's guard masks, assignment tables and `;` walker
with the composer.  The graph's nodes are the configurations
`point * n + state` reachable from the seeds, and `Points.step` gives each
node's successors.  On a finite, finitely branching graph an infinite
execution exists from a configuration iff that configuration can reach a
node lying on a cycle (a lasso).

`stream_keys` restates, entry by entry, the key by which
`semantics.classify` classifies a row stream, and `count_compositions`
counts the classifier's compositions where they happen.

`eval_expr` and `eval_guard` define an expression's and a guard's meaning
one `State` at a time.  They are the reference for what `syntax` computes
over a space's value columns, and so for the guard masks and assignment
tables that `Points` shares with the composer (`tests/test_compiled.py`).
"""

from ngclab import semantics
from ngclab.errors import BudgetExceededError
from ngclab.semantics import DEFAULT_NODE_BUDGET, profile
from ngclab.space import State, StateSpace, flag_string, mask_of
from ngclab.syntax import (
    And,
    Assign,
    BinExpr,
    BoolLit,
    Choice,
    Cmp,
    Const,
    Diverge,
    Expr,
    Guard,
    Ite,
    Not,
    Or,
    Program,
    Skip,
    Var,
    While,
    assign_table,
    guard_to_predicate,
    statements,
)


def eval_expr(expr: Expr, state: State) -> int:
    m = state.space.modulus
    if isinstance(expr, Const):
        return expr.value % m
    if isinstance(expr, Var):
        return state[expr.name]
    if isinstance(expr, BinExpr):
        a = eval_expr(expr.left, state)
        b = eval_expr(expr.right, state)
        if expr.op == "+":
            return (a + b) % m
        if expr.op == "-":
            return (a - b) % m
        if expr.op == "*":
            return (a * b) % m
    raise TypeError(f"not an expression: {expr!r}")


def eval_guard(guard: Guard, state: State) -> bool:
    if isinstance(guard, BoolLit):
        return guard.value
    if isinstance(guard, Cmp):
        a = eval_expr(guard.left, state)
        b = eval_expr(guard.right, state)
        if guard.op == "=":
            return a == b
        if guard.op == "!=":
            return a != b
        if guard.op == "<":
            return a < b
        if guard.op == "<=":
            return a <= b
    if isinstance(guard, And):
        return eval_guard(guard.left, state) and eval_guard(guard.right, state)
    if isinstance(guard, Or):
        return eval_guard(guard.left, state) or eval_guard(guard.right, state)
    if isinstance(guard, Not):
        return not eval_guard(guard.inner, state)
    raise TypeError(f"not a guard: {guard!r}")


# A program compiles, once per state space, to a flat list of program points;
# point 0 is the terminal point.  A configuration is the int `point * n +
# state`, so configurations below n are the finished ones.  A point is
# (kind, first, second, data) with successor points pre-multiplied by n:

_GOTO = 0     # skip (to its continuation) and diverge (to itself)
_ASSIGN = 1   # to the continuation, through the successor table in data
_CHOICE = 2   # to either of two points
_BRANCH = 3   # if and while: to first where the guard flag in data is "1",
              # else to second; a while point is its body's continuation


class Points:
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
        for q in reversed(statements(p)):
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
        return self._add(_ASSIGN, cont, 0, tuple(assign_table(p.var, p.expr, self.space)))

    def _choice(self, p: Choice, cont: int) -> int:
        return self._add(_CHOICE, self._chain(p.left, cont), self._chain(p.right, cont))

    def _flags(self, guard) -> str:
        return flag_string(guard_to_predicate(guard, self.space).bits, self.n)

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


_COMPILE = {Skip: Points._skip, Diverge: Points._diverge, Assign: Points._assign,
            Choice: Points._choice, Ite: Points._ite, While: Points._while}




def reference_profile(p, space: StateSpace) -> tuple[tuple[int, ...], int, int]:
    """(rows, may_div, must_div) of p over the space, off the graph."""
    rows, may = final_and_divergent(Points(p, space), DEFAULT_NODE_BUDGET)
    return tuple(rows), may, mask_of([not row for row in rows])


def final_and_divergent(points: Points, node_budget: int) -> tuple[list[int], int]:
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
    and an iterator over it.  More than `node_budget` configurations raise
    BudgetExceededError: the pass numbers each reachable configuration once."""
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
                        raise BudgetExceededError(
                            f"configuration graph exceeded {node_budget} nodes")
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
    return rows, mask_of(flags)


def stream_keys(rows, space: StateSpace) -> list:
    """The key of each entry of a row stream (see
    `generators.exhaustive_rows`): a leaf's program, which no other entry
    shares, or a composite's constructor, guard and parts' profiles, each
    part's read off its program through `profile`."""
    programs, keys = [], []
    for row in rows:
        if type(row) is not tuple:
            programs.append(row)
            keys.append(row)
            continue
        ctor, guard, i, js = row
        for j in js:
            parts = [programs[j]] if i is None else [programs[i], programs[j]]
            keys.append((ctor, guard, *(profile(part, space) for part in parts)))
            programs.append(ctor(*parts) if guard is None else ctor(guard, *parts))
    return keys


def count_compositions(monkeypatch, composed: list, drawn: list) -> None:
    """Each call of one of the composer's combine functions adds to
    `composed` the index of the entry it composes: the number already in
    `drawn`."""
    for name in ("_then", "_choice_of", "_ite_of", "_while_of"):
        def counting(*args, real=getattr(semantics, name)):
            composed.append(len(drawn))
            return real(*args)

        monkeypatch.setattr(semantics, name, counting)
