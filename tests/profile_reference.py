"""The operational reference for `semantics.profile`: one Tarjan pass over
the configuration graph of a program compiled to points.

`profile` composes each program's relation and may-divergence from its
sub-programs'; this is the whole-program pass it replaced, kept as the route
it is checked against.  It reads the program only through `_Points`, the
small-step semantics: the graph's nodes are the configurations
`point * n + state` reachable from the seeds, and `_Points.step` gives each
node's successors.  On a finite, finitely branching graph an infinite
execution exists from a configuration iff that configuration can reach a
node lying on a cycle (a lasso).
"""

from ngclab.errors import BudgetExceededError
from ngclab.semantics import DEFAULT_NODE_BUDGET, _Points
from ngclab.space import StateSpace, mask_of


def reference_profile(p, space: StateSpace) -> tuple[tuple[int, ...], int, int]:
    """(rows, may_div, must_div) of p over the space, off the graph."""
    rows, may = final_and_divergent(_Points(p, space), DEFAULT_NODE_BUDGET)
    return tuple(rows), may, mask_of([not row for row in rows])


def final_and_divergent(points: _Points, node_budget: int) -> tuple[list[int], int]:
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
