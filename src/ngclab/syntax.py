"""Abstract syntax for guarded-command programs, expressions, and guards.

All nodes are frozen dataclasses: structural equality and hashability are what
the enumeration, caching, and round-trip machinery rely on.  A node's hash is
that of its class and field tuple, so trees that differ only in a node's class
(`skip` and `diverge`, `;` and `[]`, `&&` and `||`) do not collide; it is
computed on the first `hash()` and kept, so a cache keyed by a program hashes
it once per process.  Equality is the generated field-by-field comparison.
Hashing, comparing, printing and reading a program recurse once per level of
nesting, except along a `;` chain: `Seq` hashes, compares, `repr`s and
pickles its spine in a loop, and `statements` lists a chain's statements, so
a chain of any length never exhausts the recursion limit.  Arithmetic wraps
mod m, so evaluation is total on every state.

`eval_expr` and `eval_guard` define meaning one `State` at a time and stay
the reference; `expr_column`, `guard_to_predicate` and `assign_table` compute
over the space's value columns what they give for every state at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from operator import add, attrgetter, eq, le, lt, mul, ne, sub

from . import space as _space  # for mask_of; see relations.py
from .space import Predicate, State, StateSpace


# --- nodes -----------------------------------------------------------------

class _Node:
    """Base of every AST node.  The hash is kept in the instance attribute
    `_h`, which shadows the class-level None once set; it is read as an
    attribute, never through `__dict__`, which CPython would then have to
    build as a real dict for every node."""

    __slots__ = ()
    _h = None
    _fields_of = None   # per node class: node -> its field tuple

    def __hash__(self):
        h = self._h
        if h is None:
            # one Python frame per nesting level, as the generated hash
            h = hash((type(self), self._fields_of(self)))
            object.__setattr__(self, "_h", h)
        return h

    def __reduce__(self):
        # string hashes differ between processes: never pickle a kept hash
        return type(self), self._fields_of(self)


def _node(cls):
    """A frozen dataclass node whose hash is computed once (see _Node)."""
    own_hash = vars(cls).get("__hash__") or _Node.__hash__
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    if len(names) > 1:
        fields_of = attrgetter(*names)   # a tuple already
    else:
        def fields_of(node):
            return tuple(getattr(node, name) for name in names)
    cls._fields_of = staticmethod(fields_of)
    cls.__hash__ = own_hash   # over the one dataclass generated
    return cls


# --- expressions -----------------------------------------------------------

class Expr(_Node):
    __slots__ = ()


@_node
class Const(Expr):
    value: int


@_node
class Var(Expr):
    name: str


@_node
class BinExpr(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr


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


_BINOPS = {"+": add, "-": sub, "*": mul}


def expr_column(expr: Expr, space: StateSpace):
    """The expression's value at every state index: an int if it reads no
    variable, else a list over the enumeration (a variable's is the space's
    own column; never mutate it)."""
    if isinstance(expr, Const):
        return expr.value % space.modulus
    if isinstance(expr, Var):
        return space.columns[space.var_index(expr.name)][1]
    if isinstance(expr, BinExpr):
        op = _BINOPS[expr.op]
        a = expr_column(expr.left, space)
        b = expr_column(expr.right, space)
        m = space.modulus
        if type(a) is int and type(b) is int:
            return op(a, b) % m
        return list(map(m.__rmod__, map(op, _spread(a), _spread(b))))
    raise TypeError(f"not an expression: {expr!r}")


def _spread(value):
    """A column as is, a constant as an endless column."""
    return repeat(value) if type(value) is int else value


def assign_table(var: str, expr: Expr, space: StateSpace):
    """`var := expr`'s successor of every state index, as an iterator.  An
    assignment is a total function on states, and only var's digit changes:
    succ(i) = i + (e(i) - var(i)) * stride_var."""
    stride, column = space.columns[space.var_index(var)]
    delta = map(sub, _spread(expr_column(expr, space)), column)
    return map(add, range(space.size), map(stride.__mul__, delta))


# --- guards ----------------------------------------------------------------

class Guard(_Node):
    __slots__ = ()


@_node
class BoolLit(Guard):
    value: bool


@_node
class Cmp(Guard):
    op: str  # one of = != < <=
    left: Expr
    right: Expr


@_node
class And(Guard):
    left: Guard
    right: Guard


@_node
class Or(Guard):
    left: Guard
    right: Guard


@_node
class Not(Guard):
    inner: Guard


TRUE = BoolLit(True)


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


_CMPS = {"=": eq, "!=": ne, "<": lt, "<=": le}


@lru_cache(maxsize=65536)
def guard_to_predicate(guard: Guard, space: StateSpace) -> Predicate:
    """The set of states satisfying the guard, from its compiled mask."""
    return Predicate(space, _guard_mask(guard, space))


def _guard_mask(guard: Guard, space: StateSpace) -> int:
    if isinstance(guard, BoolLit):
        return space.full_mask if guard.value else 0
    if isinstance(guard, Cmp):
        op = _CMPS[guard.op]
        a = expr_column(guard.left, space)
        b = expr_column(guard.right, space)
        if type(a) is int and type(b) is int:
            return space.full_mask if op(a, b) else 0
        return _space.mask_of(bytes(map(op, _spread(a), _spread(b))))
    if isinstance(guard, And):
        return _guard_mask(guard.left, space) & _guard_mask(guard.right, space)
    if isinstance(guard, Or):
        return _guard_mask(guard.left, space) | _guard_mask(guard.right, space)
    if isinstance(guard, Not):
        return _guard_mask(guard.inner, space) ^ space.full_mask
    raise TypeError(f"not a guard: {guard!r}")


# --- programs --------------------------------------------------------------

class Program(_Node):
    __slots__ = ()


@_node
class Skip(Program):
    pass


@_node
class Diverge(Program):
    pass


@_node
class Assign(Program):
    var: str
    expr: Expr


@_node
class Seq(Program):
    """`first ; second`.  A chain of statements is a spine of links along
    `second`, as long as the program; hash and equality walk it in a loop,
    so a chain of any length never exhausts the recursion limit."""

    first: Program
    second: Program

    def __hash__(self):
        h = self._h
        if h is None:
            p = self.second
            if type(p) is Seq and p._h is None:   # else no list: the common case
                # the links below, down to the first one already hashed,
                # hashed back up, so no hash recurses along the chain
                spine = []
                while type(p) is Seq and p._h is None:
                    spine.append(p)
                    p = p.second
                for link in reversed(spine):
                    object.__setattr__(link, "_h", hash((Seq, (link.first, link.second))))
            h = hash((Seq, (self.first, self.second)))
            object.__setattr__(self, "_h", h)
        return h

    def __eq__(self, other):
        if type(other) is not Seq:
            return NotImplemented
        a, b = self, other
        while type(a) is Seq and type(b) is Seq:
            if a is b:
                return True
            if a.first is not b.first and a.first != b.first:
                return False
            a, b = a.second, b.second
        return a == b

    def __repr__(self):
        # the generated text, built along the spine in a loop
        firsts, last = _spine(self)
        heads = "".join(f"Seq(first={first!r}, second=" for first in firsts)
        return f"{heads}{last!r}{')' * len(firsts)}"

    def __reduce__(self):
        # the spine as a list, rebuilt in a loop: pickle recurses per field
        return _right_chain, _spine(self)


def _spine(p: Program) -> tuple:
    """The `first`s down the right spine of p's links, and the last `second`."""
    firsts = []
    while type(p) is Seq:
        firsts.append(p.first)
        p = p.second
    return firsts, p


def _right_chain(firsts: list, last: Program) -> Program:
    for first in reversed(firsts):
        last = Seq(first, last)
    return last


def statements(p: Program) -> list:
    """The statements of a `;` chain in execution order, however its links
    nest; a program that is not a `Seq` is a chain of one."""
    parts, rest = [], []   # rest: the `second`s still to list, the next on top
    while True:
        while type(p) is Seq:
            rest.append(p.second)
            p = p.first
        parts.append(p)
        if not rest:
            return parts
        p = rest.pop()


@_node
class Choice(Program):
    left: Program
    right: Program


@_node
class Ite(Program):
    guard: Guard
    then: Program
    orelse: Program


@_node
class While(Program):
    guard: Guard
    body: Program


# --- pretty printing -------------------------------------------------------

_EXPR_PREC ={"+": 1, "-": 1, "*": 2}


def pretty_expr(e: Expr, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinExpr):
        prec = _EXPR_PREC[e.op]
        text = (
            f"{pretty_expr(e.left, prec, False)} {e.op} "
            f"{pretty_expr(e.right, prec, True)}"
        )
        # left-associative: a right child at equal precedence needs parens
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"not an expression: {e!r}")


def pretty_guard(g: Guard, parent_prec: int = 0) -> str:
    # precedence: atoms > ! > && > ||
    if isinstance(g, BoolLit):
        return "true" if g.value else "false"
    if isinstance(g, Cmp):
        return f"{pretty_expr(g.left)} {g.op} {pretty_expr(g.right)}"
    if isinstance(g, Not):
        if isinstance(g.inner, (BoolLit, Not)):
            return f"!{pretty_guard(g.inner, 3)}"
        return f"!({pretty_guard(g.inner)})"
    if isinstance(g, And):
        # the parser folds && and || to the left
        text = f"{pretty_guard(g.left, 2)} && {pretty_guard(g.right, 3)}"
        return f"({text})" if parent_prec > 2 else text
    if isinstance(g, Or):
        text = f"{pretty_guard(g.left, 1)} || {pretty_guard(g.right, 2)}"
        return f"({text})" if parent_prec > 1 else text
    raise TypeError(f"not a guard: {g!r}")


def pretty_program(p: Program) -> str:
    """Canonical single-line rendering; reparsing yields a structurally equal AST."""
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Diverge):
        return "diverge"
    if isinstance(p, Assign):
        return f"{p.var} := {pretty_expr(p.expr)}"
    if isinstance(p, Seq):
        # along the right spine, so a chain of any length prints; the parser
        # folds `;` to the right, so a left-nested Seq needs braces
        firsts, last = _spine(p)
        return " ; ".join([*("{ " + pretty_program(q) + " }" if type(q) is Seq
                             else pretty_program(q) for q in firsts), pretty_program(last)])
    if isinstance(p, Choice):
        return "{ " + pretty_program(p.left) + " } [] { " + pretty_program(p.right) + " }"
    if isinstance(p, Ite):
        return (
            f"if {pretty_guard(p.guard)} {{ {pretty_program(p.then)} }}"
            f" else {{ {pretty_program(p.orelse)} }}"
        )
    if isinstance(p, While):
        return f"while {pretty_guard(p.guard)} {{ {pretty_program(p.body)} }}"
    raise TypeError(f"not a program: {p!r}")
