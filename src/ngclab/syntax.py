"""Abstract syntax for guarded-command programs, expressions, and guards.

All nodes are frozen dataclasses: structural equality and hashability are what
the enumeration, caching, and round-trip machinery rely on.  A node's hash is
that of its class and field tuple, so trees that differ only in a node's class
(`skip` and `diverge`, `;` and `[]`, `&&` and `||`) do not collide; it is
computed on the first `hash()` and kept, so a cache keyed by a program hashes
it once per process.  Arithmetic wraps mod m, so evaluation is total on every
state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

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
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    if len(names) > 1:
        fields_of = attrgetter(*names)   # a tuple already
    else:
        def fields_of(node):
            return tuple(getattr(node, name) for name in names)
    cls._fields_of = staticmethod(fields_of)
    cls.__hash__ = _Node.__hash__   # over the one dataclass generated
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
FALSE = BoolLit(False)


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


@lru_cache(maxsize=65536)
def guard_to_predicate(guard: Guard, space: StateSpace) -> Predicate:
    """The set of states satisfying the guard, by evaluating over all of them."""
    bits = 0
    for i in range(space.size):
        if eval_guard(guard, space.state(i)):
            bits |= 1 << i
    return Predicate(space, bits)


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
    first: Program
    second: Program


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


def program_depth(p: Program) -> int:
    if isinstance(p, (Skip, Diverge, Assign)):
        return 1
    if isinstance(p, (Seq, Choice)):
        a = p.first if isinstance(p, Seq) else p.left
        b = p.second if isinstance(p, Seq) else p.right
        return 1 + max(program_depth(a), program_depth(b))
    if isinstance(p, Ite):
        return 1 + max(program_depth(p.then), program_depth(p.orelse))
    if isinstance(p, While):
        return 1 + program_depth(p.body)
    raise TypeError(f"not a program: {p!r}")


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
        # the parser folds `;` to the right, so a left-nested Seq needs braces
        left = pretty_program(p.first)
        if isinstance(p.first, Seq):
            left = "{ " + left + " }"
        return f"{left} ; {pretty_program(p.second)}"
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
