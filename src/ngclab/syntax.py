"""Abstract syntax for guarded-command programs, expressions, and guards.

All nodes are frozen dataclasses: structural equality and hashability are what
the enumeration, caching, and round-trip machinery rely on.  Arithmetic wraps
mod m, so evaluation is total on every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .space import Predicate, State, StateSpace


# --- expressions -----------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
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

class Guard:
    __slots__ = ()


@dataclass(frozen=True)
class BoolLit(Guard):
    value: bool


@dataclass(frozen=True)
class Cmp(Guard):
    op: str  # one of = != < <=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Guard):
    left: Guard
    right: Guard


@dataclass(frozen=True)
class Or(Guard):
    left: Guard
    right: Guard


@dataclass(frozen=True)
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

class Program:
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Program):
    pass


@dataclass(frozen=True)
class Diverge(Program):
    pass


@dataclass(frozen=True)
class Assign(Program):
    var: str
    expr: Expr


@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program


@dataclass(frozen=True)
class Choice(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class Ite(Program):
    guard: Guard
    then: Program
    orelse: Program


@dataclass(frozen=True)
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
