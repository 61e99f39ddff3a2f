"""Abstract syntax for guarded-command programs, expressions, and guards.

All nodes are slotted frozen values (see values.py): structural equality and
hashability are what the enumeration, caching, and round-trip machinery rely
on.  A node's hash is that of its class and field tuple, so trees that differ
only in a node's class (`skip` and `diverge`, `;` and `[]`, `&&` and `||`) do
not collide; it is computed on the first `hash()` and kept, so a cache keyed
by a program hashes it once per process.  Two nodes are equal when they are
of the same class and their field tuples are equal.
Hashing, comparing, printing and reading a program recurse once per level of
nesting, except along a `;` chain: `Seq` hashes, compares, `repr`s and
pickles its spine in a loop, and `statements` lists a chain's statements, so
a chain of any length never exhausts the recursion limit.  Arithmetic wraps
mod m, so evaluation is total on every state.

`expr_column`, `guard_to_predicate` and `assign_table` give an expression's
or guard's meaning over the space's value columns, for every state at once;
the per-`State` definitions they are checked against are the test reference
(`tests/profile_reference.py`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, eq, le, lt, mul, ne, sub

from . import space as _space  # for mask_of; see relations.py
from .space import Predicate, StateSpace
from .values import Frozen, setfield


# --- nodes -----------------------------------------------------------------

class _Node(Frozen):
    """Base of every AST node: a frozen value (see values.py) whose hash is
    that of its class and field tuple, computed on the first `hash()` and
    kept in the slot `_h`, which each node's `__init__` sets to None."""

    __slots__ = ("_h",)
    _fields = ()

    def __hash__(self):
        h = self._h
        if h is None:
            # one Python frame per nesting level
            h = hash((type(self), self._values(self)))
            setfield(self, "_h", h)
        return h


# --- expressions -----------------------------------------------------------

class Expr(_Node):
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value)
        setfield(self, "_h", None)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)
        setfield(self, "_h", None)


class BinExpr(Expr):
    __slots__ = ("op", "left", "right")   # op: one of + - *

    def __init__(self, op: str, left: Expr, right: Expr):
        setfield(self, "op", op)
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "_h", None)


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


class BoolLit(Guard):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        setfield(self, "value", value)
        setfield(self, "_h", None)


class Cmp(Guard):
    __slots__ = ("op", "left", "right")   # op: one of = != < <=

    def __init__(self, op: str, left: Expr, right: Expr):
        setfield(self, "op", op)
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "_h", None)


class And(Guard):
    __slots__ = ("left", "right")

    def __init__(self, left: Guard, right: Guard):
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "_h", None)


class Or(Guard):
    __slots__ = ("left", "right")

    def __init__(self, left: Guard, right: Guard):
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "_h", None)


class Not(Guard):
    __slots__ = ("inner",)

    def __init__(self, inner: Guard):
        setfield(self, "inner", inner)
        setfield(self, "_h", None)


TRUE = BoolLit(True)


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


class Skip(Program):
    __slots__ = ()

    def __init__(self):
        setfield(self, "_h", None)


class Diverge(Program):
    __slots__ = ()

    def __init__(self):
        setfield(self, "_h", None)


class Assign(Program):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        setfield(self, "var", var)
        setfield(self, "expr", expr)
        setfield(self, "_h", None)


class Seq(Program):
    """`first ; second`.  A chain of statements is a spine of links along
    `second`, as long as the program; hash and equality walk it in a loop,
    so a chain of any length never exhausts the recursion limit."""

    __slots__ = ("first", "second")

    def __init__(self, first: Program, second: Program):
        setfield(self, "first", first)
        setfield(self, "second", second)
        setfield(self, "_h", None)

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
                    setfield(link, "_h", hash((Seq, (link.first, link.second))))
            h = hash((Seq, (self.first, self.second)))
            setfield(self, "_h", h)
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


class Choice(Program):
    __slots__ = ("left", "right")

    def __init__(self, left: Program, right: Program):
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "_h", None)


class Ite(Program):
    __slots__ = ("guard", "then", "orelse")

    def __init__(self, guard: Guard, then: Program, orelse: Program):
        setfield(self, "guard", guard)
        setfield(self, "then", then)
        setfield(self, "orelse", orelse)
        setfield(self, "_h", None)


class While(Program):
    __slots__ = ("guard", "body")

    def __init__(self, guard: Guard, body: Program):
        setfield(self, "guard", guard)
        setfield(self, "body", body)
        setfield(self, "_h", None)


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
