"""Program and predicate corpora: exhaustive enumeration and seeded sampling.

Exhaustive mode enumerates every AST up to a depth bound over small canonical
expression and guard pools, in a fixed deterministic order, so searches find
minimal witnesses and re-runs are reproducible.  The enumeration is one
stream of rows of indices (`exhaustive_rows`): a program is known by its
position, and each part comes before the programs built from it, so a
consumer that reads only the parts' positions (the stream classifier) builds
no program, `exhaustive_programs` builds them all in order, and
`Enumeration` builds one from its index when its text is needed.  Random
mode is driven entirely by a seeded generator.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import partial
from itertools import repeat
from typing import Iterable, Iterator

from .space import Predicate, StateSpace
from .syntax import (
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
    Seq,
    Skip,
    Var,
    While,
)
from .values import Frozen, setfield


class GeneratorConfig(Frozen):
    # mode: "exhaustive" or "random"; count: random mode only
    __slots__ = ("variables", "modulus", "max_depth", "loops", "mode", "seed", "count")

    def __init__(self, variables: tuple[str, ...] = ("x",), modulus: int = 2,
                 max_depth: int = 3, loops: bool = False, mode: str = "exhaustive",
                 seed: int = 0, count: int = 1000):
        setfield(self, "variables", variables)
        setfield(self, "modulus", modulus)
        setfield(self, "max_depth", max_depth)
        setfield(self, "loops", loops)
        setfield(self, "mode", mode)
        setfield(self, "seed", seed)
        setfield(self, "count", count)

    def space(self) -> StateSpace:
        return StateSpace(self.variables, self.modulus)


def expr_pool(space: StateSpace) -> list[Expr]:
    """Constants 0..m-1 and variables."""
    atoms: list[Expr] = [Const(k) for k in range(space.modulus)]
    atoms += [Var(v) for v in space.variables]
    return atoms


def guard_pool(space: StateSpace) -> list[Guard]:
    """Equality tests of each variable against each constant, plus pairwise
    variable comparisons when there are several variables."""
    out: list[Guard] = []
    for v in space.variables:
        for k in range(space.modulus):
            out.append(Cmp("=", Var(v), Const(k)))
    for i, v in enumerate(space.variables):
        for w in space.variables[i + 1:]:
            out.append(Cmp("=", Var(v), Var(w)))
            out.append(Cmp("<", Var(v), Var(w)))
    return out


def exhaustive_rows(
    space: StateSpace,
    max_depth: int,
    loops: bool = False,
) -> Iterator:
    """Every AST of depth <= max_depth over the canonical pools, as rows of
    stream indices: smallest depth first, constructors in a fixed order
    within each depth.  The first rows are the leaves, each a program of its
    own; every later row is (constructor, guard, i, js), the programs built
    from entry i and each entry j of the range js, in order (the guard is
    None for `;` and `[]`; a loop row has one operand, i is None).  An entry
    is a program's index in the stream, so each part comes before every
    program built from it.  Rows are yielded as they are made, so a consumer
    that stops early does not pay for the rest of the depth."""
    exprs = expr_pool(space)
    yield Skip()
    yield Diverge()
    for v in space.variables:
        for e in exprs:
            yield Assign(v, e)
    size = 2 + len(space.variables) * len(exprs)
    guards = guard_pool(space)  # only once the leaves are read
    binary = [(Seq, None), (Choice, None)] + [(Ite, g) for g in guards]
    start = 0  # where the previous frontier begins
    for _ in range(2, max_depth + 1):
        end = size
        every, frontier = range(end), range(start, end)
        for ctor, guard in binary:
            # at least one operand comes from the previous frontier, so each
            # program is produced exactly once, at its true depth
            for i in range(end):
                js = every if i >= start else frontier
                yield ctor, guard, i, js
                size += len(js)
        if loops:
            for guard in guards:
                yield While, guard, None, frontier
                size += len(frontier)
        start = end


def exhaustive_programs(
    space: StateSpace,
    max_depth: int,
    loops: bool = False,
) -> Iterator[Program]:
    """The programs of `exhaustive_rows`, in its order, each part built once
    and shared.  Programs are yielded as they are built."""
    built: list[Program] = []
    for row in exhaustive_rows(space, max_depth, loops):
        if type(row) is not tuple:
            built.append(row)
            yield row
            continue
        ctor, guard, i, js = row
        build = ctor if guard is None else partial(ctor, guard)
        parts = built[js.start:js.stop]
        fresh = map(build, parts) if i is None else map(build, repeat(built[i]), parts)
        for p in fresh:
            built.append(p)
            yield p


class Enumeration:
    """A row stream (see `exhaustive_rows`) as it is read, so that an entry's
    program can be built from its index when its text is needed: the rows
    read so far and the index of each one's first entry are kept, and each
    program built, so parts are built once and shared."""

    def __init__(self, rows: Iterable):
        self._source = iter(rows)
        self._rows: list = []
        self._starts: list[int] = []
        self._built: dict[int, Program] = {}
        self._size = 0

    def __iter__(self) -> Iterator:
        for row in self._source:
            self._rows.append(row)
            self._starts.append(self._size)
            self._size += len(row[3]) if type(row) is tuple else 1
            yield row

    def program(self, k: int) -> Program:
        """The program of entry k, which must have been read."""
        p = self._built.get(k)
        if p is None:
            at = bisect_right(self._starts, k) - 1
            row = self._rows[at]
            if type(row) is not tuple:
                p = row
            else:
                ctor, guard, i, js = row
                last = self.program(js[k - self._starts[at]])
                parts = (last,) if i is None else (self.program(i), last)
                p = ctor(*parts) if guard is None else ctor(guard, *parts)
            self._built[k] = p
        return p


def random_expr(rng: random.Random, space: StateSpace, depth: int = 2) -> Expr:
    if depth <= 0 or rng.random() < 0.55:
        if rng.random() < 0.5:
            return Const(rng.randrange(space.modulus))
        return Var(rng.choice(space.variables))
    op = rng.choice("+-*")
    return BinExpr(op, random_expr(rng, space, depth - 1),
                   random_expr(rng, space, depth - 1))


def random_guard(rng: random.Random, space: StateSpace, depth: int = 2) -> Guard:
    if depth <= 0 or rng.random() < 0.6:
        op = rng.choice(("=", "!=", "<", "<="))
        return Cmp(op, random_expr(rng, space, 1), random_expr(rng, space, 1))
    roll = rng.random()
    if roll < 0.1:
        return BoolLit(rng.random() < 0.5)
    if roll < 0.4:
        return Not(random_guard(rng, space, depth - 1))
    ctor = And if roll < 0.7 else Or
    return ctor(random_guard(rng, space, depth - 1),
                random_guard(rng, space, depth - 1))


def random_program(
    rng: random.Random,
    space: StateSpace,
    depth: int,
    loops: bool = True,
) -> Program:
    if depth <= 1:
        roll = rng.random()
        if roll < 0.15:
            return Skip()
        if roll < 0.25:
            return Diverge()
        return Assign(rng.choice(space.variables), random_expr(rng, space))
    roll = rng.random()
    if roll < 0.12:
        return random_program(rng, space, 1, loops)
    if roll < 0.40:
        return Seq(random_program(rng, space, depth - 1, loops),
                   random_program(rng, space, depth - 1, loops))
    if roll < 0.62:
        return Choice(random_program(rng, space, depth - 1, loops),
                      random_program(rng, space, depth - 1, loops))
    if roll < 0.82 or not loops:
        return Ite(random_guard(rng, space),
                   random_program(rng, space, depth - 1, loops),
                   random_program(rng, space, depth - 1, loops))
    return While(random_guard(rng, space),
                 random_program(rng, space, depth - 1, loops))


def random_programs(config: GeneratorConfig) -> Iterator[Program]:
    rng = random.Random(config.seed)
    space = config.space()
    for _ in range(config.count):
        yield random_program(rng, space, config.max_depth, config.loops)


def generate_programs(config: GeneratorConfig) -> Iterator[Program]:
    """Stream programs per the config; exhaustive order is deterministic and
    random streams are reproducible from the seed."""
    if config.mode == "exhaustive":
        return exhaustive_programs(config.space(), config.max_depth, config.loops)
    if config.mode == "random":
        return random_programs(config)
    raise ValueError(f"unknown generator mode {config.mode!r}")


def all_predicates(space: StateSpace) -> Iterator[Predicate]:
    """Every subset of the state space, by enumeration index."""
    if space.size > 20:
        raise ValueError("predicate enumeration is limited to 2^20 subsets")
    for bits in range(1 << space.size):
        yield Predicate(space, bits)

