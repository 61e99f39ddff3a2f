"""Program and predicate corpora: exhaustive enumeration and seeded sampling.

Exhaustive mode enumerates every AST up to a depth bound over small canonical
expression and guard pools, in a fixed deterministic order, so searches find
minimal witnesses and re-runs are reproducible.  Random mode is driven
entirely by a seeded generator.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Iterator

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


def exhaustive_programs(
    space: StateSpace,
    max_depth: int,
    loops: bool = False,
) -> Iterator[Program]:
    """Every AST of depth <= max_depth over the canonical pools, smallest
    depth first, constructors in a fixed order within each depth.  Programs
    are yielded as they are built, so a consumer that stops early does not
    pay for the rest of the depth."""
    exprs = expr_pool(space)
    guards = guard_pool(space)
    leaves: list[Program] = [Skip(), Diverge()]
    leaves += [Assign(v, e) for v in space.variables for e in exprs]
    yield from leaves
    binary = [Seq, Choice] + [partial(Ite, g) for g in guards]
    cumulative: list[Program] = list(leaves)
    start = 0  # where the previous frontier begins in `cumulative`
    for _ in range(2, max_depth + 1):
        frontier = cumulative[start:]
        fresh: list[Program] = []
        for build in binary:
            # at least one operand comes from the previous frontier, so each
            # program is produced exactly once, at its true depth
            for i, a in enumerate(cumulative):
                for b in cumulative if i >= start else frontier:
                    fresh.append(build(a, b))
                    yield fresh[-1]
        if loops:
            for g in guards:
                for a in frontier:
                    fresh.append(While(g, a))
                    yield fresh[-1]
        start = len(cumulative)
        cumulative += fresh


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

