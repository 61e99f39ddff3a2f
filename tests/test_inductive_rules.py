"""The staged inductive engine against the AST-walking rules it replaced.

`inductive_transform` compiles each (program, space) once into closures that
apply the Dijkstra-style rules.  The reference below applies the
same rules straight to the AST, re-tabulating guards and assignments at every
step, as the engine used to; the two must agree on every input.
"""

import random

import pytest

from ngclab import semantics, transformers
from ngclab.errors import InvariantError
from ngclab.generators import all_predicates, exhaustive_programs, random_program
from ngclab.parser import parse_program
from ngclab.space import Predicate, StateSpace
from ngclab.syntax import (
    Assign, Choice, Diverge, Ite, Seq, Skip, While, assign_table, guard_to_predicate,
)
from ngclab.transformers import TransformerKind, inductive_transform

K = TransformerKind


# --- reference: structural recursion on the AST --------------------------------

def _fixpoint(step, start, size):
    value = start
    for _ in range(size + 2):
        nxt = step(value)
        if nxt == value:
            return value
        value = nxt
    raise InvariantError("fixpoint iteration failed to stabilize")


def _ref_backward(kind, p, c, space):
    full = space.full_mask
    if isinstance(p, Skip):
        return c
    if isinstance(p, Diverge):
        return full if kind.liberal else 0
    if isinstance(p, Assign):
        succ = tuple(assign_table(p.var, p.expr, space))
        bits = 0
        for i in range(space.size):
            if c >> succ[i] & 1:
                bits |= 1 << i
        return bits
    if isinstance(p, Seq):
        return _ref_backward(kind, p.first, _ref_backward(kind, p.second, c, space), space)
    if isinstance(p, Choice):
        a = _ref_backward(kind, p.left, c, space)
        b = _ref_backward(kind, p.right, c, space)
        return a | b if kind.angelic else a & b
    if isinstance(p, Ite):
        g = guard_to_predicate(p.guard, space).bits
        return (
            g & _ref_backward(kind, p.then, c, space)
            | ~g & full & _ref_backward(kind, p.orelse, c, space)
        )
    if isinstance(p, While):
        g = guard_to_predicate(p.guard, space).bits

        def step(x):
            return ~g & full & c | g & _ref_backward(kind, p.body, x, space)

        return _fixpoint(step, full if kind.liberal else 0, space.size)
    raise TypeError(f"not a program: {p!r}")


def _ref_forward(kind, p, b, space):
    # only ASP and DSLP have direct rules; DSP and ASLP are combinations
    full = space.full_mask
    angelic = kind is K.ASP
    if isinstance(p, Skip):
        return b
    if isinstance(p, Diverge):
        return 0 if angelic else full
    if isinstance(p, Assign):
        succ = tuple(assign_table(p.var, p.expr, space))
        hit = miss = 0
        for i in range(space.size):
            if b >> i & 1:
                hit |= 1 << succ[i]
            else:
                miss |= 1 << succ[i]
        return hit if angelic else ~miss & full
    if isinstance(p, Seq):
        return _ref_forward(kind, p.second, _ref_forward(kind, p.first, b, space), space)
    if isinstance(p, Choice):
        a = _ref_forward(kind, p.left, b, space)
        d = _ref_forward(kind, p.right, b, space)
        return a | d if angelic else a & d
    if isinstance(p, Ite):
        g = guard_to_predicate(p.guard, space).bits
        if angelic:
            return (_ref_forward(kind, p.then, g & b, space)
                    | _ref_forward(kind, p.orelse, ~g & full & b, space))
        return (_ref_forward(kind, p.then, ~g & full | b, space)
                & _ref_forward(kind, p.orelse, g | b, space))
    if isinstance(p, While):
        g = guard_to_predicate(p.guard, space).bits
        if angelic:
            def step(y):
                return b | _ref_forward(kind, p.body, g & y, space)

            return ~g & full & _fixpoint(step, 0, space.size)

        def step(y):
            return b & _ref_forward(kind, p.body, ~g & full | y, space)

        return g | _fixpoint(step, full, space.size)
    raise TypeError(f"not a program: {p!r}")


def reference_transform(kind, p, q):
    space = q.space
    if kind.backward:
        return Predicate(space, _ref_backward(kind, p, q.bits, space))
    if kind in (K.ASP, K.DSLP):
        return Predicate(space, _ref_forward(kind, p, q.bits, space))
    asp = _ref_forward(K.ASP, p, q.bits, space)
    dslp = _ref_forward(K.DSLP, p, q.bits, space)
    return Predicate(space, asp & dslp if kind is K.DSP else asp | dslp)


# --- corpora -------------------------------------------------------------------

X2 = StateSpace(("x",), 2)
XY3 = StateSpace(("x", "y"), 3)


def _loop_programs(count=200, seed=4711):
    rng = random.Random(seed)
    return [random_program(rng, XY3, 4, loops=True) for _ in range(count)]


def _loop_predicates(rng):
    """The empty and full predicates plus four seeded ones."""
    return [Predicate(XY3, 0), Predicate.universe(XY3)] + [
        Predicate(XY3, rng.randrange(1 << XY3.size)) for _ in range(4)]


def _assert_agrees(p, predicates):
    for q in predicates:
        for kind in K:
            assert inductive_transform(kind, p, q) == reference_transform(kind, p, q), (
                f"{kind.value} disagrees on {p!r} at {q!r}")


# --- tests ---------------------------------------------------------------------

def test_staged_rules_match_ast_rules_on_exhaustive_depth_two():
    predicates = list(all_predicates(X2))
    programs = list(exhaustive_programs(X2, max_depth=2))
    assert len(programs) > 100
    for p in programs:
        _assert_agrees(p, predicates)


def test_staged_rules_match_ast_rules_on_seeded_loop_programs():
    rng = random.Random(4712)
    programs = _loop_programs()
    assert sum("While(" in repr(p) for p in programs) > 50
    for p in programs:
        _assert_agrees(p, _loop_predicates(rng))


@pytest.mark.parametrize("text", [
    "skip",
    "diverge",
    "x := x + 1 ; skip ; { x := 0 } [] { diverge } ; skip",
    "{ x := 1 ; y := x } ; { y := y + 1 ; skip }",
    "if x = 0 { diverge } else { while y != 0 { y := y - 1 } }",
    "while x != 0 { { x := x - 1 } [] { y := y + 1 } [] { diverge } }",
])
def test_staged_rules_match_ast_rules_on_fixed_programs(text):
    # left-nested `;`, skips inside chains, nested loops and choices
    p = parse_program(text, XY3)
    _assert_agrees(p, list(all_predicates(XY3))[::7])


def test_staged_engine_never_reads_the_profile(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the inductive engine read semantics.profile")

    monkeypatch.setattr(semantics, "profile", forbidden)
    monkeypatch.setattr(transformers, "profile", forbidden)
    transformers._compile.cache_clear()
    rng = random.Random(4713)
    for p in list(exhaustive_programs(X2, max_depth=2))[::5]:
        _assert_agrees(p, list(all_predicates(X2)))
    for p in _loop_programs(count=40, seed=4714):
        _assert_agrees(p, _loop_predicates(rng))
    with pytest.raises(AssertionError, match="semantics.profile"):
        transformers.oracle_transform(K.AWP, Skip(), Predicate(X2, 1))


def test_program_is_compiled_once_per_program_and_space():
    transformers._compile.cache_clear()
    p = parse_program("x := x + 1 ; { skip } [] { x := x + 1 }", XY3)
    for q in list(all_predicates(XY3))[:5]:
        for kind in K:
            inductive_transform(kind, p, q)
    info = transformers._compile.cache_info()
    # p itself, `x := x + 1`, the choice and its `skip`: one miss each; the
    # choice's `x := x + 1` is the first one's closures, and every later call hits
    assert info.misses == 4
    assert info.hits == 1 + (5 * len(K) - 1)


# --- both sides of the assignment step's size switch -----------------------------

SWITCH = semantics._LOOPED


def _tables(n, rng):
    """Seeded successor tables over n states: random, constant, a rotation
    (a permutation) and one onto a few states."""
    few = [rng.randrange(n) for _ in range(3)]
    return ([rng.randrange(n) for _ in range(n)], [rng.randrange(n)] * n,
            [(i + 1) % n for i in range(n)], [rng.choice(few) for _ in range(n)])


@pytest.mark.parametrize("n", [SWITCH - 1, SWITCH, SWITCH + 1, 2 * SWITCH])
def test_linear_assignment_step_matches_the_pairs_loop(monkeypatch, n):
    """An assignment with a seeded successor table, compiled once with the
    pairs loop and once with the linear passes: every kind equals the
    preimage and image read off the table, for the four backward kinds, asp
    and dslp, and their dsp and aslp combinations."""
    space = StateSpace(("x",), n)
    full = space.full_mask
    p = parse_program("x := x + 1", space)
    rng = random.Random(9090 + n)
    try:
        for table in _tables(n, rng):
            monkeypatch.setattr(transformers._syntax, "assign_table",
                                lambda var, expr, space, table=table: iter(table))

            def pre(c):
                return sum(1 << i for i, j in enumerate(table) if c >> j & 1)

            def img(b):
                return sum(1 << j for j in {j for i, j in enumerate(table) if b >> i & 1})

            for looped in (n, n - 1):   # pairs loop, linear passes
                monkeypatch.setattr(transformers, "_LOOPED", looped)
                transformers._compile.cache_clear()
                for q in (0, full, rng.getrandbits(n), rng.getrandbits(n),
                          1 << rng.randrange(n)):
                    asp, dslp = img(q), full ^ img(full ^ q)
                    want = {K.AWP: pre(q), K.DWP: pre(q), K.AWLP: pre(q), K.DWLP: pre(q),
                            K.ASP: asp, K.DSLP: dslp, K.DSP: asp & dslp, K.ASLP: asp | dslp}
                    for kind in K:
                        got = inductive_transform(kind, p, Predicate(space, q)).bits
                        assert got == want[kind], (n, looped, kind.value)
    finally:
        # the closures compiled from the seeded tables must not outlive the test
        transformers._compile.cache_clear()
