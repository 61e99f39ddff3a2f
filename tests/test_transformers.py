"""Transformer semantics: quantifier oracles vs inductive rules, the
ordering / contrapositive / combination laws, and the behavioral classes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ngclab import (
    Predicate,
    StateSpace,
    TransformerKind,
    coreachability_class,
    inductive_transform,
    oracle_transform,
    parse_program,
    reachability_class,
)
from ngclab import semantics
from ngclab.generators import all_predicates, random_program
from ngclab.parser import parse_guard
from ngclab.relations import Relation
from ngclab.semantics import Profile, profile, rows_table
from ngclab.syntax import guard_to_predicate
from ngclab.transformers import COREACH_INCLUSION, REACH_INCLUSION

from oracle_reference import converse, oracle_bits

K = TransformerKind
SPACE = StateSpace(("x",), 3)
SIGMA = Predicate.universe(SPACE)


def prog(text, space=SPACE):
    return parse_program(text, space)


def pred(indices, space=SPACE):
    return Predicate.from_indices(space, indices)


def test_kind_attributes_determine_the_kind():
    # direction x resolution x liberality is a bijection onto the eight kinds
    seen = {(k.backward, k.angelic, k.liberal) for k in K}
    assert len(seen) == 8


class TestOracleExamples:
    def test_awp_of_skip_is_postcondition(self):
        c = pred([0, 2])
        assert oracle_transform(K.AWP, prog("skip"), c) == c

    def test_asp_of_diverge_is_empty(self):
        assert oracle_transform(K.ASP, prog("diverge"), pred([0])).is_empty

    def test_binary_choice_backward(self):
        # both branches are enabled from every state
        p = prog("{ x := 0 } [] { x := 1 }")
        c = pred([0])
        assert oracle_transform(K.DWP, p, c).is_empty
        assert oracle_transform(K.AWP, p, c) == SIGMA

    def test_binary_choice_forward(self):
        # brute-forced over the three preimages: x=2 is unreachable
        p = prog("{ x := 0 } [] { x := 1 }")
        b = pred([0])
        assert oracle_transform(K.DSLP, p, b) == pred([2])
        assert oracle_transform(K.DSP, p, b).is_empty
        assert oracle_transform(K.ASLP, p, b) == SIGMA
        assert oracle_transform(K.ASP, p, b) == pred([0, 1])

    def test_strictness_and_costrictness(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_program(rng, SPACE, 3, loops=True)
            assert oracle_transform(K.AWP, p, Predicate.empty(SPACE)).is_empty
            assert oracle_transform(K.DWLP, p, SIGMA) == SIGMA


class TestInductiveExamples:
    def test_dwlp_of_diverge_is_everything(self):
        assert inductive_transform(K.DWLP, prog("diverge"), pred([1])) == SIGMA

    def test_backward_assignment_is_an_image_test(self):
        got = inductive_transform(K.AWP, prog("x := x + 1"), pred([0]))
        assert got == pred([2])  # the state mapped into x=0 under +1 mod 3

    def test_terminating_countdown_dwp(self):
        # the loop reaches x=0 from all four states; the least fixpoint
        # stabilizes within four rounds
        space = StateSpace(("x",), 4)
        p = prog("while x != 0 { x := x - 1 }", space)
        c = Predicate.from_indices(space, [0])
        assert inductive_transform(K.DWP, p, c) == Predicate.universe(space)


def _agree_everywhere(p, space):
    for q in all_predicates(space):
        for kind in K:
            assert inductive_transform(kind, p, q) == oracle_transform(kind, p, q), (
                f"{kind} disagrees on {p} at {q}"
            )


class TestDifferential:
    def test_loop_free_exhaustive_small(self):
        from ngclab.generators import exhaustive_programs

        space = StateSpace(("x",), 2)
        for p in exhaustive_programs(space, max_depth=2):
            _agree_everywhere(p, space)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_programs_with_loops(self, seed):
        """inductive_transform equals oracle_transform, all kinds, all predicates."""
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 4, loops=True)
        _agree_everywhere(p, SPACE)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_two_variable_spaces(self, seed):
        rng = random.Random(seed)
        space = StateSpace(("x", "y"), 2)
        p = random_program(rng, space, 4, loops=True)
        _agree_everywhere(p, space)


@pytest.mark.parametrize("space", [StateSpace(("x",), 3), StateSpace(("x", "y"), 2),
                                   StateSpace(("x",), 5)], ids=lambda s: f"n{s.size}")
def test_one_pass_table_matches_per_kind_oracle_and_inductive_rules(space):
    """The eight-transformer table of one pass, as the profile hands it out,
    equals the per-kind oracle and the inductive engine, in
    TransformerKind order, for every predicate."""
    rng = random.Random(5150 + space.size)
    programs = [prog(text, space) for text in (
        "skip", "diverge", "{ x := 0 } [] { diverge }",
        "while x != 0 { { x := x - 1 } [] { skip } }",
    )]
    programs += [random_program(rng, space, 4, loops=True) for _ in range(40)]
    for p in programs:
        prof = profile(p, space)
        for q in range(1 << space.size):
            table = prof[q]
            assert table == tuple(oracle_bits(kind, prof, q) for kind in K), (p, q)
            assert table == tuple(inductive_transform(kind, p, Predicate(space, q)).bits
                                  for kind in K), (p, q)


# --- both sides of rows_table's size switch -------------------------------------

def test_one_pass_table_matches_per_kind_oracle_on_random_relations():
    """rows_table against the per-kind oracle for every n up to 300, on both
    sides of its switch from the state loop to the linear passes: random rows
    (empty, one successor, or dense) and random may-divergence."""
    assert semantics._LOOPED < 300
    rng = random.Random(8080)
    for n in range(1, 301):
        space = StateSpace(("x",), n)
        rows = tuple(rng.choice((0, 1 << rng.randrange(n), rng.getrandbits(n)))
                     for _ in range(n))
        prof = Profile(space, Relation(n, rows), rng.getrandbits(n))
        for q in (0, space.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
            assert rows_table(rows, prof.may_div, q) == tuple(
                oracle_bits(kind, prof, q) for kind in K), (n, q)


LARGE_PROGRAMS = (
    "while x != 0 { x := x - 1 }",
    "while x != 0 { { x := x - 1 } [] { y := y + 1 } [] { diverge } }",
    "x := x + 1",
    "if x = 0 { y := y + 1 } else { diverge }",
    "{ x := x + 1 } [] { skip } ; diverge",
    "{ x := 0 } [] { y := x } ; while y != z { z := z + 1 }",
)
# the paper's reachability classes, by (reachable from b, from outside b)
REACH = {(True, False): 1, (True, True): 2, (False, False): 3, (False, True): 4}


@pytest.mark.parametrize("modulus", [4, 5, 6, 7])
def test_one_pass_table_and_converse_reads_on_large_spaces(modulus):
    """Over x, y, z mod 4..7 (64 to 343 states, both sides of rows_table's
    switch): each table equals the per-kind oracle and the inductive engine,
    the irreversible states are the converse's rows with two or more bits,
    and each state's reachability class is read off its converse row."""
    space = StateSpace(("x", "y", "z"), modulus)
    full = space.full_mask
    rng = random.Random(6060 + modulus)
    programs = [prog(text, space) for text in LARGE_PROGRAMS]
    programs += [random_program(rng, space, 3, loops=True) for _ in range(4)]
    for p in programs:
        prof = profile(p, space)
        inverse = converse(prof.relation).rows
        assert prof.irreversible == sum(1 << j for j, row in enumerate(inverse)
                                        if row.bit_count() > 1), p
        qs = (0, full, guard_to_predicate(parse_guard("x = 0", space), space).bits,
              rng.getrandbits(space.size))
        for q in qs:
            table = prof[q]
            assert table == tuple(oracle_bits(kind, prof, q) for kind in K), (p, q)
            assert table == tuple(inductive_transform(kind, p, Predicate(space, q)).bits
                                  for kind in K), (p, q)
        b = Predicate(space, qs[-1])
        for j, row in enumerate(inverse):
            want = REACH[bool(row & b.bits), bool(row & ~b.bits & full)]
            assert reachability_class(p, b, space.state(j)) == want, (p, j)


class TestLaws:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=7))
    def test_ordering(self, seed, qbits):
        """dwp <= awp <= awlp, dwp <= dwlp <= awlp, and the forward mirror."""
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 4, loops=True)
        q = Predicate(SPACE, qbits)
        tr = {kind: oracle_transform(kind, p, q) for kind in K}
        assert tr[K.DWP] <= tr[K.AWP] <= tr[K.AWLP]
        assert tr[K.DWP] <= tr[K.DWLP] <= tr[K.AWLP]
        assert tr[K.DSP] <= tr[K.ASP] <= tr[K.ASLP]
        assert tr[K.DSP] <= tr[K.DSLP] <= tr[K.ASLP]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=7))
    def test_contrapositives(self, seed, qbits):
        """awp = not dwlp of the negation, and the three sibling identities."""
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 4, loops=True)
        q = Predicate(SPACE, qbits)
        assert oracle_transform(K.AWP, p, q) == ~oracle_transform(K.DWLP, p, ~q)
        assert oracle_transform(K.DWP, p, q) == ~oracle_transform(K.AWLP, p, ~q)
        assert oracle_transform(K.ASP, p, q) == ~oracle_transform(K.DSLP, p, ~q)
        assert oracle_transform(K.DSP, p, q) == ~oracle_transform(K.ASLP, p, ~q)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=7))
    def test_forward_combinations(self, seed, qbits):
        """dsp is asp meet dslp; aslp is asp join dslp (for the oracles)."""
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 4, loops=True)
        b = Predicate(SPACE, qbits)
        asp = oracle_transform(K.ASP, p, b)
        dslp = oracle_transform(K.DSLP, p, b)
        assert oracle_transform(K.DSP, p, b) == asp & dslp
        assert oracle_transform(K.ASLP, p, b) == asp | dslp

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_monotone_in_predicate(self, seed):
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 3, loops=True)
        small = Predicate(SPACE, rng.randrange(8))
        big = small | Predicate(SPACE, rng.randrange(8))
        for kind in K:
            assert oracle_transform(kind, p, small) <= oracle_transform(kind, p, big)

    def test_backward_combinations_fail_somewhere(self):
        # the two non-identities: both witnessed by branching divergence
        p = prog("{ x := 0 } [] { diverge }")
        c = pred([0])
        awp = oracle_transform(K.AWP, p, c)
        dwlp = oracle_transform(K.DWLP, p, c)
        assert oracle_transform(K.DWP, p, c) != awp & dwlp
        p2 = prog("{ x := 1 } [] { diverge }")
        awp2 = oracle_transform(K.AWP, p2, c)
        dwlp2 = oracle_transform(K.DWLP, p2, c)
        assert oracle_transform(K.AWLP, p2, c) != awp2 | dwlp2


class TestClasses:
    def test_skip_in_postcondition_is_class_one(self):
        c = pred([1])
        assert coreachability_class(prog("skip"), c, SPACE.state(1)) == 1

    def test_diverge_is_class_four(self):
        for i in range(3):
            assert coreachability_class(prog("diverge"), pred([1]), SPACE.state(i)) == 4

    def test_skip_or_diverge_is_class_two(self):
        p = prog("{ skip } [] { diverge }")
        assert coreachability_class(p, pred([1]), SPACE.state(1)) == 2

    def test_reach_classes(self):
        space = StateSpace(("x",), 2)
        b = Predicate.from_indices(space, [0])
        assert reachability_class(prog("skip", space), b, space.state(0)) == 1
        assert reachability_class(prog("x := 0", space), b, space.state(1)) == 3
        p = prog("{ x := 0 } [] { x := 1 }")
        assert reachability_class(p, pred([0]), SPACE.state(0)) == 2

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=7))
    def test_membership_matches_class_tables(self, seed, qbits):
        """A state sits in a transformer's result exactly when its class is
        one of the classes that transformer includes."""
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 4, loops=True)
        q = Predicate(SPACE, qbits)
        for kind, included in COREACH_INCLUSION.items():
            result = oracle_transform(kind, p, q)
            for i in range(SPACE.size):
                cls = coreachability_class(p, q, SPACE.state(i))
                assert (i in result) == (cls in included)
        for kind, included in REACH_INCLUSION.items():
            result = oracle_transform(kind, p, q)
            for i in range(SPACE.size):
                cls = reachability_class(p, q, SPACE.state(i))
                assert (i in result) == (cls in included)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_classes_partition_the_space(self, seed):
        rng = random.Random(seed)
        p = random_program(rng, SPACE, 4, loops=True)
        q = Predicate(SPACE, rng.randrange(8))
        for i in range(SPACE.size):
            assert coreachability_class(p, q, SPACE.state(i)) in range(1, 8)
            assert reachability_class(p, q, SPACE.state(i)) in range(1, 5)
