"""The composed profile: its relation, preimages and divergence, checked
against the operational reference (one Tarjan pass over the configuration
graph of the program's points) and against the inductive engine's strongest
postconditions, the collecting semantics, from single states."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ngclab import BudgetExceededError, Predicate, StateSpace, parse_program
from ngclab import CorpusConfig, check_theorem, find_counterexample
from ngclab import generators, search, semantics, theorems
from ngclab.cli import main
from ngclab.generators import (
    GeneratorConfig, exhaustive_programs, exhaustive_rows, generate_programs, random_program,
)
from ngclab.relations import Relation
from ngclab.syntax import Choice, Ite, Program, Seq, While
from ngclab.semantics import profile
from ngclab.transformers import TransformerKind, inductive_transform, oracle_transform
from oracle_reference import pre
from profile_reference import (
    Points, count_compositions, final_and_divergent, reference_profile, stream_keys,
)

SPACE = StateSpace(("x",), 3)
SIGMA = Predicate.universe(SPACE)


def prog(text, space=SPACE):
    return parse_program(text, space)


def pred(indices, space=SPACE):
    return Predicate.from_indices(space, indices)


def collecting(p, initial):
    """All final states reachable from the initial set: the inductive
    engine's angelic strongest postcondition, loops by least fixpoint."""
    return inductive_transform(TransformerKind.ASP, p, initial)


def singleton_rows(p, space):
    """The relation's rows as the collecting semantics of each single state."""
    return tuple(collecting(p, pred([i], space)).bits for i in range(space.size))


def preimage(p, target):
    """States from which some execution of p ends in the target: the
    profile's relation, checked against the reference pass's rows."""
    space = target.space
    bits = pre(profile(p, space).relation.rows, target.bits)
    rows, _, _ = reference_profile(p, space)
    assert bits == pre(rows, target.bits)
    return Predicate(space, bits)


def must_div(p, space):
    """States with an empty image: the profile's must-divergence, checked
    against the empty rows of the reference pass."""
    bits = profile(p, space).must_div
    rows, _, _ = reference_profile(p, space)
    assert bits == sum(1 << i for i, row in enumerate(rows) if row == 0)
    return Predicate(space, bits)


class TestCollecting:
    def test_skip_is_identity(self):
        assert collecting(prog("skip"), pred([1, 2])) == pred([1, 2])

    def test_choice_unions_branches(self):
        # by the union rule: both branches applied to x=2
        got = collecting(prog("{ x := 0 } [] { x := 1 }"), pred([2]))
        assert got == pred([0, 1])

    def test_branching_divergence_invisible(self):
        diverging = prog("{ skip } [] { while true { skip } }")
        for bits in range(8):
            s = Predicate(SPACE, bits)
            assert collecting(diverging, s) == collecting(prog("skip"), s)

    def test_loop_runs_to_termination(self):
        got = collecting(prog("while x != 0 { x := x - 1 }"), SIGMA)
        assert got == pred([0])

    def test_pointwise_decomposition(self):
        p = prog("if x = 0 { x := 1 } else { { x := 2 } [] { skip } }")
        whole = collecting(p, pred([0, 2]))
        parts = collecting(p, pred([0])) | collecting(p, pred([2]))
        assert whole == parts

    def test_monotone_in_initial_set(self):
        p = prog("{ x := x + 1 } [] { diverge }")
        assert collecting(p, pred([0])) <= collecting(p, pred([0, 1]))


class TestInverse:
    def test_skip(self):
        assert preimage(prog("skip"), pred([1])) == pred([1])

    def test_assignment_preimage_is_everything(self):
        assert preimage(prog("x := 0"), pred([0])) == SIGMA

    def test_unreachable_target_has_empty_preimage(self):
        assert preimage(prog("x := 0"), pred([1])) == Predicate.empty(SPACE)

    def test_matches_relation_preimage(self):
        p = prog("if x = 0 { { x := 1 } [] { x := 2 } } else { skip }")
        for bits in range(1 << SPACE.size):
            target = Predicate(SPACE, bits)
            # by definition: the states some execution takes into the target
            hits = [i for i in range(SPACE.size)
                    if not (collecting(p, pred([i])) & target).is_empty]
            assert preimage(p, target) == pred(hits)


class TestReference:
    def test_countdown_reaches_no_cycle_and_lands_on_zero(self):
        # the pass flags a seed that reaches a configuration on a cycle
        p = prog("while x != 0 { x := x - 1 }")
        assert reference_profile(p, SPACE) == ((1, 1, 1), 0, 0)

    @pytest.mark.parametrize("text, k", (
        ("while true { x := x + 1 }", 6),
        ("while x != 0 { { x := x - 1 } [] { x := x + 1 } }", 10),
        ("{ while x = 1 { skip } } [] { x := 0 ; diverge }", 13),
        ("x := x + 1 ; if x = 0 { skip } else { x := 2 }", 11),
    ))
    def test_node_budget_counts_the_reachable_configurations(self, text, k):
        # k configurations are reachable from the three seeds (counted by
        # hand), so the pass fits a budget of k and not of k - 1
        p = prog(text)
        assert final_and_divergent(Points(p, SPACE), k)
        with pytest.raises(BudgetExceededError):
            final_and_divergent(Points(p, SPACE), k - 1)

    def test_sequences_compile_without_recursing_per_statement(self):
        # a `;` chain far longer than the interpreter's recursion limit;
        # neither compiling nor the pass hashes the program
        p = prog("x := x + 1")
        for _ in range(5000):
            p = Seq(prog("x := x + 1"), p)
        rows, may = final_and_divergent(Points(p, SPACE),
                                        semantics.DEFAULT_NODE_BUDGET)
        assert rows[0] == 1 << 5001 % 3 and may == 0


class TestDivergence:
    def test_skip_never_diverges(self):
        assert profile(prog("skip"), SPACE).may_div == 0

    def test_optional_divergence_is_everywhere(self):
        p = prog("{ skip } [] { while true { skip } }")
        assert profile(p, SPACE).may_div == SIGMA.bits
        assert must_div(p, SPACE).is_empty

    def test_terminating_loop_has_no_divergence(self):
        assert profile(prog("while x != 0 { x := x - 1 }"), SPACE).may_div == 0

    def test_diverge_must_diverge(self):
        assert must_div(prog("diverge"), SPACE) == SIGMA

    def test_guarded_divergence(self):
        space = StateSpace(("x",), 2)
        p = prog("if x = 0 { diverge } else { skip }", space)
        assert must_div(p, space) == Predicate.from_indices(space, [0])
        assert profile(p, space).may_div == 1

    def test_must_implies_may(self):
        rng = random.Random(11)
        for _ in range(150):
            p = random_program(rng, SPACE, 4, loops=True)
            assert must_div(p, SPACE).bits & ~profile(p, SPACE).may_div == 0


class TestRelation:
    def test_skip_denotes_identity(self):
        assert singleton_rows(prog("skip"), SPACE) == (1, 2, 4)

    def test_diverge_denotes_empty(self):
        assert singleton_rows(prog("diverge"), SPACE) == (0, 0, 0)

    def test_branching_divergence_lost_relationally(self):
        a = prog("{ skip } [] { diverge }")
        assert singleton_rows(a, SPACE) == singleton_rows(prog("skip"), SPACE)
        assert profile(a, SPACE).relation == profile(prog("skip"), SPACE).relation

    def test_diverge_equals_trivial_loop(self):
        # the dedicated node and its unfolding are semantically identical
        spin = prog("while true { skip }")
        stop = prog("diverge")
        assert singleton_rows(stop, SPACE) == singleton_rows(spin, SPACE)
        assert profile(stop, SPACE).relation == profile(spin, SPACE).relation
        assert profile(stop, SPACE).may_div == profile(spin, SPACE).may_div == SIGMA.bits
        assert must_div(stop, SPACE) == must_div(spin, SPACE) == SIGMA

    def test_domain_codomain_and_must_div_match_their_row_definitions(self):
        # seeded random relations on both sides of mask_of's switch from
        # bit by bit to binary digits, from no empty row to all rows empty
        rng = random.Random(24)
        assert Relation(0, ()).domain_bits() == Relation(0, ()).codomain_bits() == 0
        for n in range(1, 71):
            space = StateSpace(("x",), n)
            for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                rows = tuple(rng.getrandbits(n) | 1 << rng.randrange(n)
                             if rng.random() < density else 0 for _ in range(n))
                relation = Relation(n, rows)
                codomain = 0
                for row in rows:
                    codomain |= row
                assert relation.domain_bits() == sum(1 << i for i, row in enumerate(rows) if row)
                assert relation.codomain_bits() == codomain
                must = sum(1 << i for i, row in enumerate(rows) if not row)
                assert semantics.Profile(space, relation, 0).must_div == must


@settings(max_examples=250, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_reference_rows_agree_with_collecting(seed):
    """The reference pass's final states and the collecting semantics are
    two routes to the same image, for every seed state."""
    rng = random.Random(seed)
    space = StateSpace(("x", "y"), 2)
    p = random_program(rng, space, 4, loops=True)
    rows, _, _ = reference_profile(p, space)
    assert rows == singleton_rows(p, space)


CROSS_SPACES = (
    StateSpace(("x",), 1),      # one state: a table is (s, 1)
    StateSpace(("x",), 3),
    StateSpace(("x", "y"), 2),
    StateSpace(("x", "y", "z"), 2),
    # past eight states the may and must masks are read as binary digits
    StateSpace(("x", "y"), 3),
    StateSpace(("x", "y", "z"), 3),
)
CROSS_PROGRAMS = (
    # two structurally equal loop branches get separate program points
    "{ while x != 0 { x := x - 1 } } [] { while x != 0 { x := x - 1 } }",
    "{ while x != 1 { { x := x + 1 } [] { diverge } } } [] { skip }",
    "while x = 0 { { { skip } [] { diverge } } [] { x := x + 1 } }",
    "if x = 0 { { diverge } [] { x := 1 } } else { while true { skip } }",
    "x := x + 1 ; { { x := 0 } [] { while x != 0 { skip } } } ; x := x * 2",
    # one component whose members leave it for different final states
    "while x != 0 { { x := x - 1 } [] { x := x + 1 } }",
    "while x = 1 { { x := x + 1 } [] { x := x - 1 } [] { skip } }",
    # an inner loop's component closes while the outer loop's is still open
    "while x != 0 { { x := x - 1 } [] { skip } [] { while x = 2 { { skip } [] { x := 0 } } } }",
    "while true { while x = 1 { { skip } [] { x := 0 } } ; x := x + 1 }",
    # a closed cyclic component, met again from another seed, beside a
    # terminating branch
    "x := 1 ; { { while x = 1 { skip } } [] { skip } }",
    "{ while x = 1 { skip } } [] { x := x + 1 }",
    # diverge in one branch of a loop body
    "while x != 0 { { x := x - 1 } [] { diverge } }",
    # the two storages, a successor table and rows, composed in both `;`
    # orders, and side by side in an `if`
    "x := x + 1 ; { { x := 0 } [] { diverge } }",
    "{ { x := 0 } [] { diverge } } ; x := x + 1",
    "x := x * 2 ; while x != 0 { { x := x - 1 } [] { skip } }",
    "while x != 1 { { x := x - 1 } [] { diverge } } ; x := x + 2",
    "{ { x := x + 1 } [] { skip } } ; { { x := 0 } [] { diverge } }",
    "if x = 0 { x := 1 ; x := x + 1 } else { x := 2 }",
    "if x = 1 { x := 0 } else { { x := 2 } [] { diverge } }",
    "if x = 1 { while x != 0 { x := x + 1 } } else { x := x + 1 }",
    "if x = 2 { skip } else { diverge } ; x := x + 1",
    "x := x + 2 ; if x = 0 { { skip } [] { x := 1 } } else { x := x * 2 } ; x := x + 1",
    # a `[]` of functions kept as a union of tables, alone or beside rows:
    # composed with tables (within and beyond the widest union kept) and
    # with rows in both `;` orders, in an `if` beside a union of another
    # width, and as a loop body
    "{ x := x + 1 } [] { skip } ; diverge",
    "diverge ; { x := 1 } [] { skip }",
    "{ { x := 0 } [] { diverge } } ; { x := x + 1 } [] { x := x * 2 }",
    "{ x := x + 1 } [] { x := 0 } ; { x := x * 2 } [] { skip }",
    "{ x := 1 } [] { x := 2 } [] { skip } ; { x := x + 1 } [] { x := 0 }",
    "{ x := x + 1 } [] { x := x + 2 } [] { x := x * 2 } ; x := x + 1 ; { skip } [] { x := 0 }",
    "if x = 0 { { x := 1 } [] { x := 2 } } else { { x := x + 1 } [] { skip } [] { x := 0 } }",
    "if x = 1 { { x := 0 } [] { skip } } else { diverge }",
    "while x != 0 { { x := x - 1 } [] { x := x + 1 } [] { x := x * 2 } }",
    "{ x := x + 1 } [] { diverge } ; x := 0",
    "{ x := x + 1 } [] { diverge } ; { x := x * 2 } [] { while x = 1 { skip } }",
    "{ x := 1 } [] { x := 2 } [] { skip } ; { x := x + 1 } [] { x := 0 } [] { diverge }",
    "if x = 0 { { x := 1 } [] { diverge } } else"
    " { { x := x + 1 } [] { x := 0 } [] { while x = 1 { skip } } }",
    "if x = 2 { { x := 1 } [] { diverge } } else { x := x + 1 }",
    "while x != 2 { { x := x + 1 } [] { x := 0 } [] { while x = 1 { skip } } }",
)


def _cross_check(p, space):
    prof = profile(p, space)
    empty = Predicate.empty(space)
    assert (prof.relation.rows, prof.may_div, prof.must_div) == reference_profile(p, space)
    assert prof.relation.rows == singleton_rows(p, space)
    assert prof.may_div == inductive_transform(TransformerKind.AWLP, p, empty).bits
    assert prof.must_div == sum(1 << i for i, row in enumerate(prof.relation.rows) if not row)
    assert prof.must_div & ~prof.may_div == 0


@pytest.mark.parametrize("space", CROSS_SPACES, ids=lambda s: f"n{s.size}")
def test_profile_matches_reference_collecting_and_greatest_fixpoint(space):
    """The composed profile against three independent routes: the pass over
    the configuration graph, the collecting semantics of each state, and
    may-divergence as the inductive engine's awlp(false), a greatest
    fixpoint for loops."""
    for text in CROSS_PROGRAMS:
        _cross_check(prog(text, space), space)
    rng = random.Random(4242 + space.size)
    for _ in range(200):
        _cross_check(random_program(rng, space, 5, loops=True), space)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_profile_matches_direct_computations(seed):
    rng = random.Random(seed)
    p = random_program(rng, SPACE, 4, loops=True)
    prof = profile(p, SPACE)
    _cross_check(p, SPACE)
    assert prof.must_div == must_div(p, SPACE).bits
    assert prof.reach == prof.relation.codomain_bits()


@pytest.mark.parametrize("text", ["x := 0", "x := x + 1", "{ x := 0 } [] { x := 1 }",
                                  "while x != 0 { x := x - 1 }", "diverge"])
def test_irreversible_states_are_those_with_two_initial_states(text):
    prof = profile(prog(text), SPACE)
    n = SPACE.size
    origins = [sum(row >> j & 1 for row in prof.relation.rows) for j in range(n)]
    assert prof.irreversible == sum(1 << j for j in range(n) if origins[j] > 1)


# --- the composer against the operational reference ---------------------------

def test_profile_matches_the_reference_on_the_depth_3_corpus():
    config = GeneratorConfig(("x",), 2, max_depth=3)
    corpus = list(generate_programs(config))
    for p in random.Random(2026).sample(corpus, 1500):
        _cross_check(p, config.space())


def test_profile_matches_the_reference_on_the_loops_corpus():
    config = GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True, mode="random",
                             seed=2025, count=600)
    for p in generate_programs(config):
        _cross_check(p, config.space())


@pytest.mark.parametrize("text", (
    "while x != 0 { x := x - 1 }",
    "while x != 0 { { x := x - 1 } [] { y := y + 1 } [] { diverge } }",
    "x := x + 1 ; { y := y + x } [] { y := y + 1 } ; z := z + y ;"
    " { x := x + z } [] { z := z + 2 } ; y := y + 5",
))
def test_profile_matches_the_reference_on_the_scale_programs(text):
    space = StateSpace(("x", "y", "z"), 6)      # n = 216
    _cross_check(prog(text, space), space)


# loop bodies: where the body's meaning is one successor table and no rows,
# the loop's SCC pass reads a state's one successor from the table, and
# otherwise its successors from each table and its row
_LOOP_BODIES = ("x := x - 1", "x := x * 2", "x := x + 1 ; x := x * 3", "skip",
                "if x = 1 { x := 0 } else { diverge }", "{ x := x * 2 } [] { diverge }",
                "if x < 2 { x := x + 2 } else { x := x - 1 }", "diverge",
                "{ x := x - 1 } [] { x := x + 1 }", "while x = 0 { skip }",
                "{ x := 0 } [] { x := 1 } [] { x := 2 } [] { x := 3 } [] { x := x + 1 }")


@pytest.mark.parametrize("n", range(1, 10))
def test_loops_of_one_table_and_of_tables_and_rows_match_the_reference(n):
    space = StateSpace(("x",), n)
    one_table = set()
    for body in _LOOP_BODIES:
        _, succs, rows, _ = semantics._meaning(prog(body, space), space)
        one_table.add(rows is None and len(succs) == 1)
        for guard in ("x != 0", "x < 2", "true", "x = 1 || x = 3"):
            _cross_check(prog(f"while {guard} {{ {body} }}", space), space)
    assert one_table == {True, False}       # both ways of reading successors


def test_functions_stay_successor_tables_and_equal_rows_stay_shared():
    space = StateSpace(("x",), 20)
    # skip, assignments, and `;` and `if` of them: one table of n + 1
    # entries, the last the sink's, never rows
    p = prog("x := x + 1 ; if x = 0 { skip } else { x := x * 2 }", space)
    nodes, succs, rows, may = semantics._meaning(p, space)
    assert (nodes, rows, may) == (4, None, 0)
    assert succs == (tuple(0 if i == 19 else (2 * i + 2) % 20 for i in range(20)) + (20,),)
    assert semantics._meaning(prog("skip", space), space).succs == (range(21),)
    # every state goes to 19 and then takes 19's row of the choice: one int
    rows = profile(prog("x := 19 ; { skip } [] { x := 18 }", space), space).relation.rows
    assert rows[0] == 3 << 18 and len(set(map(id, rows))) == 1


def test_a_choice_of_functions_stays_a_union_of_tables():
    space = StateSpace(("x",), 20)
    full = space.full_mask
    meaning = semantics._meaning(prog("{ x := x + 1 } [] { skip } ; x := 0", space), space)
    assert meaning == (4, ((0,) * 20 + (20,),), None, 0)    # the two tables are equal
    meaning = semantics._meaning(prog("{ x := 1 } [] { x := 2 } ; diverge", space), space)
    assert meaning == (4, (), None, full)
    # beside diverge, the tables stay tables
    meaning = semantics._meaning(prog("{ x := x + 1 } [] { diverge } ; x := 3", space), space)
    assert meaning == (4, ((3,) * 20 + (20,),), None, full)
    # a union wider than semantics._WIDTH becomes rows, one int per distinct
    # tuple of successors, and the sink's row is 0
    text = " [] ".join(f"{{ x := {k} }}" for k in range(semantics._WIDTH + 1))
    _, succs, rows, _ = semantics._meaning(prog(text, space), space)
    assert succs == () and rows[0] == (1 << semantics._WIDTH + 1) - 1 and rows[20] == 0
    assert len(set(map(id, rows[:20]))) == 1


def test_if_and_loops_keep_tables_on_part_of_the_states():
    space = StateSpace(("x",), 20)
    full = space.full_mask
    # an `if` gives the sink to the states its guard sends to a side without
    # tables, and a table with no successor left is dropped
    meaning = semantics._meaning(prog("if x = 3 { x := x + 1 } else { diverge }", space),
                                 space)
    assert meaning == (3, ((20,) * 3 + (4,) + (20,) * 17,), None, full & ~(1 << 3))
    p = prog("if x = 3 { x := x + 1 } else { diverge } ; if x = 5 { skip } else { diverge }",
             space)
    assert semantics._meaning(p, space) == (6, (), None, full)
    p = prog("if x = 3 { if x = 4 { skip } else { diverge } } else { diverge }", space)
    assert semantics._meaning(p, space) == (5, (), None, full)
    # a loop is the identity outside its guard, beside rows under it
    meaning = semantics._meaning(prog("while x = 0 { x := 1 }", space), space)
    assert meaning == (2, ((20,) + tuple(range(1, 21)),), (2,) + (0,) * 20, 0)
    # and a later statement maps both, the sink staying the sink
    p = prog("while x = 0 { x := 1 } ; x := 5", space)
    assert semantics._meaning(p, space) == (3, ((20,) + (5,) * 19 + (20,),),
                                            (32,) + (0,) * 20, 0)
    assert profile(p, space).relation.rows == (32,) * 20


def test_the_budget_is_states_times_program_nodes(monkeypatch):
    # `;` is not counted: an assignment and a choice of two, 4 nodes
    p = prog("x := x + 1 ; { skip } [] { x := 0 }")
    monkeypatch.setattr(semantics, "DEFAULT_NODE_BUDGET", 4 * 3)
    semantics._meaning.cache_clear()
    assert profile.__wrapped__(p, SPACE).relation.rows == reference_profile(p, SPACE)[0]
    monkeypatch.setattr(semantics, "DEFAULT_NODE_BUDGET", 4 * 3 - 1)
    semantics._meaning.cache_clear()
    with pytest.raises(BudgetExceededError,
                       match=r"^states x program nodes = 3 x 4 exceeds the budget of 11$"):
        profile.__wrapped__(p, SPACE)           # refused before the `;` composes


def test_the_walk_composes_each_node_through_the_classifiers_step(monkeypatch):
    """From cleared caches, `profile` of an `if`, a `[]` and a loop reaches
    `_combine`, the step the stream classifier composes with, once: the walk
    has no composer of its own."""
    calls = []

    def counting(ctor, *args, real=semantics._combine):
        calls.append(ctor)
        return real(ctor, *args)

    monkeypatch.setattr(semantics, "_combine", counting)
    for text, ctor in (("if x = 0 { x := 1 } else { skip }", Ite),
                       ("{ x := 1 } [] { skip }", Choice),
                       ("while x != 0 { x := x - 1 }", While)):
        profile.cache_clear()
        semantics._meaning.cache_clear()
        calls.clear()
        profile(prog(text), SPACE)
        assert calls == [ctor], text


def test_the_walk_refuses_a_non_program():
    with pytest.raises(TypeError, match="^not a program: 'skip'$"):
        profile("skip", SPACE)


# --- the stream classifier -----------------------------------------------------

@pytest.mark.parametrize("variables, modulus, depth, loops", [
    (("x",), 2, 3, False),      # 44 105 programs
    (("x", "y"), 2, 2, True),
])
def test_the_stream_classifier_composes_once_per_key(monkeypatch, variables, modulus,
                                                      depth, loops):
    space = StateSpace(variables, modulus)
    rows = list(exhaustive_rows(space, depth, loops))
    composed, got = [], []
    count_compositions(monkeypatch, composed, got)
    for prof in semantics.classify(rows, space):
        got.append(prof)
    monkeypatch.undo()
    programs = list(exhaustive_programs(space, depth, loops))
    assert len(got) == len(programs)
    assert all(prof is profile(p, space) for p, prof in zip(programs, got))
    # one combine call per composite key, on its first entry
    firsts: dict = {}
    for k, key in enumerate(stream_keys(rows, space)):
        firsts.setdefault(key, k)
    assert composed == [k for key, k in firsts.items() if type(key) is tuple]


def _clear_composer():
    semantics.profile.cache_clear()
    semantics._meaning.cache_clear()
    theorems.corpus_items.cache_clear()
    theorems.corpus_classes.cache_clear()


def _first_rows(rows, count):
    """The rows of a stream's first `count` entries, the last row cut short."""
    for row in rows:
        if count <= 0:
            return
        if type(row) is tuple:
            ctor, guard, i, js = row
            row = ctor, guard, i, js[:count]
            count -= len(row[3])
        else:
            count -= 1
        yield row


def test_a_classified_program_is_refused_where_its_composition_would_be(monkeypatch, capsys):
    """The budget holds for a program whose profile the stream classifier
    reads off an earlier program's: the search, the survey and the command
    line refuse the program that composing every program from cold caches
    refuses first."""
    space = StateSpace(("x",), 2)
    programs = list(exhaustive_programs(space, 3))
    # a program of depth 2 has at most 3 nodes: 2 states x 3 fit, 2 x 4 do not
    monkeypatch.setattr(semantics, "DEFAULT_NODE_BUDGET", 2 * 3)
    message = "states x program nodes = 2 x 4 exceeds the budget of 6"
    try:
        _clear_composer()
        for index, p in enumerate(programs):
            try:
                profile(p, space)
            except BudgetExceededError as error:
                assert str(error) == message
                break
        assert index > 105
        keys = stream_keys(_first_rows(exhaustive_rows(space, 3), index + 1), space)
        assert keys[index] in keys[:index]      # the classifier has its profile
        classified, real = [], search.classify

        def recording(rows, space):
            for prof in real(rows, space):
                classified.append(prof)
                yield prof

        monkeypatch.setattr(search, "classify", recording)
        _clear_composer()
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            find_counterexample("galois-pc")
        assert len(classified) == index         # every program before it
        # a corpus that ends with it: the only program over the budget
        rows = generators.exhaustive_rows
        monkeypatch.setattr(generators, "exhaustive_rows",
                            lambda *args: _first_rows(rows(*args), index + 1))
        _clear_composer()
        corpus = CorpusConfig(GeneratorConfig(("x",), 2, max_depth=3))
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            check_theorem("ORDERING", corpus)
        assert [p for p, _ in theorems.corpus_items(corpus)] == programs[:index + 1]
        monkeypatch.undo()
        monkeypatch.setattr(semantics, "DEFAULT_NODE_BUDGET", 2 * 3)
        _clear_composer()
        assert main(["counterexample", "--claim", "galois-pc"]) == 4
        assert capsys.readouterr().err == f"resource limit: {message}\n"
    finally:
        _clear_composer()


def _nodes(p) -> int:
    """The nodes the budget counts: every node but a `;`."""
    parts = [field for field in p._values(p) if isinstance(field, Program)]
    return sum(map(_nodes, parts)) + (type(p) is not Seq) if parts else 1


def test_the_classifier_counts_each_entrys_own_nodes(monkeypatch):
    """A later entry of a key can have more nodes than the key's first: at
    depth 4 the classifier refuses the first program whose own nodes exceed
    the budget, as composing it would."""
    space = StateSpace(("x",), 2)
    monkeypatch.setattr(semantics, "DEFAULT_NODE_BUDGET", 2 * 7)  # every depth-3 program fits
    message = "^states x program nodes = 2 x 8 exceeds the budget of 14$"
    index, p = next((k, p) for k, p in enumerate(exhaustive_programs(space, 4)) if _nodes(p) > 7)
    assert _nodes(p.second) == 7 and _nodes(p.first) == 1
    classified = []
    try:
        _clear_composer()
        with pytest.raises(BudgetExceededError, match=message):
            for prof in semantics.classify(_first_rows(exhaustive_rows(space, 4), index + 1),
                                           space):
                classified.append(prof)
        assert len(classified) == index
        with pytest.raises(BudgetExceededError, match=message):
            profile(p, space)
    finally:
        _clear_composer()


def test_a_semantic_class_is_one_profile_per_space():
    """Every program of a class in a space gets the same profile object, and
    profiles compare and hash by identity: one class over two spaces is two
    profiles."""
    semantics.profile.cache_clear()
    semantics._class.cache_clear()
    identity = [prog(text) for text in (
        "skip", "x := x", "if x = 0 { skip } else { x := x }", "skip ; skip")]
    first = profile(identity[0], SPACE)
    assert all(profile(p, SPACE) is first for p in identity)
    assert first[1] is profile(identity[1], SPACE)[1]      # one store of tables
    spin = profile(prog("{ skip } [] { diverge }"), SPACE)
    assert spin.relation == first.relation and spin != first
    assert spin.may_div != first.may_div
    left, right = StateSpace(("x",), 4), StateSpace(("x", "y"), 2)
    a, b = profile(prog("skip", left), left), profile(prog("skip", right), right)
    assert a.relation == b.relation and a.may_div == b.may_div
    assert a is not b and a != b and not a == b
    assert len({a, b, first, spin}) == 4


def test_long_sequences_compose_without_recursing_per_statement():
    # a `;` chain far longer than the recursion limit, nested both ways
    p = prog("x := x + 1")
    for _ in range(5000):
        p = Seq(prog("{ x := x + 1 } [] { skip }"), p)
    p = Seq(p, Seq(Seq(prog("x := x + 1"), prog("skip")), prog("x := x * 2")))
    prof = profile(p, SPACE)
    assert prof.relation == Relation(3, (7, 7, 7)) and prof.may_div == 0


def test_a_chain_built_without_hashing_goes_through_every_entry_point():
    # each entry point gets its own copy of a 5 000-link chain built link by
    # link, so none of them finds a hash kept by another
    from ngclab.logics import classify

    def chain():
        p, leaf = prog("x := x + 2"), prog("x := x + 1")
        for _ in range(5000):
            p = Seq(leaf, p)
        return p                                # x := x + 5002, so x + 1

    short = prog("x := x + 1")
    assert hash(chain()) == hash(chain()) and chain() == chain()
    assert profile(chain(), SPACE) == profile(short, SPACE)
    zero = pred([0])
    for kind in TransformerKind:
        want = oracle_transform(kind, short, zero)
        assert oracle_transform(kind, chain(), zero) == want
        assert inductive_transform(kind, chain(), zero) == want
    assert classify(chain(), SPACE) == classify(short, SPACE)
