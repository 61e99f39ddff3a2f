"""State space, predicate, parser, and pretty-printer tests."""

import pytest
from hypothesis import given, settings, strategies as st

from ngclab import (
    NgclSyntaxError,
    Predicate,
    SettingError,
    SpaceCapError,
    StateSpace,
    UnknownVariableError,
    guard_to_predicate,
    parse_guard,
    parse_module,
    parse_program,
    pretty_guard,
    pretty_program,
)
from ngclab.generators import random_guard, random_program
from ngclab.syntax import (
    And, Assign, BinExpr, Choice, Cmp, Const, Diverge, Or, Seq, Skip, Var, While,
)

import dataclasses
import pickle
import random


SPACE_X3 = StateSpace(("x",), 3)
SPACE_XY2 = StateSpace(("x", "y"), 2)


class TestStateSpace:
    def test_size_and_enumeration_bijection(self):
        assert SPACE_XY2.size == 4
        seen = set()
        for i in range(SPACE_XY2.size):
            state = SPACE_XY2.state(i)
            assert state.index == i
            seen.add(state.values)
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_enumeration_is_lexicographic(self):
        values = [SPACE_XY2.state(i).values for i in range(4)]
        assert values == sorted(values)

    def test_substitution_changes_only_target(self):
        state = SPACE_XY2.state(1)  # x=0 y=1
        changed = state.set("x", 1)
        assert changed["x"] == 1
        assert changed["y"] == state["y"]

    def test_cap_is_enforced(self):
        with pytest.raises(SpaceCapError):
            StateSpace(("a", "b", "c"), 256)  # 16M states

    def test_env_var_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("NGCL_STATE_CAP", "8")
        with pytest.raises(SpaceCapError):
            StateSpace(("x",), 9)
        StateSpace(("x",), 8)

    @pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
    def test_invalid_env_cap_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("NGCL_STATE_CAP", value)
        with pytest.raises(SettingError, match="NGCL_STATE_CAP"):
            StateSpace(("x",), 2)

    def test_derived_sizes_do_not_enter_equality_or_hashing(self):
        space = StateSpace(("x", "y"), 3)
        assert (space.size, space.full_mask) == (9, 511)
        assert space == StateSpace(("x", "y"), 3) != StateSpace(("x", "y"), 2)
        assert hash(space) == hash((("x", "y"), 3))
        assert repr(space) == "StateSpace(variables=('x', 'y'), modulus=3)"

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(("x", "x"), 2)


class TestPredicate:
    def test_indices_are_the_set_bits_lowest_first(self):
        from ngclab.space import iter_bits

        rng = random.Random(5)
        for bits in [0, 1, 1 << 200] + [rng.getrandbits(300) for _ in range(50)]:
            assert list(iter_bits(bits)) == [i for i in range(bits.bit_length())
                                             if bits >> i & 1]

    def test_complement_involutive(self):
        pred = Predicate.from_indices(SPACE_X3, [0, 2])
        assert ~~pred == pred

    def test_lattice_bounds(self):
        empty = Predicate.empty(SPACE_X3)
        full = Predicate.universe(SPACE_X3)
        pred = Predicate.from_indices(SPACE_X3, [1])
        assert empty <= pred <= full

    def test_cross_space_operations_rejected(self):
        with pytest.raises(ValueError):
            Predicate.universe(SPACE_X3) & Predicate.universe(SPACE_XY2)


class TestGuardToPredicate:
    def test_true_is_everything(self):
        assert guard_to_predicate(parse_guard("true", SPACE_X3), SPACE_X3) \
            == Predicate.universe(SPACE_X3)

    def test_equality_picks_one_state(self):
        pred = guard_to_predicate(parse_guard("x = 0", SPACE_X3), SPACE_X3)
        assert pred == Predicate.from_indices(SPACE_X3, [0])

    def test_less_than_on_two_vars(self):
        # enumerated by hand over the four states of vars x, y mod 2:
        # only x=0, y=1 satisfies x < y
        pred = guard_to_predicate(parse_guard("x < y", SPACE_XY2), SPACE_XY2)
        assert [s.values for s in pred.states()] == [(0, 1)]

    def test_negation_is_complement(self):
        g = parse_guard("x = 1 || x = 2", SPACE_X3)
        neg = parse_guard("!(x = 1 || x = 2)", SPACE_X3)
        assert guard_to_predicate(neg, SPACE_X3) == ~guard_to_predicate(g, SPACE_X3)


class TestParser:
    def test_skip(self):
        assert parse_program("skip", SPACE_X3) == Skip()

    def test_choice_of_assignments(self):
        got = parse_program("{ x := 0 } [] { x := 1 }", SPACE_X3)
        assert got == Choice(Assign("x", Const(0)), Assign("x", Const(1)))

    def test_while_with_guard(self):
        got = parse_program("while x != 0 { x := x - 1 }", SPACE_X3)
        expected = While(
            Cmp("!=", Var("x"), Const(0)),
            Assign("x", BinExpr("-", Var("x"), Const(1))),
        )
        assert got == expected

    def test_comments_and_whitespace(self):
        text = "# a comment\nskip ; # trailing\n  x := 1"
        got = parse_program(text, SPACE_X3)
        assert got == parse_program("skip ; x := 1", SPACE_X3)

    def test_syntax_error_carries_position(self):
        with pytest.raises(NgclSyntaxError) as info:
            parse_program("skip ;\n while { skip }", SPACE_X3)
        assert info.value.line == 2

    def test_unknown_variable_is_named(self):
        with pytest.raises(UnknownVariableError) as info:
            parse_program("y := 0", SPACE_X3)
        assert info.value.name == "y"

    def test_module_header(self):
        space, program = parse_module("vars x, y mod 4\nx := y")
        assert space == StateSpace(("x", "y"), 4)
        assert program == Assign("x", Var("y"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(NgclSyntaxError):
            parse_program("skip skip", SPACE_X3)

    def test_long_sequence_parses_into_a_right_nested_chain(self):
        # far past the interpreter's recursion limit
        text = "vars x mod 3\n" + ";\n".join(f"x := {i % 3}" for i in range(5000))
        _, node = parse_module(text)
        for i in range(4999):
            assert isinstance(node, Seq) and node.first == Assign("x", Const(i % 3))
            node = node.second
        assert node == Assign("x", Const(4999 % 3))

    def test_trailing_semicolon_rejected(self):
        with pytest.raises(NgclSyntaxError):
            parse_program("skip ; x := 1 ;", SPACE_X3)


def _subtrees(node):
    yield node
    for field in dataclasses.fields(node):
        child = getattr(node, field.name)
        if dataclasses.is_dataclass(child):
            yield from _subtrees(child)


_NESTED = ("while x != 0 { { x := x - 1 } [] { if x < y && !(y = 1) { skip } "
           "else { diverge } } } ; y := x * 2 + 1")


class TestNodeHashing:
    def test_equal_trees_built_separately_hash_and_compare_equal(self):
        a = parse_program(_NESTED, SPACE_XY2)
        b = parse_program(_NESTED, SPACE_XY2)
        assert a is not b and a == b and hash(a) == hash(b)
        # built by hand, with the innermost nodes hashed first this time
        inner = Assign("x", BinExpr("-", Var("x"), Const(1)))
        hash(inner)
        assert a.first.body.left == inner and hash(a.first.body.left) == hash(inner)

    def test_hash_is_the_hash_of_the_class_and_field_tuple(self):
        for node in _subtrees(parse_program(_NESTED, SPACE_XY2)):
            fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
            assert hash(node) == hash((type(node), fields)), node

    def test_nodes_of_different_classes_with_equal_parts_hash_differently(self):
        a, b = Assign("x", Const(1)), Skip()
        g, h = Cmp("=", Var("x"), Const(0)), Cmp("<", Var("x"), Var("y"))
        for left, right in ((Skip(), Diverge()), (Seq(a, b), Choice(a, b)),
                            (And(g, h), Or(g, h)),
                            (Seq(Skip(), a), Seq(Diverge(), a))):
            assert left != right and hash(left) != hash(right), (left, right)

    def test_sequence_and_choice_of_the_same_parts_differ(self):
        a, b = Assign("x", Const(1)), Skip()
        assert Seq(a, b) != Choice(a, b) and Choice(a, b) != Seq(a, b)
        assert len({Seq(a, b): 0, Choice(a, b): 1}) == 2

    def test_second_hash_returns_the_first_without_recursing(self):
        # each link is hashed as it is built, so every hash call is one level
        # deep, far past the interpreter's recursion limit
        node = Assign("x", Const(0))
        for i in range(5000):
            node = Seq(Assign("x", Const(i % 3)), node)
            first = hash(node)
        assert hash(node) == first and hash(node) == first
        # the same chain built without hashing recurses once per level
        fresh = Assign("x", Const(0))
        for i in range(5000):
            fresh = Seq(Assign("x", Const(i % 3)), fresh)
        with pytest.raises(RecursionError):
            hash(fresh)

    def test_pickling_keeps_no_hash(self):
        program = parse_program(_NESTED, SPACE_XY2)
        hash(program)
        copy = pickle.loads(pickle.dumps(program))
        assert all("_h" not in vars(node) for node in _subtrees(copy))
        assert copy == program and hash(copy) == hash(program)
        space = pickle.loads(pickle.dumps(SPACE_XY2))
        assert space == SPACE_XY2 and hash(space) == hash((("x", "y"), 2))


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
    def test_program_pretty_parse_round_trip(self, seed, depth):
        """parse(pretty(p)) is structurally equal to p on random programs."""
        rng = random.Random(seed)
        program = random_program(rng, SPACE_XY2, depth, loops=True)
        text = pretty_program(program)
        assert parse_program(text, SPACE_XY2) == program

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
    def test_guard_pretty_parse_round_trip(self, seed, depth):
        """parse(pretty(g)) is structurally equal to g on random guards."""
        rng = random.Random(seed)
        guard = random_guard(rng, SPACE_XY2, depth)
        assert parse_guard(pretty_guard(guard), SPACE_XY2) == guard
