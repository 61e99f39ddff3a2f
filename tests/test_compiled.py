"""The compiled per-state paths against their definitional references.

`expr_column`, `guard_to_predicate` and `assign_table` compute over
the space's value columns what the reference's `eval_expr`/`eval_guard`
compute one `State` at a time; `index_of` and `values_of` must read a state index as the
base-m digits of its values; `iter_bits` must list exactly the set bits;
`render_states` and `repr(State)` must print `<name=value, ...>`; structural equality must agree with the
canonical text and never exhaust the recursion limit on a `;` chain.
"""

import random
import threading

import pytest

from ngclab.errors import BudgetExceededError
from ngclab.semantics import profile
from ngclab.space import Predicate, State, StateSpace, iter_bits, low_bit, mask_of
from ngclab.syntax import (
    And,
    Assign,
    BinExpr,
    BoolLit,
    Cmp,
    Const,
    Diverge,
    Not,
    Or,
    Seq,
    Skip,
    Var,
    While,
    assign_table,
    expr_column,
    guard_to_predicate,
)

from profile_reference import eval_expr, eval_guard

NAMES = ("x", "y", "z")


def random_expr(rng, names, m, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(names))
        # negative constants and constants at or past the modulus
        return Const(rng.randrange(-2 * m - 1, 2 * m + 2))
    return BinExpr(rng.choice("+-*"), random_expr(rng, names, m, depth - 1),
                   random_expr(rng, names, m, depth - 1))


def constant_expr(rng, m, depth):
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.randrange(-2 * m - 1, 2 * m + 2))
    return BinExpr(rng.choice("+-*"), constant_expr(rng, m, depth - 1),
                   constant_expr(rng, m, depth - 1))


def random_guard(rng, names, m, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return BoolLit(rng.random() < 0.5)
        make = constant_expr if rng.random() < 0.15 else None
        left = make(rng, m, 2) if make else random_expr(rng, names, m, 2)
        return Cmp(rng.choice(("=", "!=", "<", "<=")), left, random_expr(rng, names, m, 2))
    kind = rng.choice((And, Or, Not))
    if kind is Not:
        return Not(random_guard(rng, names, m, depth - 1))
    return kind(random_guard(rng, names, m, depth - 1), random_guard(rng, names, m, depth - 1))


def spaces():
    for m in range(1, 8):
        for k in range(1, 4):
            yield StateSpace(NAMES[:k], m)


def reference_values(space, index):
    """The values at a state index, as its base-m digits, last variable first."""
    out = []
    for _ in space.variables:
        index, v = divmod(index, space.modulus)
        out.append(v)
    return tuple(reversed(out))


def reference_index(space, values):
    """The state index of the values, read as base-m digits."""
    index = 0
    for v in values:
        index = index * space.modulus + v % space.modulus
    return index


def reference_repr(space, values):
    return "<" + ", ".join(f"{n}={v}" for n, v in zip(space.variables, values)) + ">"


# one, two and three variables
INDEXED_SPACES = [StateSpace(("x",), 5), StateSpace(("x", "y"), 3),
                  StateSpace(("x", "y", "z"), 4)]


def reference_bits(guard, space):
    bits = 0
    for i in range(space.size):
        if eval_guard(guard, space.state(i)):
            bits |= 1 << i
    return bits


class TestColumns:
    @pytest.mark.parametrize("space", list(spaces()), ids=repr)
    def test_stride_and_values_match_the_enumeration(self, space):
        for k, (stride, column) in enumerate(space.columns):
            assert len(column) == space.size
            assert column == [space.values_of(i)[k] for i in range(space.size)]
            if space.modulus > 1:
                assert space.values_of(stride)[k] == 1

    @pytest.mark.parametrize("space", INDEXED_SPACES, ids=repr)
    def test_index_and_values_match_the_digit_loops(self, space):
        m = space.modulus
        for i in range(space.size):
            values = reference_values(space, i)
            assert space.values_of(i) == values
            assert space.index_of(values) == reference_index(space, values) == i
            # a value outside Z_m is read modulo m
            shifted = tuple(v + m * k for k, v in enumerate(values, -1))
            assert space.index_of(shifted) == reference_index(space, shifted) == i

    def test_columns_are_built_once_per_space(self):
        space = StateSpace(("a", "b"), 5)
        assert space.columns is space.columns
        assert [stride for stride, _ in space.columns] == [5, 1]


class TestExpressions:
    @pytest.mark.parametrize("space", list(spaces()), ids=repr)
    def test_random_expressions_match_eval_expr(self, space):
        rng = random.Random(space.size * 31 + space.modulus)
        states = list(space.states())
        for _ in range(40):
            e = random_expr(rng, space.variables, space.modulus, 3)
            got = expr_column(e, space)
            want = [eval_expr(e, s) for s in states]
            if isinstance(got, int):
                assert [got] * space.size == want, e
            else:
                assert got == want, e

    def test_constant_only_expressions_are_ints(self):
        rng = random.Random(3)
        space = StateSpace(("x",), 5)
        for _ in range(100):
            e = constant_expr(rng, 5, 3)
            got = expr_column(e, space)
            assert isinstance(got, int)
            assert got == eval_expr(e, space.state(0))

    def test_every_operator_on_two_variables(self):
        space = StateSpace(("x", "y"), 7)
        for op in "+-*":
            e = BinExpr(op, Var("x"), Var("y"))
            assert expr_column(e, space) == [eval_expr(e, s) for s in space.states()]

    @pytest.mark.parametrize("space", list(spaces()), ids=repr)
    def test_assignment_successors_match_state_set(self, space):
        rng = random.Random(space.size * 17 + space.modulus)
        for _ in range(20):
            var = rng.choice(space.variables)
            e = random_expr(rng, space.variables, space.modulus, 3)
            want = tuple(s.set(var, eval_expr(e, s)).index for s in space.states())
            assert tuple(assign_table(var, e, space)) == want


class TestGuards:
    @pytest.mark.parametrize("space", list(spaces()), ids=repr)
    def test_random_guards_match_eval_guard(self, space):
        rng = random.Random(space.size * 7 + space.modulus)
        for _ in range(60):
            g = random_guard(rng, space.variables, space.modulus, 3)
            assert guard_to_predicate(g, space).bits == reference_bits(g, space), g

    def test_every_comparison_against_a_constant_and_a_variable(self):
        space = StateSpace(("x", "y"), 6)
        for op in ("=", "!=", "<", "<="):
            for right in (Const(3), Const(-1), Const(8), Var("y")):
                for g in (Cmp(op, Var("x"), right), Cmp(op, right, Var("x"))):
                    assert guard_to_predicate(g, space).bits == reference_bits(g, space)

    def test_literals_and_nesting(self):
        space = StateSpace(("x",), 4)
        x_lt_2 = Cmp("<", Var("x"), Const(2))
        for g in (BoolLit(True), BoolLit(False), Not(BoolLit(True)),
                  Not(Not(x_lt_2)), And(BoolLit(True), Not(x_lt_2)),
                  Or(Not(Or(x_lt_2, BoolLit(False))), And(x_lt_2, Not(x_lt_2)))):
            assert guard_to_predicate(g, space).bits == reference_bits(g, space)


class TestIterBits:
    @staticmethod
    def lowbit_definition(bits):
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    @staticmethod
    def digit_definition(bits):
        # linear, for masks whose every set bit the lowbit loop would rescan
        return [i for i, digit in enumerate(reversed(bin(bits))) if digit == "1"]

    def test_empty_single_high_bit_sparse_and_dense(self):
        rng = random.Random(11)
        masks = [0, 1, 511, 512, 1 << 200, 1 << (1 << 18) - 1]
        for length in (9, 10, 64, 65, 1000, 1 << 12, 1 << 18):
            masks.append(sum(1 << rng.randrange(length) for _ in range(3)))
            masks.append(sum(1 << rng.randrange(length) for _ in range(30)))
            if length <= 1 << 12:
                masks.append(rng.getrandbits(length))
        for few in (23, 24, 25):   # around the switch from stepping to bytes
            masks.append(sum(1 << (37 * j) for j in range(few)))
        for bits in masks:
            assert list(iter_bits(bits)) == self.lowbit_definition(bits)

    def test_dense_masks_of_two_to_the_eighteen_bits(self):
        rng = random.Random(12)
        for bits in ((1 << (1 << 18)) - 1, rng.getrandbits(1 << 18),
                     rng.getrandbits(1 << 18) & rng.getrandbits(1 << 18) << 1):
            assert list(iter_bits(bits)) == self.digit_definition(bits)

    def test_every_mask_of_up_to_ten_states(self):
        for bits in range(1 << 10):
            assert list(iter_bits(bits)) == self.lowbit_definition(bits)

    def test_low_bit_is_the_first_set_bit(self):
        rng = random.Random(13)
        masks = list(range(1, 1 << 10)) + [1 << 200, (1 << 300) - (1 << 17)]
        masks += [rng.getrandbits(1 << 12) | 1 << (1 << 12) for _ in range(20)]
        for bits in masks:
            assert low_bit(bits) == self.lowbit_definition(bits)[0]

    def test_mask_of_sets_bit_i_for_flag_i(self):
        # both sides of the switch from bit by bit to binary digits, bools and
        # 0/1 ints, lists and bytes, and the empty mask
        rng = random.Random(29)
        for length in list(range(0, 20)) + [64, 216, 1000, 4096]:
            for density in (0.0, 0.5, 1.0):
                flags = [rng.random() < density for _ in range(length)]
                want = sum(1 << i for i, flag in enumerate(flags) if flag)
                assert mask_of(flags) == want
                assert mask_of(bytes(flags)) == want


class TestRendering:
    @pytest.mark.parametrize("space", [StateSpace(("x",), 3), StateSpace(("pwd", "ok"), 4),
                                       StateSpace(("a", "b", "c"), 5)], ids=repr)
    def test_render_states_is_repr_of_state(self, space):
        indices = list(range(space.size))
        assert space.render_states(indices) == [repr(space.state(i)) for i in indices]
        assert space.render_states(iter_bits(0)) == []

    @pytest.mark.parametrize("space", INDEXED_SPACES, ids=repr)
    def test_repr_of_state_lists_its_values(self, space):
        for i in range(space.size):
            values = reference_values(space, i)
            assert repr(State(space, values)) == reference_repr(space, values)

    def test_predicate_repr_is_built_from_state_reprs(self):
        space = StateSpace(("x", "y"), 3)
        rng = random.Random(2)
        for _ in range(20):
            pred = Predicate(space, rng.getrandbits(space.size))
            want = "{" + ", ".join(repr(s) for s in pred.states()) + "}"
            assert repr(pred) == want


class TestStructuralEquality:
    @staticmethod
    def chain(links, last="x"):
        p = Assign("x", Var(last))
        for i in range(links):
            p = Seq(Assign("y", Const(i)), p)
        return p

    def test_equal_deep_chains_built_apart_compare_equal(self):
        a, b = self.chain(5000), self.chain(5000)
        assert a is not b
        assert a == b and not a != b

    def test_deep_chains_differing_at_the_bottom_are_unequal(self):
        assert self.chain(5000) != self.chain(5000, last="y")

    def test_deep_chains_differing_in_the_middle_are_unequal(self):
        # a `first` mismatch far below the top of both spines
        a, b = self.chain(5000), Assign("x", Var("x"))
        for i in range(5000):
            b = Seq(Assign("y", Const(-1 if i == 2500 else i)), b)
        assert a != b and not a == b and b != a

    def test_equality_agrees_with_the_canonical_text(self):
        from ngclab.generators import GeneratorConfig, generate_programs
        from ngclab.parser import parse_program
        from ngclab.syntax import pretty_program

        space = StateSpace(("x",), 2)
        programs = list(generate_programs(GeneratorConfig(("x",), 2, max_depth=3)))
        rng = random.Random(4)
        for p in rng.sample(programs, 300):
            copy = parse_program(pretty_program(p), space)
            other = rng.choice(programs)
            assert p == copy and not p != copy
            assert (p == other) is (pretty_program(p) == pretty_program(other))

    def test_deep_chains_compare_in_parallel_threads(self):
        pairs = [(self.chain(5000), self.chain(5000), True),
                 (self.chain(5000), self.chain(5000, last="y"), False),
                 (self.chain(40), self.chain(40), True)]
        results = []

        def compare():
            for _ in range(3):
                results.extend((a == b) is want for a, b, want in pairs)

        threads = [threading.Thread(target=compare) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [True] * 36

    def test_different_classes_and_kept_hashes(self):
        assert Skip() != Assign("x", Const(0))
        a, b = Assign("x", Const(1)), Assign("x", Const(2))
        hash(a), hash(b)
        assert a != b and Assign("x", Const(1)) == a


class TestFailFast:
    def test_profile_refuses_an_oversized_program_before_its_own_work(self, monkeypatch):
        from ngclab import semantics, syntax

        def refuse(*args):
            raise AssertionError("built a table over the node budget")

        monkeypatch.setattr(syntax, "assign_table", refuse)
        monkeypatch.setattr(semantics, "guard_to_predicate", refuse)
        # a single statement over more states than the budget
        space = StateSpace(("x", "y", "z"), 101)
        for p in (Skip(), Assign("x", Var("y"))):
            with pytest.raises(BudgetExceededError,
                               match=r"^states x program nodes = 1030301 x 1 exceeds "
                                     r"the budget of 1000000$"):
                profile(p, space)
        # the body fits, the loop around it does not: refused before its guard
        space = StateSpace(("x", "y", "z"), 80)
        loop = While(Cmp("!=", Var("x"), Const(0)), Diverge())
        with pytest.raises(BudgetExceededError, match=r"= 512000 x 2 exceeds"):
            profile(loop, space)
