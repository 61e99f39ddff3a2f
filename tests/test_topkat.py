"""Kleene algebra with top and tests: the five-state worked example, the
algebra axioms checked extensionally, program compilation, the domain and
codomain selectors, and the equation catalog.  The terms, their relational
model and the compiler are the test reference (`kat_reference`); the
catalog's rectangle evaluator (`ngclab.topkat`) is checked against it."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ngclab import Predicate, Relation, StateSpace, check_equation, parse_program
from ngclab import topkat
from ngclab.generators import GeneratorConfig, generate_programs, random_program
from ngclab.semantics import Profile, profile
from ngclab.topkat import EQUATIONS, catalog_values

from kat_reference import (
    Chains,
    Dot,
    MalformedTermError,
    NotT,
    One,
    Plus,
    Prim,
    Star,
    Top,
    Zero,
    codomain,
    compile_kat,
    compose,
    domain,
    empty,
    eval_kat,
    from_pairs,
    identity,
    leq,
    reference_values,
    star,
    top,
    union,
)
from kat_reference import Test as KatTest  # aliased so pytest does not collect it
from profile_reference import reference_profile

# the worked five-state example: states are labeled 1..5, indices 0..4
FIVE = StateSpace(("s",), 5)
B5 = Predicate.from_indices(FIVE, [0, 1, 2])
C5 = Predicate.from_indices(FIVE, [1, 2, 3])
P5 = from_pairs(5, [(0, 0), (1, 1), (2, 1), (3, 2), (3, 3)])
# a program whose relation is P5, for `check_equation`, which takes programs
P5_PROGRAM = parse_program("if s = 2 { s := 1 } else { if s = 3 { { skip } [] { s := 2 } }"
                           " else { if s = 4 { diverge } else { skip } } }", FIVE)


# catalog metadata: syntactic moves connecting the equation schemas.
# "flip" carries the top element to the other side while swapping the
# pre/post roles; "insert-program" adds the program on the right-hand side,
# trading the liberal reading for the non-liberal one; "swap-negate"
# exchanges the pre-program prefix with the program-post suffix and negates
# all tests, trading angelic for demonic resolution.
EQUATION_TRANSFORMATIONS = (
    ("flip", "PARTIAL_CORRECTNESS", "DEMONIC_PARTIAL_INCORRECTNESS"),
    ("flip", "LISBON", "INCORRECTNESS"),
    ("flip", "IN_BETWEEN", "ANGELIC_PARTIAL_INCORRECTNESS"),
    ("insert-program", "LISBON", "IN_BETWEEN"),
    ("insert-program", "INCORRECTNESS", "ANGELIC_PARTIAL_INCORRECTNESS"),
    ("insert-program", "DSLP_UB", "DSP_UB"),
    ("swap-negate", "ANGELIC_PARTIAL_INCORRECTNESS", "DEMONIC_PARTIAL_INCORRECTNESS"),
)


def rel(pairs, n=5):
    return from_pairs(n, pairs)


class TestWorkedExample:
    def test_plain_composition(self):
        term = Dot(Dot(KatTest(B5), Prim(P5)), KatTest(C5))
        assert eval_kat(term, FIVE) == rel([(1, 1), (2, 1)])

    def test_top_on_the_left_selects_codomain(self):
        term = Dot(Top(), Dot(Dot(KatTest(B5), Prim(P5)), KatTest(C5)))
        assert eval_kat(term, FIVE) == rel([(s, 1) for s in range(5)])

    def test_top_on_the_right_selects_domain(self):
        term = Dot(Dot(Dot(KatTest(B5), Prim(P5)), KatTest(C5)), Top())
        assert eval_kat(term, FIVE) == rel([(1, t) for t in range(5)]
                                           + [(2, t) for t in range(5)])

    def test_domain_and_codomain_of_the_composite(self):
        bpc = eval_kat(Dot(Dot(KatTest(B5), Prim(P5)), KatTest(C5)), FIVE)
        assert codomain(bpc, FIVE) == Predicate.from_indices(FIVE, [1])
        assert domain(bpc, FIVE) == Predicate.from_indices(FIVE, [1, 2])

    def test_partial_correctness_fails_here(self):
        # codomain of top;b;p;c is {2}; codomain of top;b;p is {1,2}
        assert check_equation("PARTIAL_CORRECTNESS", B5, P5_PROGRAM, C5) is False


def random_term(rng, space, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            return Zero()
        if roll < 0.3:
            return One()
        if roll < 0.4:
            return Top()
        if roll < 0.7:
            return KatTest(Predicate(space, rng.randrange(1 << space.size)))
        pairs = [(a, b) for a in range(space.size) for b in range(space.size)
                 if rng.random() < 0.3]
        return Prim(from_pairs(space.size, pairs))
    roll = rng.random()
    if roll < 0.35:
        return Plus(random_term(rng, space, depth - 1), random_term(rng, space, depth - 1))
    if roll < 0.7:
        return Dot(random_term(rng, space, depth - 1), random_term(rng, space, depth - 1))
    if roll < 0.9:
        return Star(random_term(rng, space, depth - 1))
    return NotT(random_test_term(rng, space, depth - 1))


def random_test_term(rng, space, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            return Zero()
        if roll < 0.3:
            return One()
        return KatTest(Predicate(space, rng.randrange(1 << space.size)))
    roll = rng.random()
    if roll < 0.35:
        return Plus(random_test_term(rng, space, depth - 1),
                    random_test_term(rng, space, depth - 1))
    if roll < 0.7:
        return Dot(random_test_term(rng, space, depth - 1),
                   random_test_term(rng, space, depth - 1))
    return NotT(random_test_term(rng, space, depth - 1))


SPACE3 = StateSpace(("x",), 3)


class TestAxioms:
    """The algebra laws, evaluated extensionally on random terms."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_semiring_laws(self, seed):
        rng = random.Random(seed)
        a = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        b = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        c = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        zero = empty(3)
        one = identity(3)
        assert union(union(a, b), c) == union(a, union(b, c))
        assert union(a, b) == union(b, a)
        assert union(a, a) == a
        assert union(a, zero) == a
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, one) == compose(one, a) == a
        assert compose(a, zero) == compose(zero, a) == zero
        assert compose(a, union(b, c)) == union(compose(a, b), compose(a, c))
        assert compose(union(a, b), c) == union(compose(a, c), compose(b, c))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_star_inequalities(self, seed):
        """1 + a a* <= a*, 1 + a* a <= a*, and both induction rules."""
        rng = random.Random(seed)
        a = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        x = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        one = identity(3)
        a_star = star(a)
        assert leq(union(one, compose(a, a_star)), a_star)
        assert leq(union(one, compose(a_star, a)), a_star)
        if leq(compose(a, x), x):
            assert leq(compose(a_star, x), x)
        if leq(compose(x, a), x):
            assert leq(compose(x, a_star), x)
        # a constructed instance keeps the conditional rules non-vacuous
        y = compose(a_star, x)
        assert leq(compose(a, y), y) and leq(compose(a_star, y), y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_top_absorbs(self, seed):
        rng = random.Random(seed)
        a = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        assert leq(a, top(3))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_boolean_subalgebra(self, seed):
        rng = random.Random(seed)
        t = random_test_term(rng, SPACE3, 2)
        value = eval_kat(t, SPACE3)
        comp = eval_kat(NotT(t), SPACE3)
        one = identity(3)
        assert union(value, comp) == one
        assert compose(value, comp) == empty(3)
        assert eval_kat(NotT(NotT(t)), SPACE3) == value

    def test_negation_of_a_program_term_is_rejected(self):
        bad = NotT(Prim(identity(3)))
        with pytest.raises(MalformedTermError):
            eval_kat(bad, SPACE3)


class TestCompile:
    def test_skip_compiles_to_one(self):
        assert compile_kat(parse_program("skip", SPACE3), SPACE3) == One()

    def test_diverge_compiles_to_zero(self):
        assert compile_kat(parse_program("diverge", SPACE3), SPACE3) == Zero()

    def test_countdown_loop_matches_denotation(self):
        p = parse_program("while x != 0 { x := x - 1 }", SPACE3)
        assert compiled_relation(p, SPACE3).rows == (1, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_compile_agrees_with_denotation(self, seed):
        """eval_kat(compile_kat(p)) equals the relational denotation."""
        rng = random.Random(seed)
        compiled_relation(random_program(rng, SPACE3, 4, loops=True), SPACE3)

    def test_compile_agrees_on_the_depth_3_corpus(self):
        config = GeneratorConfig(("x",), 2, max_depth=3)
        for p in random.Random(2026).sample(list(generate_programs(config)), 600):
            compiled_relation(p, config.space())

    def test_compile_agrees_on_random_loop_programs(self):
        config = GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True, mode="random",
                                 seed=2025, count=600)
        for p in generate_programs(config):
            compiled_relation(p, config.space())


def compiled_relation(p, space):
    """eval_kat(compile_kat(p)), checked as a third route to p's relation
    against the reference pass's rows and the profile's relation."""
    value = eval_kat(compile_kat(p, space), space)
    rows, _, _ = reference_profile(p, space)
    assert value.rows == rows
    assert value == profile(p, space).relation
    return value


class TestSelectors:
    def test_domain_of_identity(self):
        assert domain(identity(3), SPACE3) == Predicate.universe(SPACE3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_top_selector_laws(self, seed):
        """r;top is domain(r) x everything; top;r is everything x codomain(r)."""
        rng = random.Random(seed)
        r = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        top3 = top(3)
        dom = domain(r, SPACE3)
        cod = codomain(r, SPACE3)
        assert compose(r, top3) == from_pairs(
            3, [(i, j) for i in dom.indices() for j in range(3)])
        assert compose(top3, r) == from_pairs(
            3, [(i, j) for i in range(3) for j in cod.indices()])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_top_equality_reduces_to_selector_equality(self, seed):
        rng = random.Random(seed)
        s = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        t = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        top3 = top(3)
        assert (compose(top3, s) == compose(top3, t)) == (s.codomain_bits() == t.codomain_bits())
        assert (compose(s, top3) == compose(t, top3)) == (s.domain_bits() == t.domain_bits())


class TestEquationCatalog:
    def test_lisbon_with_identity_program(self):
        b = Predicate.from_indices(SPACE3, [0, 1])
        skip = parse_program("skip", SPACE3)
        assert check_equation("LISBON", b, skip, b) is True

    def test_incorrectness_of_diverge(self):
        diverge = parse_program("diverge", SPACE3)
        empty = Predicate.empty(SPACE3)
        some = Predicate.from_indices(SPACE3, [1])
        sigma = Predicate.universe(SPACE3)
        assert check_equation("INCORRECTNESS", sigma, diverge, empty) is True
        assert check_equation("INCORRECTNESS", sigma, diverge, some) is False

    def test_unknown_equation_rejected(self):
        with pytest.raises(KeyError):
            check_equation("NO_SUCH_EQ", B5, P5_PROGRAM, C5)

    def test_unknown_equation_rejected_before_the_profile_is_built(self):
        # 101^3 states times one node is over the profile budget
        space = StateSpace(("x", "y", "z"), 101)
        p = parse_program("x := x + 1", space)
        empty = Predicate.empty(space)
        with pytest.raises(KeyError):
            check_equation("NO_SUCH_EQ", empty, p, empty)

    def test_all_catalog_ids_evaluate(self):
        from ngclab import EQUATIONS

        for eq in EQUATIONS:
            assert check_equation(eq, B5, P5_PROGRAM, C5) in (True, False)

    def test_the_example_program_has_the_example_relation(self):
        assert profile(P5_PROGRAM, FIVE).relation == P5

    def test_a_raw_relation_is_not_a_program(self):
        with pytest.raises(TypeError, match="^not a program: "):
            check_equation("LISBON", B5, P5, C5)

    def test_transformation_metadata_stays_inside_the_catalog(self):
        from ngclab import EQUATIONS

        for move, src, dst in EQUATION_TRANSFORMATIONS:
            assert move in ("flip", "insert-program", "swap-negate")
            assert src in EQUATIONS and dst in EQUATIONS


def _catalog_terms(b, rel, c):
    """Each catalog equation as KatTerm sides: (left, right, sides equal)
    clauses that must all hold."""
    tb, p, tc, top = KatTest(b), Prim(rel), KatTest(c), Top()
    nb, nc = NotT(tb), NotT(tc)

    def seq(*terms):
        return reduce(Dot, terms)

    return {
        "LISBON": [(seq(tb, p, tc, top), seq(tb, top), True)],
        "PARTIAL_CORRECTNESS": [(seq(top, tb, p, tc), seq(top, tb, p), True)],
        "PC_CONTRA": [(seq(nb, p, nc, top), seq(p, nc, top), True)],
        "DWLP_UB": [(seq(nb, p, nc, top), seq(nb, top), True)],
        "INCORRECTNESS": [(seq(top, tb, p, tc), seq(top, tc), True)],
        "ANGELIC_PARTIAL_INCORRECTNESS": [(seq(top, tb, p, tc), seq(top, p, tc), True)],
        "DEMONIC_PARTIAL_INCORRECTNESS": [(seq(tb, p, tc, top), seq(p, tc, top), True)],
        "DSLP_UB": [(seq(top, nb, p, nc), seq(top, nc), True)],
        "DSP_UB": [(seq(top, nb, p, nc), seq(top, p, nc), True)],
        "IN_BETWEEN": [(seq(tb, p, tc, top), seq(tb, p, top), True)],
        "DEMONIC_INCORRECTNESS": [(seq(tb, p, tc, top), seq(p, tc, top), True),
                                  (seq(top, tc), seq(top, p, tc), True)],
        "OUTCOME_CONJUNCTION": [(seq(tb, p, tc), Zero(), False),
                                (seq(tb, p, nc), Zero(), True)],
    }


def _assert_evaluators_agree(b, rel, c, space):
    """eval_kat of both sides of every clause, the full-composition reference
    and the rectangle evaluator give the same value for every equation."""
    terms = _catalog_terms(b, rel, c)
    assert set(terms) == set(EQUATIONS)
    expected = tuple(
        all((eval_kat(left, space) == eval_kat(right, space)) == equal
            for left, right, equal in terms[eq])
        for eq in EQUATIONS
    )
    assert reference_values(rel, b.bits, c.bits) == expected, (rel, b, c)
    tables = Profile(space, rel, 0)
    assert catalog_values(tables, b.bits, c.bits, space.full_mask) == expected, (rel, b, c)


@pytest.mark.parametrize("n", range(1, 10))
def test_shared_chain_evaluator_matches_eval_kat(n):
    """The rectangle evaluator (catalog_values) and the
    shared-chain full-composition reference against eval_kat of both sides
    of every equation, on seeded random relations and predicates."""
    space = StateSpace(("x",), n)
    rng = random.Random(6000 + n)
    for trial in range(25):
        density = rng.choice((0.0, 0.15, 0.4, 0.8))
        rel = from_pairs(n, [(i, j) for i in range(n) for j in range(n)
                             if rng.random() < density])
        b = Predicate(space, rng.randrange(1 << n))
        c = Predicate(space, rng.randrange(1 << n))
        _assert_evaluators_agree(b, rel, c, space)


def test_catalog_over_the_profiles_of_diverging_programs():
    """The catalog read off a profile's tables, whose demonic and liberal
    entries see its may-divergence, against the full-composition reference
    on its relation, on random loop programs that may diverge."""
    config = GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True, mode="random",
                             seed=6300, count=300)
    space = config.space()
    rng = random.Random(6300)
    diverging = 0
    for p in generate_programs(config):
        prof = profile(p, space)
        if not prof.may_div:
            continue
        diverging += 1
        for _ in range(4):
            b, c = rng.randrange(1 << space.size), rng.randrange(1 << space.size)
            assert (catalog_values(prof, b, c, space.full_mask)
                    == reference_values(prof.relation, b, c)), (p, b, c)
    assert diverging >= 30


def _corner_relations(n):
    full = (1 << n) - 1
    return [
        empty(n),
        identity(n),
        top(n),
        # every row empty but the last, which relates to everything
        Relation(n, (0,) * (n - 1) + (full,)),
        # the odd states have empty rows, the even ones step to their successor
        Relation(n, tuple(0 if i % 2 else 1 << (i + 1) % n for i in range(n))),
    ]


@pytest.mark.parametrize("n", range(1, 10))
def test_rectangle_evaluator_corner_cases(n):
    """The empty, identity and top relations and relations with empty rows,
    with empty and full pre- and postconditions and a seeded third one."""
    space = StateSpace(("x",), n)
    rng = random.Random(6100 + n)
    masks = (0, space.full_mask, rng.randrange(1 << n))
    for rel in _corner_relations(n):
        for b in masks:
            for c in masks:
                _assert_evaluators_agree(Predicate(space, b), rel, Predicate(space, c), space)


# words outside the catalog: every u T v over these halves, compared pairwise,
# reaches rectangles with an empty side on either end, and the T-free words
# are compared with 0
_HALVES = ("", "b", "C", "p", "0", "bp", "pc", "Bp", "pCp")
_TOP_WORDS = tuple(u + "T" + v for u in _HALVES for v in _HALVES)
_FREE_WORDS = ("0", "b", "p", "bp", "pc", "bpc", "BpC", "b0p", "pcp")


def test_rectangle_compiler_on_words_outside_the_catalog():
    clauses = [(left, right, True) for left in _TOP_WORDS for right in _TOP_WORDS]
    clauses += [(word, "0", True) for word in _FREE_WORDS]
    plan = topkat._compile({i: (clause,) for i, clause in enumerate(clauses)})
    rng = random.Random(6200)
    for n in (1, 2, 4):
        relations = _corner_relations(n)
        relations += [from_pairs(n, [(i, j) for i in range(n) for j in range(n)
                                     if rng.random() < 0.3]) for _ in range(3)]
        for rel in relations:
            for b, c in ((0, 0), (0, (1 << n) - 1), ((1 << n) - 1, 0),
                         (rng.randrange(1 << n), rng.randrange(1 << n))):
                chains = Chains(rel, b, c)
                expected = tuple((chains[left] == chains[right]) == equal
                                 for left, right, equal in clauses)
                tables = Profile(StateSpace(("x",), n), rel, 0)
                assert topkat._evaluate(plan, tables, b, c, (1 << n) - 1) == expected, (rel, b, c)


@pytest.mark.parametrize("clause", [("bTpT", "bT", True), ("bp", "pc", True), ("bpT", "b", True)])
def test_rectangle_compiler_rejects_clauses_it_cannot_decide(clause):
    with pytest.raises(ValueError):
        topkat._compile({"BAD": (clause,)})
