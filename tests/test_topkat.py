"""The relational algebra with top and tests: the five-state worked example,
the algebra axioms checked extensionally, program compilation, the domain and
codomain selectors, and the equation catalog."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ngclab import (
    MalformedTermError,
    Predicate,
    Relation,
    StateSpace,
    check_equation,
    codomain,
    compile_kat,
    denote_relation,
    domain,
    eval_kat,
    parse_program,
)
from ngclab import topkat
from ngclab.generators import random_program
from ngclab.topkat import EQUATIONS, Dot, NotT, One, Plus, Prim, Star, Top, Zero, catalog_values
from ngclab.topkat import Test as KatTest  # aliased so pytest does not collect it

from kat_reference import Chains, reference_values

# the worked five-state example: states are labeled 1..5, indices 0..4
FIVE = StateSpace(("s",), 5)
B5 = Predicate.from_indices(FIVE, [0, 1, 2])
C5 = Predicate.from_indices(FIVE, [1, 2, 3])
P5 = Relation.from_pairs(5, [(0, 0), (1, 1), (2, 1), (3, 2), (3, 3)])


def rel(pairs, n=5):
    return Relation.from_pairs(n, pairs)


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
        assert check_equation("PARTIAL_CORRECTNESS", B5, P5, C5) is False


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
        return Prim(Relation.from_pairs(space.size, pairs))
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
        zero = Relation.empty(3)
        one = Relation.identity(3)
        assert (a | b) | c == a | (b | c)
        assert a | b == b | a
        assert a | a == a
        assert a | zero == a
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(one) == one.compose(a) == a
        assert a.compose(zero) == zero.compose(a) == zero
        assert a.compose(b | c) == a.compose(b) | a.compose(c)
        assert (a | b).compose(c) == a.compose(c) | b.compose(c)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_star_inequalities(self, seed):
        """1 + a a* <= a*, 1 + a* a <= a*, and both induction rules."""
        rng = random.Random(seed)
        a = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        x = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        one = Relation.identity(3)
        star = a.star()
        assert one | a.compose(star) <= star
        assert one | star.compose(a) <= star
        if a.compose(x) <= x:
            assert star.compose(x) <= x
        if x.compose(a) <= x:
            assert x.compose(star) <= x
        # a constructed instance keeps the conditional rules non-vacuous
        y = star.compose(x)
        assert a.compose(y) <= y and star.compose(y) <= y

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_top_absorbs(self, seed):
        rng = random.Random(seed)
        a = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        assert a <= Relation.top(3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_boolean_subalgebra(self, seed):
        rng = random.Random(seed)
        t = random_test_term(rng, SPACE3, 2)
        value = eval_kat(t, SPACE3)
        comp = eval_kat(NotT(t), SPACE3)
        one = Relation.identity(3)
        assert value | comp == one
        assert value.compose(comp) == Relation.empty(3)
        assert eval_kat(NotT(NotT(t)), SPACE3) == value

    def test_negation_of_a_program_term_is_rejected(self):
        bad = NotT(Prim(Relation.identity(3)))
        with pytest.raises(MalformedTermError):
            eval_kat(bad, SPACE3)


class TestCompile:
    def test_skip_compiles_to_one(self):
        assert compile_kat(parse_program("skip", SPACE3), SPACE3) == One()

    def test_diverge_compiles_to_zero(self):
        assert compile_kat(parse_program("diverge", SPACE3), SPACE3) == Zero()

    def test_countdown_loop_matches_denotation(self):
        p = parse_program("while x != 0 { x := x - 1 }", SPACE3)
        term = compile_kat(p, SPACE3)
        assert eval_kat(term, SPACE3) == denote_relation(p, SPACE3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_compile_agrees_with_denotation(self, seed):
        """eval_kat(compile_kat(p)) equals the relational denotation."""
        rng = random.Random(seed)
        p = random_program(rng, SPACE3, 4, loops=True)
        assert eval_kat(compile_kat(p, SPACE3), SPACE3) == denote_relation(p, SPACE3)


class TestSelectors:
    def test_domain_of_identity(self):
        assert domain(Relation.identity(3), SPACE3) == Predicate.universe(SPACE3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_top_selector_laws(self, seed):
        """r;top is domain(r) x everything; top;r is everything x codomain(r)."""
        rng = random.Random(seed)
        r = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        top = Relation.top(3)
        dom = domain(r, SPACE3)
        cod = codomain(r, SPACE3)
        assert r.compose(top) == Relation.from_pairs(
            3, [(i, j) for i in dom.indices() for j in range(3)])
        assert top.compose(r) == Relation.from_pairs(
            3, [(i, j) for i in range(3) for j in cod.indices()])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_top_equality_reduces_to_selector_equality(self, seed):
        rng = random.Random(seed)
        s = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        t = eval_kat(random_term(rng, SPACE3, 2), SPACE3)
        top = Relation.top(3)
        assert (top.compose(s) == top.compose(t)) == (s.codomain_bits() == t.codomain_bits())
        assert (s.compose(top) == t.compose(top)) == (s.domain_bits() == t.domain_bits())


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
            check_equation("NO_SUCH_EQ", B5, P5, C5)

    def test_all_catalog_ids_evaluate(self):
        from ngclab import EQUATIONS

        for eq in EQUATIONS:
            assert check_equation(eq, B5, P5, C5) in (True, False)

    def test_transformation_metadata_stays_inside_the_catalog(self):
        from ngclab import EQUATIONS
        from ngclab.topkat import EQUATION_TRANSFORMATIONS

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
    assert catalog_values(rel, b.bits, c.bits) == expected, (rel, b, c)
    assert tuple(check_equation(eq, b, rel, c) for eq in EQUATIONS) == expected, (rel, b, c)


@pytest.mark.parametrize("n", range(1, 10))
def test_shared_chain_evaluator_matches_eval_kat(n):
    """The rectangle evaluator (catalog_values, check_equation) and the
    shared-chain full-composition reference against eval_kat of both sides
    of every equation, on seeded random relations and predicates."""
    space = StateSpace(("x",), n)
    rng = random.Random(6000 + n)
    for trial in range(25):
        density = rng.choice((0.0, 0.15, 0.4, 0.8))
        rel = Relation.from_pairs(n, [(i, j) for i in range(n) for j in range(n)
                                      if rng.random() < density])
        b = Predicate(space, rng.randrange(1 << n))
        c = Predicate(space, rng.randrange(1 << n))
        _assert_evaluators_agree(b, rel, c, space)


def _corner_relations(n):
    full = (1 << n) - 1
    return [
        Relation.empty(n),
        Relation.identity(n),
        Relation.top(n),
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
        relations += [Relation.from_pairs(n, [(i, j) for i in range(n) for j in range(n)
                                              if rng.random() < 0.3]) for _ in range(3)]
        for rel in relations:
            for b, c in ((0, 0), (0, (1 << n) - 1), ((1 << n) - 1, 0),
                         (rng.randrange(1 << n), rng.randrange(1 << n))):
                chains = Chains(rel, b, c)
                expected = tuple((chains[left] == chains[right]) == equal
                                 for left, right, equal in clauses)
                assert topkat._evaluate(plan, rel, b, c) == expected, (rel, b, c)


@pytest.mark.parametrize("clause", [("bTpT", "bT", True), ("bp", "pc", True), ("bpT", "b", True)])
def test_rectangle_compiler_rejects_clauses_it_cannot_decide(clause):
    with pytest.raises(ValueError):
        topkat._compile({"BAD": (clause,)})
