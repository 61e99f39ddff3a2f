"""Triple validity under the eighteen logics and the assumption classifiers."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ngclab import (
    ALL_LOGICS,
    Predicate,
    StateSpace,
    Triple,
    classify,
    holds,
    logic_by_name,
    parse_program,
)
from ngclab.generators import random_program
from ngclab.logics import (
    ASP_LB, AWP_LB, CONTRAPOSITIVE, DWLP_LB, DWP_LB, GALOIS, Flag, validity_sets, violations,
)
from ngclab.semantics import _class, profile

from profile_reference import reference_profile

SPACE = StateSpace(("x",), 3)
SIGMA = Predicate.universe(SPACE)


def prog(text, space=SPACE):
    return parse_program(text, space)


def pred(indices, space=SPACE):
    return Predicate.from_indices(space, indices)


def semantic_determinism(p, space):
    """At most one outcome per state: image a singleton, or certain
    divergence.  The determinism collapse filters on the syntactic notion;
    this semantic one shows that the two differ."""
    prof = profile(p, space)
    for i, row in enumerate(prof.relation.rows):
        if row.bit_count() > 1:
            return Flag(False, space.state(i))
        if prof.may_div >> i & 1 and row != 0:
            return Flag(False, space.state(i))
    return Flag(True)


class TestHolds:
    def test_partial_correctness_single_path(self):
        t = Triple(pred([0]), prog("if x = 0 { x := 1 } else { x := 2 }"), pred([1]))
        assert holds(DWLP_LB, t)

    def test_incorrectness_needs_reachability(self):
        space = StateSpace(("x",), 2)
        t = Triple(Predicate.universe(space), prog("x := 0", space),
                   Predicate.from_indices(space, [1]))
        assert not holds(ASP_LB, t)

    def test_angelic_vs_demonic_on_binary_choice(self):
        t = Triple(SIGMA, prog("{ x := 0 } [] { x := 1 }"), pred([0]))
        assert holds(AWP_LB, t)
        assert not holds(DWP_LB, t)

    def test_lookup_by_alias(self):
        assert logic_by_name("lisbon") is AWP_LB
        assert logic_by_name("incorrectness") is ASP_LB
        assert logic_by_name("awp-lb") is AWP_LB

    def test_registry_has_eighteen_logics(self):
        assert len(ALL_LOGICS) == 18
        assert len({logic.name for logic in ALL_LOGICS}) == 18

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    def test_contrapositive_pairs(self, seed, bbits, cbits):
        """Validity carries over to the partner logic on the negated triple."""
        rng = random.Random(seed)
        t = Triple(Predicate(SPACE, bbits), random_program(rng, SPACE, 4, True),
                   Predicate(SPACE, cbits))
        for logic, partner in CONTRAPOSITIVE.items():
            assert holds(logic, t) == holds(partner, t.negated())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    def test_galois_pairs_agree_on_every_triple(self, seed, bbits, cbits):
        rng = random.Random(seed)
        t = Triple(Predicate(SPACE, bbits), random_program(rng, SPACE, 4, True),
                   Predicate(SPACE, cbits))
        for logic, partner in GALOIS.items():
            assert holds(logic, t) == holds(partner, t)


# --- the per-class kernel against the per-pair one ----------------------------

def _kernel_sets(prof):
    """Per logic, the valid pairs of the class by the per-pair kernel,
    pre-major (bit b * P + c) and post-major (bit c * P + b)."""
    npred, full = 1 << prof.space.size, prof.space.full_mask
    pre_major, post_major = dict.fromkeys(ALL_LOGICS, 0), dict.fromkeys(ALL_LOGICS, 0)
    for b in range(npred):
        for c in range(npred):
            for logic, mask in zip(ALL_LOGICS, violations(ALL_LOGICS, prof[b], prof[c],
                                                          b, c, full)):
                if not mask:
                    pre_major[logic] |= 1 << b * npred + c
                    post_major[logic] |= 1 << c * npred + b
    return pre_major, post_major


def _assert_sets_match_kernel(space, rows, may):
    prof = _class(space, rows, may)
    pre_major, post_major = _kernel_sets(prof)
    assert dict(zip(ALL_LOGICS, validity_sets(ALL_LOGICS, prof))) == pre_major, (rows, may)
    assert dict(zip(ALL_LOGICS, validity_sets(ALL_LOGICS, prof, post_major=True))) \
        == post_major, (rows, may)


def _random_class(rng, n):
    """Relation rows, and a may-divergence covering the states with no final state."""
    rows = tuple(rng.randrange(1 << n) for _ in range(n))
    stuck = sum(1 << i for i, row in enumerate(rows) if not row)
    return rows, stuck | rng.randrange(1 << n)


@pytest.mark.parametrize("modulus", [1, 2])
def test_validity_sets_match_the_kernel_on_every_small_class(modulus):
    """Every class over one and two states: every rows tuple, and every
    may-divergence that covers the states with no final state."""
    space = StateSpace(("x",), modulus)
    n = space.size
    for rows in product(range(1 << n), repeat=n):
        stuck = sum(1 << i for i, row in enumerate(rows) if not row)
        for may in range(1 << n):
            if may & stuck == stuck:
                _assert_sets_match_kernel(space, rows, may)


@pytest.mark.parametrize("space, count", [(StateSpace(("x",), 3), 200),
                                          (StateSpace(("x", "y"), 2), 20)])
def test_validity_sets_match_the_kernel_on_random_classes(space, count):
    rng = random.Random(3170 + space.size)
    for _ in range(count):
        _assert_sets_match_kernel(space, *_random_class(rng, space.size))


class TestClassify:
    def test_skip_satisfies_everything(self):
        flags = classify(prog("skip"), SPACE)
        assert flags.termination.holds
        assert flags.reachability.holds
        assert flags.determinism.holds
        assert flags.reversibility.holds
        assert flags.no_branching_divergence.holds

    def test_binary_choice_assumptions(self):
        flags = classify(prog("{ x := 0 } [] { x := 1 }"), SPACE)
        assert flags.termination.holds
        assert not flags.determinism.holds
        assert not flags.reversibility.holds  # x=0 has three origins
        assert not flags.reachability.holds   # x=2 never comes out
        assert flags.no_branching_divergence.holds

    def test_branching_divergence_detected_with_witness(self):
        flags = classify(prog("{ x := 0 } [] { diverge }"), SPACE)
        assert not flags.no_branching_divergence.holds
        assert flags.no_branching_divergence.witness is not None

    def test_scoped_termination(self):
        p = prog("if x = 0 { diverge } else { skip }")
        assert not classify(p, SPACE).termination.holds
        assert classify(p, SPACE, scope_pre=pred([1, 2])).termination.holds

    def test_scoped_reachability(self):
        p = prog("x := 0")
        assert not classify(p, SPACE).reachability.holds
        assert classify(p, SPACE, scope_post=pred([0])).reachability.holds

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=7))
    def test_scoped_assumptions_match_their_definitions(self, seed, pre, post):
        """Termination and branching divergence are read over the
        precondition scope, reachability and reversibility over the
        postcondition scope, each off the operational reference; the witness
        is the lowest breaking state."""
        p = random_program(random.Random(seed), SPACE, 4, True)
        rows, may, must = reference_profile(p, SPACE)
        flags = classify(p, SPACE, Predicate(SPACE, pre), Predicate(SPACE, post))

        def expect(flag, scope, breaks):
            bad = [i for i in range(SPACE.size) if scope >> i & 1 and breaks(i)]
            assert flag == Flag(not bad, SPACE.state(bad[0]) if bad else None), (p, pre, post)

        expect(flags.termination, pre, lambda i: may >> i & 1)
        expect(flags.no_branching_divergence, pre, lambda i: may >> i & 1 and rows[i])
        expect(flags.reachability, post, lambda j: not any(row >> j & 1 for row in rows))
        expect(flags.reversibility, post, lambda j: sum(row >> j & 1 for row in rows) > 1)

    def test_semantic_determinism_differs_from_syntactic(self):
        # a choice between identical branches is semantically deterministic
        p = prog("{ x := 0 } [] { x := 0 }")
        assert classify(p, SPACE).determinism.holds is False
        assert semantic_determinism(p, SPACE).holds is True
