"""Triple validity under the eighteen logics and the assumption classifiers."""

import random

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
from ngclab.logics import ASP_LB, AWP_LB, CONTRAPOSITIVE, DWLP_LB, DWP_LB, GALOIS, Flag
from ngclab.semantics import profile

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
