"""The acceptance gate: eight criteria, one test and one printed verdict line
each.  Tolerances and budgets are pinned here; nothing is deferred.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from ngclab import (
    CorpusConfig,
    GeneratorConfig,
    Predicate,
    SearchConfig,
    StateSpace,
    Triple,
    TransformerKind,
    appendix_c_claims,
    check_theorem,
    find_counterexample,
    holds,
    inductive_transform,
    oracle_transform,
    parse_program,
)
from ngclab.cli import main
from ngclab.generators import all_predicates, generate_programs
from ngclab.logics import DWP_LB
from ngclab.semantics import profile
from ngclab.theorems import THEOREM_IDS
from kat_reference import (
    Dot,
    Prim,
    Top,
    compile_kat,
    compose,
    empty,
    eval_kat,
    from_pairs,
    from_test,
    identity,
    leq,
    star,
    top,
    union,
)
from kat_reference import Test as KatTest

# the two corpora shared by criteria 2, 3, 4, and 7
COLLAPSE_IDS = THEOREM_IDS[4:10]    # the six collapse theorems
EXHAUSTIVE = CorpusConfig(GeneratorConfig(("x",), 2, max_depth=3))
LOOPS = CorpusConfig(
    GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True,
                    mode="random", seed=2025, count=10_000),
    predicate_mode="sample",
    predicate_pairs=3,
    predicate_seed=2025,
)
LOOPS_DIFFERENTIAL_PREDICATES = 2  # sampled postconditions per random program
SEARCH_BUDGET = 100_000


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


def test_criterion_1_worked_example_fidelity():
    with criterion(1, "worked-example fidelity"):
        started = time.perf_counter()
        space = StateSpace(("s",), 5)  # states labeled 1..5 live at indices 0..4
        b = Predicate.from_indices(space, [0, 1, 2])
        c = Predicate.from_indices(space, [1, 2, 3])
        p = from_pairs(5, [(0, 0), (1, 1), (2, 1), (3, 2), (3, 3)])

        bpc = eval_kat(Dot(Dot(KatTest(b), Prim(p)), KatTest(c)), space)
        assert bpc == from_pairs(5, [(1, 1), (2, 1)])

        top_bpc = eval_kat(Dot(Top(), Dot(Dot(KatTest(b), Prim(p)), KatTest(c))), space)
        assert top_bpc == from_pairs(5, [(s, 1) for s in range(5)])

        bpc_top = eval_kat(Dot(Dot(Dot(KatTest(b), Prim(p)), KatTest(c)), Top()), space)
        assert bpc_top == from_pairs(
            5, [(1, t) for t in range(5)] + [(2, t) for t in range(5)])

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"worked example took {elapsed:.3f}s"


def test_criterion_2_oracle_inductive_agreement():
    with criterion(2, "oracle/inductive agreement"):
        started = time.perf_counter()
        space = EXHAUSTIVE.space()
        predicates = list(all_predicates(space))
        programs = 0
        for p in generate_programs(EXHAUSTIVE.programs):
            programs += 1
            for q in predicates:
                for kind in TransformerKind:
                    assert inductive_transform(kind, p, q) == oracle_transform(kind, p, q), (
                        f"{kind} disagrees on {p!r} at {q!r}"
                    )
        assert programs > 40_000  # the full depth-3 enumeration

        loop_space = LOOPS.space()
        rng = random.Random(LOOPS.predicate_seed + 1)
        loop_programs = 0
        for p in generate_programs(LOOPS.programs):
            loop_programs += 1
            for _ in range(LOOPS_DIFFERENTIAL_PREDICATES):
                q = Predicate(loop_space, rng.randrange(1 << loop_space.size))
                for kind in TransformerKind:
                    assert inductive_transform(kind, p, q) == oracle_transform(kind, p, q), (
                        f"{kind} disagrees on {p!r} at {q!r}"
                    )
        assert loop_programs >= 10_000

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"agreement scan took {elapsed:.0f}s"


@pytest.mark.parametrize("corpus_name,corpus", [
    ("exhaustive", EXHAUSTIVE),
    ("loops", LOOPS),
])
@pytest.mark.parametrize("theorem", [
    "ORDERING", "CONTRAPOSITIVE", "GALOIS_PC", "GALOIS_PI",
    "COMBO_IDENTITIES", "FIG4_IMPLICATIONS", "BRIDGES", "REMARK_DIVERGING",
])
def test_criterion_3_theorem_suite(theorem, corpus_name, corpus):
    with criterion(3, f"{theorem} on {corpus_name} corpus"):
        verdict = check_theorem(theorem, corpus)
        assert verdict.holds, verdict.witness


@pytest.mark.parametrize("theorem", COLLAPSE_IDS)
def test_criterion_4_collapse_theorems(theorem):
    with criterion(4, f"{theorem} filtered pass plus non-vacuity"):
        verdict = check_theorem(theorem, EXHAUSTIVE)
        assert verdict.holds, verdict.witness
        assert verdict.nonvacuity is not None, "assumption filter was vacuous"
        loops = check_theorem(theorem, LOOPS)
        assert loops.holds, loops.witness


def _reverify_combination_witness(result, combiner):
    space = StateSpace(tuple(result.witness["variables"]), result.witness["modulus"])
    program = parse_program(result.witness["program"], space)
    c = Predicate.from_indices(space, result.witness["post_indices"])
    idx = result.witness["state_index"]
    awp = oracle_transform(TransformerKind.AWP, program, c)
    dwlp = oracle_transform(TransformerKind.DWLP, program, c)
    if combiner == "intersection":
        lhs = oracle_transform(TransformerKind.DWP, program, c)
        rhs = awp & dwlp
    else:
        lhs = oracle_transform(TransformerKind.AWLP, program, c)
        rhs = awp | dwlp
    assert (idx in lhs) != (idx in rhs), "witness does not distinguish the sides"
    # the inductive engine agrees with the re-verified verdict
    kind = TransformerKind.DWP if combiner == "intersection" else TransformerKind.AWLP
    assert inductive_transform(kind, program, c) == lhs


def _reverify_pair_witness(result, left, right):
    space = StateSpace(tuple(result.witness["variables"]), result.witness["modulus"])
    program = parse_program(result.witness["program"], space)
    triple = Triple(
        Predicate.from_indices(space, result.witness["pre_indices"]),
        program,
        Predicate.from_indices(space, result.witness["post_indices"]),
    )
    assert holds(left, triple) != holds(right, triple)


def test_criterion_5_negative_results():
    with criterion(5, "counterexample search with independent re-verification"):
        config = SearchConfig(budget=SEARCH_BUDGET)

        found = find_counterexample("dwp-neq-intersection", config)
        assert found.found and found.candidates <= SEARCH_BUDGET
        _reverify_combination_witness(found, "intersection")

        found = find_counterexample("awlp-neq-union", config)
        assert found.found and found.candidates <= SEARCH_BUDGET
        _reverify_combination_witness(found, "union")

        from ngclab.search import LEGS

        claims = appendix_c_claims()
        assert len(claims) == 91
        must_include = "appendixC:awlpLB-vs-aslpLB-contra"  # the section-4.4 pair
        representative = [must_include] + [c for c in claims if c != must_include][:11]
        assert len(representative) >= 10
        for claim in representative:
            result = find_counterexample(claim, config)
            assert result.found, f"{claim} produced no witness"
            assert result.candidates <= SEARCH_BUDGET
            left_name, right_name = claim[len("appendixC:"):].split("-vs-")
            _reverify_pair_witness(result, LEGS[left_name], LEGS[right_name])

        for claim in ("galois-pc", "galois-pi"):
            result = find_counterexample(claim, config)
            assert not result.found
            assert result.outcome == "budget-exhausted"
            assert result.candidates == SEARCH_BUDGET


def test_criterion_6_total_correctness_relationally_invisible():
    with criterion(6, "relational inexpressibility of total correctness"):
        result = find_counterexample("total-correctness-relational",
                                     SearchConfig(budget=SEARCH_BUDGET))
        assert result.found
        w = result.witness
        space = StateSpace(tuple(w["variables"]), w["modulus"])
        p1 = parse_program(w["program_a"], space)
        p2 = parse_program(w["program_b"], space)
        assert profile(p1, space).relation == profile(p2, space).relation
        triple1 = Triple(Predicate.from_indices(space, w["pre_indices"]), p1,
                         Predicate.from_indices(space, w["post_indices"]))
        triple2 = Triple(triple1.pre, p2, triple1.post)
        assert holds(DWP_LB, triple1) != holds(DWP_LB, triple2)


def test_criterion_7_kat_model_soundness():
    with criterion(7, "algebra axioms and compile/denote agreement"):
        space = StateSpace(("x",), 3)
        n = space.size
        rng = random.Random(41)
        one = identity(n)
        zero = empty(n)

        def rand_rel():
            pairs = [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.3]
            return from_pairs(n, pairs)

        def rand_test():
            return from_test(n, rng.randrange(1 << n))

        terms_checked = 0
        while terms_checked < 1000:
            a, b, c = rand_rel(), rand_rel(), rand_rel()
            terms_checked += 3
            assert union(union(a, b), c) == union(a, union(b, c))
            assert union(a, b) == union(b, a) and union(a, a) == a and union(a, zero) == a
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, one) == a and compose(one, a) == a
            assert compose(a, zero) == zero and compose(zero, a) == zero
            assert compose(a, union(b, c)) == union(compose(a, b), compose(a, c))
            assert compose(union(a, b), c) == union(compose(a, c), compose(b, c))
            assert leq(a, top(n))
            a_star = star(a)
            assert leq(union(one, compose(a, a_star)), a_star)
            assert leq(union(one, compose(a_star, a)), a_star)
            x = rand_rel()
            if leq(compose(a, x), x):
                assert leq(compose(a_star, x), x)
            if leq(compose(x, a), x):
                assert leq(compose(x, a_star), x)
            y = compose(a_star, x)  # constructed premise keeps induction non-vacuous
            assert leq(compose(a, y), y) and leq(compose(a_star, y), y)
            t = rand_test()
            comp = from_test(n, ~t.domain_bits() & space.full_mask)
            assert union(t, comp) == one and compose(t, comp) == zero

        for corpus in (EXHAUSTIVE, LOOPS):
            corpus_space = corpus.space()
            for p in generate_programs(corpus.programs):
                term = compile_kat(p, corpus_space)
                assert eval_kat(term, corpus_space) == profile(p, corpus_space).relation


def test_criterion_8_deterministic_reports(capsys, tmp_path):
    with criterion(8, "byte-identical reports for identical command and seed"):
        args = ["survey", "--suite", "ORDERING,BRIDGES,TERMINATION_COLLAPSE",
                "--corpus", "loops", "--count", "300", "--seed", "99",
                "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first.encode("utf-8") == second.encode("utf-8")
        report = json.loads(first)
        assert report["seed"] == 99
        assert all(item["holds"] for item in report["items"])

        cx = ["counterexample", "--claim", "dwp-neq-intersection",
              "--budget", "5000", "--format", "json"]
        assert main(cx) == 0
        first = capsys.readouterr().out
        assert main(cx) == 0
        second = capsys.readouterr().out
        assert first.encode("utf-8") == second.encode("utf-8")
