"""`find_counterexample` against a per-triple reference loop, and the lazy
program enumerator, its rows and their classifier against a frontier-set
reference."""

import random
from functools import lru_cache

import pytest

from ngclab import logics, search, semantics
from ngclab.generators import (
    Enumeration, all_predicates, exhaustive_programs, exhaustive_rows, expr_pool, guard_pool,
)
from ngclab.logics import (
    ASP_UB, AWLP_LB, AWP_UB, DSLP_LB, DSP_UB, DWLP_LB, DWP_LB, INTERSECTION_LOGIC,
    Triple, holds, syntactic_choice,
)
from ngclab.relations import Relation
from ngclab.search import SearchConfig, find_counterexample
from ngclab.semantics import classify, profile
from ngclab.space import Predicate, StateSpace
from ngclab.syntax import (
    Assign, Choice, Diverge, Ite, Seq, Skip, While, pretty_program,
)
from ngclab.topkat import check_equation
from ngclab.transformers import TransformerKind, oracle_transform

from oracle_reference import converse, oracle_bits
from profile_reference import count_compositions, stream_keys


# --- reference: one candidate triple at a time, as the search used to run -----

def _ref_triples(config):
    for variables, modulus in config.spaces:
        space = StateSpace(variables, modulus)
        preds = list(all_predicates(space))
        for p in _ref_programs(space, config.max_depth):
            for b in preds:
                for c in preds:
                    yield space, p, b, c


def _ref_witness(space, programs, b, c, detail, **extra):
    out = {
        "space": f"vars {', '.join(space.variables)} mod {space.modulus}",
        "variables": list(space.variables),
        "modulus": space.modulus,
    }
    out.update(programs)
    out.update({
        "pre": repr(b), "pre_indices": sorted(b.indices()),
        "post": repr(c), "post_indices": sorted(c.indices()),
        "detail": detail,
    })
    out.update(extra)
    return out


def _ref_search(claim, config):
    """(outcome, candidates, witness) by the per-triple loop."""
    candidates = 0

    def spend():
        nonlocal candidates
        if candidates >= config.budget:
            return False
        candidates += 1
        return True

    if claim in ("dwp-neq-intersection", "awlp-neq-union"):
        K = TransformerKind
        for variables, modulus in config.spaces:
            space = StateSpace(variables, modulus)
            for p in _ref_programs(space, config.max_depth):
                for c in all_predicates(space):
                    if not spend():
                        return "budget-exhausted", candidates, None
                    awp = oracle_transform(K.AWP, p, c)
                    dwlp = oracle_transform(K.DWLP, p, c)
                    if claim == "dwp-neq-intersection":
                        lhs, rhs = oracle_transform(K.DWP, p, c), awp & dwlp
                        detail = "dwp differs from awp intersect dwlp"
                    else:
                        lhs, rhs = oracle_transform(K.AWLP, p, c), awp | dwlp
                        detail = "awlp differs from awp union dwlp"
                    diff = (lhs - rhs) | (rhs - lhs)
                    if not diff.is_empty:
                        idx = min(diff.indices())
                        w = _ref_witness(space, {"program": pretty_program(p)},
                                         Predicate(space, 1 << idx), c, detail,
                                         state=repr(space.state(idx)), state_index=idx)
                        return "found", candidates, w
        return "space-exhausted", candidates, None

    if claim == "total-correctness-relational":
        for variables, modulus in config.spaces:
            space = StateSpace(variables, modulus)
            preds = list(all_predicates(space))
            by_relation = {}
            for p in _ref_programs(space, config.max_depth):
                others = by_relation.setdefault(profile(p, space).relation, [])
                for q in others:
                    for c in preds:
                        for b in preds:
                            if not spend():
                                return "budget-exhausted", candidates, None
                            v1 = holds(DWP_LB, Triple(b, q, c))
                            v2 = holds(DWP_LB, Triple(b, p, c))
                            if v1 != v2:
                                w = _ref_witness(
                                    space, {"program_a": pretty_program(q),
                                            "program_b": pretty_program(p)}, b, c,
                                    "equal relational denotations, "
                                    f"total-correctness verdicts {v1} vs {v2}")
                                return "found", candidates, w
                others.append(p)
        return "space-exhausted", candidates, None

    if claim == "outcome-vs-intersection":
        for space, p, b, c in _ref_triples(config):
            if not spend():
                return "budget-exhausted", candidates, None
            system = check_equation("OUTCOME_CONJUNCTION", b, p, c)
            logic = holds(INTERSECTION_LOGIC, Triple(b, p, c))
            if system != logic:
                w = _ref_witness(space, {"program": pretty_program(p)}, b, c,
                                 f"equation system says {system}, subset condition says {logic}")
                return "found", candidates, w
        return "space-exhausted", candidates, None

    det_rev = claim == "galois-awlp-dsp-det-rev"
    if claim == "galois-pc":
        left, right = DWLP_LB, ASP_UB
    elif claim == "galois-pi":
        left, right = AWP_UB, DSLP_LB
    elif det_rev:
        left, right = AWLP_LB, DSP_UB
    else:
        left_name, right_name = claim[len("appendixC:"):].split("-vs-")
        left, right = search.LEGS[left_name], search.LEGS[right_name]
    return _ref_logic_pair(config, left, right, syntactic_choice if det_rev else None)


def _ref_logic_pair(config, left, right, choice=None):
    """The logic-pair loop; with `choice`, a program is a candidate only if
    `choice(p)` is None and its relation is reversible (the det-rev filter)."""
    candidates = 0
    for space, p, b, c in _ref_triples(config):
        if candidates >= config.budget:
            return "budget-exhausted", candidates, None
        candidates += 1
        if choice is not None:
            rows = converse(profile(p, space).relation).rows
            if choice(p) is not None or any(r.bit_count() > 1 for r in rows):
                continue
        lv = holds(left, Triple(b, p, c))
        rv = holds(right, Triple(b, p, c))
        if lv != rv:
            w = _ref_witness(space, {"program": pretty_program(p)}, b, c,
                             f"{left.name} is {lv} but {right.name} is {rv}",
                             left=left.name, right=right.name)
            return "found", candidates, w
    return "space-exhausted", candidates, None


# --- reference: the enumerator that builds each depth before yielding it -------

@lru_cache(maxsize=None)
def _ref_programs(space, max_depth, loops=False):
    exprs = expr_pool(space)
    guards = guard_pool(space)
    leaves = [Skip(), Diverge()] + [Assign(v, e) for v in space.variables for e in exprs]
    out = list(leaves)
    cumulative, frontier = list(leaves), leaves
    for _ in range(2, max_depth + 1):
        fresh = []
        frontier_set = set(frontier)
        for ctor in (Seq, Choice):
            for a in cumulative:
                for b in cumulative:
                    if a in frontier_set or b in frontier_set:
                        fresh.append(ctor(a, b))
        for g in guards:
            for a in cumulative:
                for b in cumulative:
                    if a in frontier_set or b in frontier_set:
                        fresh.append(Ite(g, a, b))
        if loops:
            for g in guards:
                for a in frontier:
                    fresh.append(While(g, a))
        out += fresh
        cumulative += fresh
        frontier = fresh
    return tuple(out)


# --- the comparisons ----------------------------------------------------------

CLAIMS = (
    "dwp-neq-intersection",
    "awlp-neq-union",
    "galois-pc",
    "galois-pi",
    "galois-awlp-dsp-det-rev",
    "total-correctness-relational",
    "outcome-vs-intersection",
    "appendixC:dwlpLB-vs-awlpLB",
    "appendixC:awlpLB-vs-aslpLB-contra",
)

# mod 2 blocks hold 16 candidates, and 105 programs have depth <= 2
LADDER_BUDGETS = (-1, 0, 1, 15, 16, 17, 1680, 1681)


def _outcome(result):
    return result.outcome, result.candidates, result.witness


@pytest.mark.parametrize("claim", CLAIMS)
@pytest.mark.parametrize("budget", LADDER_BUDGETS)
def test_search_matches_reference_loop_on_the_default_ladder(claim, budget):
    config = SearchConfig(budget=budget)
    assert _outcome(find_counterexample(claim, config)) == _ref_search(claim, config)


@pytest.mark.parametrize("claim", CLAIMS)
@pytest.mark.parametrize("budget", (79, 80, 81))
def test_search_matches_reference_loop_where_the_space_ends(claim, budget):
    # five depth-1 programs times 16 pairs: 80 candidates end exactly here
    config = SearchConfig(spaces=((("x",), 2),), max_depth=1, budget=budget)
    assert _outcome(find_counterexample(claim, config)) == _ref_search(claim, config)


def test_budget_and_space_exhaustion_are_told_apart():
    config = SearchConfig(spaces=((("x",), 2),), max_depth=1, budget=80)
    assert _outcome(find_counterexample("galois-pc", config)) == ("space-exhausted", 80, None)
    config = SearchConfig(spaces=((("x",), 2),), max_depth=1, budget=79)
    assert _outcome(find_counterexample("galois-pc", config)) == ("budget-exhausted", 79, None)


def test_search_matches_reference_loop_on_mod_3():
    config = SearchConfig(spaces=((("x",), 3),), max_depth=2, budget=3000)
    for claim in ("galois-pi", "galois-awlp-dsp-det-rev", "total-correctness-relational",
                  "appendixC:aspLB-vs-dspLB"):
        assert _outcome(find_counterexample(claim, config)) == _ref_search(claim, config)


def test_each_enumerated_program_is_classified_with_one_composer_run_per_key(monkeypatch):
    rows, drawn, composed = [], [], []
    real_classify = search.classify

    def recording(stream, space):
        def read():
            for row in stream:
                rows.append(row)
                yield row

        for prof in real_classify(read(), space):
            drawn.append(prof)
            yield prof

    monkeypatch.setattr(search, "classify", recording)
    count_compositions(monkeypatch, composed, drawn)
    result = find_counterexample("galois-pc", SearchConfig(budget=1681))
    monkeypatch.undo()
    assert result.outcome == "budget-exhausted"
    # 105 whole blocks of 16 and one candidate of the 106th
    space = StateSpace(("x",), 2)
    programs = _ref_programs(space, 3)[:106]
    assert len(drawn) == len(programs)
    assert all(prof is profile(p, space) for p, prof in zip(programs, drawn))
    # the composer ran on the first entry of each composite key, and on no other
    firsts: dict = {}
    for k, key in enumerate(stream_keys(rows, space)[:len(drawn)]):
        firsts.setdefault(key, k)
    assert composed == [k for key, k in firsts.items() if type(key) is tuple]
    assert len(composed) < len(programs)


STREAMS = [
    (("x",), 2, 3, False),      # 44 105 programs
    (("x", "y"), 2, 2, True),
    (("x",), 3, 2, True),
]


# and loops above depth 2, whose bodies come from the last frontier only
@pytest.mark.parametrize("variables, modulus, depth, loops", STREAMS + [(("x",), 2, 3, True)])
def test_the_rows_materialize_to_the_enumeration(variables, modulus, depth, loops):
    """Built in order, or each entry from its index in any order, the rows
    give the reference's programs."""
    space = StateSpace(variables, modulus)
    ref = _ref_programs(space, depth, loops)
    assert tuple(exhaustive_programs(space, depth, loops)) == ref
    programs = Enumeration(exhaustive_rows(space, depth, loops))
    for _ in programs:
        pass
    order = random.Random(2026).sample(range(len(ref)), len(ref))
    assert all(programs.program(k) == ref[k] for k in order)


@pytest.mark.parametrize("variables, modulus, depth, loops", STREAMS)
def test_every_classified_entry_has_its_programs_profile(variables, modulus, depth, loops):
    space = StateSpace(variables, modulus)
    ref = _ref_programs(space, depth, loops)
    got = list(classify(exhaustive_rows(space, depth, loops), space))
    assert len(got) == len(ref)
    assert all(prof is profile(p, space) for p, prof in zip(ref, got))


def test_an_exhausted_search_builds_no_composite_program(monkeypatch):
    built = []
    for ctor in (Seq, Choice, Ite):
        def counting(self, *args, real=ctor.__init__):
            built.append(type(self))
            real(self, *args)

        monkeypatch.setattr(ctor, "__init__", counting)
    result = find_counterexample("galois-pc", SearchConfig(budget=10_000))
    assert result.outcome == "budget-exhausted" and result.stats["programs"] == 626
    assert built == []
    Seq(Skip(), Skip())         # the count sees a construction
    monkeypatch.undo()
    assert built == [Seq]


def test_lazy_enumeration_keeps_the_frontier_set_order():
    space = StateSpace(("x",), 2)
    got = list(exhaustive_programs(space, 3))
    assert len(got) == 44105
    assert tuple(got) == _ref_programs(space, 3)


@pytest.mark.parametrize("variables, modulus", [(("x",), 3), (("x", "y"), 2)])
def test_lazy_enumeration_with_loops_keeps_the_order(variables, modulus):
    space = StateSpace(variables, modulus)
    assert tuple(exhaustive_programs(space, 2, loops=True)) == _ref_programs(space, 2, True)


@pytest.mark.parametrize("variables, modulus", [(("x",), 2), (("x",), 3)])
def test_transformer_tables_are_shared_by_semantic_class(variables, modulus):
    space = StateSpace(variables, modulus)
    semantics.profile.cache_clear()
    semantics._class.cache_clear()
    classes, profiles = set(), set()
    for p in exhaustive_programs(space, 2, loops=True):
        prof = profile(p, space)
        classes.add((prof.relation.rows, prof.may_div))
        profiles.add(id(prof))
        for q in range(1 << space.size):
            assert prof[q] == tuple(
                oracle_bits(kind, prof, q) for kind in TransformerKind), (p, q)
    assert len(profiles) == len(classes)


# --- semantic classes: one scan per class, shared by every program in it -------

EQUAL_RUNGS = SearchConfig(spaces=((("x",), 4), (("x", "y"), 2)), max_depth=1)


@pytest.mark.parametrize("claim", CLAIMS)
@pytest.mark.parametrize("budget", (1000, 2000, 10**6))
def test_search_matches_reference_loop_on_rungs_of_equal_size(claim, budget):
    # both rungs have four states, so rows met on the first recur on the
    # second, where a witness must name the second space
    config = SearchConfig(EQUAL_RUNGS.spaces, EQUAL_RUNGS.max_depth, budget=budget)
    result = find_counterexample(claim, config)
    assert _outcome(result) == _ref_search(claim, config)


def test_equal_rungs_share_classes():
    result = find_counterexample("galois-pc", EQUAL_RUNGS)
    assert result.outcome == "space-exhausted"
    # 7 + 10 programs; a profile is one class over one space, so classes
    # recur within a rung but not across the two
    assert result.stats == {"programs": 17, "classes": 14}


def _class_key(p, space):
    prof = profile(p, space)
    return prof.relation.rows, prof.may_div


def test_blindspot_compares_three_programs_of_one_relation():
    config = SearchConfig()
    result = find_counterexample("total-correctness-relational", config)
    assert _outcome(result) == _ref_search("total-correctness-relational", config)
    # the witness pairs the first of several programs denoting the identity
    space = StateSpace(("x",), 2)
    programs = _ref_programs(space, 3)[:result.stats["programs"]]
    relation = profile(programs[-1], space).relation
    assert sum(profile(p, space).relation == relation for p in programs) >= 3
    found_at = result.candidates
    for budget in (found_at - 1, found_at, found_at + 1, found_at - 16, found_at - 17):
        config = SearchConfig(budget=budget)
        assert (_outcome(find_counterexample("total-correctness-relational", config))
                == _ref_search("total-correctness-relational", config)), budget


def _non_seq_has_choice(p):
    # a stand-in for syntactic_choice: every leaf counts as nondeterministic,
    # so a class is first met on an excluded program and hit on a later one
    return None if isinstance(p, Seq) else p


def _det_rev_probe(config):
    stats = {"programs": 0, "classes": 0}
    blocks = search._logic_pair_blocks(config, stats, DWLP_LB, DWP_LB, det_rev=True)
    return _outcome(search._drive("probe", blocks, config.budget)), stats


def test_det_rev_filter_reads_each_programs_syntax(monkeypatch):
    monkeypatch.setattr(search, "syntactic_choice", _non_seq_has_choice)
    config = SearchConfig(spaces=((("x",), 2),), max_depth=2)
    (outcome, found_at, witness), stats = _det_rev_probe(config)
    assert outcome == "found" and witness["program"] == "skip ; diverge"
    # diverge, excluded by its syntax, met the class before skip ; diverge
    space = StateSpace(("x",), 2)
    programs = _ref_programs(space, 2)[:stats["programs"]]
    assert [_class_key(p, space) for p in programs].count(_class_key(programs[-1], space)) == 2
    # budgets ending inside the repeated class's block: one short of its
    # hit, at it, and one past it
    for budget in (found_at - 1, found_at, found_at + 1, 10**5):
        config = SearchConfig(spaces=((("x",), 2),), max_depth=2, budget=budget)
        assert _det_rev_probe(config)[0] == _ref_logic_pair(
            config, DWLP_LB, DWP_LB, _non_seq_has_choice), budget


def _drawn(config, count):
    """The first `count` (space, program) pairs the search draws."""
    spaces = [StateSpace(variables, modulus) for variables, modulus in config.spaces]
    return [(space, p) for space in spaces
            for p in _ref_programs(space, config.max_depth)][:count]


def _counting_scans(monkeypatch):
    """Record each scan for a first hit, over two validity sets or one
    candidate at a time, and each call of the per-class kernel."""
    scans, kernel = [], []
    for module, name, calls in ((search, "_first_disagreement", scans),
                                (search, "_first_difference", scans),
                                (logics, "validity_sets", kernel)):
        def counting(*args, real=getattr(module, name), calls=calls):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return scans, kernel


TWO_RUNGS = SearchConfig(spaces=((("x",), 2), (("x",), 3)), max_depth=2, budget=10**6)


@pytest.mark.parametrize("claim", ["galois-pc", "galois-awlp-dsp-det-rev",
                                   "outcome-vs-intersection", "appendixC:dwpLB-vs-awpLB"])
def test_each_class_is_scanned_once_per_claim(monkeypatch, claim):
    scans, kernel = _counting_scans(monkeypatch)
    result = find_counterexample(claim, TWO_RUNGS)
    classes = {_class_key(p, space) for space, p in _drawn(TWO_RUNGS, result.stats["programs"])}
    assert result.stats["classes"] == len(classes)
    if result.outcome == "space-exhausted":
        assert len(classes) < result.stats["programs"]
    if claim == "galois-awlp-dsp-det-rev":
        # only reversible classes have verdicts to compare
        classes = [rows for rows, _ in classes
                   if all(r.bit_count() <= 1 for r in converse(Relation(len(rows), rows)).rows)]
    assert len(scans) == len(classes)
    # the outcome system is scanned one candidate at a time; a logic pair
    # reads each class's validity sets once
    assert len(kernel) == (0 if claim == "outcome-vs-intersection" else len(classes))


def test_blindspot_scans_each_pair_of_classes_once(monkeypatch):
    scans, kernel = _counting_scans(monkeypatch)
    result = find_counterexample("total-correctness-relational", TWO_RUNGS)
    assert result.outcome == "found"
    # replay the pairs up to the witness: within one relation, a pair of
    # classes is a pair of may-divergences
    pairs, earlier, count = set(), {}, 0
    for space, p in _drawn(TWO_RUNGS, result.stats["programs"]):
        rows, may = _class_key(p, space)
        for q, q_may in earlier.get((space, rows), ()):
            pairs.add((space, rows, q_may, may))
            count += 1
            if (pretty_program(q), pretty_program(p)) == (
                    result.witness["program_a"], result.witness["program_b"]):
                break
        earlier.setdefault((space, rows), []).append((p, may))
    assert len(scans) == len(pairs) < count
    # each class's validity set is read once, however many pairs it is in
    assert len(kernel) == result.stats["classes"]


@pytest.mark.parametrize("claim", ["dwp-neq-intersection", "awlp-neq-union"])
def test_gap_tables_are_read_once_per_class(monkeypatch, claim):
    reads = []
    real = semantics.Profile.__getitem__

    def counting(prof, q):
        reads.append(q)
        return real(prof, q)

    monkeypatch.setattr(semantics.Profile, "__getitem__", counting)
    result = find_counterexample(claim, SearchConfig())
    # the first gap is on the 32nd program, the first of the fifth class:
    # each class's table of each of the four predicates of x mod 2, once
    assert result.outcome == "found" and result.stats == {"programs": 32, "classes": 5}
    assert len(reads) == 5 * 4


def test_search_stats_count_programs_and_classes_outside_the_json():
    config = SearchConfig(budget=1681)
    first = find_counterexample("galois-pc", config)
    second = find_counterexample("galois-pc", config)
    space = StateSpace(("x",), 2)
    programs = _ref_programs(space, 3)[:106]
    assert first.stats == second.stats == {
        "programs": 106, "classes": len({_class_key(p, space) for p in programs})}
    assert first.to_jsonable() == {"claim": "galois-pc", "outcome": "budget-exhausted",
                                   "candidates": 1681}


def test_contra_legs_are_contrapositives_of_their_legs():
    """A `-contra` leg holds on a triple iff its representative holds on the
    negated triple, and its direct `...UB` spelling names the same logic."""
    space = StateSpace(("x",), 2)
    preds = list(all_predicates(space))
    programs = list(exhaustive_programs(space, 2))
    contras = [name for name in search.LEGS if name.endswith("-contra")]
    assert len(contras) == 7
    for name in contras:
        base, contra = search.LEGS[name[:-len("-contra")]], search.LEGS[name]
        assert search.LEGS[contra.kind.value + "UB"] is contra
        for p in programs:
            for b in preds:
                for c in preds:
                    t = Triple(b, p, c)
                    assert holds(contra, t) == holds(base, t.negated()), (name, t)
