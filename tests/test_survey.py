"""The deduplicated survey against a per-triple reference loop, and the
survey report against a recorded golden file.

`check_theorem` checks each semantic class once; the reference below walks
every (program, pre, post) triple and asks the per-kind oracle and the
definitional (full-composition) catalog evaluator each time.  The two must
give the same verdicts: the same first failing witness, the same program and
triple counts, and the same non-vacuity witness.
"""

from pathlib import Path

import pytest

from ngclab import CorpusConfig, GeneratorConfig, check_theorem, corpus_preset
from ngclab import semantics, theorems, topkat, transformers
from ngclab.cli import main
from ngclab.logics import (
    ALL_LOGICS,
    ASP_LB, ASP_UB, ASLP_LB, ASLP_UB, AWP_LB, AWP_UB, AWLP_LB, AWLP_UB,
    DSP_LB, DSP_UB, DSLP_LB, DSLP_UB, DWP_LB, DWP_UB, DWLP_LB, DWLP_UB,
    INTERSECTION_LOGIC, UNION_LOGIC,
    Bound, syntactic_choice,
)
from ngclab.semantics import profile
from ngclab.syntax import Choice, Skip, While, TRUE
from ngclab.theorems import THEOREM_IDS, Verdict, corpus_items

import oracle_reference
from kat_reference import Chains

K = transformers.TransformerKind
GOLDEN = Path(__file__).parent / "golden"


# --- the reference: one triple at a time ---------------------------------------

def _tr(prof, kind, q):
    # looked up on the module at each call, so a monkeypatched fault applies
    return oracle_reference.oracle_bits(kind, prof, q)


def _vector(prof, b, c):
    full = prof.space.full_mask
    vec = {}
    for logic in ALL_LOGICS:
        if logic.kind is None:
            awp, dwlp = _tr(prof, K.AWP, c), _tr(prof, K.DWLP, c)
            target = awp | dwlp if logic is UNION_LOGIC else awp & dwlp
            vec[logic.name] = b & ~target == 0
            continue
        result = _tr(prof, logic.kind, c if logic.kind.backward else b)
        bound = b if logic.kind.backward else c
        vec[logic.name] = (bound & ~result == 0 if logic.bound is Bound.LB
                           else result & ~bound & full == 0)
    return vec


IMPLICATIONS = (
    (DWP_LB, AWP_LB), (DWP_LB, DWLP_LB), (AWP_LB, AWLP_LB), (DWLP_LB, AWLP_LB),
    (AWP_UB, DWP_UB), (AWLP_UB, AWP_UB), (AWLP_UB, DWLP_UB), (DWLP_UB, DWP_UB),
    (DSP_LB, ASP_LB), (DSP_LB, DSLP_LB), (ASP_LB, ASLP_LB), (DSLP_LB, ASLP_LB),
    (ASP_UB, DSP_UB), (ASLP_UB, ASP_UB), (ASLP_UB, DSLP_UB), (DSLP_UB, DSP_UB),
    (DWP_LB, INTERSECTION_LOGIC), (INTERSECTION_LOGIC, AWP_LB),
    (INTERSECTION_LOGIC, DWLP_LB), (INTERSECTION_LOGIC, UNION_LOGIC),
    (AWP_LB, UNION_LOGIC), (DWLP_LB, UNION_LOGIC), (UNION_LOGIC, AWLP_LB),
)
CONTRA_PAIRS = (
    (AWP_UB, DWLP_LB), (DWP_UB, AWLP_LB), (AWP_LB, DWLP_UB), (DWP_LB, AWLP_UB),
    (ASP_UB, DSLP_LB), (ASP_LB, DSLP_UB), (DSP_UB, ASLP_LB), (DSP_LB, ASLP_UB),
)
BRIDGES = (
    ("LISBON", AWP_LB), ("PARTIAL_CORRECTNESS", DWLP_LB),
    ("PARTIAL_CORRECTNESS", ASP_UB), ("PC_CONTRA", DWLP_LB), ("DWLP_UB", DWLP_UB),
    ("INCORRECTNESS", ASP_LB), ("ANGELIC_PARTIAL_INCORRECTNESS", ASLP_LB),
    ("DEMONIC_PARTIAL_INCORRECTNESS", DSLP_LB),
    ("DEMONIC_PARTIAL_INCORRECTNESS", AWP_UB), ("DSLP_UB", DSLP_UB),
    ("DSP_UB", DSP_UB), ("IN_BETWEEN", UNION_LOGIC), ("DEMONIC_INCORRECTNESS", DSP_LB),
)


def _ordering(prof, b, c):
    chains = ((K.DWP, K.AWP, K.AWLP), (K.DWP, K.DWLP, K.AWLP),
              (K.DSP, K.ASP, K.ASLP), (K.DSP, K.DSLP, K.ASLP))
    for q in (b, c):
        for low, mid, high in chains:
            lo, mi, hi = (_tr(prof, k, q) for k in (low, mid, high))
            if lo & ~mi or mi & ~hi:
                return f"ordering {low.value} <= {mid.value} <= {high.value} fails"
    return None


def _contrapositive(prof, b, c):
    full = prof.space.full_mask
    for q in (b, c):
        nq = ~q & full
        for a, d in ((K.AWP, K.DWLP), (K.DWP, K.AWLP), (K.ASP, K.DSLP), (K.DSP, K.ASLP)):
            if _tr(prof, a, q) != ~_tr(prof, d, nq) & full:
                return f"{a.value} is not the complement of {d.value} on the negation"
        dsp, aslp_neg = _tr(prof, K.DSP, q), _tr(prof, K.ASLP, nq)
        if dsp & aslp_neg or (dsp | aslp_neg) != full:
            return "dsp and aslp of the negation do not split the state space"
    return None


def _galois_pc(prof, b, c):
    lhs = b & ~_tr(prof, K.DWLP, c) == 0
    rhs = _tr(prof, K.ASP, b) & ~c & prof.space.full_mask == 0
    return None if lhs == rhs else "partial-correctness adjunction fails"


def _galois_pi(prof, b, c):
    lhs = _tr(prof, K.AWP, c) & ~b & prof.space.full_mask == 0
    rhs = c & ~_tr(prof, K.DSLP, b) == 0
    return None if lhs == rhs else "partial-incorrectness adjunction fails"


def _combo(prof, b, c):
    for q in (b, c):
        asp, dslp = _tr(prof, K.ASP, q), _tr(prof, K.DSLP, q)
        if _tr(prof, K.DSP, q) != asp & dslp:
            return "dsp is not asp intersect dslp"
        if _tr(prof, K.ASLP, q) != asp | dslp:
            return "aslp is not asp union dslp"
    return None


def _fig4(prof, b, c):
    full = prof.space.full_mask
    vec = _vector(prof, b, c)
    for src, dst in IMPLICATIONS:
        if vec[src.name] and not vec[dst.name]:
            return f"{src.name} does not imply {dst.name}"
    neg = _vector(prof, ~b & full, ~c & full)
    for a, d in CONTRA_PAIRS:
        if vec[a.name] != neg[d.name]:
            return f"{a.name} and {d.name} are not contrapositive"
    if vec[DWLP_LB.name] != vec[ASP_UB.name]:
        return "partial-correctness Galois pair disagrees"
    if vec[AWP_UB.name] != vec[DSLP_LB.name]:
        return "partial-incorrectness Galois pair disagrees"
    return None


def _bridges(prof, b, c):
    vec = _vector(prof, b, c)
    chains = Chains(prof.relation, b, c)
    for eq, logic in BRIDGES:
        if chains.holds(eq) != vec[logic.name]:
            return f"equation {eq} disagrees with {logic.name}"
    return None


def _reversible_on(prof, c):
    return all(oracle_reference.converse(prof.relation).rows[i].bit_count() <= 1
               for i in range(prof.space.size) if c >> i & 1)


COLLAPSES = {
    "TERMINATION_COLLAPSE": (
        lambda p, prof, b, c, full: prof.may_div & b == 0,
        lambda prof, b, c, full: (
            b & _tr(prof, K.DWP, c) == b & _tr(prof, K.DWLP, c)
            and b & _tr(prof, K.AWP, c) == b & _tr(prof, K.AWLP, c)),
    ),
    "REACHABILITY_COLLAPSE": (
        lambda p, prof, b, c, full: c & ~prof.reach & full == 0,
        lambda prof, b, c, full: (
            c & _tr(prof, K.ASP, b) == c & _tr(prof, K.ASLP, b)
            and c & _tr(prof, K.DSP, b) == c & _tr(prof, K.DSLP, b)),
    ),
    "DETERMINISM_COLLAPSE": (
        lambda p, prof, b, c, full: syntactic_choice(p) is None,
        lambda prof, b, c, full: (
            _tr(prof, K.AWP, c) == _tr(prof, K.DWP, c)
            and _tr(prof, K.AWLP, c) == _tr(prof, K.DWLP, c)),
    ),
    "REVERSIBILITY_COLLAPSE": (
        lambda p, prof, b, c, full: _reversible_on(prof, c),
        lambda prof, b, c, full: (
            c & _tr(prof, K.ASP, b) == c & _tr(prof, K.DSP, b)
            and c & _tr(prof, K.ASLP, b) == c & _tr(prof, K.DSLP, b)),
    ),
    "BRANCHING_COLLAPSE": (
        lambda p, prof, b, c, full: prof.may_div & ~prof.must_div & b == 0,
        lambda prof, b, c, full: (
            b & _tr(prof, K.DWP, c) == b & _tr(prof, K.AWP, c) & _tr(prof, K.DWLP, c)
            and b & _tr(prof, K.AWLP, c) == b & (_tr(prof, K.AWP, c) | _tr(prof, K.DWLP, c))),
    ),
    "MAY_TERMINATION": (
        lambda p, prof, b, c, full: prof.may_div == prof.must_div,
        lambda prof, b, c, full: (
            (_tr(prof, K.AWP, full) == full) == (_tr(prof, K.AWLP, 0) == 0)),
    ),
}

UNIVERSAL = {
    "ORDERING": _ordering, "CONTRAPOSITIVE": _contrapositive,
    "GALOIS_PC": _galois_pc, "GALOIS_PI": _galois_pi, "COMBO_IDENTITIES": _combo,
    "FIG4_IMPLICATIONS": _fig4, "BRIDGES": _bridges,
}


def _witness(p, space, detail, b=None, c=None):
    return theorems._witness(p, space, detail, b, c)


def reference_check(theorem, corpus):
    """Every triple of the corpus, in order, each checked on its own.  The
    classes counted are the distinct (relation, may-divergence) profiles of
    the programs walked, told apart by choice-freedom for the determinism
    collapse."""
    space = corpus.space()
    full = space.full_mask
    programs = triples = 0
    classes = set()
    if theorem == "REMARK_DIVERGING":
        branching = Choice(Skip(), While(TRUE, Skip()))
        prof_a, prof_b = profile(Skip(), space), profile(branching, space)
        holds = (prof_a.relation == prof_b.relation
                 and _tr(prof_a, K.AWLP, 0) != _tr(prof_b, K.AWLP, 0))
        witness = None if holds else _witness(
            branching, space, "collecting semantics or liberal precondition mismatch")
        classes = {(prof.relation, prof.may_div) for prof in (prof_a, prof_b)}
        return Verdict(theorem, holds, witness,
                       {"programs": 2, "triples": 1, "classes": len(classes)})
    nonvacuity = None
    for p, pairs in corpus_items(corpus):
        programs += 1
        prof = profile(p, space)
        classes.add((prof.relation, prof.may_div,
                     theorem == "DETERMINISM_COLLAPSE" and syntactic_choice(p) is None))
        for b, c in pairs:
            triples += 1
            if theorem in COLLAPSES:
                assumption, equality = COLLAPSES[theorem]
                inside = assumption(p, prof, b.bits, c.bits, full)
                equal = equality(prof, b.bits, c.bits, full)
                detail = None
                if inside and not equal:
                    detail = "collapse equality fails under the assumption"
                elif not equal and nonvacuity is None:
                    nonvacuity = _witness(
                        p, space, "equality fails outside the assumption filter", b, c)
            else:
                detail = UNIVERSAL[theorem](prof, b.bits, c.bits)
            if detail is not None:
                return Verdict(theorem, False, _witness(p, space, detail, b, c),
                               {"programs": programs, "triples": triples,
                                "classes": len(classes)})
    return Verdict(theorem, True, None,
                   {"programs": programs, "triples": triples, "classes": len(classes)},
                   nonvacuity)


def _jsonable(verdict):
    out = verdict.to_jsonable()
    out["stats"] = {k: v for k, v in out["stats"].items() if k != "elapsed_s"}
    return out


# --- deduplicated survey == reference ------------------------------------------

CORPORA = {
    "tiny": corpus_preset("tiny"),
    "random-x2": CorpusConfig(GeneratorConfig(("x",), 2, max_depth=3, mode="random",
                                              seed=3131, count=120)),
    "loops-sample": CorpusConfig(
        GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True, mode="random",
                        seed=3132, count=40),
        predicate_mode="sample", predicate_pairs=3, predicate_seed=3132),
    # sampled pairs over four predicates: (class, pre, post) triples repeat
    "sample-x2": CorpusConfig(
        GeneratorConfig(("x",), 2, max_depth=3, loops=True, mode="random",
                        seed=3133, count=150),
        predicate_mode="sample", predicate_pairs=4, predicate_seed=3133),
}


@pytest.mark.parametrize("name", CORPORA)
def test_deduplicated_survey_matches_per_triple_reference(name):
    corpus = CORPORA[name]
    for theorem in THEOREM_IDS:
        assert _jsonable(check_theorem(theorem, corpus)) == \
            _jsonable(reference_check(theorem, corpus)), theorem


def _plant(monkeypatch, wrong, right):
    """The transformer `wrong` computed as `right`, in the per-kind reference
    oracle and in the profiles' tables alike.  The profiles are cleared
    before and after, so that no table cached without the fault hides it,
    and none cached with it outlives it."""
    real_bits, real_table = oracle_reference.oracle_bits, semantics.rows_table

    def bits(kind, prof, q):
        return real_bits(right if kind is wrong else kind, prof, q)

    def table(rows, may_div, q):
        results = list(real_table(rows, may_div, q))
        results[wrong.position] = results[right.position]
        return tuple(results)

    monkeypatch.setattr(oracle_reference, "oracle_bits", bits)
    monkeypatch.setattr(semantics, "rows_table", table)
    _clear_profiles()
    yield
    _clear_profiles()


@pytest.fixture
def dwp_forgets_divergence(monkeypatch):
    yield from _plant(monkeypatch, K.DWP, K.DWLP)


@pytest.fixture
def dwlp_counts_divergence(monkeypatch):
    yield from _plant(monkeypatch, K.DWLP, K.DWP)


def _clear_profiles():
    semantics.profile.cache_clear()
    semantics._class.cache_clear()


@pytest.mark.parametrize("name", ["tiny", "random-x2", "loops-sample", "sample-x2"])
def test_fault_gives_the_reference_witnesses(name, dwp_forgets_divergence):
    """Under a planted fault both routes fail on the same first triple, with
    the same counts, and find the same non-vacuity witnesses."""
    corpus = CORPORA[name]
    failed = 0
    for theorem in THEOREM_IDS:
        verdict = check_theorem(theorem, corpus)
        got = _jsonable(verdict)
        assert got == _jsonable(reference_check(theorem, corpus)), theorem
        failed += not got["holds"]
        # a failing verdict is timed as a passing one is
        assert verdict.stats["elapsed_s"] >= 0
    assert failed >= 3


@pytest.mark.parametrize("name", ["tiny", "random-x2"])
def test_galois_fault_gives_the_reference_witness(name, dwlp_counts_divergence):
    """With dwlp computed as dwp, the partial-correctness Galois pair fails,
    on a pair past its class's first: the set algebra names the pair and
    the counts that the per-triple walk does."""
    corpus = CORPORA[name]
    for theorem in ("GALOIS_PC", "GALOIS_PI", "FIG4_IMPLICATIONS"):
        assert _jsonable(check_theorem(theorem, corpus)) == \
            _jsonable(reference_check(theorem, corpus)), theorem
    verdict = check_theorem("GALOIS_PC", corpus)
    assert not verdict.holds and verdict.stats["triples"] % 16 > 1


def _swap_image_and_preimage(monkeypatch):
    """The rectangle evaluator taking images where it should take preimages
    and the other way round; the transformer tables are left alone."""
    swap = {topkat._IMAGE: topkat._PREIMAGE, topkat._PREIMAGE: topkat._IMAGE}

    def faulty(plan):
        return plan._replace(steps=tuple((swap.get(op, op), x, y) for op, x, y in plan.steps))

    monkeypatch.setattr(topkat, "_CATALOG_PLAN", faulty(topkat._CATALOG_PLAN))


def test_rectangle_fault_fails_bridges(monkeypatch):
    """BRIDGES can still fail: with image and preimage swapped in the
    rectangle evaluator it reports a disagreeing equation, while the
    definitional reference still holds."""
    corpus = CORPORA["tiny"]
    assert check_theorem("BRIDGES", corpus).holds
    _swap_image_and_preimage(monkeypatch)
    verdict = check_theorem("BRIDGES", corpus)
    assert not verdict.holds
    assert verdict.witness["detail"].startswith("equation ")
    assert " disagrees with " in verdict.witness["detail"]
    assert reference_check("BRIDGES", corpus).holds


def test_survey_report_matches_golden_file(capsys):
    """`ngclab survey --suite all --corpus tiny --format json`, byte for byte."""
    code = main(["survey", "--suite", "all", "--corpus", "tiny", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "survey_tiny.json").read_text(encoding="utf-8")
