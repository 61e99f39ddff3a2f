"""The theorem survey over small corpora, and the counterexample engine."""

import pytest

from ngclab import (
    CorpusConfig,
    GeneratorConfig,
    SearchConfig,
    appendix_c_claims,
    check_theorem,
    corpus_preset,
    find_counterexample,
)
from ngclab import theorems
from ngclab.theorems import THEOREM_IDS, run_survey

COLLAPSE_IDS = THEOREM_IDS[4:10]    # the six collapse theorems
TINY = corpus_preset("tiny")
TINY_LOOPS = CorpusConfig(
    GeneratorConfig(("x",), 2, max_depth=3, loops=True, mode="random",
                    seed=7, count=400),
    predicate_mode="sample",
    predicate_pairs=4,
    predicate_seed=7,
)
SMALL_SEARCH = SearchConfig(budget=30_000)


class TestUniversalTheorems:
    @pytest.mark.parametrize("theorem", [
        "ORDERING", "CONTRAPOSITIVE", "GALOIS_PC", "GALOIS_PI",
        "COMBO_IDENTITIES", "FIG4_IMPLICATIONS", "BRIDGES", "REMARK_DIVERGING",
    ])
    def test_holds_on_tiny_exhaustive_corpus(self, theorem):
        verdict = check_theorem(theorem, TINY)
        assert verdict.holds, verdict.witness

    @pytest.mark.parametrize("theorem", [
        "ORDERING", "CONTRAPOSITIVE", "GALOIS_PC", "GALOIS_PI",
        "COMBO_IDENTITIES", "FIG4_IMPLICATIONS", "BRIDGES",
    ])
    def test_holds_on_random_loop_corpus(self, theorem):
        verdict = check_theorem(theorem, TINY_LOOPS)
        assert verdict.holds, verdict.witness

    def test_unknown_theorem_rejected(self):
        with pytest.raises(KeyError):
            check_theorem("NOT_A_THEOREM", TINY)

    def test_verdict_carries_statistics(self):
        verdict = check_theorem("ORDERING", TINY)
        assert verdict.stats["programs"] > 0
        assert verdict.stats["triples"] > 0


class TestCollapseTheorems:
    @pytest.mark.parametrize("theorem", COLLAPSE_IDS)
    def test_filtered_pass_with_nonvacuity(self, theorem):
        """Each collapse holds under its assumption and fails somewhere
        outside it, so the assumption is doing real work."""
        verdict = check_theorem(theorem, TINY)
        assert verdict.holds, verdict.witness
        assert verdict.nonvacuity is not None

    @pytest.mark.parametrize("theorem", COLLAPSE_IDS)
    def test_filtered_pass_on_loop_corpus(self, theorem):
        verdict = check_theorem(theorem, TINY_LOOPS)
        assert verdict.holds, verdict.witness


class TestSurvey:
    def test_theorems_share_one_corpus_until_the_cache_is_cleared(self, monkeypatch):
        generated = []
        real = theorems.generate_programs

        def counting(config):
            generated.append(config)
            return real(config)

        monkeypatch.setattr(theorems, "generate_programs", counting)
        theorems.corpus_items.cache_clear()
        corpus = CorpusConfig(GeneratorConfig(("x",), 2, max_depth=2))
        first = [check_theorem(t, corpus).holds for t in ("ORDERING", "GALOIS_PC")]
        assert first == [True, True] and generated == [corpus.programs]
        theorems.corpus_items.cache_clear()
        assert check_theorem("ORDERING", corpus).holds
        assert generated == [corpus.programs] * 2
        theorems.corpus_items.cache_clear()

    def test_run_survey_covers_suite(self):
        verdicts = run_survey(["ORDERING", "GALOIS_PC"], TINY)
        assert [v.claim for v in verdicts] == ["ORDERING", "GALOIS_PC"]
        assert all(v.holds for v in verdicts)

    def test_all_theorem_ids_runnable(self):
        for theorem in THEOREM_IDS:
            assert check_theorem(theorem, TINY).holds


class TestCounterexamples:
    def test_dwp_is_not_the_intersection(self):
        result = find_counterexample("dwp-neq-intersection", SMALL_SEARCH)
        assert result.found
        assert "state" in result.witness

    def test_awlp_is_not_the_union(self):
        result = find_counterexample("awlp-neq-union", SMALL_SEARCH)
        assert result.found

    def test_true_galois_connections_have_no_witness(self):
        for claim in ("galois-pc", "galois-pi"):
            result = find_counterexample(claim, SearchConfig(budget=20_000))
            assert not result.found
            assert result.outcome == "budget-exhausted"
            assert result.candidates == 20_000

    def test_forced_galois_under_determinism_and_reversibility(self):
        result = find_counterexample("galois-awlp-dsp-det-rev",
                                     SearchConfig(budget=20_000))
        assert not result.found

    def test_relational_blindspot_for_total_correctness(self):
        result = find_counterexample("total-correctness-relational", SMALL_SEARCH)
        assert result.found
        assert result.witness["program_a"] != result.witness["program_b"]

    def test_outcome_system_differs_from_intersection_logic(self):
        result = find_counterexample("outcome-vs-intersection", SMALL_SEARCH)
        assert result.found

    def test_appendix_catalog_has_91_pairs(self):
        claims = appendix_c_claims()
        assert len(claims) == 91
        assert len(set(claims)) == 91

    def test_section_4_4_pair_has_a_witness(self):
        result = find_counterexample("appendixC:awlpLB-vs-aslpLB-contra", SMALL_SEARCH)
        assert result.found

    def test_unknown_claim_rejected(self):
        with pytest.raises(KeyError):
            find_counterexample("no-such-claim", SMALL_SEARCH)
