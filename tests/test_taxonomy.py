"""The taxonomy's tables against the paper's literal ones.

`transformers` states three facts -- the pointwise orderings, the negation
duals and two adjunctions -- and every other table is derived from them:
the contrapositive and Galois partners of the logics, Fig. 4's implication
arrows, the theorem suite's checks and the search's claim legs.  The
tables below are written out by hand, as the paper has them; each derived
table must equal its literal one.  The three facts themselves are checked
against the per-kind reference oracle on random programs.
"""

import random
from itertools import combinations

import pytest

from ngclab import StateSpace
from ngclab.generators import random_program
from ngclab.logics import (
    ALL_LOGICS, CONTRAPOSITIVE, GALOIS,
    ASP_LB, ASP_UB, ASLP_LB, ASLP_UB, AWP_LB, AWP_UB, AWLP_LB, AWLP_UB,
    DSP_LB, DSP_UB, DSLP_LB, DSLP_UB, DWP_LB, DWP_UB, DWLP_LB, DWLP_UB,
    INTERSECTION_LOGIC, UNION_LOGIC,
)
from ngclab.search import LEGS, appendix_c_claims
from ngclab.semantics import profile
from ngclab.theorems import (
    _COMPLEMENTS, _CONTRA_PAIRS, _GALOIS_PAIRS, _IMPLICATIONS, _ORDERING_CHAINS,
)
from ngclab.transformers import (
    ADJUNCTIONS, ASP, AWP, DSLP, DUALS, DWLP, ORDERING, TransformerKind,
)

from oracle_reference import oracle_bits

CONTRA = {
    AWP_LB: DWLP_UB, DWLP_UB: AWP_LB,
    DWP_LB: AWLP_UB, AWLP_UB: DWP_LB,
    AWLP_LB: DWP_UB, DWP_UB: AWLP_LB,
    DWLP_LB: AWP_UB, AWP_UB: DWLP_LB,
    ASP_LB: DSLP_UB, DSLP_UB: ASP_LB,
    DSP_LB: ASLP_UB, ASLP_UB: DSP_LB,
    ASLP_LB: DSP_UB, DSP_UB: ASLP_LB,
    DSLP_LB: ASP_UB, ASP_UB: DSLP_LB,
}
GALOIS_PARTNERS = {DWLP_LB: ASP_UB, ASP_UB: DWLP_LB, AWP_UB: DSLP_LB, DSLP_LB: AWP_UB}
FIG4 = (
    (DWP_LB, AWP_LB), (DWP_LB, DWLP_LB), (AWP_LB, AWLP_LB), (DWLP_LB, AWLP_LB),
    (AWP_UB, DWP_UB), (AWLP_UB, AWP_UB), (AWLP_UB, DWLP_UB), (DWLP_UB, DWP_UB),
    (DSP_LB, ASP_LB), (DSP_LB, DSLP_LB), (ASP_LB, ASLP_LB), (DSLP_LB, ASLP_LB),
    (ASP_UB, DSP_UB), (ASLP_UB, ASP_UB), (ASLP_UB, DSLP_UB), (DSLP_UB, DSP_UB),
    (DWP_LB, INTERSECTION_LOGIC), (INTERSECTION_LOGIC, AWP_LB),
    (INTERSECTION_LOGIC, DWLP_LB), (INTERSECTION_LOGIC, UNION_LOGIC),
    (AWP_LB, UNION_LOGIC), (DWLP_LB, UNION_LOGIC), (UNION_LOGIC, AWLP_LB),
)
LEG_TABLE = {
    "dwlpLB": DWLP_LB, "dwpLB": DWP_LB, "awpLB": AWP_LB, "awlpLB": AWLP_LB,
    "aspLB": ASP_LB, "dspLB": DSP_LB, "aslpLB": ASLP_LB,
    "dwlpLB-contra": AWP_UB, "dwpLB-contra": AWLP_UB, "awpLB-contra": DWLP_UB,
    "awlpLB-contra": DWP_UB, "aspLB-contra": DSLP_UB, "dspLB-contra": ASLP_UB,
    "aslpLB-contra": DSP_UB,
    "awpUB": AWP_UB, "awlpUB": AWLP_UB, "dwlpUB": DWLP_UB, "dwpUB": DWP_UB,
    "dslpUB": DSLP_UB, "aslpUB": ASLP_UB, "dspUB": DSP_UB,
}
APPENDIX_C_LEGS = (
    "dwlpLB", "dwpLB", "awpLB", "awlpLB", "aspLB", "dspLB", "aslpLB",
    "dwlpLB-contra", "dwpLB-contra", "awpLB-contra", "awlpLB-contra",
    "aspLB-contra", "dspLB-contra", "aslpLB-contra",
)

K = TransformerKind


def _pairs(table):
    return [(ALL_LOGICS[a], ALL_LOGICS[d], detail) for a, d, detail in table]


class TestDerivedTables:
    def test_each_kind_knows_its_table_position(self):
        assert [kind.position for kind in K] == list(range(8))
        assert (K.AWP.position, K.DWLP.position, K.ASP.position, K.DSLP.position) == (
            AWP, DWLP, ASP, DSLP)

    def test_contrapositive_partners(self):
        assert CONTRAPOSITIVE == CONTRA
        assert len(CONTRAPOSITIVE) == 16

    def test_galois_partners(self):
        assert GALOIS == GALOIS_PARTNERS

    def test_fig4_arrows(self):
        got = _pairs(_IMPLICATIONS)
        assert len(got) == 23
        assert sorted(got, key=repr) == sorted(
            ((a, d, f"{a.name} does not imply {d.name}") for a, d in FIG4), key=repr)

    def test_contrapositive_pairs_checked_by_fig4(self):
        got = _pairs(_CONTRA_PAIRS)
        assert len(got) == 8
        for a, d, detail in got:
            assert CONTRA[a] is d and detail == f"{a.name} and {d.name} are not contrapositive"
        assert {frozenset((a, d)) for a, d, _ in got} == {
            frozenset(pair) for pair in CONTRA.items()}

    def test_galois_pairs_checked_by_fig4(self):
        got = _pairs(_GALOIS_PAIRS)
        assert {frozenset((a, d)) for a, d, _ in got} == {
            frozenset(pair) for pair in GALOIS_PARTNERS.items()}
        assert [detail for _, _, detail in got] == [
            "partial-correctness Galois pair disagrees",
            "partial-incorrectness Galois pair disagrees"]

    def test_ordering_chains_and_complements(self):
        names = [kind.value for kind in K]
        assert [(names[x], names[y], names[z], detail)
                for x, y, z, detail in _ORDERING_CHAINS] == [
            ("dwp", "awp", "awlp", "ordering dwp <= awp <= awlp fails"),
            ("dwp", "dwlp", "awlp", "ordering dwp <= dwlp <= awlp fails"),
            ("dsp", "asp", "aslp", "ordering dsp <= asp <= aslp fails"),
            ("dsp", "dslp", "aslp", "ordering dsp <= dslp <= aslp fails"),
        ]
        assert [(names[a], names[d]) for a, d, _ in _COMPLEMENTS] == [
            ("awp", "dwlp"), ("dwp", "awlp"), ("asp", "dslp"), ("dsp", "aslp")]

    def test_legs(self):
        assert LEGS == LEG_TABLE
        assert list(LEGS) == list(LEG_TABLE)

    def test_appendix_c_claim_ids(self):
        ids = appendix_c_claims()
        assert len(ids) == len(set(ids)) == 91
        assert ids == [f"appendixC:{a}-vs-{b}" for a, b in combinations(APPENDIX_C_LEGS, 2)]
        assert ids[0] == "appendixC:dwlpLB-vs-dwpLB"
        assert ids[-1] == "appendixC:dspLB-contra-vs-aslpLB-contra"


# --- the three facts, against the per-kind reference oracle ---------------------

SPACE = StateSpace(("x",), 3)
KINDS = tuple(K)


def _samples(seed, count=60):
    rng = random.Random(seed)
    full = SPACE.full_mask
    for _ in range(count):
        prof = profile(random_program(rng, SPACE, 4, True), SPACE)
        yield prof, rng.randrange(full + 1), rng.randrange(full + 1), full


@pytest.mark.parametrize("seed", [1, 2])
def test_orderings_hold_pointwise(seed):
    for prof, q, _, _ in _samples(seed):
        for x, y in ORDERING:
            assert oracle_bits(KINDS[x], prof, q) & ~oracle_bits(KINDS[y], prof, q) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_duals_are_complements_on_the_negation(seed):
    for prof, q, _, full in _samples(seed):
        for x, y in DUALS:
            assert oracle_bits(KINDS[x], prof, q) == full ^ oracle_bits(KINDS[y], prof, full ^ q)
            assert oracle_bits(KINDS[y], prof, q) == full ^ oracle_bits(KINDS[x], prof, full ^ q)


@pytest.mark.parametrize("seed", [1, 2])
def test_adjunctions_hold(seed):
    for prof, b, c, full in _samples(seed):
        for _, f, g in ADJUNCTIONS:
            # f reads the precondition if forward, the postcondition if backward
            x, y = (c, b) if KINDS[f].backward else (b, c)
            assert ((oracle_bits(KINDS[f], prof, x) & ~y & full == 0)
                    == (x & ~oracle_bits(KINDS[g], prof, y) == 0))
