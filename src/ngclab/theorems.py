"""The machine-checked theorem suite.

Universal claims are checked over a corpus of programs and predicate pairs;
conditional (collapse) claims are checked on the assumption-filtered part of
the corpus, and each verdict also records a triple violating the bare
equality outside the filter, witnessing that the assumption does real work.
A false verdict on any of these theorems signals an implementation bug.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Optional

from .generators import GeneratorConfig, all_predicates, generate_programs
from .logics import (
    ALL_LOGICS,
    ASP_LB, ASP_UB, ASLP_LB, ASLP_UB, AWP_LB, AWP_UB, AWLP_LB, AWLP_UB,
    DSP_LB, DSP_UB, DSLP_LB, DSLP_UB, DWP_LB, DWP_UB, DWLP_LB, DWLP_UB,
    INTERSECTION_LOGIC, UNION_LOGIC,
    Bound, LogicId, syntactic_choice,
)
from .relations import Relation
from .semantics import Profile, profile
from .space import Predicate, StateSpace
from .syntax import Choice, Program, Skip, While, TRUE, pretty_program
from .topkat import check_equation
from .transformers import TransformerKind, _oracle_bits

THEOREM_IDS = (
    "ORDERING",
    "CONTRAPOSITIVE",
    "GALOIS_PC",
    "GALOIS_PI",
    "TERMINATION_COLLAPSE",
    "MAY_TERMINATION",
    "REACHABILITY_COLLAPSE",
    "DETERMINISM_COLLAPSE",
    "REVERSIBILITY_COLLAPSE",
    "BRANCHING_COLLAPSE",
    "BRIDGES",
    "COMBO_IDENTITIES",
    "FIG4_IMPLICATIONS",
    "REMARK_DIVERGING",
)

COLLAPSE_IDS = (
    "TERMINATION_COLLAPSE",
    "MAY_TERMINATION",
    "REACHABILITY_COLLAPSE",
    "DETERMINISM_COLLAPSE",
    "REVERSIBILITY_COLLAPSE",
    "BRANCHING_COLLAPSE",
)


@dataclass(frozen=True)
class CorpusConfig:
    programs: GeneratorConfig = field(default_factory=GeneratorConfig)
    predicate_mode: str = "all"  # "all" or "sample"
    predicate_pairs: int = 3     # pairs per program when sampling
    predicate_seed: int = 0

    def space(self) -> StateSpace:
        return self.programs.space()


def corpus_preset(name: str, **overrides) -> CorpusConfig:
    if name == "tiny":
        base = CorpusConfig(GeneratorConfig(("x",), 2, max_depth=2))
    elif name == "small-exhaustive":
        base = CorpusConfig(GeneratorConfig(("x",), 2, max_depth=3))
    elif name == "loops":
        base = CorpusConfig(
            GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True,
                            mode="random", seed=2025, count=10_000),
            predicate_mode="sample",
            predicate_pairs=3,
            predicate_seed=2025,
        )
    else:
        raise KeyError(f"unknown corpus preset {name!r}")
    if overrides:
        prog_fields = {k: v for k, v in overrides.items()
                       if k in GeneratorConfig.__dataclass_fields__}
        rest = {k: v for k, v in overrides.items()
                if k not in GeneratorConfig.__dataclass_fields__}
        prog = replace(base.programs, **prog_fields) if prog_fields else base.programs
        base = replace(base, programs=prog, **rest)
    return base


def corpus_items(
    corpus: CorpusConfig,
) -> Iterator[tuple[Program, list[tuple[Predicate, Predicate]]]]:
    """Programs each paired with the (pre, post) predicate pairs to check."""
    space = corpus.space()
    if corpus.predicate_mode == "all":
        preds = list(all_predicates(space))
        pairs = [(b, c) for b in preds for c in preds]
        for p in generate_programs(corpus.programs):
            yield p, pairs
    elif corpus.predicate_mode == "sample":
        rng = random.Random(corpus.predicate_seed)
        full = 1 << space.size
        for p in generate_programs(corpus.programs):
            pairs = [
                (Predicate(space, rng.randrange(full)),
                 Predicate(space, rng.randrange(full)))
                for _ in range(corpus.predicate_pairs)
            ]
            yield p, pairs
    else:
        raise ValueError(f"unknown predicate mode {corpus.predicate_mode!r}")


@dataclass
class Verdict:
    claim: str
    holds: bool
    witness: Optional[dict] = None
    stats: dict = field(default_factory=dict)
    nonvacuity: Optional[dict] = None

    def to_jsonable(self) -> dict:
        out = {"claim": self.claim, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.nonvacuity is not None:
            out["nonvacuity"] = self.nonvacuity
        out["stats"] = self.stats
        return out


def _witness(p: Program, space: StateSpace, detail: str, b=None, c=None) -> dict:
    out = {"program": pretty_program(p), "detail": detail}
    if b is not None:
        out["pre"] = repr(b)
    if c is not None:
        out["post"] = repr(c)
    return out


def _transforms(prof: Profile, bbits: int, cbits: int) -> dict[TransformerKind, int]:
    out = {}
    for kind in TransformerKind:
        q = cbits if kind.backward else bbits
        out[kind] = _transform_cached(prof, kind, q)
    return out


@lru_cache(maxsize=1 << 20)
def _transform_cached(prof: Profile, kind: TransformerKind, q: int) -> int:
    return _oracle_bits(kind, prof, q)


def _holds_vector(prof: Profile, bbits: int, cbits: int) -> dict[LogicId, bool]:
    tr = _transforms(prof, bbits, cbits)
    full = prof.space.full_mask
    vec: dict[LogicId, bool] = {}
    for logic in ALL_LOGICS:
        if logic is UNION_LOGIC:
            target = tr[TransformerKind.AWP] | tr[TransformerKind.DWLP]
            vec[logic] = bbits & ~target == 0
        elif logic is INTERSECTION_LOGIC:
            target = tr[TransformerKind.AWP] & tr[TransformerKind.DWLP]
            vec[logic] = bbits & ~target == 0
        else:
            result = tr[logic.kind]
            bound_on = bbits if logic.kind.backward else cbits
            if logic.bound is Bound.LB:
                vec[logic] = bound_on & ~result == 0
            else:
                vec[logic] = result & ~bound_on & full == 0
    return vec


@lru_cache(maxsize=1 << 18)
def _equation_cached(eq: str, rel: Relation, bbits: int, cbits: int,
                     space: StateSpace) -> bool:
    return check_equation(eq, Predicate(space, bbits), rel, Predicate(space, cbits))


_IMPLICATIONS = (
    (DWP_LB, AWP_LB), (DWP_LB, DWLP_LB), (AWP_LB, AWLP_LB), (DWLP_LB, AWLP_LB),
    (AWP_UB, DWP_UB), (AWLP_UB, AWP_UB), (AWLP_UB, DWLP_UB), (DWLP_UB, DWP_UB),
    (DSP_LB, ASP_LB), (DSP_LB, DSLP_LB), (ASP_LB, ASLP_LB), (DSLP_LB, ASLP_LB),
    (ASP_UB, DSP_UB), (ASLP_UB, ASP_UB), (ASLP_UB, DSLP_UB), (DSLP_UB, DSP_UB),
    # the in-between logics sit strictly inside the upper-left quadrant
    (DWP_LB, INTERSECTION_LOGIC), (INTERSECTION_LOGIC, AWP_LB),
    (INTERSECTION_LOGIC, DWLP_LB), (INTERSECTION_LOGIC, UNION_LOGIC),
    (AWP_LB, UNION_LOGIC), (DWLP_LB, UNION_LOGIC), (UNION_LOGIC, AWLP_LB),
)

_CONTRA_PAIRS = (
    (AWP_UB, DWLP_LB), (DWP_UB, AWLP_LB), (AWP_LB, DWLP_UB), (DWP_LB, AWLP_UB),
    (ASP_UB, DSLP_LB), (ASP_LB, DSLP_UB), (DSP_UB, ASLP_LB), (DSP_LB, ASLP_UB),
)

_BRIDGES = (
    ("LISBON", AWP_LB),
    ("PARTIAL_CORRECTNESS", DWLP_LB),
    ("PARTIAL_CORRECTNESS", ASP_UB),
    ("PC_CONTRA", DWLP_LB),
    ("DWLP_UB", DWLP_UB),
    ("INCORRECTNESS", ASP_LB),
    ("ANGELIC_PARTIAL_INCORRECTNESS", ASLP_LB),
    ("DEMONIC_PARTIAL_INCORRECTNESS", DSLP_LB),
    ("DSLP_UB", DSLP_UB),
    ("DSP_UB", DSP_UB),
    ("IN_BETWEEN", UNION_LOGIC),
    ("DEMONIC_INCORRECTNESS", DSP_LB),
)


@lru_cache(maxsize=1 << 18)
def _check_ordering(prof, bbits, cbits):
    chains = (
        (TransformerKind.DWP, TransformerKind.AWP, TransformerKind.AWLP),
        (TransformerKind.DWP, TransformerKind.DWLP, TransformerKind.AWLP),
        (TransformerKind.DSP, TransformerKind.ASP, TransformerKind.ASLP),
        (TransformerKind.DSP, TransformerKind.DSLP, TransformerKind.ASLP),
    )
    for q in (bbits, cbits):
        values = {k: _transform_cached(prof, k, q) for k in TransformerKind}
        for low, mid, high in chains:
            if values[low] & ~values[mid] or values[mid] & ~values[high]:
                return f"ordering {low.value} <= {mid.value} <= {high.value} fails"
    return None


@lru_cache(maxsize=1 << 18)
def _check_contrapositive(prof, bbits, cbits):
    full = prof.space.full_mask
    for q in (bbits, cbits):
        nq = ~q & full
        pairs = (
            (TransformerKind.AWP, TransformerKind.DWLP),
            (TransformerKind.DWP, TransformerKind.AWLP),
            (TransformerKind.ASP, TransformerKind.DSLP),
            (TransformerKind.DSP, TransformerKind.ASLP),
        )
        for a, d in pairs:
            if _transform_cached(prof, a, q) != ~_transform_cached(prof, d, nq) & full:
                return f"{a.value} is not the complement of {d.value} on the negation"
        dsp = _transform_cached(prof, TransformerKind.DSP, q)
        aslp_neg = _transform_cached(prof, TransformerKind.ASLP, nq)
        if dsp & aslp_neg or (dsp | aslp_neg) != full:
            return "dsp and aslp of the negation do not split the state space"
    return None


@lru_cache(maxsize=1 << 18)
def _check_galois_pc(prof, bbits, cbits):
    full = prof.space.full_mask
    lhs = bbits & ~_transform_cached(prof, TransformerKind.DWLP, cbits) == 0
    rhs = _transform_cached(prof, TransformerKind.ASP, bbits) & ~cbits & full == 0
    return None if lhs == rhs else "partial-correctness adjunction fails"


@lru_cache(maxsize=1 << 18)
def _check_galois_pi(prof, bbits, cbits):
    full = prof.space.full_mask
    lhs = _transform_cached(prof, TransformerKind.AWP, cbits) & ~bbits & full == 0
    rhs = cbits & ~_transform_cached(prof, TransformerKind.DSLP, bbits) == 0
    return None if lhs == rhs else "partial-incorrectness adjunction fails"


@lru_cache(maxsize=1 << 18)
def _check_combo(prof, bbits, cbits):
    for q in (bbits, cbits):
        asp = _transform_cached(prof, TransformerKind.ASP, q)
        dslp = _transform_cached(prof, TransformerKind.DSLP, q)
        if _transform_cached(prof, TransformerKind.DSP, q) != asp & dslp:
            return "dsp is not asp intersect dslp"
        if _transform_cached(prof, TransformerKind.ASLP, q) != asp | dslp:
            return "aslp is not asp union dslp"
    return None


@lru_cache(maxsize=1 << 18)
def _check_fig4(prof, bbits, cbits):
    full = prof.space.full_mask
    vec = _holds_vector(prof, bbits, cbits)
    for src, dst in _IMPLICATIONS:
        if vec[src] and not vec[dst]:
            return f"{src.name} does not imply {dst.name}"
    neg = _holds_vector(prof, ~bbits & full, ~cbits & full)
    for a, d in _CONTRA_PAIRS:
        if vec[a] != neg[d]:
            return f"{a.name} and {d.name} are not contrapositive"
    if vec[DWLP_LB] != vec[ASP_UB]:
        return "partial-correctness Galois pair disagrees"
    if vec[AWP_UB] != vec[DSLP_LB]:
        return "partial-incorrectness Galois pair disagrees"
    return None


@lru_cache(maxsize=1 << 18)
def _check_bridges(prof, bbits, cbits):
    vec = _holds_vector(prof, bbits, cbits)
    for eq, logic in _BRIDGES:
        if _equation_cached(eq, prof.relation, bbits, cbits, prof.space) != vec[logic]:
            return f"equation {eq} disagrees with {logic.name}"
    return None


@lru_cache(maxsize=1 << 18)
def _reversible_on(prof: Profile, cbits: int) -> bool:
    return all(
        prof.inverse_relation.rows[i].bit_count() <= 1
        for i in range(prof.space.size)
        if cbits >> i & 1
    )


# collapse theorem table: per program assumption bits and scoped equalities

def _collapse_rule(theorem: str):
    """Returns (assumption, equality) functions over (program, profile, b, c).

    The assumption is scoped to the states the triple talks about: the
    precondition for backward collapses, the postcondition for forward ones.
    The equality is the collapse claim restricted to the same scope.
    """
    K = TransformerKind
    if theorem == "TERMINATION_COLLAPSE":
        return (
            lambda p, prof, b, c, full: prof.may_div & b == 0,
            lambda prof, b, c, full: (
                b & _transform_cached(prof, K.DWP, c) == b & _transform_cached(prof, K.DWLP, c)
                and b & _transform_cached(prof, K.AWP, c) == b & _transform_cached(prof, K.AWLP, c)
            ),
        )
    if theorem == "REACHABILITY_COLLAPSE":
        return (
            lambda p, prof, b, c, full: c & ~prof.reach & full == 0,
            lambda prof, b, c, full: (
                c & _transform_cached(prof, K.ASP, b) == c & _transform_cached(prof, K.ASLP, b)
                and c & _transform_cached(prof, K.DSP, b) == c & _transform_cached(prof, K.DSLP, b)
            ),
        )
    if theorem == "DETERMINISM_COLLAPSE":
        return (
            lambda p, prof, b, c, full: syntactic_choice(p) is None,
            lambda prof, b, c, full: (
                _transform_cached(prof, K.AWP, c) == _transform_cached(prof, K.DWP, c)
                and _transform_cached(prof, K.AWLP, c) == _transform_cached(prof, K.DWLP, c)
            ),
        )
    if theorem == "REVERSIBILITY_COLLAPSE":
        return (
            lambda p, prof, b, c, full: _reversible_on(prof, c),
            lambda prof, b, c, full: (
                c & _transform_cached(prof, K.ASP, b) == c & _transform_cached(prof, K.DSP, b)
                and c & _transform_cached(prof, K.ASLP, b) == c & _transform_cached(prof, K.DSLP, b)
            ),
        )
    if theorem == "BRANCHING_COLLAPSE":
        return (
            lambda p, prof, b, c, full: prof.may_div & ~prof.must_div & b == 0,
            lambda prof, b, c, full: (
                b & _transform_cached(prof, K.DWP, c)
                == b & _transform_cached(prof, K.AWP, c) & _transform_cached(prof, K.DWLP, c)
                and b & _transform_cached(prof, K.AWLP, c)
                == b & (_transform_cached(prof, K.AWP, c) | _transform_cached(prof, K.DWLP, c))
            ),
        )
    if theorem == "MAY_TERMINATION":
        # under no branching divergence, may-termination everywhere and
        # must-termination everywhere are the same program property
        return (
            lambda p, prof, b, c, full: prof.may_div == prof.must_div,
            lambda prof, b, c, full: (
                (_transform_cached(prof, K.AWP, full) == full)
                == (_transform_cached(prof, K.AWLP, 0) == 0)
            ),
        )
    raise KeyError(f"unknown collapse theorem {theorem!r}")


def check_theorem(theorem: str, corpus: CorpusConfig) -> Verdict:
    """Check one theorem over the corpus; collapse theorems also hunt for a
    triple outside the assumption filter that breaks the bare equality."""
    space = corpus.space()
    full = space.full_mask
    started = time.perf_counter()
    programs = 0
    triples = 0

    if theorem == "REMARK_DIVERGING":
        plain = Skip()
        branching = Choice(Skip(), While(TRUE, Skip()))
        prof_a = profile(plain, space)
        prof_b = profile(branching, space)
        same_relation = prof_a.relation == prof_b.relation
        awlp_a = _oracle_bits(TransformerKind.AWLP, prof_a, 0)
        awlp_b = _oracle_bits(TransformerKind.AWLP, prof_b, 0)
        holds_ = same_relation and awlp_a != awlp_b
        witness = None if holds_ else _witness(
            branching, space, "collecting semantics or liberal precondition mismatch"
        )
        return Verdict(theorem, holds_, witness,
                       {"programs": 2, "triples": 1,
                        "elapsed_s": round(time.perf_counter() - started, 3)})

    if theorem in COLLAPSE_IDS:
        assumption, equality = _collapse_rule(theorem)
        nonvacuity = None
        for p, pairs in corpus_items(corpus):
            programs += 1
            prof = profile(p, space)
            for b, c in pairs:
                triples += 1
                inside = assumption(p, prof, b.bits, c.bits, full)
                equal = equality(prof, b.bits, c.bits, full)
                if inside and not equal:
                    return Verdict(
                        theorem, False,
                        _witness(p, space, "collapse equality fails under the assumption", b, c),
                        {"programs": programs, "triples": triples},
                    )
                if not inside and not equal and nonvacuity is None:
                    nonvacuity = _witness(
                        p, space, "equality fails outside the assumption filter", b, c
                    )
        return Verdict(theorem, True, None,
                       {"programs": programs, "triples": triples,
                        "elapsed_s": round(time.perf_counter() - started, 3)},
                       nonvacuity)

    per_pair = {
        "ORDERING": _check_ordering,
        "CONTRAPOSITIVE": _check_contrapositive,
        "GALOIS_PC": _check_galois_pc,
        "GALOIS_PI": _check_galois_pi,
        "COMBO_IDENTITIES": _check_combo,
        "FIG4_IMPLICATIONS": _check_fig4,
        "BRIDGES": _check_bridges,
    }
    if theorem not in per_pair:
        raise KeyError(f"unknown theorem {theorem!r}")
    checker = per_pair[theorem]
    for p, pairs in corpus_items(corpus):
        programs += 1
        prof = profile(p, space)
        for b, c in pairs:
            triples += 1
            detail = checker(prof, b.bits, c.bits)
            if detail is not None:
                return Verdict(
                    theorem, False, _witness(p, space, detail, b, c),
                    {"programs": programs, "triples": triples},
                )
    return Verdict(theorem, True, None,
                   {"programs": programs, "triples": triples,
                    "elapsed_s": round(time.perf_counter() - started, 3)})


def run_survey(suite: list[str], corpus: CorpusConfig) -> list[Verdict]:
    return [check_theorem(theorem, corpus) for theorem in suite]
