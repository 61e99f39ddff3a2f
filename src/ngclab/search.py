"""Counterexample search over canonically enumerated programs and predicates.

Claims are negative statements: two triple logics said to differ, a
transformer said not to be a combination of others, a property said to be
invisible to the relational denotation.  The engine enumerates candidate
triples smallest-first and reports the first witness, or that the budget ran
out, or that the whole candidate space was exhausted.  The three outcomes are
distinct: for a true equivalence (a real Galois connection) no budget ever
suffices, and the caller needs to know the search was honest.

One loop, `_drive`, counts the candidates of every kind of claim.  Each kind
supplies a stream of per-program blocks: the program is profiled once, and every
transformer it needs is tabulated once per predicate, so a candidate triple
costs two bit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Optional

from .generators import all_predicates, exhaustive_programs
from .logics import (
    ASP_LB, ASP_UB, ASLP_LB, ASLP_UB, AWP_LB, AWP_UB, AWLP_LB, AWLP_UB,
    DSP_LB, DSP_UB, DSLP_LB, DSLP_UB, DWP_LB, DWP_UB, DWLP_LB, DWLP_UB,
    INTERSECTION_LOGIC, UNION_LOGIC,
    Bound, LogicId, syntactic_choice,
)
from .semantics import Profile, profile
from .space import Predicate, StateSpace, low_bit
from .syntax import Program, pretty_program
from .topkat import check_equation
from .transformers import TransformerKind, rows_table

FOUND = "found"
BUDGET_EXHAUSTED = "budget-exhausted"
SPACE_EXHAUSTED = "space-exhausted"


@dataclass(frozen=True)
class SearchConfig:
    """Search ladder: each rung is a (variables, modulus) space searched with
    exhaustively enumerated programs up to the depth bound."""

    spaces: tuple[tuple[tuple[str, ...], int], ...] = (
        (("x",), 2),
        (("x",), 3),
    )
    max_depth: int = 3
    loops: bool = False
    budget: int = 10**5


@dataclass
class SearchResult:
    claim: str
    outcome: str
    witness: Optional[dict] = None
    candidates: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.outcome == FOUND

    def to_jsonable(self) -> dict:
        out = {"claim": self.claim, "outcome": self.outcome,
               "candidates": self.candidates}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# --- the catalog of pairwise non-equivalent logic claims -----------------------

# seven representative logics plus their contrapositives; the two logics
# equivalent to one of these via an adjunction are deliberately absent
_BASE_LEGS = (
    ("dwlpLB", DWLP_LB),
    ("dwpLB", DWP_LB),
    ("awpLB", AWP_LB),
    ("awlpLB", AWLP_LB),
    ("aspLB", ASP_LB),
    ("dspLB", DSP_LB),
    ("aslpLB", ASLP_LB),
)
_CONTRA_OF = {
    "dwlpLB": AWP_UB,
    "dwpLB": AWLP_UB,
    "awpLB": DWLP_UB,
    "awlpLB": DWP_UB,
    "aspLB": DSLP_UB,
    "dspLB": ASLP_UB,
    "aslpLB": DSP_UB,
}

LEGS: dict[str, LogicId] = {}
for _name, _logic in _BASE_LEGS:
    LEGS[_name] = _logic
for _name, _logic in _CONTRA_OF.items():
    LEGS[f"{_name}-contra"] = _logic
# direct bound-direction spellings are accepted too
for _logic in (AWP_UB, AWLP_UB, DWLP_UB, DWP_UB, DSLP_UB, ASLP_UB, DSP_UB):
    LEGS[_logic.name.replace("-ub", "UB")] = _logic


def appendix_c_claims() -> list[str]:
    """All 91 pairwise-distinctness claims over the seven representative
    logics and their seven contrapositives (stable `appendixC:` ids)."""
    names = [name for name, _ in _BASE_LEGS]
    names += [f"{name}-contra" for name, _ in _BASE_LEGS]
    return [f"appendixC:{a}-vs-{b}" for a, b in combinations(names, 2)]


# --- counting candidates ------------------------------------------------------

@dataclass(frozen=True)
class _Block:
    """The candidates one enumerated program contributes, in search order:
    `first_hit(limit)` is the index of the first refuting candidate among the
    first `limit` of them, or None; `witness(index)` describes that candidate.

    `_drive` is done with a block before it asks the stream for the next one,
    so a block's callables may read the stream's loop variables."""

    size: int
    first_hit: Callable[[int], Optional[int]]
    witness: Callable[[int], dict]


def _drive(claim: str, blocks: Iterable[_Block], budget: int) -> SearchResult:
    """Count candidates across the blocks: the first hit within the budget is
    found, a candidate left over once the budget is spent exhausts the budget,
    and a stream ending at or under the budget exhausts the space."""
    budget = max(budget, 0)
    spent = 0
    for block in blocks:
        left = budget - spent
        hit = block.first_hit(min(block.size, left))
        if hit is not None:
            return SearchResult(claim, FOUND, block.witness(hit), spent + hit + 1)
        if block.size > left:
            return SearchResult(claim, BUDGET_EXHAUSTED, None, budget)
        spent += block.size
    return SearchResult(claim, SPACE_EXHAUSTED, None, spent)


Verdict = Callable[[int, int], bool]


def _verdict_block(npred: int, left: Verdict, right: Verdict,
                   describe: Callable[[int, int, bool, bool], dict]) -> _Block:
    """Candidates are the (i, j) pairs of predicate bits, i-major; a candidate
    refutes when the two verdicts differ on it."""

    def first_hit(limit: int) -> Optional[int]:
        for index in range(limit):
            i, j = divmod(index, npred)
            if left(i, j) != right(i, j):
                return index
        return None

    def witness(index: int) -> dict:
        i, j = divmod(index, npred)
        return describe(i, j, left(i, j), right(i, j))

    return _Block(npred * npred, first_hit, witness)


def _excluded_block(size: int) -> _Block:
    """A program the claim does not range over: its candidates still count."""
    return _Block(size, lambda limit: None, lambda index: {})


def _programs(config: SearchConfig) -> Iterator[tuple[StateSpace, list[Predicate], Program]]:
    for variables, modulus in config.spaces:
        space = StateSpace(variables, modulus)
        preds = list(all_predicates(space))
        for p in exhaustive_programs(space, config.max_depth, config.loops):
            yield space, preds, p


_KINDS = tuple(TransformerKind)


@lru_cache(maxsize=1 << 12)
def _class_tables(rows: tuple[int, ...], may_div: int) -> tuple[tuple[int, ...], ...]:
    """For one semantic class -- the programs with these relation rows and
    this may-divergence -- each transformer (in TransformerKind order) applied
    to every predicate, indexed by its bits."""
    return tuple(zip(*(rows_table(rows, may_div, q) for q in range(1 << len(rows)))))


def _table(kind: TransformerKind, prof: Profile) -> tuple[int, ...]:
    return _class_tables(prof.relation.rows, prof.may_div)[_KINDS.index(kind)]


def _logic_verdict(logic: LogicId, prof: Profile) -> Verdict:
    """The logic's subset condition as a test on the bits of (pre, post)."""
    if logic.kind is None:
        combine = or_ if logic is UNION_LOGIC else and_
        target = list(map(combine, _table(TransformerKind.AWP, prof),
                          _table(TransformerKind.DWLP, prof)))
        return lambda b, c: b & ~target[c] == 0
    result = _table(logic.kind, prof)
    if logic.kind.backward:
        if logic.bound is Bound.LB:
            return lambda b, c: b & ~result[c] == 0
        return lambda b, c: result[c] & ~b == 0
    if logic.bound is Bound.LB:
        return lambda b, c: c & ~result[b] == 0
    return lambda b, c: result[b] & ~c == 0


def _witness(space: StateSpace, programs: dict, pre: Predicate, post: Predicate,
             detail: str, **extra) -> dict:
    return {
        "space": f"vars {', '.join(space.variables)} mod {space.modulus}",
        "variables": list(space.variables),
        "modulus": space.modulus,
        **programs,
        "pre": repr(pre),
        "pre_indices": sorted(pre.indices()),
        "post": repr(post),
        "post_indices": sorted(post.indices()),
        "detail": detail,
        **extra,
    }


# --- the four kinds of claim, each a stream of per-program blocks ---------------

def _logic_pair_blocks(config: SearchConfig, left: LogicId, right: LogicId,
                       program_filter=None) -> Iterator[_Block]:
    def describe(b, c, lv, rv):
        return _witness(space, {"program": pretty_program(p)}, preds[b], preds[c],
                        f"{left.name} is {lv} but {right.name} is {rv}",
                        left=left.name, right=right.name)

    for space, preds, p in _programs(config):
        npred = len(preds)
        prof = profile(p, space)
        if program_filter is not None and not program_filter(p, prof):
            yield _excluded_block(npred * npred)
            continue
        yield _verdict_block(npred, _logic_verdict(left, prof),
                             _logic_verdict(right, prof), describe)


def _combination_gap_blocks(claim: str, config: SearchConfig) -> Iterator[_Block]:
    """Transformer-level gaps: dwp vs awp-and-dwlp, awlp vs awp-or-dwlp; one
    candidate per postcondition."""
    if claim == "dwp-neq-intersection":
        kind, combine = TransformerKind.DWP, and_
        detail = "dwp differs from awp intersect dwlp"
    else:
        kind, combine = TransformerKind.AWLP, or_
        detail = "awlp differs from awp union dwlp"

    def witness(c: int) -> dict:
        idx = low_bit(gaps[c])
        return _witness(space, {"program": pretty_program(p)},
                        Predicate(space, 1 << idx), preds[c], detail,
                        state=space.render_states([idx])[0], state_index=idx)

    for space, preds, p in _programs(config):
        prof = profile(p, space)
        gaps = [result ^ combine(awp, dwlp) for result, awp, dwlp in zip(
            _table(kind, prof), _table(TransformerKind.AWP, prof),
            _table(TransformerKind.DWLP, prof))]
        yield _Block(len(preds),
                     lambda limit: next((c for c in range(limit) if gaps[c]), None),
                     witness)


def _relational_blindspot_blocks(config: SearchConfig) -> Iterator[_Block]:
    """Two programs with one relational denotation but different demonic
    total-correctness verdicts: one block for each earlier program sharing the
    relation, candidates postcondition-major."""
    by_relation: dict = {}
    for space, preds, p in _programs(config):
        prof = profile(p, space)
        total = _logic_verdict(DWP_LB, prof)
        others = by_relation.setdefault((space, prof.relation), [])
        for q, q_total in others:
            def describe(c, b, v1, v2):
                return _witness(
                    space, {"program_a": pretty_program(q), "program_b": pretty_program(p)},
                    preds[b], preds[c],
                    f"equal relational denotations, total-correctness verdicts {v1} vs {v2}",
                )

            yield _verdict_block(len(preds), lambda c, b: q_total(b, c),
                                 lambda c, b: total(b, c), describe)
        others.append((p, total))


def _outcome_gap_blocks(config: SearchConfig) -> Iterator[_Block]:
    """The two-equation outcome system versus the pointwise intersection logic."""

    def describe(b, c, system, logic):
        return _witness(space, {"program": pretty_program(p)}, preds[b], preds[c],
                        f"equation system says {system}, subset condition says {logic}")

    for space, preds, p in _programs(config):
        prof = profile(p, space)
        yield _verdict_block(
            len(preds),
            lambda b, c: check_equation("OUTCOME_CONJUNCTION", preds[b],
                                        prof.relation, preds[c]),
            _logic_verdict(INTERSECTION_LOGIC, prof),
            describe,
        )


def _reversible(prof) -> bool:
    return all(row.bit_count() <= 1 for row in prof.inverse_relation.rows)


def find_counterexample(claim: str, config: SearchConfig | None = None) -> SearchResult:
    """Hunt for a witness refuting the claim; see the module docstring for
    the three possible outcomes."""
    config = config or SearchConfig()
    return _drive(claim, _blocks(claim, config), config.budget)


def _blocks(claim: str, config: SearchConfig) -> Iterator[_Block]:
    if claim == "dwp-neq-intersection" or claim == "awlp-neq-union":
        return _combination_gap_blocks(claim, config)
    if claim == "galois-pc":
        return _logic_pair_blocks(config, DWLP_LB, ASP_UB)
    if claim == "galois-pi":
        return _logic_pair_blocks(config, AWP_UB, DSLP_LB)
    if claim == "galois-awlp-dsp-det-rev":
        # the forced adjunction: deterministic plus reversible programs only
        return _logic_pair_blocks(
            config, AWLP_LB, DSP_UB,
            program_filter=lambda p, prof: (
                syntactic_choice(p) is None and _reversible(prof)
            ),
        )
    if claim == "total-correctness-relational":
        return _relational_blindspot_blocks(config)
    if claim == "outcome-vs-intersection":
        return _outcome_gap_blocks(config)
    if claim.startswith("appendixC:"):
        body = claim[len("appendixC:"):]
        try:
            left_name, right_name = body.split("-vs-")
            left, right = LEGS[left_name], LEGS[right_name]
        except (ValueError, KeyError):
            raise KeyError(f"unknown catalog claim {claim!r}") from None
        return _logic_pair_blocks(config, left, right)
    raise KeyError(f"unknown claim {claim!r}")
