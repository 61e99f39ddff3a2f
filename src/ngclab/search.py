"""Counterexample search over canonically enumerated programs and predicates.

Claims are negative statements: two triple logics said to differ, a
transformer said not to be a combination of others, a property said to be
invisible to the relational denotation.  The engine enumerates candidate
triples smallest-first and reports the first witness, or that the budget ran
out, or that the whole candidate space was exhausted.  The three outcomes are
distinct: for a true equivalence (a real Galois connection) no budget ever
suffices, and the caller needs to know the search was honest.

One loop, `_drive`, counts the candidates of every kind of claim.  Each kind
supplies a stream of per-program blocks.  The programs are the rows of the
enumeration (`generators.exhaustive_rows`), read by index, and their
profiles come from `semantics.classify`, which composes only the first
entry of each (constructor, guard, parts' profiles) key from its parts'
meanings: every part of an enumerated program comes earlier in the
enumeration.  A program is built from its index only when its text is
read: for a witness, or for the det-rev filter's syntactic half on a class
with a hit; a witness's predicates are built from their bits likewise.  A
block's verdicts depend only on the program's semantic class (its profile:
relation rows and may-divergence), so within one call each class is
scanned once for its first refuting candidate, and a later program of the
class costs one comparison of that hit against the budget left.  The memo
lives and dies with the call, so a caller that clears the caches starts
cold.
A candidate is a (pre, post) pair of predicate bits, and a scan reads the
first one on which two verdicts differ.  Where both verdicts are triple
logics (the logic-pair claims and the relational blindspot), a class's
verdicts are the logics' validity sets (`logics.validity_sets`), every
pair at once, and the first hit is the lowest set bit of the two sets'
difference.  The outcome system against the intersection logic compares
the equation catalog with the per-pair kernel (`logics.violations`), one
pair at a time up to the first hit; the combination gaps read the
transformer tables directly.
`SearchResult.stats` counts the programs drawn and their classes.
"""

from __future__ import annotations

from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

# the kernel is imported as a module, not by name: see theorems.py
from . import logics as _logics
from .errors import unknown_name
from .generators import Enumeration, exhaustive_rows
from .logics import (
    CONTRAPOSITIVE, GALOIS,
    ASP_LB, ASLP_LB, AWP_LB, AWP_UB, AWLP_LB, DSP_LB, DSP_UB, DWP_LB, DWLP_LB,
    INTERSECTION_LOGIC,
    LogicId, syntactic_choice,
)
from .semantics import Profile, classify
from .space import Predicate, StateSpace, low_bit
from .syntax import pretty_program
from .topkat import EQUATIONS, catalog_values
from .transformers import AWLP, AWP, DWLP, DWP
from .values import Frozen, Value, setfield

FOUND = "found"
BUDGET_EXHAUSTED = "budget-exhausted"
SPACE_EXHAUSTED = "space-exhausted"


class SearchConfig(Frozen):
    """Search ladder: each rung is a (variables, modulus) space searched with
    exhaustively enumerated programs up to the depth bound."""

    __slots__ = ("spaces", "max_depth", "budget")

    def __init__(self,
                 spaces: tuple[tuple[tuple[str, ...], int], ...] = ((("x",), 2), (("x",), 3)),
                 max_depth: int = 3, budget: int = 10**5):
        setfield(self, "spaces", spaces)
        setfield(self, "max_depth", max_depth)
        setfield(self, "budget", budget)


class SearchResult(Value):
    __slots__ = ("claim", "outcome", "witness", "candidates", "stats")

    def __init__(self, claim: str, outcome: str, witness: Optional[dict] = None,
                 candidates: int = 0, stats: Optional[dict] = None):
        self.claim = claim
        self.outcome = outcome
        self.witness = witness
        self.candidates = candidates
        self.stats = {} if stats is None else stats

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
_REPRESENTATIVES = (DWLP_LB, DWP_LB, AWP_LB, AWLP_LB, ASP_LB, DSP_LB, ASLP_LB)


def _leg(logic: LogicId) -> str:
    return logic.kind.value + logic.bound.name   # dwlp-lb is dwlpLB


LEGS: dict[str, LogicId] = {_leg(logic): logic for logic in _REPRESENTATIVES}
LEGS.update((_leg(logic) + "-contra", CONTRAPOSITIVE[logic]) for logic in _REPRESENTATIVES)
# a contrapositive's own spelling is accepted too
LEGS.update((_leg(CONTRAPOSITIVE[logic]), CONTRAPOSITIVE[logic]) for logic in _REPRESENTATIVES)


def appendix_c_claims() -> list[str]:
    """All 91 pairwise-distinctness claims over the seven representative
    logics and their seven contrapositives (stable `appendixC:` ids)."""
    names = list(LEGS)[:2 * len(_REPRESENTATIVES)]
    return [f"appendixC:{a}-vs-{b}" for a, b in combinations(names, 2)]


# --- counting candidates ------------------------------------------------------

class _Block(NamedTuple):
    """The candidates one enumerated program contributes, in search order:
    `hit` is the index of the first refuting one, or None, and
    `witness(hit)` describes it.

    A block depends only on its program's semantic class, so a stream makes
    one per class and hands it out for every program of that class.
    `_drive` is done with a block before it asks the stream for the next one,
    so `witness` may read the stream's loop variables: a witness is described
    from the program at hand."""

    size: int
    hit: Optional[int]
    witness: Optional[Callable[[int], dict]]


def _drive(claim: str, blocks: Iterable[_Block], budget: int) -> SearchResult:
    """Count candidates across the blocks: the first hit within the budget is
    found, a candidate left over once the budget is spent exhausts the budget,
    and a stream ending at or under the budget exhausts the space."""
    budget = max(budget, 0)
    spent = 0
    for block in blocks:
        left = budget - spent
        hit = block.hit
        if hit is not None and hit < left:
            return SearchResult(claim, FOUND, block.witness(hit), spent + hit + 1)
        if block.size > left:
            return SearchResult(claim, BUDGET_EXHAUSTED, None, budget)
        spent += block.size
    return SearchResult(claim, SPACE_EXHAUSTED, None, spent)


def _first_difference(npred: int, differ: Callable[[int, int], bool]) -> Optional[int]:
    """Candidates are the (i, j) pairs of predicate bits, i-major: the index of
    the first on which `differ` holds, or None."""
    for i in range(npred):
        for j in range(npred):
            if differ(i, j):
                return i * npred + j
    return None


def _first_disagreement(left: int, right: int) -> Optional[int]:
    """The index of the first candidate in one of two validity sets but not
    in the other, or None."""
    differ = left ^ right
    return low_bit(differ) if differ else None


def _classes(config: SearchConfig, stats: dict, make: Callable[[Profile, int], object]
             ) -> Iterator[tuple[StateSpace, int, Enumeration, int, object]]:
    """Each enumerated program, as its space's predicate count, its rung's
    enumeration and its index there, with the value `make(prof, npred)` of
    its semantic class: its profile is all that a block's verdicts read
    (predicates are indexed by their bits), and the program is built from
    its index only when its text is read.  The profiles are read lazily
    off the stream classifier, as `_drive` stops at the budget.  The value
    is made once per profile, one object per class and space, and kept for
    this search only.  Counts programs and classes into `stats`."""
    memo: dict = {}
    for variables, modulus in config.spaces:
        space = StateSpace(variables, modulus)
        npred = 1 << space.size
        programs = Enumeration(exhaustive_rows(space, config.max_depth))
        for k, prof in enumerate(classify(programs, space)):
            stats["programs"] += 1
            value = memo.get(prof)
            if value is None:
                value = memo[prof] = make(prof, npred)
                stats["classes"] += 1
            yield space, npred, programs, k, value


def _witness(space: StateSpace, programs: dict, b: int, c: int,
             detail: str, **extra) -> dict:
    """A witness on the predicates with bits b and c."""
    pre, post = Predicate(space, b), Predicate(space, c)
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

def _logic_pair_blocks(config: SearchConfig, stats: dict, left: LogicId, right: LogicId,
                       det_rev: bool = False) -> Iterator[_Block]:
    """With `det_rev`, only deterministic, reversible programs are candidates:
    the semantic half of that filter is decided once per class, the syntactic
    half per program."""

    def block(prof: Profile, npred: int) -> _Block:
        if det_rev and prof.irreversible:
            return _Block(npred * npred, None, None)
        valid_left, valid_right = _logics.validity_sets((left, right), prof)

        def witness(index: int) -> dict:
            b, c = divmod(index, npred)
            return _witness(space, {"program": pretty_program(programs.program(k))}, b, c,
                            f"{left.name} is {bool(valid_left >> index & 1)} "
                            f"but {right.name} is {bool(valid_right >> index & 1)}",
                            left=left.name, right=right.name)

        return _Block(npred * npred, _first_disagreement(valid_left, valid_right), witness)

    for space, npred, programs, k, cls in _classes(config, stats, block):
        # a program's syntax can only take away a hit
        if det_rev and cls.hit is not None and syntactic_choice(programs.program(k)) is not None:
            cls = _Block(cls.size, None, None)
        yield cls


def _combination_gap_blocks(claim: str, config: SearchConfig, stats: dict) -> Iterator[_Block]:
    """Transformer-level gaps: dwp vs awp-and-dwlp, awlp vs awp-or-dwlp; one
    candidate per postcondition."""
    if claim == "dwp-neq-intersection":
        pos, combine = DWP, and_
        detail = "dwp differs from awp intersect dwlp"
    else:
        pos, combine = AWLP, or_
        detail = "awlp differs from awp union dwlp"

    def block(prof: Profile, npred: int) -> _Block:
        gaps = [v[pos] ^ combine(v[AWP], v[DWLP]) for v in map(prof.__getitem__, range(npred))]

        def witness(c: int) -> dict:
            idx = low_bit(gaps[c])
            return _witness(space, {"program": pretty_program(programs.program(k))},
                            1 << idx, c, detail,
                            state=space.render_states([idx])[0], state_index=idx)

        return _Block(len(gaps), next((c for c, gap in enumerate(gaps) if gap), None), witness)

    for space, npred, programs, k, cls in _classes(config, stats, block):
        yield cls


def _relational_blindspot_blocks(config: SearchConfig, stats: dict) -> Iterator[_Block]:
    """Two programs with one relational denotation but different demonic
    total-correctness verdicts: one block for each earlier program sharing the
    relation, candidates postcondition-major.  Within one relation a pair of
    classes is a pair of may-divergences, and each such pair is scanned once."""

    def total(prof: Profile, npred: int) -> tuple:
        return prof.relation, prof.may_div, _logics.validity_sets((DWP_LB,), prof, True)[0]

    def pair(npred: int, q_total: int, p_total: int) -> _Block:
        def witness(index: int) -> dict:
            c, b = divmod(index, npred)
            return _witness(
                space, {"program_a": pretty_program(programs.program(q)),
                        "program_b": pretty_program(programs.program(k))},
                b, c, "equal relational denotations, total-correctness verdicts "
                f"{bool(q_total >> index & 1)} vs {bool(p_total >> index & 1)}",
            )

        return _Block(npred * npred, _first_disagreement(q_total, p_total), witness)

    by_relation: dict = {}
    for space, npred, programs, k, (relation, may, p_total) in _classes(config, stats, total):
        others, pairs = by_relation.setdefault((space, relation), ([], {}))
        for q, q_may, q_total in others:
            cls = pairs.get((q_may, may))
            if cls is None:
                cls = pairs[q_may, may] = pair(npred, q_total, p_total)
            yield cls
        others.append((k, may, p_total))


def _outcome_gap_blocks(config: SearchConfig, stats: dict) -> Iterator[_Block]:
    """The two-equation outcome system versus the pointwise intersection logic."""
    outcome = EQUATIONS.index("OUTCOME_CONJUNCTION")

    def block(prof: Profile, npred: int) -> _Block:
        full, violations = prof.space.full_mask, _logics.violations

        def system(b: int, c: int) -> bool:
            return catalog_values(prof, b, c, full)[outcome]

        def logic(b: int, c: int) -> bool:
            return not violations((INTERSECTION_LOGIC,), prof[b], prof[c], b, c, full)[0]

        def witness(index: int) -> dict:
            b, c = divmod(index, npred)
            return _witness(space, {"program": pretty_program(programs.program(k))},
                            b, c, f"equation system says {system(b, c)}, "
                            f"subset condition says {logic(b, c)}")

        hit = _first_difference(npred, lambda b, c: system(b, c) != logic(b, c))
        return _Block(npred * npred, hit, witness)

    for space, npred, programs, k, cls in _classes(config, stats, block):
        yield cls


def find_counterexample(claim: str, config: SearchConfig | None = None) -> SearchResult:
    """Hunt for a witness refuting the claim; see the module docstring for
    the three possible outcomes."""
    config = config or SearchConfig()
    stats = {"programs": 0, "classes": 0}
    result = _drive(claim, _blocks(claim, config, stats), config.budget)
    result.stats = stats
    return result


def _blocks(claim: str, config: SearchConfig, stats: dict) -> Iterator[_Block]:
    if claim == "dwp-neq-intersection" or claim == "awlp-neq-union":
        return _combination_gap_blocks(claim, config, stats)
    if claim == "galois-pc":
        return _logic_pair_blocks(config, stats, DWLP_LB, GALOIS[DWLP_LB])
    if claim == "galois-pi":
        return _logic_pair_blocks(config, stats, AWP_UB, GALOIS[AWP_UB])
    if claim == "galois-awlp-dsp-det-rev":
        # the forced adjunction: deterministic plus reversible programs only
        return _logic_pair_blocks(config, stats, AWLP_LB, DSP_UB, det_rev=True)
    if claim == "total-correctness-relational":
        return _relational_blindspot_blocks(config, stats)
    if claim == "outcome-vs-intersection":
        return _outcome_gap_blocks(config, stats)
    if claim.startswith("appendixC:"):
        body = claim[len("appendixC:"):]
        try:
            left_name, right_name = body.split("-vs-")
            left, right = LEGS[left_name], LEGS[right_name]
        except (ValueError, KeyError):
            raise unknown_name("catalog claim", claim) from None
        return _logic_pair_blocks(config, stats, left, right)
    raise unknown_name("claim", claim)
