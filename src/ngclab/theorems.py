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
from functools import lru_cache
from typing import Optional

# the kernel is imported as a module, not by name: perfbench's tracer wraps
# every name one ngclab module imports from another as a layer, and a
# per-triple step is not one
from . import logics as _logics
# the rows are read off the module, as `exhaustive_programs` reads them, so
# that `corpus_items` and `corpus_classes` read one enumeration
from . import generators as _generators
from .errors import UsageError, unknown_name
from .generators import GeneratorConfig, all_predicates, generate_programs
from .logics import (
    ALL_LOGICS, BOUNDED, CONTRAPOSITIVE,
    ASP_LB, ASP_UB, ASLP_LB, AWP_LB, AWP_UB, AWLP_LB,
    DSP_LB, DSP_UB, DSLP_LB, DSLP_UB, DWP_LB, DWLP_LB, DWLP_UB,
    INTERSECTION_LOGIC, UNION_LOGIC,
    Bound, syntactic_choice,
)
from .semantics import classify, profile
from .space import Predicate, StateSpace, low_bit
from .syntax import Choice, Program, Skip, While, TRUE, pretty_program
from .topkat import EQUATIONS, catalog_values
from .transformers import (
    ADJUNCTIONS, AWP, AWLP, ASP, ASLP, DSP, DSLP, DUALS, DWP, DWLP, ORDERING,
    TransformerKind,
)
from .values import Frozen, Value, setfield

THEOREM_IDS = (
    "ORDERING",
    "CONTRAPOSITIVE",
    "GALOIS_PC",
    "GALOIS_PI",
    "TERMINATION_COLLAPSE",     # the six collapse theorems
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


class CorpusConfig(Frozen):
    # predicate_mode: "all" or "sample"; predicate_pairs: pairs per program
    # when sampling
    __slots__ = ("programs", "predicate_mode", "predicate_pairs", "predicate_seed")

    def __init__(self, programs: GeneratorConfig = GeneratorConfig(),
                 predicate_mode: str = "all", predicate_pairs: int = 3,
                 predicate_seed: int = 0):
        setfield(self, "programs", programs)
        setfield(self, "predicate_mode", predicate_mode)
        setfield(self, "predicate_pairs", predicate_pairs)
        setfield(self, "predicate_seed", predicate_seed)

    def space(self) -> StateSpace:
        return self.programs.space()


def corpus_preset(name: str, count: Optional[int] = None,
                  seed: Optional[int] = None) -> CorpusConfig:
    """A named corpus.  Only `loops` is random: the program count and the
    seed (of its programs and predicate pairs alike) apply to it alone."""
    if name == "loops":
        seed = 2025 if seed is None else seed
        return CorpusConfig(
            GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True, mode="random",
                            seed=seed, count=10_000 if count is None else count),
            predicate_mode="sample", predicate_pairs=3, predicate_seed=seed)
    if name not in ("tiny", "small-exhaustive"):
        raise unknown_name("corpus preset", name)
    if count is not None or seed is not None:
        raise UsageError(f"the corpus {name} is exhaustive: it takes no program count or seed")
    return CorpusConfig(GeneratorConfig(("x",), 2, max_depth=2 if name == "tiny" else 3))


@lru_cache(maxsize=4)
def corpus_items(
    corpus: CorpusConfig,
) -> tuple[tuple[Program, tuple[tuple[Predicate, Predicate], ...]], ...]:
    """Programs each paired with the (pre, post) predicate pairs to check.
    Built once per corpus and shared by every theorem checked on it."""
    space = corpus.space()
    if corpus.predicate_mode == "all":
        preds = list(all_predicates(space))
        pairs = tuple((b, c) for b in preds for c in preds)
        return tuple((p, pairs) for p in generate_programs(corpus.programs))
    if corpus.predicate_mode == "sample":
        rng = random.Random(corpus.predicate_seed)
        full = 1 << space.size
        return tuple(
            (p, tuple((Predicate(space, rng.randrange(full)),
                       Predicate(space, rng.randrange(full)))
                      for _ in range(corpus.predicate_pairs)))
            for p in generate_programs(corpus.programs)
        )
    raise ValueError(f"unknown predicate mode {corpus.predicate_mode!r}")


@lru_cache(maxsize=4)
def corpus_classes(corpus: CorpusConfig) -> tuple[int, ...]:
    """Per program of `corpus_items`, the index of the first program with its
    profile (its semantic class), read off the stream classifier: an
    exhaustive corpus's rows are those its programs are built from, and a
    random corpus's are its programs, each a leaf.  Built once per corpus;
    only the indices are kept, so a profile cleared from the composer's
    caches is composed again when read."""
    space = corpus.space()
    config = corpus.programs
    if config.mode == "exhaustive":
        rows = _generators.exhaustive_rows(space, config.max_depth, config.loops)
    else:
        rows = (p for p, _ in corpus_items(corpus))
    first: dict = {}        # profile -> index of its first program
    return tuple(first.setdefault(prof, i) for i, prof in enumerate(classify(rows, space)))


class Verdict(Value):
    __slots__ = ("claim", "holds", "witness", "stats", "nonvacuity")

    def __init__(self, claim: str, holds: bool, witness: Optional[dict] = None,
                 stats: Optional[dict] = None, nonvacuity: Optional[dict] = None):
        self.claim = claim
        self.holds = holds
        self.witness = witness
        self.stats = {} if stats is None else stats
        self.nonvacuity = nonvacuity

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


# A logic vector -- what `violations` returns for ALL_LOGICS -- is positional
# in ALL_LOGICS order, catalog_values in EQUATIONS order.


def _logic_pairs(template: str, pairs) -> tuple:
    return tuple((ALL_LOGICS.index(a), ALL_LOGICS.index(d),
                  template.format(a.name, d.name)) for a, d in pairs)


# Fig. 4: an ordering x <= y gives x-lb => y-lb and y-ub => x-ub; the
# in-between logics sit strictly inside the upper-left quadrant
_IMPLICATIONS = _logic_pairs("{} does not imply {}", (
    *((BOUNDED[x, Bound.LB], BOUNDED[y, Bound.LB]) for x, y in ORDERING),
    *((BOUNDED[y, Bound.UB], BOUNDED[x, Bound.UB]) for x, y in ORDERING),
    (DWP_LB, INTERSECTION_LOGIC), (INTERSECTION_LOGIC, AWP_LB),
    (INTERSECTION_LOGIC, DWLP_LB), (INTERSECTION_LOGIC, UNION_LOGIC),
    (AWP_LB, UNION_LOGIC), (DWLP_LB, UNION_LOGIC), (UNION_LOGIC, AWLP_LB),
))

# one logic of each contrapositive pair, the one bounding awp, dwp, asp or dsp
_CONTRA_PAIRS = _logic_pairs("{} and {} are not contrapositive", (
    (BOUNDED[x, bound], CONTRAPOSITIVE[BOUNDED[x, bound]])
    for x, _ in DUALS for bound in (Bound.UB, Bound.LB)
))

_GALOIS_PAIRS = tuple(
    (ALL_LOGICS.index(BOUNDED[g, Bound.LB]), ALL_LOGICS.index(BOUNDED[f, Bound.UB]),
     f"{name} Galois pair disagrees")
    for name, f, g in ADJUNCTIONS
)

_BRIDGES = tuple(
    (EQUATIONS.index(eq), ALL_LOGICS.index(logic), f"equation {eq} disagrees with {logic.name}")
    for eq, logic in (
        ("LISBON", AWP_LB),
        ("PARTIAL_CORRECTNESS", DWLP_LB),
        ("PARTIAL_CORRECTNESS", ASP_UB),
        ("PC_CONTRA", DWLP_LB),
        ("DWLP_UB", DWLP_UB),
        ("INCORRECTNESS", ASP_LB),
        ("ANGELIC_PARTIAL_INCORRECTNESS", ASLP_LB),
        ("DEMONIC_PARTIAL_INCORRECTNESS", DSLP_LB),
        ("DEMONIC_PARTIAL_INCORRECTNESS", AWP_UB),
        ("DSLP_UB", DSLP_UB),
        ("DSP_UB", DSP_UB),
        ("IN_BETWEEN", UNION_LOGIC),
        ("DEMONIC_INCORRECTNESS", DSP_LB),
    )
)

_NAMES = [kind.value for kind in TransformerKind]     # by table position
_ORDERING_CHAINS = tuple(   # x <= y <= z from two edges of the ordering
    (x, y, z, f"ordering {_NAMES[x]} <= {_NAMES[y]} <= {_NAMES[z]} fails")
    for x, y in ORDERING for y_, z in ORDERING if y_ == y
)
_COMPLEMENTS = tuple(
    (a, d, f"{_NAMES[a]} is not the complement of {_NAMES[d]} on the negation")
    for a, d in DUALS
)


# Per-triple checks: (t, free, b, c, full) -> None when the triple passes,
# or a failure detail.  t is the program's profile, its semantic class and
# the store of its transformer tables by predicate bits, and free whether
# the program text is choice-free (read by the determinism collapse only).
# A collapse check returns _OUTSIDE when the bare equality fails outside the
# assumption filter (a non-vacuity witness).

_OUTSIDE = "equality fails outside the assumption filter"
_INSIDE = "collapse equality fails under the assumption"


def _check_ordering(t, free, b, c, full):
    for q in (b, c):
        v = t[q]
        for low, mid, high, detail in _ORDERING_CHAINS:
            if v[low] & ~v[mid] or v[mid] & ~v[high]:
                return detail
    return None


def _check_contrapositive(t, free, b, c, full):
    for q in (b, c):
        v, neg = t[q], t[full ^ q]
        for a, d, detail in _COMPLEMENTS:
            if v[a] != full ^ neg[d]:
                return detail
    return None


def _adjunction(name, f, g):
    """The check of f -| g: f(x) <= y iff x <= g(y), where x is the
    condition f reads and y the other one."""
    detail = f"{name} adjunction fails"
    forward = not tuple(TransformerKind)[f].backward

    def check(t, free, b, c, full):
        x, y = (b, c) if forward else (c, b)
        return None if (t[x][f] & ~y & full == 0) == (x & ~t[y][g] == 0) else detail
    return check


def _check_combo(t, free, b, c, full):
    for q in (b, c):
        v = t[q]
        if v[DSP] != v[ASP] & v[DSLP]:
            return "dsp is not asp intersect dslp"
        if v[ASLP] != v[ASP] | v[DSLP]:
            return "aslp is not asp union dslp"
    return None


def _check_fig4(t, free, b, c, full):
    vec = _logics.violations(ALL_LOGICS, t[b], t[c], b, c, full)
    for src, dst, detail in _IMPLICATIONS:
        if not vec[src] and vec[dst]:
            return detail
    nb, nc = full ^ b, full ^ c
    neg = _logics.violations(ALL_LOGICS, t[nb], t[nc], nb, nc, full)
    for a, d, detail in _CONTRA_PAIRS:
        if (not vec[a]) != (not neg[d]):
            return detail
    for a, d, detail in _GALOIS_PAIRS:
        if (not vec[a]) != (not vec[d]):
            return detail
    return None


# Per-class checks on a shared pair list: (t, npred) -> the set of the
# failing (pre, post) pairs of the class, bit b * npred + c as in
# `logics.validity_sets`, for the theorems that compare triple logics.  The
# first failing pair is the lowest set bit, and its detail is the per-triple
# check's on that pair.

def _reversed(valid, width):
    """A set of pairs over P predicates, width P * P bits, with each pair
    (b, c) replaced by (~b, ~c): bit b * P + c goes to width - 1 - (b * P + c)."""
    return int(format(valid, f"0{width}b")[::-1], 2)


def _fig4_failures(t, npred):
    valid = _logics.validity_sets(ALL_LOGICS, t)
    failures = 0
    for src, dst, _ in _IMPLICATIONS:
        failures |= valid[src] & ~valid[dst]
    for a, d, _ in _CONTRA_PAIRS:
        failures |= valid[a] ^ _reversed(valid[d], npred * npred)
    for a, d, _ in _GALOIS_PAIRS:
        failures |= valid[a] ^ valid[d]
    return failures


def _galois_failures(f, g):
    """The failures of the Galois pair of f -| g, g-lb against f-ub."""
    logics = (BOUNDED[g, Bound.LB], BOUNDED[f, Bound.UB])

    def failures(t, npred):
        lower, upper = _logics.validity_sets(logics, t)
        return lower ^ upper
    return failures


_SET_CHECKS = {
    "GALOIS_PC": _galois_failures(*ADJUNCTIONS[0][1:]),
    "GALOIS_PI": _galois_failures(*ADJUNCTIONS[1][1:]),
    "FIG4_IMPLICATIONS": _fig4_failures,
}


def _check_bridges(t, free, b, c, full):
    vec = _logics.violations(ALL_LOGICS, t[b], t[c], b, c, full)
    values = catalog_values(t, b, c, full)
    for eq, logic, detail in _BRIDGES:
        if values[eq] != (not vec[logic]):
            return detail
    return None


def _scoped(name):
    """A semantic assumption's check, on the side `logics.ASSUMPTIONS` names."""
    on_pre, breaking = _logics.ASSUMPTIONS[name]
    return lambda t, free, b, c, full: breaking(t) & (b if on_pre else c) == 0


def _collapse(assumption, equality):
    """A per-triple check from the collapse's scoped assumption and equality."""
    def check(t, free, b, c, full):
        if equality(t, free, b, c, full):
            return None
        return _INSIDE if assumption(t, free, b, c, full) else _OUTSIDE
    return check


# A semantic assumption is scoped as `logics.ASSUMPTIONS` states, and the
# equality is the collapse claim restricted to the same scope.
_CHECKS = {
    "ORDERING": _check_ordering,
    "CONTRAPOSITIVE": _check_contrapositive,
    "GALOIS_PC": _adjunction(*ADJUNCTIONS[0]),
    "GALOIS_PI": _adjunction(*ADJUNCTIONS[1]),
    "COMBO_IDENTITIES": _check_combo,
    "FIG4_IMPLICATIONS": _check_fig4,
    "BRIDGES": _check_bridges,
    "TERMINATION_COLLAPSE": _collapse(
        _scoped("termination"),
        lambda t, free, b, c, full: (
            b & t[c][DWP] == b & t[c][DWLP] and b & t[c][AWP] == b & t[c][AWLP]
        ),
    ),
    "REACHABILITY_COLLAPSE": _collapse(
        _scoped("reachability"),
        lambda t, free, b, c, full: (
            c & t[b][ASP] == c & t[b][ASLP] and c & t[b][DSP] == c & t[b][DSLP]
        ),
    ),
    "DETERMINISM_COLLAPSE": _collapse(
        lambda t, free, b, c, full: free,
        lambda t, free, b, c, full: t[c][AWP] == t[c][DWP] and t[c][AWLP] == t[c][DWLP],
    ),
    "REVERSIBILITY_COLLAPSE": _collapse(
        _scoped("reversibility"),
        lambda t, free, b, c, full: (
            c & t[b][ASP] == c & t[b][DSP] and c & t[b][ASLP] == c & t[b][DSLP]
        ),
    ),
    "BRANCHING_COLLAPSE": _collapse(
        _scoped("no_branching_divergence"),
        lambda t, free, b, c, full: (
            b & t[c][DWP] == b & t[c][AWP] & t[c][DWLP]
            and b & t[c][AWLP] == b & (t[c][AWP] | t[c][DWLP])
        ),
    ),
    # under no branching divergence, may-termination everywhere and
    # must-termination everywhere are the same program property
    "MAY_TERMINATION": _collapse(
        lambda t, free, b, c, full: t.may_div == t.must_div,
        lambda t, free, b, c, full: (t[full][AWP] == full) == (t[0][AWLP] == 0),
    ),
}


def check_theorem(theorem: str, corpus: CorpusConfig) -> Verdict:
    """Check one theorem over the corpus; collapse theorems also hunt for a
    triple outside the assumption filter that breaks the bare equality.

    The corpus is walked in order.  Where every program is checked on the
    same (pre, post) pairs, only the first program of each semantic class
    is checked, as every answer of a later one would repeat: the classes
    are `corpus_classes`, refined by choice-freedom for the determinism
    collapse, whose assumption reads the text, and the counts of programs
    and triples up to a failing triple are read off the indices.  A
    program's profile is read off its class's first program, so a refined
    class's program is not composed again.  A sampled
    corpus checks every program on its own pairs.  The stats count the
    programs, the triples and the classes checked.
    """
    space = corpus.space()
    full = space.full_mask
    started = time.perf_counter()
    programs = 0
    triples = 0
    classes = 0

    def stats() -> dict:
        return {"programs": programs, "triples": triples, "classes": classes,
                "elapsed_s": round(time.perf_counter() - started, 3)}

    if theorem == "REMARK_DIVERGING":
        branching = Choice(Skip(), While(TRUE, Skip()))
        t_a, t_b = profile(Skip(), space), profile(branching, space)
        holds_ = t_a.relation == t_b.relation and t_a[0][AWLP] != t_b[0][AWLP]
        witness = None if holds_ else _witness(
            branching, space, "collecting semantics or liberal precondition mismatch")
        programs, triples, classes = 2, 1, len({t_a, t_b})
        return Verdict(theorem, holds_, witness, stats())

    if theorem not in _CHECKS:
        raise unknown_name("theorem", theorem)
    check = _CHECKS[theorem]
    syntactic = theorem == "DETERMINISM_COLLAPSE"
    items = corpus_items(corpus)
    shared_pairs = corpus.predicate_mode == "all"   # one pair list for all
    set_check = _SET_CHECKS.get(theorem) if shared_pairs else None
    npred = 1 << space.size
    if shared_pairs:
        firsts = owners = corpus_classes(corpus)
        if syntactic:
            refined: dict = {}
            firsts = [refined.setdefault((first, syntactic_choice(p) is None), i)
                      for i, ((p, _), first) in enumerate(zip(items, owners))]
        walk = [i for i, first in enumerate(firsts) if first == i]
    else:
        owners = walk = range(len(items))
        checked: set = set()    # the (profile, choice-freedom) classes met
    nonvacuity = None
    for k, i in enumerate(walk):
        p, pairs = items[i]
        t = profile(items[owners[i]][0], space)     # its class's first program's
        free = syntactic and syntactic_choice(p) is None
        if shared_pairs:        # every program before i repeats a class met
            programs, triples, classes = i + 1, i * len(pairs), k + 1
        else:
            checked.add((t, free))
            programs, classes = i + 1, len(checked)
        if set_check is not None:
            failures = set_check(t, npred)
            if not failures:
                continue
            first = low_bit(failures)   # the pairs run b-major, by bits
            b, c = pairs[first]
            triples += first + 1
            detail = check(t, free, b.bits, c.bits, full)
            return Verdict(theorem, False, _witness(p, space, detail, b, c), stats())
        for b, c in pairs:
            triples += 1
            detail = check(t, free, b.bits, c.bits, full)
            if detail is None:
                continue
            if detail is _OUTSIDE:
                if nonvacuity is None:
                    nonvacuity = _witness(p, space, detail, b, c)
                continue
            return Verdict(theorem, False, _witness(p, space, detail, b, c), stats())
    if shared_pairs and items:
        programs, triples, classes = len(items), len(items) * len(items[0][1]), len(walk)
    return Verdict(theorem, True, None, stats(), nonvacuity)


def run_survey(suite: list[str], corpus: CorpusConfig) -> list[Verdict]:
    return [check_theorem(theorem, corpus) for theorem in suite]
