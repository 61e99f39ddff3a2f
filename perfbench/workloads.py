"""The four workloads.  Each builds its inputs from the seed, then hands the
library only those inputs, one item at a time (closed loop, one caller).

An item has a `run` (the timed call into ngclab), a `check` that returns None
when the answer is right and a reason otherwise, and `work`, the item's share
of the workload's throughput unit.  Claim and theorem ids are listed here or
read from expected.json rather than imported, so the benchmark keeps running
when the library renames or drops a helper.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks

HERE = Path(__file__).resolve().parent

THEOREMS = (
    "ORDERING", "CONTRAPOSITIVE", "GALOIS_PC", "GALOIS_PI",
    "TERMINATION_COLLAPSE", "MAY_TERMINATION", "REACHABILITY_COLLAPSE",
    "DETERMINISM_COLLAPSE", "REVERSIBILITY_COLLAPSE", "BRANCHING_COLLAPSE",
    "BRIDGES", "COMBO_IDENTITIES", "FIG4_IMPLICATIONS", "REMARK_DIVERGING",
)
COLLAPSES = THEOREMS[4:10]
EQUIVALENCES = ("galois-pc", "galois-pi", "galois-awlp-dsp-det-rev")
KINDS = checks.BACKWARD + checks.FORWARD
LOGICS = tuple(f"{k}-{b}" for k in KINDS for b in ("lb", "ub"))

# Sizes are set so one repetition takes a few seconds on a 2-core machine;
# the quick sizes serve the self-check.
AGREEMENT_EXHAUSTIVE, AGREEMENT_LOOPS = 750, 100
SURVEY_RANDOM, SURVEY_LOOPS = 300, 100
SEARCH_BUDGET = 10_000
SCALE_MODULI = (3, 4, 5, 6)              # x, y, z mod m: n = 27 .. 216
SCALE_LENGTHS = (6, 10, 14, 20, 28)      # statements, over x, y mod 4
DEEP_PARSE_STATEMENTS = 1200


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    work: Callable[[object], float]
    group: str = ""
    size: int = 0
    before: Optional[Callable[[], None]] = None


@dataclass
class Context:
    ng: object                 # namespace of ngclab modules
    seed: int
    quick: bool
    corrupt: bool              # plant one wrong expected answer
    workdir: Path
    clear_caches: Callable[[], None]
    expected: dict

    def rng(self, workload: str) -> random.Random:
        return random.Random(f"{workload}:{self.seed}")


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# --- agreement -----------------------------------------------------------------

def agreement(ctx: Context) -> tuple[list[Item], list[Item]]:
    """Both engines on every (program, predicate, kind) of a seeded draw."""
    ng, rng = ctx.ng, ctx.rng("agreement")
    gen, sp, tr = ng.generators, ng.space, ng.transformers
    n_exh, n_loops = (6, 2) if ctx.quick else (AGREEMENT_EXHAUSTIVE, AGREEMENT_LOOPS)
    small = sp.StateSpace(("x",), 2)
    exhaustive = list(gen.generate_programs(gen.GeneratorConfig(("x",), 2, max_depth=3)))
    inputs = [(p, [sp.Predicate(small, b) for b in range(1 << small.size)])
              for p in rng.sample(exhaustive, n_exh)]
    loop_space = sp.StateSpace(("x", "y"), 3)
    loops = gen.generate_programs(gen.GeneratorConfig(
        ("x", "y"), 3, max_depth=4, loops=True, mode="random",
        seed=rng.randrange(2**31), count=n_loops))
    for p in loops:
        preds = [sp.Predicate(loop_space, rng.randrange(1 << loop_space.size))
                 for _ in range(2)]
        inputs.append((p, preds))
    rng.shuffle(inputs)
    kinds = list(tr.TransformerKind)

    def item(index: int, program, preds) -> Item:
        def run():
            return [(tr.inductive_transform(k, program, q), tr.oracle_transform(k, program, q))
                    for q in preds for k in kinds]

        def check(out):
            if ctx.corrupt and index == 0:
                out = [(a, ~b) for a, b in out]
            bad = sum(a != b for a, b in out)
            return f"{bad} of {len(out)} results disagree" if bad else None

        return Item(f"program {index}", run, check, len)

    return [item(i, p, preds) for i, (p, preds) in enumerate(inputs)], []


# --- survey --------------------------------------------------------------------

def survey(ctx: Context) -> tuple[list[Item], list[Item]]:
    """Every theorem on the exhaustive depth-2 corpus (answers recorded in
    expected.json) and on two seeded corpora: random depth-3 programs over
    x mod 2 with all predicate pairs, and random loop programs over x, y mod 3."""
    ng, rng = ctx.ng, ctx.rng("survey")
    th, gen = ng.theorems, ng.generators
    n_random, n_loops = (20, 5) if ctx.quick else (SURVEY_RANDOM, SURVEY_LOOPS)
    loop_seed = rng.randrange(2**31)
    corpora = (
        ("tiny", th.CorpusConfig(gen.GeneratorConfig(("x",), 2, max_depth=2))),
        ("random-x2", th.CorpusConfig(gen.GeneratorConfig(
            ("x",), 2, max_depth=3, mode="random",
            seed=rng.randrange(2**31), count=n_random))),
        ("loops", th.CorpusConfig(
            gen.GeneratorConfig(("x", "y"), 3, max_depth=4, loops=True,
                                mode="random", seed=loop_seed, count=n_loops),
            predicate_mode="sample", predicate_pairs=3, predicate_seed=loop_seed)),
    )
    recorded = ctx.expected["survey-tiny"]
    theorems = THEOREMS[:3] if ctx.quick else THEOREMS

    def item(corpus_name: str, corpus, theorem: str) -> Item:
        space = corpus.space()

        def check(verdict):
            if ctx.corrupt and theorem == theorems[0] and corpus_name == "tiny":
                return "planted wrong answer"
            if not verdict.holds:
                return f"theorem fails: {verdict.witness}"
            if corpus_name == "tiny":
                got = verdict.to_jsonable()
                got.pop("stats", None)
                if got != recorded[theorem]:
                    return "verdict differs from the recorded one"
            if theorem in COLLAPSES:
                if verdict.nonvacuity is None:
                    return "no non-vacuity witness"
                return checks.revalidate_nonvacuity(ng, theorem, verdict.nonvacuity, space)
            if verdict.nonvacuity is not None:
                return "unexpected non-vacuity witness"
            return None

        # each corpus starts from cold caches, as one `ngclab survey` invocation
        first = theorem == theorems[0]
        return Item(f"{theorem} on {corpus_name}", lambda: th.check_theorem(theorem, corpus),
                    check, lambda v: v.stats.get("triples", 0),
                    before=ctx.clear_caches if first else None)

    items = [item(name, corpus, t) for name, corpus in corpora for t in theorems]
    return items, []


# --- search --------------------------------------------------------------------

def search(ctx: Context) -> tuple[list[Item], list[Item]]:
    """Every claim at one budget, in a seeded order, each from cold caches as
    one `ngclab counterexample` invocation would run it; the three true
    equivalences exhaust the budget, once on the default ladder (mod 2 first)
    and once on a mod-3-only ladder."""
    ng, rng = ctx.ng, ctx.rng("search")
    se = ng.search
    recorded = ctx.expected["search"]
    budget = recorded["budget"]
    claims = list(recorded["claims"])
    if ctx.quick:
        claims = claims[:4]
        budget = 500
    rng.shuffle(claims)
    default = se.SearchConfig(budget=budget)
    mod3 = se.SearchConfig(spaces=((("x",), 3),), budget=budget)
    runs = [(c, default) for c in claims]
    runs += [(c, mod3) for c in (EQUIVALENCES[:1] if ctx.quick else EQUIVALENCES)]

    def item(index: int, claim: str, config) -> Item:
        want = recorded["claims"][claim]

        def check(result):
            outcome = want["outcome"]
            if ctx.corrupt and index == 0:
                outcome = "planted wrong answer"
            if result.outcome != outcome:
                return f"outcome {result.outcome}, expected {outcome}"
            if outcome == "budget-exhausted":
                return None if result.candidates == config.budget else "budget not spent"
            if result.candidates != want["candidates"] or result.witness != want["witness"]:
                return "witness differs from the recorded minimal witness"
            return checks.revalidate_search(ng, claim, result.witness)

        label = claim if config is default else f"{claim} (mod 3)"
        return Item(label, lambda: se.find_counterexample(claim, config), check,
                    lambda r: r.candidates, before=ctx.clear_caches)

    return [item(i, c, cfg) for i, (c, cfg) in enumerate(runs)], []


# --- scale ---------------------------------------------------------------------

def _guard(rng: random.Random, space: checks.RefSpace):
    """A random comparison (or a disjunction of two) as text and as a test."""
    def atom():
        var = rng.randrange(len(space.variables))
        op = rng.choice(("=", "!=", "<"))
        k = rng.randrange(space.m)
        fn = {"=": lambda s: s[var] == k, "!=": lambda s: s[var] != k,
              "<": lambda s: s[var] < k}[op]
        return f"{space.variables[var]} {op} {k}", fn

    text, fn = atom()
    if rng.random() < 0.3:
        text2, fn2 = atom()
        return f"{text} || {text2}", (lambda s: fn(s) or fn2(s))
    return text, fn


def _assignment(rng: random.Random, space: checks.RefSpace):
    """`v := v + k` or `v := v + w`: bijective, so states do not collapse."""
    var = rng.randrange(len(space.variables))
    name = space.variables[var]
    if rng.random() < 0.5:
        k = rng.randrange(1, space.m)
        return f"{name} := {name} + {k}", (var, lambda s: s[var] + k)
    other = 1 - var
    return (f"{name} := {name} + {space.variables[other]}",
            (var, lambda s: s[var] + s[other]))


def _cli(ng, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ng.cli.main(argv)
    return code, out.getvalue()


def scale(ctx: Context) -> tuple[list[Item], list[Item]]:
    """CLI invocations in-process on .ngcl files written here, caches cleared
    before each.  State sweep: a countdown and a choice/diverge loop over
    x, y, z mod m.  Length sweep: straight-line programs alternating
    assignment and choice over x, y mod 4.  The deep parse is kept apart as a
    probe of a known defect: the parser recurses once per statement."""
    ng, rng = ctx.ng, ctx.rng("scale")
    moduli = SCALE_MODULI[:2] if ctx.quick else SCALE_MODULI
    lengths = SCALE_LENGTHS[:2] if ctx.quick else SCALE_LENGTHS
    items: list[Item] = []

    def transform_item(label, path, behaviour, engine, group, size):
        kind = rng.choice(KINDS)
        text, fn = _guard(rng, behaviour.space)
        want = behaviour.space.render(behaviour.transform(kind, behaviour.space.where(fn)))
        argv = ["transform", "--kind", kind, "--engine", engine, "--pred", text, str(path)]
        planted = ctx.corrupt and not items

        def check(result):
            code, printed = result
            if code != 0:
                return f"exit code {code}"
            expect = "{} (planted)" if planted else want
            return None if printed.strip() == expect else "printed predicate differs"

        return Item(label, lambda: _cli(ng, argv), check, lambda r: size, group, size,
                    ctx.clear_caches)

    def check_item(label, path, behaviour, size):
        logic = rng.choice(LOGICS)
        pre_text, pre_fn = _guard(rng, behaviour.space)
        post_text, post_fn = _guard(rng, behaviour.space)
        space = behaviour.space
        valid, witness = behaviour.check(logic, space.where(pre_fn), space.where(post_fn))
        want = (0, f"valid for {logic}") if valid else (
            1, f"invalid for {logic} (witness {space.render_state(witness)})")
        argv = ["check", "--logic", logic, "--pre", pre_text, "--post", post_text, str(path)]

        def check(result):
            code, printed = result
            if code != want[0]:
                return f"exit code {code}, expected {want[0]}"
            return None if printed.strip() == want[1] else "printed verdict differs"

        return Item(label, lambda: _cli(ng, argv), check, lambda r: size, "states-check",
                    size, ctx.clear_caches)

    for m in moduli:
        space = checks.RefSpace(("x", "y", "z"), m)
        # a fixed exit value: the bit loops' cost depends on where in the
        # enumeration the loop exits, which would make n's effect seed-dependent
        target = 0
        programs = (
            ("countdown", f"while x != {target} {{ x := x - 1 }}",
             checks.countdown(space, target)),
            ("choice", f"while x != {target} {{ {{ x := x - 1 }} [] {{ y := y + 1 }}"
                       " [] { diverge } }", checks.choice_loop(space, target)),
        )
        for name, body, behaviour in programs:
            path = ctx.workdir / f"{name}-{m}.ngcl"
            path.write_text(f"vars x, y, z mod {m}\n{body}\n", encoding="utf-8")
            n = space.n
            items.append(transform_item(f"{name} n={n} oracle", path, behaviour,
                                        "oracle", "states-oracle", n))
            items.append(transform_item(f"{name} n={n} both", path, behaviour,
                                        "both", "states-both", n))
            items.append(check_item(f"{name} n={n} check", path, behaviour, n))

    space = checks.RefSpace(("x", "y"), 4)
    for length in lengths:
        texts, statements = [], []
        for i in range(length):
            if i % 2 == 0:
                text, alt = _assignment(rng, space)
                texts.append(text)
                statements.append([alt])
            else:
                (t1, a1), (t2, a2) = _assignment(rng, space), _assignment(rng, space)
                texts.append(f"{{ {t1} }} [] {{ {t2} }}")
                statements.append([a1, a2])
        path = ctx.workdir / f"length-{length}.ngcl"
        path.write_text("vars x, y mod 4\n" + " ;\n".join(texts) + "\n", encoding="utf-8")
        behaviour = checks.straight_line(space, statements)
        item = transform_item(f"length {length} both", path, behaviour, "both",
                              "length", length)
        item.work = lambda r: space.n
        items.append(item)

    deep = "vars x, y mod 4\n" + " ;\n".join(
        "x := x + 1" if i % 2 == 0 else "{ y := y + x } [] { y := y + 1 }"
        for i in range(DEEP_PARSE_STATEMENTS)) + "\n"

    def count_statements(program) -> int:
        count = 0
        while type(program).__name__ == "Seq":
            count += 1
            program = program.second
        return count + 1

    probe = Item(f"parse_module {DEEP_PARSE_STATEMENTS} statements",
                 lambda: ng.parser.parse_module(deep),
                 lambda r: None if count_statements(r[1]) == DEEP_PARSE_STATEMENTS
                 else "wrong statement count",
                 lambda r: DEEP_PARSE_STATEMENTS, "deep-parse", DEEP_PARSE_STATEMENTS,
                 ctx.clear_caches)
    return items, [probe]


WORKLOADS = {
    "agreement": (agreement, 5.0),
    "survey": (survey, 30.0),
    "search": (search, 30.0),
    "scale": (scale, 30.0),
}
