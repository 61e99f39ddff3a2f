"""Regenerate expected.json: the survey verdicts on the exhaustive depth-2
corpus and every search claim's outcome and minimal witness.

    python3 perfbench/record_expected.py

Run it only at a commit whose answers are trusted; the benchmark compares
every later commit against what this wrote.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ngclab.generators import GeneratorConfig  # noqa: E402
from ngclab.search import SearchConfig, find_counterexample  # noqa: E402
from ngclab.theorems import CorpusConfig, check_theorem  # noqa: E402

from workloads import SEARCH_BUDGET, THEOREMS  # noqa: E402

NAMED_CLAIMS = (
    "dwp-neq-intersection", "awlp-neq-union", "galois-pc", "galois-pi",
    "galois-awlp-dsp-det-rev", "total-correctness-relational",
    "outcome-vs-intersection",
)
LEGS = ("dwlpLB", "dwpLB", "awpLB", "awlpLB", "aspLB", "dspLB", "aslpLB")


def appendix_c() -> list[str]:
    names = list(LEGS) + [f"{leg}-contra" for leg in LEGS]
    return [f"appendixC:{a}-vs-{b}" for a, b in combinations(names, 2)]


def main() -> None:
    tiny = CorpusConfig(GeneratorConfig(("x",), 2, max_depth=2))
    survey = {}
    for theorem in THEOREMS:
        verdict = check_theorem(theorem, tiny).to_jsonable()
        verdict.pop("stats", None)
        survey[theorem] = verdict
    config = SearchConfig(budget=SEARCH_BUDGET)
    claims = {}
    for claim in NAMED_CLAIMS + tuple(appendix_c()):
        result = find_counterexample(claim, config)
        entry = {"outcome": result.outcome}
        if result.found:
            entry["candidates"] = result.candidates
            entry["witness"] = result.witness
        claims[claim] = entry
    out = {"survey-tiny": survey,
           "search": {"budget": SEARCH_BUDGET, "claims": claims}}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
