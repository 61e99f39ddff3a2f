"""Mutation check of the semantics and search tests, one planted fault per run.

Each mutant is a small textual edit of one module of `src/ngclab`: a rule of
the profile's SCC pass dropped or bent, a derived field of `Profile` read
from the wrong place, or a per-class memo of the counterexample search keyed,
bounded or filtered wrongly.  For every mutant the script copies `src/` to a
temporary directory, plants the fault there (never in the checkout), and runs
the mutant's test file against the copy in a fresh interpreter.  A mutant is
killed when the tests fail.  It prints one line per mutant and then
killed/total, and exits 1 if any mutant survives: a survivor means a test is
missing.  Every test file first runs on the unmutated copy and must pass.
Standard library only, apart from pytest for the test run itself.

    python3 tools/mutate.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str                         # file under src/ngclab
    edits: tuple[tuple[str, str], ...]  # (text, replacement), each text unique
    tests: str = "test_semantics.py"    # file under tests/ that must kill it


MUTANTS = (
    Mutant("a child that returns open does not merge into its parent", "semantics.py", (
        ("                reach = finals[w]\n                if reach and",
         "                reach = finals[w] if low[w] == w else 0\n                if reach and"),
        ("                if cyclic[w]:\n                    cyclic[v] = True\n"
         "                if low[w] < low[v]:",
         "                if cyclic[w] and low[w] == w:\n                    cyclic[v] = True\n"
         "                if low[w] < low[v]:"),
    )),
    Mutant("an edge to an open node sets no cycle flag", "semantics.py", (
        ("                        low[v] = w\n                    cyclic[v] = True\n",
         "                        low[v] = w\n"),
    )),
    Mutant("a closed successor's cycle flag is ignored", "semantics.py", (
        ("                    if cyclic[w]:\n                        cyclic[v] = True\n",
         ""),
    )),
    Mutant("a closed successor's final states are ignored", "semantics.py", (
        ("                    if reach and reach is not finals[v]:  # share, don't copy",
         "                    if False:"),
    )),
    Mutant("a child's low does not lower its parent's", "semantics.py", (
        ("                if low[w] < low[v]:\n                    low[v] = low[w]\n", ""),
    )),
    Mutant("a closing root does not hand its answer to the members", "semantics.py", (
        ("                        finals[member] = reach\n                        cyclic[member] = loops\n",
         ""),
    )),
    Mutant("the pass admits one node over its budget", "semantics.py", (
        ("if w >= node_budget:", "if w > node_budget:"),
    )),
    Mutant("inverse_relation is the relation itself", "semantics.py", (
        ("inverse = self.relation.converse()", "inverse = self.relation"),
    )),
    Mutant("reach is the relation's domain", "semantics.py", (
        ("reach = self.relation.codomain_bits()", "reach = self.relation.domain_bits()"),
    )),
    Mutant("a choice point follows only its left branch", "semantics.py", (
        ("            return first + state, second + state",
         "            return first + state, -1"),
    )),
    Mutant("a terminal configuration is left open", "semantics.py", (
        ("                    closed.append(True)\n                    finals.append(1 << node)",
         "                    closed.append(False)\n                    finals.append(1 << node)"),
    )),
    Mutant("a long mask is read highest state first", "space.py", (
        ("return int(bytes(flags).translate(_DIGITS)[::-1], 2)",
         "return int(bytes(flags).translate(_DIGITS), 2)"),
    )),
    Mutant("the search's class key leaves out may-divergence", "search.py", (
        ("key = (prof.relation.rows, prof.may_div)", "key = prof.relation.rows"),
    ), "test_search.py"),
    Mutant("a hit past the budget is found", "search.py", (
        ("if hit is not None and hit < left:", "if hit is not None:"),
    ), "test_search.py"),
    Mutant("a hit one past the budget is found", "search.py", (
        ("if hit is not None and hit < left:", "if hit is not None and hit <= left:"),
    ), "test_search.py"),
    Mutant("the blindspot memo is keyed on the earlier program's class only", "search.py", (
        ("cls = pairs.get((q_may, may))", "cls = pairs.get(q_may)"),
        ("cls = pairs[q_may, may] = ", "cls = pairs[q_may] = "),
    ), "test_search.py"),
    Mutant("the det-rev filter keeps its syntactic half per class", "search.py", (
        ("    for space, preds, p, cls in _classes(config, stats, block):\n"
         "        # a program's syntax",
         "    first_syntax = {}\n"
         "    for space, preds, p, cls in _classes(config, stats, block):\n"
         "        # a program's syntax"),
        ("syntactic_choice(p) is not None:",
         "first_syntax.setdefault(id(cls), syntactic_choice(p) is not None):"),
    ), "test_search.py"),
)


def copy_with(src: Path, dest: Path, mutant: Mutant | None) -> Path:
    """A copy of src under dest with the mutant planted; the copy's root."""
    root = dest / "src"
    shutil.copytree(src, root, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = root / "ngclab" / mutant.module
        text = path.read_text(encoding="utf-8")
        for old, new in mutant.edits:
            if text.count(old) != 1:
                raise SystemExit(f"error: mutant {mutant.name!r}: expected one match of "
                                 f"{old!r} in {mutant.module}, found {text.count(old)}")
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
    return root


def tests_pass(src: Path, cwd: Path, tests: str) -> bool:
    """Run one test file against the ngclab under src, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    origin = subprocess.run([sys.executable, "-c", "import ngclab; print(ngclab.__file__)"],
                            env=env, cwd=cwd, capture_output=True, text=True)
    if not origin.stdout.startswith(str(src)):
        raise SystemExit(f"error: the tests would import ngclab from {origin.stdout.strip()!r}"
                         f"{origin.stderr.strip()}, not from {src}")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           str(ROOT / "tests" / tests)], env=env, cwd=cwd, capture_output=True)
    return proc.returncode == 0


def run(mutant: Mutant | None, tests: str) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        # run from the temporary directory, so the hypothesis database goes with it
        return tests_pass(copy_with(ROOT / "src", Path(tmp), mutant), Path(tmp), tests)


def main() -> int:
    for tests in sorted({mutant.tests for mutant in MUTANTS}):
        if not run(None, tests):
            print(f"error: {tests} fails on the unmutated sources", file=sys.stderr)
            return 2
    killed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        survived = run(mutant, mutant.tests)
        killed += not survived
        verdict = "SURVIVED" if survived else "killed  "
        print(f"{verdict}  {time.perf_counter() - start:5.1f} s  {mutant.module}: {mutant.name}"
              f"  [{mutant.tests}]", flush=True)
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
