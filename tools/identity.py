"""Byte-identity digest of the ngclab command line over a fixed command list.

It runs 2 353 commands in-process, through `ngclab.cli.main`, from the root
of the checkout:

- `counterexample --claim C`, the same with `--format json` and with
  `--budget 17`, for each of the claim ids of `perfbench/expected.json`
  (read, never written);
- `counterexample --claim C --budget 1000000 --format json` for the three
  true equivalences: the budget outlasts the 44 105 programs of depth 3
  over x mod 2, so the search goes on into x mod 3;
- for each `demo/*.ngcl`, with four guards over its variables (`true`,
  `false`, its first variable `= 0` and its last `!= 0`):
  `transform --engine both` for the 8 kinds and each guard; `check` for the
  18 logics, the 11 aliases and the unknown name `nope`, with each of the
  16 (pre, post) guard pairs; and `classify`;
- `survey --suite all --format json` on `tiny`, `small-exhaustive` and
  `loops --count 500`, and the text `survey --corpus loops --count 200
  --seed 5`.

It prints one line per command, its exit code, the SHA-256 of its standard
output and of its standard error, and the command, then one final digest
of all those lines.  Two checkouts whose final digests are equal give the
same exit codes and byte-identical output on every command.  It imports
ngclab from the `src/` beside this file, so a copy of this file in another
checkout measures that checkout.  Standard library only; it takes no
options.

    python3 tools/identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KINDS = ("awp", "dwp", "awlp", "dwlp", "asp", "dsp", "aslp", "dslp")
LOGICS = tuple(f"{kind}-{bound}" for kind in KINDS for bound in ("lb", "ub")) + (
    "union-lb", "intersection-lb")
ALIASES = (
    "lisbon", "total-correctness", "partial-correctness", "angelic-partial-correctness",
    "incorrectness", "demonic-incorrectness", "partial-incorrectness",
    "angelic-partial-incorrectness", "necessary-preconditions", "in-between", "outcome",
)
EQUIVALENCES = ("galois-pc", "galois-pi", "galois-awlp-dsp-det-rev")
SURVEYS = (
    ["survey", "--suite", "all", "--format", "json", "--corpus", "tiny"],
    ["survey", "--suite", "all", "--format", "json", "--corpus", "small-exhaustive"],
    ["survey", "--suite", "all", "--format", "json", "--corpus", "loops", "--count", "500"],
    ["survey", "--corpus", "loops", "--count", "200", "--seed", "5"],
)


def guards(path: Path) -> list[str]:
    """Four guards over the variables of a program file's `vars` header."""
    header = re.search(r"^vars\s+(.*?)\s+mod\b", path.read_text(encoding="utf-8"), re.M)
    names = [name.strip() for name in header.group(1).split(",")]
    return ["true", "false", f"{names[0]} = 0", f"{names[-1]} != 0"]


def commands() -> list[list[str]]:
    """Every command line the digest covers, in the order it runs them."""
    with open(ROOT / "perfbench" / "expected.json", encoding="utf-8") as fh:
        claims = list(json.load(fh)["search"]["claims"])
    out = []
    for claim in claims:
        base = ["counterexample", "--claim", claim]
        out += [base, base + ["--format", "json"], base + ["--budget", "17"]]
    out += [["counterexample", "--claim", claim, "--budget", "1000000", "--format", "json"]
            for claim in EQUIVALENCES]
    for path in sorted((ROOT / "demo").glob("*.ngcl")):
        program = path.relative_to(ROOT).as_posix()
        preds = guards(path)
        out += [["transform", "--kind", kind, "--engine", "both", "--pred", pred, program]
                for kind in KINDS for pred in preds]
        out += [["check", "--logic", logic, "--pre", pre, "--post", post, program]
                for logic in LOGICS + ALIASES + ("nope",) for pre in preds for post in preds]
        out.append(["classify", program])
    return out + [list(argv) for argv in SURVEYS]


def run(main, argv: list[str]) -> str:
    """The line of one command: exit code, stdout and stderr digests, argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digests = [hashlib.sha256(text.getvalue().encode()).hexdigest() for text in (out, err)]
    return f"{code} {digests[0]} {digests[1]} {' '.join(argv)}"


def main() -> int:
    if sys.argv[1:]:
        print("usage: python3 tools/identity.py (no options)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from ngclab.cli import main as cli_main

    os.chdir(ROOT)   # the program paths are relative, as every line prints them
    total = hashlib.sha256()
    for argv in commands():
        line = run(cli_main, argv)
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"digest {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
