"""Command-line front end.

Exit codes are a stable contract: 0 the command succeeded and the checked
claim holds (or a counterexample was found, for the counterexample command),
1 the claim is false (or no counterexample turned up).  Anything else is
one stderr line and an exit code that `errors` defines: 2 usage or input
error, 4 a resource limit (the state cap, or the profile budget of states
times program nodes, 10^6), 3 a bug, of whatever exception type.

The commands live in one table, `COMMANDS`: name -> (help text, the function
that adds the command's arguments, handler), from which `build_parser` builds
either the top-level parser with every command's or one command's parser
alone.  A command line that starts with a command name is parsed by that
command's parser alone, prog `ngclab <command>`, which reads the arguments
after the name and gives the namespace, usage, help and rejections that the
top-level parser would give through its subcommand, an unrecognized argument
reported under `ngclab:` as there.  Any other command line (help, version,
no arguments, an unknown command, an option before the command) is parsed by
the top-level parser, whose text the help and the rejections list; so is a
command line with an argument that the top-level parser rejects before any
command reads it (one starting `--=`, a prefix of both `--help` and
`--version`).  Each call of `main` builds its parser anew, as each process
does.  A rejected value, an unrecognized argument or an unknown name longer
than 40 characters is shown as its first 20, an ellipsis and its length.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import NgclError, UsageError, shorten, shorten_quoted, unknown_name
from .logics import AssumptionSet, Triple, classify, logic_by_name, violated_states
from .parser import parse_guard, parse_module
from .search import SearchConfig, find_counterexample
from .space import Predicate, low_bit, state_cap
from .syntax import Program, guard_to_predicate, pretty_program
from .theorems import THEOREM_IDS, corpus_preset, run_survey
from .transformers import TransformerKind, inductive_transform, oracle_transform

CLAIM_FALSE = 1
PROG = "ngclab"


def _load_program(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_module(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(str(exc)) from None


def _render_predicate(pred: Predicate) -> str:
    count = "no states" if pred.is_empty else f"{pred.count} of {pred.space.size} states"
    return f"{pred!r} ({count})"


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_transform(args) -> int:
    space, program = _load_program(args.program)
    if args.mod is not None:
        space = type(space)(space.variables, args.mod)
    pred = guard_pred(args.pred, space)
    kind = TransformerKind(args.kind)
    fns = {"oracle": oracle_transform, "inductive": inductive_transform}
    engines = fns if args.engine == "both" else (args.engine,)
    results = {engine: fns[engine](kind, program, pred) for engine in engines}
    if len(results) == 2 and results["oracle"] != results["inductive"]:
        print("engine disagreement:", file=sys.stderr)
        print(f"  oracle:    {_render_predicate(results['oracle'])}", file=sys.stderr)
        print(f"  inductive: {_render_predicate(results['inductive'])}", file=sys.stderr)
        return NgclError.exit_code
    print(_render_predicate(next(iter(results.values()))))
    return 0


def guard_pred(text: str, space) -> Predicate:
    try:
        return guard_to_predicate(parse_guard(text, space), space)
    except RecursionError:
        # the guard parser and compiler recurse per `(` and `!`; without this,
        # main's handler would blame the program
        raise UsageError("guard nested too deeply (the limit is a few hundred "
                         "levels of nesting)") from None


def cmd_check(args) -> int:
    space, program = _load_program(args.program)
    logic = logic_by_name(args.logic)
    pre = guard_pred(args.pre, space)
    post = guard_pred(args.post, space)
    gap = violated_states(logic, Triple(pre, program, post))
    if not gap:
        print(f"valid for {logic.name}")
        return 0
    # the witness is the first violating state: for a lower bound, a bound
    # state outside the transformer result; for an upper bound, a result
    # state outside the bound
    print(f"invalid for {logic.name} (witness {space.render_states([low_bit(gap)])[0]})")
    return CLAIM_FALSE


def cmd_survey(args) -> int:
    if args.count is not None and args.count < 1:
        # a corpus of no programs would pass every theorem vacuously
        raise UsageError(f"--count must be a positive integer, got {args.count}")
    corpus = corpus_preset(args.corpus, args.count, args.seed)
    suite = list(THEOREM_IDS) if args.suite == "all" else args.suite.split(",")
    for theorem in suite:
        if theorem not in THEOREM_IDS:
            raise unknown_name("theorem", theorem)
    # only the random corpus has a seed to report
    seed = {"seed": corpus.programs.seed} if corpus.programs.mode == "random" else {}
    verdicts = run_survey(suite, corpus)
    if args.format == "json":
        items = []
        for v in verdicts:
            item = v.to_jsonable()
            item.pop("stats", None)
            item["corpus"] = args.corpus
            item.update(seed)
            item["duration_ms"] = None
            item["version"] = __version__
            items.append(item)
        space = corpus.space()
        report = {
            "version": __version__,
            "command": "survey",
            "corpus": args.corpus,
            "space": f"vars {', '.join(space.variables)} mod {space.modulus}",
            **seed,
            "items": items,
        }
        sys.stdout.write(_json_report(report))
    else:
        if seed:
            print(f"seed: {seed['seed']}")
        width = max(len(v.claim) for v in verdicts)
        for v in verdicts:
            mark = "pass" if v.holds else "FAIL"
            extra = "" if v.nonvacuity is None else "  [non-vacuous]"
            print(f"{v.claim:<{width}}  {mark}{extra}")
            if not v.holds and v.witness:
                print(f"  witness: {v.witness}")
    return 0 if all(v.holds for v in verdicts) else CLAIM_FALSE


def cmd_counterexample(args) -> int:
    if args.budget < 0:
        raise UsageError(f"--budget must be a non-negative integer, got {args.budget}")
    config = SearchConfig(budget=args.budget)
    result = find_counterexample(args.claim, config)
    if args.format == "json":
        payload = result.to_jsonable()
        payload["version"] = __version__
        payload["command"] = "counterexample"
        payload["duration_ms"] = None
        sys.stdout.write(_json_report(payload))
    elif result.found:
        print(f"counterexample found after {result.candidates} candidates:")
        for key, value in result.witness.items():
            print(f"  {key}: {value}")
    else:
        reason = ("candidate space exhausted"
                  if result.outcome == "space-exhausted" else "none within budget")
        print(f"{reason} ({result.candidates} candidates)")
    return 0 if result.found else CLAIM_FALSE


def cmd_classify(args) -> int:
    space, program = _load_program(args.program)
    assumptions = classify(program, space)
    for name in AssumptionSet._fields:
        flag = getattr(assumptions, name)
        witness = flag.witness
        if isinstance(witness, Program):
            witness = pretty_program(witness)
        mark = "holds" if flag.holds else f"fails (witness {witness})"
        print(f"{name:<24} {mark}")
    return 0


class _Parser(argparse.ArgumentParser):
    """The parser of the command line and of each command: a command line it
    rejects is a usage error, one short stderr line and exit 2."""

    def error(self, message):
        # argparse quotes no ambiguous option, so it is cut here
        head, ambiguous, rest = message.partition("ambiguous option: ")
        if ambiguous:
            option, could, matches = rest.rpartition(" could match ")
            message = f"{head}{ambiguous}{shorten(option)}{could}{matches}"
        raise UsageError(shorten_quoted(f"{self.prog}: {message}"))

    def parse_args(self, args=None, namespace=None):
        # argparse's own, but with each unrecognized argument shortened, and
        # reported under the top-level prog, where a command parsed through
        # the top-level parser reports it
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            raise UsageError(shorten_quoted(
                f"{PROG}: unrecognized arguments: {' '.join(map(shorten, extra))}"))
        return args


def _transform_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=[k.value for k in TransformerKind])
    p.add_argument("--engine", default="oracle", choices=["oracle", "inductive", "both"])
    p.add_argument("--pred", required=True,
                   help="guard string; postcondition for backward kinds, "
                        "precondition for forward kinds")
    p.add_argument("--mod", type=int, default=None,
                   help="override the modulus declared in the file header")
    p.add_argument("program", help=".ngcl file with a vars header")


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--logic", required=True)
    p.add_argument("--pre", required=True)
    p.add_argument("--post", required=True)
    p.add_argument("program")


def _survey_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated list of theorem ids")
    p.add_argument("--corpus", default="tiny", choices=["tiny", "small-exhaustive", "loops"])
    p.add_argument("--count", type=int, default=None,
                   help="program count of the random corpus loops")
    p.add_argument("--seed", type=int, default=None, help="seed of the random corpus loops")
    p.add_argument("--format", default="text", choices=["text", "json"])


def _counterexample_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--claim", required=True)
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--format", default="text", choices=["text", "json"])


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("program")


# name -> (help text, the function that adds its arguments, handler), in the
# order the full parser lists them
COMMANDS = {
    "transform": ("apply a predicate transformer", _transform_arguments, cmd_transform),
    "check": ("check a triple under a logic", _check_arguments, cmd_check),
    "survey": ("run the theorem suite over a corpus", _survey_arguments, cmd_survey),
    "counterexample": ("search for a witness to a claim", _counterexample_arguments,
                       cmd_counterexample),
    "classify": ("evaluate the collapse assumptions", _classify_arguments, cmd_classify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser with every command, or the named command's
    parser alone, which parses the arguments after the command's name into
    the namespace that the top-level parser gives for the whole line."""
    if command is not None:
        _, add_arguments, handler = COMMANDS[command]
        parser = _Parser(prog=f"{PROG} {command}")
        add_arguments(parser)
        parser.set_defaults(func=handler, command=command)
        return parser
    parser = _Parser(
        prog=PROG,
        description="check triples, transformers, theorems, and equations "
                    "over finite guarded-command programs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The command line parsed by its command's parser alone if it starts
    with a command, and otherwise by the top-level parser.  The top-level
    parser reads every argument before a `--` as an option first, and
    rejects one starting `--=` as ambiguous, so such a line goes to it."""
    if argv and argv[0] in COMMANDS:
        options = argv[1:argv.index("--")] if "--" in argv else argv[1:]
        if not any(arg.startswith("--=") for arg in options):
            return build_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        state_cap()  # reject a malformed NGCL_STATE_CAP whatever the command
        return args.func(args)
    except RecursionError:
        # parsing, hashing and the rules recurse once per level of nesting;
        # a `;` chain of any length is read, hashed and composed in a loop
        print(f"{UsageError.prefix}: program nested too deeply (the limit is a few "
              "hundred levels of nesting)", file=sys.stderr)
        return UsageError.exit_code
    except NgclError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        # a bug, not a false claim: one line and exit 3, never a traceback and 1
        print(f"{NgclError.prefix}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NgclError.exit_code

if __name__ == "__main__":
    sys.exit(main())
