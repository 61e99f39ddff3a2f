"""Command-line behavior: outputs, exit codes, and report determinism."""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ngclab import cli
from ngclab.cli import main
from ngclab.errors import UsageError
from ngclab.logics import ALIASES, ALL_LOGICS, UNION_LOGIC, Bound
from ngclab.parser import parse_guard, parse_module
from ngclab.semantics import profile
from ngclab.space import Predicate
from ngclab.syntax import guard_to_predicate
from ngclab.theorems import THEOREM_IDS
from ngclab.transformers import TransformerKind

from oracle_reference import oracle_bits

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demo").glob("*.ngcl"))
# a loop over the largest space the benchmark's CLI items use (216 states),
# where a profile builds its tables with linear passes
SCALE = ("scale216", "vars x, y, z mod 6\n"
         "while x != 0 { { x := x - 1 } [] { y := y + 1 } [] { diverge } }\n")
CHECKED = [(demo.stem, demo.read_text(encoding="utf-8")) for demo in DEMOS] + [SCALE]


@pytest.fixture
def choice01(tmp_path):
    path = tmp_path / "choice01.ngcl"
    path.write_text("vars x mod 3\n{ x := 0 } [] { x := 1 }\n")
    return str(path)


@pytest.fixture
def loop_down(tmp_path):
    path = tmp_path / "loop_down.ngcl"
    path.write_text("vars x mod 3\nwhile x != 0 { x := x - 1 }\n")
    return str(path)


@pytest.fixture
def choice_diverge(tmp_path):
    path = tmp_path / "choice_diverge.ngcl"
    path.write_text("vars x mod 3\n{ x := 0 } [] { diverge }\n")
    return str(path)


@pytest.fixture
def assign0(tmp_path):
    path = tmp_path / "assign0.ngcl"
    path.write_text("vars x mod 2\nx := 0\n")
    return str(path)


class TestTransform:
    def test_awp_lists_all_states(self, choice01, capsys):
        assert main(["transform", "--kind", "awp", "--pred", "x = 0", choice01]) == 0
        out = capsys.readouterr().out
        assert "(3 of 3 states)" in out

    def test_dwp_of_true_on_terminating_loop(self, loop_down, capsys):
        assert main(["transform", "--kind", "dwp", "--pred", "true", loop_down]) == 0
        assert "(3 of 3 states)" in capsys.readouterr().out

    def test_asp_of_false_is_empty(self, tmp_path, capsys):
        path = tmp_path / "skip.ngcl"
        path.write_text("vars x mod 3\nskip\n")
        assert main(["transform", "--kind", "asp", "--pred", "false", str(path)]) == 0
        assert "no states" in capsys.readouterr().out

    @pytest.mark.parametrize("pred, line", [
        ("false", "{} (no states)"),
        ("x = 1", "{<x=1>} (1 of 3 states)"),
        ("true", "{<x=0>, <x=1>, <x=2>} (3 of 3 states)"),
    ])
    def test_a_predicate_prints_with_its_state_count(self, tmp_path, capsys, pred, line):
        path = tmp_path / "skip.ngcl"
        path.write_text("vars x mod 3\nskip\n")
        assert main(["transform", "--kind", "awp", "--pred", pred, str(path)]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_both_engines_agree(self, choice01):
        assert main(["transform", "--kind", "dslp", "--engine", "both",
                     "--pred", "x = 0", choice01]) == 0

    def test_every_kind_matches_the_oracle_reference_at_scale(self, tmp_path, capsys):
        # all three are above the size switch, where the inductive engine's
        # assignments step over their successor tables
        for name, text in (SCALE,
                           ("countdown343", "vars x, y, z mod 7\nwhile x != 0 { x := x - 1 }\n"),
                           ("increment343", "vars x, y, z mod 7\nx := x + 1\n")):
            path = tmp_path / f"{name}.ngcl"
            path.write_text(text, encoding="utf-8")
            space, program = parse_module(text)
            for kind, guard in product(TransformerKind, ("true", "x = 0", "y != 1 || z = 2")):
                assert main(["transform", "--kind", kind.value, "--engine", "both",
                             "--pred", guard, str(path)]) == 0
                want = _reference(kind, program, _guard(guard, space))
                states = ", ".join(space.render_states(want.indices()))
                line = ("{} (no states)" if want.is_empty
                        else f"{{{states}}} ({want.count} of {space.size} states)")
                assert capsys.readouterr().out == line + "\n", (name, kind, guard)

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ngcl"
        path.write_text("vars x mod 3\nwhile { skip }\n")
        assert main(["transform", "--kind", "awp", "--pred", "true", str(path)]) == 2


class TestCheck:
    def test_lisbon_valid(self, choice01, capsys):
        code = main(["check", "--logic", "lisbon", "--pre", "true",
                     "--post", "x = 0", choice01])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_total_correctness_invalid_with_witness(self, choice_diverge, capsys):
        code = main(["check", "--logic", "total-correctness", "--pre", "true",
                     "--post", "x = 0", choice_diverge])
        assert code == 1
        assert "witness" in capsys.readouterr().out

    def test_incorrectness_invalid_unreachable_post(self, assign0, capsys):
        code = main(["check", "--logic", "incorrectness", "--pre", "true",
                     "--post", "x = 1", assign0])
        assert code == 1
        assert "<x=1>" in capsys.readouterr().out

    def test_unknown_logic_is_usage_error(self, assign0, capsys):
        assert main(["check", "--logic", "nope", "--pre", "true",
                     "--post", "true", assign0]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: unknown logic 'nope'\n"

    @pytest.mark.parametrize("name, text", CHECKED, ids=[name for name, _ in CHECKED])
    def test_every_logic_matches_the_oracle_reference(self, name, text, tmp_path, capsys):
        path = tmp_path / f"{name}.ngcl"
        path.write_text(text, encoding="utf-8")
        space, program = parse_module(text)
        var = space.variables[0]
        guards = ("true", "false", f"{var} = 0", f"{var} != 1")
        for logic, (pre, post) in product(ALL_LOGICS, product(guards, repeat=2)):
            code = main(["check", "--logic", logic.name, "--pre", pre, "--post", post,
                         str(path)])
            want = _reference_check(logic, _guard(pre, space), program, _guard(post, space))
            assert (code, capsys.readouterr().out) == want, (logic.name, pre, post)


def _guard(text, space):
    return guard_to_predicate(parse_guard(text, space), space)


def _reference(kind, program, q):
    """The kind's transformer of q by the per-kind reference oracle."""
    return Predicate(q.space, oracle_bits(kind, profile(program, q.space), q.bits))


def _reference_check(logic, pre, program, post):
    """Exit code and line of `check`, from the per-kind oracle's predicates:
    the witness is the first violating state -- for a lower bound, a bound
    state outside the transformer result; for an upper bound, a result state
    outside the bound."""
    if logic.kind is None:
        awp = _reference(TransformerKind.AWP, program, post)
        dwlp = _reference(TransformerKind.DWLP, program, post)
        gap = pre - (awp | dwlp if logic is UNION_LOGIC else awp & dwlp)
    elif logic.kind.backward:
        result = _reference(logic.kind, program, post)
        gap = pre - result if logic.bound is Bound.LB else result - pre
    else:
        result = _reference(logic.kind, program, pre)
        gap = post - result if logic.bound is Bound.LB else result - post
    if gap.is_empty:
        return 0, f"valid for {logic.name}\n"
    witness = pre.space.render_states([min(gap.indices())])[0]
    return 1, f"invalid for {logic.name} (witness {witness})\n"


class TestSurvey:
    def test_tiny_suite_passes(self, capsys):
        code = main(["survey", "--suite", "ORDERING,GALOIS_PC", "--corpus", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ORDERING" in out and "pass" in out

    def test_json_report_round_trips(self, capsys):
        code = main(["survey", "--suite", "ORDERING", "--corpus", "tiny",
                     "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "survey"
        assert report["items"][0]["claim"] == "ORDERING"
        assert report["items"][0]["holds"] is True
        assert json.loads(json.dumps(report)) == report

    def test_json_reports_are_byte_identical(self, capsys):
        args = ["survey", "--suite", "ORDERING,BRIDGES", "--corpus", "loops",
                "--count", "30", "--format", "json", "--seed", "13"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_unknown_theorem_is_usage_error(self, capsys):
        assert main(["survey", "--suite", "NOT_A_THEOREM"]) == 2

    @pytest.mark.parametrize("corpus", ["loops", "tiny"])
    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_empty_corpus_is_a_one_line_usage_error(self, capsys, corpus, count):
        # a corpus of no programs must not pass every theorem vacuously
        assert main(["survey", "--corpus", corpus, "--count", count,
                     "--suite", "ORDERING"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --count must be a positive integer, got {count}\n"

    @pytest.mark.parametrize("corpus", ["tiny", "small-exhaustive"])
    @pytest.mark.parametrize("flag", [["--count", "1"], ["--seed", "7"]])
    def test_count_and_seed_of_an_exhaustive_corpus_are_usage_errors(self, capsys, corpus,
                                                                     flag):
        # an exhaustive corpus has no count to cut and nothing to seed
        assert main(["survey", "--corpus", corpus, *flag, "--suite", "ORDERING",
                     "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the corpus {corpus} is exhaustive: "
                                "it takes no program count or seed\n")

    def test_count_and_seed_of_the_random_corpus_are_read(self, capsys):
        def report(*flags):
            assert main(["survey", "--corpus", "loops", *flags, "--suite", "ORDERING",
                         "--format", "json"]) == 0
            return json.loads(capsys.readouterr().out)

        seeded = report("--count", "20", "--seed", "7")
        assert seeded["seed"] == seeded["items"][0]["seed"] == 7
        assert seeded != report("--count", "20", "--seed", "8")


class TestCounterexample:
    def test_known_gap_prints_witness(self, capsys):
        code = main(["counterexample", "--claim", "dwp-neq-intersection",
                     "--budget", "5000"])
        assert code == 0
        assert "program" in capsys.readouterr().out

    def test_true_galois_reports_none_within_budget(self, capsys):
        code = main(["counterexample", "--claim", "galois-pc", "--budget", "2000"])
        assert code == 1
        assert "none within budget" in capsys.readouterr().out

    def test_appendix_claim_from_the_catalog(self, capsys):
        code = main(["counterexample", "--claim",
                     "appendixC:awpLB-vs-aslpLB-contra", "--budget", "30000"])
        assert code == 0

    @pytest.mark.parametrize("claim, message", [
        ("nope", "unknown claim 'nope'"),
        ("appendixC:foo", "unknown catalog claim 'appendixC:foo'"),
    ])
    def test_unknown_claim_is_a_one_line_usage_error(self, capsys, claim, message):
        assert main(["counterexample", "--claim", claim, "--budget", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_negative_budget_is_a_one_line_usage_error(self, capsys):
        assert main(["counterexample", "--claim", "galois-pc", "--budget", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --budget must be a non-negative integer, got -5\n"

    def test_zero_budget_searches_nothing(self, capsys):
        assert main(["counterexample", "--claim", "galois-pc", "--budget", "0"]) == 1
        assert capsys.readouterr().out == "none within budget (0 candidates)\n"


class TestClassify:
    def test_flags_are_printed(self, choice_diverge, capsys):
        assert main(["classify", choice_diverge]) == 0
        out = capsys.readouterr().out
        assert "no_branching_divergence" in out and "fails" in out


def _deep_module(tmp_path, statements):
    path = tmp_path / f"deep{statements}.ngcl"
    path.write_text("vars x, y mod 4\n" + " ;\n".join(
        "x := x + 1" if i % 2 == 0 else "{ y := y + x } [] { y := y + 1 }"
        for i in range(statements)) + "\n")
    return str(path)


def _nested_module(tmp_path, levels):
    path = tmp_path / f"nested{levels}.ngcl"
    path.write_text("vars x mod 2\n" + "{ " * levels + "x := 0" + " }" * levels + "\n")
    return str(path)


TOO_DEEP = "nested too deeply (the limit is a few hundred levels of nesting)\n"


class TestInputLimits:
    @pytest.mark.parametrize("levels", [400, 1200])
    def test_too_deep_program_is_a_one_line_usage_error(self, tmp_path, capsys, levels):
        # parsing recurses once per level of nesting (here nested blocks)
        path = _nested_module(tmp_path, levels)
        assert main(["transform", "--kind", "awp", "--pred", "x = 0", path]) == 2
        assert capsys.readouterr().err == "error: program " + TOO_DEEP

    @pytest.mark.parametrize("argv", [
        ["transform", "--kind", "awp", "--pred", "(" * 300 + "x = 0" + ")" * 300],
        ["check", "--logic", "awp-lb", "--pre", "!" * 1000 + "x = 0", "--post", "x = 0"],
    ])
    def test_too_deep_guard_is_a_one_line_usage_error(self, tmp_path, choice01, capsys,
                                                      argv):
        # the guard parser recurses several frames per `(` or `!`
        assert main(argv + [choice01]) == 2
        assert capsys.readouterr().err == "error: guard " + TOO_DEEP
        # the program is read first: a deep one is still named
        assert main(argv + [_nested_module(tmp_path, 400)]) == 2
        assert capsys.readouterr().err == "error: program " + TOO_DEEP

    @pytest.mark.parametrize("statements", [600, 1200, 5000])
    def test_a_sequence_of_any_length_is_read(self, tmp_path, capsys, statements):
        # x := x + 1 runs statements / 2 times, a multiple of the modulus 4
        path = _deep_module(tmp_path, statements)
        assert main(["transform", "--engine", "both", "--kind", "awp", "--pred", "x = 0",
                     path]) == 0
        assert capsys.readouterr().out == (
            "{<x=0, y=0>, <x=0, y=1>, <x=0, y=2>, <x=0, y=3>} (4 of 16 states)\n")
        assert main(["check", "--logic", "awp-lb", "--pre", "x = 0", "--post", "x = 0",
                     path]) == 0
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("valid for awp-lb\n")
        assert "determinism              fails (witness { y := y + x } [] { y := y + 1 })" in out

    def test_a_long_sequence_in_a_witness_is_printed(self, tmp_path, capsys):
        # classify prints the first choice, here with a 2 000-statement branch
        chain = " ; ".join(["x := x + 1"] * 2000)
        path = tmp_path / "choice_chain.ngcl"
        path.write_text(f"vars x mod 4\n{{ {chain} }} [] {{ skip }}\n")
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == f"determinism              fails (witness {{ {chain} }} [] {{ skip }})"

    def test_back_to_back_calls_on_a_deep_file_agree(self, tmp_path, capsys):
        # the second parse is compared with the equal tree cached by the first
        path = _deep_module(tmp_path, 400)
        argv = ["transform", "--engine", "both", "--kind", "awp", "--pred", "x = 0", path]
        first = main(argv)
        assert main(argv) == first == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
    def test_invalid_state_cap_is_a_one_line_usage_error(self, choice01, capsys,
                                                         monkeypatch, value):
        monkeypatch.setenv("NGCL_STATE_CAP", value)
        assert main(["transform", "--kind", "awp", "--pred", "x = 0", choice01]) == 2
        assert main(["survey", "--suite", "ORDERING"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: NGCL_STATE_CAP must be a positive integer, got {value!r}"] * 2

    def test_state_cap_is_a_one_line_resource_limit(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sixteen.ngcl"
        path.write_text("vars x, y mod 4\nx := y\n")
        monkeypatch.setenv("NGCL_STATE_CAP", "8")
        assert main(["classify", str(path)]) == 4
        err = capsys.readouterr().err
        assert err == "resource limit: state space has 16 states, exceeding the cap of 8\n"

    def test_node_budget_is_a_one_line_resource_limit(self, loop_down, capsys, monkeypatch):
        from ngclab import semantics

        monkeypatch.setattr(semantics, "DEFAULT_NODE_BUDGET", 5)
        # the budget applies when a profile's meaning is composed
        semantics.profile.cache_clear()
        semantics._meaning.cache_clear()
        try:
            assert main(["transform", "--kind", "dwp", "--pred", "x = 0", loop_down]) == 4
        finally:
            semantics.profile.cache_clear()
            semantics._meaning.cache_clear()
        # 3 states times 2 program nodes (the loop and its assignment)
        err = capsys.readouterr().err
        assert err == "resource limit: states x program nodes = 3 x 2 exceeds the budget of 5\n"

    @pytest.mark.parametrize("name, data, err", [
        ("not_utf8", b"vars x mod 3\n\xffx := 1\n",
         "error: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
        ("long_literal", b"vars x mod 3\nx := " + b"1" * 5000 + b"\n",
         "parse error: 2:6: integer literal too long (5000 digits)"),
        ("long_modulus", b"vars x mod " + b"1" * 5000 + b"\nx := 1\n",
         "parse error: 1:12: integer literal too long (5000 digits)"),
        ("superscript_digit", "vars x mod 3\nx := \u00b2\n".encode(),
         "parse error: 2:6: unexpected character '\u00b2'"),
        ("duplicate_variables", b"vars x, x mod 3\nskip\n",
         "error: state space variables must be distinct"),
        ("modulus_zero", b"vars x mod 0\nskip\n", "error: modulus must be >= 1"),
    ])
    def test_bad_input_file_is_a_one_line_usage_error(self, tmp_path, capsys, name, data,
                                                       err):
        path = tmp_path / f"{name}.ngcl"
        path.write_bytes(data)
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err + "\n"

    def test_long_literal_in_a_guard_is_a_parse_error(self, choice01, capsys):
        assert main(["transform", "--kind", "awp", "--pred", "x < " + "9" * 4301,
                     choice01]) == 2
        assert capsys.readouterr().err == (
            "parse error: 1:5: integer literal too long (4301 digits)\n")

    @pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
    def test_unexpected_exception_is_a_one_line_internal_error(self, choice01, capsys,
                                                               monkeypatch, error):
        # a bug must not read as "claim false" (exit 1), as a usage error
        # (exit 2), whatever its type, or print a traceback
        from ngclab import cli

        def broken(kind, program, pred):
            raise error("planted")

        monkeypatch.setattr(cli, "oracle_transform", broken)
        assert main(["transform", "--kind", "awp", "--pred", "x = 0", choice01]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {error.__name__}: {error('planted')}\n"


# grammar tokens, digit runs (one past what int() reads, and a modulus over
# the state cap) and bytes that are not UTF-8, or a digit int() does not read
_FUZZ_TOKENS = (
    "{", "}", ";", "[]", ":=", "(", ")", "&&", "||", "!", "<", "<=", "=", "!=", "+",
    "-", "*", ",", "#", "\n", "skip", "diverge", "while", "if", "else", "vars", "mod",
    "x", "y", "0", "1", "9" * 30, "7" * 4301, "\u00b2", "\u0663",
)
_EDIT = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 200), st.integers(1, 12)),
    st.tuples(st.just("insert"), st.integers(0, 200),
              st.sampled_from([t.encode() for t in _FUZZ_TOKENS] + [b"\xff"])),
)
_FUZZ_COMMANDS = (
    ["classify"],
    ["check", "--logic", "dwp-lb", "--pre", "true", "--post", "true"],
    ["transform", "--engine", "both", "--kind", "dsp", "--pred", "true"],
)


class TestFuzz:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(DEMOS), st.lists(_EDIT, min_size=1, max_size=4))
    def test_edited_demo_files_end_in_a_documented_exit(self, tmp_path, monkeypatch, demo,
                                                        edits):
        # a few byte edits of a demo file: each command ends in 0, 1, 2 or 4,
        # with at most one line on stderr and never a traceback
        data = bytearray(demo.read_bytes())
        for op, at, arg in edits:
            at = min(at, len(data))
            if op == "delete":
                del data[at:at + arg]
            else:
                data[at:at] = b" " + arg + b" "
        path = tmp_path / "edited.ngcl"
        path.write_bytes(bytes(data))
        monkeypatch.setenv("NGCL_STATE_CAP", "4096")
        for command in _FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*command, str(path)])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2, 4), (bytes(data), command, lines)
            assert len(lines) <= 1 and "Traceback" not in err.getvalue(), (bytes(data), lines)


LONG = "7" * 4301   # one digit more than int() reads
LONG_NAME = "x" * 5000


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["survey", "--count", "abc"],                                # not an int
        ["check", "--pre", "true", "--post", "true", "p.ngcl"],      # no --logic
        ["frobnicate"],                                              # no such command
        ["transform", "--kind", "wp", "--pred", "true", "p.ngcl"],   # no such kind
        [],                                                          # no command
    ])
    def test_a_rejected_command_line_is_a_one_line_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0].startswith("error: ngclab") and "usage:" not in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0 and capsys.readouterr().out

    @pytest.mark.parametrize("argv, option", [
        (["transform", "--kind", "awp", "--pred", "true", "--mod", LONG, "p.ngcl"], "--mod"),
        (["survey", "--count", LONG], "--count"),
        (["survey", "--corpus", "loops", "--seed", LONG], "--seed"),
        (["counterexample", "--claim", "galois-pc", "--budget", LONG], "--budget"),
    ])
    def test_an_over_long_rejected_value_is_cut(self, capsys, argv, option):
        # the value's first 20 characters, an ellipsis and its length
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: ngclab {argv[0]}: argument {option}: invalid int "
                                "value: '77777777777777777777\u2026' (4301 characters)\n")

    @pytest.mark.parametrize("argv, line", [
        (["check", "--=" + "y" * 300],
         "error: ngclab: ambiguous option: --=yyyyyyyyyyyyyyyyy\u2026 (303 characters) "
         "could match --help, --version"),
        (["check", "--p=" + "y" * 300],
         "error: ngclab check: ambiguous option: --p=yyyyyyyyyyyyyyyy\u2026 (304 characters) "
         "could match --pre, --post"),
    ])
    def test_an_over_long_ambiguous_option_is_cut(self, capsys, argv, line):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line + "\n"
        assert len(captured.err) < 120

    @pytest.mark.parametrize("length, shown", [
        (40, "'" + "a" * 40 + "'"),
        (41, "'" + "a" * 20 + "\u2026' (41 characters)"),
    ])
    def test_a_value_of_ordinary_length_is_shown_whole(self, capsys, length, shown):
        assert main(["survey", "--corpus", "a" * length]) == 2
        assert capsys.readouterr().err == (
            f"error: ngclab survey: argument --corpus: invalid choice: {shown} "
            "(choose from 'tiny', 'small-exhaustive', 'loops')\n")

    @pytest.mark.parametrize("argv, line", [
        (["check", "--logic", LONG_NAME, "--pre", "true", "--post", "true"],
         "error: unknown logic 'xxxxxxxxxxxxxxxxxxxx\u2026' (5000 characters)"),
        (["check", "--logic", "dwp-lb", "--pre", f"{LONG_NAME} = 0", "--post", "true"],
         "parse error: 1:1: unknown variable 'xxxxxxxxxxxxxxxxxxxx\u2026' (5000 characters)"),
        (["classify", "y" * 5000],
         "error: ngclab: unrecognized arguments: yyyyyyyyyyyyyyyyyyyy\u2026 (5000 characters)"),
        (["counterexample", "--claim", LONG_NAME],
         "error: unknown claim 'xxxxxxxxxxxxxxxxxxxx\u2026' (5000 characters)"),
        (["survey", "--suite", LONG_NAME],
         "error: unknown theorem 'xxxxxxxxxxxxxxxxxxxx\u2026' (5000 characters)"),
        (["counterexample", "--claim", f"appendixC:{LONG_NAME}-vs-y"],
         "error: unknown catalog claim 'appendixC:xxxxxxxxxx\u2026' (5015 characters)"),
    ])
    def test_an_over_long_unknown_name_is_cut(self, capsys, choice01, argv, line):
        if argv[0] in ("check", "classify"):
            argv = [argv[0], choice01, *argv[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line + "\n"
        assert len(captured.err.encode()) < 200

    def test_an_over_long_state_cap_is_cut(self, capsys, monkeypatch):
        monkeypatch.setenv("NGCL_STATE_CAP", "x" * 50)
        assert main(["survey", "--suite", "ORDERING"]) == 2
        assert capsys.readouterr().err == ("error: NGCL_STATE_CAP must be a positive integer, "
                                           "got 'xxxxxxxxxxxxxxxxxxxx\u2026' (50 characters)\n")


def _outcome(parser, argv):
    """What a parser makes of a command line: its namespace, its rejection's
    message, or the exit code and output of its help or version."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return "parsed", parser.parse_args(argv)
    except UsageError as exc:
        return "rejected", str(exc)
    except SystemExit as exc:
        return "exited", exc.code, out.getvalue()


# per command, command lines it parses and command lines it rejects
_PARSED = {
    "transform": [
        ["transform", "--kind", "awp", "--pred", "x = 0", "p.ngcl"],
        ["transform", "p.ngcl", "--engine", "both", "--kind=dsp", "--pred", "true",
         "--mod", "4"],
        ["transform", "--eng", "inductive", "--kind", "aslp", "--pred", "-1", "--", "-p"],
    ],
    "check": [
        ["check", "--logic", "lisbon", "--pre", "true", "--post", "x = 0", "p.ngcl"],
        ["check", "--post", "", "--pre=-1", "--logic=nope", "p.ngcl"],
    ],
    "survey": [
        ["survey"],
        ["survey", "--suite", "ORDERING,BRIDGES", "--corpus", "loops", "--count", "30",
         "--seed", "-13", "--format", "json"],
        ["survey", "--cor", "small-exhaustive", "--count", "0"],
    ],
    "counterexample": [
        ["counterexample", "--claim", "galois-pc"],
        ["counterexample", "--budget", "-5", "--claim", "", "--format", "json"],
    ],
    "classify": [["classify", "p.ngcl"], ["classify", "--", "--p.ngcl"]],
}
_REJECTED = {
    "transform": [
        ["transform"],
        ["transform", "--kind", "wp", "--pred", "true", "p.ngcl"],
        ["transform", "--kind", "awp", "--pred", "true"],
        ["transform", "--kind", "awp", "--pred", "true", "--mod", LONG, "p.ngcl"],
        ["transform", "--kind", "awp", "--pred", "true", "a.ngcl", "b.ngcl"],
        ["transform", "--kind"],
    ],
    "check": [
        ["check", "--pre", "true", "--post", "true", "p.ngcl"],
        ["check", "--logic", "x", "--pre", "t", "--post", "t", "p.ngcl", "--bogus"],
        ["check", "--version"],
        ["check", "--p", "true"],
    ],
    "survey": [
        ["survey", "--count", "abc"],
        ["survey", "--corpus", "x" * 60],
        ["survey", "--format", "xml"],
        ["survey", "extra"],
        ["survey", "--seed"],
        ["survey", "--s", "7"],
    ],
    "counterexample": [
        ["counterexample"],
        ["counterexample", "--claim", "c", "--budget", "1.5"],
        ["counterexample", "--claim", "c", "--format", "yaml"],
    ],
    "classify": [["classify"], ["classify", "a.ngcl", "b.ngcl"], ["classify", "--program", "a"]],
}


class TestSingleCommandParser:
    """A command line that starts with a command is parsed by that command's
    parser alone, from the argument after the command's name; it must parse
    and reject as the full parser does the whole line."""

    def test_every_command_is_checked(self):
        assert list(_PARSED) == list(_REJECTED) == list(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(_PARSED))
    def test_parsed_command_lines_give_equal_namespaces(self, command):
        for argv in _PARSED[command]:
            full = _outcome(cli.build_parser(), argv)
            assert full[0] == "parsed", (argv, full)
            assert _outcome(cli.build_parser(command), argv[1:]) == full, argv

    @pytest.mark.parametrize("command", list(_REJECTED))
    def test_rejected_command_lines_give_the_same_message(self, command):
        for argv in _REJECTED[command]:
            full = _outcome(cli.build_parser(), argv)
            assert full[0] == "rejected", (argv, full)
            assert _outcome(cli.build_parser(command), argv[1:]) == full, argv

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_is_the_same(self, command, flag):
        full = _outcome(cli.build_parser(), [command, flag])
        assert full[0] == "exited" and full[1] == 0 and f"usage: ngclab {command}" in full[2]
        assert _outcome(cli.build_parser(command), [flag]) == full

    @pytest.mark.parametrize("argv, arg", [(["check", "--=x"], "--=x"),
                                           (["survey", "--format", "--="], "--="),
                                           (["classify", "a", "--=b", "--", "c"], "--=b")])
    def test_an_argument_the_top_level_parser_finds_ambiguous_goes_to_it(self, capsys, argv,
                                                                          arg):
        # `--=` is a prefix of both --help and --version: the top-level
        # parser rejects it before the command's parser reads anything
        message = f"ngclab: ambiguous option: {arg} could match --help, --version"
        assert _outcome(cli.build_parser(), argv) == ("rejected", message)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every parser built from here on, in order."""
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return built


class TestParserBuilds:
    CHECK = ["check", "--logic", "lisbon", "--pre", "true", "--post", "x = 0",
             str(DEMOS[0])]

    def test_a_command_builds_its_parser_alone(self, capsys, parsers_built):
        assert main(self.CHECK) == 0
        assert parsers_built == ["ngclab check"]

    def test_each_command_line_builds_its_parser_anew(self, capsys, parsers_built):
        assert main(self.CHECK) == main(self.CHECK) == 0
        assert parsers_built == ["ngclab check", "ngclab check"]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]])
    def test_help_and_version_build_every_command(self, capsys, parsers_built, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert len(parsers_built) == 1 + len(cli.COMMANDS) == 6

    def test_the_entry_point_reads_sys_argv(self, capsys, monkeypatch, parsers_built):
        # the console script calls main() with no argument
        monkeypatch.setattr(sys, "argv", ["ngclab", *self.CHECK])
        assert main() == 0
        assert capsys.readouterr().out == "valid for awp-lb\n"   # lisbon's name
        assert parsers_built == ["ngclab check"]


# guard edits: grammar tokens, digit runs, characters int() does not read,
# unknown names, and a guard nested 1 000 deep in `(` or `!`
_GUARD_TOKENS = (
    "(", ")", "&&", "||", "!", "<", "<=", "=", "!=", "+", "-", "*", "true", "false",
    "x", "0", "1", "9" * 30, "7" * 4301, "²", "٣", "\xff", "nope", "mod",
)
_GUARD_EDIT = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 40), st.integers(1, 6)),
    st.tuples(st.just("insert"), st.integers(0, 40), st.sampled_from(_GUARD_TOKENS)),
    st.tuples(st.just("nest"), st.just(0), st.sampled_from(["(", "!"])),
)


def _edit_guard(text, edits):
    for op, at, arg in edits:
        at = min(at, len(text))
        if op == "delete":
            text = text[:at] + text[at + arg:]
        elif op == "insert":
            text = f"{text[:at]} {arg} {text[at:]}"
        elif arg == "(":
            text = "(" * 1000 + text + ")" * 1000
        else:
            text = "!" * 1000 + text
    return text


class TestGuardFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(DEMOS), st.lists(_GUARD_EDIT, min_size=1, max_size=3))
    def test_edited_guards_end_in_a_documented_exit(self, demo, edits):
        # the --pre, --post and --pred text edited: each command ends in 0,
        # 1, 2 or 4, with at most one line on stderr and never a traceback
        space, _ = parse_module(demo.read_text(encoding="utf-8"))
        v = space.variables[-1]
        base = f"!({v} < 1) || {v} = 0"
        guard = _edit_guard(base, edits)
        for command in (["check", "--logic", "dwp-lb", "--pre", guard, "--post", base],
                        ["check", "--logic", "asp-ub", "--pre", base, "--post", guard],
                        ["transform", "--engine", "both", "--kind", "dsp", "--pred", guard]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*command, str(demo)])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2, 4), (guard, command, lines)
            assert len(lines) <= 1 and "Traceback" not in err.getvalue(), (guard, lines)


# option values: small integers, and text that int() reads in an unexpected
# way (signs, spaces, underscores, a non-ASCII digit) or refuses (a word, a
# float, hex, a superscript, one digit more than it reads, nothing)
_ODD_NUMBERS = ("abc", "", "2.5", "1e3", "0x10", "\u00b2", "7" * 4301, "\u0663", " 5 ",
                "1_0", "+3", "-0")
_NUMBERS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(_ODD_NUMBERS))
_CLAIMS = ("galois-pc", "galois-pi", "galois-awlp-dsp-det-rev", "dwp-neq-intersection",
           "awlp-neq-union", "total-correctness-relational", "outcome-vs-intersection",
           "appendixC:dwlpLB-vs-awpLB", "appendixC:aspLB-vs-dspLB-contra",
           "appendixC:", "appendixC:dwlpLB-vs-nope", "nope", "", LONG_NAME,
           f"appendixC:{LONG_NAME}-vs-awpLB")
_SUITES = st.one_of(st.just("all"), st.lists(
    st.sampled_from(THEOREM_IDS + ("all", "ordering", "nope", "", LONG_NAME)),
    min_size=1, max_size=3,
).map(",".join))
# nothing, or an argument no command takes
_EXTRA = st.sampled_from([[], ["extra"], ["y" * 5000]])
# a huge --count or --budget is a long run, not an error: those two stay small
_OPTION_COMMANDS = st.builds(lambda command, extra: command + extra, st.one_of(
    st.builds(lambda demo, mod: ["transform", "--engine", "both", "--kind", "dsp",
                                 "--pred", "true", "--mod", mod, str(demo)],
              st.sampled_from(DEMOS), st.one_of(_NUMBERS, st.just("9" * 30))),
    st.builds(lambda corpus, seed, suite: ["survey", *corpus, *seed, "--suite", suite],
              st.one_of(st.just(["--corpus", "tiny"]),
                        st.builds(lambda corpus, count: ["--corpus", corpus, "--count", count],
                                  st.sampled_from(["tiny", "loops"]), _NUMBERS)),
              st.one_of(st.just([]), st.builds(lambda seed: ["--seed", seed],
                                               st.one_of(_NUMBERS, st.just("9" * 30)))),
              _SUITES),
    st.builds(lambda claim, budget, form: ["counterexample", "--claim", claim,
                                           "--budget", budget, "--format", form],
              st.sampled_from(_CLAIMS), st.one_of(st.integers(-3, 300).map(str),
                                                  st.sampled_from(_ODD_NUMBERS)),
              st.sampled_from(["text", "json"])),
    st.builds(lambda demo, logic: ["check", "--logic", logic, "--pre", "true",
                                   "--post", "true", str(demo)],
              st.sampled_from(DEMOS), st.sampled_from(["dwp-lb", "nope", "", LONG_NAME])),
), _EXTRA)
_CAPS = st.one_of(st.none(), st.integers(-2, 4096).map(str),
                  st.sampled_from(_ODD_NUMBERS + ("9" * 30,)))


class TestOptionFuzz:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_OPTION_COMMANDS, _CAPS)
    def test_option_values_end_in_a_documented_exit(self, monkeypatch, command, cap):
        # --mod, --count, --seed, --budget, --suite, --claim, --logic, an
        # extra argument and the state cap: each command ends in 0, 1, 2 or
        # 4, with at most one line on stderr and never a traceback
        if cap is None:
            monkeypatch.delenv("NGCL_STATE_CAP", raising=False)
        else:
            monkeypatch.setenv("NGCL_STATE_CAP", cap)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 4), (command, cap, lines)
        assert len(lines) <= 1 and "Traceback" not in err.getvalue(), (command, cap, lines)
        # a rejected value of any length leaves a short line
        assert all(len(line) < 200 for line in lines), (command, cap, lines)
        # the command's own parser, on the arguments after the command's
        # name, and the full one agree
        assert (_outcome(cli.build_parser(command[0]), command[1:])
                == _outcome(cli.build_parser(), command)), command


def test_the_identity_recipe_covers_every_command_and_name():
    # `tools/identity.py` digests the command line over a fixed list; its
    # names must stay those of the package, and it builds the list cheaply
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    commands = identity.commands()
    assert len(commands) >= 2353
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    assert set(identity.KINDS) == {kind.value for kind in TransformerKind}
    assert set(identity.LOGICS) == {logic.name for logic in ALL_LOGICS}
    assert set(identity.ALIASES) == set(ALIASES)
