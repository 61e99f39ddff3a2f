"""Concrete syntax for programs, guards, and `.ngcl` files.

Grammar (statements):

    stmt  ::= "skip" | "diverge" | NAME ":=" expr
            | "if" guard block "else" block
            | "while" guard block
            | block ("[]" block)*
    seq   ::= stmt (";" stmt)*            # folded to the right
    block ::= "{" seq "}"

Guards close comparisons (= != < <=, also ==) under && || ! and parentheses;
expressions use + - * over names and integer literals.  `#` starts a line
comment.  Files carry a header line `vars x, y mod 4` declaring the space.

`tokenize` reads a text in one pass of one compiled pattern, a match per
token with the blanks before it; the recursive-descent `_Parser` reads the
token list, a `;` chain in a loop.  A name is a letter or `_` and then
letters, digits and `_` (`str.isalnum`); an integer literal is decimal
digits (`str.isdecimal`, what `int()` reads), and one longer than `int()`
reads is a parse error at its position.
"""

from __future__ import annotations

import re
import sys

from .errors import NgclSyntaxError, UnknownVariableError
from .space import StateSpace
from .syntax import (
    And,
    Assign,
    BinExpr,
    BoolLit,
    Choice,
    Cmp,
    Const,
    Diverge,
    Expr,
    Guard,
    Ite,
    Not,
    Or,
    Program,
    Seq,
    Skip,
    Var,
    While,
)
from .values import Frozen

_KEYWORDS = {"skip", "diverge", "if", "else", "while", "true", "false", "vars", "mod"}
_SYMBOLS = (":=", "[]", "<=", "!=", "==", "&&", "||", ";", "{", "}", "(", ")",
            "+", "-", "*", "<", "=", "!", ",")


# One group per token kind, after any blanks, tried in this order: a
# newline, a comment, an integer literal (the `isdecimal` digits, which `int`
# reads), a name, a symbol (in `_SYMBOLS`' order, so a two-character symbol
# before its one-character prefix) and any other character.  `\w` is
# `isalnum() or "_"`, a name's later characters; its first is a word
# character that is no digit, which admits `²` and `Ⅻ` too, so `tokenize`
# checks it for `isalpha() or "_"`.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<int>\d+)|(?P<name>[^\W\d]\w*)"
    f"|(?P<sym>{'|'.join(map(re.escape, _SYMBOLS))})|(?P<bad>.))", re.S)


class Token(Frozen):
    __slots__ = ("kind", "text", "line", "column")   # kind: name | int | sym | eof

    def __init__(self, kind: str, text: str, line: int, column: int):
        _set_kind(self, kind)
        _set_text(self, text)
        _set_line(self, line)
        _set_column(self, column)


_set_kind, _set_text, _set_line, _set_column = (
    Token.kind.__set__, Token.text.__set__, Token.line.__set__, Token.column.__set__)


def tokenize(text: str) -> list[Token]:
    """The tokens of a text, each with its 1-based line and column, and then
    an `eof` token.  A column counts characters from the line's start, a tab
    as one; the `eof` token after a comment that ends the text has the
    comment's column."""
    tokens: list[Token] = []
    line, line_start = 1, 0     # the line's number and the index of its first character
    comment = -1                # where the last comment starts
    limit = sys.get_int_max_str_digits()
    # each match's blanks come before its token: those that end the text are
    # left out, so that every match has a token
    for match in _TOKEN.finditer(text, 0, len(text.rstrip(" \t\r"))):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        word, start = match.group(kind), match.start(kind)
        if kind == "comment":
            comment = start
            continue
        column = start - line_start + 1
        if kind == "int" and 0 < limit < len(word):   # more than int() reads
            raise NgclSyntaxError(f"integer literal too long ({len(word)} digits)", line, column)
        if kind == "bad" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise NgclSyntaxError(f"unexpected character {word[0]!r}", line, column)
        tokens.append(Token(kind, word, line, column))
    end = comment if comment >= line_start else len(text)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], space: StateSpace | None):
        self.tokens = tokens
        self.pos = 0
        self.space = space

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> NgclSyntaxError:
        tok = self.peek()
        return NgclSyntaxError(message, tok.line, tok.column)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind != "eof"

    def check_var(self, tok: Token) -> str:
        if self.space is not None and tok.text not in self.space.variables:
            raise UnknownVariableError(tok.text, tok.line, tok.column)
        return tok.text

    # expressions: term ((+|-) term)*, term: factor (* factor)*
    def expr(self) -> Expr:
        node = self.term()
        while self.at("+") or self.at("-"):
            op = self.next().text
            node = BinExpr(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at("*"):
            self.next()
            node = BinExpr("*", node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(int(tok.text))
        if tok.kind == "name" and tok.text not in _KEYWORDS:
            self.next()
            return Var(self.check_var(tok))
        if self.at("("):
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        raise self.fail(f"expected an expression, found {tok.text!r}")

    # guards: disj > conj > neg > atom
    def guard(self) -> Guard:
        node = self.conj()
        while self.at("||"):
            self.next()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Guard:
        node = self.neg()
        while self.at("&&"):
            self.next()
            node = And(node, self.neg())
        return node

    def neg(self) -> Guard:
        if self.at("!"):
            self.next()
            return Not(self.neg())
        return self.guard_atom()

    def guard_atom(self) -> Guard:
        tok = self.peek()
        if tok.text == "true":
            self.next()
            return BoolLit(True)
        if tok.text == "false":
            self.next()
            return BoolLit(False)
        if self.at("("):
            # could be a parenthesized guard or a parenthesized expression
            # starting a comparison; try the guard reading first
            save = self.pos
            self.next()
            try:
                node = self.guard()
                self.expect(")")
            except NgclSyntaxError:
                self.pos = save
            else:
                if self.peek().text in ("=", "==", "!=", "<", "<="):
                    self.pos = save
                else:
                    return node
        left = self.expr()
        op_tok = self.peek()
        if op_tok.text not in ("=", "==", "!=", "<", "<="):
            raise self.fail(f"expected a comparison, found {op_tok.text!r}")
        self.next()
        op = "=" if op_tok.text == "==" else op_tok.text
        return Cmp(op, left, self.expr())

    # statements
    def sequence(self) -> Program:
        statements = [self.statement()]
        while self.at(";"):
            self.next()
            statements.append(self.statement())
        # fold right: s1; s2; s3 is Seq(s1, Seq(s2, s3))
        node = statements.pop()
        while statements:
            node = Seq(statements.pop(), node)
        return node

    def statement(self) -> Program:
        tok = self.peek()
        if tok.text == "skip":
            self.next()
            return Skip()
        if tok.text == "diverge":
            self.next()
            return Diverge()
        if tok.text == "if":
            self.next()
            g = self.guard()
            then = self.block()
            self.expect("else")
            orelse = self.block()
            return Ite(g, then, orelse)
        if tok.text == "while":
            self.next()
            g = self.guard()
            return While(g, self.block())
        if self.at("{"):
            node = self.block()
            while self.at("[]"):
                self.next()
                node = Choice(node, self.block())
            return node
        if tok.kind == "name" and tok.text not in _KEYWORDS:
            self.next()
            name = self.check_var(tok)
            self.expect(":=")
            return Assign(name, self.expr())
        raise self.fail(f"expected a statement, found {tok.text!r}")

    def block(self) -> Program:
        self.expect("{")
        node = self.sequence()
        self.expect("}")
        return node

    def header(self) -> StateSpace:
        self.expect("vars")
        names = []
        tok = self.peek()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            raise self.fail("expected a variable name")
        names.append(self.next().text)
        while self.at(","):
            self.next()
            tok = self.peek()
            if tok.kind != "name" or tok.text in _KEYWORDS:
                raise self.fail("expected a variable name")
            names.append(self.next().text)
        self.expect("mod")
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail("expected a modulus")
        self.next()
        return StateSpace(tuple(names), int(tok.text))

    def eof(self):
        if self.peek().kind != "eof":
            raise self.fail(f"trailing input {self.peek().text!r}")


def parse_program(text: str, space: StateSpace) -> Program:
    parser = _Parser(tokenize(text), space)
    program = parser.sequence()
    parser.eof()
    return program


def parse_guard(text: str, space: StateSpace) -> Guard:
    parser = _Parser(tokenize(text), space)
    guard = parser.guard()
    parser.eof()
    return guard


def parse_module(text: str) -> tuple[StateSpace, Program]:
    """Parse a self-contained `.ngcl` file: header line plus a program."""
    parser = _Parser(tokenize(text), None)
    space = parser.header()
    parser.space = space
    program = parser.sequence()
    parser.eof()
    return space, program
