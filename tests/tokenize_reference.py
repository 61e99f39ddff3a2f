"""The character-loop reference for `parser.tokenize`.

`tokenize` scans a text with one compiled pattern; this is the loop it
replaced, kept as the route it is checked against (`tests/test_lang.py`):
one character at a time, a name's characters by `isalpha`/`isalnum`, an
integer's by `isdecimal`, and each symbol tried with `str.startswith`, in
an order of its own in which each symbol comes before its one-character
prefix.  It builds the same `Token`s and raises the same `NgclSyntaxError`s,
at the same line and column.
"""

import sys

from ngclab.errors import NgclSyntaxError
from ngclab.parser import Token

# the grammar's symbols, each before any that is a prefix of it
_SYMBOLS = (":=", "[]", "<=", "!=", "==", "&&", "||", ";", "{", "}", "(", ")",
            "+", "-", "*", "<", "=", "!", ",")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():   # what int() reads; isdigit() also takes "²"
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if 0 < sys.get_int_max_str_digits() < i - start:   # more than int() reads
                raise NgclSyntaxError(f"integer literal too long ({i - start} digits)", line, col)
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("name", text[start:i], line, col))
            col += i - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise NgclSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
