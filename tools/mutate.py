"""Mutation check of the semantics, logic, algebra and search tests, one planted fault per run.

Each mutant is a small textual edit of one module of `src/ngclab`: a rule
of the profile's composer or a step of its loops' SCC pass dropped or bent,
the sink of its successor tables given a successor, a row bit or a final
state, its budget off by one, an `if`'s sides swapped in its syntax walk
alone, a derived field of `Profile` read from the wrong
place, the triple logics' subset-condition kernel bounding the wrong way,
its per-class validity sets bounding a backward logic the wrong way,
shifting a forward set by b rather than b * P or not spreading a
backward one, Fig. 4's contrapositive check without its bit reversal,
the linear passes of a profile's transformer tables for large spaces
reading the wrong masks, a collapse assumption scoped to the wrong side or
to no side, the equation catalog's rectangle plans reading the wrong table
entry, side or test, a per-class memo of the counterexample search keyed
(without may-divergence, say), bounded or filtered wrongly, one of the
three transformer facts the taxonomy is derived from misstated (an ordering,
a negation dual or an adjunction), the search's `-contra` legs read as
their representatives, a `;` chain's spine hashed one link deep, compared
without its statements, or listed out of order when it nests to the left, the
inductive engine's choice, forward `if` or loop rule bent, its linear
assignment step above the size switch reading the flags of the complement,
marking the selected states rather than their successors or leaving dslp
uncomplemented, a compiled `!` or `<` or the assignment table wrong, a usage error given exit code 3,
the value types' shared base comparing values of two classes, hashing a node
without its class, allowing assignment or pickling one field short, a
command's own parser short of an argument or never used, the stream
classifier keyed without the guard, skipping the budget on a memo hit,
counting a `;` entry as a node or giving a later entry of a key the first
one's node count, the `;` combine swapping its parts, a loop row of the
enumeration reading every earlier entry, a random corpus's rows all its
first program, the survey's counts read one program past a class's first,
a relation's domain read as its empty rows, a state's values read from the
strides in reverse, or a printed predicate counting the states outside it.
For every mutant the script copies `src/` to a temporary directory, plants
the fault there (never in the checkout), and runs the mutant's test file
against the copy in a fresh interpreter.  A mutant is killed when the tests
fail.  It prints one line per mutant and then
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
    # the composer's rules
    Mutant("`;` after a union of tables drops pre_a(may(b))", "semantics.py", (
        ("            a_may |= _pre(first, may, n)\n", "            pass\n"),
    )),
    Mutant("`;` after rows drops pre_a(may(b))", "semantics.py", (
        ("            a_may |= _space.mask_of([row & may != 0 for row in a.rows])",
         "            pass"),
    )),
    Mutant("a union's tables are composed in the wrong order", "semantics.py", (
        ("tables.append(tuple(map(second.__getitem__, first)))",
         "tables.append(tuple(map(first.__getitem__, second)))"),
    )),
    Mutant("`;` of more tables than a union keeps drops the later ones", "semantics.py", (
        ("        succs, rows = (), _rows(b, space)\n", "        succs = ()\n"),
    )),
    Mutant("`;` of a union of tables and then rows ignores the rows", "semantics.py", (
        ("        if rows is not None:\n            parts.append(",
         "        if False:\n            parts.append("),
    )),
    Mutant("`;` of rows ignores the rows that follow", "semantics.py", (
        ("                if rows is not None:\n                    acc |= rows[j]\n", ""),
    )),
    Mutant("`;` of rows and then a table ignores the table", "semantics.py", (
        ("acc |= 1 << second[j]", "acc |= 1 << j"),
    )),
    Mutant("`[]` intersects may-div", "semantics.py", (
        ("left.may | right.may", "left.may & right.may"),
    )),
    Mutant("`[]` takes only its left branch's rows", "semantics.py", (
        ("        rows = _union(rows, right.rows)\n", "        pass\n"),
    )),
    Mutant("`[]` of tables keeps only its left branch's", "semantics.py", (
        ("_join(nodes, left.succs + right.succs, rows,", "_join(nodes, left.succs, rows,"),
    )),
    Mutant("a union keeps only its first table", "semantics.py", (
        ("        tables = dict.fromkeys(tables)\n", "        tables = tables[:1]\n"),
    )),
    Mutant("a union keeps a table with no successor", "semantics.py", (
        ("[table for table in tables if table.count(n) <= n]", "list(tables)"),
    )),
    Mutant("a union's rows keep only its first table", "semantics.py", (
        ("one = {key: reduce(or_, map(bit.__getitem__, key))", "one = {key: bit[key[0]]"),
    )),
    Mutant("`if` takes the guard the wrong way round", "semantics.py", (
        ("map(getitem, zip(orelse, then), flags)", "map(getitem, zip(then, orelse), flags)"),
    )),
    Mutant("`if` joins both branches' may-div", "semantics.py", (
        ("may = then.may & g | orelse.may & ~g & space.full_mask",
         "may = then.may | orelse.may"),
    )),
    Mutant("an `if` of two unions drops the wider one's extra tables", "semantics.py", (
        ("zip_longest(then.succs, orelse.succs, fillvalue=repeat(n))",
         "zip(then.succs, orelse.succs)"),
    )),
    Mutant("an `if` drops the rows beside its tables", "semantics.py", (
        ("        rows = _select(flags, then.rows or repeat(0), orelse.rows or repeat(0))",
         "        rows = None"),
    )),
    Mutant("diverge may not diverge", "semantics.py", (
        ("return _Meaning(1, (), None, space.full_mask)", "return _Meaning(1, (), None, 0)"),
    )),
    Mutant("the syntax walk reads an `if`'s sides the wrong way round", "semantics.py", (
        ("guard, a, b = p.guard, _meaning(p.then, space), _meaning(p.orelse, space)",
         "guard, a, b = p.guard, _meaning(p.orelse, space), _meaning(p.then, space)"),
    )),
    # the sink, n: no successor in a table
    Mutant("the rows give the sink a bit", "semantics.py", (
        ("    bit[n] = 0 ", "    pass "),
    )),
    Mutant("`;` of rows and then a partial table gives the sink a bit", "semantics.py", (
        ("image[row] = acc & full", "image[row] = acc"),
    )),
    Mutant("a preimage counts the sink as in the mask", "semantics.py", (
        ("flags = _space.flag_string(mask, n + 1)",
         "flags = _space.flag_string(mask | 1 << n, n + 1)"),
    )),
    Mutant("an `if` side without tables is the identity, not the sink", "semantics.py", (
        ("fillvalue=repeat(n))", "fillvalue=range(n + 1))"),
    )),
    Mutant("the loop pass leaves the sink open", "semantics.py", (
        ("closed = bytearray(_space.flag_bytes(exits | sink, n + 1))",
         "closed = bytearray(_space.flag_bytes(exits, n + 1))"),
    )),
    Mutant("the loop pass counts the sink as a final state", "semantics.py", (
        ("under = _space.flag_bytes(g | sink, n + 1)", "under = _space.flag_bytes(g, n + 1)"),
    )),
    # the loop's SCC pass over the states
    Mutant("a loop self-edge is not flagged as a cycle", "semantics.py", (
        ("                        low[v] = number[w]\n                    cyclic[v] = 1\n",
         "                        low[v] = number[w]\n                    if w != v:\n"
         "                        cyclic[v] = 1\n"),
    )),
    Mutant("a loop body's union of tables reads only its first", "semantics.py", (
        ("map(itemgetter(v), succs)", "map(itemgetter(v), succs[:1])"),
    )),
    Mutant("a loop body's rows beside tables are ignored", "semantics.py", (
        ("return tables if rows is None else chain(tables, iter_bits(rows[v]))",
         "return tables"),
    )),
    Mutant("a loop body of one table gives a state the next state's successor",
           "semantics.py", (
        ("return (table[v],)", "return (table[v + 1],)"),
    )),
    Mutant("a state outside the guard is not its own final state", "semantics.py", (
        ("reach = finals[w] = 1 << w", "reach = finals[w] = 0"),
    )),
    Mutant("a loop is rows even where a state outside its guard is not reached",
           "semantics.py", (
        ("if reached == exits.bit_count():", "if True:"),
    )),
    Mutant("a loop is not the identity outside its guard", "semantics.py", (
        ("_select(under, repeat(n), range(n + 1))", "_select(under, repeat(n), repeat(n))"),
    )),
    Mutant("an edge to an open state sets no cycle flag", "semantics.py", (
        ("                        low[v] = number[w]\n                    cyclic[v] = 1\n",
         "                        low[v] = number[w]\n"),
    )),
    Mutant("SCC members do not receive their root's finals", "semantics.py", (
        ("                        finals[member] = reach\n", ""),
    )),
    Mutant("a child that returns open does not merge into its parent", "semantics.py", (
        ("                    reach = finals[v]\n                    if reach and",
         "                    reach = finals[v] if low[v] == number[v] else 0\n"
         "                    if reach and"),
        ("                    if cyclic[v]:\n                        cyclic[u] = 1\n",
         "                    if cyclic[v] and low[v] == number[v]:\n"
         "                        cyclic[u] = 1\n"),
    )),
    Mutant("a child's low does not lower its parent's", "semantics.py", (
        ("                    if low[v] < low[u]:\n                        low[u] = low[v]\n", ""),
    )),
    Mutant("a closed successor's cycle flag is ignored", "semantics.py", (
        ("                    if cyclic[w]:\n                        cyclic[v] = 1\n", ""),
    )),
    Mutant("a closed successor's final states are ignored", "semantics.py", (
        ("                    if reach and reach is not finals[v]:  # share, don't copy",
         "                    if False:"),
    )),
    Mutant("a state outside the guard is left open", "semantics.py", (
        ("closed = bytearray(_space.flag_bytes(exits | sink, n + 1))",
         "closed = bytearray(_space.flag_bytes(sink, n + 1))"),
    )),
    Mutant("the body's may-div is ignored", "semantics.py", (
        ("flag_bytes(may & g, n + 1)", "flag_bytes(0, n + 1)"),
    )),
    Mutant("the body's may-div counts outside the guard", "semantics.py", (
        ("flag_bytes(may & g, n + 1)", "flag_bytes(may, n + 1)"),
    )),
    # the budget and the profile's derived fields
    Mutant("must-div is empty when only the last state has no final state", "semantics.py", (
        ("if 0 in rows else 0", "if 0 in rows[:-1] else 0"),
    )),
    Mutant("the composer admits one state-node over its budget", "semantics.py", (
        ("if n * nodes > budget:", "if n * nodes >= budget:"),
    )),
    Mutant("reach is the relation's domain", "semantics.py", (
        ("self._reach = self.relation.codomain_bits()",
         "self._reach = self.relation.domain_bits()"),
    )),
    Mutant("the irreversible mask counts states with one predecessor", "semantics.py", (
        ("irreversible |= seen & row", "irreversible |= row"),
    )),
    Mutant("a long mask is read highest state first", "space.py", (
        ("return int(bytes(flags).translate(_DIGITS)[::-1], 2)",
         "return int(bytes(flags).translate(_DIGITS), 2)"),
    )),
    # killed by the cross-check of domain_bits against its row definition and
    # by every must-div check, since must-div is the domain's complement
    Mutant("a relation's domain is the set of its empty rows", "relations.py", (
        ("map(bool, self.rows)", "map((0).__eq__, self.rows)"),
    )),
    # killed by the cross-check of values_of against the digit loop, the
    # columns test and the rendering tests
    Mutant("a state's values are read from the strides in reverse", "space.py", (
        ("return tuple(index // stride % m for stride in self.strides)",
         "return tuple(index // stride % m for stride in reversed(self.strides))"),
    ), "test_compiled.py"),
    # the subset-condition kernel and the class store
    Mutant("a backward logic's lower and upper bounds are swapped", "logics.py", (
        ("out.append(b & ~tc[pos] if lower else tc[pos] & ~b & full)",
         "out.append(tc[pos] & ~b & full if lower else b & ~tc[pos])"),
    ), "test_cli.py"),
    Mutant("a forward logic reads the postcondition's results", "logics.py", (
        ("out.append(c & ~tb[pos] if lower else tb[pos] & ~c & full)",
         "out.append(c & ~tc[pos] if lower else tc[pos] & ~c & full)"),
    ), "test_cli.py"),
    Mutant("the union and intersection logics are swapped", "logics.py", (
        ("awp | dwlp if logic is UNION_LOGIC else awp & dwlp",
         "awp & dwlp if logic is UNION_LOGIC else awp | dwlp"),
    ), "test_cli.py"),
    # the per-class kernel, its validity sets: killed by their cross-check
    # against the per-pair kernel, or by the survey's per-triple reference
    Mutant("a backward bound's subset and superset tables are swapped", "logics.py", (
        ("table = below if lower else above",
         "table = (above if backward else below) if lower else (below if backward else above)"),
    ), "test_logics.py"),
    Mutant("a forward set is shifted by b instead of b * P", "logics.py", (
        ("stride, step = 1, npred", "stride, step = 1, 1"),
    ), "test_logics.py"),
    Mutant("a backward set is not spread to stride P", "logics.py", (
        ("stride, step = npred, 1", "stride, step = 1, 1"),
    ), "test_logics.py"),
    Mutant("Fig. 4's contrapositive check skips the bit reversal", "theorems.py", (
        ("valid[a] ^ _reversed(valid[d], npred * npred)", "valid[a] ^ valid[d]"),
    ), "test_survey.py"),
    # the collapse assumptions and their scopes
    Mutant("reversibility is scoped to the precondition", "logics.py", (
        ('"reversibility": (False,', '"reversibility": (True,'),
    ), "test_logics.py"),
    Mutant("classify drops the postcondition scope", "logics.py", (
        ("(pre_bits if on_pre else post_bits)", "(pre_bits if on_pre else space.full_mask)"),
    ), "test_logics.py"),
    Mutant("the linear-pass table swaps the img and img-not flags", "semantics.py", (
        ("img = reduce(or_, compress(rows, in_q), 0)\n"
         "        img_not = reduce(or_, compress(rows, in_not_q), 0)",
         "img = reduce(or_, compress(rows, in_not_q), 0)\n"
         "        img_not = reduce(or_, compress(rows, in_q), 0)"),
    ), "test_transformers.py"),
    Mutant("the linear-pass table reads pre-not against q", "semantics.py", (
        ("map(and_, rows, repeat(not_q))", "map(and_, rows, repeat(q))"),
    ), "test_transformers.py"),
    # the three transformer facts the taxonomy's tables are derived from
    Mutant("a negation dual is paired wrongly", "transformers.py", (
        ("DUALS = ((AWP, DWLP), (DWP, AWLP),", "DUALS = ((AWP, AWLP), (DWP, DWLP),"),
    ), "test_logics.py"),
    Mutant("an ordering edge is reversed", "transformers.py", (
        ("ORDERING = ((DWP, AWP),", "ORDERING = ((AWP, DWP),"),
    ), "test_theorems.py"),
    Mutant("an adjunction's two sides are swapped", "transformers.py", (
        ('("partial-correctness", ASP, DWLP)', '("partial-correctness", DWLP, ASP)'),
    ), "test_logics.py"),
    # the rectangle plans of the equation catalog
    Mutant("the catalog takes images for preimages and back", "topkat.py", (
        ("m.append(tables[m[x]][ASP])\n        elif op == _PREIMAGE:\n"
         "            m.append(tables[m[x]][AWP])",
         "m.append(tables[m[x]][AWP])\n        elif op == _PREIMAGE:\n"
         "            m.append(tables[m[x]][ASP])"),
    ), "test_topkat.py"),
    Mutant("the catalog's preimage reads the awlp column", "topkat.py", (
        ("m.append(tables[m[x]][AWP])", "m.append(tables[m[x]][2])"),   # awlp
    ), "test_topkat.py"),
    Mutant("a rectangle with an empty side is not the empty relation", "topkat.py", (
        ("m.append(m[x] << n | m[y] if m[x] and m[y] else 0)", "m.append(m[x] << n | m[y])"),
    ), "test_topkat.py"),
    Mutant("the letter C reads the postcondition, not its negation", "topkat.py", (
        ('"B": _NB, "C": _NC}', '"B": _NB, "C": _C}'),
    ), "test_topkat.py"),
    # the counterexample search
    Mutant("a hit past the budget is found", "search.py", (
        ("if hit is not None and hit < left:", "if hit is not None:"),
    ), "test_search.py"),
    Mutant("a hit one past the budget is found", "search.py", (
        ("if hit is not None and hit < left:", "if hit is not None and hit <= left:"),
    ), "test_search.py"),
    Mutant("the per-class memo is keyed by the relation, without may-divergence", "search.py", (
        ("value = memo.get(prof)", "value = memo.get(prof.relation)"),
        ("value = memo[prof] = ", "value = memo[prof.relation] = "),
    ), "test_search.py"),
    Mutant("the blindspot memo is keyed on the earlier program's class only", "search.py", (
        ("cls = pairs.get((q_may, may))", "cls = pairs.get(q_may)"),
        ("cls = pairs[q_may, may] = ", "cls = pairs[q_may] = "),
    ), "test_search.py"),
    Mutant("the -contra legs are the representative logics themselves", "search.py", (
        ('(_leg(logic) + "-contra", CONTRAPOSITIVE[logic])', '(_leg(logic) + "-contra", logic)'),
    ), "test_search.py"),
    Mutant("the det-rev filter keeps its syntactic half per class", "search.py", (
        ("    for space, npred, programs, k, cls in _classes(config, stats, block):\n"
         "        # a program's syntax",
         "    first_syntax = {}\n"
         "    for space, npred, programs, k, cls in _classes(config, stats, block):\n"
         "        # a program's syntax"),
        ("syntactic_choice(programs.program(k)) is not None:",
         "first_syntax.setdefault(id(cls), syntactic_choice(programs.program(k)) is not None):"),
    ), "test_search.py"),
    # the rows and their classifier, and the survey's walk over each class's first program
    Mutant("the stream classifier's key drops the guard", "semantics.py", (
        ("(ctor, guard, profiles[i])", "(ctor, None, profiles[i])"),
    )),
    Mutant("the stream classifier skips the budget on a memo hit", "semantics.py", (
        ("            if nodes > cap:\n                _check_budget(nodes, n)\n", ""),
        ("            if cls is None:\n",
         "            if cls is None:\n                _check_budget(nodes, n)\n"),
    )),
    Mutant("the stream classifier counts a `;` entry as a node", "semantics.py", (
        ("step = 0 if ctor is Seq else 1", "step = 1"),
    )),
    Mutant("the `;` combine swaps its parts", "semantics.py", (
        ("return _then(a, b, nodes, space)", "return _then(b, a, nodes, space)"),
    )),
    Mutant("a later entry of a key gets the first entry's node count", "semantics.py", (
        ("cls = known[part] = _profile_of(meaning, space), meaning\n",
         "cls = known[part] = _profile_of(meaning, space), meaning, nodes\n"),
        ("            counts.append(nodes)\n", "            counts.append(cls[2])\n"),
    )),
    Mutant("a loop row reads every earlier entry, not the last frontier", "generators.py", (
        ("yield While, guard, None, frontier", "yield While, guard, None, every"),
    ), "test_search.py"),
    Mutant("a random corpus's rows are all its first program", "theorems.py", (
        ("rows = (p for p, _ in corpus_items(corpus))",
         "rows = (corpus_items(corpus)[0][0] for _ in corpus_items(corpus))"),
    ), "test_survey.py"),
    Mutant("the survey counts from one past a class's first program", "theorems.py", (
        ("programs, triples, classes = i + 1, i * len(pairs), k + 1",
         "programs, triples, classes = i + 2, (i + 1) * len(pairs), k + 1"),
    ), "test_survey.py"),
    # the `;` chain's spine
    Mutant("`Seq`'s hash walks only one link of the spine", "syntax.py", (
        ("while type(p) is Seq and p._h is None:", "if type(p) is Seq and p._h is None:"),
    ), "test_lang.py"),
    Mutant("`Seq`'s equality skips comparing `first`", "syntax.py", (
        ("            if a.first is not b.first and a.first != b.first:\n"
         "                return False\n", ""),
    ), "test_compiled.py"),
    Mutant("`statements` lists a left-nested chain's parts in the wrong order", "syntax.py", (
        ("        p = rest.pop()\n", "        p = rest.pop(0)\n"),
    ), "test_lang.py"),
    # the value types' shared base
    Mutant("equality ignores the class, so `Seq(a, b) == Choice(a, b)`", "values.py", (
        ("        if type(other) is type(self):\n", "        if isinstance(other, Value):\n"),
    ), "test_values.py"),
    Mutant("an AST node's hash leaves out its class", "syntax.py", (
        ("h = hash((type(self), self._values(self)))", "h = hash(self._values(self))"),
    ), "test_values.py"),
    Mutant("a frozen value allows assignment", "values.py", (
        ('raise AttributeError(f"cannot assign to field {name!r}")',
         "object.__setattr__(self, name, value)"),
    ), "test_values.py"),
    Mutant("pickling drops a value's last field", "values.py", (
        ("return type(self), self._values(self)", "return type(self), self._values(self)[:-1]"),
    ), "test_values.py"),
    # the inductive engine's rules
    Mutant("the backward rules join a demonic choice with |", "transformers.py", (
        ("return a | b if angelic else a & b", "return a | b"),
    ), "test_inductive_rules.py"),
    Mutant("the demonic forward `if` swaps the guard and its complement", "transformers.py", (
        ("then_forward(not_g | b, False) & else_forward(g | b, False)",
         "then_forward(g | b, False) & else_forward(not_g | b, False)"),
    ), "test_inductive_rules.py"),
    Mutant("a backward loop starts every kind from the full space", "transformers.py", (
        ("x = full if liberal else 0", "x = full"),
    ), "test_inductive_rules.py"),
    # the assignment step above the size switch: killed by the tests of both
    # sides of the switch, on seeded successor tables
    Mutant("the linear preimage reads the flags of ~c", "transformers.py", (
        ("_space.flag_bytes(c, n).__getitem__", "_space.flag_bytes(full ^ c, n).__getitem__"),
    ), "test_inductive_rules.py"),
    Mutant("the linear image marks the selected states, not their successors",
           "transformers.py", (
        ("compress(succ, _space.flag_bytes(b, n))", "compress(range(n), _space.flag_bytes(b, n))"),
    ), "test_inductive_rules.py"),
    Mutant("the linear dslp drops its complement", "transformers.py", (
        ("else full ^ image(full ^ b)", "else image(full ^ b)"),
    ), "test_inductive_rules.py"),
    # the compiled guards and the shared assignment table
    Mutant("a compiled `!` drops the complement", "syntax.py", (
        ("return _guard_mask(guard.inner, space) ^ space.full_mask",
         "return _guard_mask(guard.inner, space)"),
    ), "test_compiled.py"),
    Mutant("a compiled `<` is read as `<=`", "syntax.py", (
        ('"<": lt,', '"<": le,'),
    ), "test_compiled.py"),
    Mutant("the assignment table moves the digit the wrong way", "syntax.py", (
        ("return map(add, range(space.size), map(stride.__mul__, delta))",
         "return map(sub, range(space.size), map(stride.__mul__, delta))"),
    ), "test_compiled.py"),
    # the tokenizer's one-pass scan
    Mutant("the scan advances the column over a comment", "parser.py", (
        ("end = comment if comment >= line_start else len(text)", "end = len(text)"),
    ), "test_lang.py"),
    Mutant("a one-character symbol is tried before its two-character form", "parser.py", (
        ("'|'.join(map(re.escape, _SYMBOLS))", "'|'.join(map(re.escape, sorted(_SYMBOLS, key=len)))"),
    ), "test_lang.py"),
    Mutant("a name may start with `²`", "parser.py", (
        ('kind == "bad" or kind == "name" and not (word[0].isalpha() or word[0] == "_")',
         'kind == "bad"'),
    ), "test_lang.py"),
    # the exit-code map
    Mutant("a usage error exits 3", "errors.py", (
        ('prefix, exit_code = "error", 2', 'prefix, exit_code = "error", 3'),
    ), "test_cli.py"),
    # the command line's parsers: the first is killed by the command tests
    # and by the cross-check against the full parser, the second by the
    # parser count alone, the third by the rejected command lines
    Mutant("a command's own parser leaves out the command's last argument", "cli.py", (
        ("        add_arguments(parser)\n",
         "        add_arguments(parser)\n"
         "        parser._remove_action(parser._actions[-1])\n"),
    ), "test_cli.py"),
    Mutant("main builds every command's parser for every command line", "cli.py", (
        ("return build_parser(argv[0]).parse_args(argv[1:])",
         "return build_parser().parse_args(argv)"),
    ), "test_cli.py"),
    Mutant("a command's own parser reports unrecognized arguments under its own prog",
           "cli.py", (
        ('f"{PROG}: unrecognized arguments:', 'f"{self.prog}: unrecognized arguments:'),
    ), "test_cli.py"),
    # killed by the predicate-printing test and the transform tests' state counts
    Mutant("a printed predicate counts the states outside it", "cli.py", (
        ('f"{pred.count} of', 'f"{(~pred).count} of'),
    ), "test_cli.py"),
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
