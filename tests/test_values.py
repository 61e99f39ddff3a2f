"""The value types' contract: immutability, equality, hash, repr and pickling
from each class's field tuple, and the configs' defaults."""

import os
import pickle
import subprocess
import sys

import pytest

from ngclab.generators import GeneratorConfig
from ngclab.logics import AssumptionSet, Bound, Flag, LogicId, Triple
from ngclab.parser import Token
from ngclab.relations import Relation
from ngclab.search import SearchConfig, SearchResult
from ngclab.space import Predicate, State, StateSpace
from ngclab.syntax import (
    And, Assign, BinExpr, BoolLit, Choice, Cmp, Const, Diverge, Ite, Not, Or, Seq, Skip,
    Var, While,
)
from ngclab.theorems import CorpusConfig, Verdict
from ngclab.transformers import TransformerKind
from ngclab.values import Frozen

from kat_reference import Dot, NotT, One, Plus, Prim, Star, Top, Zero
from kat_reference import Test as KatTest   # not a test class


SPACE = StateSpace(("x", "y"), 2)
E = BinExpr("+", Var("x"), Const(1))
G, H = Cmp("<", Var("x"), Const(1)), BoolLit(True)
A, B = Assign("x", E), Skip()

# per class: a sample's field values, in the class's field order
AST = [
    (Const, ("value",), (1,)),
    (Var, ("name",), ("x",)),
    (BinExpr, ("op", "left", "right"), ("*", E, Var("y"))),
    (BoolLit, ("value",), (False,)),
    (Cmp, ("op", "left", "right"), ("=", Var("x"), E)),
    (And, ("left", "right"), (G, H)),
    (Or, ("left", "right"), (G, H)),
    (Not, ("inner",), (G,)),
    (Skip, (), ()),
    (Diverge, (), ()),
    (Assign, ("var", "expr"), ("y", E)),
    (Seq, ("first", "second"), (A, B)),
    (Choice, ("left", "right"), (A, B)),
    (Ite, ("guard", "then", "orelse"), (G, A, B)),
    (While, ("guard", "body"), (G, A)),
]
OTHERS = [
    (Zero, (), ()),
    (One, (), ()),
    (Top, (), ()),
    (KatTest, ("predicate",), (Predicate(SPACE, 5),)),
    (Prim, ("relation",), (Relation(2, (2, 3)),)),
    (Plus, ("left", "right"), (One(), Top())),
    (Dot, ("left", "right"), (One(), Top())),
    (Star, ("inner",), (Top(),)),
    (NotT, ("inner",), (One(),)),
    (StateSpace, ("variables", "modulus"), (("x", "y"), 3)),
    (State, ("space", "values"), (SPACE, (0, 1))),
    (Predicate, ("space", "bits"), (SPACE, 6)),
    (Relation, ("n", "rows"), (2, (1, 3))),
    (Token, ("kind", "text", "line", "column"), ("name", "x", 2, 7)),
    (LogicId, ("name", "kind", "bound"), ("awp-lb", TransformerKind.AWP, Bound.LB)),
    (Triple, ("pre", "program", "post"), (Predicate(SPACE, 1), A, Predicate(SPACE, 2))),
    (Flag, ("holds", "witness"), (False, SPACE.state(3))),
    (AssumptionSet, ("termination", "reachability", "determinism", "reversibility",
                     "no_branching_divergence"),
     (Flag(True), None, Flag(False, A), None, Flag(True))),
    (GeneratorConfig, ("variables", "modulus", "max_depth", "loops", "mode", "seed", "count"),
     (("x", "y"), 3, 2, True, "random", 5, 40)),
    (CorpusConfig, ("programs", "predicate_mode", "predicate_pairs", "predicate_seed"),
     (GeneratorConfig(), "sample", 2, 9)),
    (SearchConfig, ("spaces", "max_depth", "budget"), (((("x",), 2),), 2, 50)),
]
MUTABLE = [
    (Verdict, ("claim", "holds", "witness", "stats", "nonvacuity"),
     ("ORDERING", False, {"program": "skip"}, {"programs": 1}, None)),
    (SearchResult, ("claim", "outcome", "witness", "candidates", "stats"),
     ("galois-pc", "budget-exhausted", None, 7, {"classes": 2})),
]
FROZEN = AST + OTHERS
AST_CLASSES = {cls for cls, _, _ in AST}
CUSTOM_REPR = {State, Predicate, Relation, LogicId, Triple}
# derived slots, left out of equality, repr and pickling
DERIVED = {StateSpace: ("size", "full_mask", "_hash"), LogicId: ("shape",)}


KAT_TERMS = (Zero, One, Top, KatTest, Prim, Plus, Dot, Star, NotT)


def _ids(cases):
    return [cls.__name__ for cls, _, _ in cases]


def test_the_reference_kat_terms_are_frozen_values():
    assert all(issubclass(cls, Frozen) for cls in KAT_TERMS)
    assert set(KAT_TERMS) <= {cls for cls, _, _ in OTHERS}


@pytest.mark.parametrize("cls, names, values", FROZEN, ids=_ids(FROZEN))
def test_a_frozen_value_refuses_assignment_and_deletion(cls, names, values):
    value = cls(*values)
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values", FROZEN, ids=_ids(FROZEN))
def test_equality_and_hash_are_those_of_the_field_tuple(cls, names, values):
    value, twin = cls(*values), cls(**dict(zip(names, values)))
    assert value == twin and not value != twin and value is not twin
    expected = hash((cls, values)) if cls in AST_CLASSES else hash(values)
    assert hash(value) == hash(twin) == expected
    for i, field in enumerate(values):
        # a value with any one field replaced is unequal, where the class
        # accepts the replacement
        for other in _others(field):
            try:
                changed = cls(*values[:i], other, *values[i + 1:])
            except (TypeError, ValueError, AttributeError):
                continue
            assert changed != value and value != changed, (names[i], other)
            break


def _others(field):
    """Replacements for a field's value, each unequal to it."""
    others = [Skip(), None, One(), Flag(True)]
    if isinstance(field, bool):
        others[:0] = [not field]
    elif isinstance(field, int):
        others[:0] = [field + 1, field - 1]
    elif isinstance(field, str):
        others[:0] = [field + "z"]
    elif isinstance(field, tuple):
        others[:0] = [field[::-1], field[:-1]]
    return [other for other in others if other != field]


@pytest.mark.parametrize("left, right", [
    (Skip(), Diverge()), (Zero(), One()), (One(), Top()),
    (Seq(A, B), Choice(A, B)), (Choice(A, B), Seq(A, B)), (And(G, H), Or(G, H)),
    (Plus(One(), Top()), Dot(One(), Top())), (Star(Top()), NotT(Top())),
    (Not(G), NotT(G)), (Const(1), BoolLit(1)),
])
def test_values_of_different_classes_with_equal_fields_differ(left, right):
    assert left != right and right != left and not left == right
    assert len({left, right}) == 2


@pytest.mark.parametrize("cls, names, values", FROZEN + MUTABLE,
                         ids=_ids(FROZEN + MUTABLE))
def test_repr_is_the_generated_text_of_the_fields(cls, names, values):
    value = cls(*values)
    text = repr(value)
    for name in DERIVED.get(cls, ()):
        assert name not in text
    if cls not in CUSTOM_REPR:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(names, values))
        assert text == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, values", FROZEN + MUTABLE,
                         ids=_ids(FROZEN + MUTABLE))
def test_a_pickle_round_trip_gives_an_equal_value(cls, names, values):
    value = cls(*values)
    if cls not in {cls for cls, _, _ in MUTABLE}:
        hash(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is cls and copy == value and copy is not value
        assert tuple(getattr(copy, name) for name in names) == values
        if cls in AST_CLASSES:
            assert copy._h is None   # an AST node keeps no hash
        for name in DERIVED.get(cls, ()):
            assert getattr(copy, name) == getattr(value, name)


@pytest.mark.parametrize("cls", list(DERIVED), ids=lambda cls: cls.__name__)
def test_derived_slots_stay_out_of_equality(cls):
    _, _, values = next(case for case in OTHERS if case[0] is cls)
    value, twin = cls(*values), cls(*values)
    for name in DERIVED[cls]:
        if name != "_hash":
            object.__setattr__(twin, name, None)
    assert value == twin and hash(value) == hash(twin)


@pytest.mark.parametrize("cls, names, values", MUTABLE, ids=_ids(MUTABLE))
def test_a_result_is_mutable_unhashable_and_compared_by_fields(cls, names, values):
    value = cls(*values)
    assert value == cls(*values) and value != cls(*values[:-1], {"other": 1})
    with pytest.raises(TypeError):
        hash(value)
    value.stats = {"programs": 3}
    assert value.stats == {"programs": 3}
    # each result gets its own stats dict
    first, second = cls(*values[:2]), cls(*values[:2])
    assert first.stats == {} and first.stats is not second.stats
    first.stats["programs"] = 1
    assert second.stats == {}


def test_configs_keep_their_defaults_and_keyword_construction():
    assert GeneratorConfig() == GeneratorConfig(
        variables=("x",), modulus=2, max_depth=3, loops=False, mode="exhaustive", seed=0,
        count=1000)
    assert GeneratorConfig(("x",), 3, loops=True) == GeneratorConfig(modulus=3, loops=True)
    assert CorpusConfig() == CorpusConfig(programs=GeneratorConfig(), predicate_mode="all",
                                          predicate_pairs=3, predicate_seed=0)
    assert CorpusConfig(predicate_seed=4).programs == GeneratorConfig()
    assert SearchConfig() == SearchConfig(spaces=((("x",), 2), (("x",), 3)), max_depth=3,
                                          budget=10**5)
    assert SearchConfig(budget=7) == SearchConfig(SearchConfig().spaces, 3, 7)
    assert Verdict("c", True) == Verdict(claim="c", holds=True, witness=None, stats={},
                                         nonvacuity=None)
    assert SearchResult("c", "found") == SearchResult(claim="c", outcome="found",
                                                      witness=None, candidates=0, stats={})


def test_importing_the_command_line_imports_no_dataclasses():
    # a fresh interpreter without site, so only ngclab's own imports count
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, ngclab.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout == "False\n"
