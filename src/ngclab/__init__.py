"""ngclab: a finite-state laboratory for guarded-command program logics.

Programs in a small nondeterministic language get one semantic profile, an
input-output relation and may-divergence composed from the sub-programs';
eight weakest-pre / strongest-post transformers are computed both from the
profile and by structural rules; eighteen triple logics, the equations of
Kleene algebra with top and tests that they correspond to, a theorem survey,
and a counterexample engine sit on top.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    InvariantError,
    NgclError,
    NgclSyntaxError,
    SettingError,
    SpaceCapError,
    UnknownVariableError,
    UsageError,
)
from .generators import GeneratorConfig, all_predicates, generate_programs
from .logics import (
    ALL_LOGICS,
    AssumptionSet,
    Bound,
    LogicId,
    Triple,
    classify,
    holds,
    logic_by_name,
)
from .parser import parse_guard, parse_module, parse_program
from .relations import Relation
from .search import SearchConfig, SearchResult, appendix_c_claims, find_counterexample
from .space import Predicate, State, StateSpace
from .syntax import guard_to_predicate, pretty_guard, pretty_program
from .theorems import THEOREM_IDS, CorpusConfig, Verdict, check_theorem, corpus_preset
from .topkat import EQUATIONS, check_equation
from .transformers import (
    TransformerKind,
    coreachability_class,
    inductive_transform,
    oracle_transform,
    reachability_class,
)
