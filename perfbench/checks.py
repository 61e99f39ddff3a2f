"""Independent checks of the answers the workloads get from ngclab.

Search witnesses and survey non-vacuity witnesses are re-validated with the
inductive engine, which the search and the survey never call.  The scale
workload's programs are small enough in structure that their final-state
sets are written down here directly, and every transformer and triple logic
is re-derived from those sets by its quantifier definition.
"""

from __future__ import annotations

import re

BACKWARD = ("awp", "dwp", "awlp", "dwlp")
FORWARD = ("asp", "dsp", "aslp", "dslp")


# --- re-validation through the inductive engine ------------------------------

class Inductive:
    """Transformer bits from ngclab's inductive engine, for one space."""

    def __init__(self, ng, space):
        self.ng = ng
        self.space = space
        self.full = (1 << space.size) - 1

    def parse(self, text: str):
        return self.ng.parser.parse_program(text, self.space)

    def bits(self, kind: str, program, q: int) -> int:
        tr = self.ng.transformers
        q = self.ng.space.Predicate(self.space, q)
        return tr.inductive_transform(tr.TransformerKind(kind), program, q).bits

    def logic_holds(self, logic: str, program, b: int, c: int) -> bool:
        """Subset condition of a logic named by its stable id (`awp-lb`, ...)."""
        if logic in ("union-lb", "intersection-lb"):
            awp = self.bits("awp", program, c)
            dwlp = self.bits("dwlp", program, c)
            target = awp | dwlp if logic == "union-lb" else awp & dwlp
            return b & ~target == 0
        kind, bound = logic.split("-")
        backward = kind in BACKWARD
        result = self.bits(kind, program, c if backward else b)
        bound_on = b if backward else c
        if bound == "lb":
            return bound_on & ~result == 0
        return result & ~bound_on & self.full == 0


def indices_bits(indices) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def revalidate_search(ng, claim: str, witness: dict) -> str | None:
    """None when the witness really refutes the claim, else the reason."""
    eng = Inductive(ng, ng.space.StateSpace(tuple(witness["variables"]), witness["modulus"]))
    b = indices_bits(witness["pre_indices"])
    c = indices_bits(witness["post_indices"])
    if claim in ("dwp-neq-intersection", "awlp-neq-union"):
        p = eng.parse(witness["program"])
        awp, dwlp = eng.bits("awp", p, c), eng.bits("dwlp", p, c)
        if claim == "dwp-neq-intersection":
            lhs, rhs = eng.bits("dwp", p, c), awp & dwlp
        else:
            lhs, rhs = eng.bits("awlp", p, c), awp | dwlp
        idx = witness["state_index"]
        return None if (lhs >> idx & 1) != (rhs >> idx & 1) else "sides agree at the witness state"
    if claim == "total-correctness-relational":
        pa, pb = eng.parse(witness["program_a"]), eng.parse(witness["program_b"])
        for s in range(eng.space.size):
            if eng.bits("asp", pa, 1 << s) != eng.bits("asp", pb, 1 << s):
                return "the two programs relate state %d differently" % s
        if eng.logic_holds("dwp-lb", pa, b, c) == eng.logic_holds("dwp-lb", pb, b, c):
            return "total-correctness verdicts agree"
        return None
    p = eng.parse(witness["program"])
    if claim == "outcome-vs-intersection":
        post = eng.bits("asp", p, b)
        system = post & c != 0 and post & ~c & eng.full == 0
        if system == eng.logic_holds("intersection-lb", p, b, c):
            return "equation system and intersection logic agree"
        return None
    left, right = witness["left"], witness["right"]
    if eng.logic_holds(left, p, b, c) == eng.logic_holds(right, p, b, c):
        return f"{left} and {right} agree on the witness"
    return None


_STATE = re.compile(r"<([^>]*)>")


def parse_state_set(text: str, space) -> int:
    """Bits of a predicate printed as `{<x=0, y=1>, ...}`."""
    bits = 0
    for body in _STATE.findall(text):
        values = tuple(int(part.split("=")[1]) for part in body.split(","))
        bits |= 1 << space.index_of(values)
    return bits


def _collapse_equal(theorem: str, eng: Inductive, p, b: int, c: int) -> bool:
    t = lambda kind, q: eng.bits(kind, p, q)  # noqa: E731
    full = eng.full
    if theorem == "TERMINATION_COLLAPSE":
        return (b & t("dwp", c) == b & t("dwlp", c)
                and b & t("awp", c) == b & t("awlp", c))
    if theorem == "REACHABILITY_COLLAPSE":
        return (c & t("asp", b) == c & t("aslp", b)
                and c & t("dsp", b) == c & t("dslp", b))
    if theorem == "DETERMINISM_COLLAPSE":
        return t("awp", c) == t("dwp", c) and t("awlp", c) == t("dwlp", c)
    if theorem == "REVERSIBILITY_COLLAPSE":
        return (c & t("asp", b) == c & t("dsp", b)
                and c & t("aslp", b) == c & t("dslp", b))
    if theorem == "BRANCHING_COLLAPSE":
        awp, dwlp = t("awp", c), t("dwlp", c)
        return (b & t("dwp", c) == b & awp & dwlp
                and b & t("awlp", c) == b & (awp | dwlp))
    if theorem == "MAY_TERMINATION":
        return (t("awp", full) == full) == (t("awlp", 0) == 0)
    raise KeyError(theorem)


def _collapse_assumed(theorem: str, ng, p, space, b: int, c: int) -> bool:
    logics = ng.logics
    pred = ng.space.Predicate
    flags = logics.classify(p, space, pred(space, b), pred(space, c))
    if theorem == "TERMINATION_COLLAPSE":
        return flags.termination.holds
    if theorem == "REACHABILITY_COLLAPSE":
        return flags.reachability.holds
    if theorem == "DETERMINISM_COLLAPSE":
        return flags.determinism.holds
    if theorem == "REVERSIBILITY_COLLAPSE":
        return flags.reversibility.holds
    if theorem == "BRANCHING_COLLAPSE":
        return flags.no_branching_divergence.holds
    if theorem == "MAY_TERMINATION":
        return logics.classify(p, space).no_branching_divergence.holds
    raise KeyError(theorem)


def revalidate_nonvacuity(ng, theorem: str, witness: dict, space) -> str | None:
    """The witness lies outside the assumption filter and breaks the equality."""
    eng = Inductive(ng, space)
    p = eng.parse(witness["program"])
    b = parse_state_set(witness["pre"], space)
    c = parse_state_set(witness["post"], space)
    if _collapse_assumed(theorem, ng, p, space, b, c):
        return "non-vacuity witness satisfies the assumption"
    if _collapse_equal(theorem, eng, p, b, c):
        return "non-vacuity witness does not break the equality"
    return None


# --- reference semantics for the scale workload ---------------------------------

class RefSpace:
    """States as value tuples, indexed first-variable-most-significant."""

    def __init__(self, variables: tuple[str, ...], modulus: int):
        self.variables = variables
        self.m = modulus
        self.n = modulus ** len(variables)
        self.states = [self.values(i) for i in range(self.n)]

    def values(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in self.variables:
            index, v = divmod(index, self.m)
            out.append(v)
        return tuple(reversed(out))

    def index(self, values) -> int:
        idx = 0
        for v in values:
            idx = idx * self.m + v % self.m
        return idx

    def where(self, test) -> frozenset:
        return frozenset(i for i, s in enumerate(self.states) if test(s))

    def render_state(self, index: int) -> str:
        pairs = ", ".join(f"{n}={v}" for n, v in zip(self.variables, self.states[index]))
        return f"<{pairs}>"

    def render(self, states) -> str:
        """The CLI's rendering of a predicate."""
        if not states:
            return "{} (no states)"
        body = ", ".join(self.render_state(i) for i in sorted(states))
        return f"{{{body}}} ({len(states)} of {self.n} states)"


class RefBehaviour:
    """Final-state sets and may-divergence of a program, state by state."""

    def __init__(self, space: RefSpace, finals: list, may_div: frozenset):
        self.space = space
        self.finals = finals
        self.may_div = may_div
        origins = [set() for _ in range(space.n)]
        for s, outs in enumerate(finals):
            for t in outs:
                origins[t].add(s)
        self.origins = origins

    def transform(self, kind: str, q: frozenset) -> frozenset:
        everything = range(self.space.n)
        if kind in BACKWARD:
            awp = frozenset(s for s in everything if self.finals[s] & q)
            dwlp = frozenset(s for s in everything if self.finals[s] <= q)
            return {"awp": awp, "dwlp": dwlp, "dwp": dwlp - self.may_div,
                    "awlp": awp | self.may_div}[kind]
        asp = frozenset(t for t in everything if self.origins[t] & q)
        dslp = frozenset(t for t in everything if self.origins[t] <= q)
        unreached = frozenset(t for t in everything if not self.origins[t])
        return {"asp": asp, "dslp": dslp, "dsp": dslp - unreached,
                "aslp": asp | unreached}[kind]

    def check(self, logic: str, pre: frozenset, post: frozenset) -> tuple[bool, int | None]:
        """Validity of a bound logic, and the CLI's witness (lowest violating state)."""
        kind, bound = logic.split("-")
        backward = kind in BACKWARD
        result = self.transform(kind, post if backward else pre)
        bound_on = pre if backward else post
        gap = bound_on - result if bound == "lb" else result - bound_on
        return not gap, min(gap) if gap else None


def countdown(space: RefSpace, target: int) -> RefBehaviour:
    """`while x != target { x := x - 1 }`: every state ends with x = target."""
    finals = [{space.index((target,) + s[1:])} for s in space.states]
    return RefBehaviour(space, finals, frozenset())


def choice_loop(space: RefSpace, target: int) -> RefBehaviour:
    """`while x != target { { x := x - 1 } [] { y := y + 1 } [] { diverge } }`:
    from x != target any y can be left behind at exit, and the diverge branch
    (or incrementing y forever) makes every such state may-diverge."""
    finals = []
    for i, s in enumerate(space.states):
        if s[0] == target:
            finals.append({i})
        else:
            finals.append({space.index((target, y) + s[2:]) for y in range(space.m)})
    may_div = space.where(lambda s: s[0] != target)
    return RefBehaviour(space, finals, may_div)


def straight_line(space: RefSpace, statements) -> RefBehaviour:
    """Statements are lists of alternative assignments (var index, function of
    the state); a list of one is a plain assignment, of two a choice."""
    finals = []
    for i in range(space.n):
        current = {i}
        for alternatives in statements:
            nxt = set()
            for s in current:
                values = space.states[s]
                for var, fn in alternatives:
                    changed = list(values)
                    changed[var] = fn(values) % space.m
                    nxt.add(space.index(changed))
            current = nxt
        finals.append(current)
    return RefBehaviour(space, finals, frozenset())
