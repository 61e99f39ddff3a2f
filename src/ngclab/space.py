"""Finite state spaces, states, and predicates (extensional state sets).

States map a fixed tuple of variables to values in Z_m.  The whole space is
enumerated once and for all in lexicographic order (first variable most
significant), and predicates are bitmasks over that enumeration.  A state is
thus a mixed-radix index: variable k is the digit of weight `stride_k`, and
each space keeps, per variable, that stride and the digit's value at every
index (its column), both built on first use, so per-state work is index
arithmetic over the columns rather than a `State` per index.  Spaces, states
and predicates are slotted frozen values (see values.py): immutable and
hashable, so they can be shared freely across tasks.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

from .errors import SettingError, SpaceCapError, UsageError, shorten_quoted, unknown_name
from .values import Frozen, setfield

HARD_STATE_CAP = 2**20


def state_cap() -> int:
    """The state-count cap: NGCL_STATE_CAP may lower it but never raise it
    past the hard maximum, and must be a positive integer when set."""
    raw = os.environ.get("NGCL_STATE_CAP")
    if raw is None:
        return HARD_STATE_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise SettingError(shorten_quoted(
            f"NGCL_STATE_CAP must be a positive integer, got {raw!r}"))
    return min(value, HARD_STATE_CAP)


# the set bits of every value below 512, lowest first: whole masks of up to
# nine states, and the bytes of longer ones (b + 2^j adds bit j to b's bits)
_BITS_OF = [()]
for _j in range(9):
    _BITS_OF += [bits + (_j,) for bits in _BITS_OF]
_BITS_OF = tuple(_BITS_OF)
# most set bits for which iter_bits steps from bit to bit: measured, stepping
# beats the byte walk up to about 10 set bits in a 216-bit mask, 20 in 512
# bits, 28 in 2^10 and 48-64 from 2^12 to 2^18 bits
_FEW = 24


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits, lowest first, in time linear in the mask's
    length: one table lookup for a mask of up to nine states; for a longer
    mask with few set bits, one step (a few O(length) int operations in C)
    per set bit; else byte by byte through the same table."""
    if bits < 512:
        return iter(_BITS_OF[bits])
    if bits.bit_count() <= _FEW:
        return _iter_sparse(bits)
    return _iter_bytes(bits)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_ONES = bytes.maketrans(b"01", b"\x00\x01")     # a mask's flag: 0 or 1
# longest mask that mask_of builds bit by bit: measured with timeit over 16
# random flag patterns per length, lists of bools and bytes alike (Python
# 3.11, shared 2-core VM), the bit loop is 0.1-0.2 us faster up to 5 states,
# the two are within 0.1 us of each other at 6-9, and reading the flags as
# binary digits is faster from 10 on, by 0.25-0.5 us at 16
_SHORT = 8


def mask_of(flags: Sequence[int]) -> int:
    """The mask whose bit i is flags[i], one 0/1 (or bool) per state, built in
    time linear in its length: a long one is read as binary digits, since
    setting its bits one by one would rebuild an ever longer int."""
    if len(flags) <= _SHORT:
        mask = 0
        for i, flag in enumerate(flags):
            if flag:
                mask |= 1 << i
        return mask
    return int(bytes(flags).translate(_DIGITS)[::-1], 2)


def flag_string(bits: int, n: int) -> str:
    """The mask as n characters "0"/"1", state 0 first."""
    return format(bits, "b").zfill(n)[::-1]


def flag_bytes(bits: int, n: int) -> bytes:
    """The mask as n bytes 0/1, state 0 first: mask_of's inverse."""
    return flag_string(bits, n).encode().translate(_ONES)


def low_bit(bits: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (bits & -bits).bit_length() - 1


def _iter_sparse(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _iter_bytes(bits: int) -> Iterator[int]:
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
        if byte:
            for j in _BITS_OF[byte]:
                yield base + j
        base += 8


class StateSpace(Frozen):
    """All states over `variables` with values in Z_modulus."""

    # size, full_mask and the hash are derived once, the strides and columns
    # on first use: none is part of equality, repr or pickling
    __slots__ = ("variables", "modulus", "size", "full_mask", "_hash", "_strides", "_columns")
    _fields = ("variables", "modulus")

    def __init__(self, variables: tuple[str, ...], modulus: int):
        if not variables:
            raise UsageError("state space needs at least one variable")
        if len(set(variables)) != len(variables):
            raise UsageError("state space variables must be distinct")
        if modulus < 1:
            raise UsageError("modulus must be >= 1")
        size = modulus ** len(variables)
        cap = state_cap()
        if size > cap:
            raise SpaceCapError(
                f"state space has {size} states, exceeding the cap of {cap}"
            )
        setfield(self, "variables", variables)
        setfield(self, "modulus", modulus)
        setfield(self, "size", size)
        setfield(self, "full_mask", (1 << size) - 1)
        setfield(self, "_hash", hash((variables, modulus)))
        setfield(self, "_strides", None)
        setfield(self, "_columns", None)

    def __hash__(self):
        # every cache keyed by (program, space) hashes the space
        return self._hash

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise unknown_name("variable", name) from None

    def index_of(self, values: tuple[int, ...]) -> int:
        m = self.modulus
        return sum(v % m * stride for v, stride in zip(values, self.strides))

    def values_of(self, index: int) -> tuple[int, ...]:
        m = self.modulus
        return tuple(index // stride % m for stride in self.strides)

    @property
    def strides(self) -> tuple[int, ...]:
        """Per variable, in order: the weight of its digit in a state index."""
        strides = self._strides
        if strides is None:
            m = self.modulus
            strides = tuple(m ** k for k in reversed(range(len(self.variables))))
            setfield(self, "_strides", strides)
        return strides

    @property
    def columns(self) -> tuple[tuple[int, list[int]], ...]:
        """Per variable, in order: its stride and its value at every index (a
        list over the enumeration; never mutate it)."""
        columns = self._columns
        if columns is None:
            m, n = self.modulus, self.size
            columns = tuple(
                (stride, [v for v in range(m) for _ in range(stride)] * (n // (m * stride)))
                for stride in self.strides)
            setfield(self, "_columns", columns)
        return columns

    def render_states(self, indices: Iterable[int]) -> list[str]:
        """`repr(self.state(i))` for each index, by index arithmetic: the
        value of variable k at index i is `i // stride_k % m`."""
        indices = list(indices)
        template = "<" + ", ".join(f"{name}={{}}" for name in self.variables) + ">"
        m = self.modulus
        values = [map(m.__rmod__, map(stride.__rfloordiv__, indices)) for stride in self.strides]
        return list(map(template.format, *values))

    def state(self, index: int) -> "State":
        if not 0 <= index < self.size:
            raise IndexError(f"state index {index} out of range")
        return State(self, self.values_of(index))

    def states(self) -> Iterator["State"]:
        for i in range(self.size):
            yield self.state(i)


class State(Frozen):
    """A total assignment of the space's variables."""

    __slots__ = ("space", "values")

    def __init__(self, space: StateSpace, values: tuple[int, ...]):
        if len(values) != len(space.variables):
            raise ValueError("state arity does not match its space")
        if any(not 0 <= v < space.modulus for v in values):
            raise ValueError("state value outside Z_m")
        setfield(self, "space", space)
        setfield(self, "values", values)

    @property
    def index(self) -> int:
        return self.space.index_of(self.values)

    def __getitem__(self, name: str) -> int:
        return self.values[self.space.var_index(name)]

    def set(self, name: str, value: int) -> "State":
        """The state differing from this one only at `name`."""
        i = self.space.var_index(name)
        vals = list(self.values)
        vals[i] = value % self.space.modulus
        return State(self.space, tuple(vals))

    def __repr__(self) -> str:
        return self.space.render_states([self.index])[0]


class Predicate(Frozen):
    """A subset of the state space, stored as a bitmask over state indices."""

    __slots__ = ("space", "bits")

    def __init__(self, space: StateSpace, bits: int):
        if not 0 <= bits <= space.full_mask:
            raise ValueError("predicate bits outside the state enumeration")
        _set_space(self, space)
        _set_bits(self, bits)

    @classmethod
    def empty(cls, space: StateSpace) -> "Predicate":
        return cls(space, 0)

    @classmethod
    def universe(cls, space: StateSpace) -> "Predicate":
        return cls(space, space.full_mask)

    @classmethod
    def from_indices(cls, space: StateSpace, indices) -> "Predicate":
        bits = 0
        for i in indices:
            bits |= 1 << i
        return cls(space, bits)

    def _check(self, other: "Predicate"):
        if other.space != self.space:
            raise ValueError("predicates live in different state spaces")

    def __and__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        return Predicate(self.space, self.bits & other.bits)

    def __or__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        return Predicate(self.space, self.bits | other.bits)

    def __sub__(self, other: "Predicate") -> "Predicate":
        self._check(other)
        return Predicate(self.space, self.bits & ~other.bits & self.space.full_mask)

    def __invert__(self) -> "Predicate":
        return Predicate(self.space, ~self.bits & self.space.full_mask)

    def __le__(self, other: "Predicate") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __contains__(self, item) -> bool:
        index = item.index if isinstance(item, State) else int(item)
        return bool(self.bits >> index & 1)

    def indices(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def states(self) -> Iterator[State]:
        for i in self.indices():
            yield self.space.state(i)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __repr__(self) -> str:
        if self.is_empty:
            return "{}"
        return "{" + ", ".join(self.space.render_states(self.indices())) + "}"


# both engines build a predicate per call: its slots are set through their
# descriptors, bound once here, which is cheaper than `setfield` by name
_set_space, _set_bits = Predicate.space.__set__, Predicate.bits.__set__
