"""Slotted value classes: a class's declared fields give its equality,
`repr` and pickling, and, for a frozen one, its hash.

A value class lists its fields in `__slots__`, or in `_fields` when it keeps
derived attributes in slots beside them, and writes its own `__init__`.
Two values are equal when they are of the same class and their field tuples
are equal, `repr` is `Name(field=value, ...)`, and pickling rebuilds a value
through `__init__` from its field tuple, so derived attributes are computed
again, never carried.  `Frozen` adds the hash of the field tuple and refuses
assignment and deletion with `AttributeError`; its `__init__` sets each slot
with `setfield`, except `space.Predicate`'s and `parser.Token`'s, which
call the slot descriptors' `__set__` directly, as both engines build a
predicate per call and the tokenizer a token per word or symbol.
Nothing is generated when a class is defined, so defining one costs no more
than defining any other class.  Every value type of the package is one, and
so are the KAT terms of the test reference (`tests/kat_reference.py`).
"""

from operator import attrgetter

# sets a frozen value's slot, in its `__init__` or when a derived attribute
# is built on first use
setfield = object.__setattr__


def _getter(names: tuple):
    """A function from an instance to the tuple of its named attributes."""
    if len(names) > 1:
        return attrgetter(*names)   # a tuple already
    if names:
        get = attrgetter(*names)
        return lambda value: (get(value),)
    return lambda value: ()


class Value:
    """A slotted class compared, printed and pickled by its fields."""

    __slots__ = ()
    _fields = ()
    _values = staticmethod(_getter(()))   # per class: value -> its field tuple

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            cls._fields = tuple(vars(cls).get("__slots__", ()))
        cls._values = staticmethod(_getter(cls._fields))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Frozen(Value):
    """An immutable value: hashed by its field tuple, never assigned to."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
