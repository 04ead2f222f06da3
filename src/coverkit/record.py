"""Plain value classes with field-wise `repr` and `==`.

The package's record types derive from these instead of using
`dataclasses`, whose import pulls in `inspect` and whose decorators
compile code when a module loads: a cost every `cover-kit` command
would pay before its work.  Each subclass writes its own `__init__`.
"""

from __future__ import annotations


class Record:
    """A class whose `_fields` name its fields in constructor order.

    `repr` has the dataclass format, `Name(field=value, ...)`.  Two
    records are `==` when they are of one class and their `_key`s are
    equal.  Defining `__eq__` makes a record unhashable unless a
    subclass defines `__hash__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        """What `==` and the hash compare: every field, unless a subclass
        leaves some out."""
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


class FrozenRecord(Record):
    """A hashable record whose attributes cannot be assigned or deleted
    (AttributeError).  Its `__init__` sets them with `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
