"""Plain value classes with field-wise `repr` and `==`.

The package's record types derive from these instead of using
`dataclasses`, whose import pulls in `inspect` and whose decorators
compile code when a module loads: a cost every `cover-kit` command
would pay before its work.  A subclass declares each field once, as an
annotation in its own body, with its default as the class-level value;
`Record.__init__` takes the fields in that order.
"""

from __future__ import annotations


class Record:
    """A class whose annotated fields are its constructor's arguments.

    `_fields` names them in declaration order and `_defaults` holds
    those given a class-level value, both read once per class.  The
    constructor sets the fields, then calls `__post_init__`.  `repr` has
    the dataclass format, `Name(field=value, ...)`.  Two records are `==`
    when they are of one class and their `_key`s are equal.  Defining
    `__eq__` makes a record unhashable unless a subclass defines
    `__hash__`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__qualname__}() got unexpected or repeated arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks and derived values, once every field is set."""

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
    (AttributeError); its constructor sets them with `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
