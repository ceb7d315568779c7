"""Bases of the package's immutable record types.

Every record is a value: compared and hashed by its fields, with fields
that cannot be assigned.  No record type is made by a class decorator
that generates and compiles its methods on every import: a Frozen class
generates no code, and a NamedTuple compiles one small __new__.

The types the inner loops read are Frozen __slots__ classes, whose fields
read as fast as attributes can; each sets its slots in a hand-written
__init__ that also runs its checks.  The values a command builds and reads
a few times are typing.NamedTuples.  One whose fields are checked is a thin
subclass, Checked first among its bases, whose __new__ runs the checks.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Tuple


class Frozen:
    """A record on __slots__.  _fields names the constructor's arguments,
    in order: they are compared, hashed, shown by repr and given back to
    the constructor by copy and pickle.  __init__ sets each slot with
    object.__setattr__; any other assignment raises AttributeError."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    #: Reads the fields in one C call, set per class; not a method, so it
    #: is called as self._key(self).
    _key: Callable[[Any], Any]

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Checked:
    """The first base of a NamedTuple subclass whose __new__ checks its
    fields: _make, with which _replace builds a changed copy, calls the
    constructor, so the copy is checked too."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))
