"""Slotted record classes, without `dataclasses`.

A record's fields are named by its class attribute `_fields`, in the
order its constructor takes them; its `__slots__` hold the fields and
anything derived from them.  Two records are equal when they are of the
same class and their fields are equal, and the `repr` shows the fields
by name.  `Frozen` records refuse assignment with `AttributeError`, as a
frozen dataclass does, and hash by their fields; a mutable `Record` is
not hashable.  Classes that are compared or hashed in bulk (the term
nodes) write their own `__eq__` and `__hash__`.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# sets a field of a Frozen record in its constructor
init_field = object.__setattr__
