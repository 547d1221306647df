"""Slotted record classes, without `dataclasses`.

A record's fields are named by its class attribute `_fields`, in the
order its constructor takes them; its `__slots__` hold the fields and
anything derived from them.  Two records are equal when they are of the
same class and their fields are equal, and the `repr` shows the fields
by name, on an explicit stack, so it does not recurse through nested
records.  `Frozen` records refuse assignment with `AttributeError`, as a
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
        # an explicit stack of text and records, so a term of any height
        # prints without recursion: a record whose class keeps this repr
        # is pushed as its pieces, any other value is its own repr
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            pieces = [f"{type(item).__name__}("]
            for i, name in enumerate(item._fields):
                value = getattr(item, name)
                pieces.append(f", {name}=" if i else f"{name}=")
                pieces.append(value if type(value).__repr__ is Record.__repr__ else repr(value))
            pieces.append(")")
            stack += reversed(pieces)
        return "".join(out)

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
