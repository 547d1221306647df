"""Slotted record classes, without `dataclasses`.

A record's fields are named by its class attribute `_fields`, in the
order its constructor takes them; its `__slots__` hold the fields and
anything derived from them.  Two records are equal when they are of the
same class and their fields are equal, and the `repr` shows the fields
by name.  `Frozen` records refuse assignment with `AttributeError`, as a
frozen dataclass does, and hash by their class and fields; a mutable
`Record` is not hashable.  `==`, `hash` and `repr` walk the records
nested in the fields on an explicit stack, so a term or formula of any
height costs no recursion, and this module holds the package's only
`__eq__` and `__hash__`.  A frozen record keeps its hash in `_hash`,
which stays unset until the first `hash`: as in Filliâtre and Conchon's
hash-consing (without its table of shared nodes), a record's hash is
computed once, from its class, its plain fields and the cached hashes
of its frozen fields.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a and b are records of one class; the stack holds the pairs of
        # record fields still to compare, and any other field is compared
        # with its own `!=` on the spot.  The fields are pushed last first,
        # so the record pairs come off left to right
        stack = []
        a, b = self, other
        while True:
            for name in reversed(a._fields):
                x, y = getattr(a, name), getattr(b, name)
                if x is not y:
                    if isinstance(x, Record):
                        if x.__class__ is not y.__class__:
                            return False
                        stack.append((x, y))
                    elif x != y:
                        return False
            if not stack:
                return True
            a, b = stack.pop()

    __hash__ = None

    def __repr__(self) -> str:
        # an explicit stack of text and records: a record whose class
        # keeps this repr is pushed as its pieces, any other value is its
        # own repr
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
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Frozen(Record):
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            order, stack = [], [self]  # the records without a hash, parents first
            while stack:
                node = stack.pop()
                order.append(node)
                for name in node._fields:
                    v = getattr(node, name)
                    if isinstance(v, Frozen) and getattr(v, "_hash", None) is None:
                        stack.append(v)
            for node in reversed(order):  # from the fields' cached hashes
                key = [node.__class__]
                for name in node._fields:
                    v = getattr(node, name)
                    key.append(v._hash if isinstance(v, Frozen) else v)
                init_field(node, "_hash", hash(tuple(key)))
            h = self._hash
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# sets a field of a Frozen record in its constructor
init_field = object.__setattr__


def field_setters(cls: type[Record]) -> list:
    """The `__set__` of the slot descriptor of each of cls's own
    fields, in `_fields` order: a constructor that calls them sets a
    Frozen record's fields without a lookup by name and without meeting
    `__setattr__`, as `init_field` does more slowly."""
    return [cls.__dict__[name].__set__ for name in cls._fields]
