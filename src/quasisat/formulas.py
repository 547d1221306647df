"""First-order formulas over the reals with bounded quantifiers.

Atoms are normalized: ``t1 = t2`` is stored as ``Eq(t1 - t2)`` (meaning
term = 0) and ``t1 >= t2`` as ``Geq(t1 - t2)`` (term >= 0).  Quantifier
bodies are arbitrary formulas; the solvable fragment (existential blocks
whose body is a conjunction of atoms, with at least as many equations as
variables or none at all, composed under forall/and/or) is checked by
the solver's compile walk, which `solver.validate_class_b` runs on its
own.  A quantifier bound is an `Ival` built by `intervals.pair_ival`,
so equal rational bounds are equal triples and structural comparison is
plain equality; `aligned_terms` pairs the atom terms of two formulas in
one walk, on an explicit stack, that also compares their structure.
"""
from __future__ import annotations

from fractions import Fraction

from .evaluation import compile_term
from .intervals import Ival
from .record import Frozen, init_field
from . import terms as T


class Formula(Frozen):
    """An immutable formula node; `==` and `hash` are structural."""
    __slots__ = ()


class Atom(Formula):
    """Eq or Geq of a term."""
    __slots__ = _fields = ("term",)

    def __init__(self, term: T.Term) -> None:
        init_field(self, "term", term)


class Eq(Atom):
    """term = 0"""
    __slots__ = ()


class Geq(Atom):
    """term >= 0"""
    __slots__ = ()


class Exists(Formula):
    __slots__ = _fields = ("vars", "bounds", "body")

    def __init__(self, vars: tuple[str, ...], bounds: tuple[Ival, ...], body: Formula) -> None:
        if len(vars) != len(bounds):
            raise ValueError("variable count and bounds dimension differ")
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable in one exists block")
        init_field(self, "vars", vars)
        init_field(self, "bounds", bounds)
        init_field(self, "body", body)


class ForAll(Formula):
    __slots__ = _fields = ("var", "bound", "body")

    def __init__(self, var: str, bound: Ival, body: Formula) -> None:
        init_field(self, "var", var)
        init_field(self, "bound", bound)
        init_field(self, "body", body)


class _Connective(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        init_field(self, "left", left)
        init_field(self, "right", right)


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


def free_vars(f: Formula) -> frozenset[str]:
    """The variables of f's atoms that no quantifier above them binds,
    from an explicit stack of (formula, names bound above it); an atom's
    variables are the `reads` of its term's tape."""
    found: set[str] = set()
    stack = [(f, frozenset())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, Atom):
            found.update(compile_term(f.term, ()).reads - bound)
        elif isinstance(f, Exists):
            stack.append((f.body, bound.union(f.vars)))
        elif isinstance(f, ForAll):
            stack.append((f.body, bound | {f.var}))
        else:
            stack += ((f.right, bound), (f.left, bound))
    return frozenset(found)


# ---------------------------------------------------------------------------
# structural comparison (terms are ignored, everything else must match)


def aligned_terms(
    f: Formula, g: Formula
) -> list[tuple[T.Term, T.Term, tuple[str, ...], tuple[Ival, ...]]] | None:
    """Positionally paired atom terms of f and g, left to right, each with
    the quantified variables in scope and their box; None when the
    formulas differ in anything but their terms.  The walk keeps its own
    stack, so a long conjunction does not recurse once per `and`."""
    pairs: list = []
    stack = [(f, g, (), ())]
    while stack:
        a, b, names, bx = stack.pop()
        if type(a) is not type(b):
            return None
        if isinstance(a, Atom):
            pairs.append((a.term, b.term, names, bx))
        elif isinstance(a, Exists):
            if a.vars != b.vars or a.bounds != b.bounds:
                return None
            stack.append((a.body, b.body, names + a.vars, bx + a.bounds))
        elif isinstance(a, ForAll):
            if a.var != b.var or a.bound != b.bound:
                return None
            stack.append((a.body, b.body, names + (a.var,), bx + (a.bound,)))
        else:
            stack += ((a.right, b.right, names, bx), (a.left, b.left, names, bx))
    return pairs


def same_structure(f: Formula, g: Formula) -> bool:
    return aligned_terms(f, g) is not None


# ---------------------------------------------------------------------------
# printing


def formula_text(f: Formula, _parent: int = 0) -> str:
    """Render in the concrete grammar; a formula as `parse` builds it
    reparses to an equal AST.  A left-deep chain of one connective is one
    flat run, gathered in a loop, so it costs no recursion; a
    right-nested side keeps its parentheses."""
    if isinstance(f, Eq):
        return f"{T.term_text(f.term)} = 0"
    if isinstance(f, Geq):
        return f"{T.term_text(f.term)} >= 0"
    if isinstance(f, Exists):
        binders = ", ".join(f"{v} in {_bound(iv)}" for v, iv in zip(f.vars, f.bounds))
        s = f"exists {binders} . {formula_text(f.body)}"
        return f"({s})" if _parent else s
    if isinstance(f, ForAll):
        s = f"forall {f.var} in {_bound(f.bound)} . {formula_text(f.body)}"
        return f"({s})" if _parent else s
    cls = f.__class__
    level, word = (2, " and ") if cls is And else (1, " or ")
    sides = []  # right to left
    while f.__class__ is cls:
        sides.append(f.right)
        f = f.left
    sides.append(f)
    s = word.join(formula_text(side, level) for side in reversed(sides))
    return f"({s})" if _parent >= level else s


def _bound(iv: Ival) -> str:
    lo, hi, d = iv
    return f"[{Fraction(lo, d)},{Fraction(hi, d)}]"
