"""First-order formulas over the reals with bounded quantifiers.

Atoms are normalized: ``t1 = t2`` is stored as ``Eq(t1 - t2)`` (meaning
term = 0) and ``t1 >= t2`` as ``Geq(t1 - t2)`` (term >= 0).  Quantifier
bodies are arbitrary formulas; the solvable fragment (existential blocks
whose body is a conjunction of atoms, with at least as many equations as
variables or none at all, composed under forall/and/or) is checked by
`validate_class_b`.  A quantifier bound is an `Ival` built by
`intervals.ival`, so equal rational bounds are equal triples and
structural comparison is plain equality.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

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
    if isinstance(f, Atom):
        return T.free_vars(f.term)
    if isinstance(f, Exists):
        return free_vars(f.body) - frozenset(f.vars)
    if isinstance(f, ForAll):
        return free_vars(f.body) - frozenset((f.var,))
    return free_vars(f.left) | free_vars(f.right)


# ---------------------------------------------------------------------------
# solvable-fragment validation


class ClassBReport(Frozen):
    __slots__ = _fields = ("in_class", "violations")

    def __init__(self, in_class: bool, violations: tuple[str, ...] = ()) -> None:
        init_field(self, "in_class", in_class)
        init_field(self, "violations", violations)


def _conjunct_atoms(f: Formula) -> list[Formula] | None:
    """Flatten an and-tree of atoms; None if anything else appears."""
    if isinstance(f, Atom):
        return [f]
    if isinstance(f, And):
        left = _conjunct_atoms(f.left)
        right = _conjunct_atoms(f.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def validate_class_b(f: Formula) -> ClassBReport:
    """Check membership in the solvable fragment: exists blocks are
    conjunctions of equations and inequalities with n >= m or n = 0,
    composed under forall, and, or."""
    violations: list[str] = []

    def walk(g: Formula, seen: frozenset[str]) -> None:
        if isinstance(g, Atom):
            return
        if isinstance(g, (And, Or)):
            walk(g.left, seen)
            walk(g.right, seen)
            return
        if isinstance(g, ForAll):
            if g.var in seen:
                violations.append(f"variable {g.var!r} shadows an outer binding")
            walk(g.body, seen | {g.var})
            return
        assert isinstance(g, Exists)
        clash = set(g.vars) & seen
        if clash:
            violations.append(
                f"variable {sorted(clash)[0]!r} shadows an outer binding")
        atoms = _conjunct_atoms(g.body)
        if atoms is None:
            violations.append(
                "exists body must be a conjunction of equations and "
                "inequalities")
            walk(g.body, seen | set(g.vars))
            return
        m = len(g.vars)
        n = sum(1 for a in atoms if isinstance(a, Eq))
        if n != 0 and n < m:
            violations.append(
                f"exists block has {n} equation(s) for {m} variable(s); "
                "need n >= m or n = 0")

    walk(f, frozenset())
    return ClassBReport(not violations, tuple(violations))


def block_parts(b: Exists) -> tuple[tuple[T.Term, ...], tuple[T.Term, ...]]:
    """Equation terms and inequality terms of a conjunctive exists block."""
    atoms = _conjunct_atoms(b.body)
    if atoms is None:
        raise ValueError("exists body is not a conjunction of atoms")
    eqs = tuple(a.term for a in atoms if isinstance(a, Eq))
    ineqs = tuple(a.term for a in atoms if isinstance(a, Geq))
    return eqs, ineqs


# ---------------------------------------------------------------------------
# structural comparison (terms are ignored, everything else must match)


def same_structure(f: Formula, g: Formula) -> bool:
    if type(f) is not type(g):
        return False
    if isinstance(f, Atom):
        return True
    if isinstance(f, Exists):
        return (f.vars == g.vars and f.bounds == g.bounds
                and same_structure(f.body, g.body))
    if isinstance(f, ForAll):
        return (f.var == g.var and f.bound == g.bound
                and same_structure(f.body, g.body))
    return same_structure(f.left, g.left) and same_structure(f.right, g.right)


def aligned_terms(
    f: Formula, g: Formula
) -> Iterator[tuple[T.Term, T.Term, tuple[str, ...], tuple[Ival, ...]]]:
    """Positionally paired atom terms of two same-structure formulas,
    each with the quantified variables in scope and their box."""

    def walk(a: Formula, b: Formula, names: tuple[str, ...], bx: tuple[Ival, ...]):
        if isinstance(a, Atom):
            yield a.term, b.term, names, bx
        elif isinstance(a, Exists):
            yield from walk(a.body, b.body, names + a.vars, bx + a.bounds)
        elif isinstance(a, ForAll):
            yield from walk(a.body, b.body, names + (a.var,), bx + (a.bound,))
        else:
            yield from walk(a.left, b.left, names, bx)
            yield from walk(a.right, b.right, names, bx)

    yield from walk(f, g, (), ())


# ---------------------------------------------------------------------------
# printing


def formula_text(f: Formula, _parent: int = 0) -> str:
    """Render in the concrete grammar; a formula as `parse` builds it
    reparses to an equal AST."""
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
    if isinstance(f, And):
        s = f"{formula_text(f.left, 2)} and {formula_text(f.right, 2)}"
        return f"({s})" if _parent >= 2 else s
    s = f"{formula_text(f.left, 1)} or {formula_text(f.right, 1)}"
    return f"({s})" if _parent else s


def _bound(iv: Ival) -> str:
    lo, hi, d = iv
    return f"[{Fraction(lo, d)},{Fraction(hi, d)}]"
