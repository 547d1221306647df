"""Quasi-decision procedure for robust bounded first-order sentences over
the reals: rigorous interval arithmetic plus topological-degree tests."""

from .distance import INFINITE, distance_enclosure
from .formulas import Formula, free_vars, formula_text, same_structure
from .intervals import DomainError, RatInterval, ival
from .parser import ParseError, parse
from .solver import (TRI_F, TRI_T, TRI_TF, ClassBReport, Verdict, checksat, quasi_decide,
                     validate_class_b)
from .degree import DegreeResult, degree

__all__ = [
    "INFINITE", "distance_enclosure",
    "Formula", "free_vars", "formula_text", "same_structure",
    "DomainError", "RatInterval", "ival",
    "ParseError", "parse",
    "TRI_F", "TRI_T", "TRI_TF", "ClassBReport", "Verdict", "checksat", "quasi_decide",
    "validate_class_b",
    "DegreeResult", "degree",
]
