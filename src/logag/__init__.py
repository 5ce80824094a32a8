"""Graded non-monotonic reasoning by iterated telescoping.

Propositions can carry exact rational grades, nested to any finite depth;
classical consequence is extended level by level, extracting graded content
and resolving the conflicts this creates by comparing fused grades. A
rule-based argument-system frontend translates base facts, monotonic rules
and non-monotonic rules into a graded theory whose per-level consequence
sets track the system's argument structures.

The package exports the API that README documents. The engine layers and
their result types live in ``logag.terms``, ``logag.classical``,
``logag.grading`` and ``logag.arguments``.
"""

from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError, ParseError
from .terms import (
    TRUE,
    And,
    Atom,
    Grade,
    GradeEq,
    Individual,
    Less,
    Not,
    Or,
    Term,
    Theory,
    TrueTerm,
    parse_term,
    parse_theory,
    render,
)
from .grading import (
    Canon,
    GradeTable,
    RunContext,
    find_fixpoint,
    graded_consequence,
    graded_consequences,
    telescope_n,
)
from .arguments import (
    check_theorem1,
    check_theorem2,
    default_indexing,
    enumerate_arguments,
    enumerate_structures,
    parse_rules,
    translate,
    verify,
    wffs,
)

__version__ = "0.1.0"
