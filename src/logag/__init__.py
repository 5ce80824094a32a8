"""Graded non-monotonic reasoning by iterated telescoping.

Propositions can carry exact rational grades, nested to any finite depth;
classical consequence is extended level by level, extracting graded content
and resolving the conflicts this creates by comparing fused grades. A
rule-based argument-system frontend translates base facts, monotonic rules
and non-monotonic rules into a graded theory whose per-level consequence
sets track the system's argument structures.
"""

from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError, NotEmbeddedError, ParseError, UngradedError
from .terms import (
    TRUE,
    And,
    Atom,
    Grade,
    GradeEq,
    GradeValue,
    Individual,
    Less,
    Not,
    Or,
    Term,
    Theory,
    TrueTerm,
    grade_text,
    parse_term,
    parse_theory,
    render,
    subterms,
    theory_to_text,
)
from .classical import (
    Kernel,
    Universe,
    atom_key,
    bottom_kernels,
    embedded_closure,
    entails,
    is_consistent,
    mutually_entailing,
    relevant_universe,
    satisfiable,
)
from .grading import (
    Canon,
    GradingChain,
    LevelRecord,
    RunContext,
    TelescopeTrace,
    depth1_expansion,
    embedding_degree,
    find_fixpoint,
    fused_grade,
    graded_consequence,
    graded_consequences,
    grading_chains,
    is_graded,
    supported,
    survives,
    telescope_n,
    telescope_once,
    trace_to_dict,
)
from .arguments import (
    Argument,
    ArgumentStructure,
    Indexing,
    Rule,
    RuleSet,
    Theorem1Report,
    Theorem2Report,
    Translation,
    chain_term,
    check_theorem1,
    check_theorem2,
    default_indexing,
    enumerate_arguments,
    enumerate_structures,
    is_complete,
    maximal_structures,
    negate_literal,
    parse_indexing,
    parse_rules,
    pi,
    rules_of_structure,
    structure_level,
    translate,
    translation_parts,
    validate_structure,
    verify,
    wffs,
)

__version__ = "0.1.0"
