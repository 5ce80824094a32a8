"""Graded filters by iterated telescoping.

One telescoping step takes a base of believed propositions and

1. expands it one grading level: every grading term the base entails
   releases the proposition directly inside it (``depth1_expansion``);
2. finds every minimal conflict in the expanded set and keeps only the
   members that survive each conflict they belong to, where survival is
   decided by comparing fused grades (``survives``);
3. keeps only the survivors that are still supported: consequences of the
   fixed top theory, or propositions reachable through a grading chain whose
   outermost grading proposition the supported set entails (``supported``).

``telescope_once`` takes the whole step and ``telescope_n`` iterates it.

Grades fuse along a chain with the ``otimes`` operator and across chains
with ``oplus``. At telescoping step i only chains of length at most i
participate in fusion: a proposition buried under k grading layers has been
extracted through at most i of them, so deeper chains have not yet weighed
in. This is what makes a proposition graded at several depths gain weight
level by level, and it is why consequence sets can oscillate with the level
instead of growing monotonically.

Finite bases stand in for filters throughout: the expansion step represents
the filter of the current base by every universe term it entails, so two
bases generating the same filter telescope identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .classical import (
    Kernel,
    Universe,
    bottom_kernels,
    entails,
    is_consistent,
    mutually_entailing,
    relevant_universe,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, NotEmbeddedError, UngradedError
from .terms import Grade, GradeValue, Not, Term, Theory, render

OTIMES = {
    "sum": lambda gs: sum(gs, Fraction(0)),
    "mean": lambda gs: sum(gs, Fraction(0)) / len(gs),
    "min": min,
    "max": max,
}
OPLUS = {"max": max, "min": min}


@dataclass(frozen=True)
class Canon:
    """Fusion configuration: chain operator, cross-chain operator, level."""

    otimes: str
    oplus: str
    level: int

    def __post_init__(self):
        if self.otimes not in OTIMES:
            raise ValueError(f"unknown otimes {self.otimes!r} (choose from {sorted(OTIMES)})")
        if self.oplus not in OPLUS:
            raise ValueError(f"unknown oplus {self.oplus!r} (choose from {sorted(OPLUS)})")
        if self.level < 0:
            raise ValueError("level must be >= 0")


@dataclass(frozen=True)
class GradingChain:
    """Witness of a nesting G(..G(G(target, g1), g2).., gk) present in a set."""

    target: Term
    grades: tuple[GradeValue, ...]  # innermost first


@dataclass(frozen=True)
class RunContext:
    """What every step of one telescoping run shares.

    The step index is not part of it: each step receives its own. The grade
    order is the numeric order on exact rationals, the single total order
    the grade sort carries here.
    """

    top: frozenset[Term]
    universe: Universe
    otimes: str
    oplus: str
    limits: Limits = DEFAULT_LIMITS


# ---------------------------------------------------------------------------
# Embedding degrees and grading chains


def embedding_degree(p: Term, q: Iterable[Term]) -> int:
    """Minimal number of grading layers between ``p`` and a member of ``q``."""
    degrees: dict[Term, int] = {t: 0 for t in q}
    changed = True
    while changed:
        changed = False
        for t, d in list(degrees.items()):
            if isinstance(t, Grade):
                nd = d + 1
                if degrees.get(t.inner, nd + 1) > nd:
                    degrees[t.inner] = nd
                    changed = True
    if p not in degrees:
        raise NotEmbeddedError(f"{render(p)} is not embedded in the set")
    return degrees[p]


def _chain_witnesses(q: frozenset[Term]) -> Mapping[Term, tuple[tuple[Term, GradingChain], ...]]:
    """For each proposition, the grading-term members of ``q`` that bury it.

    Walking the grading spine of a member G(G(f,2),3) yields a chain for
    each stripping depth: ``(3,)`` grading ``G(f,2)`` and ``(2, 3)`` grading
    ``f``. The witness (the member term itself) is kept alongside the chain
    because support needs to test entailment of the chain's outermost
    grading proposition.
    """
    table: dict[Term, list[tuple[Term, GradingChain]]] = {}
    for t in q:
        outer_to_inner: list[GradeValue] = []
        cursor = t
        while isinstance(cursor, Grade):
            outer_to_inner.append(cursor.grade)
            cursor = cursor.inner
            chain = GradingChain(cursor, tuple(reversed(outer_to_inner)))
            table.setdefault(cursor, []).append((t, chain))
    return {k: tuple(v) for k, v in table.items()}


def grading_chains(p: Term, q: Iterable[Term]) -> frozenset[GradingChain]:
    """Every grading chain of ``p`` witnessed by a member of ``q``."""
    q_fs = q if isinstance(q, frozenset) else frozenset(q)
    return frozenset(chain for _, chain in _chain_witnesses(q_fs).get(p, ()))


def is_graded(p: Term, q: Iterable[Term]) -> bool:
    """True iff some immediate grading of ``p`` is a member of ``q``."""
    q_fs = q if isinstance(q, frozenset) else frozenset(q)
    return any(isinstance(t, Grade) and t.inner == p for t in q_fs)


def fused_grade(p: Term, q: Iterable[Term], canon: Canon) -> GradeValue:
    """Combine the grades of every chain of ``p`` in ``q`` within the level.

    Chains longer than ``canon.level`` are not yet in play at that level and
    are ignored; raises :class:`UngradedError` when no chain qualifies.
    """
    chains = [c for c in grading_chains(p, q) if len(c.grades) <= canon.level]
    if not chains:
        raise UngradedError(f"{render(p)} has no grading chain within level {canon.level}")
    per_chain = sorted(OTIMES[canon.otimes](list(c.grades)) for c in chains)
    return OPLUS[canon.oplus](per_chain)


# ---------------------------------------------------------------------------
# One telescoping step


def depth1_expansion(base: Iterable[Term], ctx: RunContext) -> frozenset[Term]:
    """Filter representative of the base plus one level of extraction.

    The representative is every universe term the base entails; on top of
    that, each entailed grading term releases the proposition directly
    inside it. Deeper content stays buried until later steps make its
    grading term a member in its own right.
    """
    base_fs = base if isinstance(base, frozenset) else frozenset(base)
    filter_rep = {u for u in ctx.universe.terms if entails(base_fs, u, limits=ctx.limits)}
    released = {g.inner for g in filter_rep if isinstance(g, Grade)}
    return frozenset(filter_rep | released)


def survives(p: Term, x: Kernel, q: Iterable[Term], ctx: RunContext, step: int) -> bool:
    """Whether kernel member ``p`` withstands the conflict ``x`` at ``step``.

    A member survives if it is ungraded, or if the kernel pins the blame on
    another member: one whose negation the top theory already entails (that
    member is the designated culprit — it contradicts settled knowledge and
    is kicked out on its own account), or one outside the top theory's
    consequences that is ungraded or carries a strictly smaller fused grade.
    Members with equal fused grades cannot blame each other, so both fall.
    Grades fuse over the chains no longer than ``step``.
    """
    q_fs = q if isinstance(q, frozenset) else frozenset(q)
    if not is_graded(p, q_fs):
        return True
    canon = Canon(ctx.otimes, ctx.oplus, step)
    p_grade = fused_grade(p, q_fs, canon)
    for other in x.members:
        if other != p and entails(ctx.top, Not(other), limits=ctx.limits):
            return True
        if entails(ctx.top, other, limits=ctx.limits):
            continue
        if not is_graded(other, q_fs):
            return True
        if fused_grade(other, q_fs, canon) < p_grade:
            return True
    return False


def supported(q: Iterable[Term], ctx: RunContext) -> frozenset[Term]:
    """Least fixpoint of top-theory consequence plus chain-borne support.

    Starts from every universe term the top theory entails, then repeatedly
    admits members of ``q`` having some grading chain in ``q`` whose
    outermost grading proposition the supported set already entails. Members
    of ``q`` with neither route (for instance consequences that only ever
    followed from a now-evicted proposition) drop out here.
    """
    q_fs = q if isinstance(q, frozenset) else frozenset(q)
    result = {u for u in ctx.universe.terms if entails(ctx.top, u, limits=ctx.limits)}
    witnesses = _chain_witnesses(q_fs)
    pending = sorted((p for p in q_fs if p not in result), key=render)
    changed = True
    while changed and pending:
        changed = False
        snapshot = frozenset(result)
        still_pending = []
        for p in pending:
            tops = {w for w, _ in witnesses.get(p, ())}
            if any(w in snapshot or entails(snapshot, w, limits=ctx.limits) for w in tops):
                result.add(p)
                changed = True
            else:
                still_pending.append(p)
        pending = still_pending
    return frozenset(result)


@dataclass(frozen=True)
class LevelRecord:
    """Level ``index`` base plus the machinery of the step leaving it.

    ``expansion``, ``kernels``, ``survivors`` and ``supported`` describe the
    transition from this level's base to the next level's base — the kernels
    recorded here are the conflicts resolved while producing level
    ``index + 1``. ``supported`` is the next base. ``fixpoint_reached`` says
    the step changed nothing: the next base and this base generate the same
    filter.
    """

    index: int
    base: frozenset[Term]
    expansion: frozenset[Term]
    kernels: frozenset[Kernel]
    survivors: frozenset[Term]
    supported: frozenset[Term]
    fixpoint_reached: bool


def telescope_once(base: frozenset[Term], index: int, ctx: RunContext) -> LevelRecord:
    """The step leaving level ``index``: application ``index + 1`` of the map.

    Expands the base, finds its kernels, keeps the members that survive
    every kernel containing them, re-derives support, and tests whether the
    new base generates the same filter as the old one. Nothing here depends
    on how many levels the run goes on to, so traces are prefix-consistent.
    """
    step = index + 1
    expansion = depth1_expansion(base, ctx)
    kernels = bottom_kernels(expansion, ctx.universe, limits=ctx.limits)
    survivors = frozenset(
        p
        for p in expansion
        if all(survives(p, x, expansion, ctx, step) for x in kernels if p in x.members)
    )
    next_base = supported(survivors, ctx)
    fixpoint = mutually_entailing(next_base, base, limits=ctx.limits)
    return LevelRecord(index, base, expansion, kernels, survivors, next_base, fixpoint)


# ---------------------------------------------------------------------------
# Iterated telescoping


@dataclass(frozen=True)
class TelescopeTrace:
    theory_name: str
    canon: Canon
    levels: tuple[LevelRecord, ...]

    def final_base(self) -> frozenset[Term]:
        return self.levels[-1].base


def _run_levels(
    theory: Theory,
    canon: Canon,
    queries: Iterable[Term],
    limits: Limits,
    stop_at_fixpoint: bool,
) -> tuple[LevelRecord, ...]:
    if canon.level > limits.level_cap:
        raise CapacityError("telescoping level", limits.level_cap, canon.level)
    ctx = RunContext(
        frozenset(theory.terms), relevant_universe(theory, queries), canon.otimes, canon.oplus, limits
    )
    records: list[LevelRecord] = []
    base = ctx.top
    if not is_consistent(ctx.top, limits=limits):
        # An inconsistent top theory already has the improper filter: every
        # proposition is a consequence and conflict resolution cannot help.
        everything = frozenset(ctx.universe.terms)
        for index in range(canon.level + 1):
            records.append(
                LevelRecord(index, base, everything, frozenset(), everything, everything, True)
            )
            if stop_at_fixpoint:
                break
            base = everything
        return tuple(records)
    for index in range(canon.level + 1):
        record = telescope_once(base, index, ctx)
        records.append(record)
        if stop_at_fixpoint and record.fixpoint_reached:
            break
        base = record.supported
    return tuple(records)


def telescope_n(
    theory: Theory,
    canon: Canon,
    queries: Iterable[Term] = (),
    limits: Limits = DEFAULT_LIMITS,
) -> TelescopeTrace:
    """Trace of levels 0..canon.level; level 0 is the theory itself.

    ``queries`` widen the universe so that answers about them (and conflicts
    their subterms participate in) are visible to the finite representation.
    """
    records = _run_levels(theory, canon, queries, limits, stop_at_fixpoint=False)
    return TelescopeTrace(theory.name, canon, records)


def graded_consequence(
    theory: Theory,
    canon: Canon,
    query: Term,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """Membership of ``query`` in the level-``canon.level`` graded filter."""
    return graded_consequences(theory, canon, (query,), limits)[query]


def graded_consequences(
    theory: Theory,
    canon: Canon,
    queries: Iterable[Term],
    limits: Limits = DEFAULT_LIMITS,
) -> dict[Term, bool]:
    """Batch form of :func:`graded_consequence` sharing one trace."""
    query_list = list(queries)
    trace = telescope_n(theory, canon, query_list, limits)
    base = trace.final_base()
    return {q: entails(base, q, limits=limits) for q in query_list}


def find_fixpoint(
    theory: Theory,
    otimes: str,
    oplus: str,
    max_n: int,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[Optional[int], TelescopeTrace]:
    """Smallest level whose base the next telescoping step leaves unchanged.

    Compares consecutive bases up to level ``max_n``; returns ``(i, trace)``
    where level i+1's base mutually entails level i's, or ``(None, trace)``
    when no such pair exists among levels 0..max_n. Theories translated from
    rule systems can oscillate forever by construction, so absence of a
    fixpoint within the bound is a reported outcome, not an error.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    canon = Canon(otimes, oplus, max_n - 1)
    records = _run_levels(theory, canon, (), limits, stop_at_fixpoint=True)
    trace = TelescopeTrace(theory.name, canon, records)
    for record in records:
        if record.fixpoint_reached:
            return record.index, trace
    return None, trace


# ---------------------------------------------------------------------------
# Trace export


def _sorted_renders(ts: Iterable[Term]) -> list[str]:
    return sorted(render(t) for t in ts)


def trace_to_dict(trace: TelescopeTrace) -> dict:
    """JSON-ready document; term text is the term grammar, bit-exact."""
    return {
        "theory": trace.theory_name,
        "canon": {
            "otimes": trace.canon.otimes,
            "oplus": trace.canon.oplus,
            "level": trace.canon.level,
        },
        "levels": [
            {
                "index": record.index,
                "base": _sorted_renders(record.base),
                "expansion": _sorted_renders(record.expansion),
                "kernels": sorted(
                    [_sorted_renders(k.members) for k in record.kernels]
                ),
                "survivors": _sorted_renders(record.survivors),
                "supported": _sorted_renders(record.supported),
                "fixpoint": record.fixpoint_reached,
            }
            for record in trace.levels
        ],
    }
