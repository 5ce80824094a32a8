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

``telescope_once`` takes the whole step, where steps 2 and 3 read one
``GradeTable``: the expansion over the run's index of each proposition's
burying terms, their depths and chain grades (``RunContext.towers``), and
``run_levels`` iterates it over one run, from which ``telescope_n``,
``find_fixpoint``, ``graded_consequences`` and ``arguments.verify`` each
take the levels they need.

Grades fuse along a chain with the ``otimes`` operator and across chains
with ``oplus``. At telescoping step i only chains of length at most i
participate in fusion: a proposition buried under k grading layers has been
extracted through at most i of them, so deeper chains have not yet weighed
in. This is what makes a proposition graded at several depths gain weight
level by level, and it is why consequence sets can oscillate with the level
instead of growing monotonically. The cut binds only so far: no chain is
longer than the deepest grading spine d of the run's universe, so from step
d on a step's output depends only on the filter of its base. A fixpoint
reached there is settled: every later level repeats it, and
``graded_consequences`` stops at it.

Finite bases stand in for filters throughout: the expansion step represents
the filter of the current base by every universe term it entails, so two
bases generating the same filter telescope identically. The run keeps one
filter per base (``RunContext.filter``), asked for once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, islice
from operator import add

from .classical import (
    Session,
    Universe,
    bottom_kernels,
    entails,
    entails_each,
    is_consistent,
    mutually_entailing,
    relevant_universe,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, UngradedError
from .records import record
from .terms import Grade, GradeValue, Not, Term, Theory, render

# Each chain operator, folded down a chain outermost first; ``mean`` divides by the length.
OTIMES = {"sum": add, "mean": add, "min": min, "max": max}
OPLUS = {"max": max, "min": min}
Towers = dict[Term, list[tuple[int, Term, GradeValue]]]


@record
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


class RunContext:
    """What every step of one telescoping run shares.

    The step index is not part of it: each step receives its own. The grade
    order is the numeric order on exact rationals, the single total order
    the grade sort carries here. Each step fuses with ``canon``'s operators
    at its own level. ``session`` is the run's SAT session: its term table,
    its one solver, which holds every compiled clause and the base asked
    about last, kernel-search checks included, and its memo of every
    entailment answer the run has found. ``filters`` maps each base the run
    asks ``filter`` about to its filter, the universe terms it entails, and
    ``refutations`` each term ``refuted`` is asked about to its answer, and
    ``towers`` is the universe's ``tower_index``, built on first use. The
    session and both tables start empty with the run, and a context equals
    only itself.
    """

    def __init__(self, top: frozenset[Term], universe: Universe, canon: Canon, limits: Limits = DEFAULT_LIMITS):
        self.top, self.universe, self.canon, self.limits = top, universe, canon, limits
        self.session = Session()
        self.filters: dict[frozenset[Term], frozenset[Term]] = {}
        self.refutations: dict[Term, bool] = {}

    def filter(self, base: Iterable[Term]) -> frozenset[Term]:
        """The universe terms ``base`` entails, asked once per base per run."""
        base = base if isinstance(base, frozenset) else frozenset(base)
        rep = self.filters.get(base)
        if rep is None:
            terms = self.universe.terms
            rep = frozenset(compress(terms, entails_each(base, terms, limits=self.limits, session=self.session)))
            self.filters[base] = rep
        return rep

    def refuted(self, t: Term) -> bool:
        """Whether the top theory entails ``~t``, asked once per term per run."""
        answer = self.refutations.get(t)
        if answer is None:
            answer = self.refutations[t] = entails(self.top, Not(t), limits=self.limits, session=self.session)
        return answer

    @cached_property
    def towers(self) -> Towers:
        return tower_index(self.universe.terms, self.canon.otimes)


# ---------------------------------------------------------------------------
# Grades


def tower_index(terms: Iterable[Term], otimes: str) -> Towers:
    """Each proposition to one entry ``(d, t, v)`` per term ``t`` burying it.

    ``t`` reaches the proposition ``d`` layers down its grading spine, and
    ``v`` is the ``otimes`` of those ``d`` grades: one walk down ``t`` keeps a
    running sum (over ``d`` for ``mean``) or a running extreme.
    """
    combine, mean = OTIMES[otimes], otimes == "mean"
    start = Fraction(0) if combine is add else None
    index: Towers = {}
    for t in terms:
        cursor, depth, acc = t, 0, start
        while isinstance(cursor, Grade):
            depth += 1
            acc = cursor.grade if acc is None else combine(acc, cursor.grade)
            cursor = cursor.inner
            index.setdefault(cursor, []).append((depth, t, acc / depth if mean else acc))
    return index


def fused_grade(p: Term, q: Iterable[Term], canon: Canon) -> GradeValue:
    """Combine the grades of every chain of ``p`` in ``q`` within the level.

    A chain of ``p`` is the grades a member's grading spine carries on its
    way down to ``p``, as in G(..G(G(p, g1), g2).., gk). Chains longer than
    ``canon.level`` are not yet in play at that level and are ignored;
    raises :class:`UngradedError` when no chain qualifies.
    """
    return GradeTable(q, canon).fused(p)


class GradeTable:
    """One step's grades: the members ``q`` read through a tower index.

    ``graded`` holds the propositions with an immediate grader G(p, g) in
    ``q``; a proposition buried deeper is not graded yet. ``fused`` fuses
    the chains of ``p`` in ``q`` of at most ``level`` grades (``canon.level``
    by default) on first request and keeps the grade for the step.
    ``towers`` is the run's ``tower_index`` of a superset of ``q``; without
    it, the table indexes ``q`` under ``canon.otimes``.
    """

    def __init__(self, q: Iterable[Term], canon: Canon, level: int | None = None, towers: Towers | None = None):
        self.members = q if isinstance(q, frozenset) else frozenset(q)
        self.level = canon.level if level is None else level
        self.oplus = OPLUS[canon.oplus]
        self.towers = tower_index(self.members, canon.otimes) if towers is None else towers
        self.graded = {t.inner for t in self.members if isinstance(t, Grade)}
        self._fused: dict[Term, GradeValue] = {}

    def fused(self, p: Term) -> GradeValue:
        grade = self._fused.get(p)
        if grade is None:
            grades = [v for depth, t, v in self.towers.get(p, ()) if depth <= self.level and t in self.members]
            if not grades:
                raise UngradedError(f"{render(p)} has no grading chain within level {self.level}")
            grade = self._fused[p] = self.oplus(grades)
        return grade


# ---------------------------------------------------------------------------
# One telescoping step


def depth1_expansion(base: Iterable[Term], ctx: RunContext) -> frozenset[Term]:
    """Filter representative of the base plus one level of extraction.

    The representative is every universe term the base entails; on top of
    that, each entailed grading term releases the proposition directly
    inside it. Deeper content stays buried until later steps make its
    grading term a member in its own right.
    """
    filter_rep = ctx.filter(base)
    return filter_rep | {g.inner for g in filter_rep if isinstance(g, Grade)}


def survives(p: Term, x: frozenset[Term], table: GradeTable, ctx: RunContext) -> bool:
    """Whether kernel member ``p`` withstands the conflict ``x`` at the step.

    A member survives if it is ungraded, or if the kernel pins the blame on
    another member: one whose negation the top theory already entails (that
    member is the designated culprit — it contradicts settled knowledge and
    is kicked out on its own account), or one outside the top theory's
    consequences that is ungraded or carries a strictly smaller fused grade.
    Members with equal fused grades cannot blame each other, so both fall.
    Graded means having an immediate grader in the expansion, and grades
    fuse over the chains no longer than the step; ``table`` holds both.
    """
    if p not in table.graded:
        return True
    p_grade = table.fused(p)
    for other in x - {p}:
        if ctx.refuted(other):
            return True
        if other in ctx.filter(ctx.top):
            continue
        if other not in table.graded:
            return True
        if table.fused(other) < p_grade:
            return True
    return False


def supported(q: Iterable[Term], table: GradeTable, ctx: RunContext) -> frozenset[Term]:
    """Least fixpoint of top-theory consequence plus chain-borne support.

    Starts from every universe term the top theory entails, then repeatedly
    admits members of ``q`` buried by some member of ``q`` that the
    supported set already entails: the outermost grading proposition of a
    chain. The buriers are read from ``table``'s tower index, such as the
    run's, and only those in ``q`` count. Members of ``q`` with neither route (for
    instance consequences that only ever followed from a now-evicted
    proposition) drop out here.
    """
    q_fs = q if isinstance(q, frozenset) else frozenset(q)
    result = set(ctx.filter(ctx.top))
    buried = sorted((p for p in q_fs - result if p in table.towers), key=render)
    pending = [(p, [w for _, w, _ in table.towers[p] if w in q_fs]) for p in buried]
    changed = True
    while changed and pending:
        changed = False
        snapshot = frozenset(result)
        still_pending = []
        for p, witnesses in pending:
            if not snapshot.isdisjoint(witnesses) or any(
                entails(snapshot, w, limits=ctx.limits, session=ctx.session) for w in witnesses
            ):
                result.add(p)
                changed = True
            else:
                still_pending.append((p, witnesses))
        pending = still_pending
    return frozenset(result)


@record
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
    kernels: frozenset[frozenset[Term]]
    survivors: frozenset[Term]
    supported: frozenset[Term]
    fixpoint_reached: bool


def telescope_once(base: frozenset[Term], index: int, ctx: RunContext) -> LevelRecord:
    """The step leaving level ``index``: application ``index + 1`` of the map.

    Expands the base, finds its kernels, keeps the members that survive
    every kernel containing them, re-derives support, and tests whether the
    new base generates the same filter as the old one. Nothing here depends
    on how many levels the run goes on to, so traces are prefix-consistent.
    Every step hands its expansion to the kernel search, which alone decides
    whether it has conflicts.
    """
    expansion = depth1_expansion(base, ctx)
    kernels = bottom_kernels(expansion, limits=ctx.limits, session=ctx.session)
    table = GradeTable(expansion, ctx.canon, index + 1, ctx.towers)
    evicted: set[Term] = set()
    for x in kernels:
        evicted.update(p for p in x - evicted if not survives(p, x, table, ctx))
    survivors = expansion - evicted
    next_base = supported(survivors, table, ctx)
    fixpoint = next_base == base or mutually_entailing(next_base, base, limits=ctx.limits, session=ctx.session)
    return LevelRecord(index, base, expansion, kernels, survivors, next_base, fixpoint)


# ---------------------------------------------------------------------------
# Iterated telescoping


@record
class TelescopeTrace:
    """The levels of one run, and the run's context with its session."""

    theory_name: str
    levels: tuple[LevelRecord, ...]
    context: RunContext


def run_context(theory: Theory, canon: Canon, queries: Iterable[Term], limits: Limits) -> RunContext:
    """The context of one run to ``canon.level``, refused above ``limits.level_cap``."""
    if canon.level > limits.level_cap:
        raise CapacityError("telescoping level", limits.level_cap, canon.level)
    universe = relevant_universe(theory, queries)
    top = frozenset(universe.shared[t] for t in theory.terms)
    return RunContext(top, universe, canon, limits)


def run_levels(ctx: RunContext) -> Iterator[LevelRecord]:
    """Records 0, 1, 2, ... of the run, without end: each consumer stops."""
    base = ctx.top
    # An inconsistent top theory already has the improper filter: every
    # proposition is a consequence and conflict resolution cannot help.
    consistent = is_consistent(ctx.top, limits=ctx.limits, session=ctx.session)
    everything = frozenset() if consistent else frozenset(ctx.universe.terms)
    for index in count():
        if consistent:
            record = telescope_once(base, index, ctx)
        else:
            record = LevelRecord(index, base, everything, frozenset(), everything, everything, True)
        yield record
        base = record.supported


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
    ctx = run_context(theory, canon, queries, limits)
    levels = tuple(islice(run_levels(ctx), canon.level + 1))
    return TelescopeTrace(theory.name, levels, ctx)


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
    """Batch form of :func:`graded_consequence` sharing one run.

    Level L's base is step L-1's supported set: the run takes steps 0..L-1
    at most, and stops at the first settled one (see the module docstring).
    """
    query_list = list(queries)
    ctx = run_context(theory, canon, query_list, limits)
    depth = max((d for entries in ctx.towers.values() for d, _, _ in entries), default=0)
    base = ctx.top
    for record in islice(run_levels(ctx), canon.level):
        base = record.supported
        if record.fixpoint_reached and record.index + 1 >= depth:
            break
    answers = entails_each(base, query_list, limits=ctx.limits, session=ctx.session)
    return dict(zip(query_list, answers))


def find_fixpoint(
    theory: Theory,
    otimes: str,
    oplus: str,
    max_n: int,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[int | None, TelescopeTrace]:
    """Smallest level whose base the next telescoping step leaves unchanged.

    Compares consecutive bases up to level ``max_n``; returns ``(i, trace)``
    where level i+1's base mutually entails level i's, or ``(None, trace)``
    when no such pair exists among levels 0..max_n: a reported outcome, not
    an error. Translated theories are not known to oscillate: each of the
    101 that ``translate`` accepts from ``oracles.random_rule_system`` seeds
    0-109 reaches a fixpoint by level 3 under all eight canons (``max_n``
    40, ``atom_cap`` 256).
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ctx = run_context(theory, Canon(otimes, oplus, max_n - 1), (), limits)
    levels: list[LevelRecord] = []
    for record in islice(run_levels(ctx), max_n):
        levels.append(record)
        if record.fixpoint_reached:
            break
    trace = TelescopeTrace(theory.name, tuple(levels), ctx)
    return (record.index if record.fixpoint_reached else None), trace


# ---------------------------------------------------------------------------
# Trace export


def _sorted_renders(ts: Iterable[Term]) -> list[str]:
    return sorted(render(t) for t in ts)


def trace_to_dict(trace: TelescopeTrace) -> dict:
    """JSON-ready document; term text is the term grammar, bit-exact."""
    canon = trace.context.canon
    return {
        "theory": trace.theory_name,
        "canon": {"otimes": canon.otimes, "oplus": canon.oplus, "level": canon.level},
        "levels": [
            {
                "index": record.index,
                "base": _sorted_renders(record.base),
                "expansion": _sorted_renders(record.expansion),
                "kernels": sorted(_sorted_renders(k) for k in record.kernels),
                "survivors": _sorted_renders(record.survivors),
                "supported": _sorted_renders(record.supported),
                "fixpoint": record.fixpoint_reached,
            }
            for record in trace.levels
        ],
    }
