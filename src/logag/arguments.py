"""Rule-based argument systems and their encoding as graded theories.

Rules come in three shapes — base facts, monotonic rules, and non-monotonic
rules — over literal well-formed formulas (an atom or its bare negation;
negation carries no logical force at this layer). Arguments are rooted,
rule-labelled trees; argument structures are sets of arguments containing
every base fact, closed under subtrees and monotonic rules, and never
supporting both a literal and its negation.

Rules files are read by :func:`logag.terms.rule_statements`, which holds
their grammar; :func:`parse_rules` builds the rules from its statements.

The translation into a graded theory keeps base facts and monotonic rules as
plain (certain) material implications, and buries the image of each
non-monotonic rule under towers of unit grades: every non-empty subset S of
the non-monotonic rules gets a distinct depth I(S); rules in S are chained at
that depth, rules outside S are chained there together with their negations.
Telescoping to depth I(S) then believes exactly the rules of S, so each
argument structure shows up as the consequence set of some level.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, product

from .classical import entails_each, is_consistent, relevant_universe
from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError, ParseError
from .grading import Canon, RunContext, run_context, run_levels
from .records import record
from .terms import (
    And,
    Atom,
    Grade,
    Not,
    Or,
    Term,
    Theory,
    TrueTerm,
    render,
    rule_statements,
)

FACT = "fact"
MONOTONIC = "monotonic"
NONMONOTONIC = "nonmonotonic"
_KIND_OF_ARROW = {None: FACT, "->": MONOTONIC, "=>": NONMONOTONIC}


def is_literal(t: Term) -> bool:
    return isinstance(t, (Atom, TrueTerm)) or (
        isinstance(t, Not) and isinstance(t.inner, (Atom, TrueTerm))
    )


def negate_literal(t: Term) -> Term:
    """Literal negation with double-negation collapse (for pairing checks)."""
    if isinstance(t, Not):
        return t.inner
    return Not(t)


@record
class Rule:
    label: str
    kind: str
    premises: tuple[Term, ...]
    conclusion: Term

    def __post_init__(self):
        if self.kind not in (FACT, MONOTONIC, NONMONOTONIC):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == FACT and self.premises:
            raise ValueError("a base fact has no premises")
        if self.kind != FACT and not self.premises:
            raise ValueError(f"rule {self.label} needs at least one premise")
        for w in (*self.premises, self.conclusion):
            if not is_literal(w):
                raise ValueError(f"rule {self.label}: {render(w)} is not a literal")


@record
class RuleSet:
    name: str
    rules: tuple[Rule, ...]

    def __post_init__(self):
        labels = [r.label for r in self.rules]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate rule label")

    def facts(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == FACT)

    def monotonic(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == MONOTONIC)

    def nonmonotonic(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == NONMONOTONIC)


def parse_rules(text: str, name: str = "rules") -> RuleSet:
    rules = tuple(
        Rule(label, _KIND_OF_ARROW[arrow], premises, conclusion)
        for label, arrow, premises, conclusion in rule_statements(text)
    )
    return RuleSet(name, rules)


# ---------------------------------------------------------------------------
# Arguments


@record
class Argument:
    """Rooted tree: children's roots are the premises of the labelled rule.

    Base-fact leaves carry no rule label.
    """

    root: Term
    children: tuple["Argument", ...] = ()
    rule_label: str | None = None

    def nodes(self) -> frozenset[Term]:
        out = {self.root}
        for c in self.children:
            out |= c.nodes()
        return frozenset(out)

    def subtrees(self) -> frozenset["Argument"]:
        out = {self}
        for c in self.children:
            out |= c.subtrees()
        return frozenset(out)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


def _argument_key(a: Argument):
    return (a.size(), render(a.root), a.rule_label or "", tuple(_argument_key(c) for c in a.children))


def _apply_rule(rule: Rule, by_root: dict[Term, list[Argument]]) -> Iterable[Argument]:
    pools = []
    for premise in rule.premises:
        pool = by_root.get(premise)
        if not pool:
            return
        pools.append(pool)
    for combo in product(*pools):
        if any(rule.conclusion in child.nodes() for child in combo):
            continue
        yield Argument(rule.conclusion, tuple(combo), rule.label)


def enumerate_arguments(rules: RuleSet, limits: Limits = DEFAULT_LIMITS) -> tuple[Argument, ...]:
    """All arguments constructible from the rules, modulo structural identity, smallest first."""
    non_facts = [r for r in rules.rules if r.kind != FACT]
    known = {Argument(r.conclusion) for r in rules.facts()}
    rounds = 0
    while True:
        rounds += 1
        by_root: dict[Term, list[Argument]] = {}
        for a in known:
            by_root.setdefault(a.root, []).append(a)
        fresh = {c for rule in non_facts for c in _apply_rule(rule, by_root) if c not in known}
        if not fresh:
            return tuple(sorted(known, key=_argument_key))
        if rounds > limits.depth_cap:
            raise CapacityError("argument tree depth", limits.depth_cap, rounds)
        if len(known) + len(fresh) > limits.subset_cap:
            raise CapacityError("argument count", limits.subset_cap, len(known) + len(fresh))
        known |= fresh


@record
class ArgumentStructure:
    arguments: frozenset[Argument]

    def sorted_arguments(self) -> tuple[Argument, ...]:
        return tuple(sorted(self.arguments, key=_argument_key))


def wffs(t: ArgumentStructure) -> frozenset[Term]:
    """The supported formulas: all roots of arguments in the structure."""
    return frozenset(a.root for a in t.arguments)


def _roots_consistent(args: Iterable[Argument]) -> bool:
    roots = {a.root for a in args}
    return not any(negate_literal(w) in roots for w in roots)


def enumerate_structures(
    rules: RuleSet,
    limits: Limits = DEFAULT_LIMITS,
    arguments: tuple[Argument, ...] | None = None,
) -> tuple[ArgumentStructure, ...]:
    """Every argument structure over the rules, smallest first.

    A structure is determined by which non-monotonically-rooted arguments it
    adopts: base facts are mandatory, monotonic closure is forced, and the
    consistency condition filters the rest. Subsets whose closure turns
    inconsistent yield no structure. The closure is taken inside the
    enumerated arguments: the subtrees of the adopted ones and the base
    facts, plus every monotonic-rule argument whose children are all in the
    structure, so a caller-supplied ``arguments`` must be the full
    enumeration, in :func:`enumerate_arguments`' order (smallest first, which
    puts children before parents and makes one pass reach the fixpoint).
    They are enumerated here otherwise.
    """
    all_args = enumerate_arguments(rules, limits) if arguments is None else arguments
    kind = {r.label: r.kind for r in rules.rules}
    nm_rooted = [a for a in all_args if kind.get(a.rule_label) == NONMONOTONIC]
    mono_rooted = [a for a in all_args if kind.get(a.rule_label) == MONOTONIC]
    facts = {a for a in all_args if a.rule_label is None}
    if 2 ** len(nm_rooted) > limits.subset_cap:
        raise CapacityError("structure seeds", limits.subset_cap, 2 ** len(nm_rooted))
    found: set[frozenset[Argument]] = set()
    for size in range(len(nm_rooted) + 1):
        for chosen in combinations(nm_rooted, size):
            closed = facts.union(*(a.subtrees() for a in chosen))
            for a in mono_rooted:
                if closed.issuperset(a.children):
                    closed.add(a)
            if _roots_consistent(closed):
                found.add(frozenset(closed))
    structures = [ArgumentStructure(args) for args in found]
    structures.sort(key=lambda s: (len(s.arguments), tuple(map(_argument_key, s.sorted_arguments()))))
    return tuple(structures)


def maximal_structures(structures: Iterable[ArgumentStructure]) -> frozenset[ArgumentStructure]:
    pool = list(structures)
    return frozenset(
        s
        for s in pool
        if not any(s is not other and s.arguments < other.arguments for other in pool)
    )


def rules_of_structure(t: ArgumentStructure, rules: RuleSet) -> tuple[Rule, ...]:
    """Base facts plus every rule appearing as an arc label in the structure."""
    labels = {a.rule_label for a in t.arguments if a.rule_label is not None}
    picked = [r for r in rules.rules if r.kind == FACT or r.label in labels]
    return tuple(picked)


# ---------------------------------------------------------------------------
# Translation


def pi(rule: Rule) -> Term:
    """Propositional image: facts map to themselves, rules to implications."""
    if rule.kind == FACT:
        return rule.conclusion
    body = reduce(And, rule.premises)
    return Or(Not(body), rule.conclusion)


@record
class Indexing:
    """Bijection from non-empty subsets of the non-monotonic labels to 1..2^k-1."""

    table: tuple[tuple[frozenset[str], int], ...]

    def index_of(self, subset: frozenset[str]) -> int:
        for labels, idx in self.table:
            if labels == subset:
                return idx
        raise KeyError(f"subset not indexed: {sorted(subset)}")


def _check_indexing(table: list[tuple[frozenset[str], int]], nm_labels: frozenset[str]) -> None:
    expected = 2 ** len(nm_labels) - 1
    subsets = [labels for labels, _ in table]
    indices = sorted(idx for _, idx in table)
    if len(subsets) != len(set(subsets)) or len(subsets) != expected:
        raise EngineError("indexing must cover every non-empty subset exactly once")
    if indices != list(range(1, expected + 1)):
        raise EngineError("indexing must be a bijection onto 1..2^k-1")
    for labels in subsets:
        if not labels or not labels <= nm_labels:
            raise EngineError(f"indexed subset {sorted(labels)} is not a non-empty subset of the non-monotonic rules")


def default_indexing(rules: RuleSet, limits: Limits = DEFAULT_LIMITS) -> Indexing:
    """Subsets ordered by size then lexicographically, numbered from 1."""
    labels = sorted(r.label for r in rules.nonmonotonic())
    if 2 ** len(labels) > limits.subset_cap:
        raise CapacityError("indexing subsets", limits.subset_cap, 2 ** len(labels))
    table = []
    idx = 1
    for size in range(1, len(labels) + 1):
        for combo in combinations(labels, size):
            table.append((frozenset(combo), idx))
            idx += 1
    return Indexing(tuple(table))


def parse_indexing(text: str, rules: RuleSet) -> Indexing:
    """Read an override file: one ``INDEX: label, label, ...`` line per subset.

    Lines break at ``\\n`` only. A line that is not an ``INDEX:`` line, a label
    that is no non-monotonic rule and a repeated subset raise at their place.
    """
    nm_labels = frozenset(r.label for r in rules.nonmonotonic())
    table = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        column = len(line) - len(line.lstrip()) + 1
        if not line.strip():
            continue
        if not line.lstrip().startswith("INDEX:"):
            raise ParseError("expected 'INDEX:' line", lineno, column)
        labels = set()
        start = column + len("INDEX:")  # the column the labels start from
        for m in re.finditer(r"[^,\s][^,]*", line[start - 1:]):
            label = m.group().rstrip()
            if label not in nm_labels:
                raise ParseError(f"{label!r} is not a non-monotonic rule", lineno, start + m.start())
            labels.add(label)
        if labels in (listed for listed, _ in table):
            raise ParseError(f"indexed subset {sorted(labels)} is listed twice", lineno, column)
        table.append((frozenset(labels), len(table) + 1))
    _check_indexing(table, nm_labels)
    return Indexing(tuple(table))


def translate(
    rules: RuleSet,
    idx: Indexing | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> Theory:
    """Graded theory whose level-indexed consequences track the structures.

    Each non-monotonic rule's image gets one tower of unit grades, kept at
    every depth, and its twin (the image's negation) one kept at the depths
    of the subsets that leave the rule out. Each layer wraps the one below,
    and equal subterms are one object.
    """
    if idx is None:
        idx = default_indexing(rules, limits)
    nm_labels = frozenset(r.label for r in rules.nonmonotonic())
    _check_indexing(list(idx.table), nm_labels)
    monotonic_part = frozenset(pi(r) for r in rules.rules if r.kind in (FACT, MONOTONIC))
    if not is_consistent(monotonic_part, limits=limits):
        raise EngineError("the base facts and monotonic rules are classically inconsistent")
    twins = [Not(pi(r)) for r in rules.nonmonotonic()]
    shared = relevant_universe([*monotonic_part, *twins]).shared
    terms = {shared[t] for t in monotonic_part}
    for r, twin in zip(rules.nonmonotonic(), twins):
        image, twin = shared[twin].inner, shared[twin]
        for subset, _ in sorted(idx.table, key=lambda entry: entry[1]):
            image, twin = Grade(image, Fraction(1)), Grade(twin, Fraction(1))
            terms.add(image)
            if r.label not in subset:
                terms.add(twin)
    return Theory(
        name=f"{rules.name}_graded",
        domains=(),
        terms=frozenset(terms),
    )


# ---------------------------------------------------------------------------
# Correspondence harnesses


def structure_level(t: ArgumentStructure, rules: RuleSet, idx: Indexing) -> int:
    """The telescoping depth at which the structure's rules are believed."""
    nm_labels = frozenset(r.label for r in rules.nonmonotonic())
    used = frozenset(
        a.rule_label for a in t.arguments if a.rule_label is not None and a.rule_label in nm_labels
    )
    return idx.index_of(used) if used else 0


@record
class Theorem1Report:
    level: int
    results: tuple[tuple[Term, bool], ...]
    passed: bool


def check_theorem1(t: ArgumentStructure, level: int, base: frozenset[Term], ctx: RunContext) -> Theorem1Report:
    """Every supported formula of the structure holds at its level.

    ``base`` is the structure's level ``level`` in a run of the translated
    theory, and ``ctx`` that run's context.
    """
    targets = sorted(wffs(t), key=render)
    answers = entails_each(base, targets, limits=ctx.limits, session=ctx.session)
    results = tuple(zip(targets, answers))
    return Theorem1Report(level, results, all(ok for _, ok in results))


@record
class Theorem2Report:
    level: int
    failures: tuple[tuple[Term, frozenset[Term]], ...]
    passed: bool


def _maximal_consistent_extensions(
    core: frozenset[Term], rules: RuleSet, ctx: RunContext
) -> tuple[tuple[Rule, ...], ...]:
    limits = ctx.limits
    mono = rules.monotonic()
    if 2 ** len(mono) > limits.subset_cap:
        raise CapacityError("monotonic rule subsets", limits.subset_cap, 2 ** len(mono))
    consistent_sets = []
    for size in range(len(mono) + 1):
        for combo in combinations(mono, size):
            if is_consistent(core | {pi(r) for r in combo}, limits=limits, session=ctx.session):
                consistent_sets.append(frozenset(combo))
    maximal = [
        s for s in consistent_sets if not any(s < other for other in consistent_sets)
    ]
    return tuple(tuple(sorted(s, key=lambda r: r.label)) for s in sorted(maximal, key=lambda s: sorted(r.label for r in s)))


def check_theorem2(
    rules: RuleSet, t: ArgumentStructure, level: int, base: frozenset[Term], ctx: RunContext
) -> Theorem2Report:
    """Every graded consequence at the structure's level is classically forced.

    ``base`` is the structure's level ``level`` in a run of the translated
    theory and ``ctx`` that run's context, whose universe is the theory's.
    Each non-grading universe term the graded filter contains must follow
    classically from the structure's own rules together with a maximal set
    of monotonic rules consistent with them; the filter is read from the
    run's table, ``ctx.filter(base)``, which a step from that level already
    filled unless the level is the run's last. All maximal sets are checked,
    and ``ctx.session`` answers the consistency checks that find them.
    :class:`CapacityError` is raised when the monotonic rules have more
    subsets than ``ctx.limits.subset_cap``. Grading terms are skipped: they
    are never rule images.
    """
    limits, session = ctx.limits, ctx.session
    in_filter = ctx.filter(base)
    consequences = [u for u in ctx.universe.terms if u in in_filter and not isinstance(u, Grade)]
    structure_base = frozenset(pi(r) for r in rules_of_structure(t, rules))
    failures = []
    for extension in _maximal_consistent_extensions(structure_base, rules, ctx):
        forcing = structure_base | {pi(r) for r in extension}
        answers = entails_each(forcing, consequences, limits=limits, session=session)
        failures.extend((u, forcing) for u, yes in zip(consequences, answers) if not yes)
    return Theorem2Report(level, tuple(failures), not failures)


def verify(
    rules: RuleSet,
    idx: Indexing,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[tuple[ArgumentStructure, Theorem1Report, Theorem2Report], ...]:
    """Both harnesses over every argument structure, smallest first.

    The rules are translated once and telescoped in one run to the highest
    structure level L: level 0's base is the top theory and level i+1's is
    step i's supported set, so the run takes steps 0..L-1 only. A step never
    depends on how far the run goes, so this run holds every structure's
    level, and a capacity limit that only step L would hit stops nothing.
    """
    structures = enumerate_structures(rules, limits)
    if not structures:
        return ()
    levels = [structure_level(s, rules, idx) for s in structures]
    ctx = run_context(translate(rules, idx, limits), Canon("sum", "max", max(levels)), (), limits)
    bases = [ctx.top, *(record.supported for record in islice(run_levels(ctx), ctx.canon.level))]
    return tuple(
        (
            s,
            check_theorem1(s, level, bases[level], ctx),
            check_theorem2(rules, s, level, bases[level], ctx),
        )
        for s, level in zip(structures, levels)
    )
