"""Rule-based argument systems and their encoding as graded theories.

Rules come in three shapes — base facts, monotonic rules, and non-monotonic
rules — over literal well-formed formulas (an atom or its bare negation;
negation carries no logical force at this layer). Arguments are rooted,
rule-labelled trees; argument structures are sets of arguments containing
every base fact, closed under subtrees and monotonic rules, and never
supporting both a literal and its negation.

Rules file grammar (UTF-8, ``#`` comments)::

    rule := LABEL ":" body "."
    body := wff                        (base fact)
          | wff ("," wff)* "->" wff    (monotonic)
          | wff ("," wff)* "=>" wff    (non-monotonic)
    wff  := ["~"] IDENT [ "(" individual ("," individual)* ")" ] | "true"

The translation into a graded theory keeps base facts and monotonic rules as
plain (certain) material implications, and buries the image of each
non-monotonic rule under towers of unit grades: every non-empty subset S of
the non-monotonic rules gets a distinct depth I(S); rules in S are chained at
that depth, rules outside S are chained there together with their negations.
Telescoping to depth I(S) then believes exactly the rules of S, so each
argument structure shows up as the consequence set of some level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from typing import Iterable, Optional

from .classical import Universe, entails, is_consistent, relevant_universe
from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError, ParseError
from .grading import Canon, LevelRecord, telescope_n
from .terms import (
    And,
    Atom,
    Grade,
    Not,
    Or,
    Term,
    Theory,
    TrueTerm,
    _Parser,
    render,
)

FACT = "fact"
MONOTONIC = "monotonic"
NONMONOTONIC = "nonmonotonic"


def is_literal(t: Term) -> bool:
    return isinstance(t, (Atom, TrueTerm)) or (
        isinstance(t, Not) and isinstance(t.inner, (Atom, TrueTerm))
    )


def negate_literal(t: Term) -> Term:
    """Literal negation with double-negation collapse (for pairing checks)."""
    if isinstance(t, Not):
        return t.inner
    return Not(t)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RuleSet:
    name: str
    rules: tuple[Rule, ...]

    def __post_init__(self):
        labels = [r.label for r in self.rules]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate rule label")

    def by_label(self, label: str) -> Rule:
        for r in self.rules:
            if r.label == label:
                return r
        raise KeyError(label)

    def facts(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == FACT)

    def monotonic(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == MONOTONIC)

    def nonmonotonic(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == NONMONOTONIC)


def parse_rules(text: str, name: str = "rules") -> RuleSet:
    parser = _Parser(text)

    def wff() -> Term:
        if parser.at_punct("~"):
            parser.advance()
            inner = wff()
            return Not(inner)
        tok = parser.peek()
        if tok.kind != "ident":
            raise parser.fail("expected a literal")
        if tok.text == "true":
            parser.advance()
            return TrueTerm()
        atom = parser.atom()
        nxt = parser.peek()
        if nxt.kind == "punct" and nxt.text in ("&", "|") or nxt.kind == "eqeq":
            raise parser.fail("compound formulas are not allowed in rules; use literals")
        return atom

    rules = []
    while parser.peek().kind != "eof":
        label = parser.expect("ident").text
        parser.expect("punct", ":")
        wffs = [wff()]
        while parser.at_punct(","):
            parser.advance()
            wffs.append(wff())
        tok = parser.peek()
        if tok.kind == "arrow":
            parser.advance()
            conclusion = wff()
            kind = MONOTONIC
            premises = tuple(wffs)
        elif tok.kind == "darrow":
            parser.advance()
            conclusion = wff()
            kind = NONMONOTONIC
            premises = tuple(wffs)
        else:
            if len(wffs) != 1:
                raise parser.fail("a base fact is a single literal")
            conclusion = wffs[0]
            kind = FACT
            premises = ()
        parser.expect("punct", ".")
        rules.append(Rule(label, kind, premises, conclusion))
    try:
        return RuleSet(name, tuple(rules))
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc


# ---------------------------------------------------------------------------
# Arguments


@dataclass(frozen=True)
class Argument:
    """Rooted tree: children's roots are the premises of the labelled rule.

    Base-fact leaves carry no rule label.
    """

    root: Term
    children: tuple["Argument", ...] = ()
    rule_label: Optional[str] = None

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


def _fact_arguments(rules: RuleSet) -> set[Argument]:
    return {Argument(r.conclusion) for r in rules.facts()}


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


def enumerate_arguments(rules: RuleSet, limits: Limits = DEFAULT_LIMITS) -> frozenset[Argument]:
    """All arguments constructible from the rules, modulo structural identity."""
    known = _fact_arguments(rules)
    rounds = 0
    while True:
        rounds += 1
        by_root: dict[Term, list[Argument]] = {}
        for a in sorted(known, key=_argument_key):
            by_root.setdefault(a.root, []).append(a)
        fresh = set()
        for rule in rules.rules:
            if rule.kind == FACT:
                continue
            for candidate in _apply_rule(rule, by_root):
                if candidate not in known:
                    fresh.add(candidate)
        if not fresh:
            return frozenset(known)
        if rounds > limits.depth_cap:
            raise CapacityError("argument tree depth", limits.depth_cap, rounds)
        if len(known) + len(fresh) > limits.subset_cap:
            raise CapacityError("argument count", limits.subset_cap, len(known) + len(fresh))
        known |= fresh


@dataclass(frozen=True)
class ArgumentStructure:
    arguments: frozenset[Argument]

    def sorted_arguments(self) -> tuple[Argument, ...]:
        return tuple(sorted(self.arguments, key=_argument_key))


def wffs(t: ArgumentStructure) -> frozenset[Term]:
    """The supported formulas: all roots of arguments in the structure."""
    return frozenset(a.root for a in t.arguments)


def is_complete(t: ArgumentStructure, w: Term) -> bool:
    supported_wffs = wffs(t)
    return w in supported_wffs or negate_literal(w) in supported_wffs


def _roots_consistent(args: Iterable[Argument]) -> bool:
    roots = {a.root for a in args}
    return not any(negate_literal(w) in roots for w in roots)


def _close_monotonically(rules: RuleSet, seed: set[Argument]) -> frozenset[Argument]:
    closed = set(seed)
    for a in list(closed):
        closed |= a.subtrees()
    while True:
        by_root: dict[Term, list[Argument]] = {}
        for a in sorted(closed, key=_argument_key):
            by_root.setdefault(a.root, []).append(a)
        fresh = set()
        for rule in rules.monotonic():
            for candidate in _apply_rule(rule, by_root):
                if candidate not in closed:
                    fresh.add(candidate)
        if not fresh:
            return frozenset(closed)
        closed |= fresh


def validate_structure(rules: RuleSet, t: ArgumentStructure) -> bool:
    """Independent check of the four defining conditions."""
    args = t.arguments
    if not _fact_arguments(rules) <= args:
        return False
    for a in args:
        if not a.subtrees() <= args:
            return False
    by_root: dict[Term, list[Argument]] = {}
    for a in sorted(args, key=_argument_key):
        by_root.setdefault(a.root, []).append(a)
    for rule in rules.monotonic():
        for candidate in _apply_rule(rule, by_root):
            if candidate not in args:
                return False
    return _roots_consistent(args)


def enumerate_structures(
    rules: RuleSet, limits: Limits = DEFAULT_LIMITS
) -> tuple[ArgumentStructure, ...]:
    """Every argument structure over the rules, smallest first.

    A structure is determined by which non-monotonically-rooted arguments it
    adopts: base facts are mandatory, monotonic closure is forced, and the
    consistency condition filters the rest. Subsets whose closure turns
    inconsistent yield no structure.
    """
    all_args = enumerate_arguments(rules, limits)
    nm_labels = {r.label for r in rules.nonmonotonic()}
    nm_rooted = sorted((a for a in all_args if a.rule_label in nm_labels), key=_argument_key)
    if 2 ** len(nm_rooted) > limits.subset_cap:
        raise CapacityError("structure seeds", limits.subset_cap, 2 ** len(nm_rooted))
    found: set[frozenset[Argument]] = set()
    for size in range(len(nm_rooted) + 1):
        for chosen in combinations(nm_rooted, size):
            closed = _close_monotonically(rules, _fact_arguments(rules) | set(chosen))
            if _roots_consistent(closed):
                found.add(closed)
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


def chain_term(t: Term, depth: int) -> Term:
    """``depth``-fold unit grading of ``t``."""
    if depth < 1:
        raise ValueError("chain depth must be >= 1")
    out = t
    for _ in range(depth):
        out = Grade(out, Fraction(1))
    return out


@dataclass(frozen=True)
class Indexing:
    """Bijection from non-empty subsets of the non-monotonic labels to 1..2^k-1."""

    table: tuple[tuple[frozenset[str], int], ...]

    def index_of(self, subset: frozenset[str]) -> int:
        for labels, idx in self.table:
            if labels == subset:
                return idx
        raise KeyError(f"subset not indexed: {sorted(subset)}")

    def subsets(self) -> tuple[frozenset[str], ...]:
        return tuple(labels for labels, _ in self.table)


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
    """Read an override file: one ``INDEX: label, label, ...`` line per subset."""
    table = []
    idx = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("INDEX:"):
            raise ParseError("expected 'INDEX:' line", lineno, 1)
        labels = frozenset(part.strip() for part in line[len("INDEX:"):].split(",") if part.strip())
        table.append((labels, idx))
        idx += 1
    nm_labels = frozenset(r.label for r in rules.nonmonotonic())
    _check_indexing(table, nm_labels)
    return Indexing(tuple(table))


@dataclass(frozen=True)
class Translation:
    monotonic_part: frozenset[Term]
    nonmonotonic_part: frozenset[Term]
    indexing: Indexing


def translation_parts(rules: RuleSet, idx: Indexing, limits: Limits = DEFAULT_LIMITS) -> Translation:
    nm_labels = frozenset(r.label for r in rules.nonmonotonic())
    _check_indexing(list(idx.table), nm_labels)
    monotonic_part = frozenset(pi(r) for r in rules.rules if r.kind in (FACT, MONOTONIC))
    if not is_consistent(monotonic_part, limits=limits):
        raise EngineError("the base facts and monotonic rules are classically inconsistent")
    chained: set[Term] = set()
    for subset, depth in idx.table:
        for r in rules.nonmonotonic():
            if r.label in subset:
                chained.add(chain_term(pi(r), depth))
            else:
                chained.add(chain_term(pi(r), depth))
                chained.add(chain_term(Not(pi(r)), depth))
    return Translation(monotonic_part, frozenset(chained), idx)


def translate(
    rules: RuleSet,
    idx: Optional[Indexing] = None,
    limits: Limits = DEFAULT_LIMITS,
) -> Theory:
    """Graded theory whose level-indexed consequences track the structures."""
    if idx is None:
        idx = default_indexing(rules, limits)
    parts = translation_parts(rules, idx, limits)
    return Theory(
        name=f"{rules.name}_graded",
        domains=(),
        terms=parts.monotonic_part | parts.nonmonotonic_part,
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


@dataclass(frozen=True)
class Theorem1Report:
    level: int
    results: tuple[tuple[Term, bool], ...]
    passed: bool


def check_theorem1(
    t: ArgumentStructure,
    record: LevelRecord,
    limits: Limits = DEFAULT_LIMITS,
) -> Theorem1Report:
    """Every supported formula of the structure holds at its level.

    ``record`` is the structure's level in the translated theory's trace.
    """
    targets = sorted(wffs(t), key=render)
    results = tuple((w, entails(record.base, w, limits=limits)) for w in targets)
    return Theorem1Report(record.index, results, all(ok for _, ok in results))


@dataclass(frozen=True)
class Theorem2Report:
    level: int
    checked: int
    classical_bases: tuple[frozenset[Term], ...]
    failures: tuple[tuple[Term, frozenset[Term]], ...]
    passed: bool


def _maximal_consistent_extensions(
    core: frozenset[Term], rules: RuleSet, limits: Limits
) -> tuple[tuple[Rule, ...], ...]:
    mono = rules.monotonic()
    if 2 ** len(mono) > limits.subset_cap:
        # fall back to one greedy maximal extension in label order
        picked: list[Rule] = []
        for r in mono:
            trial = core | {pi(x) for x in picked} | {pi(r)}
            if is_consistent(trial, limits=limits):
                picked.append(r)
        return (tuple(picked),)
    consistent_sets = []
    for size in range(len(mono) + 1):
        for combo in combinations(mono, size):
            if is_consistent(core | {pi(r) for r in combo}, limits=limits):
                consistent_sets.append(frozenset(combo))
    maximal = [
        s for s in consistent_sets if not any(s < other for other in consistent_sets)
    ]
    return tuple(tuple(sorted(s, key=lambda r: r.label)) for s in sorted(maximal, key=lambda s: sorted(r.label for r in s)))


def check_theorem2(
    rules: RuleSet,
    t: ArgumentStructure,
    record: LevelRecord,
    universe: Universe,
    limits: Limits = DEFAULT_LIMITS,
) -> Theorem2Report:
    """Every graded consequence at the structure's level is classically forced.

    ``record`` is the structure's level in the translated theory's trace and
    ``universe`` that theory's universe. Each non-grading universe term the
    graded filter contains must follow classically from the structure's own
    rules together with a maximal set of monotonic rules consistent with
    them; all maximal sets are checked. Grading terms are skipped: they are
    never rule images.
    """
    consequences = [
        u
        for u in universe.terms
        if not isinstance(u, Grade) and entails(record.base, u, limits=limits)
    ]
    structure_base = frozenset(pi(r) for r in rules_of_structure(t, rules))
    failures = []
    bases = []
    for extension in _maximal_consistent_extensions(structure_base, rules, limits):
        base = structure_base | {pi(r) for r in extension}
        bases.append(base)
        for u in consequences:
            if not entails(base, u, limits=limits):
                failures.append((u, base))
    return Theorem2Report(
        record.index,
        len(consequences) * max(len(bases), 1),
        tuple(bases),
        tuple(failures),
        not failures,
    )


def verify(
    rules: RuleSet,
    idx: Indexing,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[tuple[ArgumentStructure, Theorem1Report, Theorem2Report], ...]:
    """Both harnesses over every argument structure, smallest first.

    The rules are translated once and telescoped once, to the highest
    structure level. A telescoping step never depends on how far the run
    goes, so that trace holds every structure's level.
    """
    structures = enumerate_structures(rules, limits)
    if not structures:
        return ()
    levels = [structure_level(s, rules, idx) for s in structures]
    theory = translate(rules, idx, limits)
    trace = telescope_n(theory, Canon("sum", "max", max(levels)), (), limits)
    universe = relevant_universe(theory)
    return tuple(
        (
            s,
            check_theorem1(s, trace.levels[level], limits),
            check_theorem2(rules, s, trace.levels[level], universe, limits),
        )
        for s, level in zip(structures, levels)
    )
