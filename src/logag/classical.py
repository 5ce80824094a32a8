"""Classical consequence over finite bases of ground terms.

Grading propositions are opaque boolean atoms here: ``G(p, 2)`` is a single
atom with no imposed logical relation to ``p``, so ``{G(p, 2)}`` does not
entail ``p`` and ``{G(p, 2), G(~p, 2)}`` is consistent. Grade-order atoms
(``2 < 3``, ``2 == 2``) are evaluated to truth constants before boolean
reasoning. Filters are never materialized: membership of a goal in the
filter of a base is the decision procedure ``entails(base, goal)``.

Kernel enumeration returns every subset-minimal classically inconsistent
subset of the queried base. It follows the standard seed/grow/shrink scheme
for exhaustive minimal-unsatisfiable-subset enumeration, run per
atom-connected component (a minimal inconsistent set can never straddle two
components with disjoint atoms).

One SAT core serves both: ``_Encoder`` turns terms into clauses and
``_solve`` (DPLL with unit propagation) decides them, and also picks each
seed of the kernel search from its map of blocking clauses. Each base is
encoded once: ``entails_each`` adds only ``Not(goal)`` per goal on top of
the loaded base, and the kernel search encodes each component once, one
clause block per member, and solves the blocks of each subset it checks.

Nothing here keeps state between calls. A caller that asks the same
question again passes a ``memo`` dict, keyed ``(base, goal)``, to the
entailment functions; one telescoping run owns one (``RunContext.memo``),
and it goes when the run's trace goes. A memo serves one set of limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError
from .terms import Atom, Grade, GradeEq, Less, Not, And, Or, Term, Theory, TrueTerm, render, subterms

# ---------------------------------------------------------------------------
# Boolean skeletons


class _Encoder:
    """Clauses over one numbering of atoms, as literals +v / -v over variables 1..n.

    ``true`` and grade-order atoms fold to constants; predicate atoms and
    whole grading terms are atoms, numbered by the term itself in order of
    first occurrence; each non-constant ``&`` / ``|`` gets a fresh variable
    defined equivalent to it (Tseitin). Built from a loaded base's encoder,
    it continues that numbering, so a goal adds only its own clauses.
    """

    def __init__(self, loaded: Optional[_Encoder] = None):
        self.atoms: dict[Term, int] = dict(loaded.atoms) if loaded else {}
        self.n = loaded.n if loaded else 0

    def check_atom_cap(self, limits: Limits) -> None:
        if len(self.atoms) > limits.atom_cap:
            raise CapacityError("atom count", limits.atom_cap, len(self.atoms))

    def clauses(self, t: Term) -> Optional[list[tuple[int, ...]]]:
        """Clauses asserting ``t``, or None when it folds to false."""
        out: list[tuple[int, ...]] = []
        s = self._lit(t, out)
        if isinstance(s, bool):
            return out if s else None
        out.append((s,))
        return out

    def _lit(self, t: Term, out: list[tuple[int, ...]]):
        if isinstance(t, TrueTerm):
            return True
        if isinstance(t, Less):
            return bool(t.a < t.b)
        if isinstance(t, GradeEq):
            return bool(t.a == t.b)
        if isinstance(t, (Atom, Grade)):
            if t not in self.atoms:
                self.n += 1
                self.atoms[t] = self.n
            return self.atoms[t]
        if isinstance(t, Not):
            return _neg(self._lit(t.inner, out))
        if isinstance(t, And):
            return self._conj(self._lit(t.left, out), self._lit(t.right, out), out)
        if isinstance(t, Or):
            return _neg(self._conj(_neg(self._lit(t.left, out)), _neg(self._lit(t.right, out)), out))
        raise EngineError(f"cannot interpret {t!r} as a proposition")

    def _conj(self, a, b, out: list[tuple[int, ...]]):
        if a is False or b is False:
            return False
        if a is True or b is True:
            return b if a is True else a
        self.n += 1
        out.extend(((-self.n, a), (-self.n, b), (self.n, -a, -b)))
        return self.n


def _neg(s):
    return (not s) if isinstance(s, bool) else -s


def _solve(n: int, clauses: Iterable[tuple[int, ...]]) -> Optional[set[int]]:
    """DPLL with unit propagation over literals +v / -v, 1 <= v <= n.

    Branches on the smallest unassigned variable, true first, so the model
    found is the first in that order. A variable in no clause is never
    branched on (backtracking over it would only repeat the search below
    it) and is true in the model, as that order sets it. Returns the true
    variables, or None when the clauses are unsatisfiable.
    """
    true = bytearray(2 * n + 1)  # true[lit]: negative literals index from the end
    occurs: list[list[tuple[int, ...]]] = [[] for _ in range(2 * n + 1)]
    units = []
    for clause in clauses:
        if not clause:
            return None
        if len(clause) == 1:
            units.append(clause[0])
        for lit in clause:
            occurs[lit].append(clause)
    trail: list[int] = []

    def propagate(queue: list[int]) -> bool:
        while queue:
            lit = queue.pop()
            if true[lit]:
                continue
            if true[-lit]:
                return False
            true[lit] = 1
            trail.append(lit)
            for clause in occurs[-lit]:
                open_lit = 0
                for x in clause:
                    if true[x]:
                        break
                    if not true[-x]:
                        if open_lit:
                            break
                        open_lit = x
                else:
                    if not open_lit:
                        return False
                    queue.append(open_lit)
        return True

    if not propagate(units):
        return None
    decisions: list[tuple[int, int]] = []  # (trail length before, variable set true)
    v = 1
    while True:
        while v <= n and (true[v] or true[-v] or not (occurs[v] or occurs[-v])):
            v += 1
        if v > n:
            return {u for u in range(1, n + 1) if not true[-u]}
        decisions.append((len(trail), v))
        if propagate([v]):
            continue
        while True:  # backtrack: undo the latest decision, then set its variable false
            if not decisions:
                return None
            mark, v = decisions.pop()
            for undone in trail[mark:]:
                true[undone] = 0
            del trail[mark:]
            if propagate([-v]):
                break


def satisfiable(ts: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS) -> bool:
    enc = _Encoder()
    blocks = [enc.clauses(t) for t in ts]
    enc.check_atom_cap(limits)
    return None not in blocks and _solve(enc.n, [c for b in blocks for c in b]) is not None


def entails(
    base: Iterable[Term], goal: Term, *, limits: Limits = DEFAULT_LIMITS, memo: Optional[dict] = None
) -> bool:
    """True iff every boolean valuation satisfying all of ``base`` satisfies ``goal``."""
    return entails_each(base, (goal,), limits=limits, memo=memo)[0]


def entails_each(
    base: Iterable[Term],
    goals: Iterable[Term],
    *,
    limits: Limits = DEFAULT_LIMITS,
    memo: Optional[dict] = None,
) -> list[bool]:
    """``entails(base, goal)`` for each goal in order, encoding the base once.

    The base is encoded at the first answer not already in ``memo``; each
    goal then adds only the clauses of ``Not(goal)``, numbered on from the
    base's: the clause list ``satisfiable`` builds for the base's members
    followed by ``Not(goal)``. Every answer found is stored in ``memo``.
    """
    base_fs = base if isinstance(base, frozenset) else frozenset(base)
    memo = {} if memo is None else memo
    loaded: Optional[_Encoder] = None
    answers = []
    for goal in goals:
        result = memo.get((base_fs, goal))
        if result is None:
            if loaded is None:
                loaded = _Encoder()
                blocks = [loaded.clauses(t) for t in base_fs]
                base_clauses = None if None in blocks else [c for b in blocks for c in b]
            enc = _Encoder(loaded)
            negated = enc.clauses(Not(goal))
            enc.check_atom_cap(limits)
            result = None in (base_clauses, negated) or _solve(enc.n, base_clauses + negated) is None
            memo[base_fs, goal] = result
        answers.append(result)
    return answers


def is_consistent(base: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff some valuation satisfies all of ``base``."""
    return satisfiable(base, limits=limits)


def mutually_entailing(
    a: Iterable[Term], b: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS, memo: Optional[dict] = None
) -> bool:
    """True iff the two bases generate the same filter."""
    a_fs, b_fs = frozenset(a), frozenset(b)
    return all(entails(b_fs, t, limits=limits, memo=memo) for t in a_fs) and all(
        entails(a_fs, t, limits=limits, memo=memo) for t in b_fs
    )


# ---------------------------------------------------------------------------
# Universe


@dataclass(frozen=True)
class Universe:
    """Finite stand-in for the infinitely many propositions a filter holds.

    The closure of a theory (plus any query terms) under subterms — boolean
    structure, grading nesting, and the proposition inside every grading
    term. Deterministically ordered so traces are reproducible.
    """

    terms: tuple[Term, ...]

    @cached_property
    def term_set(self) -> frozenset[Term]:
        return frozenset(self.terms)

    def __contains__(self, t: Term) -> bool:
        return t in self.term_set


def relevant_universe(theory: Theory | Iterable[Term], extra: Iterable[Term] = ()) -> Universe:
    roots = list(theory.terms) if isinstance(theory, Theory) else list(theory)
    roots.extend(extra)
    seen: set[Term] = set()
    for t in roots:
        seen.update(subterms(t))
    return Universe(tuple(sorted(seen, key=render)))


# ---------------------------------------------------------------------------
# Kernels


@dataclass(frozen=True)
class Kernel:
    """A subset-minimal inconsistent subset of a queried base."""

    members: frozenset[Term]

    def sorted_members(self) -> tuple[Term, ...]:
        return tuple(sorted(self.members, key=render))


def _skeleton_atoms(t: Term) -> Iterable[Term]:
    enc = _Encoder()
    enc.clauses(t)
    return enc.atoms


def _components(ts: list[Term]) -> list[list[Term]]:
    parent = list(range(len(ts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_atom: dict[Term, int] = {}
    for i, t in enumerate(ts):
        for key in _skeleton_atoms(t):
            j = by_atom.setdefault(key, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[Term]] = {}
    for i, t in enumerate(ts):
        groups.setdefault(find(i), []).append(t)
    return [groups[k] for k in sorted(groups)]


def _all_minimal_inconsistent(
    items: list[Term], consistent: Callable[[list[int]], bool]
) -> list[frozenset[Term]]:
    n = len(items)
    clauses: list[tuple[int, ...]] = []
    found: list[frozenset[Term]] = []
    while True:
        seed = _solve(n, clauses)
        if seed is None:
            break
        picked = [i for i in range(n) if i + 1 in seed]
        if consistent(picked):
            satisfied = set(picked)
            for i in range(n):
                if i not in satisfied and consistent(sorted(satisfied | {i})):
                    satisfied.add(i)
            clauses.append(tuple(i + 1 for i in range(n) if i not in satisfied))
        else:
            core = set(picked)
            for i in sorted(picked):
                if i in core and len(core) > 1 and not consistent(sorted(core - {i})):
                    core.remove(i)
            found.append(frozenset(items[i] for i in core))
            clauses.append(tuple(-(i + 1) for i in sorted(core)))
    return found


def bottom_kernels(
    q: Iterable[Term], universe: Universe, *, limits: Limits = DEFAULT_LIMITS, memo: Optional[dict] = None
) -> frozenset[Kernel]:
    """All subset-minimal inconsistent subsets of ``q``.

    ``q`` is expected to be already expanded — its members include whatever
    extracted propositions should be visible to conflict detection — so the
    minimality test is plain classical consistency of the subset itself.
    Tautologies are pruned up front (they belong to no minimal inconsistent
    set, and ``memo`` answers the tautology checks it has seen), as is every
    atom-connected component that is consistent as a whole.
    Each component is encoded once, one clause block per member over shared
    atoms, and every consistency check solves the blocks of its subset.
    """
    q_list = sorted(set(q), key=render)
    missing = [t for t in q_list if t not in universe]
    if missing:
        raise EngineError(f"kernel query term outside universe: {render(missing[0])}")
    candidates = [t for t in q_list if not entails(frozenset(), t, limits=limits, memo=memo)]
    kernels: list[frozenset[Term]] = []
    for component in _components(candidates):
        enc = _Encoder()
        blocks = [enc.clauses(t) for t in component]
        enc.check_atom_cap(limits)

        def consistent(picked: Iterable[int]) -> bool:
            subset = [blocks[i] for i in picked]
            return None not in subset and _solve(enc.n, [c for b in subset for c in b]) is not None

        if consistent(range(len(component))):
            continue
        if len(component) > limits.kernel_cap:
            raise CapacityError("kernel search base", limits.kernel_cap, len(component))
        kernels.extend(_all_minimal_inconsistent(component, consistent))
    return frozenset(Kernel(k) for k in kernels)
