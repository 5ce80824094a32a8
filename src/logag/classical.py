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

# Node encoding: True/False constants, ('v', i) variable, ('n', x) negation,
# ('a', x, y) conjunction, ('o', x, y) disjunction.


def atom_key(t: Term) -> Optional[str]:
    """Canonical key of a term treated atomically, or None for non-atoms.

    Predicate atoms and whole grading terms are atoms; grade-order terms are
    never atoms (they pre-evaluate to constants).
    """
    if isinstance(t, (Atom, Grade)):
        return render(t)
    return None


def _compile(ts: Iterable[Term], atoms: dict[str, int]):
    def walk(t: Term):
        if isinstance(t, TrueTerm):
            return True
        if isinstance(t, Less):
            return bool(t.a < t.b)
        if isinstance(t, GradeEq):
            return bool(t.a == t.b)
        if isinstance(t, (Atom, Grade)):
            key = render(t)
            idx = atoms.get(key)
            if idx is None:
                idx = atoms[key] = len(atoms)
            return ("v", idx)
        if isinstance(t, Not):
            s = walk(t.inner)
            if s is True:
                return False
            if s is False:
                return True
            return ("n", s)
        if isinstance(t, And):
            a, b = walk(t.left), walk(t.right)
            if a is False or b is False:
                return False
            if a is True:
                return b
            if b is True:
                return a
            return ("a", a, b)
        if isinstance(t, Or):
            a, b = walk(t.left), walk(t.right)
            if a is True or b is True:
                return True
            if a is False:
                return b
            if b is False:
                return a
            return ("o", a, b)
        raise EngineError(f"cannot interpret {t!r} as a proposition")

    return [walk(t) for t in ts]


def _assign(node, var: int, val: bool):
    if node is True or node is False:
        return node
    tag = node[0]
    if tag == "v":
        return val if node[1] == var else node
    if tag == "n":
        s = _assign(node[1], var, val)
        if s is True:
            return False
        if s is False:
            return True
        if s is node[1]:
            return node
        return ("n", s)
    a = _assign(node[1], var, val)
    b = _assign(node[2], var, val)
    if tag == "a":
        if a is False or b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
    else:
        if a is True or b is True:
            return True
        if a is False:
            return b
        if b is False:
            return a
    if a is node[1] and b is node[2]:
        return node
    return (tag, a, b)


def _first_var(node) -> Optional[int]:
    if node is True or node is False:
        return None
    if node[0] == "v":
        return node[1]
    if node[0] == "n":
        return _first_var(node[1])
    v = _first_var(node[1])
    return v if v is not None else _first_var(node[2])


def _sat(nodes: list) -> bool:
    live = [n for n in nodes if n is not True]
    for n in live:
        if n is False:
            return False
    if not live:
        return True
    var = _first_var(live[0])
    for val in (True, False):
        if _sat([_assign(n, var, val) for n in live]):
            return True
    return False


def satisfiable(ts: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS) -> bool:
    atoms: dict[str, int] = {}
    nodes = _compile(ts, atoms)
    if len(atoms) > limits.atom_cap:
        raise CapacityError("atom count", limits.atom_cap, len(atoms))
    return _sat(nodes)


_entails_cache: dict[tuple[frozenset[Term], Term, int], bool] = {}


def entails(base: Iterable[Term], goal: Term, *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff every boolean valuation satisfying all of ``base`` satisfies ``goal``."""
    base_fs = base if isinstance(base, frozenset) else frozenset(base)
    key = (base_fs, goal, limits.atom_cap)
    hit = _entails_cache.get(key)
    if hit is not None:
        return hit
    result = not satisfiable(list(base_fs) + [Not(goal)], limits=limits)
    if len(_entails_cache) > 1 << 18:
        _entails_cache.clear()
    _entails_cache[key] = result
    return result


def is_consistent(base: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff some valuation satisfies all of ``base``."""
    return satisfiable(base, limits=limits)


def mutually_entailing(a: Iterable[Term], b: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff the two bases generate the same filter."""
    a_fs, b_fs = frozenset(a), frozenset(b)
    return all(entails(b_fs, t, limits=limits) for t in a_fs) and all(
        entails(a_fs, t, limits=limits) for t in b_fs
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
# Embedded closure


def embedded_closure(
    base: Iterable[Term], universe: Universe, *, limits: Limits = DEFAULT_LIMITS
) -> frozenset[Term]:
    """Least superset of ``base`` closed under extraction from entailed gradings.

    Whenever a grading term of the universe is entailed by the current set,
    both the grading term and its inner proposition are added; iterated to a
    fixpoint, so nested gradings unwind through every depth.
    """
    closure = set(base)
    grade_terms = [t for t in universe.terms if isinstance(t, Grade)]
    changed = True
    while changed:
        changed = False
        current = frozenset(closure)
        for g in grade_terms:
            if g in closure and g.inner in closure:
                continue
            if g in closure or entails(current, g, limits=limits):
                if g not in closure or g.inner not in closure:
                    closure.add(g)
                    closure.add(g.inner)
                    changed = True
    return frozenset(closure)


# ---------------------------------------------------------------------------
# Kernels


@dataclass(frozen=True)
class Kernel:
    """A subset-minimal inconsistent subset of a queried base."""

    members: frozenset[Term]

    def __contains__(self, t: Term) -> bool:
        return t in self.members

    def sorted_members(self) -> tuple[Term, ...]:
        return tuple(sorted(self.members, key=render))


def _skeleton_atoms(t: Term) -> frozenset[str]:
    keys = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        key = atom_key(cur)
        if key is not None:
            keys.add(key)
        elif isinstance(cur, Not):
            stack.append(cur.inner)
        elif isinstance(cur, (And, Or)):
            stack.append(cur.left)
            stack.append(cur.right)
    return frozenset(keys)


def _components(ts: list[Term]) -> list[list[Term]]:
    parent = list(range(len(ts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_atom: dict[str, int] = {}
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


def _map_model(n: int, clauses: list[tuple[int, ...]]) -> Optional[set[int]]:
    """Smallest-index-first, true-biased model of the blocking clauses."""

    def solve(assign: dict[int, bool]) -> Optional[dict[int, bool]]:
        while True:
            unit = None
            for clause in clauses:
                satisfied = False
                open_lits = []
                for lit in clause:
                    val = assign.get(abs(lit) - 1)
                    if val is None:
                        open_lits.append(lit)
                    elif (val and lit > 0) or (not val and lit < 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not open_lits:
                    return None
                if len(open_lits) == 1 and unit is None:
                    unit = open_lits[0]
            if unit is None:
                break
            assign = dict(assign)
            assign[abs(unit) - 1] = unit > 0
        for v in range(n):
            if v not in assign:
                for val in (True, False):
                    trial = dict(assign)
                    trial[v] = val
                    result = solve(trial)
                    if result is not None:
                        return result
                return None
        return assign

    model = solve({})
    if model is None:
        return None
    return {v for v in range(n) if model.get(v, True)}


def _all_minimal_inconsistent(
    items: list[Term], consistent: Callable[[list[Term]], bool]
) -> list[frozenset[Term]]:
    n = len(items)
    clauses: list[tuple[int, ...]] = []
    found: list[frozenset[Term]] = []
    while True:
        seed = _map_model(n, clauses)
        if seed is None:
            break
        picked = [i for i in range(n) if i in seed]
        if consistent([items[i] for i in picked]):
            satisfied = set(picked)
            for i in range(n):
                if i not in satisfied and consistent([items[j] for j in sorted(satisfied | {i})]):
                    satisfied.add(i)
            clauses.append(tuple(i + 1 for i in range(n) if i not in satisfied))
        else:
            core = set(picked)
            for i in sorted(picked):
                if i in core and len(core) > 1 and not consistent(
                    [items[j] for j in sorted(core - {i})]
                ):
                    core.remove(i)
            found.append(frozenset(items[i] for i in core))
            clauses.append(tuple(-(i + 1) for i in sorted(core)))
    return found


def bottom_kernels(
    q: Iterable[Term], universe: Universe, *, limits: Limits = DEFAULT_LIMITS
) -> frozenset[Kernel]:
    """All subset-minimal inconsistent subsets of ``q``.

    ``q`` is expected to be already expanded — its members include whatever
    extracted propositions should be visible to conflict detection — so the
    minimality test is plain classical consistency of the subset itself.
    Tautologies are pruned up front (they belong to no minimal inconsistent
    set), as is every atom-connected component that is consistent as a whole.
    """
    q_list = sorted(set(q), key=render)
    missing = [t for t in q_list if t not in universe]
    if missing:
        raise EngineError(f"kernel query term outside universe: {render(missing[0])}")
    candidates = [t for t in q_list if not entails(frozenset(), t, limits=limits)]
    kernels: list[frozenset[Term]] = []
    for component in _components(candidates):
        if is_consistent(component, limits=limits):
            continue
        if len(component) > limits.kernel_cap:
            raise CapacityError("kernel search base", limits.kernel_cap, len(component))
        kernels.extend(
            _all_minimal_inconsistent(component, lambda ts: is_consistent(ts, limits=limits))
        )
    return frozenset(Kernel(k) for k in kernels)
