"""Classical consequence over finite bases of ground terms.

Grading propositions are opaque boolean atoms here: ``G(p, 2)`` is a single
atom with no imposed logical relation to ``p``, so ``{G(p, 2)}`` does not
entail ``p`` and ``{G(p, 2), G(~p, 2)}`` is consistent. Grade-order atoms
(``2 < 3``, ``2 == 2``) are evaluated to truth constants before boolean
reasoning. Filters are not materialized here: membership of a goal in the
filter of a base is the decision procedure ``entails(base, goal)``.

Kernel enumeration returns every subset-minimal classically inconsistent
subset of the queried base. It follows MARCO's scheme for exhaustive
minimal-unsatisfiable-subset enumeration, with maximal seeds and so no grow
step, run per atom-connected component (a minimal inconsistent set can
never straddle two components with disjoint atoms).

One SAT core serves both: ``_Solver`` is DPLL with unit propagation over
clauses that, once pushed, stay. Each kernel search keeps one per
component as its map of blocking clauses. A ``Session`` keeps one for a
whole run, and with it

- a term table, which compiles each distinct term once, from its
  children's entries, in run-wide variable numbers: to its literal (or the
  constant it folds to) and its atoms. Each distinct ``&`` / ``|`` gets one
  variable and three definitional Tseitin clauses, pushed once;
- a loaded base: its members' literals, propagated at the bottom of the
  trail. Each goal then assumes its negation, searches, and cuts the trail
  back to the base's (solving under assumptions, Eén & Sörensson, SAT
  2003). The base stays loaded after the call, so a caller that asks about
  the same base goal by goal reuses it;
- the loaded base's two models, true-first and false-first, which with the
  memo settle what they can before any search (``Session._answer``);
- a memo of every answer found, keyed ``(base, goal)``.

A session answers one question, entailment. Consistency is the entailment
of ``FALSE`` (``~true``) read negated: ``satisfiable`` asks it, and
``is_consistent`` is the same function under a second name. A kernel
search asks the session each check, ``(subset, ~true)`` or
``(frozenset(), member)`` for a tautology, so each subset it checks is
loaded in turn.

The universe holds one object per distinct term, each child the universe's
own object too, so a run's sets, memo keys and filters find equal terms by
identity before any structural comparison.

Nothing here keeps state between calls. One telescoping run owns one
session (``RunContext.session``), which goes when the run's trace goes; a
caller that passes none gets a fresh one. A session's memo serves one set
of limits.
"""

from __future__ import annotations

from collections.abc import Iterable, KeysView

from .config import DEFAULT_LIMITS, Limits
from .errors import CapacityError, EngineError
from .records import record
from .terms import TRUE, Atom, Grade, GradeEq, Less, Not, And, Or, Term, Theory, TrueTerm, render

FALSE = Not(TRUE)  # the goal a base entails exactly when it is inconsistent

# ---------------------------------------------------------------------------
# The SAT core


class _Solver:
    """DPLL with unit propagation over literals +v / -v, 1 <= v <= n.

    ``true[lit]`` is the assignment (negative literals index from the end)
    and ``trail`` the literals set true, in order, so cutting the trail back
    to a mark undoes what was set after it. ``occurs[lit]`` lists the
    clauses holding ``lit``; a clause, once pushed, stays.
    """

    __slots__ = ("n", "true", "occurs", "trail")

    def __init__(self, n: int = 0):
        self.n = n
        self.true = bytearray(2 * n + 1)
        self.occurs: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.trail: list[int] = []

    def push(self, clauses: list[list[int]], queue: list[int]) -> bool:
        """Add clauses, queueing the literal of each unit clause.

        Returns False when one of them is empty. Only the length of a clause
        is read here, and propagation visits a clause only when one of its
        literals turns false, so a clause pushed over a non-empty trail may
        arrive unit or false unnoticed. A session pushes its connectives'
        clauses over a loaded base's trail only when they were compiled
        while it was loaded: each holds its own connective's variable, which
        nothing has assigned yet, so it may arrive unit but never false.
        """
        occurs = self.occurs
        ok = True
        for clause in clauses:
            for lit in clause:
                occurs[lit].append(clause)
            if len(clause) < 2:
                if clause:
                    queue.append(clause[0])
                else:
                    ok = False
        return ok

    def undo(self, mark: int) -> None:
        """Unassign the literals set after the first ``mark`` of the trail."""
        true, trail = self.true, self.trail
        for lit in trail[mark:]:
            true[lit] = 0
        del trail[mark:]

    def propagate(self, queue: list[int]) -> bool:
        true, occurs, trail = self.true, self.occurs, self.trail
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

    def search(self, queue: list[int], order) -> bool:
        """Propagate ``queue``, then branch on ``order``'s literals, each true first.

        ``order`` lists variables, or negated ones to try false first.
        Branches on the first unassigned variable of ``order``; a variable
        in no pushed clause is never branched on (backtracking over it
        would only repeat the search below it). Returns whether a model was
        found; it stays assigned, and unassigned variables read true in it.
        The caller undoes the trail.
        """
        true, occurs, trail = self.true, self.occurs, self.trail
        propagate = self.propagate
        if not propagate(queue):
            return False
        decisions: list[tuple[int, int]] = []  # (trail length before, index in order)
        i, size = 0, len(order)
        while True:
            while i < size:
                v = order[i]
                if not (true[v] or true[-v]) and (occurs[v] or occurs[-v]):
                    break
                i += 1
            else:
                return True
            decisions.append((len(trail), i))
            if propagate([v]):
                continue
            while True:  # backtrack: undo the latest decision, then set its literal false
                if not decisions:
                    return False
                mark, i = decisions.pop()
                self.undo(mark)
                if propagate([-order[i]]):
                    break


class _Compiled:
    """One term in a session's numbering, built from its children's entries.

    ``lit`` is the literal standing for the term, or the constant it folds
    to; ``defs`` the three clauses defining the term's own connective's
    variable, if it has one (an atom, a negation or a folded term has
    none); ``vars`` every variable in the term, in numbering order (an atom
    where first met, a connective after its operands); ``atoms`` its
    distinct atoms, in the same order, folded parts included.
    """

    __slots__ = ("lit", "defs", "vars", "atoms")

    def __init__(self, lit, vars: list[int], atoms: list[int]):
        self.lit, self.vars, self.atoms = lit, vars, atoms
        self.defs: list[list[int]] = []


def _neg(s):
    return (not s) if isinstance(s, bool) else -s


class Session:
    """One run's SAT state: its answers, its compiled terms and one solver.

    ``memo`` maps ``(base, goal)`` to every entailment answer found. The
    solver holds every compiled connective's clauses, each pushed once and
    never popped (those compiled past its room wait for the rebuild the
    next question makes), and the last loaded base's literals, propagated,
    until another base is asked about.
    """

    def __init__(self):
        self.memo: dict[tuple[frozenset[Term], Term], bool] = {}
        self._table: dict[Term, _Compiled] = {}
        self._n = 0
        self._solver = _Solver()
        self._base: frozenset[Term] | None = None
        self._base_atoms: set[int] = set()
        self._base_false = False
        self._order: list[int] = []  # the base's atoms still unassigned
        self._models: list[set[int]] | None = None  # the base's models, taken on first need
        self._first: set[int] | None = None  # the true-first model, if a consistency search found it
        self._trail_mark = 0

    # -- the term table ----------------------------------------------------

    def compiled(self, t: Term) -> _Compiled:
        """``t`` compiled once per session.

        ``true`` and grade-order atoms fold to constants; predicate atoms and
        whole grading terms are atoms, numbered by the term itself; ``~t``
        negates ``t``'s literal; each distinct non-constant ``&`` / ``|``
        gets one variable, defined equivalent to it by three clauses, which
        every term holding it shares.
        """
        entry = self._table.get(t)
        if entry is None:
            entry = self._table[t] = self._compile(t)
        return entry

    def _compile(self, t: Term) -> _Compiled:
        if isinstance(t, TrueTerm):
            return _Compiled(True, [], [])
        if isinstance(t, (Less, GradeEq)):
            return _Compiled(bool(t.a < t.b if isinstance(t, Less) else t.a == t.b), [], [])
        if isinstance(t, (Atom, Grade)):
            self._n += 1
            return _Compiled(self._n, [self._n], [self._n])
        if isinstance(t, Not):
            inner = self.compiled(t.inner)
            return _Compiled(_neg(inner.lit), inner.vars, inner.atoms)
        if not isinstance(t, (And, Or)):
            raise EngineError(f"cannot interpret {t!r} as a proposition")
        left, right = self.compiled(t.left), self.compiled(t.right)
        entry = _Compiled(None, list(dict.fromkeys(left.vars + right.vars)), list(dict.fromkeys(left.atoms + right.atoms)))
        a, b = (left.lit, right.lit) if isinstance(t, And) else (_neg(left.lit), _neg(right.lit))
        if a is False or b is False:
            lit = False
        elif a is True or b is True:
            lit = b if a is True else a
        else:  # a & b; a | b is ~(~a & ~b)
            self._n += 1
            lit = self._n
            entry.vars.append(lit)
            entry.defs = [[-lit, a], [-lit, b], [lit, -a, -b]]
            if lit <= self._solver.n:  # else the rebuild that growth makes pushes them
                self._solver.push(entry.defs, [])
        entry.lit = lit if isinstance(t, And) else _neg(lit)
        return entry

    # -- the loaded base ---------------------------------------------------

    def _load(self, base: frozenset[Term]) -> None:
        """Propagate the base's literals from an empty trail, once per base.

        Every clause is pushed before the propagation, as the members are
        compiled or, when the numbering has outgrown the solver, into a new
        one with room for twice the variables numbered so far. So
        propagation visits every clause: once a search has assigned the
        base's atoms, each connective's variable follows from its
        operands', and a base search need branch on its unassigned atoms
        only.
        """
        self._base = None
        entries = [self.compiled(t) for t in base]
        solver = self._solver
        if self._n > solver.n:
            solver = self._solver = _Solver(2 * self._n)
            solver.push([clause for entry in self._table.values() for clause in entry.defs], [])
        else:
            solver.undo(0)
        atoms: set[int] = set()
        for entry in entries:
            atoms.update(entry.atoms)
        lits = [entry.lit for entry in entries if entry.lit is not True]
        self._base_false = False in lits or not solver.propagate(lits)
        true = solver.true
        self._order = sorted(a for a in atoms if not (true[a] or true[-a]))
        self._trail_mark = len(solver.trail)
        self._base_atoms = atoms
        self._models = self._first = None
        self._base = base

    def _ensure_loaded(self, base: frozenset[Term]) -> None:
        if base is not self._base and base != self._base:
            self._load(base)

    def _consistent(self, negated: _Compiled | None) -> bool:
        """Whether the loaded base is consistent, with ``Not(negated)`` when given.

        ``negated``'s negated literal is queued, and the search branches on
        every variable of ``negated`` after the base's atoms: a clause
        compiled while the base is loaded is pushed over its trail, where it
        may arrive unit, and is visited once its connective's variable is
        assigned. Growth reloads the base. The trail is cut back to the
        base's before this returns.
        """
        if self._n > self._solver.n:
            self._load(self._base)
        solver = self._solver
        queue, order = [], self._order
        if negated is not None:
            queue.append(-negated.lit)
            order = order + negated.vars
        try:
            found = solver.search(queue, order)
            if found and negated is None:
                self._first = set(solver.trail)
            return found
        finally:
            solver.undo(self._trail_mark)

    def _answer(self, base: frozenset[Term], goal: Term, entry: _Compiled) -> bool:
        """Whether the loaded base entails ``goal``, searched for only if unsettled.

        A literal goal (one variable) some model leaves false or open is not
        entailed, nor ``~x`` if the base has a model and the memo holds ``x``
        entailed; the memo settles ``l | r`` by an entailed part, ``l & r``
        by an unentailed one.
        """
        memo = self.memo
        if isinstance(goal, Or) and (memo.get((base, goal.left)) or memo.get((base, goal.right))):
            return True
        if isinstance(goal, And) and False in (memo.get((base, goal.left)), memo.get((base, goal.right))):
            return False
        literal = len(entry.vars) == 1 and entry.lit is not False
        if literal or isinstance(goal, Not) and memo.get((base, goal.inner)):
            if self._models is None:  # once per load, true-first (unless kept) then false-first
                solver, self._models = self._solver, []
                for order in (self._order, [-v for v in self._order]):
                    if order is self._order and self._first is not None:
                        self._models.append(self._first)
                    elif solver.search([], order):
                        self._models.append(set(solver.trail))
                    solver.undo(self._trail_mark)
                self._base_false = not self._models
            if self._models and (not literal or any(entry.lit not in m for m in self._models)):
                return False
        return not self._consistent(None if entry.lit is False else entry)

    # -- the question ------------------------------------------------------

    def entails(self, base: frozenset[Term], goal: Term, limits: Limits) -> bool:
        """Whether ``base`` entails ``goal``, answered once per session.

        ``atom_cap`` bounds the distinct atoms of base and goal together.
        """
        result = self.memo.get((base, goal))
        if result is None:
            self._ensure_loaded(base)
            entry = self.compiled(goal)
            atoms = self._base_atoms
            count = len(atoms) + len([a for a in entry.atoms if a not in atoms])
            if count > limits.atom_cap:
                raise CapacityError("atom count", limits.atom_cap, count)
            if self._base_false or entry.lit is True or goal in base:
                result = True
            else:
                result = self._answer(base, goal, entry)
            self.memo[base, goal] = result
        return result


def _frozen(ts: Iterable[Term]) -> frozenset[Term]:
    return ts if isinstance(ts, frozenset) else frozenset(ts)


def satisfiable(
    ts: Iterable[Term], *, limits: Limits = DEFAULT_LIMITS, session: Session | None = None
) -> bool:
    """True iff some valuation satisfies all of ``ts``: ``ts`` does not entail ``~true``."""
    return not (Session() if session is None else session).entails(_frozen(ts), FALSE, limits)


def entails(
    base: Iterable[Term], goal: Term, *, limits: Limits = DEFAULT_LIMITS, session: Session | None = None
) -> bool:
    """True iff every boolean valuation satisfying all of ``base`` satisfies ``goal``."""
    return (Session() if session is None else session).entails(_frozen(base), goal, limits)


def entails_each(
    base: Iterable[Term],
    goals: Iterable[Term],
    *,
    limits: Limits = DEFAULT_LIMITS,
    session: Session | None = None,
) -> list[bool]:
    """``entails(base, goal)`` for each goal in order, loading the base once."""
    session = Session() if session is None else session
    base_fs = _frozen(base)
    return [session.entails(base_fs, goal, limits) for goal in goals]


is_consistent = satisfiable


def mutually_entailing(
    a: Iterable[Term],
    b: Iterable[Term],
    *,
    limits: Limits = DEFAULT_LIMITS,
    session: Session | None = None,
) -> bool:
    """True iff the two bases generate the same filter.

    Loads each base once and stops at the first member the other base does
    not entail.
    """
    session = Session() if session is None else session
    a_fs, b_fs = frozenset(a), frozenset(b)
    return all(session.entails(b_fs, t, limits) for t in a_fs) and all(
        session.entails(a_fs, t, limits) for t in b_fs
    )


# ---------------------------------------------------------------------------
# Universe


class Universe:
    """Finite stand-in for the infinitely many propositions a filter holds.

    The closure of a theory (plus any query terms) under subterms — boolean
    structure, grading nesting, and the proposition inside every grading
    term. Deterministically ordered so traces are reproducible. ``shared``
    maps each term to the universe's own object for it; nothing compares,
    hashes or prints a universe, so it is a plain class, not a record.
    """

    __slots__ = ("terms", "shared")

    def __init__(self, terms: tuple[Term, ...], shared: dict[Term, Term]):
        self.terms, self.shared = terms, shared

    @property
    def term_set(self) -> KeysView[Term]:
        return self.shared.keys()


def relevant_universe(theory: Theory | Iterable[Term], extra: Iterable[Term] = ()) -> Universe:
    """The subterm closure of the roots, one object per distinct term.

    Each root is walked once, bottom-up. The first object met for a term is
    kept, and a node is rebuilt only when a child is not the kept object.
    """
    roots = list(theory.terms) if isinstance(theory, Theory) else list(theory)
    roots.extend(extra)
    shared: dict[Term, Term] = {}

    def share(t: Term) -> Term:
        s = shared.get(t)
        if s is not None:
            return s
        if isinstance(t, (Not, Grade)):
            inner = share(t.inner)
            if inner is not t.inner:
                t = Not(inner) if isinstance(t, Not) else Grade(inner, t.grade)
        elif isinstance(t, (And, Or)):
            left, right = share(t.left), share(t.right)
            if left is not t.left or right is not t.right:
                t = type(t)(left, right)
        shared[t] = t
        return t

    for t in roots:
        share(t)
    return Universe(tuple(sorted(shared, key=render)), shared)


# ---------------------------------------------------------------------------
# Kernels


@record
class Kernel:
    """A subset-minimal inconsistent subset of a queried base."""

    members: frozenset[Term]


def _components(entries: list[_Compiled]) -> list[list[int]]:
    """Indices of the entries, grouped by shared atoms."""
    parent = list(range(len(entries)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_atom: dict[int, int] = {}
    for i, entry in enumerate(entries):
        for atom in entry.atoms:
            j = by_atom.setdefault(atom, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(len(entries)):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def _all_minimal_inconsistent(items: list[Term], session: Session, limits: Limits) -> list[frozenset[Term]]:
    """Every minimal inconsistent subset of ``items``, by MARCO's seed/shrink loop.

    The map is one solver, a variable per item, that keeps each blocking
    clause as it is found; each check is the session's question
    ``(subset, ~true)``.
    """

    def consistent(picked: Iterable[int]) -> bool:
        return not session.entails(frozenset(items[i] for i in picked), FALSE, limits)

    n = len(items)
    solver = _Solver(n)
    units: list[int] = []  # the literals of the unit clauses, queued for each search
    found: list[frozenset[Term]] = []
    # A seed is the map's first model in true-first order, so it is maximal:
    # no false variable can be set true without falsifying a clause. Only a
    # kernel's clause falls that way, so a consistent seed plus any item
    # holds a kernel: it is a maximal consistent subset, and it blocks its
    # complement with no grow step (Liffiton et al., Constraints 2016).
    while solver.search(list(units), range(1, n + 1)):
        true = solver.true
        picked = [i for i in range(n) if not true[-(i + 1)]]
        clause = [i + 1 for i in range(n) if true[-(i + 1)]]
        solver.undo(0)  # clauses are pushed over an empty assignment
        if not consistent(picked):
            core = set(picked)
            for i in picked:
                if i in core and len(core) > 1 and not consistent(core - {i}):
                    core.remove(i)
            found.append(frozenset(items[i] for i in core))
            clause = [-(i + 1) for i in sorted(core)]
        if not solver.push([clause], units):
            break
    return found


def bottom_kernels(
    q: Iterable[Term],
    universe: Universe,
    *,
    limits: Limits = DEFAULT_LIMITS,
    session: Session | None = None,
) -> frozenset[Kernel]:
    """All subset-minimal inconsistent subsets of ``q``.

    ``q`` is expected to be already expanded — its members include whatever
    extracted propositions should be visible to conflict detection — so the
    minimality test is plain classical consistency of the subset itself.
    Every check is the session's question ``(subset, ~true)``, or
    ``(frozenset(), member)`` for a tautology. A ``q`` the memo holds as
    consistent, or whose atoms fit ``atom_cap`` and that is consistent when
    checked whole, has no kernels. Otherwise tautologies are pruned (they
    belong to no minimal inconsistent set), as is every atom-connected
    component that is consistent as a whole; a component over ``atom_cap``
    raises. The subsets a component's search checks lie inside it, so their
    atoms fit the cap too.
    """
    session = Session() if session is None else session
    q_fs = _frozen(q)
    if not q_fs <= universe.term_set:
        missing = min(q_fs - universe.term_set, key=render)
        raise EngineError(f"kernel query term outside universe: {render(missing)}")
    if session.memo.get((q_fs, FALSE)) is False:
        return frozenset()
    atoms = {atom for t in q_fs for atom in session.compiled(t).atoms}
    if len(atoms) <= limits.atom_cap and not session.entails(q_fs, FALSE, limits):
        return frozenset()
    candidates = [t for t in sorted(q_fs, key=render) if not session.entails(frozenset(), t, limits)]
    kernels: list[frozenset[Term]] = []
    for group in _components([session.compiled(t) for t in candidates]):
        members = [candidates[i] for i in group]
        if not session.entails(frozenset(members), FALSE, limits):
            continue
        if len(group) > limits.kernel_cap:
            raise CapacityError("kernel search base", limits.kernel_cap, len(group))
        kernels.extend(_all_minimal_inconsistent(members, session, limits))
    return frozenset(Kernel(k) for k in kernels)
