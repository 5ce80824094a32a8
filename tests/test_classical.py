from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from logag import (
    And,
    Atom,
    CapacityError,
    EngineError,
    Grade,
    Limits,
    Not,
    Or,
    parse_term as T,
    parse_theory,
    render,
)
from logag.classical import (
    FALSE,
    Kernel,
    Session,
    _Solver,
    _components,
    bottom_kernels,
    entails,
    entails_each,
    is_consistent,
    mutually_entailing,
    relevant_universe,
)
from oracles import brute_kernels, subterms, tt_entails, tt_satisfiable
from conftest import random_term


def terms(*texts):
    return frozenset(T(s) for s in texts)


def test_entails_modus_ponens_shape():
    assert entails(terms("~p | ~f", "p"), T("~f"))


def test_grading_term_is_opaque():
    assert not entails(terms("G(p, 2)"), T("p"))


def test_order_atoms_pre_evaluated():
    assert entails(frozenset(), T("2 < 3"))
    assert not entails(frozenset(), T("3 < 2"))
    assert entails(frozenset(), T("2 == 2"))


def test_term_table_numbers_atoms_by_term():
    session = Session()
    tower = T("G(G(f,2),3)")
    entry = session.compiled(tower)
    assert (entry.lit, entry.defs, entry.atoms) == (1, [], [1])  # a grading tower is one variable
    assert session.compiled(T("2 < 3")).lit is True  # folds to true
    assert session.compiled(T("3 < 2")).lit is False  # folds to false
    assert session.compiled(T("p")).lit == 2
    assert session.compiled(T("~p")).lit == -2  # reuses p's variable
    first, second = Atom("q", ()), Atom("q", ())
    assert first is not second
    assert session.compiled(first) is session.compiled(second)  # compiled once
    assert session.compiled(first).lit == 3
    conj = session.compiled(T("q & p"))
    assert (conj.lit, conj.vars, conj.atoms) == (4, [3, 2, 4], [3, 2])
    assert conj.defs == [[-4, 3], [-4, 2], [4, -3, -2]]
    assert [t for t, entry in session._table.items() if entry.atoms == [entry.lit]] == [tower, T("p"), first]


def test_consistency_examples():
    assert not is_consistent(terms("p", "~p"))
    assert not is_consistent(terms("p", "~p | ~f", "f"))
    assert is_consistent(terms("G(p, 2)", "G(~p, 2)"))


def test_atom_cap_enforced():
    base = frozenset(T(f"p{i}") for i in range(30))
    with pytest.raises(CapacityError):
        is_consistent(base, limits=Limits(atom_cap=24))


def test_atom_cap_counts_atoms_not_connectives():
    atoms = [Atom(f"p{i}") for i in range(24)]
    chain = atoms[0]
    for prev, a in zip(atoms, atoms[1:]):
        chain = And(chain, Or(a, Not(prev)))
    chain = And(chain, Or(Not(atoms[0]), atoms[23]))  # 48 `&` and `|` over 24 atoms
    assert is_consistent([chain])
    with pytest.raises(CapacityError):
        is_consistent([chain, Atom("p24")])


CONSTANTS = [T("true"), T("1 < 2"), T("2 < 1"), T("1 == 1")]


def term_with_constants(rng, atoms, depth):
    """Random term whose leaves mix atoms with ``true`` and grade-order atoms."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(CONSTANTS) if rng.random() < 0.4 else Atom(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.2:
        return Not(term_with_constants(rng, atoms, depth - 1))
    if roll < 0.3:
        return Grade(term_with_constants(rng, atoms, depth - 1), Fraction(rng.randint(1, 3)))
    op = And if roll < 0.65 else Or
    return op(term_with_constants(rng, atoms, depth - 1), term_with_constants(rng, atoms, depth - 1))


def test_satisfiable_and_entails_fold_constants_like_truth_tables(rng):
    atoms = ["a", "b", "c", "d"]
    for _ in range(300):
        base = frozenset(term_with_constants(rng, atoms, 3) for _ in range(rng.randint(0, 4)))
        goal = term_with_constants(rng, atoms, 3)
        assert is_consistent(base) == tt_satisfiable(base)
        assert entails(base, goal) == tt_entails(base, goal)


class Map:
    """A kernel search's map: one solver keeping each clause as it is pushed.

    ``model`` searches again from the unit clauses over an empty assignment,
    as the search does for each seed.
    """

    def __init__(self, n):
        self.n, self.solver, self.units, self.ok = n, _Solver(n), [], True

    def push(self, clause):
        self.ok = self.solver.push([list(clause)], self.units) and self.ok

    def model(self):
        self.solver.undo(0)
        if not (self.ok and self.solver.search(list(self.units), range(1, self.n + 1))):
            return None
        return {v for v in range(1, self.n + 1) if not self.solver.true[-v]}


def map_model(n, clauses):
    m = Map(n)
    for clause in clauses:
        m.push(clause)
    return m.model()


def random_clauses(rng):
    n = rng.randint(1, 6)
    clauses = [
        tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3 * n))
    ]
    return n, clauses


def satisfies(model, clauses):
    return all(any((lit > 0) == (abs(lit) in model) for lit in c) for c in clauses)


def test_solve_matches_brute_force_on_random_clause_sets(rng):
    for _ in range(400):
        n, clauses = random_clauses(rng)
        # Every assignment, as the set of its true variables, tried smallest
        # first, true first.
        assignments = [{v for v, b in enumerate(bits, start=1) if b} for bits in product((True, False), repeat=n)]
        m = Map(n)
        for k in range(len(clauses) + 1):
            first = next((a for a in assignments if satisfies(a, clauses[:k])), None)
            model = m.model()
            assert model == first
            if model is not None:
                assert satisfies(model, clauses[:k])
            if k < len(clauses):
                m.push(clauses[k])
        assert map_model(n, clauses) == first


def test_the_map_model_is_maximal(rng):
    # No false variable can be set true without falsifying a clause: the
    # kernel search's seeds need no grow step.
    checked = 0
    for _ in range(400):
        n, clauses = random_clauses(rng)
        model = map_model(n, clauses)
        if model is None:
            continue
        for v in set(range(1, n + 1)) - model:
            assert not satisfies(model | {v}, clauses)
            checked += 1
    assert checked > 100


def test_solve_without_clauses_sets_every_variable_true():
    assert map_model(5, []) == {1, 2, 3, 4, 5}
    assert map_model(0, []) == set()
    assert map_model(3, [()]) is None


def test_solve_never_branches_on_variables_outside_every_clause():
    # Variables 1..38 occur in no clause; backtracking over them would
    # repeat the refutation of 39 and 40 up to 2**38 times.
    xor_free = [(39, 40), (39, -40), (-39, 40), (-39, -40)]
    assert map_model(40, xor_free) is None
    assert map_model(40, xor_free[::3]) == set(range(1, 40))


def test_entails_each_matches_truth_tables_and_single_entails(rng):
    atoms = ["a", "b", "c", "d"]
    for i in range(150):
        base = frozenset(term_with_constants(rng, atoms, 3) for _ in range(rng.randint(0, 4)))
        if i % 5 == 0:
            base = frozenset()
        elif i % 5 == 1:
            base |= {T("2 < 1")}  # the base folds to false and entails everything
        goals = [term_with_constants(rng, atoms, 3) for _ in range(5)]
        goals += [T("true"), T("1 < 2"), T("2 < 1"), goals[0]]
        session = Session()
        for g in rng.sample(goals, 2):  # answers memoized before the batch starts
            entails(base, g, session=session)
        got = entails_each(base, goals, session=session)
        assert got == [tt_entails(base, g) for g in goals]
        assert session.memo == {(base, g): a for g, a in zip(goals, got)}
        assert got == [entails(base, g) for g in goals]
        assert got == [entails_each(base, [g])[0] for g in goals]


def test_entails_each_refuses_at_the_goal_that_passes_the_atom_cap():
    limits = Limits(atom_cap=4)
    base = terms("a", "b | c")
    goals = [T("a"), T("d"), T("e & f"), T("b")]  # base and the third goal: 5 atoms
    batch_session, single_session = Session(), Session()
    with pytest.raises(CapacityError) as batch:
        entails_each(base, goals, limits=limits, session=batch_session)
    singles = [entails(base, g, limits=limits, session=single_session) for g in goals[:2]]
    with pytest.raises(CapacityError) as single:
        entails(base, goals[2], limits=limits, session=single_session)
    for err in (batch.value, single.value):
        assert (err.what, err.limit, err.actual) == ("atom count", 4, 5)
    assert singles == [True, False]
    expected = {(base, g): a for g, a in zip(goals, singles)}
    assert batch_session.memo == single_session.memo == expected


def propagated(n, clauses, lits):
    """The literals propagating ``lits`` over ``clauses`` sets, on a new solver."""
    solver = _Solver(n)
    solver.push(clauses, [])
    assert solver.propagate(list(lits))
    return set(solver.trail)


def assert_only_the_base_is_loaded(session):
    """Between questions the solver holds every compiled clause once, and the loaded base's trail.

    Each distinct connective is compiled once, to three clauses; those whose
    variable the solver has room for are held exactly once, the others wait
    for the rebuild the next question makes. The trail is the propagation
    of the base's literals: at least over its own connectives' clauses, at
    most over every clause held.
    """
    solver = session._solver
    connectives = [entry.defs for entry in session._table.values() if entry.defs]
    defs = {clauses[2][0]: clauses for clauses in connectives}  # by the connective's variable
    assert len(defs) == len(connectives) and all(len(clauses) == 3 for clauses in connectives)
    held = Counter(id(clause) for clauses in solver.occurs for clause in clauses)
    assert held == Counter(id(c) for v in defs if v <= solver.n for c in defs[v] for _ in c)
    assert len(solver.trail) == session._trail_mark
    if session._base_false:
        return
    entries = [session.compiled(t) for t in session._base]
    lits = [entry.lit for entry in entries if entry.lit is not True]
    own = [c for v in {abs(v) for entry in entries for v in entry.vars} & set(defs) for c in defs[v]]
    everything = [c for v in defs if v <= solver.n for c in defs[v]]
    assert propagated(solver.n, own, lits) <= set(solver.trail) <= propagated(solver.n, everything, lits)


def test_one_session_answers_like_the_oracles_across_bases_goals_and_kernel_searches(rng):
    """A session's loaded base, pushed goals and term table leave no residue.

    Batches over changing bases (empty, folding to false, contradictory,
    random) alternate with single questions, mutual entailment and kernel
    searches on the same session, and a refused batch leaves the session
    answering correctly.
    """
    atoms = ["a", "b", "c", "d"]
    session = Session()
    bases = [frozenset(), terms("a", "b & (2 < 1)"), terms("a | b", "~a", "~b"), terms("c", "~c | d")]
    for _ in range(4):
        bases.append(frozenset(term_with_constants(rng, atoms, 3) for _ in range(rng.randint(1, 4))))
    fixed_goals = [T("true"), T("2 < 1"), T("a | ~a"), T("a & ~a"), T("d"), T("~d")]
    for i in range(150):
        base = rng.choice(bases)
        goals = [term_with_constants(rng, atoms, 3) for _ in range(4)] + rng.sample(fixed_goals, 2)
        goals += rng.sample(sorted(base, key=render), min(len(base), 1))  # a member of the base
        assert entails_each(base, goals, session=session) == [tt_entails(base, g) for g in goals]
        assert_only_the_base_is_loaded(session)
        goal = term_with_constants(rng, atoms, 3)
        assert entails(base, goal, session=session) == tt_entails(base, goal)
        assert is_consistent(base, session=session) == tt_satisfiable(base)
        other = rng.choice(bases)
        both_ways = all(tt_entails(other, t) for t in base) and all(tt_entails(base, t) for t in other)
        assert mutually_entailing(base, other, session=session) == both_ways
        assert_only_the_base_is_loaded(session)
        if i % 5 == 0:
            q = frozenset(term_with_constants(rng, atoms, 2) for _ in range(6))
            got = {k.members for k in bottom_kernels(q, relevant_universe(q), session=session)}
            assert got == brute_kernels(q)
            assert_only_the_base_is_loaded(session)
        if i % 25 == 0:  # the fourth goal passes the atom cap: 5 atoms with the base
            base = terms("a", "b | c")
            fresh = And(Atom(f"e{i}"), Atom(f"f{i}"))
            goals = [T("b"), term_with_constants(rng, ["a", "d"], 3), T("~a"), fresh, T("c")]
            with pytest.raises(CapacityError) as err:
                entails_each(base, goals, limits=Limits(atom_cap=4), session=session)
            assert (err.value.what, err.value.limit, err.value.actual) == ("atom count", 4, 5)
            assert all(session.memo[base, g] == tt_entails(base, g) for g in goals[:3])
            assert (base, goals[3]) not in session.memo
            assert_only_the_base_is_loaded(session)
            later = [term_with_constants(rng, ["a", "b", "c", "e"], 3) for _ in range(3)] + goals[3:]
            later.append(Or(fresh, Not(fresh)))
            assert entails_each(base, later, session=session) == [tt_entails(base, g) for g in later]
            assert_only_the_base_is_loaded(session)


def test_a_negated_order_finds_the_first_model_false_first(rng):
    # The session takes a base's second model this way: each variable of
    # the order negated, so the search tries it false first.
    for _ in range(400):
        n, clauses = random_clauses(rng)
        assignments = [{v for v, b in enumerate(bits, start=1) if b} for bits in product((False, True), repeat=n)]
        first = next((a for a in assignments if satisfies(a, clauses)), None)
        solver, queue = _Solver(n), []
        if solver.push([list(c) for c in clauses], queue) and solver.search(queue, [-v for v in range(1, n + 1)]):
            model = {v for v in range(1, n + 1) if solver.true[v]}  # unassigned reads false
            assert satisfies(model, clauses)
            assert model == first
        else:
            assert first is None


def test_settled_answers_match_truth_tables_in_any_question_order(rng):
    """Answers settled by the base's models or the memo agree with truth tables.

    One session takes bases in turn, some revisited, some inconsistent
    without a unit conflict; each batch asks compound goals with their parts
    in random order, so parts are memoized before or after, and ends with
    goals over atoms that no base mentions and that are compiled only after
    the base's models were taken. The memo holds exactly the questions asked.
    """
    atoms = ["a", "b", "c"]
    no_unit_conflict = terms("a | b", "a | ~b", "~a | b", "~a | ~b")
    session = Session()
    asked = {}
    bases = [no_unit_conflict]
    for i in range(150):
        if i % 3 == 0:
            bases.append(frozenset(term_with_constants(rng, atoms, 2) for _ in range(rng.randint(1, 4))))
        base = rng.choice(bases)
        goals = [term_with_constants(rng, atoms + ["d"], 3) for _ in range(6)]
        goals += [part for g in goals if isinstance(g, (And, Or)) for part in (g.left, g.right)]
        goals += [g.inner for g in goals if isinstance(g, Not)] + [Not(g) for g in goals[:3]]
        rng.shuffle(goals)
        fresh = Atom(f"e{i}")
        goals += [fresh, Not(fresh), Grade(fresh, Fraction(1)), Or(Atom("a"), fresh), And(Atom("a"), fresh)]
        for g in goals:
            asked[base, g] = tt_entails(base, g)
            assert entails(base, g, session=session) == asked[base, g], (sorted(map(render, base)), render(g))
        assert session.memo == asked


def test_a_literal_goal_a_base_model_leaves_false_or_open_is_not_searched(monkeypatch):
    base = terms("a | b", "c")  # true-first model: a, b, c; false-first: ~a, b, c
    session = Session()
    queues = []
    original = _Solver.search

    def spy(self, queue, order):
        queues.append(list(queue))
        return original(self, queue, order)

    monkeypatch.setattr(_Solver, "search", spy)
    goals = [T("a"), T("~a"), T("~c"), T("d"), T("~d"), T("G(a, 1)")]
    assert entails_each(base, goals, session=session) == [False] * len(goals)
    assert queues == [[], []]  # the two models, taken once; no goal reaches a search
    assert entails(base, T("c"), session=session)  # a member, then a disjunction with it as a part
    assert entails(base, T("c | d"), session=session) and len(queues) == 2
    assert entails(base, T("b"), session=session) is False and len(queues) == 3  # both models hold b


def test_a_consistency_search_keeps_its_model_as_the_base_true_first_model(monkeypatch):
    base = terms("a | b", "c")
    session, fresh = Session(), Session()
    queues = []
    original = _Solver.search

    def spy(self, queue, order):
        queues.append(list(queue))
        return original(self, queue, order)

    monkeypatch.setattr(_Solver, "search", spy)
    assert is_consistent(base, session=session) and queues == [[]]
    goals = [T("a"), T("~a"), T("d")]
    assert entails_each(base, goals, session=session) == [False] * len(goals)
    assert len(queues) == 2  # only the false-first model is searched for
    assert entails_each(base, goals, session=fresh) == [False] * len(goals)
    assert session._models == fresh._models and len(fresh._models) == 2


def test_entails_matches_truth_table_on_random_bases(rng):
    atoms = ["a", "b", "c", "d", "e", "f"]
    for _ in range(120):
        base = frozenset(random_term(rng, atoms, 3, allow_grades=True) for _ in range(4))
        goal = random_term(rng, atoms, 3, allow_grades=True)
        assert entails(base, goal) == tt_entails(base, goal)


def test_monotonicity_of_entailment(rng):
    atoms = ["a", "b", "c", "d"]
    for _ in range(60):
        base = frozenset(random_term(rng, atoms, 2, allow_grades=False) for _ in range(3))
        wider = base | {random_term(rng, atoms, 2, allow_grades=False)}
        goal = random_term(rng, atoms, 2, allow_grades=False)
        if entails(base, goal):
            assert entails(wider, goal)


def test_deduction_closure(rng):
    atoms = ["a", "b", "c"]
    for _ in range(60):
        base = frozenset(random_term(rng, atoms, 2, allow_grades=False) for _ in range(3))
        a = random_term(rng, atoms, 2, allow_grades=False)
        b = random_term(rng, atoms, 2, allow_grades=False)
        if entails(base, a) and entails(base, Or(Not(a), b)):
            assert entails(base, b)


# -- universe ----------------------------------------------------------------


def test_universe_closure_example():
    u = relevant_universe([T("G(p, 2)")], [T("~p")])
    assert set(u.terms) == {T("G(p, 2)"), T("p"), T("~p")}


def test_universe_contains_boolean_and_grading_subterms(penguin_brother):
    u = relevant_universe(penguin_brother)
    for s in ("~p | ~f", "~p", "p", "~f", "f", "w", "G(f, 2)", "G(G(f, 2), 3)"):
        assert T(s) in u.terms


def test_universe_of_empty_theory_is_extra_closure():
    u = relevant_universe([], [T("a & b")])
    assert set(u.terms) == {T("a & b"), T("a"), T("b")}


def test_universe_is_the_subterm_closure_with_one_object_per_term(rng):
    for _ in range(60):
        roots = [random_term(rng, ["a", "b", "c"], rng.randint(1, 4), True) for _ in range(rng.randint(1, 6))]
        roots += [T(render(t)) for t in roots[:2]]  # equal, distinct objects
        u = relevant_universe(roots)
        assert list(u.terms) == sorted({s for t in roots for s in subterms(t)}, key=render)
        ids = {id(t) for t in u.terms}
        assert len(ids) == len(u.terms)
        assert all(id(c) in ids for t in u.terms for c in subterms(t))


def test_a_shared_universe_is_not_rebuilt(penguin_brother):
    u = relevant_universe(penguin_brother)
    again = relevant_universe(u.terms)
    assert all(a is b for a, b in zip(u.terms, again.terms, strict=True))


# -- kernels -----------------------------------------------------------------


def test_kernels_whole_set_minimal():
    q = terms("p", "~p")
    u = relevant_universe(q)
    assert bottom_kernels(q, u) == {Kernel(q)}


def test_kernels_of_consistent_base_empty(penguin_brother):
    u = relevant_universe(penguin_brother)
    assert bottom_kernels(penguin_brother.terms, u) == frozenset()


def test_kernels_match_brute_force_on_random_bases(rng):
    atoms = ["a", "b", "c", "d"]
    for _ in range(40):
        q = frozenset(random_term(rng, atoms, 2, allow_grades=True) for _ in range(6))
        u = relevant_universe(q)
        got = {k.members for k in bottom_kernels(q, u)}
        assert got == brute_kernels(q)


def test_kernels_match_brute_force_across_components_with_false_members(rng):
    groups = (["a", "b"], ["c", "d"], ["e", "f"])
    for i in range(40):
        q = {term_with_constants(rng, g, 2) for g in groups for _ in range(rng.randint(1, 3))}
        if i % 2:
            q.add(And(Atom(rng.choice("ace")), T("2 < 1")))  # folds to false
        q = frozenset(q)
        u = relevant_universe(q)
        got = {k.members for k in bottom_kernels(q, u)}
        assert got == brute_kernels(q)


def test_kernel_search_checks_component_atoms_before_the_kernel_cap():
    # One component: 26 members (over kernel_cap 20) and 25 atoms (over atom_cap 24).
    q = frozenset(T(f"~x{i} | x{i + 1}") for i in range(24)) | terms("x0", "~x24")
    u = relevant_universe(q)
    with pytest.raises(CapacityError) as err:
        bottom_kernels(q, u)
    assert (err.value.what, err.value.limit, err.value.actual) == ("atom count", 24, 25)


def test_kernel_cap_enforced():
    q = frozenset(T(f"x | p{i}") for i in range(22)) | terms("x", "~x")
    u = relevant_universe(q)
    with pytest.raises(CapacityError):
        bottom_kernels(q, u, limits=Limits(kernel_cap=20))


# -- the whole-set check before the kernel search ----------------------------


def test_consistent_set_over_the_atom_cap_with_small_components_has_no_kernels():
    # Nine components of three atoms each: 27 atoms in all, over atom_cap 24.
    q = frozenset(T(f"a{i} | b{i} | c{i}") for i in range(9)) | frozenset(T(f"a{i}") for i in range(9))
    assert bottom_kernels(q, relevant_universe(q)) == frozenset()


def test_consistent_component_over_the_atom_cap_still_raises():
    # One component, consistent (every x true): 25 atoms, over atom_cap 24.
    q = frozenset(T(f"~x{i} | x{i + 1}") for i in range(24)) | terms("x0")
    with pytest.raises(CapacityError) as err:
        bottom_kernels(q, relevant_universe(q))
    assert (err.value.what, err.value.limit, err.value.actual) == ("atom count", 24, 25)


def test_repeated_consistent_set_is_answered_from_the_memo(monkeypatch):
    q = terms("a | b", "~a", "c & ~d", "G(p, 2)")
    u = relevant_universe(q)
    session = Session()
    assert bottom_kernels(q, u, session=session) == frozenset()
    assert session.memo[q, T("~true")] is False
    calls = []
    for cls, name in ((_Solver, "search"), (Session, "compiled")):
        original = getattr(cls, name)

        def counted(self, *args, original=original, name=name):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    assert bottom_kernels(frozenset(set(q)), u, session=session) == frozenset()
    assert calls == []


def test_kernel_query_outside_the_universe_names_the_first_missing_term():
    q = terms("z", "a", "b | c")
    session = Session()
    with pytest.raises(EngineError, match=r"outside universe: b \| c$"):
        bottom_kernels(q, relevant_universe(terms("a")), session=session)
    session.memo[q, FALSE] = False
    with pytest.raises(EngineError, match=r"outside universe: b \| c$"):
        bottom_kernels(q, relevant_universe(terms("a")), session=session)


def test_shared_session_kernels_match_brute_force_across_consistent_and_inconsistent_sets(rng):
    """One session answers whole-set checks and per-component searches alike.

    Sets drawing on one to three two-atom groups, plus a few literals (some
    of them one-member components, some grading atoms) and tautologies, are
    drawn, some of them again, under atom_cap 4: a set whose atoms go past
    it takes the per-component path, the others are checked whole first.
    Every consistency check is a memoized question ``(subset, ~true)`` and
    every tautology test one ``(frozenset(), member)``, so each kernel found
    is in the memo as inconsistent, and every such entry agrees with the
    truth tables, whether it was searched or settled by its literals.
    """
    groups = (["a", "b"], ["c", "d"], ["e", "f"])
    extras = [T(s) for s in ("g", "~g", "G(a, 2)", "~G(a, 2)", "~G(G(c, 1), 2)", "a | ~a", "G(b, 1) | ~G(b, 1)")]
    extras += CONSTANTS
    limits = Limits(atom_cap=4)
    session = Session()
    seen: list[frozenset] = []
    outcomes = set()
    for i in range(60):
        if seen and i % 4 == 3:
            q = frozenset(set(rng.choice(seen)))
        else:
            chosen = rng.sample(groups, rng.randint(1, 3))
            q = frozenset(term_with_constants(rng, g, 2) for g in chosen for _ in range(rng.randint(1, 3)))
            q |= frozenset(rng.sample(extras, rng.randint(0, 3)))
            seen.append(q)
        got = {k.members for k in bottom_kernels(q, relevant_universe(q), limits=limits, session=session)}
        assert got == brute_kernels(q)
        assert_only_the_base_is_loaded(session)
        assert all(session.memo.get((k, FALSE)) is True for k in got)
        whole = session.memo.get((q, FALSE))
        outcomes.add((whole, bool(got)))
    assert {(False, False), (True, True), (None, False), (None, True)} <= outcomes
    checks = [(base, answer) for (base, goal), answer in session.memo.items() if goal == FALSE]
    assert all(answer == (not tt_satisfiable(base)) for base, answer in checks)
    tautologies = [(goal, answer) for (base, goal), answer in session.memo.items() if not base and goal != FALSE]
    assert all(answer == tt_entails(frozenset(), goal) for goal, answer in tautologies)
    assert {True, False} <= {answer for _, answer in tautologies}


def test_a_kernel_search_builds_no_solver_but_one_map_per_inconsistent_component(monkeypatch, rng):
    """Every check is the session's question, answered on the session's solver.

    Over a session that has compiled the universe, so its solver needs no
    room, the only solvers a search builds are the maps of the components
    it searches, one item per member.
    """
    built = []
    init = _Solver.__init__

    def spy(self, n=0):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(_Solver, "__init__", spy)
    kernels_found = 0
    for _ in range(30):
        q = frozenset(term_with_constants(rng, ["a", "b", "c", "d"], 2) for _ in range(rng.randint(1, 6)))
        q |= frozenset(rng.sample([T("a"), T("~a"), T("a | ~a"), T("~a | b"), T("G(a, 1)")], 2))
        universe = relevant_universe(q)
        session = Session()
        is_consistent(universe.terms, session=session)  # every term compiled, and the solver sized
        solver = session._solver
        built.clear()
        got = {k.members for k in bottom_kernels(q, universe, session=session)}
        assert got == brute_kernels(q)
        kernels_found += bool(got)
        candidates = [t for t in sorted(q, key=render) if not tt_entails(frozenset(), t)]
        groups = [[candidates[i] for i in g] for g in _components([session.compiled(t) for t in candidates])]
        assert built == [len(g) for g in groups if not tt_satisfiable(g)]
        assert session._solver is solver
        assert_only_the_base_is_loaded(session)
    assert kernels_found >= 10


def test_a_goal_compiled_while_its_base_is_loaded_is_searched_on_each_of_its_variables():
    # The goal's clauses go in over the base's trail, where a, b, c and d are
    # true, so the third clauses of a & b and of c & d arrive unit, and
    # only assigning their variables visits them.
    session = Session()
    base = terms("a", "b", "c", "d")
    assert is_consistent(base, session=session) and session._solver.n >= 7
    assert entails(base, T("(a & b) & (c & d)"), session=session)
    assert_only_the_base_is_loaded(session)


def test_a_goal_that_outgrows_the_solver_reloads_the_base(rng):
    """Fresh atoms compiled while a base is loaded take the numbering past the solver.

    The question's search then rebuilds the solver with every clause and
    loads the base again; the answer is the truth tables', and that base
    alone stays loaded.
    """
    base = terms("a | b", "~a | c")
    session = Session()
    assert entails(base, T("b | c"), session=session)
    rebuilt, answers = 0, set()
    for i in range(12):
        solver = session._solver
        x, y = Atom(f"x{i}"), Atom(f"y{i}")
        part = term_with_constants(rng, ["a", "b", "c"], 2)
        goal = rng.choice([Or, And])(Or(part, And(x, Or(y, Not(x)))), Or(T("b | c"), And(y, Not(x))))
        answer = entails(base, goal, session=session)
        assert answer == tt_entails(base, goal), render(goal)
        answers.add(answer)
        rebuilt += session._solver is not solver
        assert session._base == base
        assert_only_the_base_is_loaded(session)
    assert rebuilt >= 2 and answers == {True, False}
