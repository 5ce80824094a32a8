import copy
import gc
import importlib.util
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from conftest import random_term, random_theory

from logag import (
    CapacityError,
    Canon,
    EngineError,
    Grade,
    GradeTable,
    Limits,
    Not,
    RunContext,
    Theory,
    default_indexing,
    find_fixpoint,
    graded_consequence,
    graded_consequences,
    parse_rules,
    parse_term as T,
    parse_theory,
    telescope_n,
    translate,
)
from logag.classical import (
    FALSE,
    Kernel,
    Session,
    entails,
    entails_each,
    is_consistent,
    mutually_entailing,
    relevant_universe,
)
from logag.errors import UngradedError
from logag.grading import depth1_expansion, fused_grade, supported, survives, telescope_once, trace_to_dict
from logag.terms import render
from logag import grading


def terms(*texts):
    return frozenset(T(s) for s in texts)


MEAN_MAX = lambda n: Canon("mean", "max", n)


def context(theory, otimes="mean", oplus="max", queries=()):
    return RunContext(theory.terms, relevant_universe(theory, queries), Canon(otimes, oplus, 0))


# -- chains and fusion -------------------------------------------------------


OPERATORS = [(otimes, oplus) for otimes in ("sum", "mean", "min", "max") for oplus in ("max", "min")]


def table(q, ctx, step):
    return GradeTable(q, Canon(ctx.canon.otimes, ctx.canon.oplus, step))


def buriers(grades, p):
    """The members of ``grades`` whose grading spine reaches ``p``, read from its tower index."""
    return [t for _, t, _ in grades.towers.get(p, ()) if t in grades.members]


def test_single_chain_from_nested_grading():
    q = terms("G(G(f, 2), 3)", "p")
    grades = GradeTable(q, Canon("sum", "max", 2))
    assert buriers(grades, T("f")) == [T("G(G(f, 2), 3)")]
    assert T("f") not in grades.graded and T("G(f, 2)") in grades.graded
    assert grades.fused(T("f")) == 5
    assert fused_grade(T("f"), q, Canon("min", "max", 2)) == 2
    assert fused_grade(T("f"), q, Canon("max", "max", 2)) == 3
    with pytest.raises(UngradedError):
        fused_grade(T("f"), q, Canon("sum", "max", 1))


def test_no_chain_for_ungraded():
    q = terms("q", "G(r, 1)")
    grades = GradeTable(q, Canon("sum", "max", 5))
    assert not buriers(grades, T("p")) and T("p") not in grades.graded
    with pytest.raises(UngradedError):
        grades.fused(T("p"))


def test_every_present_nesting_yields_a_chain():
    q = terms("G(f, 2)", "G(G(f, 2), 3)")
    assert set(buriers(GradeTable(q, Canon("sum", "max", 2)), T("f"))) == q
    # The short chain (2) and the long one (2, 3) are both fused.
    assert fused_grade(T("f"), q, Canon("sum", "max", 2)) == 5
    assert fused_grade(T("f"), q, Canon("sum", "min", 2)) == 2
    assert fused_grade(T("f"), q, Canon("sum", "max", 1)) == 2


def random_towers(rng):
    q = set()
    for _ in range(rng.randint(1, 6)):
        t = rng.choice([T("a"), T("~a"), T("a | b")] + [random_term(rng, ["a", "b"], 2, True)])
        for _ in range(rng.randint(0, 4)):
            t = Grade(t, Fraction(rng.randint(1, 3)))
        q.add(t)
    candidates = {s for t in q for s in oracles.subterms(t)} | {T("c"), T("G(c, 1)"), T("~b")}
    return q, candidates


def test_grading_chains_match_the_witness_table(rng):
    for _ in range(60):
        q, candidates = random_towers(rng)
        for members in (q, frozenset(q)):
            grades = GradeTable(members, Canon("sum", "max", 5))
            for p in candidates:
                chains = oracles.peeled_chains(p, q)
                assert (p in grades.graded) == any(len(g) == 1 for _, g in chains), (p, q)
                found = buriers(grades, p)
                assert set(found) == {m for m in q if oracles.peeled_chains(p, {m})}, (p, q)
                # Each burier carries exactly one chain of p: the grades on its spine.
                assert sorted(g for m in found for _, g in oracles.peeled_chains(p, {m})) == sorted(
                    g for _, g in chains
                )
                for m in found:
                    ((_, g),) = oracles.peeled_chains(p, {m})
                    assert fused_grade(p, [m], Canon("sum", "max", len(g))) == sum(g)
                    with pytest.raises(UngradedError):
                        fused_grade(p, [m], Canon("sum", "max", len(g) - 1))


def test_fused_grade_matches_the_fusion_oracle(rng):
    for _ in range(40):
        q, candidates = random_towers(rng)
        for canon in (Canon(*ops, level) for ops in OPERATORS for level in range(6)):
            grades = GradeTable(q, canon)
            for p in candidates:
                try:
                    expected = oracles.fused_grade(p, q, canon)
                except UngradedError:
                    with pytest.raises(UngradedError):
                        fused_grade(p, q, canon)
                    continue
                assert fused_grade(p, q, canon) == grades.fused(p) == expected, (p, q, canon)


def test_fused_grade_mean_max():
    q = terms("G(f, 2)", "G(G(f, 2), 3)", "G(p, 2)")
    assert fused_grade(T("f"), q, MEAN_MAX(2)) == Fraction(5, 2)
    assert fused_grade(T("p"), q, MEAN_MAX(2)) == Fraction(2)


def test_fused_grade_all_ones_chain_sums_to_length():
    tower = T("G(G(G(x, 1), 1), 1)")
    q = frozenset([tower])
    assert fused_grade(T("x"), q, Canon("sum", "max", 3)) == 3


def test_fused_grade_level_limits_chains():
    q = terms("G(x, 1)", "G(G(x, 1), 1)", "G(G(G(x, 1), 1), 1)")
    assert fused_grade(T("x"), q, Canon("sum", "max", 1)) == 1
    assert fused_grade(T("x"), q, Canon("sum", "max", 2)) == 2
    assert fused_grade(T("x"), q, Canon("sum", "max", 5)) == 3


def test_fused_grade_on_ungraded_raises():
    with pytest.raises(UngradedError):
        fused_grade(T("p"), terms("q"), MEAN_MAX(1))


# -- expansion ---------------------------------------------------------------


def test_expansion_of_base_theory(penguin_brother):
    q = depth1_expansion(penguin_brother.terms, context(penguin_brother))
    assert q == penguin_brother.terms | terms("p", "G(f, 2)")


def test_expansion_strips_one_layer_per_step(penguin_brother):
    ctx = context(penguin_brother)
    level1 = telescope_once(penguin_brother.terms, 0, ctx).supported
    q2 = depth1_expansion(level1, ctx)
    filter_rep = {u for u in ctx.universe.terms if entails(level1, u)}
    assert q2 == frozenset(filter_rep) | {T("f")}
    assert T("~f") in q2 and T("w") in q2


def test_expansion_without_gradings_adds_no_new_content():
    th = parse_theory("p.\np -> q.\n")
    q = depth1_expansion(th.terms, context(th))
    assert all(entails(th.terms, t) for t in q)


def test_a_step_that_releases_nothing_asks_about_its_base_not_its_expansion(monkeypatch):
    """Its expansion is the base's filter, consistent exactly when the base is.

    Within ``atom_cap`` the step asks about the still-loaded base and loads
    no expansion; past it, the kernel search runs as before, and a component
    over the cap raises.
    """
    loaded = []
    load = Session._load

    def spy(self, base):
        loaded.append(base)
        return load(self, base)

    monkeypatch.setattr(Session, "_load", spy)
    # Step 0 releases p; step 1's base holds it, so G(p, 1) releases nothing.
    trace = telescope_n(parse_theory("G(p, 1).\n~p | q.\n"), Canon("sum", "max", 1))
    record = trace.levels[1]
    assert record.expansion == trace.context.filter(record.base) > record.base
    assert record.kernels == frozenset()
    assert record.expansion not in loaded
    # No grading term releases anything, but the entailed x0 | y and x1 | z
    # take the expansion's one component to 4 atoms, past atom_cap 3.
    th = parse_theory("x0.\n~x0 | x1.\n")
    with pytest.raises(CapacityError) as err:
        telescope_n(th, Canon("sum", "max", 1), [T("x0 | y"), T("x1 | z")], Limits(atom_cap=3))
    assert (err.value.what, err.value.limit, err.value.actual) == ("atom count", 3, 4)


@pytest.mark.parametrize(
    "text, pair, kernels",
    [("G(p, 1).\nq.\n", False, 0), ("G(p & q, 1).\n~p | ~q.\n", False, 1), ("G(p, 1).\n~p.\n", True, 1)],
    ids=["consistent", "inconsistent", "pair"],
)
def test_a_releasing_step_asks_about_its_expansion_once_in_the_kernel_search(monkeypatch, text, pair, kernels):
    """The kernel search's whole-set question asks about the expansion, once.

    So it goes whether or not a member and its negation are both in the
    expansion. The question loads it, and the step's later questions about
    it, such as the fixpoint test's, find it loaded.
    """
    asked, loaded, searching = [], [], []
    ask, load, search = Session.entails, Session._load, grading.bottom_kernels

    def spy_ask(self, base, goal, limits):
        if (base, goal) not in self.memo:
            asked.append((base, goal, bool(searching)))
        return ask(self, base, goal, limits)

    def spy_load(self, base):
        loaded.append(base)
        return load(self, base)

    def spy_search(*args, **kwargs):
        searching.append(True)
        try:
            return search(*args, **kwargs)
        finally:
            searching.pop()

    monkeypatch.setattr(Session, "entails", spy_ask)
    monkeypatch.setattr(Session, "_load", spy_load)
    monkeypatch.setattr(grading, "bottom_kernels", spy_search)
    trace = telescope_n(parse_theory(text), Canon("sum", "max", 1))
    record = trace.levels[0]
    assert record.expansion > trace.context.filter(record.base)
    assert any(isinstance(t, Not) and t.inner in record.expansion for t in record.expansion) == pair
    assert [inside for base, goal, inside in asked if (base, goal) == (record.expansion, FALSE)] == [True]
    assert loaded.count(record.expansion) == 1
    assert len(record.kernels) == kernels
    assert trace.context.session.memo[record.expansion, FALSE] == bool(kernels)


# -- survival ----------------------------------------------------------------


@pytest.fixture
def level2_scene(penguin_brother):
    """The run's context, level 1's expansion, and the step leaving level 1."""
    ctx = context(penguin_brother)
    level1 = telescope_once(penguin_brother.terms, 0, ctx).supported
    q2 = depth1_expansion(level1, ctx)
    return ctx, q2, telescope_once(level1, 1, ctx)


def test_ungraded_member_survives(level2_scene):
    ctx, q2, _ = level2_scene
    kernel = Kernel(terms("f", "~f"))
    assert survives(T("~f"), kernel, table(q2, ctx, 2), ctx)


def test_weaker_graded_member_falls(level2_scene):
    ctx, q2, _ = level2_scene
    kernel = Kernel(terms("p", "~p | ~f", "f"))
    grades = table(q2, ctx, 2)
    assert not survives(T("p"), kernel, grades, ctx)
    assert survives(T("f"), kernel, grades, ctx)


def test_equal_grades_fall_together():
    th = parse_theory("G(a, 3).\nG(b, 3).\n~a | ~b.\n")
    ctx = context(th, "sum", "max")
    q = depth1_expansion(th.terms, ctx)
    kernel = Kernel(terms("a", "b", "~a | ~b"))
    grades = table(q, ctx, 1)
    assert not survives(T("a"), kernel, grades, ctx)
    assert not survives(T("b"), kernel, grades, ctx)


def test_survivors_level2(level2_scene):
    _, q2, step = level2_scene
    assert step.expansion == q2
    assert step.survivors == q2 - {T("p")}


def test_survivors_of_kernel_free_set(penguin_brother):
    ctx = context(penguin_brother)
    q = depth1_expansion(penguin_brother.terms, ctx)
    step = telescope_once(penguin_brother.terms, 0, ctx)
    assert step.expansion == q and not step.kernels
    assert step.survivors == q


def test_symmetric_ungraded_pair_both_survive():
    th = parse_theory("q.\n")
    ctx = context(th, "sum", "max", queries=[T("p"), T("~p")])
    q = frozenset({T("p"), T("~p"), T("q")})
    assert survives(T("p"), Kernel(terms("p", "~p")), table(q, ctx, 1), ctx)
    assert survives(T("~p"), Kernel(terms("p", "~p")), table(q, ctx, 1), ctx)


# Theory 44 of the random-batch stream for seed 1: ``~p5`` is buried three
# layers deep in the top theory and two in its first expansion.
BURIED_THEORY = (
    "G((p4 | p1) & p5, 4).\nG(G(G(~p5, 2), 3), 1).\np4.\np7.\np9.\n~(p5 | p3).\n~p5 | (p9 | p7).\n"
)


def test_a_proposition_without_an_immediate_grader_is_ungraded():
    th = parse_theory(BURIED_THEORY)
    ctx = context(th, "sum", "max")
    q = depth1_expansion(th.terms, ctx)
    grades = table(q, ctx, 1)
    assert T("~p5") in q and buriers(grades, T("~p5")) and T("~p5") not in grades.graded
    kernel = Kernel(terms("(p4 | p1) & p5", "~p5"))
    assert survives(T("~p5"), kernel, grades, ctx)
    assert not survives(T("(p4 | p1) & p5"), kernel, grades, ctx)


def test_survivors_match_the_survival_oracle(rng):
    for _ in range(40):
        th = random_theory(rng, n_terms=rng.randint(2, 5), atoms=["a", "b", "c"], allow_grades=True)
        otimes, oplus = rng.choice(OPERATORS)
        for record in telescope_n(th, Canon(otimes, oplus, 3)).levels:
            kernels = [k.members for k in record.kernels]
            canon = Canon(otimes, oplus, record.index + 1)
            assert record.survivors == oracles.survivors(record.expansion, kernels, th.terms, canon)


def test_supported_sets_match_the_support_oracle(rng):
    for _ in range(40):
        th = random_theory(rng, n_terms=rng.randint(2, 5), atoms=["a", "b", "c"], allow_grades=True)
        for otimes, oplus in OPERATORS:
            for record in telescope_n(th, Canon(otimes, oplus, 3)).levels:
                expected = oracles.supported(record.survivors, record.expansion, th.terms)
                assert record.supported == expected, (th, otimes, oplus, record.index)


# -- support -----------------------------------------------------------------


def test_top_theory_is_self_supported(penguin_brother):
    ctx = context(penguin_brother)
    q = penguin_brother.terms
    assert supported(q, table(q, ctx, 1), ctx) == q


def test_support_drops_orphaned_consequences(level2_scene):
    ctx, _, step = level2_scene
    survivors = step.survivors
    got = supported(survivors, table(step.expansion, ctx, 2), ctx)
    assert got == step.supported
    assert got == survivors - {T("~f"), T("w")}


def test_supported_set_is_top_closure_plus_graded_members(level2_scene):
    ctx, _, step = level2_scene
    survivors = step.survivors
    got = supported(survivors, table(survivors, ctx, 2), ctx)
    top_part = {u for u in ctx.universe.terms if entails(ctx.top, u)}
    chain_part = got - top_part
    assert all(oracles.peeled_chains(p, survivors) for p in chain_part)


def test_support_reaches_through_every_layer_of_a_member():
    # f's only witness buries it two layers deep, and the layer between is
    # not in the set.
    theory = parse_theory("theory deep.\nG(G(f, 2), 3).\n")
    q, ctx = terms("G(G(f, 2), 3)", "f"), context(theory)
    assert T("f") in supported(q, table(q, ctx, 1), ctx)


# Step 2 evicts ``G(b, 1) & (b & a)``, the only support of the surviving
# ``G(b, 1)``, which is in turn the only burier of the surviving ``b``.
UNSUPPORTED_BURIER = (
    "G(G(G(a, 1), 1), 1).\nG(G(G(a, 1), 3), 1).\nG(G(G(b, 1) & (b & a), 2), 1).\nG(G(G(~a, 3), 3), 2).\n"
)


def test_a_member_buried_only_by_an_unsupported_survivor_drops_out():
    th = parse_theory(UNSUPPORTED_BURIER)
    for otimes, oplus in OPERATORS:
        step = telescope_n(th, Canon(otimes, oplus, 4)).levels[2]
        assert terms("G(b, 1)", "b") <= step.survivors
        assert not terms("G(b, 1)", "b") & step.supported
        assert step.supported == oracles.supported(step.survivors, step.expansion, th.terms)


# -- telescoping -------------------------------------------------------------


def test_level1_base(penguin_brother):
    ctx = context(penguin_brother)
    level1 = telescope_once(penguin_brother.terms, 0, ctx).supported
    filter_rep = {
        u for u in ctx.universe.terms if entails(penguin_brother.terms, u)
    }
    assert level1 == frozenset(filter_rep) | terms("p", "G(f, 2)")


def test_level2_excludes_p_and_not_f(penguin_brother):
    trace = telescope_n(penguin_brother, MEAN_MAX(2))
    base2 = trace.levels[2].base
    assert not entails(base2, T("p"))
    assert not entails(base2, T("~f"))


def test_consistency_preserved_when_top_consistent(penguin_brother):
    trace = telescope_n(penguin_brother, MEAN_MAX(3))
    for level in trace.levels:
        assert is_consistent(level.base)


def test_trace_shape(penguin_brother):
    trace = telescope_n(penguin_brother, MEAN_MAX(3))
    assert trace.levels[0].base == penguin_brother.terms
    for i in range(3):
        assert trace.levels[i + 1].base == trace.levels[i].supported


@pytest.mark.parametrize(
    "fixture, otimes",
    [("penguin_brother", "mean"), ("ot1", "sum"), ("penguin_rules_theory", "sum")],
)
def test_traces_are_prefix_consistent(request, fixture, otimes):
    theory = request.getfixturevalue(fixture)
    top = 6
    full = telescope_n(theory, Canon(otimes, "max", top)).levels
    for k in range(top + 1):
        assert telescope_n(theory, Canon(otimes, "max", k)).levels == full[: k + 1], k


def test_level_zero_trace_is_theory(penguin_brother):
    trace = telescope_n(penguin_brother, MEAN_MAX(0))
    assert len(trace.levels) == 1
    assert trace.levels[0].base == penguin_brother.terms


def test_graded_consequence_levels(penguin_brother):
    canon1 = MEAN_MAX(1)
    assert graded_consequence(penguin_brother, canon1, T("p"))
    assert graded_consequence(penguin_brother, canon1, T("w"))
    assert graded_consequence(penguin_brother, canon1, T("~f"))
    canon2 = MEAN_MAX(2)
    assert not graded_consequence(penguin_brother, canon2, T("p"))
    assert not graded_consequence(penguin_brother, canon2, T("~f"))
    assert graded_consequence(penguin_brother, canon2, T("f"))


def test_level_zero_reduces_to_classical(penguin_brother):
    canon0 = MEAN_MAX(0)
    for q in (T("p"), T("~p | ~f"), T("G(p, 2)")):
        assert graded_consequence(penguin_brother, canon0, q) == entails(
            penguin_brother.terms, q
        )


def test_fixpoint_detection(penguin_brother, ot1):
    level, trace = find_fixpoint(penguin_brother, "mean", "max", 6)
    assert level == 2
    assert trace.levels[2].fixpoint_reached
    level, _ = find_fixpoint(ot1, "sum", "max", 4)
    assert level == 1


def test_no_fixpoint_reported_within_levels_0_to_2_of_penguin_rules_theory(penguin_rules_theory):
    level, trace = find_fixpoint(penguin_rules_theory, "sum", "max", 3)
    assert level is None
    assert len(trace.levels) == 3
    assert not any(lv.fixpoint_reached for lv in trace.levels)
    assert find_fixpoint(penguin_rules_theory, "sum", "max", 40)[0] == 3


def test_find_fixpoint_compares_at_least_one_pair_of_levels(penguin_brother):
    level, trace = find_fixpoint(penguin_brother, "mean", "max", 1)
    assert (level, [lv.fixpoint_reached for lv in trace.levels]) == (None, [False])
    with pytest.raises(ValueError):
        find_fixpoint(penguin_brother, "mean", "max", 0)


def test_find_fixpoint_of_an_inconsistent_theory_is_level_0():
    level, trace = find_fixpoint(parse_theory("p.\n~p.\nq | r.\n"), "sum", "max", 4)
    assert level == 0
    (record,) = trace.levels
    everything = frozenset(trace.context.universe.terms)
    assert record.fixpoint_reached
    assert record.expansion == record.supported == everything
    assert record.kernels == frozenset()


WIDE = Limits(atom_cap=256)


def _seeded_theories(rng):
    """Random theories, then translated random rule systems ``translate`` accepts."""
    for _ in range(20):
        yield random_theory(rng, n_terms=rng.randint(2, 6), atoms=["a", "b", "c", "d"], allow_grades=True)
    for _ in range(20):
        rules = oracles.random_rule_system(rng)
        try:
            yield translate(rules, default_indexing(rules))
        except EngineError:
            continue


@pytest.mark.parametrize("otimes, oplus", [("sum", "max"), ("mean", "min")])
def test_steps_read_from_the_filter_table_match_fresh_sessions(rng, otimes, oplus):
    """A run asks each base's filter once; a fresh context asking anew agrees.

    Each level's expansion and fixpoint flag are recomputed in a new
    ``RunContext``, with its own session and an empty filter table. An
    inconsistent theory's levels are the improper filter and are skipped.
    """
    checked = 0
    for th in _seeded_theories(rng):
        if not is_consistent(th.terms, limits=WIDE):
            continue
        trace = telescope_n(th, Canon(otimes, oplus, 4), limits=WIDE)
        for record in trace.levels:
            fresh = RunContext(th.terms, trace.context.universe, Canon(otimes, oplus, 4), WIDE)
            assert record.expansion == depth1_expansion(record.base, fresh)
            assert record.fixpoint_reached == mutually_entailing(record.supported, record.base, limits=WIDE)
            checked += 1
    assert checked >= 100


def test_a_run_asks_the_top_theory_for_its_filter_once(penguin_rules_theory, monkeypatch):
    bases = []
    entails_each = grading.entails_each

    def counted(base, goals, **kwargs):
        bases.append(base)
        return entails_each(base, goals, **kwargs)

    monkeypatch.setattr(grading, "entails_each", counted)
    trace = telescope_n(penguin_rules_theory, Canon("sum", "max", 8))
    assert len(trace.levels) == 9
    assert bases.count(trace.context.top) == 1
    assert len(bases) == len(set(bases))


CHAIN3_RULES = """
f0: a0.
n0: a0 => a1.
m0: a1 -> ~b0.
d0: a0 => b0.
d1: a0 => b1.
"""


def _translated(request, name):
    if name == "penguin":
        return request.getfixturevalue("penguin_rules_theory")
    rules = parse_rules(CHAIN3_RULES)
    return translate(rules, default_indexing(rules), WIDE)


@pytest.mark.parametrize("name", ["penguin", "chain3"])
def test_a_run_holds_one_object_per_term(request, name):
    trace = telescope_n(_translated(request, name), Canon("sum", "max", 8), limits=WIDE)
    ctx = trace.context
    shared = {id(t) for t in ctx.universe.terms}
    assert all(id(c) in shared for t in ctx.universe.terms for c in oracles.subterms(t))
    held = [ctx.top]
    for record in trace.levels:
        held += [record.base, record.expansion, record.survivors, record.supported]
        held += [k.members for k in record.kernels]
    assert any(record.kernels for record in trace.levels)
    assert all(id(t) in shared for ts in held for t in ts)


@pytest.mark.parametrize("name", ["penguin", "chain3"])
def test_a_theory_of_unshared_copies_traces_the_same(request, name):
    theory = _translated(request, name)
    copies = Theory(theory.name, theory.domains, frozenset(copy.deepcopy(t) for t in theory.terms))
    assert not {id(t) for t in copies.terms} & {id(t) for t in theory.terms}
    canon = Canon("sum", "max", 8)
    assert trace_to_dict(telescope_n(copies, canon, limits=WIDE)) == trace_to_dict(
        telescope_n(theory, canon, limits=WIDE)
    )


def test_refuted_matches_entailment_of_the_negation(rng):
    checked = 0
    for th in _seeded_theories(rng):
        negations = [Not(t) for t in sorted(th.terms, key=render)[:2]]
        ctx = RunContext(th.terms, relevant_universe(th, negations), Canon("sum", "max", 0), WIDE)
        for t in ctx.universe.terms:
            assert ctx.refuted(t) == entails(ctx.top, Not(t), limits=WIDE)
            checked += Not(t) in ctx.universe.term_set
    assert checked >= 50


def test_survival_asks_each_refutation_once_per_run(penguin_rules_theory, monkeypatch):
    goals = []
    entails = grading.entails

    def counted(base, goal, **kwargs):
        goals.append(goal)
        return entails(base, goal, **kwargs)

    monkeypatch.setattr(grading, "entails", counted)
    trace = telescope_n(penguin_rules_theory, Canon("sum", "max", 8))
    negations = [g for g in goals if isinstance(g, Not)]
    assert len(negations) == len(set(negations))
    assert set(trace.context.refutations) <= set(trace.context.universe.terms)


def test_inconsistent_theory_still_answers_classically():
    th = parse_theory("p.\n~p.\nq | r.\n")
    for n in (0, 1, 3):
        assert graded_consequence(th, Canon("sum", "max", n), T("q | r"))
        assert graded_consequence(th, Canon("sum", "max", n), T("~q"))


def test_graded_consequences_with_a_deeply_buried_conflict_member():
    queries = [T("p4"), T("p0"), T("p7")]
    got = graded_consequences(parse_theory(BURIED_THEORY), Canon("sum", "max", 4), queries)
    assert got == {T("p4"): True, T("p0"): False, T("p7"): True}


def _spine(t):
    depth = 0
    while isinstance(t, Grade):
        depth, t = depth + 1, t.inner
    return depth


def _tower(rng, core, depth):
    for _ in range(depth):
        core = Grade(core, Fraction(rng.randint(1, 5)))
    return core


def _settle_cases(rng):
    """Seeded theories with queries: plain, with nested towers, inconsistent.

    Every case's last query carries one or two more grading layers than the
    deepest spine of its theory.
    """
    atoms = ["a", "b", "c", "d"]
    for i in range(20):
        terms = set(random_theory(rng, n_terms=rng.randint(2, 6), atoms=atoms, allow_grades=True).terms)
        if i % 3 == 1:
            for _ in range(rng.randint(1, 3)):
                core = random_term(rng, atoms, 1, False)
                terms.add(_tower(rng, core, rng.randint(1, 5)))
                if rng.random() < 0.5:
                    terms.add(_tower(rng, Not(core), rng.randint(1, 5)))
        if i % 5 == 4:
            terms |= {T("a"), T("~a")}
        deepest = max(_spine(s) for t in terms for s in oracles.subterms(t))
        queries = [random_term(rng, atoms, 2, True) for _ in range(2)]
        queries.append(_tower(rng, random_term(rng, atoms, 1, False), deepest + rng.randint(1, 2)))
        yield Theory("settle", (), frozenset(terms)), queries


def test_graded_consequences_stops_at_the_first_settled_step(rng, monkeypatch):
    """Answers equal the traced level's; steps run are 0..L-1 up to the settled one.

    A step is settled when it cuts no chain (``index + 1`` reaches the
    deepest spine of the run's universe) and reaches a fixpoint; every later
    traced base repeats its supported set. An inconsistent top theory takes
    no step at all.
    """
    steps = []
    step = grading.telescope_once

    def counted(base, index, ctx):
        steps.append(index)
        return step(base, index, ctx)

    monkeypatch.setattr(grading, "telescope_once", counted)
    cases = inconsistent = settled_early = 0
    for th, queries in _settle_cases(rng):
        consistent = is_consistent(th.terms, limits=WIDE)
        inconsistent += not consistent
        for otimes, oplus in OPERATORS:
            full = telescope_n(th, Canon(otimes, oplus, 6), queries, WIDE)
            depth = max(_spine(t) for t in full.context.universe.terms)
            settled = next(
                (lv.index for lv in full.levels if lv.fixpoint_reached and lv.index + 1 >= depth), None
            )
            if settled is not None:
                assert all(lv.base == full.levels[settled].supported for lv in full.levels[settled + 1 :])
            for level in range(7):
                canon = Canon(otimes, oplus, level)
                base = telescope_n(th, canon, queries, WIDE).levels[-1].base
                expected = dict(zip(queries, entails_each(base, queries, limits=WIDE)))
                steps.clear()
                assert graded_consequences(th, canon, queries, WIDE) == expected
                taken = level if settled is None else min(level, settled + 1)
                assert steps == (list(range(taken)) if consistent else [])
                settled_early += consistent and taken < level
                cases += 1
    assert cases == 20 * 8 * 7
    assert inconsistent >= 4 and settled_early >= 100


def test_a_fixpoint_reached_while_the_cut_still_binds_is_not_final():
    """A translated seeded system: steps 2 and 3 reach a fixpoint, step 4 does not.

    Its deepest spine is 7 grading layers, so steps 2 and 3 still cut
    chains, and level 5 entails ``d`` where level 3 does not.
    """
    rules = parse_rules(
        "f0: b.\nf1: true.\nd0: true => ~b.\nd1: ~c, ~c => ~a.\n"
        "d2: b, true => d.\nm3: b -> b.\nm4: true, ~b -> b.\n"
    )
    th = translate(rules, default_indexing(rules))
    trace = telescope_n(th, Canon("sum", "max", 4), limits=WIDE)
    assert [lv.fixpoint_reached for lv in trace.levels] == [False, False, True, True, False]
    answers = {n: graded_consequence(th, Canon("sum", "max", n), T("d"), WIDE) for n in (3, 5)}
    assert answers == {3: False, 5: True}


def test_a_capacity_limit_only_the_unread_step_hits_stops_no_answer():
    """Level 1 reads step 0 only; step 1, which meets the kernel, is not taken."""
    th = parse_theory("G(G(a, 1), 1). G(G(~a, 1), 1).")
    tight = Limits(kernel_cap=1)
    assert graded_consequences(th, Canon("sum", "max", 1), [T("a")], tight) == {T("a"): False}
    with pytest.raises(CapacityError):
        graded_consequences(th, Canon("sum", "max", 2), [T("a")], tight)
    with pytest.raises(CapacityError):
        telescope_n(th, Canon("sum", "max", 1), limits=tight)


def test_ot1_level1(ot1):
    canon = Canon("sum", "max", 1)
    res = graded_consequences(
        ot1,
        canon,
        [T("Flies(Tweety)"), T("~Flies(Opus)"), T("G(Flies(Opus), 5)"), T("Flies(Opus)")],
    )
    assert res[T("Flies(Tweety)")]
    assert res[T("~Flies(Opus)")]
    assert res[T("G(Flies(Opus), 5)")]
    assert not res[T("Flies(Opus)")]


def test_ot2_level1(ot2):
    canon = Canon("sum", "max", 1)
    assert graded_consequence(ot2, canon, T("~Flies(Opus)"))
    assert not graded_consequence(ot2, canon, T("Flies(Tweety)"))


def test_trace_export_schema(penguin_brother):
    doc = trace_to_dict(telescope_n(penguin_brother, MEAN_MAX(2)))
    assert doc["canon"] == {"otimes": "mean", "oplus": "max", "level": 2}
    assert [lv["index"] for lv in doc["levels"]] == [0, 1, 2]
    level1 = doc["levels"][1]
    assert set(level1) == {
        "index",
        "base",
        "expansion",
        "kernels",
        "survivors",
        "supported",
        "fixpoint",
    }
    assert level1["kernels"] == [
        ["f", "p", "~p | ~f"],
        ["f", "~f"],
    ]


def test_each_trace_reports_the_canon_its_run_was_given(penguin_brother, ot1):
    """Both trace producers: ``find_fixpoint`` runs at level ``max_n - 1``."""
    _, trace = find_fixpoint(penguin_brother, "mean", "max", 6)
    assert trace_to_dict(trace)["canon"] == {"otimes": "mean", "oplus": "max", "level": 5}
    for canon in (Canon("min", "min", 0), Canon("sum", "max", 3)):
        trace = telescope_n(ot1, canon)
        assert trace.context.canon == canon
        assert trace_to_dict(trace)["canon"] == {"otimes": canon.otimes, "oplus": canon.oplus, "level": canon.level}


def test_determinism(penguin_brother):
    a = trace_to_dict(telescope_n(penguin_brother, MEAN_MAX(3)))
    b = trace_to_dict(telescope_n(penguin_brother, MEAN_MAX(3)))
    assert a == b


def test_a_run_session_goes_with_its_trace_without_the_cycle_collector(ot1):
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace = telescope_n(ot1, Canon("sum", "max", 2))
        session = weakref.ref(trace.context.session)
        del trace
        assert session() is None
    finally:
        if enabled:
            gc.enable()


def test_capacity_refusals_match_the_golden_file():
    """Where ``graded_consequences`` refuses, and with what, is pinned.

    ``tests/data/capacity_refusals.json`` records, for ``atom_cap`` 6, 8, 10
    and 14, each of the first 200 theories of seed 4 of
    ``benchmarks/theories.py`` at sum/max level 4: its answers, or the
    ``CapacityError``'s ``[what, limit, actual]``. A change to how the SAT
    layer asks its questions moves refusal points first; regenerate the file
    only for a change meant to move them.
    """
    root = Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location("bench_theories", root / "benchmarks" / "theories.py")
    theories = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(theories)
    golden = json.loads((root / "tests" / "data" / "capacity_refusals.json").read_text())
    assert sorted(golden, key=int) == ["6", "8", "10", "14"]
    for cap, outcomes in golden.items():
        assert len(outcomes) == 200
        for i, expected in enumerate(outcomes):
            theory, queries = theories.theory(4, i)
            try:
                answers = graded_consequences(theory, theories.CANON, queries, Limits(atom_cap=int(cap)))
                got = {render(q): answer for q, answer in answers.items()}
            except CapacityError as err:
                got = [err.what, err.limit, err.actual]
            assert got == expected, (cap, i)
