from fractions import Fraction

import pytest

from logag import (
    Canon,
    GradingChain,
    Kernel,
    NotEmbeddedError,
    RunContext,
    UngradedError,
    depth1_expansion,
    embedding_degree,
    entails,
    find_fixpoint,
    fused_grade,
    graded_consequence,
    graded_consequences,
    grading_chains,
    is_graded,
    mutually_entailing,
    parse_term as T,
    parse_theory,
    relevant_universe,
    supported,
    survives,
    telescope_n,
    telescope_once,
    trace_to_dict,
)


def terms(*texts):
    return frozenset(T(s) for s in texts)


MEAN_MAX = lambda n: Canon("mean", "max", n)


def context(theory, otimes="mean", oplus="max", queries=()):
    return RunContext(theory.terms, relevant_universe(theory, queries), otimes, oplus)


# -- embedding degrees -------------------------------------------------------


def test_degree_zero_for_members():
    assert embedding_degree(T("p"), terms("p", "G(q, 1)")) == 0


def test_degree_counts_stripped_layers():
    q = terms("G(G(f, 2), 3)")
    assert embedding_degree(T("G(f, 2)"), q) == 1
    assert embedding_degree(T("f"), q) == 2


def test_degree_takes_minimum_over_graders():
    q = terms("G(p, 2)", "G(G(p, 3), 4)")
    assert embedding_degree(T("p"), q) == 1


def test_degree_requires_embedding():
    with pytest.raises(NotEmbeddedError):
        embedding_degree(T("z"), terms("p"))


# -- chains and fusion -------------------------------------------------------


def test_single_chain_from_nested_grading():
    q = terms("G(G(f, 2), 3)", "p")
    assert grading_chains(T("f"), q) == {
        GradingChain(T("f"), (Fraction(2), Fraction(3)))
    }


def test_no_chain_for_ungraded():
    assert grading_chains(T("p"), terms("q", "G(r, 1)")) == frozenset()


def test_every_present_nesting_yields_a_chain():
    q = terms("G(f, 2)", "G(G(f, 2), 3)")
    assert grading_chains(T("f"), q) == {
        GradingChain(T("f"), (Fraction(2),)),
        GradingChain(T("f"), (Fraction(2), Fraction(3))),
    }


def test_is_graded_needs_immediate_grader():
    assert is_graded(T("G(f, 2)"), terms("G(G(f, 2), 3)"))
    assert not is_graded(T("f"), terms("G(G(f, 2), 3)"))
    assert is_graded(T("f"), terms("G(f, 2)"))


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
    assert survives(T("~f"), kernel, q2, ctx, 2)


def test_weaker_graded_member_falls(level2_scene):
    ctx, q2, _ = level2_scene
    kernel = Kernel(terms("p", "~p | ~f", "f"))
    assert not survives(T("p"), kernel, q2, ctx, 2)
    assert survives(T("f"), kernel, q2, ctx, 2)


def test_equal_grades_fall_together():
    th = parse_theory("G(a, 3).\nG(b, 3).\n~a | ~b.\n")
    ctx = context(th, "sum", "max")
    q = depth1_expansion(th.terms, ctx)
    kernel = Kernel(terms("a", "b", "~a | ~b"))
    assert not survives(T("a"), kernel, q, ctx, 1)
    assert not survives(T("b"), kernel, q, ctx, 1)


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
    assert survives(T("p"), Kernel(terms("p", "~p")), q, ctx, 1)
    assert survives(T("~p"), Kernel(terms("p", "~p")), q, ctx, 1)


# -- support -----------------------------------------------------------------


def test_top_theory_is_self_supported(penguin_brother):
    assert supported(penguin_brother.terms, context(penguin_brother)) == penguin_brother.terms


def test_support_drops_orphaned_consequences(level2_scene):
    ctx, _, step = level2_scene
    survivors = step.survivors
    got = supported(survivors, ctx)
    assert got == step.supported
    assert got == survivors - {T("~f"), T("w")}


def test_supported_set_is_top_closure_plus_graded_members(level2_scene):
    ctx, _, step = level2_scene
    survivors = step.survivors
    got = supported(survivors, ctx)
    top_part = {u for u in ctx.universe.terms if entails(ctx.top, u)}
    chain_part = got - top_part
    assert all(grading_chains(p, survivors) for p in chain_part)


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
    from logag import is_consistent

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


def test_no_fixpoint_reported_for_oscillating_theory(penguin_rules_theory):
    level, trace = find_fixpoint(penguin_rules_theory, "sum", "max", 3)
    assert level is None
    assert len(trace.levels) == 3
    assert not any(lv.fixpoint_reached for lv in trace.levels)


def test_inconsistent_theory_still_answers_classically():
    th = parse_theory("p.\n~p.\nq | r.\n")
    for n in (0, 1, 3):
        assert graded_consequence(th, Canon("sum", "max", n), T("q | r"))
        assert graded_consequence(th, Canon("sum", "max", n), T("~q"))


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


def test_determinism(penguin_brother):
    a = trace_to_dict(telescope_n(penguin_brother, MEAN_MAX(3)))
    b = trace_to_dict(telescope_n(penguin_brother, MEAN_MAX(3)))
    assert a == b
