from fractions import Fraction
from itertools import combinations

import pytest

from logag import (
    Argument,
    Canon,
    EngineError,
    Grade,
    ParseError,
    Theorem1Report,
    Theorem2Report,
    chain_term,
    default_indexing,
    entails,
    enumerate_arguments,
    enumerate_structures,
    fused_grade,
    graded_consequences,
    is_complete,
    is_consistent,
    maximal_structures,
    parse_indexing,
    parse_rules,
    parse_term as T,
    pi,
    relevant_universe,
    render,
    rules_of_structure,
    structure_level,
    telescope_n,
    translate,
    translation_parts,
    validate_structure,
    verify,
    wffs,
)
from logag.arguments import FACT, MONOTONIC, NONMONOTONIC


def test_parse_rule_kinds(penguin_rules):
    assert penguin_rules.by_label("r2").kind == FACT
    assert penguin_rules.by_label("r3").kind == MONOTONIC
    assert penguin_rules.by_label("r7").kind == NONMONOTONIC
    assert penguin_rules.by_label("r7").conclusion == T("~abnormal(penguin(A))")


def test_parse_rules_rejects_duplicate_labels():
    with pytest.raises(ParseError):
        parse_rules("r1: a.\nr1: b.\n")


def test_parse_rules_rejects_compound_wff():
    with pytest.raises(ParseError):
        parse_rules("r1: a & b.\n")


# -- arguments ----------------------------------------------------------------


def expected_arguments(penguin_rules):
    p1 = Argument(T("true"))
    p2 = Argument(T("penguin(A)"))
    p3 = Argument(T("bird(A)"), (p2,), "r3")
    p4 = Argument(T("abnormal(bird(A))"), (p2,), "r6")
    p5 = Argument(T("~abnormal(penguin(A))"), (p1,), "r7")
    p6 = Argument(T("~abnormal(bird(A))"), (p1,), "r8")
    p7 = Argument(T("flies(A)"), (p3, p6), "r4")
    p8 = Argument(T("~flies(A)"), (p2, p5), "r5")
    return p1, p2, p3, p4, p5, p6, p7, p8


def test_exactly_eight_arguments(penguin_rules):
    args = enumerate_arguments(penguin_rules)
    assert args == frozenset(expected_arguments(penguin_rules))
    assert len(args) == 8


def test_single_base_fact_single_argument():
    rules = parse_rules("r1: a.\n")
    assert enumerate_arguments(rules) == {Argument(T("a"))}


def test_self_supporting_rule_excluded():
    rules = parse_rules("r1: a.\nr2: a -> a.\n")
    assert enumerate_arguments(rules) == {Argument(T("a"))}


def test_exactly_two_structures(penguin_rules):
    p1, p2, p3, p4, p5, p6, p7, p8 = expected_arguments(penguin_rules)
    structures = enumerate_structures(penguin_rules)
    assert len(structures) == 2
    got = {s.arguments for s in structures}
    assert got == {
        frozenset({p1, p2, p3, p4}),
        frozenset({p1, p2, p3, p4, p5, p8}),
    }
    for s in structures:
        assert validate_structure(penguin_rules, s)
    assert maximal_structures(structures) == {
        s for s in structures if len(s.arguments) == 6
    }


def test_structures_without_nonmonotonic_rules():
    rules = parse_rules("r1: a.\nr2: a -> b.\n")
    structures = enumerate_structures(rules)
    assert len(structures) == 1
    assert wffs(structures[0]) == {T("a"), T("b")}


def test_contradictory_base_facts_admit_no_structure():
    rules = parse_rules("r1: a.\nr2: ~a.\n")
    assert enumerate_structures(rules) == ()


def test_wffs_and_completeness(penguin_rules):
    t1, t2 = enumerate_structures(penguin_rules)
    small = t1 if len(t1.arguments) == 4 else t2
    big = t2 if small is t1 else t1
    assert T("~flies(A)") in wffs(big)
    assert T("~abnormal(penguin(A))") in wffs(big)
    assert T("bird(A)") in wffs(big)
    assert T("abnormal(bird(A))") in wffs(small)
    assert T("flies(A)") not in wffs(small)
    assert is_complete(big, T("abnormal(bird(A))"))
    assert is_complete(big, T("abnormal(penguin(A))"))
    assert not is_complete(small, T("abnormal(penguin(A))"))
    assert is_complete(small, T("abnormal(bird(A))"))


# -- translation ---------------------------------------------------------------


def test_pi_images(penguin_rules):
    assert render(pi(penguin_rules.by_label("r3"))) == "~penguin(A) | bird(A)"
    assert (
        render(pi(penguin_rules.by_label("r4")))
        == "~(bird(A) & ~abnormal(bird(A))) | flies(A)"
    )
    assert pi(penguin_rules.by_label("r1")) == T("true")


def test_chain_term():
    assert chain_term(T("p"), 1) == T("G(p, 1)")
    assert chain_term(T("p"), 3) == T("G(G(G(p, 1), 1), 1)")
    with pytest.raises(ValueError):
        chain_term(T("p"), 0)


def test_default_indexing(penguin_rules):
    idx = default_indexing(penguin_rules)
    assert idx.index_of(frozenset({"r7"})) == 1
    assert idx.index_of(frozenset({"r8"})) == 2
    assert idx.index_of(frozenset({"r7", "r8"})) == 3


def test_indexing_of_single_rule():
    rules = parse_rules("r1: a.\nr9: a => b.\n")
    idx = default_indexing(rules)
    assert idx.index_of(frozenset({"r9"})) == 1


def test_indexing_of_no_nonmonotonic_rules():
    rules = parse_rules("r1: a.\n")
    assert default_indexing(rules).table == ()


def test_parse_indexing_override(penguin_rules):
    idx = parse_indexing("INDEX: r8\nINDEX: r7\nINDEX: r7, r8\n", penguin_rules)
    assert idx.index_of(frozenset({"r8"})) == 1
    assert idx.index_of(frozenset({"r7"})) == 2
    with pytest.raises(EngineError):
        parse_indexing("INDEX: r7\n", penguin_rules)


def expected_translation_terms():
    return {
        T("true"),
        T("penguin(A)"),
        T("penguin(A) -> bird(A)"),
        T("bird(A) & ~abnormal(bird(A)) -> flies(A)"),
        T("penguin(A) & ~abnormal(penguin(A)) -> ~flies(A)"),
        T("penguin(A) -> abnormal(bird(A))"),
        T("G(true -> ~abnormal(penguin(A)), 1)"),
        T("G(true -> ~abnormal(bird(A)), 1)"),
        T("G(~(true -> ~abnormal(bird(A))), 1)"),
        T("G(G(true -> ~abnormal(bird(A)), 1), 1)"),
        T("G(G(true -> ~abnormal(penguin(A)), 1), 1)"),
        T("G(G(~(true -> ~abnormal(penguin(A))), 1), 1)"),
        T("G(G(G(true -> ~abnormal(penguin(A)), 1), 1), 1)"),
        T("G(G(G(true -> ~abnormal(bird(A)), 1), 1), 1)"),
    }


def test_translation_is_the_fourteen_terms(penguin_rules):
    theory = translate(penguin_rules, default_indexing(penguin_rules))
    assert theory.terms == expected_translation_terms()


def test_translation_part_shapes(penguin_rules):
    parts = translation_parts(penguin_rules, default_indexing(penguin_rules))
    assert len(parts.monotonic_part) == 6
    assert len(parts.nonmonotonic_part) == 8


def test_translation_size_formula(rng):
    literals = ["a", "b", "c", "d", "e", "g"]
    for _ in range(25):
        k = rng.randint(1, 3)
        n_facts = rng.randint(1, 2)
        lines = [f"f{i}: {literals[i]}." for i in range(n_facts)]
        rng_lits = rng.sample(literals, k + 1)
        for j in range(k):
            lines.append(f"n{j}: {rng_lits[j]} => nm{j}.")
        rules = parse_rules("\n".join(lines))
        parts = translation_parts(rules, default_indexing(rules))
        subsets = default_indexing(rules).table
        expected = sum(
            len(s) + 2 * (k - len(s)) for s, _ in subsets
        )
        assert len(parts.nonmonotonic_part) == expected


def test_translate_with_no_nonmonotonic_rules():
    rules = parse_rules("r1: a.\nr2: a -> b.\n")
    theory = translate(rules, default_indexing(rules))
    assert theory.terms == {T("a"), T("a -> b")}


def test_translate_single_nonmonotonic_rule():
    rules = parse_rules("r1: a.\nr9: a => b.\n")
    theory = translate(rules, default_indexing(rules))
    assert theory.terms == {T("a"), T("G(a -> b, 1)")}


def test_translate_rejects_inconsistent_monotonic_part():
    rules = parse_rules("r1: a.\nr2: ~a.\n")
    with pytest.raises(EngineError):
        translate(rules, default_indexing(rules))


def test_rules_of_structure(penguin_rules):
    t_small, t_big = sorted(
        enumerate_structures(penguin_rules), key=lambda s: len(s.arguments)
    )
    assert {r.label for r in rules_of_structure(t_small, penguin_rules)} == {
        "r1",
        "r2",
        "r3",
        "r6",
    }
    assert {r.label for r in rules_of_structure(t_big, penguin_rules)} == {
        "r1",
        "r2",
        "r3",
        "r5",
        "r6",
        "r7",
    }


def test_rules_of_structure_splits_into_monotonic_and_one_subset(penguin_rules):
    idx = default_indexing(penguin_rules)
    nm = {r.label for r in penguin_rules.nonmonotonic()}
    for s in enumerate_structures(penguin_rules):
        labels = {r.label for r in rules_of_structure(s, penguin_rules)}
        used_nm = labels & nm
        assert used_nm == set() or frozenset(used_nm) in set(idx.subsets())


# -- theorem harnesses ---------------------------------------------------------


def test_theorem1_both_structures(penguin_rules):
    idx = default_indexing(penguin_rules)
    t_small, t_big = sorted(
        enumerate_structures(penguin_rules), key=lambda s: len(s.arguments)
    )
    theorem1 = {s: r1 for s, r1, _ in verify(penguin_rules, idx)}
    r_small = theorem1[t_small]
    assert r_small.level == 0 and r_small.passed
    r_big = theorem1[t_big]
    assert r_big.level == 1 and r_big.passed


def test_theorem2_both_structures(penguin_rules):
    idx = default_indexing(penguin_rules)
    for _, _, report in verify(penguin_rules, idx):
        assert report.passed, [render(u) for u, _ in report.failures]


def _reference_reports(rules, idx):
    """Both harnesses the long way: one telescoping run per structure."""
    theory = translate(rules, idx)
    universe = relevant_universe(theory)
    mono = rules.monotonic()
    reports = []
    for s in enumerate_structures(rules):
        level = structure_level(s, rules, idx)
        canon = Canon("sum", "max", level)
        targets = sorted(wffs(s), key=render)
        answers = graded_consequences(theory, canon, targets)
        results = tuple((w, answers[w]) for w in targets)
        r1 = Theorem1Report(level, results, all(ok for _, ok in results))

        final = telescope_n(theory, canon).final_base()
        consequences = [
            u for u in universe.terms if not isinstance(u, Grade) and entails(final, u)
        ]
        core = frozenset(pi(r) for r in rules_of_structure(s, rules))
        consistent = [
            frozenset(c)
            for n in range(len(mono) + 1)
            for c in combinations(mono, n)
            if is_consistent(core | {pi(r) for r in c})
        ]
        maximal = [c for c in consistent if not any(c < other for other in consistent)]
        maximal.sort(key=lambda c: sorted(r.label for r in c))
        bases = tuple(core | {pi(r) for r in c} for c in maximal)
        failures = tuple((u, b) for b in bases for u in consequences if not entails(b, u))
        r2 = Theorem2Report(
            level, len(consequences) * max(len(bases), 1), bases, failures, not failures
        )
        reports.append((s, r1, r2))
    return tuple(reports)


# The last system is a known Theorem 1 counterexample (the default d0 ties
# with the cancelled image of n0), so it takes the harnesses' failure path.
@pytest.mark.parametrize(
    "rules_text, indexing_text",
    [
        (None, None),
        (None, "INDEX: r8\nINDEX: r7\nINDEX: r7, r8\n"),
        ("f0: a0.\nn0: a0 => a1.\nm0: a1 -> ~b0.\nd0: a0 => b0.\n", None),
    ],
    ids=["penguin", "penguin-reindexed", "tie-counterexample"],
)
def test_verify_matches_per_structure_reference(penguin_rules, rules_text, indexing_text):
    rules = penguin_rules if rules_text is None else parse_rules(rules_text)
    idx = (
        default_indexing(rules) if indexing_text is None else parse_indexing(indexing_text, rules)
    )
    assert verify(rules, idx) == _reference_reports(rules, idx)


def test_verify_without_structures_translates_nothing():
    rules = parse_rules("r1: a.\nr2: ~a.\n")
    assert verify(rules, default_indexing(rules)) == ()


def test_corollary_completeness_respected(penguin_rules):
    idx = default_indexing(penguin_rules)
    theory = translate(penguin_rules, idx)
    t_small, t_big = sorted(
        enumerate_structures(penguin_rules), key=lambda s: len(s.arguments)
    )
    for w in (T("abnormal(bird(A))"), T("abnormal(penguin(A))")):
        assert is_complete(t_big, w)
        canon = Canon("sum", "max", 1)
        from logag import graded_consequence, negate_literal

        assert graded_consequence(theory, canon, w) or graded_consequence(
            theory, canon, negate_literal(w)
        )


def test_fused_grade_of_chained_rules_is_depth(penguin_rules):
    idx = default_indexing(penguin_rules)
    theory = translate(penguin_rules, idx)
    canon3 = Canon("sum", "max", 3)
    expansion = set(theory.terms)
    for _ in range(3):
        expansion |= {g.inner for g in set(expansion) if hasattr(g, "inner") and hasattr(g, "grade")}
    r7_image = pi(penguin_rules.by_label("r7"))
    assert fused_grade(r7_image, frozenset(expansion), canon3) == 3
    assert fused_grade(r7_image, frozenset(expansion), Canon("sum", "max", 2)) == 2
    assert fused_grade(r7_image, frozenset(expansion), Canon("sum", "max", 1)) == 1
