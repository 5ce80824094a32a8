import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from logag import (
    Canon,
    DEFAULT_LIMITS,
    CapacityError,
    EngineError,
    Grade,
    Limits,
    ParseError,
    default_indexing,
    enumerate_arguments,
    enumerate_structures,
    graded_consequences,
    parse_rules,
    parse_term as T,
    render,
    telescope_n,
    translate,
    verify,
    wffs,
)
from logag.arguments import (
    FACT,
    MONOTONIC,
    NONMONOTONIC,
    Argument,
    Theorem1Report,
    Theorem2Report,
    maximal_structures,
    negate_literal,
    parse_indexing,
    pi,
    rules_of_structure,
    structure_level,
)
from logag.classical import entails, is_consistent, relevant_universe
from logag import grading
from logag.grading import fused_grade
import oracles
from oracles import random_rule_system, validate_structure


def _rule(rules, label):
    return next(r for r in rules.rules if r.label == label)


def test_parse_rule_kinds(penguin_rules):
    assert _rule(penguin_rules, "r2").kind == FACT
    assert _rule(penguin_rules, "r3").kind == MONOTONIC
    assert _rule(penguin_rules, "r7").kind == NONMONOTONIC
    assert _rule(penguin_rules, "r7").conclusion == T("~abnormal(penguin(A))")


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("r1 a.", "expected ':', found 'a'", 1, 4),
        (": a.", "expected 'ident', found ':'", 1, 1),
        ("r1: a & b.\n", "compound formulas are not allowed in rules; use literals", 1, 7),
        ("r1: a | b -> c.", "compound formulas are not allowed in rules; use literals", 1, 7),
        ("r1: a == b.", "compound formulas are not allowed in rules; use literals", 1, 7),
        ("r1: a, b.", "a base fact is a single literal", 1, 9),
        ("r1: a -> .", "expected a literal", 1, 10),
        ("r1: ~ .", "expected a literal", 1, 7),
        ("r1: a.\nr2: a, b => .", "expected a literal", 2, 13),
        ("r1: a", "expected '.', found 'end of input'", 1, 6),
        ("r1: a => b => c.", "expected '.', found '=>'", 1, 12),
        ("r1: 2 < 3.", "expected a literal", 1, 5),
        ("r1: G(a, 1).", "expected 'ident', found '1'", 1, 10),
        ("r1: a.\nr1: b.\n", "duplicate rule label", 2, 1),
        ("r1: a -> b.\n# comment\nr2: c.\nr1: d.", "duplicate rule label", 4, 1),
        ("r2: a -> ~~b.", "a literal takes at most one '~'", 1, 10),
        ("r1: a.\nr2: ~~~a, b => c.", "a literal takes at most one '~'", 2, 5),
    ],
    ids=[
        "missing-colon",
        "missing-label",
        "compound-and",
        "compound-or",
        "compound-eqeq",
        "multi-literal-fact",
        "empty-conclusion",
        "bare-negation",
        "empty-conclusion-line-2",
        "missing-final-dot",
        "two-arrows",
        "grade-order-atom",
        "grading-term",
        "duplicate-label",
        "duplicate-label-apart",
        "double-negation",
        "triple-negated-premise",
    ],
)
def test_parse_rules_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_rules(text)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


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
    assert frozenset(args) == frozenset(expected_arguments(penguin_rules))
    assert len(args) == 8


def test_single_base_fact_single_argument():
    rules = parse_rules("r1: a.\n")
    assert enumerate_arguments(rules) == (Argument(T("a")),)


def test_self_supporting_rule_excluded():
    rules = parse_rules("r1: a.\nr2: a -> a.\n")
    assert enumerate_arguments(rules) == (Argument(T("a")),)


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
        assert validate_structure(penguin_rules, s.arguments)
    assert maximal_structures(structures) == {
        s for s in structures if len(s.arguments) == 6
    }


def test_structures_are_the_valid_argument_subsets(rng):
    # Brute force: every subset of the arguments that meets the four
    # defining conditions is a structure, and nothing else is.
    # The seeded systems have at most two monotonic rules; the written one
    # chains three (m0-m2), and m3's premise only d0's argument supplies.
    written = parse_rules(
        "f0: a.\nd0: a => b.\nd1: c => ~h.\nm0: a -> c.\nm1: c -> e.\nm2: e -> g.\nm3: b -> h.\n"
    )
    checked = 0
    for rules in [written, *(random_rule_system(rng) for _ in range(100))]:
        args = enumerate_arguments(rules)
        if len(args) > 12:
            continue
        valid = {
            frozenset(chosen)
            for size in range(len(args) + 1)
            for chosen in combinations(args, size)
            if validate_structure(rules, frozenset(chosen))
        }
        assert {s.arguments for s in enumerate_structures(rules)} == valid
        checked += 1
    assert checked >= 40


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
    for t, w, complete in [
        (big, T("abnormal(bird(A))"), True),
        (big, T("abnormal(penguin(A))"), True),
        (small, T("abnormal(penguin(A))"), False),
        (small, T("abnormal(bird(A))"), True),
    ]:
        assert (w in wffs(t) or negate_literal(w) in wffs(t)) == complete


# -- translation ---------------------------------------------------------------


def test_pi_images(penguin_rules):
    assert render(pi(_rule(penguin_rules, "r3"))) == "~penguin(A) | bird(A)"
    assert (
        render(pi(_rule(penguin_rules, "r4")))
        == "~(bird(A) & ~abnormal(bird(A))) | flies(A)"
    )
    assert pi(_rule(penguin_rules, "r1")) == T("true")


def test_translate_builds_each_tower_once():
    # subsets {r8}, {r9} and {r8, r9} get depths 1, 2 and 3
    rules = parse_rules("r1: a.\nr8: a => c.\nr9: a => b.\n")
    theory = translate(rules, default_indexing(rules))
    assert T("G(a -> b, 1)") in theory.terms
    assert T("G(G(G(a -> b, 1), 1), 1)") in theory.terms
    assert T("G(~(a -> b), 1)") in theory.terms and T("G(G(~(a -> b), 1), 1)") not in theory.terms
    assert T("G(G(~(a -> c), 1), 1)") in theory.terms
    own = {t: t for t in theory.terms}
    for t in theory.terms:
        if isinstance(t, Grade):
            assert t.grade == 1
            assert own.get(t.inner, t.inner) is t.inner, render(t)
    universe = relevant_universe(theory)
    assert all(universe.shared[t] is t for t in theory.terms)


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
    # Only \n breaks a line: the form feed, \x85 and \u2028 in the comment do not.
    cases = [("INDEX: r8\nfoo\n", 1), ("INDEX: r8\n  foo  # note\n", 3), ("INDEX: r8 # \f\x85\u2028\nfoo\n", 1)]
    for text, column in cases:
        with pytest.raises(ParseError) as info:
            parse_indexing(text, penguin_rules)
        assert str(info.value) == f"expected 'INDEX:' line (line 2, column {column})"


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
    terms = translate(penguin_rules, default_indexing(penguin_rules)).terms
    assert len([t for t in terms if not isinstance(t, Grade)]) == 6
    assert len([t for t in terms if isinstance(t, Grade)]) == 8


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
        terms = translate(rules, default_indexing(rules)).terms
        subsets = default_indexing(rules).table
        expected = sum(
            len(s) + 2 * (k - len(s)) for s, _ in subsets
        )
        assert len([t for t in terms if isinstance(t, Grade)]) == expected


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
        assert used_nm == set() or frozenset(used_nm) in {subset for subset, _ in idx.table}


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


def test_theorem2_refuses_more_monotonic_subsets_than_the_cap(penguin_rules):
    # four monotonic rules have 16 subsets; checking fewer bases would pass
    # Theorem 2 on less evidence than its docstring promises
    with pytest.raises(CapacityError) as err:
        verify(penguin_rules, default_indexing(penguin_rules), Limits(subset_cap=8))
    assert (err.value.what, err.value.limit, err.value.actual) == (
        "monotonic rule subsets",
        8,
        16,
    )


def _reference_reports(rules, idx, limits=DEFAULT_LIMITS):
    """Both harnesses the long way: one telescoping run per structure."""
    structures = enumerate_structures(rules, limits)
    if not structures:
        return ()
    theory = translate(rules, idx, limits)
    universe = relevant_universe(theory)
    mono = rules.monotonic()
    reports = []
    for s in structures:
        level = structure_level(s, rules, idx)
        canon = Canon("sum", "max", level)
        targets = sorted(wffs(s), key=render)
        answers = graded_consequences(theory, canon, targets, limits)
        results = tuple((w, answers[w]) for w in targets)
        r1 = Theorem1Report(level, results, all(ok for _, ok in results))

        final = telescope_n(theory, canon, (), limits).levels[-1].base
        consequences = [
            u for u in universe.terms if not isinstance(u, Grade) and entails(final, u, limits=limits)
        ]
        core = frozenset(pi(r) for r in rules_of_structure(s, rules))
        consistent = [
            frozenset(c)
            for n in range(len(mono) + 1)
            for c in combinations(mono, n)
            if is_consistent(core | {pi(r) for r in c}, limits=limits)
        ]
        maximal = [c for c in consistent if not any(c < other for other in consistent)]
        maximal.sort(key=lambda c: sorted(r.label for r in c))
        bases = tuple(core | {pi(r) for r in c} for c in maximal)
        failures = tuple((u, b) for b in bases for u in consequences if not entails(b, u, limits=limits))
        r2 = Theorem2Report(level, failures, not failures)
        reports.append((s, r1, r2))
    return tuple(reports)


# The last two systems are known Theorem 1 counterexamples, so they take the
# harnesses' failure path. In the first, the default d0 ties with the
# cancelled image of n0. The second is the smallest one known: at step 1,
# pi(d0), pi(d1) and ~pi(d1) all fuse to grade 1, the tied kernels evict
# pi(d0), and ``a`` is missing at level 1.
@pytest.mark.parametrize(
    "rules_text, indexing_text",
    [
        (None, None),
        (None, "INDEX: r8\nINDEX: r7\nINDEX: r7, r8\n"),
        ("f0: a0.\nn0: a0 => a1.\nm0: a1 -> ~b0.\nd0: a0 => b0.\n", None),
        ("f0: true.\nd0: true => a.\nd1: a, a => ~a.\n", None),
    ],
    ids=["penguin", "penguin-reindexed", "tie-counterexample", "twin-cancelled-counterexample"],
)
def test_verify_matches_per_structure_reference(penguin_rules, rules_text, indexing_text):
    rules = penguin_rules if rules_text is None else parse_rules(rules_text)
    idx = (
        default_indexing(rules) if indexing_text is None else parse_indexing(indexing_text, rules)
    )
    assert verify(rules, idx) == _reference_reports(rules, idx)


def test_verify_matches_per_structure_reference_on_seeded_systems():
    limits = Limits(atom_cap=256)
    compared = 0
    for seed in range(60):
        rules = random_rule_system(random.Random(seed))
        idx = default_indexing(rules, limits)
        expected = _reference_reports(rules, idx, limits)
        assert verify(rules, idx, limits) == expected, seed
        compared += bool(expected)
    assert compared == 52  # the other 8 systems have no structure


def test_verify_matches_per_structure_reference_on_the_5_default_chain():
    # 31-deep towers; the highest structure level is 26
    rules = parse_rules((Path(__file__).parent / "data" / "chain5.rules").read_text(encoding="utf-8"), "chain5")
    idx = default_indexing(rules)
    limits = Limits(atom_cap=300)
    assert verify(rules, idx, limits) == _reference_reports(rules, idx, limits)


CHAIN3 = Path(__file__).parent.parent / "benchmarks" / "inputs" / "chain3.rules"


def _chain3():
    return parse_rules(CHAIN3.read_text(encoding="utf-8"), "chain3")


def test_verify_takes_no_step_past_the_highest_structure_level(monkeypatch):
    """chain3's highest structure level is 6, read off step 5's supported set."""
    steps = []
    step = grading.telescope_once

    def counted(base, index, ctx):
        steps.append(index)
        return step(base, index, ctx)

    monkeypatch.setattr(grading, "telescope_once", counted)
    rules = _chain3()
    idx = default_indexing(rules)
    reports = verify(rules, idx, Limits(atom_cap=256))
    assert max(r1.level for _, r1, _ in reports) == 6
    assert steps == [0, 1, 2, 3, 4, 5]


def test_a_cap_only_the_step_past_the_highest_level_hits_stops_no_check():
    # step 6 would search kernels of a 9-member base; steps 0-5 need at most 8
    rules = _chain3()
    idx = default_indexing(rules)
    capped = Limits(atom_cap=256, kernel_cap=8)
    assert verify(rules, idx, capped) == verify(rules, idx, Limits(atom_cap=256))
    with pytest.raises(CapacityError) as err:
        telescope_n(translate(rules, idx, capped), Canon("sum", "max", 6), (), capped)
    assert (err.value.what, err.value.limit, err.value.actual) == ("kernel search base", 8, 9)
    with pytest.raises(CapacityError) as err:
        verify(rules, idx, Limits(atom_cap=256, kernel_cap=7))
    assert (err.value.what, err.value.limit, err.value.actual) == ("kernel search base", 7, 8)


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
        assert w in wffs(t_big) or negate_literal(w) in wffs(t_big)
        canon = Canon("sum", "max", 1)
        from logag import graded_consequence

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
    r7_image = pi(_rule(penguin_rules, "r7"))
    assert fused_grade(r7_image, frozenset(expansion), canon3) == 3
    assert fused_grade(r7_image, frozenset(expansion), Canon("sum", "max", 2)) == 2
    assert fused_grade(r7_image, frozenset(expansion), Canon("sum", "max", 1)) == 1


def test_survivors_of_translated_systems_match_the_survival_oracle():
    limits = Limits(atom_cap=256)
    for seed in range(60):
        rules = random_rule_system(random.Random(seed))
        try:
            theory = translate(rules, default_indexing(rules, limits), limits)
        except EngineError:
            continue  # inconsistent monotonic part
        for record in telescope_n(theory, Canon("sum", "max", 3), (), limits).levels:
            kernels = [k.members for k in record.kernels]
            canon = Canon("sum", "max", record.index + 1)
            expected = oracles.survivors(record.expansion, kernels, theory.terms, canon)
            assert record.survivors == expected, (seed, record.index)


def test_supported_sets_of_translated_systems_match_the_support_oracle():
    limits = Limits(atom_cap=256)
    for seed in range(60):
        rules = random_rule_system(random.Random(seed))
        try:
            theory = translate(rules, default_indexing(rules, limits), limits)
        except EngineError:
            continue  # inconsistent monotonic part
        for otimes in ("sum", "mean", "min", "max"):
            for oplus in ("max", "min"):
                for record in telescope_n(theory, Canon(otimes, oplus, 3), (), limits).levels:
                    expected = oracles.supported(record.survivors, record.expansion, theory.terms)
                    assert record.supported == expected, (seed, otimes, oplus, record.index)


# Structures (by index in ``verify``'s order) failing each theorem, per seed
# of ``random_rule_system(random.Random(seed))``, at ``atom_cap`` 256. They are
# ROADMAP item 1's known defects: every Theorem 1 failure is a believed rule
# image evicted by a tie with a twin-cancelled image (mechanism (a)), and
# seed 140's Theorem 2 failure is the precondition case.
SWEEP_THEOREM1_FAILURES = {
    3: [1, 2, 3, 4], 9: [1, 2], 11: [1, 2, 3], 14: [1], 20: [2], 22: [2, 3], 24: [1, 2, 3, 4],
    28: [2, 3, 4], 29: [1, 2], 30: [1], 31: [1, 2], 35: [1], 39: [1, 2], 43: [1, 2, 3], 44: [1],
    47: [1], 48: [1, 3], 55: [1, 2], 56: [1, 2], 65: [1], 66: [1], 67: [1], 70: [1], 72: [1],
    85: [1, 2], 87: [1], 94: [1], 97: [1], 101: [1], 103: [1], 105: [1], 111: [1, 2],
    129: [1, 2, 3, 4], 140: [1], 145: [2], 146: [2], 148: [1], 152: [1], 155: [1, 2, 3, 4, 5],
    156: [1], 158: [1], 159: [2, 3, 4], 160: [1, 2], 169: [1], 172: [1], 176: [1],
    180: [1, 2, 3, 4], 182: [1], 184: [1], 189: [1, 2, 3, 4, 5], 191: [1, 2, 3],
}
SWEEP_THEOREM2_FAILURES = {140: [1]}


def test_seeded_theorem_sweep_fails_no_check_that_passes_today():
    known = {
        (seed, i, theorem)
        for theorem, table in ((1, SWEEP_THEOREM1_FAILURES), (2, SWEEP_THEOREM2_FAILURES))
        for seed, indices in table.items()
        for i in indices
    }
    limits = Limits(atom_cap=256)
    failing = set()
    for seed in range(200):
        rules = random_rule_system(random.Random(seed))
        for i, (_, r1, r2) in enumerate(verify(rules, default_indexing(rules, limits), limits)):
            failing |= {(seed, i, theorem) for theorem, r in ((1, r1), (2, r2)) if not r.passed}
    assert failing <= known, sorted(failing - known)


def test_deciding_structures_of_a_normal_program_are_its_stable_models():
    """Argument systems capture negation as failure (Lin and Shoham, KR 1989).

    Under ``oracles.random_normal_program``'s encoding, the argument
    structures whose wffs decide every atom are exactly the program's
    stable models, each read as the atoms it holds.
    """
    rng = random.Random("logag::naf")
    with_models = 0
    for seed in range(200):
        program, rules = oracles.random_normal_program(rng, f"program{seed}")
        deciding = set()
        for s in enumerate_structures(rules):
            held = {render(w) for w in wffs(s)}
            if all(x in held or f"~{x}" in held for x in oracles.NAF_ATOMS):
                deciding.add(frozenset(x for x in oracles.NAF_ATOMS if x in held))
        assert deciding == oracles.stable_models(program), (seed, program)
        with_models += bool(deciding)
    assert with_models >= 100
