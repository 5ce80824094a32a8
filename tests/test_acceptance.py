"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Expected values are frozen from hand-worked traces and checked
against independent oracles (truth tables, brute-force subset search) where
applicable.
"""

from fractions import Fraction

import pytest

from logag import (
    Limits,
    Canon,
    Grade,
    default_indexing,
    enumerate_arguments,
    enumerate_structures,
    find_fixpoint,
    graded_consequence,
    graded_consequences,
    parse_rules,
    parse_term as T,
    telescope_n,
    translate,
    verify,
    wffs,
)
from logag.arguments import negate_literal, pi
from logag.classical import bottom_kernels, entails, is_consistent, mutually_entailing, relevant_universe
from logag.grading import fused_grade
from conftest import random_term, random_theory
from oracles import brute_kernels, tt_entails, tt_satisfiable


def report(n, text):
    print(f"criterion {n}: PASS — {text}")


def test_criterion_1_penguin_brother_levels(penguin_brother):
    mean_max = lambda n: Canon("mean", "max", n)
    level1 = graded_consequences(
        penguin_brother, mean_max(1), [T("p"), T("w"), T("~f")]
    )
    assert all(level1.values())
    level2 = graded_consequences(
        penguin_brother, mean_max(2), [T("p"), T("~f"), T("w"), T("f")]
    )
    assert not level2[T("p")]
    assert not level2[T("~f")]
    assert not level2[T("w")]  # support loss once p is gone
    assert level2[T("f")]

    trace = telescope_n(penguin_brother, mean_max(3))
    kernels = {k.members for k in trace.levels[1].kernels}
    assert kernels == {
        frozenset({T("f"), T("~f")}),
        frozenset({T("p"), T("~p | ~f"), T("f")}),
    }
    assert mutually_entailing(trace.levels[3].base, trace.levels[2].base)
    level, _ = find_fixpoint(penguin_brother, "mean", "max", 6)
    assert level == 2
    report(1, "graded-belief levels, the two level-2 kernels, fixpoint at level 2")


def test_criterion_2_tweety_opus(ot1, ot2):
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
    level, _ = find_fixpoint(ot1, "sum", "max", 4)
    assert level == 1

    res2 = graded_consequences(ot2, canon, [T("~Flies(Opus)"), T("Flies(Tweety)")])
    assert res2[T("~Flies(Opus)")]
    assert not res2[T("Flies(Tweety)")]
    report(2, "consequent-graded vs rule-graded penguin theories, fixpoint at level 1")


def test_criterion_3_arguments_and_structures(penguin_rules):
    args = enumerate_arguments(penguin_rules)
    assert len(args) == 8
    structures = enumerate_structures(penguin_rules)
    assert len(structures) == 2
    small, big = sorted(structures, key=lambda s: len(s.arguments))
    assert wffs(small) == {T("true"), T("penguin(A)"), T("bird(A)"), T("abnormal(bird(A))")}
    assert wffs(big) == wffs(small) | {T("~abnormal(penguin(A))"), T("~flies(A)")}
    assert len(small.arguments) == 4 and len(big.arguments) == 6
    for t, w, complete in [
        (big, T("abnormal(bird(A))"), True),
        (big, T("abnormal(penguin(A))"), True),
        (small, T("abnormal(penguin(A))"), False),
    ]:
        assert (w in wffs(t) or negate_literal(w) in wffs(t)) == complete
    report(3, "eight arguments, the two structures, completeness verdicts")


def test_criterion_4_translation_and_level_table(penguin_rules):
    theory = translate(penguin_rules, default_indexing(penguin_rules))
    expected = {
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
    assert theory.terms == expected

    probes = [T("bird(A)"), T("abnormal(bird(A))"), T("~abnormal(penguin(A))"), T("~flies(A)")]
    table = {
        0: (True, True, False, False),
        1: (True, True, True, True),
        2: (True, True, False, False),
        3: (True, True, True, True),
    }
    for n, expected_row in table.items():
        res = graded_consequences(theory, Canon("sum", "max", n), probes)
        assert tuple(res[p] for p in probes) == expected_row, f"level {n}"
    report(4, "fourteen-term translation, oscillating four-level consequence table")


def test_criterion_5_theorem_harnesses(penguin_rules):
    idx = default_indexing(penguin_rules)
    levels = []
    for _, r1, r2 in verify(penguin_rules, idx):
        assert r1.passed, [str(w) for w, ok in r1.results if not ok]
        assert r2.passed
        levels.append(r1.level)
    assert sorted(levels) == [0, 1]
    report(5, "supported-formula and classical-bound harnesses pass for both structures")


def test_criterion_6_reduction_to_classical(rng):
    atoms = ["a", "b", "c", "d", "e", "g", "h", "k"]
    roomy = Limits(kernel_cap=64)
    checked = 0
    for _ in range(100):
        theory = random_theory(
            rng, n_terms=rng.randint(2, 12), atoms=atoms[: rng.randint(3, 8)], allow_grades=False
        )
        universe = relevant_universe(theory)
        level = rng.choice([0, 1, 2, 3])
        answers = graded_consequences(
            theory, Canon("sum", "max", level), universe.terms, limits=roomy
        )
        for u in universe.terms:
            assert answers[u] == tt_entails(theory.terms, u), (
                f"level {level}: mismatch on {u}"
            )
            checked += 1
    for _ in range(100):
        theory = random_theory(rng, n_terms=rng.randint(2, 6), atoms=atoms[:4], allow_grades=True)
        universe = relevant_universe(theory)
        answers = graded_consequences(theory, Canon("sum", "max", 0), universe.terms, limits=roomy)
        for u in universe.terms:
            assert answers[u] == tt_entails(theory.terms, u)
            checked += 1
    report(6, f"grading-free and level-0 runs agree with the truth-table oracle ({checked} queries)")


def test_criterion_7_kernel_soundness_and_minimality(rng):
    atoms = ["a", "b", "c", "d"]
    bases = 0
    for _ in range(60):
        q = frozenset(
            random_term(rng, atoms, 2, allow_grades=True) for _ in range(rng.randint(3, 10))
        )
        if len(q) > 10:
            continue
        universe = relevant_universe(q)
        got = bottom_kernels(q, universe)
        assert {k.members for k in got} == brute_kernels(q)
        for kernel in got:
            assert not is_consistent(kernel.members)
            for member in kernel.members:
                assert tt_satisfiable(kernel.members - {member})
        bases += 1
    assert bases >= 40
    report(7, f"kernels match brute-force subset search on {bases} random bases")


def test_criterion_8_consistency_preservation(rng):
    atoms = ["a", "b", "c", "d", "e"]
    roomy = Limits(kernel_cap=64)  # random expansions can entangle more members than desk default
    kept = 0
    while kept < 100:
        theory = random_theory(rng, n_terms=rng.randint(2, 7), atoms=atoms, allow_grades=True)
        if not is_consistent(theory.terms):
            continue
        trace = telescope_n(theory, Canon("sum", "max", 5), limits=roomy)
        for level in trace.levels:
            assert is_consistent(level.base), (
                f"level {level.index} inconsistent for {sorted(map(str, theory.terms))}"
            )
        kept += 1
    report(8, "all level bases of 100 consistent graded theories stay consistent")


def test_criterion_9_fused_grade_law(rng):
    literals = ["a", "b", "c", "d", "e", "g", "h"]
    cases = 0
    for _ in range(30):
        k = rng.randint(1, 3)
        picks = rng.sample(literals, 2 * k + 1)
        lines = [f"f0: {picks[0]}."]
        for j in range(k):
            lines.append(f"n{j}: {picks[2 * j + 1]} => {picks[2 * j + 2]}.")
        rules = parse_rules("\n".join(lines))
        idx = default_indexing(rules)
        theory = translate(rules, idx)
        max_depth = 2 ** k - 1
        expansion = set(theory.terms)
        for _ in range(max_depth):
            expansion |= {t.inner for t in set(expansion) if isinstance(t, Grade)}
        by_label = {r.label: r for r in rules.rules}
        for subset, depth in idx.table:
            for label in subset:
                image = pi(by_label[label])
                got = fused_grade(image, frozenset(expansion), Canon("sum", "max", depth))
                assert got == Fraction(depth)
                cases += 1
    assert cases >= 30
    report(9, f"chained rule images fuse to exactly their depth in {cases} cases")
