"""From a rule system to a graded theory and back.

The classic flying-penguin rule set admits exactly two coherent argument
structures: one hedging on penguin normality, one concluding the penguin
does not fly. Translating the rules into a graded theory buries each subset
of the defeasible rules at its own grading depth, and telescoping to a
subset's depth recovers exactly the formulas its structure supports. The
verification harnesses check that correspondence in both directions.
"""

from logag import (
    default_indexing,
    enumerate_arguments,
    enumerate_structures,
    parse_rules,
    render,
    translate,
    verify,
    wffs,
)

RULES = """
r1: true.
r2: penguin(A).
r3: penguin(A) -> bird(A).
r4: bird(A), ~abnormal(bird(A)) -> flies(A).
r5: penguin(A), ~abnormal(penguin(A)) -> ~flies(A).
r6: penguin(A) -> abnormal(bird(A)).
r7: true => ~abnormal(penguin(A)).
r8: true => ~abnormal(bird(A)).
"""


def main():
    rules = parse_rules(RULES, name="penguin")
    print(f"{len(enumerate_arguments(rules))} arguments can be built from the rules.")

    idx = default_indexing(rules)
    structures = enumerate_structures(rules)
    print(f"{len(structures)} argument structures survive the consistency filter:\n")
    for i, s in enumerate(structures, start=1):
        supported_wffs = ", ".join(sorted(render(w) for w in wffs(s)))
        print(f"T{i} supports: {supported_wffs}")

    theory = translate(rules, idx)
    print(f"\ntranslated theory has {len(theory.terms)} terms; checking correspondence:")
    for i, (_, r1, r2) in enumerate(verify(rules, idx), start=1):
        print(
            f"T{i} at depth {r1.level}: "
            f"every supported formula is a graded consequence: {r1.passed}; "
            f"every graded consequence is classically forced: {r2.passed}"
        )


if __name__ == "__main__":
    main()
