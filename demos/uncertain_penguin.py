"""A bird seen from afar: graded beliefs resolved level by level.

You think you see a penguin (confidence 2). Penguins have wings and cannot
fly. Your brother (trust 3) relays that your sister (trust 2) saw the same
bird flying. Telescoping the graded belief base shows the story unfold:
at level 1 you believe it's a wingless... no — a winged, flightless penguin;
at level 2 the relayed sighting outweighs your own eyes and the penguin
belief is retracted, taking its consequences with it.
"""

from logag import Canon, find_fixpoint, graded_consequences, parse_term, parse_theory, render

THEORY = """
theory penguin_brother.
~p | ~f.          # penguins do not fly
~p | w.           # penguins have wings
G(p, 2).          # what you saw, confidence 2
G(G(f, 2), 3).    # brother (3) reports sister (2) saw it fly
"""


def main():
    theory = parse_theory(THEORY)
    queries = [parse_term(s) for s in ("p", "w", "~f", "f")]

    print("belief base:")
    for t in theory.sorted_terms():
        print("   ", render(t))

    for level in (1, 2, 3):
        canon = Canon("mean", "max", level)
        answers = graded_consequences(theory, canon, queries)
        verdicts = ", ".join(
            f"{render(q)}={'yes' if ok else 'no'}" for q, ok in answers.items()
        )
        print(f"level {level}: {verdicts}")

    level, trace = find_fixpoint(theory, "mean", "max", 6)
    print(f"\nbeliefs stabilize at level {level}.")
    print("conflicts resolved on the way there:")
    for record in trace.levels:
        for members in sorted(sorted(map(render, k)) for k in record.kernels):
            print(f"  entering level {record.index + 1}: {{{', '.join(members)}}}")


if __name__ == "__main__":
    main()
