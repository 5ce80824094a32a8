"""Seeded random graded theories for the ``random-batch`` workload.

The shape follows ``tests/conftest.random_term``: atoms, negations,
conjunctions, disjunctions and gradings with integer grades 1..5, a grading
nested once more with probability 0.3. A theory has 8, 11 or 14 atoms and
6..12 terms; the queries are three of its atoms.

Every theory is consistent by construction: a valuation of its atoms and
grading terms is drawn first, and a drawn term joins the theory only if it
holds there. An inconsistent theory takes the engine's short cut to the
improper filter in about 0.6 ms, against about 8 ms for a consistent one.
Unconstrained, 46% of theories are inconsistent, so the median op time falls
between the two modes and jumps by a quarter from one run to the next.

A drawn theory is kept only when, judged from the theory alone, the engine's
default limits cannot refuse it: at most ``atom_cap`` distinct atoms and
grading terms in its subterm closure, and at most ``kernel_cap`` subterms in
any atom-connected group of that closure (every kernel-search component is a
subset of one such group). Otherwise it is drawn again from the same stream.
Unfiltered, about 1 theory in 1000 exceeds ``kernel_cap`` at level 4.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from logag import DEFAULT_LIMITS, And, Atom, Canon, Grade, Not, Or, Term, Theory, render

CANON = Canon("sum", "max", 4)
ATOM_COUNTS = (8, 11, 14)
N_QUERIES = 3


def _term(rng: random.Random, atoms: list[str], depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.35:
        return Atom(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.25:
        return Not(_term(rng, atoms, depth - 1))
    if roll < 0.55:
        return And(_term(rng, atoms, depth - 1), _term(rng, atoms, depth - 1))
    if roll < 0.85:
        return Or(_term(rng, atoms, depth - 1), _term(rng, atoms, depth - 1))
    out = Grade(_term(rng, atoms, depth - 1), Fraction(rng.randint(1, 5)))
    if rng.random() < 0.3:
        out = Grade(out, Fraction(rng.randint(1, 5)))
    return out


def _holds(t: Term, model: dict[Term, bool], rng: random.Random) -> bool:
    """Truth of ``t`` in ``model``; grading terms are opaque atoms, valued on first sight."""
    if isinstance(t, (Atom, Grade)):
        if t not in model:
            model[t] = rng.random() < 0.5
        return model[t]
    if isinstance(t, Not):
        return not _holds(t.inner, model, rng)
    if isinstance(t, And):
        return _holds(t.left, model, rng) and _holds(t.right, model, rng)
    return _holds(t.left, model, rng) or _holds(t.right, model, rng)


def _closure(terms) -> set[Term]:
    seen: set[Term] = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if isinstance(t, (Not, Grade)):
            stack.append(t.inner)
        elif isinstance(t, (And, Or)):
            stack.extend((t.left, t.right))
    return seen


def _skeleton(t: Term) -> set[Term]:
    """Atoms and grading terms a proposition is built from, gradings opaque."""
    if isinstance(t, (Atom, Grade)):
        return {t}
    if isinstance(t, Not):
        return _skeleton(t.inner)
    if isinstance(t, (And, Or)):
        return _skeleton(t.left) | _skeleton(t.right)
    return set()


def atoms_of(terms) -> set[Term]:
    """Distinct atoms and grading terms: the boolean variables a SAT call can see."""
    return {t for t in _closure(terms) if isinstance(t, (Atom, Grade))}


def within_default_limits(terms) -> bool:
    if len(atoms_of(terms)) > DEFAULT_LIMITS.atom_cap:
        return False
    universe = _closure(terms)
    parent: dict[Term, Term] = {}

    def find(x: Term) -> Term:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    skeletons = [list(_skeleton(t)) for t in universe]
    for keys in skeletons:
        for k in keys[1:]:
            a, b = find(keys[0]), find(k)
            if a != b:
                parent[a] = b
    sizes: dict[Term, int] = {}
    for keys in skeletons:
        if keys:
            root = find(keys[0])
            sizes[root] = sizes.get(root, 0) + 1
    return max(sizes.values(), default=0) <= DEFAULT_LIMITS.kernel_cap


def theory(seed: int, index: int) -> tuple[Theory, list[Term]]:
    """Theory ``index`` of the stream for ``seed``, with its atom queries."""
    rng = random.Random(f"logag-bench:{seed}:{index}")
    while True:
        atoms = [f"p{k}" for k in range(rng.choice(ATOM_COUNTS))]
        model = {Atom(a): rng.random() < 0.5 for a in atoms}
        drawn = []
        for _ in range(rng.randint(6, 12)):
            t = _term(rng, atoms, rng.randint(1, 3))
            while not _holds(t, model, rng):
                t = _term(rng, atoms, rng.randint(1, 3))
            drawn.append(t)
        terms = frozenset(drawn)
        queries = [Atom(a) for a in rng.sample(atoms, N_QUERIES)]
        if within_default_limits(list(terms) + queries):
            return Theory(f"random_{seed}_{index}", (), terms), queries


def answers_line(index: int, answers: dict) -> str:
    return f"{index}\t" + "\t".join(f"{render(q)}={int(ok)}" for q, ok in answers.items())


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()
