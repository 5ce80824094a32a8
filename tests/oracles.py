"""Independent reference implementations used to cross-check the engine.

These deliberately avoid the engine's code paths: entailment is exhaustive
truth-table evaluation, kernel enumeration is brute-force subset search.
Slow and simple on purpose.
"""

from itertools import combinations, product

from logag.grading import _chain_witnesses
from logag.terms import And, Atom, Grade, GradeEq, Less, Not, Or, Term, TrueTerm, render


def _collect_atoms(t: Term, acc: list):
    if isinstance(t, (Atom, Grade)):
        key = render(t)
        if key not in acc:
            acc.append(key)
    elif isinstance(t, Not):
        _collect_atoms(t.inner, acc)
    elif isinstance(t, (And, Or)):
        _collect_atoms(t.left, acc)
        _collect_atoms(t.right, acc)


def _eval(t: Term, model: dict) -> bool:
    if isinstance(t, TrueTerm):
        return True
    if isinstance(t, Less):
        return t.a < t.b
    if isinstance(t, GradeEq):
        return t.a == t.b
    if isinstance(t, (Atom, Grade)):
        return model[render(t)]
    if isinstance(t, Not):
        return not _eval(t.inner, model)
    if isinstance(t, And):
        return _eval(t.left, model) and _eval(t.right, model)
    if isinstance(t, Or):
        return _eval(t.left, model) or _eval(t.right, model)
    raise TypeError(t)


def _models(terms):
    atoms: list = []
    for t in terms:
        _collect_atoms(t, atoms)
    for bits in product((False, True), repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def tt_satisfiable(terms) -> bool:
    terms = list(terms)
    return any(all(_eval(t, m) for t in terms) for m in _models(terms))


def tt_entails(base, goal: Term) -> bool:
    base = list(base)
    return all(
        _eval(goal, m) for m in _models(base + [goal]) if all(_eval(t, m) for t in base)
    )


def brute_kernels(q) -> set:
    """All subset-minimal classically inconsistent subsets, by brute force."""
    items = sorted(q, key=render)
    found: list = []
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            subset = frozenset(combo)
            if any(k <= subset for k in found):
                continue
            if not tt_satisfiable(combo):
                found.append(subset)
    return set(found)


def table_chains(p: Term, q) -> frozenset:
    """Every grading chain of ``p`` in ``q``, read off the witness table.

    The table is built for every proposition buried in ``q``, the way
    ``grading_chains`` used to answer before it walked only ``p``'s chains.
    """
    return frozenset(chain for _, chain in _chain_witnesses(frozenset(q)).get(p, ()))
