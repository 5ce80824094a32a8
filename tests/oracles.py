"""Independent reference implementations used to cross-check the engine.

These deliberately avoid the engine's code paths: entailment is exhaustive
truth-table evaluation, kernel enumeration is brute-force subset search,
grading chains are peeled layer by layer and fused as peeled, survival
follows the rule ``survives`` documents, support is a least fixpoint over
peeled chains, argument structures are checked against their four defining
conditions one by one, and the universe is the closure under ``subterms``.
Stable models of normal logic programs come from the Gelfond-Lifschitz
reduct, candidate by candidate. Slow and simple on purpose.
"""

from fractions import Fraction
from itertools import combinations, product

from logag.arguments import Argument, RuleSet, parse_rules
from logag.errors import UngradedError
from logag.terms import And, Atom, Grade, GradeEq, Less, Not, Or, Term, TrueTerm, render


def subterms(t: Term):
    """Every proposition-sorted subterm of ``t``, including ``t`` itself."""
    yield t
    if isinstance(t, Not):
        yield from subterms(t.inner)
    elif isinstance(t, (And, Or)):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, Grade):
        yield from subterms(t.inner)


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


def peeled_chains(p: Term, q) -> frozenset:
    """Every grading chain of ``p`` in ``q`` as ``(p, grades innermost first)``.

    Peels one ``G`` layer off every member at a time, all members together,
    and keeps the grades peeled on each way down that reaches ``p``.
    """
    found = set()
    layer = [(t, ()) for t in q]
    while layer:
        peeled = [(t.inner, (t.grade,) + grades) for t, grades in layer if isinstance(t, Grade)]
        found.update((p, grades) for t, grades in peeled if t == p)
        layer = peeled
    return frozenset(found)


OTIMES = {
    "sum": lambda gs: sum(gs, Fraction(0)),
    "mean": lambda gs: sum(gs, Fraction(0)) / len(gs),
    "min": min,
    "max": max,
}
OPLUS = {"max": max, "min": min}


def fused_grade(p: Term, q, canon):
    """Each chain of ``p`` in ``q`` no longer than ``canon.level`` fused by
    ``otimes``, then across chains by ``oplus``; raises
    :class:`UngradedError` when no chain qualifies."""
    chains = [grades for _, grades in peeled_chains(p, q) if len(grades) <= canon.level]
    if not chains:
        raise UngradedError(render(p))
    return OPLUS[canon.oplus]([OTIMES[canon.otimes](list(grades)) for grades in chains])


def _atoms(t: Term) -> set:
    acc: list = []
    _collect_atoms(t, acc)
    return set(acc)


def _linked(atoms: dict, seen: set) -> list:
    """Pops from ``atoms`` (term to its atoms) every term that shares atoms
    with ``seen``, transitively, and returns them."""
    part = []
    linked = True
    while linked:
        linked = [t for t in atoms if atoms[t] & seen]
        for t in linked:
            seen |= atoms.pop(t)
        part += linked
    return part


def _entails(base, goal: Term) -> bool:
    """``tt_entails`` for a consistent base, reading only the part of it that
    shares atoms with ``goal``, transitively: the rest has a model of its own."""
    return tt_entails(_linked({t: _atoms(t) for t in base}, _atoms(goal)), goal)


def _consistent(base) -> bool:
    """``tt_satisfiable`` of ``base``, one group of terms linked by shared atoms at a time."""
    atoms = {t: _atoms(t) for t in base}
    while atoms:
        t, seen = atoms.popitem()
        if not tt_satisfiable([t, *_linked(atoms, set(seen))]):
            return False
    return True


def survivors(expansion, kernels, top, canon) -> frozenset:
    """The members of ``expansion`` that survive every kernel holding them.

    A member survives a kernel when it has no immediate grader ``G(p, g)``
    in the expansion, or when another member is to blame: one whose
    negation ``top`` entails, or one that ``top`` does not entail and that
    has no immediate grader or a strictly smaller fused grade. ``top`` is
    consistent, and grades fuse over chains no longer than ``canon.level``.
    """
    graded = {t.inner for t in expansion if isinstance(t, Grade)}

    def grade(p):
        return fused_grade(p, expansion, canon)

    def blamed(o, p):
        if o == p:
            return False
        if _entails(top, Not(o)):
            return True
        if _entails(top, o):
            return False
        return o not in graded or grade(o) < grade(p)

    return frozenset(
        p
        for p in expansion
        if all(p not in graded or any(blamed(o, p) for o in k) for k in kernels if p in k)
    )


def supported(q, expansion, top) -> frozenset:
    """The least set holding every member of ``expansion`` that ``top``
    entails, and every member ``p`` of ``q`` buried by a member of ``q`` that
    the set entails: the outermost proposition of one of ``p``'s
    ``peeled_chains``. An inconsistent set entails everything."""
    top_consistent = _consistent(top)
    result = {u for u in expansion if not top_consistent or _entails(top, u)}
    buriers = {p: [w for w in q if peeled_chains(p, {w})] for p in q - result}
    while True:
        consistent = _consistent(result)
        admitted = {
            p for p in buriers if p not in result and any(not consistent or _entails(result, w) for w in buriers[p])
        }
        if not admitted:
            return frozenset(result)
        result |= admitted


def validate_structure(rules: RuleSet, args: frozenset) -> bool:
    """Whether ``args`` meets the four defining conditions of a structure.

    It holds every base fact, every subtree of its arguments and every
    argument a monotonic rule builds from its arguments, and it never
    supports both a literal and its negation.
    """
    if any(Argument(r.conclusion) not in args for r in rules.facts()):
        return False
    for a in args:
        if any(c not in args for c in a.children):
            return False
    for rule in rules.monotonic():
        pools = [[a for a in args if a.root == w] for w in rule.premises]
        for combo in product(*pools):
            if all(rule.conclusion not in c.nodes() for c in combo):
                if Argument(rule.conclusion, combo, rule.label) not in args:
                    return False
    roots = {a.root for a in args}
    return not any(Not(w) in roots for w in roots)


def random_rule_system(rng, name="random"):
    """A seeded rule system: 1-2 facts, 1-3 defaults, 0-2 monotonic rules.

    Literals range over at most four atoms and their negations; facts may
    also be ``true``. Premises are mostly drawn from the facts and the
    earlier conclusions, so that rules fire and chain.
    """
    atoms = ["a", "b", "c", "d"][: rng.randint(2, 4)]

    def literal():
        return rng.choice(["", "~"]) + rng.choice(atoms)

    pool = [rng.choice(["true", literal()]) for _ in range(rng.randint(1, 2))]
    lines = [f"f{i}: {w}." for i, w in enumerate(pool)]
    arrows = ["=>"] * rng.randint(1, 3) + ["->"] * rng.randint(0, 2)
    for i, arrow in enumerate(arrows):
        premises = [rng.choice(pool) if rng.random() < 0.8 else literal() for _ in range(rng.randint(1, 2))]
        conclusion = literal()
        pool.append(conclusion)
        label = "d" if arrow == "=>" else "m"
        lines.append(f"{label}{i}: {', '.join(premises)} {arrow} {conclusion}.")
    return parse_rules("\n".join(lines) + "\n", name)


NAF_ATOMS = ("a", "b", "c")


def random_normal_program(rng, name="program"):
    """A seeded normal logic program over ``NAF_ATOMS`` and its rule system.

    The program is 1-4 clauses ``(head, positive, negative)``: ``head`` holds
    when every atom of ``positive`` does and none of ``negative`` does (each
    body names at most two atoms of each kind). The rule system encodes it
    for negation as failure: the fact ``f0: true.``; per clause
    ``h <- p, not r`` the monotonic rule ``p, ~r -> h`` (premise ``true`` when
    the body is empty); per atom ``x`` the default ``true => ~x``.
    """
    program = [
        (rng.choice(NAF_ATOMS), tuple(rng.sample(NAF_ATOMS, rng.randint(0, 2))),
         tuple(rng.sample(NAF_ATOMS, rng.randint(0, 2))))
        for _ in range(rng.randint(1, 4))
    ]
    lines = ["f0: true."]
    for i, (head, positive, negative) in enumerate(program):
        premises = [*positive, *(f"~{r}" for r in negative)] or ["true"]
        lines.append(f"m{i}: {', '.join(premises)} -> {head}.")
    lines += [f"d{x}: true => ~{x}." for x in NAF_ATOMS]
    return program, parse_rules("\n".join(lines) + "\n", name)


def stable_models(program) -> set:
    """Every stable model of ``program``, as a frozenset of atom names.

    A candidate M is stable when it is the least model of the reduct P^M:
    drop each clause with a negated atom in M, then drop the negations from
    the rest (Gelfond and Lifschitz, ICLP 1988).
    """
    models = set()
    for bits in product((False, True), repeat=len(NAF_ATOMS)):
        m = frozenset(x for x, b in zip(NAF_ATOMS, bits) if b)
        reduct = [(head, positive) for head, positive, negative in program if not m.intersection(negative)]
        least: set = set()
        while True:
            new = {head for head, positive in reduct if least.issuperset(positive)} - least
            if not new:
                break
            least |= new
        if least == m:
            models.add(m)
    return models
