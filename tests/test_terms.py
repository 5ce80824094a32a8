import copy
import pickle
from fractions import Fraction

import pytest

from logag import (
    TRUE,
    And,
    Atom,
    Grade,
    GradeEq,
    Individual,
    Less,
    Not,
    Or,
    ParseError,
    TrueTerm,
    parse_term,
    parse_theory,
    render,
)
from logag.records import FrozenError
from logag.terms import theory_to_text
from oracles import subterms
from conftest import random_term


def atom(name, *args):
    return Atom(name, tuple(Individual(a) for a in args))


def test_parse_grade_term():
    assert parse_term("G(p, 2)") == Grade(atom("p"), Fraction(2))


def test_parse_negated_disjunction():
    assert parse_term("~p | ~f") == Or(Not(atom("p")), Not(atom("f")))


def test_implication_desugars_at_parse_time():
    got = parse_term("penguin(A) -> bird(A)")
    assert got == Or(Not(atom("penguin", "A")), atom("bird", "A"))


def test_implication_right_associative():
    assert parse_term("a -> b -> c") == parse_term("a -> (b -> c)")


def test_precedence_not_and_or():
    assert parse_term("~a & b | c") == Or(And(Not(atom("a")), atom("b")), atom("c"))


def test_nested_individuals():
    got = parse_term("abnormal(penguin(A))")
    assert got == Atom("abnormal", (Individual("penguin", (Individual("A"),)),))


def test_grade_order_atoms():
    assert parse_term("2 < 3") == Less(Fraction(2), Fraction(3))
    assert parse_term("1/2 == 0.5") == GradeEq(Fraction(1, 2), Fraction(1, 2))


def test_rational_and_decimal_grades():
    assert parse_term("G(p, 5/2)") == parse_term("G(p, 2.5)")


def test_negative_grade_rejected():
    with pytest.raises(ParseError):
        parse_term("G(p, -2)")
    with pytest.raises(ValueError):
        Grade(atom("p"), Fraction(-2))


def test_quantifier_rejected_in_plain_term():
    with pytest.raises(ParseError):
        parse_term("forall x in b: P(x)")


def test_bare_grading_symbol_is_not_an_atom():
    with pytest.raises(ParseError):
        parse_term("G | p")


def test_render_examples():
    assert render(Grade(Grade(atom("f"), Fraction(2)), Fraction(3))) == "G(G(f, 2), 3)"
    assert render(Or(Not(atom("p")), Not(atom("f")))) == "~p | ~f"
    assert render(TRUE) == "true"


def test_render_parenthesizes_right_nested_connectives():
    t = And(atom("a"), And(atom("b"), atom("c")))
    assert parse_term(render(t)) == t
    assert render(t) == "a & (b & c)"


def test_round_trip_random_terms(rng):
    atoms = ["a", "b", "c", "p", "q"]
    for _ in range(300):
        t = random_term(rng, atoms, 4, allow_grades=True)
        assert parse_term(render(t)) == t


def test_theory_expand_forall():
    th = parse_theory(
        """
        domain b = {Tweety, Opus}.
        forall x in b: Bird(x) -> G(Flies(x), 5).
        Bird(x).
        """
    )
    # A statement after the forall is outside its scope: there x is a constant.
    expected = {
        parse_term("Bird(Tweety) -> G(Flies(Tweety), 5)"),
        parse_term("Bird(Opus) -> G(Flies(Opus), 5)"),
        Atom("Bird", (Individual("x"),)),
    }
    assert th.terms == expected


def test_forall_instance_count_matches_domain(rng):
    names = [f"c{i}" for i in range(rng.randint(2, 5))]
    th = parse_theory(
        f"domain d = {{{', '.join(names)}}}.\nforall x in d: P(x).\n"
    )
    assert th.terms == {Atom("P", (Individual(n),)) for n in names}
    assert len(th.terms) == len(names)


def test_multi_variable_forall_expands_product():
    th = parse_theory("domain d = {a, b}.\nforall x, y in d: R(x, y).\n")
    assert len(th.terms) == 4


def test_forall_grounds_nested_individuals_and_conjunctions():
    th = parse_theory(
        "domain b = {Opus, Tux}.\n"
        "forall x in b: Penguin(x) & ~abnormal(penguin(x)) -> G(Flies(x) & Near(x, A), 2).\n"
    )
    assert th.terms == {
        parse_term(f"Penguin({c}) & ~abnormal(penguin({c})) -> G(Flies({c}) & Near({c}, A), 2)")
        for c in ("Opus", "Tux")
    }
    # Only individuals are bound: a predicate named like the variable keeps its name.
    th = parse_theory("domain d = {a, b}.\nforall x in d: x(x).\n")
    assert th.terms == {Atom("x", (Individual("a"),)), Atom("x", (Individual("b"),))}


def test_theory_example_four_term_set():
    th = parse_theory('~p | ~f.\n~p | w.\nG(p,2).\nG(G(f,2),3).\n')
    assert th.terms == {
        parse_term("~p | ~f"),
        parse_term("~p | w"),
        parse_term("G(p, 2)"),
        parse_term("G(G(f, 2), 3)"),
    }


def test_theory_duplicates_removed():
    th = parse_theory("p.\np.\n")
    assert len(th.terms) == 1


def test_theory_text_round_trip(penguin_brother):
    text = theory_to_text(penguin_brother)
    again = parse_theory(text)
    assert again.terms == penguin_brother.terms
    assert again.name == penguin_brother.name


def test_theory_text_round_trip_keeps_domains():
    th = parse_theory(
        "theory birds.\ndomain b = {Tweety, Opus}.\ndomain a = {k}.\n"
        "forall x in b: Bird(x) -> G(Flies(x), 5/2).\n"
    )
    text = theory_to_text(th)
    assert "domain b = {Tweety, Opus}." in text.splitlines()
    again = parse_theory(text)
    assert again == th
    assert theory_to_text(again) == text


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_theory("p.\nq &.\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    [
        (parse_theory, "theory a.\ntheory b.\n", "duplicate theory name", 2, 8),
        (parse_theory, "domain b = {}.", "empty domain 'b'", 1, 8),
        (parse_theory, "domain b = {x}.\n  domain b = {y}.", "duplicate domain 'b'", 2, 10),
        (parse_theory, "domain d = {a}.\nforall x, x in d: P(x).", "duplicate variable in forall", 2, 1),
        (parse_theory, "forall x in b: P(x).", "undeclared domain 'b'", 1, 13),
        (parse_theory, "domain d = {a, b}.\nforall x in d: P(x) &.", "expected a term, found '.'", 2, 22),
        (parse_theory, "domain d = {a, b}.\nforall x in d: P(x)\n", "expected '.', found 'end of input'", 3, 1),
        (parse_theory, "p & domain.", "reserved keyword 'domain' cannot start a term", 1, 5),
        (parse_term, "p q", "unexpected trailing input after term", 1, 3),
        (parse_theory, "p.\n2.", "expected '<' or '==' after grade", 2, 2),
        (parse_theory, "p $ q.", "unexpected character '$'", 1, 3),
        (parse_theory, "G(p, 1/0).", "invalid grade '1/0'", 1, 6),
        (parse_theory, "p.\n1.5/2 < 2.", "invalid grade '1.5/2'", 2, 1),
        (parse_term, "G(p, 2) -> 1 == 3/0", "invalid grade '3/0'", 1, 17),
    ],
    ids=[
        "duplicate-theory-name",
        "empty-domain",
        "duplicate-domain",
        "repeated-forall-variable",
        "undeclared-domain",
        "forall-body",
        "forall-missing-dot",
        "keyword-starts-term",
        "query-trailing-input",
        "grade-without-order",
        "bad-character",
        "zero-denominator",
        "decimal-over-integer",
        "query-zero-denominator",
    ],
)
def test_parse_theory_error_positions(parse, text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


# -- slotted terms that hash once ---------------------------------------------


def _layout_samples(rng):
    samples = [random_term(rng, ["a", "b", "p"], 4, allow_grades=True) for _ in range(200)]
    tower = atom("flies", "A")
    for g in (1, 1, 2, 1):
        tower = Grade(tower, Fraction(g))
    samples += [
        tower,
        Atom("abnormal", (Individual("penguin", (Individual("A"),)),)),
        Individual("penguin", (Individual("A"),)),
        TRUE,
        Less(Fraction(1), Fraction(2)),
        GradeEq(Fraction(1, 2), Fraction(1, 2)),
    ]
    return samples


# Each kind's fields, in order.
FIELDS = {
    Individual: ("name", "args"),
    TrueTerm: (),
    Atom: ("predicate", "args"),
    Not: ("inner",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Grade: ("inner", "grade"),
    Less: ("a", "b"),
    GradeEq: ("a", "b"),
}


def _layout_parts(rng):
    for sample in _layout_samples(rng):
        yield from [sample] if isinstance(sample, Individual) else subterms(sample)


def test_hash_is_the_hash_of_the_field_tuple(rng):
    # frozenset order, and with it SAT numbering and every trace, follows this hash
    kinds = set()
    for t in _layout_parts(rng):
        kinds.add(type(t))
        assert type(t).__match_args__ == FIELDS[type(t)]
        first = hash(t)
        assert first == hash(t) == hash(tuple(getattr(t, name) for name in FIELDS[type(t)]))
    assert kinds == set(FIELDS)


def test_cached_hash_is_invisible_to_eq_and_repr(rng):
    for t in _layout_samples(rng):
        if isinstance(t, Individual) or t is TRUE:  # the parser returns TRUE itself
            continue
        twin = parse_term(render(t))
        assert twin is not t
        before = repr(twin)
        hash(t)  # only ``t`` has its hash cached now
        assert twin == t and repr(twin) == repr(t) == before
        assert hash(twin) == hash(t)
        assert "_hash" not in repr(t)


def test_terms_are_frozen_and_slotted(rng):
    assert issubclass(FrozenError, AttributeError)
    for t in _layout_parts(rng):
        for name in FIELDS[type(t)]:
            with pytest.raises(FrozenError):
                setattr(t, name, getattr(t, name))
            with pytest.raises(FrozenError):
                delattr(t, name)
        with pytest.raises(FrozenError):
            t._hash = 0
        with pytest.raises(FrozenError):
            t.extra = 0
        assert not hasattr(t, "__dict__")


def test_terms_survive_copies_and_pickles(rng):
    for t in _layout_parts(rng):
        hash(t)  # the cached slots do not travel, and need not
        if not isinstance(t, Individual):
            render(t)
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(twin) is type(t) and twin == t
            assert hash(twin) == hash(t) and repr(twin) == repr(t)
            assert not hasattr(twin, "__dict__")
        deep = copy.deepcopy(t)
        for name in FIELDS[type(t)]:
            value = getattr(t, name)
            assert getattr(deep, name) == value
            if isinstance(value, (Individual, Not, And, Or, Grade, Atom)):
                assert getattr(deep, name) is not value
