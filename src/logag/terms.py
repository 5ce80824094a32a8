"""Ground propositional terms with nestable grading annotations.

The language has boolean connectives over predicate atoms, a grading
constructor ``G(t, g)`` attaching an exact non-negative rational grade ``g``
to a proposition ``t`` (nestable to arbitrary finite depth), and numeric
grade-order atoms ``g1 < g2`` / ``g1 == g2``. Implication is surface sugar
only: ``a -> b`` is stored as ``~a | b`` and never appears in a parsed term.

Theory files are line-oriented statements terminated by ``.`` with ``#``
comments:

    stmt        := theory-decl | domain-decl | forall-stmt | term-stmt
    theory-decl := "theory" IDENT "."
    domain-decl := "domain" IDENT "=" "{" IDENT ("," IDENT)* "}" "."
    forall-stmt := "forall" VAR ("," VAR)* "in" IDENT ":" term "."
    term-stmt   := term "."
    term        := "true" | atom | "~" term | term "&" term | term "|" term
                 | term "->" term | "G(" term "," grade ")"
                 | grade "<" grade | grade "==" grade
    atom        := IDENT [ "(" individual ("," individual)* ")" ]
    individual  := IDENT [ "(" individual ("," individual)* ")" ]
    grade       := non-negative decimal numeral or rational "a/b"

Precedence: ``~`` > ``&`` > ``|`` > ``->``; ``->`` is right-associative.
Universal statements range over a declared finite domain and are expanded
eagerly into their ground instances, so a parsed theory holds ground terms
only. Term equality everywhere downstream is structural equality of the
parsed (implication-free) tree; a telescoping run also shares one object per
distinct term, which changes no answer.

Rules files (``rule_statements``) use the same tokens, over literals only:

    rule        := IDENT ":" body "."
    body        := wff                              (base fact)
                 | wff ("," wff)* ("->" | "=>") wff (monotonic | non-monotonic)
    wff         := ["~"] (atom | "true")

Individuals and terms are records (``logag.records``), so each hashes once:
the structural hash, the hash of the field tuple, is computed on first use
and kept in a ``_hash`` slot. A term's ``render`` text is kept the same way,
in the ``_text`` slot of :class:`Term`, so it lives exactly as long as the
term and no module holds a table of texts. Equality stays structural,
whichever objects are compared; the slots take no part in ``==`` or ``repr``.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import product

from .errors import ParseError
from .records import record

GradeValue = Fraction

_KEYWORDS = {"domain", "forall", "in", "theory"}


@record
class Individual:
    """A constant or a functional individual such as ``penguin(A)``."""

    name: str
    args: tuple["Individual", ...] = ()

    def render(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(a.render() for a in self.args)})"


class Term:
    """Marker base class; concrete terms are the frozen records below."""

    __slots__ = ("_text",)


@record
class TrueTerm(Term):
    pass


@record
class Atom(Term):
    predicate: str
    args: tuple[Individual, ...] = ()


@record
class Not(Term):
    inner: Term


@record
class And(Term):
    left: Term
    right: Term


@record
class Or(Term):
    left: Term
    right: Term


@record
class Grade(Term):
    """The grading proposition: ``inner`` carries grade ``grade``."""

    inner: Term
    grade: GradeValue

    def __post_init__(self):
        if self.grade < 0:
            raise ValueError(f"grade must be non-negative, got {self.grade}")


@record
class Less(Term):
    a: GradeValue
    b: GradeValue


@record
class GradeEq(Term):
    a: GradeValue
    b: GradeValue


TRUE = TrueTerm()


@record
class Theory:
    """A named finite set of ground terms plus its domain declarations."""

    name: str
    domains: tuple[tuple[str, tuple[Individual, ...]], ...]
    terms: frozenset[Term]

    def sorted_terms(self) -> tuple[Term, ...]:
        return tuple(sorted(self.terms, key=render))


def grade_text(value: GradeValue) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# Precedence levels used by render: | = 1, & = 2, everything else atomic.
def _prec(t: Term) -> int:
    if isinstance(t, Or):
        return 1
    if isinstance(t, And):
        return 2
    return 3


def render(t: Term) -> str:
    """Canonical text for a term; ``parse_term(render(t)) == t``.

    Written once into the term's ``_text`` slot on first use.
    """
    try:
        return t._text
    except AttributeError:
        pass

    def sub(x: Term, min_prec: int) -> str:
        s = render(x)
        return f"({s})" if _prec(x) < min_prec else s

    if isinstance(t, TrueTerm):
        text = "true"
    elif isinstance(t, Atom):
        text = f"{t.predicate}({', '.join(a.render() for a in t.args)})" if t.args else t.predicate
    elif isinstance(t, Not):
        text = "~" + sub(t.inner, 3)
    elif isinstance(t, And):
        # left-associative parse: the right child needs parens if it is an And
        text = f"{sub(t.left, 2)} & {sub(t.right, 3)}"
    elif isinstance(t, Or):
        text = f"{sub(t.left, 1)} | {sub(t.right, 2)}"
    elif isinstance(t, Grade):
        text = f"G({render(t.inner)}, {grade_text(t.grade)})"
    elif isinstance(t, Less):
        text = f"{grade_text(t.a)} < {grade_text(t.b)}"
    elif isinstance(t, GradeEq):
        text = f"{grade_text(t.a)} == {grade_text(t.b)}"
    else:
        raise TypeError(f"not a term: {t!r}")
    object.__setattr__(t, "_text", text)
    return text


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<arrow>->)
      | (?P<darrow>=>)
      | (?P<eqeq>==)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[(){},.:~&|<=])
    """,
    re.VERBOSE,
)


@record
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound: dict[str, Individual] = {}  # a forall instance's variables

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def listed(self, item: Callable[[], object]) -> list:
        """``item ("," item)*``: what ``item`` parses, one or more times."""
        items = [item()]
        while self.at_punct(","):
            self.advance()
            items.append(item())
        return items

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        left = self.or_term()
        if self.peek().kind == "arrow":
            self.advance()
            right = self.term()  # right-associative
            return Or(Not(left), right)
        return left

    def or_term(self) -> Term:
        left = self.and_term()
        while self.at_punct("|"):
            self.advance()
            left = Or(left, self.and_term())
        return left

    def and_term(self) -> Term:
        left = self.unary_term()
        while self.at_punct("&"):
            self.advance()
            left = And(left, self.unary_term())
        return left

    def unary_term(self) -> Term:
        if self.at_punct("~"):
            self.advance()
            return Not(self.unary_term())
        return self.primary_term()

    def grade(self) -> GradeValue:
        """The next numeral as a grade; ``1/0`` and ``1.5/2`` tokenize but are no grade."""
        tok = self.expect("number")
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"invalid grade {tok.text!r}", tok.line, tok.column) from None

    def primary_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            inner = self.term()
            self.expect("punct", ")")
            return inner
        if tok.kind == "number":
            a = self.grade()
            op = self.peek()
            if op.kind == "eqeq":
                self.advance()
                return GradeEq(a, self.grade())
            if self.at_punct("<"):
                self.advance()
                return Less(a, self.grade())
            raise self.fail("expected '<' or '==' after grade")
        if tok.kind == "ident":
            if tok.text == "true":
                self.advance()
                return TRUE
            if tok.text in _KEYWORDS:
                raise self.fail(f"reserved keyword {tok.text!r} cannot start a term")
            if tok.text == "G":
                self.advance()
                self.expect("punct", "(")
                inner = self.term()
                self.expect("punct", ",")
                g = self.grade()
                self.expect("punct", ")")
                return Grade(inner, g)
            return self.atom()
        raise self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def literal(self) -> Term:
        """``["~"] (atom | "true")``, refusing a following connective."""
        start = self.peek()
        if self.at_punct("~"):
            self.advance()
            if self.at_punct("~"):
                raise ParseError("a literal takes at most one '~'", start.line, start.column)
            return Not(self.literal())
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail("expected a literal")
        if tok.text == "true":
            self.advance()
            return TRUE
        atom = self.atom()
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text in ("&", "|") or nxt.kind == "eqeq":
            raise self.fail("compound formulas are not allowed in rules; use literals")
        return atom

    def atom(self) -> Atom:
        return Atom(self.expect("ident").text, self.individual_args())

    def individual(self) -> Individual:
        """An individual; a zero-argument name a ``forall`` binds reads as its value."""
        name = self.expect("ident").text
        args = self.individual_args()
        return Individual(name, args) if args else self.bound.get(name, Individual(name))

    def individual_args(self) -> tuple[Individual, ...]:
        """``"(" individual ("," individual)* ")"``, or none."""
        if not self.at_punct("("):
            return ()
        self.advance()
        args = self.listed(self.individual)
        self.expect("punct", ")")
        return tuple(args)


def parse_term(text: str) -> Term:
    """Parse a single ground term (no statements, no quantifiers)."""
    parser = _Parser(text)
    t = parser.term()
    if parser.peek().kind != "eof":
        raise parser.fail("unexpected trailing input after term")
    return t


def rule_statements(text: str) -> Iterator[tuple[str, str | None, tuple[Term, ...], Term]]:
    """Read a rules file's statements, one at a time, in file order.

    Yields ``(label, arrow, premises, conclusion)``: ``arrow`` is ``"->"``
    or ``"=>"`` for a rule and None for a base fact, whose premises are
    empty. Every premise and conclusion is a literal, and no label repeats.
    """
    parser = _Parser(text)
    labels: set[str] = set()
    while parser.peek().kind != "eof":
        label = parser.expect("ident")
        if label.text in labels:
            raise ParseError("duplicate rule label", label.line, label.column)
        labels.add(label.text)
        parser.expect("punct", ":")
        literals = parser.listed(parser.literal)
        if parser.peek().kind in ("arrow", "darrow"):
            arrow = parser.advance().text
            premises, conclusion = tuple(literals), parser.literal()
        elif len(literals) != 1:
            raise parser.fail("a base fact is a single literal")
        else:
            arrow, premises, conclusion = None, (), literals[0]
        parser.expect("punct", ".")
        yield label.text, arrow, premises, conclusion


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str, name: str = "theory") -> Theory:
    """Parse a theory file into a ground, duplicate-free term set.

    Every ``forall`` statement is expanded over its declared domain: with k
    bound variables over a domain of size d it contributes d**k ground
    instances. Its body is parsed once per instance, with the instance's
    domain elements read for every zero-argument individual whose name is a
    bound variable, including inside nested individuals such as
    ``abnormal(penguin(x))``; predicates keep their names. A parse error in
    the body is raised on the first instance.
    """
    parser = _Parser(text)
    domains: dict[str, tuple[Individual, ...]] = {}
    terms: dict[Term, None] = {}
    declared_name: str | None = None

    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind == "ident" and tok.text == "theory":
            parser.advance()
            name_tok = parser.expect("ident")
            parser.expect("punct", ".")
            if declared_name is not None:
                raise ParseError("duplicate theory name", name_tok.line, name_tok.column)
            declared_name = name_tok.text
        elif tok.kind == "ident" and tok.text == "domain":
            parser.advance()
            dom_tok = parser.expect("ident")
            parser.expect("punct", "=")
            parser.expect("punct", "{")
            members: list[Individual] = []
            if parser.peek().kind == "ident":
                members = parser.listed(lambda: Individual(parser.expect("ident").text))
            parser.expect("punct", "}")
            parser.expect("punct", ".")
            if not members:
                raise ParseError(f"empty domain {dom_tok.text!r}", dom_tok.line, dom_tok.column)
            if dom_tok.text in domains:
                raise ParseError(f"duplicate domain {dom_tok.text!r}", dom_tok.line, dom_tok.column)
            domains[dom_tok.text] = tuple(members)
        elif tok.kind == "ident" and tok.text == "forall":
            parser.advance()
            variables = parser.listed(lambda: parser.expect("ident").text)
            if len(set(variables)) != len(variables):
                raise ParseError("duplicate variable in forall", tok.line, tok.column)
            parser.expect("ident", "in")
            dom_tok = parser.expect("ident")
            if dom_tok.text not in domains:
                raise ParseError(f"undeclared domain {dom_tok.text!r}", dom_tok.line, dom_tok.column)
            parser.expect("punct", ":")
            body = parser.pos
            for combo in product(domains[dom_tok.text], repeat=len(variables)):
                parser.pos, parser.bound = body, dict(zip(variables, combo))
                terms[parser.term()] = None
                parser.expect("punct", ".")
            parser.bound = {}
        else:
            t = parser.term()
            parser.expect("punct", ".")
            terms[t] = None

    return Theory(
        name=declared_name or name,
        domains=tuple(sorted(domains.items())),
        terms=frozenset(terms),
    )


def theory_to_text(theory: Theory) -> str:
    """Write a theory back out in the file grammar (stable, reparseable)."""
    lines = [f"theory {theory.name}."]
    for dom, members in theory.domains:
        lines.append(f"domain {dom} = {{{', '.join(m.render() for m in members)}}}.")
    for t in theory.sorted_terms():
        lines.append(f"{render(t)}.")
    return "\n".join(lines) + "\n"
