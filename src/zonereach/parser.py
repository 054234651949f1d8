"""Reader and printer for the textual network format.

The format is word-oriented: lists of identifiers end in ``nil``,
constraints are ``atom ^ ... ^ true``, automata are parenthesized
blocks terminated by ``.``, and ``//`` starts a comment.  A query is
``go(loc.loc.nil/constraint, loc.loc.nil/constraint)`` with the
location vector matching the automata positionally.

Identifiers may contain ``-``, so ``X-Y`` in a constraint is read as a
single word first and split into a clock difference only when the whole
word is not itself a declared clock.

``parse_spec`` returns a validated network with constants scaled to
integers; syntax problems raise ``ParseError`` with line/column
positions, structural problems raise ``model.ValidationError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, NamedTuple, Optional, TypeVar

from .model import (
    TRUE,
    Atom,
    Automaton,
    ClockConstraint,
    ClockId,
    LabelId,
    LocationId,
    Network,
    Query,
    StatePattern,
    Transition,
    normalize_constants,
    scale_constant,
    validate,
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class Token(NamedTuple):
    kind: str  # "word" | "op" | "punct" | "eof"
    text: str
    offset: int  # into the text it was read from


# Whitespace and comments in front of each token are skipped; the scan
# ends in one ``eof`` token, or at the first ``bad`` character.
_TOKEN = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (?:
        (?P<word>[A-Za-z0-9_\-]+)
      | (?P<op><=|>=|<|>|=)
      | (?P<punct>[().,:/^])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

RESERVED = frozenset({"nil", "true"})


def _diagnostic(text: str, offset: int, message: str) -> Diagnostic:
    """``message`` at the line and column of ``offset`` into ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return Diagnostic(text.count("\n", 0, offset) + 1, offset - line_start + 1, message)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = Token(kind, m.group(kind), m.start(kind))
        if kind == "bad":
            raise ParseError([_diagnostic(text, tok.offset, f"unexpected character {tok.text!r}")])
        tokens.append(tok)
        if kind == "eof":
            return tokens


T = TypeVar("T")

_INT = re.compile(r"-?\d+$")
_DIGITS = re.compile(r"\d+$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str):
        raise ParseError([_diagnostic(self.text, tok.offset, message)])

    def _expect(self, kind: str, text: Optional[str], what: str) -> Token:
        """The next token, of ``kind`` and spelled ``text`` unless that is
        None; otherwise fail with "expected <what>"."""
        tok = self.advance()
        if tok.kind != kind or (text is not None and tok.text != text):
            found = repr(tok.text) if tok.text else "end of input"
            self.fail(tok, f"expected {what}, found {found}")
        return tok

    def expect_word(self, what: str) -> Token:
        return self._expect("word", None, what)

    def expect_punct(self, mark: str) -> Token:
        return self._expect("punct", mark, repr(mark))

    def expect_keyword(self, word: str) -> Token:
        return self._expect("word", word, repr(word))

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(tok, f"unexpected trailing input {tok.text!r}")

    def at_nil(self) -> bool:
        """Consume a closing ``nil`` if it comes next."""
        tok = self.peek()
        if tok.kind == "word" and tok.text == "nil":
            self.advance()
            return True
        return False

    # -- shared pieces --------------------------------------------------

    def lookup(self, tok: Token, table: Mapping[str, T], message: str) -> T:
        """The entry ``tok`` names in ``table``; failing that, fail at
        ``tok`` with ``message``, its ``{!r}`` filled with the name."""
        if tok.text not in table:
            self.fail(tok, message.format(tok.text))
        return table[tok.text]

    def clock(self, tok: Token, clocks: dict[str, ClockId]) -> ClockId:
        """The declared clock ``tok`` names."""
        return self.lookup(tok, clocks, "unknown clock {!r}")

    def identifier_list(self, what: str) -> list[Token]:
        """Words up to and including the closing ``nil``."""
        items = []
        while True:
            tok = self.expect_word(f"{what} or 'nil'")
            if tok.text == "nil":
                return items
            if tok.text in RESERVED:
                self.fail(tok, f"{tok.text!r} is reserved and cannot name a {what}")
            items.append(tok)

    def number(self) -> Fraction:
        tok = self.expect_word("a number")
        if not _INT.match(tok.text):
            self.fail(tok, f"expected a number, found {tok.text!r}")
        whole = int(tok.text)
        # A terminating decimal arrives as three tokens: digits '.' digits.
        if (
            self.peek().kind == "punct"
            and self.peek().text == "."
            and self.tokens[self.pos + 1].kind == "word"
            and _DIGITS.match(self.tokens[self.pos + 1].text)
        ):
            self.advance()
            frac_tok = self.advance()
            frac = Fraction(int(frac_tok.text), 10 ** len(frac_tok.text))
            sign = -1 if tok.text.startswith("-") else 1
            return Fraction(whole) + sign * frac
        return Fraction(whole)

    def clock_sides(self, clocks: dict[str, ClockId]) -> tuple[ClockId, Optional[ClockId]]:
        """The clock (or clock difference) on the left of a comparison.

        Hyphens are legal inside identifiers, so ``X-Y`` only denotes a
        difference when the whole word is not a declared clock but both
        halves around some hyphen are.
        """
        tok = self.expect_word("a clock")
        word = tok.text
        if word in clocks:
            lhs = clocks[word]
            nxt = self.peek()
            if nxt.kind == "word" and nxt.text == "-":
                self.advance()
                return lhs, self.clock(self.expect_word("a clock"), clocks)
            if nxt.kind == "word" and nxt.text.startswith("-") and nxt.text[1:] in clocks:
                self.advance()
                return lhs, clocks[nxt.text[1:]]
            return lhs, None
        if word.endswith("-") and word[:-1] in clocks:
            return clocks[word[:-1]], self.clock(self.expect_word("a clock"), clocks)
        for cut in range(1, len(word)):
            if word[cut] == "-" and word[:cut] in clocks and word[cut + 1 :] in clocks:
                return clocks[word[:cut]], clocks[word[cut + 1 :]]
        return self.clock(tok, clocks), None  # neither a clock nor a difference: fails

    def constraint(self, clocks: dict[str, ClockId], scale: Optional[int] = None) -> ClockConstraint:
        """``atom ^ ... ^ true``.  With ``scale``, each constant is brought
        onto it as it is read, and one that cannot be fails at its own
        token, quoted as written."""
        atoms = []
        while True:
            tok = self.peek()
            if tok.kind == "word" and tok.text == "true":
                self.advance()
                return ClockConstraint(tuple(atoms)) if atoms else TRUE
            lhs, rhs = self.clock_sides(clocks)
            op_tok = self._expect("op", None, "a comparison operator")
            start = self.pos
            const = self.number()
            if scale is not None:
                written = "".join(t.text for t in self.tokens[start : self.pos])
                try:
                    const = scale_constant(const, scale, written)
                except ValueError as err:
                    self.fail(self.tokens[start], str(err))
            atoms.append(Atom(lhs, rhs, op_tok.text, const))
            self.expect_punct("^")

    def location_vector(self, what: str) -> list[Token]:
        """``loc.loc. ... .nil`` with at least one location."""
        items = []
        while True:
            tok = self.expect_word(f"{what} or 'nil'")
            if tok.text == "nil":
                if not items:
                    self.fail(tok, "a location vector needs at least one location")
                return items
            items.append(tok)
            self.expect_punct(".")

    # -- the specification ----------------------------------------------

    def specification(self) -> Network:
        self.expect_keyword("specification")
        name = self.expect_word("a specification name")
        self.expect_keyword("Clocks")
        clock_tokens = self.identifier_list("clock")
        self.expect_keyword("States")
        location_tokens = self.identifier_list("location")
        self.expect_keyword("Labels")
        label_tokens = self.identifier_list("label")

        clocks = tuple(ClockId(t.text, i) for i, t in enumerate(clock_tokens))
        locations = tuple(LocationId(t.text, i) for i, t in enumerate(location_tokens))
        labels = tuple(LabelId(t.text, i) for i, t in enumerate(label_tokens))
        clock_map = {c.name: c for c in clocks}
        location_map = {l.name: l for l in locations}
        label_map = {l.name: l for l in labels}

        resolve_location = partial(self.lookup, table=location_map,
                                   message="undeclared location {!r}")
        resolve_label = partial(self.lookup, table=label_map, message="undeclared label {!r}")

        self.expect_keyword("Automata")
        automata = []
        while not self.at_nil():
            self.expect_punct("(")
            self.expect_keyword("Locations")
            own_locations = tuple(resolve_location(t) for t in self.identifier_list("location"))
            self.expect_keyword("Labels")
            own_labels = tuple(resolve_label(t) for t in self.identifier_list("label"))
            self.expect_keyword("Invariants")
            invariants = {}
            while not self.at_nil():
                loc_tok = self.expect_word("a location or 'nil'")
                self.expect_punct(":")
                loc = resolve_location(loc_tok)
                if loc in invariants:
                    self.fail(loc_tok, f"duplicate invariant for location {loc.name!r}")
                invariants[loc] = self.constraint(clock_map)
            self.expect_keyword("Transitions")
            transitions = []
            while not self.at_nil():
                source = resolve_location(self.expect_word("a location or 'nil'"))
                self.expect_punct(",")
                label = resolve_label(self.expect_word("a label"))
                self.expect_punct(":")
                guard = self.constraint(clock_map)
                self.expect_punct(",")
                resets = tuple(self.clock(t, clock_map) for t in self.identifier_list("clock"))
                self.expect_punct(",")
                target = resolve_location(self.expect_word("a location"))
                self.expect_punct(".")
                transitions.append(Transition(source, label, guard, resets, target))
            self.expect_punct(")")
            self.expect_punct(".")
            automata.append(Automaton(own_locations, own_labels, invariants, tuple(transitions)))
        self.expect_keyword("end")
        self.expect_end()
        return Network(name.text, clocks, locations, labels, tuple(automata))

    # -- queries ----------------------------------------------------------

    def query(self, net: Network) -> Query:
        self.expect_keyword("go")
        self.expect_punct("(")
        source = self.state_pattern(net)
        self.expect_punct(",")
        target = self.state_pattern(net)
        self.expect_punct(")")
        self.expect_end()
        return Query(source, target)

    def state_pattern(self, net: Network) -> StatePattern:
        vector_tokens = self.location_vector("a location")
        if len(vector_tokens) != len(net.automata):
            tok = vector_tokens[0]
            self.fail(
                tok,
                f"expected {len(net.automata)} locations in the vector, "
                f"found {len(vector_tokens)}",
            )
        vector = tuple(
            self.lookup(tok, {l.name: l for l in aut.locations},
                        f"{{!r}} is not a location of automaton {i}")
            for i, (aut, tok) in enumerate(zip(net.automata, vector_tokens))
        )
        self.expect_punct("/")
        constraint = self.constraint({c.name: c for c in net.clocks}, net.scale)
        return StatePattern(vector, constraint)


def parse_spec(text: str) -> Network:
    """Parse, validate and integer-scale a network specification."""
    parser = _Parser(text)
    return normalize_constants(validate(parser.specification()))


def parse_query(text: str, net: Network) -> Query:
    """Parse one ``go(...)`` query against a parsed network."""
    parser = _Parser(text)
    return parser.query(net)


# -- printing --------------------------------------------------------------


def _decimal(value: Fraction) -> str:
    """Exact decimal rendering; only terminating fractions ever reach it."""
    if value.denominator == 1:
        return str(value.numerator)
    k = 1
    while (10**k) % value.denominator:
        k += 1
    digits = abs(value.numerator) * (10**k) // value.denominator
    whole, frac = divmod(digits, 10**k)
    sign = "-" if value.numerator < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(k)}"


def _format_constraint(c: ClockConstraint, scale: int) -> str:
    parts = []
    for atom in c.atoms:
        left = atom.lhs.name if atom.rhs is None else f"{atom.lhs.name}-{atom.rhs.name}"
        parts.append(f"{left}{atom.op}{_decimal(Fraction(atom.const, scale))}")
    parts.append("true")
    return " ^ ".join(parts)


def _format_vector(locations) -> str:
    return ".".join(l.name for l in locations) + ".nil"


def _idlist(ids) -> str:
    return " ".join([*(x.name for x in ids), "nil"])


def pretty_print(obj, net: Network | None = None) -> str:
    """Render a ``Network`` or ``Query`` back to parsable text.

    Constants are divided back by the network scale, so parsing the
    output reproduces a structurally equal value.  Queries need the
    network for its scale.
    """
    if isinstance(obj, Query):
        if net is None:
            raise ValueError("printing a query needs the network it was parsed against")
        return (
            f"go({_format_vector(obj.source.locations)}/"
            f"{_format_constraint(obj.source.constraint, net.scale)}, "
            f"{_format_vector(obj.target.locations)}/"
            f"{_format_constraint(obj.target.constraint, net.scale)})"
        )
    if not isinstance(obj, Network):
        raise TypeError(f"cannot print {type(obj).__name__}")
    net = obj
    out = [f"specification {net.name}"]
    out.append("Clocks " + _idlist(net.clocks))
    out.append("States " + _idlist(net.locations))
    out.append("Labels " + _idlist(net.labels))
    out.append("Automata")
    for aut in net.automata:
        out.append("  ( Locations " + _idlist(aut.locations))
        out.append("    Labels " + _idlist(aut.alphabet))
        out.append("    Invariants")
        for loc in aut.locations:
            if loc in aut.invariants:
                out.append(f"      {loc.name} : {_format_constraint(aut.invariants[loc], net.scale)}")
        out.append("      nil")
        out.append("    Transitions")
        for t in aut.transitions:
            out.append(
                f"      {t.source.name} , {t.label.name} : "
                f"{_format_constraint(t.guard, net.scale)}, {_idlist(t.resets)}, {t.target.name} ."
            )
        out.append("      nil")
        out.append("  ) .")
    out.append("  nil")
    out.append("end")
    return "\n".join(out) + "\n"
