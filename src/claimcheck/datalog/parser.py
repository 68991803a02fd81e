"""Parser for the textual Datalog dialect used throughout the package.

One clause per ``.``-terminated statement:

* declarations   ``.decl name(arg: sort, ...)``   (terminating dot optional)
* facts          ``name(t1, ..., tn).``
* rules          ``head :- lit1, ..., litk.``

Negation is written ``!atom``, comparisons are infix (``<  <=  =  !=  >  >=``),
symbols are double-quoted with backslash escaping of ``"`` and ``\\``,
comments run from ``//`` to end of line, and ``_`` is the wildcard.  The bare
keywords ``true``/``false`` are accepted as the symbol constants ``"true"``/
``"false"`` because published fact sets write branch flags unquoted.

The tokenizer makes one regex match per token, whitespace and comments
included, and a token records only its offset: the line and column of a
``DatalogSyntaxError`` are computed from the source when it is raised.

A fact file goes through the same parser (:func:`parse_facts`), which then
rejects rules, declarations and non-ground facts.  The fact loaders in
``claimcheck.facts`` first read fact text with their own typed scan, one
regex match per fact, and send here only the text that scan cannot read in
full, so each error message, line and column is this parser's.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NoReturn

from .. import _collector_paused
from ..errors import DatalogSyntaxError
from .ast import (
    COMPARISON_OPS,
    Atom,
    Comparison,
    Literal,
    NegatedAtom,
    Program,
    Rule,
    Term,
    Var,
    WILDCARD,
)

# Whitespace and comments.  Unambiguous: a whitespace run must be maximal
# and a comment must reach the end of its line, so a failed match backtracks
# over it linearly and never re-reads a comment as tokens.
_SKIP = r"(?:\s+(?!\s)|//[^\n]*(?![^\n]))*"
# One match per token: the skip prefix, then one token alternative.
_TOKEN_RE = re.compile(
    _SKIP
    + r"""
    (?:
      (?P<decl>\.decl\b)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<number>-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|!=|:-|<|>|=|!|\(|\)|,|\.|:)
    )
""",
    re.VERBOSE,
)
_SKIP_RE = re.compile(_SKIP)

# A token is (kind, text, offset); kind is a group name of _TOKEN_RE or "eof".
_Token = tuple[str, str, int]


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    append = tokens.append
    for m in iter(_TOKEN_RE.scanner(source).match, None):
        kind = m.lastgroup
        append((kind, m[kind], m.start(kind)))
    # The scanner stops where no token follows; only the end may be there.
    end = _SKIP_RE.match(source, m.end() if tokens else 0).end()
    if end < len(source):
        raise DatalogSyntaxError(
            *_position(source, end), f"unexpected character {source[end]!r}"
        )
    append(("eof", "", end))
    return tokens


_ESCAPE_RE = re.compile(r"\\(.)", re.S)
# The replacement is a C callable: a template such as r"\1" costs a
# Python-level call on every sub, more than scanning a typical symbol.
_ESCAPED_CHAR = itemgetter(1)


def _unescape(quoted: str) -> str:
    return _ESCAPE_RE.sub(_ESCAPED_CHAR, quoted[1:-1])


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        # offset of the statement being parsed, and of the first declaration,
        # the first rule and the first statement with a variable or wildcard
        self.start = 0
        self.first: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> DatalogSyntaxError:
        return DatalogSyntaxError(*_position(self.source, self.peek()[2]), message)

    def raise_at(self, kind: str, message: str) -> NoReturn:
        """Raise at the first statement of ``kind`` (a key of ``first``)."""
        raise DatalogSyntaxError(*_position(self.source, self.first[kind]), message)

    def expect(self, text: str) -> None:
        found = self.peek()[1]
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}")
        self.pos += 1

    # -- grammar productions -------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while self.peek()[0] != "eof":
            kind, _, self.start = self.peek()
            if kind == "decl":
                self.first.setdefault("declaration", self.start)
                self.parse_declaration(program)
            else:
                self.parse_clause(program)
        return program

    def parse_declaration(self, program: Program) -> None:
        self.pos += 1  # .decl
        kind, name, _ = self.peek()
        if kind != "ident":
            raise self.error("expected relation name after .decl")
        self.pos += 1
        self.expect("(")
        sorts: list[str] = []
        if self.peek()[1] != ")":
            while True:
                if self.peek()[0] != "ident":
                    raise self.error("expected argument name in declaration")
                self.pos += 1  # argument name is documentation only
                self.expect(":")
                sort = self.peek()[1]
                if sort not in ("symbol", "number"):
                    raise self.error(
                        f"unknown sort {sort!r} (expected symbol or number)"
                    )
                self.pos += 1
                sorts.append(sort)
                if self.peek()[1] == ",":
                    self.pos += 1
                    continue
                break
        self.expect(")")
        if self.peek()[1] == ".":
            self.pos += 1
        if name in program.declarations and program.declarations[name] != tuple(sorts):
            raise DatalogSyntaxError(  # at the redeclaration's .decl
                *_position(self.source, self.start), f"conflicting redeclaration of {name!r}"
            )
        program.declarations[name] = tuple(sorts)

    def parse_clause(self, program: Program) -> None:
        head = self.parse_atom()
        if self.peek()[1] == ":-":
            self.pos += 1
            body: list[Literal] = [self.parse_literal()]
            while self.peek()[1] == ",":
                self.pos += 1
                body.append(self.parse_literal())
            self.expect(".")
            self.first.setdefault("rule", self.start)
            program.rules.append(Rule(head, tuple(body)))
        else:
            self.expect(".")
            segments = program.segments
            if segments and segments[-1][0] == head.predicate:
                segments[-1][1].append(head.args)
            else:
                segments.append((head.predicate, [head.args]))

    def parse_literal(self) -> Literal:
        if self.peek()[1] == "!":
            self.pos += 1
            return NegatedAtom(self.parse_atom())
        # Could be an atom or a comparison; a comparison starts with a term
        # that is not followed by '('.
        if self.peek()[0] == "ident" and self.tokens[self.pos + 1][1] == "(":
            return self.parse_atom()
        left = self.parse_term()
        op = self.peek()[1]
        if op not in COMPARISON_OPS:
            raise self.error(f"expected comparison operator, found {op!r}")
        self.pos += 1
        right = self.parse_term()
        return Comparison(op, left, right)

    def parse_atom(self) -> Atom:
        kind, name, _ = self.peek()
        if kind != "ident":
            raise self.error(f"expected predicate name, found {name!r}")
        self.pos += 1
        self.expect("(")
        args: list[Term] = []
        if self.peek()[1] != ")":
            while True:
                args.append(self.parse_term())
                if self.peek()[1] == ",":
                    self.pos += 1
                    continue
                break
        self.expect(")")
        return Atom(name, tuple(args))

    def parse_term(self) -> Term:
        kind, text, _ = self.peek()
        if kind == "string":
            self.pos += 1
            return _unescape(text)
        if kind == "number":
            try:
                value = int(text)
            except ValueError:  # past the interpreter's int conversion limit
                raise self.error(
                    f"number literal of {len(text.lstrip('-'))} digits is too long"
                ) from None
            self.pos += 1
            return value
        if text == "_":
            self.pos += 1
            self.first.setdefault("variable", self.start)
            return WILDCARD
        if kind == "ident":
            self.pos += 1
            if text in ("true", "false"):
                return text
            self.first.setdefault("variable", self.start)
            return Var(text)
        raise self.error(f"expected a term, found {text!r}")


@_collector_paused
def parse_program(source: str, validate: bool = True) -> Program:
    """Parse (and by default validate) a full program.

    Validation auto-declares undeclared predicates, checks arities and sorts,
    enforces range restriction and ground facts, and rejects negation on a
    recursive cycle.
    """
    program = _Parser(source).parse_program()
    if validate:
        from .engine import check_program

        check_program(program)
    return program


def parse_facts(source: str) -> list[Atom]:
    """Parse a facts-only document; any rule, declaration or non-ground
    fact is an error that points at the first statement of its class."""
    parser = _Parser(source)
    program = parser.parse_program()
    if program.rules:
        parser.raise_at("rule", "rules are not allowed in a fact file")
    if program.declarations:
        parser.raise_at("declaration", "declarations are not allowed in a fact file")
    facts = program.facts
    for fact in facts:
        if not fact.is_ground():
            parser.raise_at(
                "variable", f"fact {fact.predicate} contains a variable or wildcard"
            )
    return facts

