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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from ..errors import DatalogSyntaxError
from .ast import (
    COMPARISON_OPS,
    Atom,
    Comparison,
    Literal,
    NegatedAtom,
    Num,
    Program,
    Rule,
    Sym,
    Term,
    Var,
    WILDCARD,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<decl>\.decl\b)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<number>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|:-|<|>|=|!|\(|\)|,|\.|:)
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DatalogSyntaxError(
                line, pos - line_start + 1, f"unexpected character {source[pos]!r}"
            )
        kind = m.lastgroup or ""
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


_ESCAPE_RE = re.compile(r"\\(.)", re.S)
# The replacement is a C callable: a template such as r"\1" costs a
# Python-level call on every sub, more than scanning a typical symbol.
_ESCAPED_CHAR = itemgetter(1)


def _unescape(quoted: str) -> str:
    return _ESCAPE_RE.sub(_ESCAPED_CHAR, quoted[1:-1])


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> DatalogSyntaxError:
        tok = self.peek()
        return DatalogSyntaxError(tok.line, tok.column, message)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    # -- grammar productions -------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while self.peek().kind != "eof":
            if self.peek().kind == "decl":
                self.parse_declaration(program)
            else:
                self.parse_clause(program)
        return program

    def parse_declaration(self, program: Program) -> None:
        self.next()  # .decl
        name_tok = self.peek()
        if name_tok.kind != "ident":
            raise self.error("expected relation name after .decl")
        name = self.next().text
        self.expect("(")
        sorts: list[str] = []
        if self.peek().text != ")":
            while True:
                if self.peek().kind != "ident":
                    raise self.error("expected argument name in declaration")
                self.next()  # argument name is documentation only
                self.expect(":")
                sort_tok = self.peek()
                if sort_tok.text not in ("symbol", "number"):
                    raise self.error(
                        f"unknown sort {sort_tok.text!r} (expected symbol or number)"
                    )
                sorts.append(self.next().text)
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        if self.peek().text == ".":
            self.next()
        if name in program.declarations and program.declarations[name] != tuple(sorts):
            raise self.error(f"conflicting redeclaration of {name!r}")
        program.declarations[name] = tuple(sorts)

    def parse_clause(self, program: Program) -> None:
        head = self.parse_atom()
        if self.peek().text == ":-":
            self.next()
            body: list[Literal] = [self.parse_literal()]
            while self.peek().text == ",":
                self.next()
                body.append(self.parse_literal())
            self.expect(".")
            program.rules.append(Rule(head, tuple(body)))
        else:
            self.expect(".")
            program.facts.append(head)

    def parse_literal(self) -> Literal:
        if self.peek().text == "!":
            self.next()
            return NegatedAtom(self.parse_atom())
        # Could be an atom or a comparison; a comparison starts with a term
        # that is not followed by '('.
        tok = self.peek()
        if tok.kind == "ident" and self.tokens[self.pos + 1].text == "(":
            return self.parse_atom()
        left = self.parse_term()
        op_tok = self.peek()
        if op_tok.text not in COMPARISON_OPS:
            raise self.error(f"expected comparison operator, found {op_tok.text!r}")
        self.next()
        right = self.parse_term()
        return Comparison(op_tok.text, left, right)

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected predicate name, found {tok.text!r}")
        name = self.next().text
        self.expect("(")
        args: list[Term] = []
        if self.peek().text != ")":
            while True:
                args.append(self.parse_term())
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        return Atom(name, tuple(args))

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            return Sym(_unescape(tok.text))
        if tok.kind == "number":
            self.next()
            return Num(int(tok.text))
        if tok.text == "_":
            self.next()
            return WILDCARD
        if tok.kind == "ident":
            self.next()
            if tok.text in ("true", "false"):
                return Sym(tok.text)
            return Var(tok.text)
        raise self.error(f"expected a term, found {tok.text!r}")


def parse_program(source: str, validate: bool = True) -> Program:
    """Parse (and by default validate) a full program.

    Validation auto-declares undeclared predicates, checks arities and sorts,
    enforces range restriction and ground facts, and rejects negation on a
    recursive cycle.
    """
    program = _Parser(_tokenize(source)).parse_program()
    if validate:
        from .engine import check_program

        check_program(program)
    return program


def parse_facts(source: str) -> list[Atom]:
    """Parse a facts-only document; any rule or declaration is an error."""
    program = _Parser(_tokenize(source)).parse_program()
    if program.rules:
        raise DatalogSyntaxError(0, 0, "rules are not allowed in a fact file")
    if program.declarations:
        raise DatalogSyntaxError(0, 0, "declarations are not allowed in a fact file")
    for fact in program.facts:
        if not fact.is_ground():
            raise DatalogSyntaxError(
                0, 0, f"fact {fact.predicate} contains a variable or wildcard"
            )
    return program.facts


_FACT_LINE_RE = re.compile(r"\s*[A-Za-z_][A-Za-z0-9_]*\s*\(")


def parse_fact_lines(text: str) -> tuple[list[Atom], list[tuple[int, str]]]:
    """Lenient line-by-line fact parse for machine-generated responses.

    Lines that look like facts but do not parse are collected as
    ``(line_number, reason)`` failures; prose lines are ignored.
    """
    facts: list[Atom] = []
    failures: list[tuple[int, str]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if not _FACT_LINE_RE.match(line):
            continue
        try:
            parsed = parse_facts(line if line.endswith(".") else line + ".")
        except DatalogSyntaxError as exc:
            failures.append((idx, exc.message))
            continue
        facts.extend(parsed)
    return facts, failures
