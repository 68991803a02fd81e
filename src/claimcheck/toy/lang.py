"""A tiny loop-free imperative language used for ground truth and oracles.

One statement per physical line; line numbers are 1-based and become the
line arguments of extracted facts.  Statements:

* ``int x;``               declares a free (input) variable
* ``int x = <expr>;``      defines ``x`` (``bool`` is accepted as an alias)
* ``x = <expr>;``          reassigns ``x``
* ``if (v) {`` / ``if (!v) {`` ... ``}``   guard on a single variable
* ``output(x);``           emits a value
* ``return;``              leaves the program

Expressions combine integer literals, variables, calls ``f(a)``/``f(a, b)``
and the infix operators ``|| && == != < <= > >= + - *`` with the usual
precedence.  The normalized form allows at most one operator per
statement; :func:`normalize` rewrites nested expressions through fresh
temporaries.  ``!`` is guard syntax only, not an expression operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Union

from ..errors import ToySyntaxError, UseBeforeDefError

Operand = Union[str, int]


@dataclass(frozen=True)
class ELit:
    value: int


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class ECall:
    op: str
    args: tuple["Expr", ...]


Expr = Union[ELit, EVar, ECall]


@dataclass(frozen=True)
class FreeDecl:
    line: int
    var: str


@dataclass(frozen=True)
class ConstDef:
    line: int
    var: str
    value: int


@dataclass(frozen=True)
class CopyDef:
    line: int
    var: str
    src: str


@dataclass(frozen=True)
class UnaryDef:
    line: int
    var: str
    op: str
    operand: Operand


@dataclass(frozen=True)
class BinaryDef:
    line: int
    var: str
    op: str
    left: Operand
    right: Operand


@dataclass(frozen=True)
class ExprDef:
    """Surface-only statement whose right-hand side is still nested."""

    line: int
    var: str
    expr: Expr


@dataclass(frozen=True)
class GuardOpen:
    line: int
    var: str
    negated: bool


@dataclass(frozen=True)
class GuardClose:
    line: int


@dataclass(frozen=True)
class Output:
    line: int
    var: str


@dataclass(frozen=True)
class Return:
    line: int


Statement = Union[
    FreeDecl, ConstDef, CopyDef, UnaryDef, BinaryDef, ExprDef,
    GuardOpen, GuardClose, Output, Return,
]


@dataclass(frozen=True)
class ToyProgram:
    statements: tuple[Statement, ...]
    free_vars: frozenset[str]
    line_count: int

    def is_normalized(self) -> bool:
        return not any(isinstance(s, ExprDef) for s in self.statements)

    def defined_vars(self) -> frozenset[str]:
        names = set(self.free_vars)
        for s in self.statements:
            if isinstance(s, (ConstDef, CopyDef, UnaryDef, BinaryDef, ExprDef)):
                names.add(s.var)
        return frozenset(names)

    def identifiers(self) -> frozenset[str]:
        names = set(self.defined_vars())
        for s in self.statements:
            if isinstance(s, GuardOpen):
                names.add(s.var)
        return frozenset(names)


# ---------------------------------------------------------------------------
# Expression parsing (plain precedence-climbing)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>\|\||&&|==|!=|<=|>=|[-+*<>()!,]))"
)

_BINARY_LEVELS = [("||",), ("&&",), ("==", "!=", "<", "<=", ">", ">="), ("+", "-"), ("*",)]


class _ExprParser:
    def __init__(self, text: str, line: int):
        self.line = line
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ToySyntaxError(line, f"bad expression near {text[pos:]!r}")
                break
            self.tokens.append(m.group("num") or m.group("ident") or m.group("op"))
            pos = m.end()
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ToySyntaxError(self.line, "unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        expr = self.parse_level(0)
        if self.peek() is not None:
            raise ToySyntaxError(self.line, f"trailing tokens near {self.peek()!r}")
        return expr

    def parse_level(self, level: int) -> Expr:
        if level == len(_BINARY_LEVELS):
            return self.parse_unary()
        left = self.parse_level(level + 1)
        while self.peek() in _BINARY_LEVELS[level]:
            op = self.next()
            right = self.parse_level(level + 1)
            left = ECall(op, (left, right))
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok == "-":
            self.next()
            return ECall("-", (self.parse_unary(),))
        if tok == "!":
            raise ToySyntaxError(self.line, "'!' is only allowed in guards")
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.next()
        if tok == "(":
            inner = self.parse_level(0)
            if self.next() != ")":
                raise ToySyntaxError(self.line, "missing ')'")
            return inner
        if tok.isdigit():
            return ELit(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", tok):
            if self.peek() == "(":
                self.next()
                args = []
                if self.peek() != ")":
                    args.append(self.parse_level(0))
                    while self.peek() == ",":
                        self.next()
                        args.append(self.parse_level(0))
                if self.next() != ")":
                    raise ToySyntaxError(self.line, "missing ')' after call")
                if len(args) not in (1, 2):
                    raise ToySyntaxError(
                        self.line, f"{tok}() takes one or two arguments"
                    )
                return ECall(tok, tuple(args))
            return EVar(tok)
        raise ToySyntaxError(self.line, f"unexpected token {tok!r}")


# ---------------------------------------------------------------------------
# Statement parsing
# ---------------------------------------------------------------------------

_DECL_RE = re.compile(r"(?:int|bool)\s+([A-Za-z_][A-Za-z0-9_.]*)\s*;\s*$")
_DEF_RE = re.compile(
    r"(?:(?:int|bool)\s+)?([A-Za-z_][A-Za-z0-9_.]*)\s*=\s*(.+);\s*$"
)
_IF_RE = re.compile(r"if\s*\(\s*(!?)\s*([A-Za-z_][A-Za-z0-9_.]*)\s*\)\s*\{\s*$")
_OUTPUT_RE = re.compile(r"output\s*\(\s*([A-Za-z_][A-Za-z0-9_.]*)\s*\)\s*;\s*$")

_RESERVED = {"int", "bool", "if", "output", "return", "true", "false"}


def _classify_def(line: int, var: str, expr: Expr) -> Statement:
    def operand(e: Expr) -> Operand | None:
        if isinstance(e, ELit):
            return e.value
        if isinstance(e, EVar):
            return e.name
        return None

    if isinstance(expr, ELit):
        return ConstDef(line, var, expr.value)
    if isinstance(expr, EVar):
        return CopyDef(line, var, expr.name)
    assert isinstance(expr, ECall)
    operands = [operand(a) for a in expr.args]
    if all(o is not None for o in operands):
        if len(operands) == 1:
            return UnaryDef(line, var, expr.op, operands[0])
        return BinaryDef(line, var, expr.op, operands[0], operands[1])
    return ExprDef(line, var, expr)


def parse_toy(source: str) -> ToyProgram:
    statements: list[Statement] = []
    free_vars: set[str] = set()
    defined: set[str] = set()
    depth = 0
    lines = source.splitlines()

    def check_used(line: int, *names: Operand) -> None:
        for name in names:
            if isinstance(name, str) and name not in defined:
                raise UseBeforeDefError(line, name)

    def expr_vars(expr: Expr) -> list[str]:
        if isinstance(expr, EVar):
            return [expr.name]
        if isinstance(expr, ECall):
            out = []
            for a in expr.args:
                out.extend(expr_vars(a))
            return out
        return []

    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("//", 1)[0].strip()
        if not text:
            continue
        if text == "}":
            if depth == 0:
                raise ToySyntaxError(lineno, "unmatched '}'")
            depth -= 1
            statements.append(GuardClose(lineno))
            continue
        m = _IF_RE.match(text)
        if m:
            check_used(lineno, m.group(2))
            statements.append(GuardOpen(lineno, m.group(2), m.group(1) == "!"))
            depth += 1
            continue
        m = _OUTPUT_RE.match(text)
        if m:
            check_used(lineno, m.group(1))
            statements.append(Output(lineno, m.group(1)))
            continue
        if text in ("return;", "return ;"):
            statements.append(Return(lineno))
            continue
        m = _DECL_RE.match(text)
        if m:
            var = m.group(1)
            if var in _RESERVED:
                raise ToySyntaxError(lineno, f"{var!r} is a reserved word")
            free_vars.add(var)
            defined.add(var)
            statements.append(FreeDecl(lineno, var))
            continue
        m = _DEF_RE.match(text)
        if m:
            var = m.group(1)
            if var in _RESERVED:
                raise ToySyntaxError(lineno, f"{var!r} is a reserved word")
            expr = _ExprParser(m.group(2), lineno).parse()
            check_used(lineno, *expr_vars(expr))
            defined.add(var)
            statements.append(_classify_def(lineno, var, expr))
            continue
        raise ToySyntaxError(lineno, f"cannot parse statement {text!r}")
    if depth != 0:
        raise ToySyntaxError(len(lines), "unclosed '{'")
    return ToyProgram(tuple(statements), frozenset(free_vars), len(lines))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _fresh_namer(taken: set[str]):
    def fresh(base: str, counter: dict[str, int]) -> str:
        while True:
            counter[base] = counter.get(base, 0) + 1
            name = f"{base}_tmp{counter[base]}"
            if name not in taken:
                taken.add(name)
                return name

    return fresh


def normalize(program: ToyProgram) -> ToyProgram:
    """Rewrite nested expressions into single-operator statements.

    Fresh temporaries are named ``<var>_tmp<k>``.  Already-normalized
    programs are returned unchanged; statement lines are renumbered
    sequentially otherwise (the rewrite inserts lines).
    """
    if program.is_normalized():
        return program

    taken = set(program.identifiers())
    fresh = _fresh_namer(taken)
    counters: dict[str, int] = {}
    out: list[Statement] = []
    line = 0

    def emit(make) -> None:
        nonlocal line
        line += 1
        out.append(make(line))

    def flatten(target: str, expr: Expr) -> None:
        """Emit normalized statements computing expr into target."""
        if isinstance(expr, ELit):
            emit(lambda l: ConstDef(l, target, expr.value))
            return
        if isinstance(expr, EVar):
            emit(lambda l: CopyDef(l, target, expr.name))
            return
        operands: list[Operand] = []
        for arg in expr.args:
            if isinstance(arg, ELit):
                operands.append(arg.value)
            elif isinstance(arg, EVar):
                operands.append(arg.name)
            else:
                temp = fresh(target, counters)
                flatten(temp, arg)
                operands.append(temp)
        if len(operands) == 1:
            emit(lambda l: UnaryDef(l, target, expr.op, operands[0]))
        else:
            emit(lambda l: BinaryDef(l, target, expr.op, operands[0], operands[1]))

    for stmt in program.statements:
        if isinstance(stmt, ExprDef):
            flatten(stmt.var, stmt.expr)
        else:
            emit(lambda l: replace(stmt, line=l))
    return ToyProgram(tuple(out), program.free_vars, line)


def render_toy(program: ToyProgram) -> str:
    """Back to source; statement lines must be 1..n dense (normalized form)."""
    lines = []
    depth = 0
    for stmt in program.statements:
        if isinstance(stmt, GuardClose):
            depth -= 1
        indent = "  " * depth
        if isinstance(stmt, FreeDecl):
            lines.append(f"{indent}int {stmt.var};")
        elif isinstance(stmt, ConstDef):
            lines.append(f"{indent}int {stmt.var} = {stmt.value};")
        elif isinstance(stmt, CopyDef):
            lines.append(f"{indent}{stmt.var} = {stmt.src};")
        elif isinstance(stmt, UnaryDef):
            lines.append(f"{indent}{stmt.var} = {stmt.op}({stmt.operand});")
        elif isinstance(stmt, BinaryDef):
            op = stmt.op
            if op and (op[0].isalpha() or op[0] == "_"):
                lines.append(f"{indent}{stmt.var} = {op}({stmt.left}, {stmt.right});")
            else:
                lines.append(f"{indent}{stmt.var} = {stmt.left} {op} {stmt.right};")
        elif isinstance(stmt, GuardOpen):
            bang = "!" if stmt.negated else ""
            lines.append(f"{indent}if ({bang}{stmt.var}) {{")
            depth += 1
        elif isinstance(stmt, GuardClose):
            lines.append(f"{indent}}}")
        elif isinstance(stmt, Output):
            lines.append(f"{indent}output({stmt.var});")
        else:
            lines.append(f"{indent}return;")
    return "\n".join(lines) + ("\n" if lines else "")
