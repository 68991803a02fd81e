"""Core value types for Datalog programs: terms, atoms, rules, programs.

A program manipulates exactly two sorts of ground values: symbols (arbitrary
UTF-8 text, e.g. file paths and code identifiers) and numbers (integers).
A constant term is the value itself: a ``str`` is a symbol and an ``int``
that is not a ``bool`` is a number.  Variables and wildcards are classes of
their own, so ``"x"`` and ``Var("x")`` never compare equal.  The arguments
of a ground atom are therefore exactly its database tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:
    from .engine import RuleSet

SYMBOL = "symbol"
NUMBER = "number"

COMPARISON_OPS = ("<=", ">=", "!=", "<", ">", "=")


@dataclass(frozen=True)
class Var:
    """Named variable; only legal inside rules."""

    name: str


@dataclass(frozen=True)
class Wildcard:
    """Anonymous term ``_``; only legal in rule bodies."""


WILDCARD = Wildcard()

Term = Union[str, int, Var, Wildcard]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    def is_ground(self) -> bool:
        return all(type(a) is str or type(a) is int for a in self.args)

    def value_tuple(self) -> tuple:
        """Ground atom to its database tuple, which is its arguments."""
        if not self.is_ground():
            raise ValueError(f"atom {self} is not ground")
        return self.args


@dataclass(frozen=True)
class NegatedAtom:
    atom: Atom


@dataclass(frozen=True)
class Comparison:
    """Integer comparison between two terms; both sides must be numbers."""

    op: str
    left: Term
    right: Term


Literal = Union[Atom, NegatedAtom, Comparison]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Literal, ...]

    def positive_atoms(self) -> list[Atom]:
        return [lit for lit in self.body if isinstance(lit, Atom)]

    def negated_atoms(self) -> list[NegatedAtom]:
        return [lit for lit in self.body if isinstance(lit, NegatedAtom)]

    def comparisons(self) -> list[Comparison]:
        return [lit for lit in self.body if isinstance(lit, Comparison)]


@dataclass
class Program:
    """Declarations, rules, and ground facts.

    ``declarations`` maps each relation name to its argument-sort list
    (values from ``SYMBOL``/``NUMBER``).  Validation completes
    ``declarations`` in place; nothing else in the package mutates a
    program once it is built.
    """

    declarations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    rules: list[Rule] = field(default_factory=list)
    facts: list[Atom] = field(default_factory=list)
    # The prepared rule set the rules came from, if any; evaluation relies on
    # it only while the rules and declarations are still exactly its own.
    rule_set: Optional[RuleSet] = field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Pretty printing.  parse(print(p)) reproduces an equivalent program.
# ---------------------------------------------------------------------------


def _escape_symbol(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def print_term(term: Term) -> str:
    if type(term) is str:
        return f'"{_escape_symbol(term)}"'
    if type(term) is int:
        return str(term)
    if isinstance(term, Var):
        return term.name
    return "_"


def print_fact(predicate: str, values: Iterable[Term]) -> str:
    """``predicate(v1, ..., vn)``: the one writer of fact and atom text."""
    return f"{predicate}({', '.join(map(print_term, values))})"


def print_atom(atom: Atom) -> str:
    return print_fact(atom.predicate, atom.args)


def print_literal(lit: Literal) -> str:
    if isinstance(lit, Atom):
        return print_atom(lit)
    if isinstance(lit, NegatedAtom):
        return "!" + print_atom(lit.atom)
    return f"{print_term(lit.left)} {lit.op} {print_term(lit.right)}"


def print_rule(rule: Rule) -> str:
    body = ", ".join(print_literal(lit) for lit in rule.body)
    return f"{print_atom(rule.head)} :- {body}."


def print_declaration(name: str, sorts: tuple[str, ...]) -> str:
    args = ", ".join(f"a{i}: {sort}" for i, sort in enumerate(sorts))
    return f".decl {name}({args})"


def print_program(program: Program) -> str:
    lines = []
    for name, sorts in program.declarations.items():
        lines.append(print_declaration(name, sorts))
    if program.declarations and (program.rules or program.facts):
        lines.append("")
    for rule in program.rules:
        lines.append(print_rule(rule))
    if program.rules and program.facts:
        lines.append("")
    for fact in program.facts:
        lines.append(print_atom(fact) + ".")
    return "\n".join(lines) + ("\n" if lines else "")
