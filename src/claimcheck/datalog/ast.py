"""Core value types for Datalog programs: terms, atoms, rules, programs.

A program manipulates exactly two sorts of ground values: symbols (arbitrary
UTF-8 text, e.g. file paths and code identifiers) and numbers (integers).
A constant term is the value itself: a ``str`` is a symbol and an ``int``
that is not a ``bool`` is a number.  Variables and wildcards are classes of
their own, so ``"x"`` and ``Var("x")`` never compare equal.  The arguments
of a ground atom are therefore exactly its database tuple.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING, Optional, Sequence, Union

# The values, the record base and the fact writer live in ``values``, which
# the fact loaders import without this module; they stay names of this one.
from .values import NUMBER, SYMBOL, Record, print_declaration, print_fact, print_term

if TYPE_CHECKING:
    from .engine import RuleSet

COMPARISON_OPS = ("<=", ">=", "!=", "<", ">", "=")


class Var(Record):
    """Named variable; only legal inside rules."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Wildcard(Record):
    """Anonymous term ``_``; only legal in rule bodies."""

    __slots__ = ()


WILDCARD = Wildcard()

Term = Union[str, int, Var, Wildcard]


class Atom(Record):
    __slots__ = _fields = ("predicate", "args")

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()) -> None:
        self.predicate, self.args = predicate, args

    def is_ground(self) -> bool:
        return all(type(a) is str or type(a) is int for a in self.args)

    def value_tuple(self) -> tuple:
        """Ground atom to its database tuple, which is its arguments."""
        if not self.is_ground():
            raise ValueError(f"atom {self} is not ground")
        return self.args


class NegatedAtom(Record):
    __slots__ = _fields = ("atom",)

    def __init__(self, atom: Atom) -> None:
        self.atom = atom


class Comparison(Record):
    """Integer comparison between two terms; both sides must be numbers."""

    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term) -> None:
        self.op, self.left, self.right = op, left, right


Literal = Union[Atom, NegatedAtom, Comparison]
Segments = Sequence[tuple[str, Sequence[tuple]]]


class Rule(Record):
    __slots__ = _fields = ("head", "body")

    def __init__(self, head: Atom, body: tuple[Literal, ...]) -> None:
        self.head, self.body = head, body

    def positive_atoms(self) -> list[Atom]:
        return [lit for lit in self.body if isinstance(lit, Atom)]

    def negated_atoms(self) -> list[NegatedAtom]:
        return [lit for lit in self.body if isinstance(lit, NegatedAtom)]

    def comparisons(self) -> list[Comparison]:
        return [lit for lit in self.body if isinstance(lit, Comparison)]


class Program(Record):
    """Declarations, rules, and ground facts.

    ``declarations`` maps each relation name to its argument-sort list
    (values from ``SYMBOL``/``NUMBER``).  Validation completes
    ``declarations`` and sets ``rule_set`` in place; nothing else in the
    package mutates a program once it is built.  The facts are held as ``segments``: runs of
    one relation's value tuples, in fact order.  ``facts`` is a new list of
    them as atoms on every read; assigning it regroups the atoms into runs.
    """

    _fields = ("declarations", "rules", "facts")
    # The rule set that validated the rules, if any; evaluation relies on it
    # only while the rules and declarations are still exactly its own.
    # Equality and repr leave it out.
    __slots__ = ("declarations", "rules", "rule_set", "segments")

    def __init__(
        self, declarations: dict[str, tuple[str, ...]] | None = None,
        rules: list[Rule] | None = None, facts: list[Atom] | None = None,
        rule_set: Optional[RuleSet] = None, segments: Segments | None = None,
    ) -> None:
        self.declarations = {} if declarations is None else declarations
        self.rules = [] if rules is None else rules
        self.rule_set = rule_set
        self.segments = [] if segments is None else segments
        if facts is not None:
            self.facts = facts

    @property
    def facts(self) -> list[Atom]:
        return [Atom(name, values) for name, rows in self.segments for values in rows]

    @facts.setter
    def facts(self, facts: list[Atom]) -> None:
        self.segments = [
            (name, [fact.args for fact in run])
            for name, run in groupby(facts, lambda fact: fact.predicate)
        ]


# ---------------------------------------------------------------------------
# Pretty printing.  parse(print(p)) reproduces an equivalent program.
# ---------------------------------------------------------------------------


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


def print_program(program: Program) -> str:
    lines, facts = [], program.facts
    for name, sorts in program.declarations.items():
        lines.append(print_declaration(name, sorts))
    if program.declarations and (program.rules or facts):
        lines.append("")
    for rule in program.rules:
        lines.append(print_rule(rule))
    if program.rules and facts:
        lines.append("")
    for fact in facts:
        lines.append(print_atom(fact) + ".")
    return "\n".join(lines) + ("\n" if lines else "")
