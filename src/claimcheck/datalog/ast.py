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
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:
    from .engine import RuleSet

SYMBOL = "symbol"
NUMBER = "number"

COMPARISON_OPS = ("<=", ">=", "!=", "<", ">", "=")


class Record:
    """Base of the package's ``__slots__`` records, whose value is the fields
    named in ``_fields``.  Equality, ``hash`` and ``repr`` take the class
    into account, so a record never equals a tuple or another class's record.
    A record that holds a list or a dict is unhashable through it.  Fields
    are not write-protected: a check would slow down every construction."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


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
