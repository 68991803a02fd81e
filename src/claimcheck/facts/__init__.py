"""Typed fact schemas for the two verification vocabularies.

Two vocabularies are supported:

* the memory-sanitizer trace vocabulary (``uses``, ``uninitialized``,
  ``hasInitializer``, ``hasMemberInitializer``, ``allocated``, ``declared``,
  ``flow``, ``memoryError``), and
* the program-dependence vocabulary for equivalence checking (``use``,
  ``def``, ``flow``, ``controldep``, ``defWithExpr``, ``condWithExpr``,
  ``unaryFun``, ``binaryFun``, ``entry``, ``exit``, ``isConstantValue``,
  ``watchVar``) plus the correspondence predicates (``varMap``,
  ``entryMap``, ``exitMap``).

The vocabulary is stated once, in one table of ``(field, predicate, fact
type)`` rows per container (``MSAN_FIELDS``, ``SIDE_FIELDS``,
``CORRESPONDENCE_FIELDS``), in render order, which is also the order of the
Datalog facts.  A predicate's argument order and sorts are the fields and
field types of its fact type (``str`` fields are symbols, ``int`` fields
numbers); a fact type of ``str`` is a 1-ary fact.  Loading, rendering, the
Datalog facts and declarations of the rule sets and the text of witness
facts all read these tables; ``datalog.values.print_fact`` writes every fact.

Loaders accept the canonical arities, in which every site carries a file
name.  Only the equivalence vocabulary has abbreviated forms, the ones
published fact sets use: an omitted file name becomes ``main.cpp`` (an
omitted ``entryMap`` label becomes ``main``).  Only trace paths have runs
of ``/`` collapsed.  ``outputVar`` is accepted as a synonym for
``watchVar``.  Any predicate outside the vocabulary is rejected, never
coerced.  Loading checks nothing else: whether the facts suffice for a
verdict, a bundle's maps naming facts of its sides included, is for lint.

Loaders read fact text straight into the fact tuples: one regex match per
fact, one group per constant, and one generated converter per (predicate,
arity) pair that the text uses.  Text that this scan does not read in full
(an escape, a negative number, a comment inside a fact, an unknown
predicate, a wrong arity or sort, a rule) goes whole to the Datalog parser
and the checks on atoms (``*_from_atoms``), which report every error.

This module holds what the two vocabularies share: the fact types of both
(``SiteFact``, ``FlowFact``), the lint report, the container base and the
fact scan.  Each vocabulary is a section of its own, ``facts.msan`` and
``facts.equiv``, and the checks on atoms are ``facts.atoms``; each loads on
first use of one of its names through this module (PEP 562), so a command
compiles only its own vocabulary.  Every name imports from
``claimcheck.facts``.
"""

import re
from functools import cache
from typing import Callable, Iterable, NamedTuple

from .. import _lazy_names
from ..datalog.values import NUMBER, SYMBOL, Record, compiled_make, print_fact

DEFAULT_FILE = "main.cpp"
# task names: the trace vocabulary and the equivalence vocabulary
MSAN, EQUIV = "msan", "equiv"
# the sections of an equivalence bundle
CODE1, CODE2, CORRESPONDENCE = "code1", "code2", "correspondence"

# name -> the section that defines it, loaded on first use (PEP 562)
_LAZY = {
    name: section
    for section, names in (
        ("msan", "InitFact MemoryErrorFact MSAN_FIELDS MsanFactSet MSAN_SORTS "
                 "MSAN_PREDICATES _norm_path load_msan_facts lint_msan"),
        ("equiv", "ControlDepFact CondExprFact UnaryFact BinaryFact EntryFact ExitFact "
                  "VarMapFact EntryMapFact ExitMapFact SIDE_FIELDS CORRESPONDENCE_FIELDS "
                  "EquivSide EquivBundle SIDE_SORTS CORRESPONDENCE_SORTS SIDE_PREDICATES "
                  "CORRESPONDENCE_PREDICATES _ABBREVIATED entry_files load_equiv_bundle "
                  "split_bundle_sections load_equiv_bundle_text lint_equiv"),
        ("atoms", "msan_facts_from_atoms equiv_bundle_from_atoms"),
    )
    for name in names.split()
}
__getattr__, __dir__ = _lazy_names(globals(), _LAZY)


def fact_text(predicate: str, fact) -> str:
    """A typed fact as Datalog text, without the final dot."""
    return print_fact(predicate, (fact,) if isinstance(fact, str) else fact)


def _render(container, fields: Iterable[tuple]) -> str:
    """A container's facts as fact text, in table order, each field sorted."""
    return "".join(
        fact_text(predicate, fact) + ".\n"
        for name, predicate, _ in fields
        for fact in sorted(getattr(container, name))
    )


def _sorts(fact_type) -> tuple[str, ...]:
    types = (str,) if fact_type is str else fact_type.__annotations__.values()
    return tuple(NUMBER if t is int else SYMBOL for t in types)


class _Relation(NamedTuple):
    """How the facts of one predicate load into their container."""

    field: str  # the container field that holds them
    fact_type: type  # their NamedTuple, or str for a 1-ary fact
    sorts: tuple[str, ...]
    normalize: tuple[tuple[int, Callable[[str], str]], ...]  # (column, function)
    omitted: tuple[int, ...] = ()  # the slots an abbreviated form leaves out
    default: str = ""  # and the value that fills them


def _relations(fields, normalize: dict, abbreviated: dict) -> dict[str, _Relation]:
    """Each predicate of a table with its relation; ``normalize`` maps a
    column name to the function applied to its values."""
    table = {}
    for name, predicate, fact_type in fields:
        columns = getattr(fact_type, "_fields", ("value",))
        table[predicate] = _Relation(
            name,
            fact_type,
            _sorts(fact_type),
            tuple((i, normalize[c]) for i, c in enumerate(columns) if c in normalize),
            *abbreviated.get(predicate, ()),
        )
    return table


# ---------------------------------------------------------------------------
# Fact shapes
# ---------------------------------------------------------------------------


class SiteFact(NamedTuple):
    var: str
    file: str
    line: int


class FlowFact(NamedTuple):
    src_var: str
    src_file: str
    src_line: int
    dst_var: str
    dst_file: str
    dst_line: int


# ---------------------------------------------------------------------------
# Lint report
# ---------------------------------------------------------------------------


class LintIssue(NamedTuple):
    code: str
    message: str
    fact: str

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "fact": self.fact}


class LintReport(Record):
    __slots__ = _fields = ("errors", "warnings")

    def __init__(self) -> None:
        self.errors: list[LintIssue] = []
        self.warnings: list[LintIssue] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> dict:
        return {
            "errors": [issue.to_json() for issue in self.errors],
            "warnings": [issue.to_json() for issue in self.warnings],
        }


class _Facts(Record):
    """A container of fact sets, one per field, each frozen from the
    iterable given by keyword; a field not given is empty.  ``len()``
    counts the facts, ``_replace`` derives a container with some fields
    changed, and ``union`` one with the facts of others added."""

    __slots__ = ()

    def __init__(self, **facts: Iterable) -> None:
        for name in self._fields:
            setattr(self, name, frozenset(facts.pop(name, ())))
        if facts:
            raise TypeError(f"{self.__class__.__name__} has no field {min(facts)!r}")

    def __len__(self) -> int:
        return sum(map(len, self._values()))

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    def union(self, *others):
        """Each field the union of that field here and in ``others``; a field
        that is itself a container (a bundle's sides) unions the same way."""
        return self.__class__(**{
            name: getattr(self, name).union(*(getattr(other, name) for other in others))
            for name in self._fields
        })


# ---------------------------------------------------------------------------
# The typed fact scan, which the loaders of both sections run
# ---------------------------------------------------------------------------


def _omitted(relation: _Relation, arity: int) -> tuple[int, ...] | None:
    """The slots that a form of ``arity`` arguments leaves out, or None if
    the relation has no form of that arity."""
    omitted = () if arity == len(relation.sorts) else relation.omitted
    return omitted if arity == len(relation.sorts) - len(omitted) else None


@cache  # compiled on first load, not at import
def _fact_scan(longest: int) -> re.Pattern:
    """One match per ``//`` line comment or ground fact of at most
    ``longest`` constants, after leading whitespace.  Group 1 is the
    predicate; each constant has its own group, nested so that
    ``lastindex`` is one more than the fact's arity.  A constant is a
    quoted string without escapes, a number without sign, or a bare
    ``true``/``false``, and must be followed by ``,`` or ``)``.  A ``.decl``
    after a fact's dot stops the scan, as ``decl`` is no predicate of any
    vocabulary."""
    constant = r'("[^"\\]*"|\d+|true|false)'
    rest = ""
    for _ in range(longest - 1):
        rest = rf"(?:\s*,\s*{constant}{rest})?"
    return re.compile(
        rf"\s*(?://[^\n]*|([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?:{constant}{rest})?\s*\)\s*\.)"
    )


def _bare(text: str) -> str:
    """A symbol written without quotes; the scan's other bare constants are
    numbers, which no symbol column takes."""
    if text in ("true", "false"):
        return text
    raise ValueError(f"{text} is not a symbol")


@cache  # built for the (predicate, arity) pairs that texts use
def _converter(relation: _Relation, arity: int) -> Callable[[re.Match], object] | None:
    """The function from a fact-scan match of ``arity`` constants to the
    typed fact, or None where the relation has no form of that arity.  It
    raises ValueError where a constant is not of its column's sort."""
    omitted = _omitted(relation, arity)
    if omitted is None:
        return None
    normalize = dict(relation.normalize)
    given = iter(range(arity))
    values = []
    for column, sort in enumerate(relation.sorts):
        if column in omitted:
            values.append("default")
            continue
        a = f"a{next(given)}"
        value = f"int({a})" if sort == NUMBER else f"({a}[1:-1] if {a}[0] == '\"' else bare({a}))"
        values.append(f"n{column}({value})" if column in normalize else value)
    names = ", ".join(f"a{i}" for i in range(arity))
    groups = ", ".join(str(i + 2) for i in range(arity))
    unpack = "a0 = m[2]" if arity == 1 else f"{names} = m.group({groups})"
    result = values[0] if relation.fact_type is str else f"new(fact, ({', '.join(values)},))"
    params = ", ".join(["new", "bare", "fact", "default", *(f"n{c}" for c in normalize)])
    make = compiled_make(  # relations of one shape share their code
        f"def make({params}):\n"
        f"    def convert(m):\n"
        f"        {unpack}\n"
        f"        return {result}\n"
        f"    return convert\n", "<fact converter>"
    )
    return make(tuple.__new__, _bare, relation.fact_type, relation.default, *normalize.values())


def _scan(source: str, relations: dict[str, _Relation], longest: int) -> dict[str, set] | None:
    """The typed facts of ``source`` by container field, one match of the
    fact scan per fact; None where the scan does not read all of ``source``
    or a constant does not fit its column, which only the parser and the
    checks on atoms can report.  ``longest`` is the largest arity of the
    vocabulary, so that one compiled scan serves all of its sections."""
    found: dict[str, set] = {}
    steps: dict[tuple, tuple] = {}  # (predicate, last group) -> (convert, add)
    m = None
    try:
        for m in iter(_fact_scan(longest).scanner(source).match, None):
            key = m[1], m.lastindex
            step = steps.get(key)
            if step is None:
                if m[1] is None:  # a comment
                    continue
                relation = relations.get(m[1])
                convert = relation and _converter(relation, m.lastindex - 1)
                if convert is None:
                    return None
                step = steps[key] = convert, found.setdefault(relation.field, set()).add
            convert, add = step
            add(convert(m))
    except ValueError:  # a constant of the wrong sort, or a number too long for int()
        return None
    if source[0 if m is None else m.end():].strip():
        return None
    return found
