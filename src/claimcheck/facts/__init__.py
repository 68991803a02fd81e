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
numbers); a fact type of ``str`` is a 1-ary fact.  The containers' fields,
loading, rendering, the Datalog facts and declarations of the rule sets and
the text of witness facts all read these tables; ``datalog.values.print_fact`` writes every fact.

Loaders accept the canonical arities, in which every site carries a file
name.  Only the equivalence vocabulary has abbreviated forms, the ones
published fact sets use: an omitted file name becomes ``main.cpp`` (an
omitted ``entryMap`` label becomes ``main``).  Only trace paths have runs
of ``/`` collapsed.  ``outputVar`` is accepted as a synonym for
``watchVar``.  Any predicate outside the vocabulary is rejected, never
coerced.  Loading checks nothing else: whether the facts suffice for a
verdict, a bundle's maps naming facts of its sides included, is for lint.

Loaders read fact text straight into the fact tuples, in two regex matches
per fact: a head pattern reads the predicate and its ``(``, then the
argument pattern of a form of that predicate reads the rest of the fact.
An argument pattern has one group per constant and itself checks each sort
and unquotes each symbol; the forms whose constants are written alike (a
number, a quoted symbol or a bare ``true``/``false``) share it.  A
generated converter, one per shape of form, fills the omitted slots,
applies ``int()`` and normalizes.  Only the forms that a text tries are
compiled.  Text that this scan does not read in full (an escape,
whitespace before a comma or around the ``)``, a negative number, a
comment inside a fact, an unknown predicate, a wrong arity or sort, a rule)
goes whole to the Datalog parser and the checks on atoms
(``*_from_atoms``), which report every error.

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
from types import FunctionType
from typing import Callable, Iterable, Iterator, NamedTuple

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
                 "_norm_path load_msan_facts lint_msan"),
        ("equiv", "ControlDepFact CondExprFact UnaryFact BinaryFact EntryFact ExitFact "
                  "VarMapFact EntryMapFact ExitMapFact SIDE_FIELDS CORRESPONDENCE_FIELDS "
                  "EquivSide EquivBundle SIDE_SORTS CORRESPONDENCE_SORTS _ABBREVIATED "
                  "entry_files load_equiv_bundle split_bundle_sections "
                  "load_equiv_bundle_text lint_equiv"),
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
def _head() -> re.Pattern:
    """After leading whitespace, a ``//`` line comment or the head of a fact:
    a word (group 1), then ``(``.  A word that names no predicate of the
    vocabulary, ``decl`` of a ``.decl`` after a fact's dot included, sends
    the text to the parser."""
    return re.compile(r"\s*(?://.*|(\w+)\s*\(\s*)")


# a symbol written as a bare ``true`` or ``false``, not quoted
_BARE = "bare"


@cache  # one per signature as written, compiled when a text first tries it
def _arguments(written: tuple[str, ...]) -> re.Pattern:
    """The arguments of a fact whose constants are written as ``written``,
    after its ``(``, up to and including its final dot, in the layout that
    ``print_fact`` writes.  A number is a group of digits without sign, a
    symbol a group of the text of a quoted string without escapes, a bare
    symbol a group of ``true`` or ``false``."""
    argument = {NUMBER: r"(\d+)", SYMBOL: r'"([^"\\]*)"', _BARE: "(true|false)"}.get
    return re.compile(r",\s*".join(map(argument, written)) + r"\)\.")


def _shape(relation: _Relation, omitted: tuple[int, ...]) -> tuple[tuple, str]:
    """A form's sort signature, and the source of its converter, which is
    the form's shape: ``make``, whose code each form of the shape runs as
    the function from a match of its arguments to the typed fact, with
    ``new`` (``tuple.__new__``), ``fact`` (the fact type), ``default`` and
    ``n<column>`` (a normalize function) as globals.  The pattern has
    checked each sort and unquoted each symbol; ``make`` fills the omitted
    slots, applies ``int()`` (which raises ValueError on a number too long
    for it) and normalizes."""
    normalized = dict(relation.normalize)
    sorts, groups, values = [], [], []
    for column, sort in enumerate(relation.sorts):
        if column in omitted:
            values.append("default")
            continue
        sorts.append(sort)
        value = f"a{column}"
        groups.append(value)
        if sort == NUMBER:
            value = f"int({value})"
        values.append(f"n{column}({value})" if column in normalized else value)
    result = values[0] if relation.fact_type is str else f"new(fact, ({', '.join(values)},))"
    source = f"def make(m):\n    {', '.join(groups)}, = m.groups()\n    return {result}\n"
    return tuple(sorts), source


@cache  # built for the forms that texts try
def _form(relation: _Relation, arity: int, bare: tuple[int, ...]) -> tuple[Callable, Callable]:
    """The match of the arguments of a relation's form of ``arity``
    arguments, those at the positions ``bare`` written as bare symbols, and
    the converter from that match to the typed fact: the code of its
    shape, compiled once, run with the form's globals."""
    sorts, source = _shape(relation, _omitted(relation, arity))
    written = tuple(_BARE if i in bare and s == SYMBOL else s for i, s in enumerate(sorts))
    namespace = {"new": tuple.__new__, "fact": relation.fact_type, "default": relation.default}
    namespace.update((f"n{column}", function) for column, function in relation.normalize)
    convert = FunctionType(compiled_make(source, "<fact converter>").__code__, namespace)
    return _arguments(written).match, convert


def _forms(relation: _Relation, source: str, pos: int) -> Iterator[tuple[Callable, Callable]]:
    """The match and converter of each form of a relation, built as the
    scan tries them at ``pos``.  First the form as the text up to the next
    ``)`` writes it: one argument more than its commas, and a bare symbol
    where it writes a bare ``true`` or ``false``, so that no pattern is
    compiled in vain.  Then, as a symbol may hold a ``,`` or ``)``, the
    canonical form and the abbreviated one, each symbol quoted."""
    arguments = source[pos:source.find(")", pos)].split(",")
    bare = tuple(i for i, argument in enumerate(arguments) if argument.strip() in ("true", "false"))
    n = len(relation.sorts)
    forms = (len(arguments), bare), (n, ()), (n - len(relation.omitted), ())
    for form in dict.fromkeys(forms):
        if _omitted(relation, form[0]) is not None:
            yield _form(relation, *form)


def _scan_source(source: str, relations: dict[str, _Relation], forms: dict, head: Callable):
    """The typed facts of one source by container field, or None; ``forms``
    holds the last form of each predicate and is updated."""
    found: dict[str, set] = {}
    steps: dict[str, tuple] = {}  # predicate -> (match, convert, add) of its last form here
    pos = 0
    try:
        while (m := head(source, pos)) is not None:
            pos, predicate = m.end(), m[1]
            if predicate is None:  # a comment
                continue
            step = steps.get(predicate)
            args = None if step is None else step[0](source, pos)
            if args is None:
                relation = relations.get(predicate)
                if relation is None:
                    return None
                # a failed step is the last form; a new one may be that of
                # an earlier source
                form = None if step is not None else forms.get(predicate)
                args = None if form is None else form[0](source, pos)
                if args is None:
                    for form in _forms(relation, source, pos):
                        args = form[0](source, pos)
                        if args is not None:
                            break
                    else:
                        return None
                    forms[predicate] = form
                add = found.setdefault(relation.field, set()).add
                step = steps[predicate] = (*form, add)
            step[2](step[1](args))
            pos = args.end()
    except ValueError:  # a number too long for int()
        return None
    return None if source[pos:].strip() else found


def _scan(sources: Iterable[str], relations: dict[str, _Relation]) -> list[dict[str, set] | None]:
    """The typed facts of each of ``sources`` by container field.  Per fact
    the scan matches the head, then the arguments of a form of its
    predicate: the form of the predicate's last fact, else those of
    ``_forms``.  The last form of a predicate carries over from one source
    to the next, so the sources of one load look each form up once.  None
    for a source that the scan does not read in full or where no form reads
    a fact's arguments (an unknown predicate, a wrong arity or sort, an
    escape), which only the parser and the checks on atoms can report."""
    forms: dict[str, tuple] = {}  # predicate -> (match, convert) of its last form
    head = _head().match
    return [_scan_source(source, relations, forms, head) for source in sources]
