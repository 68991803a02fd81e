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
facts all read these tables; ``datalog.ast.print_fact`` writes every fact.

Loaders accept the canonical arities, in which every site carries a file
name.  Only the equivalence vocabulary has abbreviated forms, the ones
published fact sets use: an omitted file name becomes ``main.cpp`` (an
omitted ``entryMap`` label becomes ``main``).  Only trace paths have runs
of ``/`` collapsed.  ``outputVar`` is accepted as a synonym for
``watchVar``.  Any predicate outside the vocabulary is rejected, never
coerced.

Loaders read fact text straight into the fact tuples: one regex match per
fact, one group per constant, and one generated converter per (predicate,
arity) pair that the text uses.  Text that this scan does not read in full
(an escape, a negative number, a comment inside a fact, an unknown
predicate, a wrong arity or sort, a rule) goes whole to the Datalog parser
and the checks on atoms (``*_from_atoms``), which report every error.
"""

import re
from functools import cache
from typing import Callable, Iterable, NamedTuple

from .datalog.ast import NUMBER, SYMBOL, Atom, Record, print_fact
from .errors import (
    ArityMismatchError,
    ClaimcheckError,
    DanglingMapReferenceError,
    SortError,
    UnknownPredicateError,
)

DEFAULT_FILE = "main.cpp"
# task names: the trace vocabulary and the equivalence vocabulary
MSAN, EQUIV = "msan", "equiv"


def _norm_path(path: str) -> str:
    """Collapse duplicate separators; trace dumps are inconsistent about ``//``.

    Most paths have none, and an ``in`` test is far cheaper than a ``sub``.
    """
    return re.sub(r"/{2,}", "/", path) if "//" in path else path


def _sym(atom: Atom, index: int) -> str:
    term = atom.args[index]
    if type(term) is not str:
        raise SortError(
            f"{atom.predicate}: argument {index + 1} must be a quoted symbol"
        )
    return term


def _num(atom: Atom, index: int) -> int:
    term = atom.args[index]
    if type(term) is not int:
        raise SortError(f"{atom.predicate}: argument {index + 1} must be a number")
    if term < 0:
        raise SortError(f"{atom.predicate}: line numbers must be >= 0")
    return term


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


class InitFact(NamedTuple):
    var: str
    context: str


class FlowFact(NamedTuple):
    src_var: str
    src_file: str
    src_line: int
    dst_var: str
    dst_file: str
    dst_line: int


class MemoryErrorFact(NamedTuple):
    var: str
    kind: str
    file: str
    line: int


class ControlDepFact(NamedTuple):
    var: str
    file: str
    line: int
    cond: str
    branch: str
    cond_file: str
    cond_line: int


class CondExprFact(NamedTuple):
    file: str
    line: int


class UnaryFact(NamedTuple):
    op: str
    operand: str
    file: str
    line: int


class BinaryFact(NamedTuple):
    op: str
    left: str
    right: str
    file: str
    line: int


class EntryFact(NamedTuple):
    function: str
    file: str
    line: int


class ExitFact(NamedTuple):
    file: str
    line: int


class VarMapFact(NamedTuple):
    var1: str
    file1: str
    line1: int
    var2: str
    file2: str
    line2: int


class EntryMapFact(NamedTuple):
    """First/third slots hold the entry label (function or file name)."""

    label1: str
    line1: int
    label2: str
    line2: int


class ExitMapFact(NamedTuple):
    file1: str
    line1: int
    file2: str
    line2: int


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
    """A container of fact sets, one per field; a field not given by keyword
    is empty.  ``len()`` counts the facts, and ``_replace`` derives a
    container with some fields changed."""

    __slots__ = ()

    def __init__(self, **facts: frozenset) -> None:
        for name in self._fields:
            setattr(self, name, facts.pop(name, frozenset()))
        if facts:
            raise TypeError(f"{self.__class__.__name__} has no field {min(facts)!r}")

    def __len__(self) -> int:
        return sum(map(len, self._values()))

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))


# ---------------------------------------------------------------------------
# Memory-sanitizer fact set
# ---------------------------------------------------------------------------

# Render order, which is also the order of the Datalog facts.
MSAN_FIELDS = (
    ("uninitialized", "uninitialized", SiteFact),
    ("declared", "declared", SiteFact),
    ("allocated", "allocated", SiteFact),
    ("has_initializer", "hasInitializer", InitFact),
    ("has_member_initializer", "hasMemberInitializer", InitFact),
    ("uses", "uses", SiteFact),
    ("flow", "flow", FlowFact),
    ("memory_error", "memoryError", MemoryErrorFact),
)


class MsanFactSet(_Facts):
    __slots__ = _fields = (
        "uses", "uninitialized", "has_initializer", "has_member_initializer",
        "allocated", "declared", "flow", "memory_error",
    )

    def union(self, other: "MsanFactSet") -> "MsanFactSet":
        return MsanFactSet(
            **{name: getattr(self, name) | getattr(other, name) for name in self._fields}
        )

    def render(self) -> str:
        return _render(self, MSAN_FIELDS)


# Trace dumps are inconsistent about "//" in the file columns of every fact.
_MSAN_RELATIONS = _relations(
    MSAN_FIELDS, dict.fromkeys(("file", "src_file", "dst_file"), _norm_path), {}
)
MSAN_SORTS = {p: relation.sorts for p, relation in _MSAN_RELATIONS.items()}
MSAN_PREDICATES = tuple(MSAN_SORTS)


def msan_facts_from_atoms(atoms: Iterable[Atom]) -> MsanFactSet:
    return MsanFactSet(**_frozen(_load_atoms(atoms, _MSAN_RELATIONS, str), MSAN_FIELDS))


def load_msan_facts(source: str) -> MsanFactSet:
    found = _scan(source, _MSAN_RELATIONS)
    if found is None:
        from .datalog.parser import parse_facts

        return msan_facts_from_atoms(parse_facts(source))
    return MsanFactSet(**_frozen(found, MSAN_FIELDS))


def lint_msan(fs: MsanFactSet) -> LintReport:
    """Well-formedness obligations for a trace fact set.

    Errors: a flow arrives at a site that carries no supporting fact for the
    destination variable; a memoryError names a site with no use.  Warnings:
    an initializer claim for a variable that is also claimed uninitialized.
    """
    report = LintReport()
    supported = {
        (f.var, f.file, f.line)
        for group in (fs.uses, fs.declared, fs.allocated, fs.uninitialized)
        for f in group
    }
    for f in sorted(fs.flow):
        if (f.dst_var, f.dst_file, f.dst_line) not in supported:
            report.errors.append(
                LintIssue(
                    "flow-endpoint-unsupported",
                    f"flow reaches {f.dst_var!r} at {f.dst_file}:{f.dst_line} "
                    "but no uses/declared/allocated/uninitialized fact covers "
                    "that site",
                    repr(f),
                )
            )
    use_sites = {(f.file, f.line) for f in fs.uses}
    for f in sorted(fs.memory_error):
        if (f.file, f.line) not in use_sites:
            report.errors.append(
                LintIssue(
                    "memory-error-without-use",
                    f"memoryError at {f.file}:{f.line} has no uses fact at "
                    "that site",
                    repr(f),
                )
            )
    uninit_vars = {f.var for f in fs.uninitialized}
    for f in sorted(fs.has_initializer | fs.has_member_initializer):
        if f.var in uninit_vars:
            report.warnings.append(
                LintIssue(
                    "initializer-conflicts-uninitialized",
                    f"{f.var!r} has an initializer claim but is also claimed "
                    "uninitialized",
                    repr(f),
                )
            )
    return report


# ---------------------------------------------------------------------------
# Equivalence bundle
# ---------------------------------------------------------------------------

CODE1, CODE2, CORRESPONDENCE = "code1", "code2", "correspondence"
# Render order, which is also the order of the Datalog facts.
SIDE_FIELDS = (
    ("entries", "entry", EntryFact),
    ("constants", "isConstantValue", str),
    ("defs", "def", SiteFact),
    ("def_with_expr", "defWithExpr", SiteFact),
    ("cond_with_expr", "condWithExpr", CondExprFact),
    ("uses", "use", SiteFact),
    ("flows", "flow", FlowFact),
    ("controldeps", "controldep", ControlDepFact),
    ("unary", "unaryFun", UnaryFact),
    ("binary", "binaryFun", BinaryFact),
    ("exits", "exit", ExitFact),
    ("watch_vars", "watchVar", SiteFact),
)
CORRESPONDENCE_FIELDS = (
    ("entry_maps", "entryMap", EntryMapFact),
    ("exit_maps", "exitMap", ExitMapFact),
    ("var_maps", "varMap", VarMapFact),
)


class EquivSide(_Facts):
    __slots__ = _fields = (
        "uses", "defs", "flows", "controldeps", "def_with_expr", "cond_with_expr",
        "unary", "binary", "entries", "exits", "constants", "watch_vars",
    )

    def variables(self) -> frozenset[str]:
        """Every name that occupies a variable position on this side."""
        names = set()
        for f in self.uses | self.defs | self.def_with_expr | self.watch_vars:
            names.add(f.var)
        for f in self.flows:
            names.add(f.src_var)
            names.add(f.dst_var)
        for f in self.controldeps:
            names.add(f.var)
            names.add(f.cond)
        for f in self.unary:
            names.add(f.operand)
        for f in self.binary:
            names.add(f.left)
            names.add(f.right)
        names.update(self.constants)
        return frozenset(names)

    def render(self) -> str:
        return _render(self, SIDE_FIELDS)


def _swap_halves(m: tuple) -> tuple:
    """A map fact with its code1 half (the first) and code2 half exchanged."""
    half = len(m) // 2
    return m._make(m[half:] + m[:half])


class EquivBundle(_Facts):
    __slots__ = _fields = ("code1", "code2", "var_maps", "entry_maps", "exit_maps")

    def __init__(
        self, code1: EquivSide, code2: EquivSide, var_maps: frozenset = frozenset(),
        entry_maps: frozenset = frozenset(), exit_maps: frozenset = frozenset(),
    ) -> None:
        self.code1, self.code2 = code1, code2
        self.var_maps, self.entry_maps, self.exit_maps = var_maps, entry_maps, exit_maps

    def side(self, tag: str) -> EquivSide:
        return self.code1 if tag == CODE1 else self.code2

    def swapped(self) -> "EquivBundle":
        return EquivBundle(
            self.code2,
            self.code1,
            **{
                name: frozenset(map(_swap_halves, getattr(self, name)))
                for name, _, _ in CORRESPONDENCE_FIELDS
            },
        )

    def render(self) -> str:
        return (
            f"=== {CODE1} ===\n"
            + self.code1.render()
            + f"=== {CODE2} ===\n"
            + self.code2.render()
            + f"=== {CORRESPONDENCE} ===\n"
            + _render(self, CORRESPONDENCE_FIELDS)
        )


# The abbreviated forms: the canonical argument slots a short form leaves
# out, and the value that fills them.
_ABBREVIATED = {
    "use": ((1,), DEFAULT_FILE),
    "def": ((1,), DEFAULT_FILE),
    "defWithExpr": ((1,), DEFAULT_FILE),
    "watchVar": ((1,), DEFAULT_FILE),
    "entry": ((1,), DEFAULT_FILE),
    "flow": ((1, 4), DEFAULT_FILE),
    "controldep": ((1, 5), DEFAULT_FILE),
    "condWithExpr": ((0,), DEFAULT_FILE),
    "exit": ((0,), DEFAULT_FILE),
    "unaryFun": ((2,), DEFAULT_FILE),
    "binaryFun": ((3,), DEFAULT_FILE),
    "varMap": ((1, 4), DEFAULT_FILE),
    "entryMap": ((0, 2), "main"),
    "exitMap": ((0, 2), DEFAULT_FILE),
}

_SIDE_RELATIONS = _relations(SIDE_FIELDS, {"branch": str.lower}, _ABBREVIATED)
_CORRESPONDENCE_RELATIONS = _relations(CORRESPONDENCE_FIELDS, {}, _ABBREVIATED)
SIDE_SORTS = {p: relation.sorts for p, relation in _SIDE_RELATIONS.items()}
CORRESPONDENCE_SORTS = {
    p: relation.sorts for p, relation in _CORRESPONDENCE_RELATIONS.items()
}
SIDE_PREDICATES = tuple(SIDE_SORTS)
CORRESPONDENCE_PREDICATES = tuple(CORRESPONDENCE_SORTS)
# outputVar loads as a synonym of watchVar.
_SIDE_RELATIONS["outputVar"] = _SIDE_RELATIONS["watchVar"]


# ---------------------------------------------------------------------------
# Loading: the typed fact scan, and the checks on atoms behind it
# ---------------------------------------------------------------------------


def _frozen(found: dict[str, set], fields) -> dict[str, frozenset]:
    return {name: frozenset(found.get(name, ())) for name, _, _ in fields}


def _omitted(relation: _Relation, arity: int) -> tuple[int, ...] | None:
    """The slots that a form of ``arity`` arguments leaves out, or None if
    the relation has no form of that arity."""
    omitted = () if arity == len(relation.sorts) else relation.omitted
    return omitted if arity == len(relation.sorts) - len(omitted) else None


def _load_atoms(
    atoms: Iterable[Atom], relations: dict[str, _Relation], unknown_name: Callable[[str], str]
) -> dict[str, set]:
    """The typed facts of ``atoms`` by container field.  Arity and sort
    errors raise at the first offending atom; predicates outside
    ``relations`` are named through ``unknown_name`` and raise at the end."""
    found: dict[str, set] = {}
    unknown: list[str] = []
    for atom in atoms:
        relation = relations.get(atom.predicate)
        if relation is None:
            unknown.append(unknown_name(atom.predicate))
            continue
        omitted = _omitted(relation, len(atom.args))
        if omitted is None:
            raise ArityMismatchError(atom.predicate, len(relation.sorts), len(atom.args))
        # Sort errors name the argument as written, so check before inserting.
        given = [sort for slot, sort in enumerate(relation.sorts) if slot not in omitted]
        values = [(_num if sort == NUMBER else _sym)(atom, i) for i, sort in enumerate(given)]
        for slot in omitted:
            values.insert(slot, relation.default)
        for column, normalize in relation.normalize:
            values[column] = normalize(values[column])
        fact = values[0] if relation.fact_type is str else relation.fact_type(*values)
        found.setdefault(relation.field, set()).add(fact)
    if unknown:
        raise UnknownPredicateError(unknown)
    return found


@cache  # compiled on first load, not at import
def _fact_scan() -> re.Pattern:
    """One match per ``//`` line comment or ground fact, after leading
    whitespace.  Group 1 is the predicate; each constant has its own group,
    nested so that ``lastindex`` is one more than the fact's arity.  A
    constant is a quoted string without escapes, a number without sign, or
    a bare ``true``/``false``, and must be followed by ``,`` or ``)``.  A
    ``.decl`` after a fact's dot stops the scan, as ``decl`` is no predicate
    of any vocabulary."""
    constant = r'("[^"\\]*"|\d+|true|false)'
    tables = (MSAN_SORTS, SIDE_SORTS, CORRESPONDENCE_SORTS)
    longest = max(len(sorts) for table in tables for sorts in table.values())
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


@cache  # relations of one shape share their code
def _compiled(source: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, "<fact converter>", "exec"), namespace)
    return namespace["make"]


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
    make = _compiled(
        f"def make({params}):\n"
        f"    def convert(m):\n"
        f"        {unpack}\n"
        f"        return {result}\n"
        f"    return convert\n"
    )
    return make(tuple.__new__, _bare, relation.fact_type, relation.default, *normalize.values())


def _scan(source: str, relations: dict[str, _Relation]) -> dict[str, set] | None:
    """The typed facts of ``source`` by container field, one match of the
    fact scan per fact; None where the scan does not read all of ``source``
    or a constant does not fit its column, which only the parser and the
    checks on atoms can report."""
    found: dict[str, set] = {}
    steps: dict[tuple, tuple] = {}  # (predicate, last group) -> (convert, add)
    m = None
    try:
        for m in iter(_fact_scan().scanner(source).match, None):
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


def _bundle(code1: dict[str, set], code2: dict[str, set], correspondence: dict[str, set]):
    """The bundle of three loaded sections, its map references checked."""
    bundle = EquivBundle(
        EquivSide(**_frozen(code1, SIDE_FIELDS)),
        EquivSide(**_frozen(code2, SIDE_FIELDS)),
        **_frozen(correspondence, CORRESPONDENCE_FIELDS),
    )
    _check_map_references(bundle)
    return bundle


def entry_files(side: EquivSide) -> Callable[[str, int], list[str]]:
    """The resolver of entry labels on ``side``: (label, line) -> the files,
    in order, of its entry facts at that line whose function or file is the
    label.  On a side without entry facts, the published style, the entryMap
    itself announces the entry points, and each label resolves to itself."""
    if not side.entries:
        return lambda label, line: [label]
    files: dict[tuple[str, int], set[str]] = {}
    for f in side.entries:
        files.setdefault((f.function, f.line), set()).add(f.file)
        files.setdefault((f.file, f.line), set()).add(f.file)
    return lambda label, line: sorted(files.get((label, line), ()))


def _exit_files(side: EquivSide) -> Callable[[str, int], list[str]]:
    """The resolver of exit sites on ``side``: (file, line) -> [file] where
    an exit fact is at that site, else []."""
    sites = {(f.file, f.line) for f in side.exits}
    return lambda file, line: [file] if (file, line) in sites else []


# Each kind of map with its bundle field, the side field whose facts it
# cites, and the resolver of the (label or file, line) halves of its facts.
_MAPS = (
    ("exit", "exit_maps", "exits", _exit_files),
    ("entry", "entry_maps", "entries", entry_files),
)


def _check_map_references(bundle: EquivBundle) -> None:
    """Each half of each map names a fact of its side."""
    for kind, maps, cited, resolver in _MAPS:
        if not getattr(bundle, maps):
            continue
        sides = [
            (tag, sorted({f.line for f in getattr(side, cited)}), resolver(side))
            for tag, side in ((CODE1, bundle.code1), (CODE2, bundle.code2))
        ]
        for m in sorted(getattr(bundle, maps)):
            for (tag, lines, resolve), (name, line) in zip(sides, (m[:2], m[2:])):
                if not resolve(name, line):
                    raise DanglingMapReferenceError(
                        f"{kind}Map cites line {line} on {tag} but {cited} are at {lines}"
                        if line not in lines
                        else f"{kind}Map cites {name!r} at line {line} on {tag} but no "
                        f"{kind} fact at that line names it"
                    )


def equiv_bundle_from_atoms(
    code1_atoms: Iterable[Atom],
    code2_atoms: Iterable[Atom],
    correspondence_atoms: Iterable[Atom],
) -> EquivBundle:
    def in_side(section: str) -> Callable[[str], str]:
        return lambda name: (
            f"{name} (correspondence predicate in section {section})"
            if name in CORRESPONDENCE_SORTS
            else name
        )

    return _bundle(
        _load_atoms(code1_atoms, _SIDE_RELATIONS, in_side(CODE1)),
        _load_atoms(code2_atoms, _SIDE_RELATIONS, in_side(CODE2)),
        _load_atoms(
            correspondence_atoms,
            _CORRESPONDENCE_RELATIONS,
            "{} (not a correspondence predicate)".format,
        ),
    )


def load_equiv_bundle(code1: str, code2: str, correspondence: str) -> EquivBundle:
    found = [
        _scan(code1, _SIDE_RELATIONS),
        _scan(code2, _SIDE_RELATIONS),
        _scan(correspondence, _CORRESPONDENCE_RELATIONS),
    ]
    if None in found:
        from .datalog.parser import parse_facts

        return equiv_bundle_from_atoms(
            parse_facts(code1), parse_facts(code2), parse_facts(correspondence)
        )
    return _bundle(*found)


# A marker line with the "\n" before it: a bundle line ends at "\n", and
# any other whitespace may surround the marker's parts.
_MARKER_RE = re.compile(
    r"\n[^\S\n]*===[^\S\n]*(code1|code2|correspondence)[^\S\n]*===[^\S\n]*(?=\n|\Z)",
    re.IGNORECASE,
)


def split_bundle_sections(text: str) -> dict[str, str]:
    """The text of each section as written, its repeats joined in order."""
    # Found in "\n" + text, a marker's start and end are the offsets in text
    # of its line and of the section text after that line.
    markers = list(_MARKER_RE.finditer("\n" + text))
    preamble = text[: markers[0].start()] if markers else text
    for line in preamble.split("\n"):
        if line.strip() and not line.strip().startswith("//"):
            raise ClaimcheckError(
                "bundle text must start with a '=== code1 ===' style marker"
            )
    sections: dict[str, list[str]] = {CODE1: [], CODE2: [], CORRESPONDENCE: []}
    ends = [m.start() for m in markers[1:]] + [len(text)]
    for m, end in zip(markers, ends):
        body = text[m.end() : end]
        if body:
            sections[m[1].casefold()].append(body if body.endswith("\n") else body + "\n")
    return {name: "".join(parts) or "\n" for name, parts in sections.items()}


def load_equiv_bundle_text(text: str) -> EquivBundle:
    sections = split_bundle_sections(text)
    return load_equiv_bundle(
        sections[CODE1], sections[CODE2], sections[CORRESPONDENCE]
    )


# ---------------------------------------------------------------------------
# Equivalence lint
# ---------------------------------------------------------------------------


def _lint_side(bundle: EquivBundle, tag: str, report: LintReport) -> None:
    side = bundle.side(tag)
    # Besides line 0, a def needs no source at an entry fact's site, which
    # each entryMap half names (see _check_map_references).  On a side
    # without entry facts an entryMap label names no file, so there any
    # line an entryMap names counts.
    entry_sites = {(f.file, f.line) for f in side.entries}
    map_lines = set() if side.entries else {
        m.line1 if tag == CODE1 else m.line2 for m in bundle.entry_maps
    }
    inbound: dict[tuple[str, str, int], bool] = {}
    for f in side.flows:
        inbound[(f.dst_var, f.dst_file, f.dst_line)] = True
    expr_sites = {(f.file, f.line) for f in side.unary} | {
        (f.file, f.line) for f in side.binary
    }
    defined_vars = {f.var for f in side.defs}
    flows_into_var = {f.dst_var for f in side.flows}

    for f in sorted(side.defs):
        if f.line == 0 or f.line in map_lines or (f.file, f.line) in entry_sites:
            continue
        if (f.var, f.file, f.line) in inbound:
            continue
        if SiteFact(f.var, f.file, f.line) in side.def_with_expr:
            continue
        report.errors.append(
            LintIssue(
                "def-without-source",
                f"{tag}: def of {f.var!r} at {f.file}:{f.line} has neither an "
                "inbound flow at that site nor a defWithExpr",
                repr(f),
            )
        )
    expr_facts = (("defWithExpr", side.def_with_expr), ("condWithExpr", side.cond_with_expr))
    for predicate, facts in expr_facts:
        for f in sorted(facts):
            if (f.file, f.line) not in expr_sites:
                report.errors.append(
                    LintIssue(
                        "expr-without-operator",
                        f"{tag}: {predicate} at {f.file}:{f.line} has no "
                        "unaryFun/binaryFun at that site",
                        repr(f),
                    )
                )
    for f in sorted(side.uses):
        if f.var in defined_vars or f.var in flows_into_var:
            continue
        if f.var in side.constants:
            continue
        report.errors.append(
            LintIssue(
                "use-without-def",
                f"{tag}: use of {f.var!r} at {f.file}:{f.line} has no def and "
                "no inbound flow for that variable",
                repr(f),
            )
        )
    exit_sites = {(f.file, f.line) for f in side.exits}
    exit_used = {
        f.var for f in side.uses if (f.file, f.line) in exit_sites and f in inbound
    }
    for f in sorted(side.watch_vars):
        if f.var not in exit_used:
            report.errors.append(
                LintIssue(
                    "watchvar-without-exit-use",
                    f"{tag}: watchVar {f.var!r} has no use with an inbound "
                    "flow at an exit line",
                    repr(f),
                )
            )
    if not side.entries and not bundle.entry_maps:
        report.errors.append(
            LintIssue(
                "entry-missing",
                f"{tag}: no entry fact and no entryMap correspondence",
                "",
            )
        )
    if not side.exits:
        report.errors.append(
            LintIssue("exit-missing", f"{tag}: no exit fact", "")
        )


def lint_equiv(bundle: EquivBundle) -> LintReport:
    """Sufficiency obligations; any error routes the verdict to Inconclusive."""
    report = LintReport()
    _lint_side(bundle, CODE1, report)
    _lint_side(bundle, CODE2, report)
    if bool(bundle.code1.watch_vars) != bool(bundle.code2.watch_vars):
        empty = CODE1 if not bundle.code1.watch_vars else CODE2
        report.errors.append(
            LintIssue(
                "watchvar-one-sided",
                f"{empty}: watch variables are declared on the other side only",
                "",
            )
        )
    for kind, maps, cited, _ in _MAPS:
        if getattr(bundle, maps):
            continue
        lines1, lines2 = (
            sorted(f.line for f in getattr(side, cited)) for side in (bundle.code1, bundle.code2)
        )
        if lines1 != lines2:
            report.errors.append(
                LintIssue(
                    f"{kind}map-missing",
                    f"{kind} lines differ ({lines1} vs {lines2}) and no {kind}Map "
                    "is supplied",
                    "",
                )
            )
    return report
