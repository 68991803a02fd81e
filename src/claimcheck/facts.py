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

Each fact container lists its predicates once, in an ordered
``(field, predicate)`` table (``MSAN_FIELDS``, ``SIDE_FIELDS``,
``CORRESPONDENCE_FIELDS``).  A predicate's argument order and sorts are
those of the field's NamedTuple (``str`` fields are symbols, ``int`` fields
numbers, a bare ``str`` is a 1-ary fact).  Rendering, counting, the Datalog
facts and declarations of the rule sets and the text of witness facts are
all derived from these tables; ``datalog.ast.print_fact`` writes every fact.

Loaders accept the canonical arities, in which every site carries a file
name.  Only the equivalence vocabulary has abbreviated forms, the ones
published fact sets use: an omitted file name becomes ``main.cpp`` (an
omitted ``entryMap`` label becomes ``main``).  Only trace paths have runs
of ``/`` collapsed.  ``outputVar`` is accepted as a synonym for
``watchVar``.  Any predicate outside the vocabulary is rejected, never
coerced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Iterator, NamedTuple, get_type_hints

from .datalog.ast import NUMBER, SYMBOL, Atom, print_fact
from .datalog.parser import parse_facts
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


def fact_atom(predicate: str, fact) -> Atom:
    """A typed fact as a ground atom whose arguments are the fact's fields
    (``str`` symbols, ``int`` numbers); a bare ``str`` is a 1-ary fact."""
    return Atom(predicate, (fact,) if isinstance(fact, str) else tuple(fact))


def fact_text(predicate: str, fact) -> str:
    """A typed fact as Datalog text, without the final dot."""
    return print_fact(predicate, (fact,) if isinstance(fact, str) else fact)


def fact_atoms(container, fields: Iterable[tuple[str, str]]) -> Iterator[Atom]:
    """A container's facts as atoms, in table order, each field sorted."""
    for name, predicate in fields:
        for fact in sorted(getattr(container, name)):
            yield fact_atom(predicate, fact)


def _render(container, fields: Iterable[tuple[str, str]]) -> str:
    """A container's facts as fact text, in table order, each field sorted."""
    return "".join(
        fact_text(predicate, fact) + ".\n"
        for name, predicate in fields
        for fact in sorted(getattr(container, name))
    )


@cache  # fields share fact types, and every launch pays for evaluating annotations
def _sorts(fact_type) -> tuple[str, ...]:
    types = (str,) if fact_type is str else get_type_hints(fact_type).values()
    return tuple(NUMBER if t is int else SYMBOL for t in types)


def _vocabulary(container_type, fields) -> dict[str, tuple[str, ...]]:
    """Each predicate of a table with its argument sorts, read from the
    NamedTuple in the annotation of its field."""
    hints = get_type_hints(container_type)
    return {predicate: _sorts(*hints[name].__args__) for name, predicate in fields}


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


@dataclass(frozen=True)
class LintIssue:
    code: str
    message: str
    fact: str

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message, "fact": self.fact}


@dataclass
class LintReport:
    errors: list[LintIssue] = field(default_factory=list)
    warnings: list[LintIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> dict:
        return {
            "errors": [issue.to_json() for issue in self.errors],
            "warnings": [issue.to_json() for issue in self.warnings],
        }


# ---------------------------------------------------------------------------
# Memory-sanitizer fact set
# ---------------------------------------------------------------------------

# Render order, which is also the order of the Datalog facts.
MSAN_FIELDS = (
    ("uninitialized", "uninitialized"),
    ("declared", "declared"),
    ("allocated", "allocated"),
    ("has_initializer", "hasInitializer"),
    ("has_member_initializer", "hasMemberInitializer"),
    ("uses", "uses"),
    ("flow", "flow"),
    ("memory_error", "memoryError"),
)


@dataclass(frozen=True)
class MsanFactSet:
    uses: frozenset[SiteFact] = frozenset()
    uninitialized: frozenset[SiteFact] = frozenset()
    has_initializer: frozenset[InitFact] = frozenset()
    has_member_initializer: frozenset[InitFact] = frozenset()
    allocated: frozenset[SiteFact] = frozenset()
    declared: frozenset[SiteFact] = frozenset()
    flow: frozenset[FlowFact] = frozenset()
    memory_error: frozenset[MemoryErrorFact] = frozenset()

    def __len__(self) -> int:
        return sum(len(getattr(self, name)) for name, _ in MSAN_FIELDS)

    def union(self, other: "MsanFactSet") -> "MsanFactSet":
        return MsanFactSet(
            **{name: getattr(self, name) | getattr(other, name) for name, _ in MSAN_FIELDS}
        )

    def render(self) -> str:
        return _render(self, MSAN_FIELDS)


MSAN_SORTS = _vocabulary(MsanFactSet, MSAN_FIELDS)
MSAN_PREDICATES = tuple(MSAN_SORTS)


def msan_facts_from_atoms(atoms: Iterable[Atom]) -> MsanFactSet:
    found: dict[str, set] = {predicate: set() for predicate in MSAN_SORTS}
    unknown: list[str] = []
    for atom in atoms:
        name = atom.predicate
        sorts = MSAN_SORTS.get(name)
        if sorts is None:
            unknown.append(name)
            continue
        if len(atom.args) != len(sorts):
            raise ArityMismatchError(name, len(sorts), len(atom.args))
        if name in ("uses", "uninitialized", "allocated", "declared"):
            fact = SiteFact(_sym(atom, 0), _norm_path(_sym(atom, 1)), _num(atom, 2))
        elif name in ("hasInitializer", "hasMemberInitializer"):
            fact = InitFact(_sym(atom, 0), _sym(atom, 1))
        elif name == "flow":
            fact = FlowFact(
                _sym(atom, 0), _norm_path(_sym(atom, 1)), _num(atom, 2),
                _sym(atom, 3), _norm_path(_sym(atom, 4)), _num(atom, 5),
            )
        else:
            fact = MemoryErrorFact(
                _sym(atom, 0), _sym(atom, 1), _norm_path(_sym(atom, 2)), _num(atom, 3)
            )
        found[name].add(fact)
    if unknown:
        raise UnknownPredicateError(unknown)
    return MsanFactSet(**{name: frozenset(found[p]) for name, p in MSAN_FIELDS})


def load_msan_facts(source: str) -> MsanFactSet:
    return msan_facts_from_atoms(parse_facts(source))


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
    ("entries", "entry"),
    ("constants", "isConstantValue"),
    ("defs", "def"),
    ("def_with_expr", "defWithExpr"),
    ("cond_with_expr", "condWithExpr"),
    ("uses", "use"),
    ("flows", "flow"),
    ("controldeps", "controldep"),
    ("unary", "unaryFun"),
    ("binary", "binaryFun"),
    ("exits", "exit"),
    ("watch_vars", "watchVar"),
)
CORRESPONDENCE_FIELDS = (
    ("entry_maps", "entryMap"),
    ("exit_maps", "exitMap"),
    ("var_maps", "varMap"),
)


@dataclass(frozen=True)
class EquivSide:
    uses: frozenset[SiteFact] = frozenset()
    defs: frozenset[SiteFact] = frozenset()
    flows: frozenset[FlowFact] = frozenset()
    controldeps: frozenset[ControlDepFact] = frozenset()
    def_with_expr: frozenset[SiteFact] = frozenset()
    cond_with_expr: frozenset[CondExprFact] = frozenset()
    unary: frozenset[UnaryFact] = frozenset()
    binary: frozenset[BinaryFact] = frozenset()
    entries: frozenset[EntryFact] = frozenset()
    exits: frozenset[ExitFact] = frozenset()
    constants: frozenset[str] = frozenset()
    watch_vars: frozenset[SiteFact] = frozenset()

    def __len__(self) -> int:
        return sum(len(getattr(self, name)) for name, _ in SIDE_FIELDS)

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


@dataclass(frozen=True)
class EquivBundle:
    code1: EquivSide
    code2: EquivSide
    var_maps: frozenset[VarMapFact] = frozenset()
    entry_maps: frozenset[EntryMapFact] = frozenset()
    exit_maps: frozenset[ExitMapFact] = frozenset()

    def side(self, tag: str) -> EquivSide:
        return self.code1 if tag == CODE1 else self.code2

    def swapped(self) -> "EquivBundle":
        return EquivBundle(
            code1=self.code2,
            code2=self.code1,
            var_maps=frozenset(
                VarMapFact(m.var2, m.file2, m.line2, m.var1, m.file1, m.line1)
                for m in self.var_maps
            ),
            entry_maps=frozenset(
                EntryMapFact(m.label2, m.line2, m.label1, m.line1)
                for m in self.entry_maps
            ),
            exit_maps=frozenset(
                ExitMapFact(m.file2, m.line2, m.file1, m.line1)
                for m in self.exit_maps
            ),
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


SIDE_SORTS = _vocabulary(EquivSide, SIDE_FIELDS)
CORRESPONDENCE_SORTS = _vocabulary(EquivBundle, CORRESPONDENCE_FIELDS)
SIDE_PREDICATES = tuple(SIDE_SORTS)
CORRESPONDENCE_PREDICATES = tuple(CORRESPONDENCE_SORTS)

# The abbreviated forms: the canonical argument slots a short form leaves
# out, and the value that fills them.
_ABBREVIATED = {
    "use": ((1,), DEFAULT_FILE),
    "def": ((1,), DEFAULT_FILE),
    "defWithExpr": ((1,), DEFAULT_FILE),
    "watchVar": ((1,), DEFAULT_FILE),
    "outputVar": ((1,), DEFAULT_FILE),
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


def _expand(atom: Atom, sorts: tuple[str, ...]) -> Atom:
    """An atom of the wrong arity, expanded to its canonical arity if it is
    an abbreviated form; else an ArityMismatchError naming that arity."""
    omitted, default = _ABBREVIATED.get(atom.predicate, ((), ""))
    if not omitted or len(atom.args) != len(sorts) - len(omitted):
        raise ArityMismatchError(atom.predicate, len(sorts), len(atom.args))
    # Sort errors name the argument as written, so check before inserting.
    given = [sort for slot, sort in enumerate(sorts) if slot not in omitted]
    for index, sort in enumerate(given):
        (_num if sort == NUMBER else _sym)(atom, index)
    args = list(atom.args)
    for slot in omitted:
        args.insert(slot, default)
    return Atom(atom.predicate, tuple(args))


# outputVar loads as a synonym of watchVar.
_SIDE_LOAD_SORTS = {**SIDE_SORTS, "outputVar": SIDE_SORTS["watchVar"]}


def _side_from_atoms(atoms: Iterable[Atom], section: str) -> EquivSide:
    found: dict[str, set] = {predicate: set() for predicate in SIDE_SORTS}
    found["outputVar"] = found["watchVar"]
    unknown: list[str] = []
    for atom in atoms:
        name = atom.predicate
        sorts = _SIDE_LOAD_SORTS.get(name)
        if sorts is None:
            if name in CORRESPONDENCE_SORTS:
                name = f"{name} (correspondence predicate in section {section})"
            unknown.append(name)
            continue
        if len(atom.args) != len(sorts):
            atom = _expand(atom, sorts)
        if name in ("use", "def", "defWithExpr", "watchVar", "outputVar"):
            fact = SiteFact(_sym(atom, 0), _sym(atom, 1), _num(atom, 2))
        elif name == "flow":
            fact = FlowFact(
                _sym(atom, 0), _sym(atom, 1), _num(atom, 2),
                _sym(atom, 3), _sym(atom, 4), _num(atom, 5),
            )
        elif name == "controldep":
            fact = ControlDepFact(
                _sym(atom, 0), _sym(atom, 1), _num(atom, 2),
                _sym(atom, 3), _sym(atom, 4).lower(),
                _sym(atom, 5), _num(atom, 6),
            )
        elif name == "condWithExpr":
            fact = CondExprFact(_sym(atom, 0), _num(atom, 1))
        elif name == "unaryFun":
            fact = UnaryFact(_sym(atom, 0), _sym(atom, 1), _sym(atom, 2), _num(atom, 3))
        elif name == "binaryFun":
            fact = BinaryFact(
                _sym(atom, 0), _sym(atom, 1), _sym(atom, 2), _sym(atom, 3), _num(atom, 4)
            )
        elif name == "entry":
            fact = EntryFact(_sym(atom, 0), _sym(atom, 1), _num(atom, 2))
        elif name == "exit":
            fact = ExitFact(_sym(atom, 0), _num(atom, 1))
        else:
            fact = _sym(atom, 0)
        found[name].add(fact)
    if unknown:
        raise UnknownPredicateError(unknown)
    return EquivSide(**{name: frozenset(found[p]) for name, p in SIDE_FIELDS})


def _correspondence_from_atoms(atoms: Iterable[Atom]) -> dict[str, frozenset]:
    found: dict[str, set] = {predicate: set() for predicate in CORRESPONDENCE_SORTS}
    unknown: list[str] = []
    for atom in atoms:
        name = atom.predicate
        sorts = CORRESPONDENCE_SORTS.get(name)
        if sorts is None:
            unknown.append(f"{name} (not a correspondence predicate)")
            continue
        if len(atom.args) != len(sorts):
            atom = _expand(atom, sorts)
        if name == "varMap":
            fact = VarMapFact(
                _sym(atom, 0), _sym(atom, 1), _num(atom, 2),
                _sym(atom, 3), _sym(atom, 4), _num(atom, 5),
            )
        elif name == "entryMap":
            fact = EntryMapFact(_sym(atom, 0), _num(atom, 1), _sym(atom, 2), _num(atom, 3))
        else:
            fact = ExitMapFact(_sym(atom, 0), _num(atom, 1), _sym(atom, 2), _num(atom, 3))
        found[name].add(fact)
    if unknown:
        raise UnknownPredicateError(unknown)
    return {name: frozenset(found[p]) for name, p in CORRESPONDENCE_FIELDS}


def _check_map_references(bundle: EquivBundle) -> None:
    exit_lines_1 = {f.line for f in bundle.code1.exits}
    exit_lines_2 = {f.line for f in bundle.code2.exits}
    for m in sorted(bundle.exit_maps):
        if m.line1 not in exit_lines_1:
            raise DanglingMapReferenceError(
                f"exitMap cites line {m.line1} on code1 but exits are at "
                f"{sorted(exit_lines_1)}"
            )
        if m.line2 not in exit_lines_2:
            raise DanglingMapReferenceError(
                f"exitMap cites line {m.line2} on code2 but exits are at "
                f"{sorted(exit_lines_2)}"
            )
    # An entryMap against a side with no entry facts is the published style:
    # the map itself announces the entry points.  It only dangles when entry
    # facts exist and disagree.
    entry_lines_1 = {f.line for f in bundle.code1.entries}
    entry_lines_2 = {f.line for f in bundle.code2.entries}
    for m in sorted(bundle.entry_maps):
        if entry_lines_1 and m.line1 not in entry_lines_1:
            raise DanglingMapReferenceError(
                f"entryMap cites line {m.line1} on code1 but entries are at "
                f"{sorted(entry_lines_1)}"
            )
        if entry_lines_2 and m.line2 not in entry_lines_2:
            raise DanglingMapReferenceError(
                f"entryMap cites line {m.line2} on code2 but entries are at "
                f"{sorted(entry_lines_2)}"
            )


def equiv_bundle_from_atoms(
    code1_atoms: Iterable[Atom],
    code2_atoms: Iterable[Atom],
    correspondence_atoms: Iterable[Atom],
) -> EquivBundle:
    bundle = EquivBundle(
        _side_from_atoms(code1_atoms, CODE1),
        _side_from_atoms(code2_atoms, CODE2),
        **_correspondence_from_atoms(correspondence_atoms),
    )
    _check_map_references(bundle)
    return bundle


def load_equiv_bundle(code1: str, code2: str, correspondence: str) -> EquivBundle:
    return equiv_bundle_from_atoms(
        parse_facts(code1), parse_facts(code2), parse_facts(correspondence)
    )


_SECTION_RE = re.compile(r"^===\s*(code1|code2|correspondence)\s*===\s*$", re.IGNORECASE)


def split_bundle_sections(text: str) -> dict[str, str]:
    sections = {CODE1: [], CODE2: [], CORRESPONDENCE: []}
    current: list[str] | None = None
    for line in text.splitlines():
        m = _SECTION_RE.match(line.strip())
        if m:
            current = sections[m.group(1).lower()]
            continue
        if current is None:
            if line.strip() and not line.strip().startswith("//"):
                raise ClaimcheckError(
                    "bundle text must start with a '=== code1 ===' style marker"
                )
            continue
        current.append(line)
    return {name: "\n".join(lines) + "\n" for name, lines in sections.items()}


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
    entry_lines = {0} | {f.line for f in side.entries}
    entry_lines |= {
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
        if f.line in entry_lines:
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
    for f in sorted(side.def_with_expr):
        if (f.file, f.line) not in expr_sites:
            report.errors.append(
                LintIssue(
                    "expr-without-operator",
                    f"{tag}: defWithExpr at {f.file}:{f.line} has no "
                    "unaryFun/binaryFun at that site",
                    repr(f),
                )
            )
    for f in sorted(side.cond_with_expr):
        if (f.file, f.line) not in expr_sites:
            report.errors.append(
                LintIssue(
                    "expr-without-operator",
                    f"{tag}: condWithExpr at {f.file}:{f.line} has no "
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
    exit_lines = {(f.file, f.line) for f in side.exits}
    for f in sorted(side.watch_vars):
        covered = any(
            SiteFact(f.var, ef, el) in side.uses
            and (f.var, ef, el) in inbound
            for ef, el in exit_lines
        )
        if not covered:
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
    if not bundle.exit_maps:
        lines1 = sorted(f.line for f in bundle.code1.exits)
        lines2 = sorted(f.line for f in bundle.code2.exits)
        if lines1 != lines2:
            report.errors.append(
                LintIssue(
                    "exitmap-missing",
                    f"exit lines differ ({lines1} vs {lines2}) and no exitMap "
                    "is supplied",
                    "",
                )
            )
    if not bundle.entry_maps:
        lines1 = sorted(f.line for f in bundle.code1.entries)
        lines2 = sorted(f.line for f in bundle.code2.entries)
        if lines1 != lines2:
            report.errors.append(
                LintIssue(
                    "entrymap-missing",
                    f"entry lines differ ({lines1} vs {lines2}) and no "
                    "entryMap is supplied",
                    "",
                )
            )
    return report
