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

Loaders accept the canonical arities (every site carries a file name) as
well as the abbreviated forms that published fact sets use, inserting
``main.cpp`` where a file name is omitted.  ``outputVar`` is accepted as a
synonym for ``watchVar``.  Any predicate outside the vocabulary is rejected,
never coerced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .datalog.ast import Atom, Num, Sym
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
    """Collapse duplicate separators; trace dumps are inconsistent about ``//``."""
    return re.sub(r"/{2,}", "/", path)


def _sym(atom: Atom, index: int) -> str:
    term = atom.args[index]
    if not isinstance(term, Sym):
        raise SortError(
            f"{atom.predicate}: argument {index + 1} must be a quoted symbol"
        )
    return term.text


def _num(atom: Atom, index: int) -> int:
    term = atom.args[index]
    if not isinstance(term, Num):
        raise SortError(f"{atom.predicate}: argument {index + 1} must be a number")
    if term.value < 0:
        raise SortError(f"{atom.predicate}: line numbers must be >= 0")
    return term.value


def _q(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


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

MSAN_PREDICATES = (
    "uses",
    "uninitialized",
    "hasInitializer",
    "hasMemberInitializer",
    "allocated",
    "declared",
    "flow",
    "memoryError",
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
        return (
            len(self.uses)
            + len(self.uninitialized)
            + len(self.has_initializer)
            + len(self.has_member_initializer)
            + len(self.allocated)
            + len(self.declared)
            + len(self.flow)
            + len(self.memory_error)
        )

    def union(self, other: "MsanFactSet") -> "MsanFactSet":
        return MsanFactSet(
            uses=self.uses | other.uses,
            uninitialized=self.uninitialized | other.uninitialized,
            has_initializer=self.has_initializer | other.has_initializer,
            has_member_initializer=self.has_member_initializer
            | other.has_member_initializer,
            allocated=self.allocated | other.allocated,
            declared=self.declared | other.declared,
            flow=self.flow | other.flow,
            memory_error=self.memory_error | other.memory_error,
        )

    def render(self) -> str:
        lines = []
        for f in sorted(self.uninitialized):
            lines.append(f"uninitialized({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.declared):
            lines.append(f"declared({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.allocated):
            lines.append(f"allocated({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.has_initializer):
            lines.append(f"hasInitializer({_q(f.var)}, {_q(f.context)}).")
        for f in sorted(self.has_member_initializer):
            lines.append(f"hasMemberInitializer({_q(f.var)}, {_q(f.context)}).")
        for f in sorted(self.uses):
            lines.append(f"uses({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.flow):
            lines.append(
                f"flow({_q(f.src_var)}, {_q(f.src_file)}, {f.src_line}, "
                f"{_q(f.dst_var)}, {_q(f.dst_file)}, {f.dst_line})."
            )
        for f in sorted(self.memory_error):
            lines.append(
                f"memoryError({_q(f.var)}, {_q(f.kind)}, {_q(f.file)}, {f.line})."
            )
        return "\n".join(lines) + ("\n" if lines else "")


def msan_facts_from_atoms(atoms: Iterable[Atom]) -> MsanFactSet:
    buckets: dict[str, set] = {name: set() for name in MSAN_PREDICATES}
    unknown: list[str] = []
    for atom in atoms:
        name = atom.predicate
        if name not in buckets:
            if name not in unknown:
                unknown.append(name)
            continue
        arity = {"hasInitializer": 2, "hasMemberInitializer": 2, "flow": 6, "memoryError": 4}.get(name, 3)
        if len(atom.args) != arity:
            raise ArityMismatchError(name, arity, len(atom.args))
        if name in ("uses", "uninitialized", "allocated", "declared"):
            buckets[name].add(
                SiteFact(_sym(atom, 0), _norm_path(_sym(atom, 1)), _num(atom, 2))
            )
        elif name in ("hasInitializer", "hasMemberInitializer"):
            buckets[name].add(InitFact(_sym(atom, 0), _sym(atom, 1)))
        elif name == "flow":
            buckets[name].add(
                FlowFact(
                    _sym(atom, 0),
                    _norm_path(_sym(atom, 1)),
                    _num(atom, 2),
                    _sym(atom, 3),
                    _norm_path(_sym(atom, 4)),
                    _num(atom, 5),
                )
            )
        else:
            buckets[name].add(
                MemoryErrorFact(
                    _sym(atom, 0),
                    _sym(atom, 1),
                    _norm_path(_sym(atom, 2)),
                    _num(atom, 3),
                )
            )
    if unknown:
        raise UnknownPredicateError(unknown)
    return MsanFactSet(
        uses=frozenset(buckets["uses"]),
        uninitialized=frozenset(buckets["uninitialized"]),
        has_initializer=frozenset(buckets["hasInitializer"]),
        has_member_initializer=frozenset(buckets["hasMemberInitializer"]),
        allocated=frozenset(buckets["allocated"]),
        declared=frozenset(buckets["declared"]),
        flow=frozenset(buckets["flow"]),
        memory_error=frozenset(buckets["memoryError"]),
    )


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

SIDE_PREDICATES = (
    "use",
    "def",
    "flow",
    "controldep",
    "defWithExpr",
    "condWithExpr",
    "unaryFun",
    "binaryFun",
    "entry",
    "exit",
    "isConstantValue",
    "watchVar",
)
CORRESPONDENCE_PREDICATES = ("varMap", "entryMap", "exitMap")
CODE1, CODE2, CORRESPONDENCE = "code1", "code2", "correspondence"


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
        return (
            len(self.uses)
            + len(self.defs)
            + len(self.flows)
            + len(self.controldeps)
            + len(self.def_with_expr)
            + len(self.cond_with_expr)
            + len(self.unary)
            + len(self.binary)
            + len(self.entries)
            + len(self.exits)
            + len(self.constants)
            + len(self.watch_vars)
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
        lines = []
        for f in sorted(self.entries):
            lines.append(f"entry({_q(f.function)}, {_q(f.file)}, {f.line}).")
        for var in sorted(self.constants):
            lines.append(f"isConstantValue({_q(var)}).")
        for f in sorted(self.defs):
            lines.append(f"def({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.def_with_expr):
            lines.append(f"defWithExpr({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.cond_with_expr):
            lines.append(f"condWithExpr({_q(f.file)}, {f.line}).")
        for f in sorted(self.uses):
            lines.append(f"use({_q(f.var)}, {_q(f.file)}, {f.line}).")
        for f in sorted(self.flows):
            lines.append(
                f"flow({_q(f.src_var)}, {_q(f.src_file)}, {f.src_line}, "
                f"{_q(f.dst_var)}, {_q(f.dst_file)}, {f.dst_line})."
            )
        for f in sorted(self.controldeps):
            lines.append(
                f"controldep({_q(f.var)}, {_q(f.file)}, {f.line}, {_q(f.cond)}, "
                f"{_q(f.branch)}, {_q(f.cond_file)}, {f.cond_line})."
            )
        for f in sorted(self.unary):
            lines.append(
                f"unaryFun({_q(f.op)}, {_q(f.operand)}, {_q(f.file)}, {f.line})."
            )
        for f in sorted(self.binary):
            lines.append(
                f"binaryFun({_q(f.op)}, {_q(f.left)}, {_q(f.right)}, "
                f"{_q(f.file)}, {f.line})."
            )
        for f in sorted(self.exits):
            lines.append(f"exit({_q(f.file)}, {f.line}).")
        for f in sorted(self.watch_vars):
            lines.append(f"watchVar({_q(f.var)}, {_q(f.file)}, {f.line}).")
        return "\n".join(lines) + ("\n" if lines else "")


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

    def render_correspondence(self) -> str:
        lines = []
        for m in sorted(self.entry_maps):
            lines.append(
                f"entryMap({_q(m.label1)}, {m.line1}, {_q(m.label2)}, {m.line2})."
            )
        for m in sorted(self.exit_maps):
            lines.append(
                f"exitMap({_q(m.file1)}, {m.line1}, {_q(m.file2)}, {m.line2})."
            )
        for m in sorted(self.var_maps):
            lines.append(
                f"varMap({_q(m.var1)}, {_q(m.file1)}, {m.line1}, "
                f"{_q(m.var2)}, {_q(m.file2)}, {m.line2})."
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        return (
            f"=== {CODE1} ===\n"
            + self.code1.render()
            + f"=== {CODE2} ===\n"
            + self.code2.render()
            + f"=== {CORRESPONDENCE} ===\n"
            + self.render_correspondence()
        )


def _side_from_atoms(atoms: Iterable[Atom], section: str) -> EquivSide:
    uses: set[SiteFact] = set()
    defs: set[SiteFact] = set()
    flows: set[FlowFact] = set()
    controldeps: set[ControlDepFact] = set()
    def_expr: set[SiteFact] = set()
    cond_expr: set[CondExprFact] = set()
    unary: set[UnaryFact] = set()
    binary: set[BinaryFact] = set()
    entries: set[EntryFact] = set()
    exits: set[ExitFact] = set()
    constants: set[str] = set()
    watch: set[SiteFact] = set()
    unknown: list[str] = []

    for atom in atoms:
        name = atom.predicate
        n = len(atom.args)
        if name in ("use", "def", "defWithExpr", "watchVar", "outputVar"):
            if n == 3:
                fact = SiteFact(_sym(atom, 0), _sym(atom, 1), _num(atom, 2))
            elif n == 2:
                fact = SiteFact(_sym(atom, 0), DEFAULT_FILE, _num(atom, 1))
            else:
                raise ArityMismatchError(name, 3, n)
            {"use": uses, "def": defs, "defWithExpr": def_expr}.get(name, watch).add(fact)
        elif name == "flow":
            if n == 6:
                flows.add(
                    FlowFact(
                        _sym(atom, 0), _sym(atom, 1), _num(atom, 2),
                        _sym(atom, 3), _sym(atom, 4), _num(atom, 5),
                    )
                )
            elif n == 4:
                flows.add(
                    FlowFact(
                        _sym(atom, 0), DEFAULT_FILE, _num(atom, 1),
                        _sym(atom, 2), DEFAULT_FILE, _num(atom, 3),
                    )
                )
            else:
                raise ArityMismatchError(name, 6, n)
        elif name == "controldep":
            if n == 7:
                controldeps.add(
                    ControlDepFact(
                        _sym(atom, 0), _sym(atom, 1), _num(atom, 2),
                        _sym(atom, 3), _sym(atom, 4).lower(),
                        _sym(atom, 5), _num(atom, 6),
                    )
                )
            elif n == 5:
                controldeps.add(
                    ControlDepFact(
                        _sym(atom, 0), DEFAULT_FILE, _num(atom, 1),
                        _sym(atom, 2), _sym(atom, 3).lower(),
                        DEFAULT_FILE, _num(atom, 4),
                    )
                )
            else:
                raise ArityMismatchError(name, 7, n)
        elif name == "condWithExpr":
            if n == 2:
                cond_expr.add(CondExprFact(_sym(atom, 0), _num(atom, 1)))
            elif n == 1:
                cond_expr.add(CondExprFact(DEFAULT_FILE, _num(atom, 0)))
            else:
                raise ArityMismatchError(name, 2, n)
        elif name == "unaryFun":
            if n == 4:
                unary.add(
                    UnaryFact(_sym(atom, 0), _sym(atom, 1), _sym(atom, 2), _num(atom, 3))
                )
            elif n == 3:
                unary.add(
                    UnaryFact(_sym(atom, 0), _sym(atom, 1), DEFAULT_FILE, _num(atom, 2))
                )
            else:
                raise ArityMismatchError(name, 4, n)
        elif name == "binaryFun":
            if n == 5:
                binary.add(
                    BinaryFact(
                        _sym(atom, 0), _sym(atom, 1), _sym(atom, 2),
                        _sym(atom, 3), _num(atom, 4),
                    )
                )
            elif n == 4:
                binary.add(
                    BinaryFact(
                        _sym(atom, 0), _sym(atom, 1), _sym(atom, 2),
                        DEFAULT_FILE, _num(atom, 3),
                    )
                )
            else:
                raise ArityMismatchError(name, 5, n)
        elif name == "entry":
            if n == 3:
                entries.add(EntryFact(_sym(atom, 0), _sym(atom, 1), _num(atom, 2)))
            elif n == 2:
                entries.add(EntryFact(_sym(atom, 0), DEFAULT_FILE, _num(atom, 1)))
            else:
                raise ArityMismatchError(name, 3, n)
        elif name == "exit":
            if n == 2:
                exits.add(ExitFact(_sym(atom, 0), _num(atom, 1)))
            elif n == 1:
                exits.add(ExitFact(DEFAULT_FILE, _num(atom, 0)))
            else:
                raise ArityMismatchError(name, 2, n)
        elif name == "isConstantValue":
            if n != 1:
                raise ArityMismatchError(name, 1, n)
            constants.add(_sym(atom, 0))
        elif name in CORRESPONDENCE_PREDICATES:
            unknown.append(f"{name} (correspondence predicate in section {section})")
        else:
            if name not in unknown:
                unknown.append(name)
    if unknown:
        raise UnknownPredicateError(unknown)
    return EquivSide(
        uses=frozenset(uses),
        defs=frozenset(defs),
        flows=frozenset(flows),
        controldeps=frozenset(controldeps),
        def_with_expr=frozenset(def_expr),
        cond_with_expr=frozenset(cond_expr),
        unary=frozenset(unary),
        binary=frozenset(binary),
        entries=frozenset(entries),
        exits=frozenset(exits),
        constants=frozenset(constants),
        watch_vars=frozenset(watch),
    )


def _correspondence_from_atoms(
    atoms: Iterable[Atom],
) -> tuple[frozenset[VarMapFact], frozenset[EntryMapFact], frozenset[ExitMapFact]]:
    var_maps: set[VarMapFact] = set()
    entry_maps: set[EntryMapFact] = set()
    exit_maps: set[ExitMapFact] = set()
    unknown: list[str] = []
    for atom in atoms:
        name = atom.predicate
        n = len(atom.args)
        if name == "varMap":
            if n == 6:
                var_maps.add(
                    VarMapFact(
                        _sym(atom, 0), _sym(atom, 1), _num(atom, 2),
                        _sym(atom, 3), _sym(atom, 4), _num(atom, 5),
                    )
                )
            elif n == 4:
                var_maps.add(
                    VarMapFact(
                        _sym(atom, 0), DEFAULT_FILE, _num(atom, 1),
                        _sym(atom, 2), DEFAULT_FILE, _num(atom, 3),
                    )
                )
            else:
                raise ArityMismatchError(name, 6, n)
        elif name == "entryMap":
            if n == 4:
                entry_maps.add(
                    EntryMapFact(_sym(atom, 0), _num(atom, 1), _sym(atom, 2), _num(atom, 3))
                )
            elif n == 2:
                entry_maps.add(
                    EntryMapFact("main", _num(atom, 0), "main", _num(atom, 1))
                )
            else:
                raise ArityMismatchError(name, 4, n)
        elif name == "exitMap":
            if n == 4:
                exit_maps.add(
                    ExitMapFact(_sym(atom, 0), _num(atom, 1), _sym(atom, 2), _num(atom, 3))
                )
            elif n == 2:
                exit_maps.add(
                    ExitMapFact(DEFAULT_FILE, _num(atom, 0), DEFAULT_FILE, _num(atom, 1))
                )
            else:
                raise ArityMismatchError(name, 4, n)
        else:
            if name not in unknown:
                unknown.append(f"{name} (not a correspondence predicate)")
    if unknown:
        raise UnknownPredicateError(unknown)
    return frozenset(var_maps), frozenset(entry_maps), frozenset(exit_maps)


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
    side1 = _side_from_atoms(code1_atoms, CODE1)
    side2 = _side_from_atoms(code2_atoms, CODE2)
    var_maps, entry_maps, exit_maps = _correspondence_from_atoms(correspondence_atoms)
    bundle = EquivBundle(side1, side2, var_maps, entry_maps, exit_maps)
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
