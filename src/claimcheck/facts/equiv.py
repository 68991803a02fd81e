"""The equivalence vocabulary: the side and correspondence fact types, the
bundle, its loaders and the equivalence lint, which also checks that each
map names facts of its sides.  ``claimcheck.facts`` loads this section on
first use of one of its names."""

import re
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .. import _collector_paused
from ..errors import ClaimcheckError
from . import (
    CODE1,
    CODE2,
    CORRESPONDENCE,
    DEFAULT_FILE,
    FlowFact,
    LintIssue,
    LintReport,
    SiteFact,
    _Facts,
    _relations,
    _render,
    _scan,
)


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
# Equivalence bundle
# ---------------------------------------------------------------------------

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

# Each side field with the columns of its facts that hold a variable: the
# var of a site fact, both ends of a flow, a controldep's var and cond, the
# operand of a unaryFun and both of a binaryFun.  Each constant is one too.
_VARIABLE_COLUMNS = (
    ("uses", (0,)),
    ("defs", (0,)),
    ("def_with_expr", (0,)),
    ("watch_vars", (0,)),
    ("flows", (0, 3)),
    ("controldeps", (0, 3)),
    ("unary", (1,)),
    ("binary", (1, 2)),
)


class EquivSide(_Facts):
    __slots__ = _fields = tuple(name for name, _, _ in SIDE_FIELDS)

    def variables(self) -> frozenset[str]:
        """Every name that occupies a variable position on this side."""
        names = set(self.constants)
        for name, columns in _VARIABLE_COLUMNS:
            facts = getattr(self, name)
            for column in columns:
                names.update(map(itemgetter(column), facts))
        return frozenset(names)

    def render(self) -> str:
        return _render(self, SIDE_FIELDS)


def _swap_halves(m: tuple) -> tuple:
    """A map fact with its code1 half (the first) and code2 half exchanged."""
    half = len(m) // 2
    return m._make(m[half:] + m[:half])


class EquivBundle(_Facts):
    __slots__ = _fields = (CODE1, CODE2, *(name for name, _, _ in CORRESPONDENCE_FIELDS))

    def __init__(
        self, code1: EquivSide, code2: EquivSide, var_maps: Iterable = (),
        entry_maps: Iterable = (), exit_maps: Iterable = (),
    ) -> None:
        self.code1, self.code2 = code1, code2
        self.var_maps, self.entry_maps = frozenset(var_maps), frozenset(entry_maps)
        self.exit_maps = frozenset(exit_maps)

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
# outputVar loads as a synonym of watchVar.
_SIDE_RELATIONS["outputVar"] = _SIDE_RELATIONS["watchVar"]


def _bundle(code1: dict[str, set], code2: dict[str, set], correspondence: dict[str, set]):
    """The bundle of three loaded sections."""
    return EquivBundle(EquivSide(**code1), EquivSide(**code2), **correspondence)


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


@_collector_paused
def load_equiv_bundle(code1: str, code2: str, correspondence: str) -> EquivBundle:
    sides = _scan((code1, code2), _SIDE_RELATIONS)
    maps = _scan((correspondence,), _CORRESPONDENCE_RELATIONS)
    if None in sides or None in maps:
        from ..datalog.parser import parse_facts
        from .atoms import equiv_bundle_from_atoms

        return equiv_bundle_from_atoms(
            parse_facts(code1), parse_facts(code2), parse_facts(correspondence)
        )
    return _bundle(*sides, *maps)


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


_SITE = itemgetter(-2, -1)  # the site of a fact whose last fields are its file and line
_VAR = itemgetter(0)


def _not_in(facts: Iterable[tuple], key: Callable, keys) -> list:
    """The facts whose ``key`` is not in ``keys``, sorted."""
    if keys.issuperset(map(key, facts)):
        return []
    return sorted(f for f in facts if key(f) not in keys)


def _lint_side(bundle: EquivBundle, tag: str, report: LintReport) -> None:
    side = bundle.code1 if tag == CODE1 else bundle.code2
    # Besides line 0, a def needs no source at an entry fact's site, which
    # each entryMap half names (else lint_equiv reports it).  On a side
    # without entry facts an entryMap label names no file, so there any
    # line an entryMap names counts.
    entry_sites = {(f.file, f.line) for f in side.entries}
    map_lines = set() if side.entries else {
        m.line1 if tag == CODE1 else m.line2 for m in bundle.entry_maps
    }
    inbound = set(map(itemgetter(3, 4, 5), side.flows))  # (var, file, line) of each flow's target
    expr_sites = set(map(_SITE, side.unary)) | set(map(_SITE, side.binary))
    defined_vars = set(map(_VAR, side.defs))

    # Each check compares whole columns and sorts only the facts it reports.
    sourceless = (
        f for f in side.defs.difference(inbound, side.def_with_expr)
        if not (f.line == 0 or f.line in map_lines or (f.file, f.line) in entry_sites)
    )
    for f in sorted(sourceless):
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
        for f in _not_in(facts, _SITE, expr_sites):
            report.errors.append(
                LintIssue(
                    "expr-without-operator",
                    f"{tag}: {predicate} at {f.file}:{f.line} has no "
                    "unaryFun/binaryFun at that site",
                    repr(f),
                )
            )
    # Function, control-dependence and constant facts are compared only at
    # def sites, so one that no def anchors is a claim nothing checks.
    anchored = set(map(_SITE, side.defs)) | set(map(_SITE, side.cond_with_expr))
    operator_facts = (("unaryFun", side.unary), ("binaryFun", side.binary))
    for predicate, facts in operator_facts:
        for f in _not_in(facts, _SITE, anchored):
            report.errors.append(
                LintIssue(
                    "operator-without-def",
                    f"{tag}: {predicate} at {f.file}:{f.line} has no def "
                    "and no condWithExpr at that site",
                    repr(f),
                )
            )
    for f in _not_in(side.controldeps, itemgetter(0, 1, 2), side.defs):
        report.errors.append(
            LintIssue(
                "controldep-without-def",
                f"{tag}: controldep of {f.var!r} at {f.file}:{f.line} has "
                "no def of that variable at that site",
                repr(f),
            )
        )
    for name in sorted(side.constants - defined_vars):
        report.errors.append(
            LintIssue(
                "constant-without-def",
                f"{tag}: isConstantValue({name!r}) has no def of that name",
                repr(name),
            )
        )
    known = defined_vars.union(map(itemgetter(3), side.flows), side.constants)
    for f in _not_in(side.uses, _VAR, known):
        report.errors.append(
            LintIssue(
                "use-without-def",
                f"{tag}: use of {f.var!r} at {f.file}:{f.line} has no def and "
                "no inbound flow for that variable",
                repr(f),
            )
        )
    exit_sites = set(map(_SITE, side.exits))
    uses = tuple(side.uses)
    exit_uses = compress(uses, map(exit_sites.__contains__, map(_SITE, uses)))
    exit_used = set(map(_VAR, inbound.intersection(exit_uses)))
    for f in _not_in(side.watch_vars, _VAR, exit_used):
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
    # Without maps, the two sides' entries (exits) pair only line by line;
    # with maps, each half of each map must name a fact of its side.
    for kind, maps, cited, resolver in _MAPS:
        if not getattr(bundle, maps):
            lines1, lines2 = (
                sorted(f.line for f in getattr(side, cited))
                for side in (bundle.code1, bundle.code2)
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
            continue
        sides = [
            (tag, sorted({f.line for f in getattr(side, cited)}), resolver(side))
            for tag, side in ((CODE1, bundle.code1), (CODE2, bundle.code2))
        ]
        for m in sorted(getattr(bundle, maps)):
            for (tag, lines, resolve), (name, line) in zip(sides, (m[:2], m[2:])):
                if not resolve(name, line):
                    report.errors.append(
                        LintIssue(
                            f"{kind}map-dangling",
                            f"{kind}Map cites line {line} on {tag} but {cited} are at {lines}"
                            if line not in lines
                            else f"{kind}Map cites {name!r} at line {line} on {tag} but no "
                            f"{kind} fact at that line names it",
                            repr(m),
                        )
                    )
    return report
