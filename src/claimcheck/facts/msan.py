"""The memory-sanitizer trace vocabulary: its fact types, its container,
its loader and its lint.  ``claimcheck.facts`` loads this section on first
use of one of its names."""

import re
from typing import NamedTuple

from . import FlowFact, LintIssue, LintReport, SiteFact, _Facts, _relations, _render, _scan


class InitFact(NamedTuple):
    var: str
    context: str


class MemoryErrorFact(NamedTuple):
    var: str
    kind: str
    file: str
    line: int


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
    __slots__ = _fields = tuple(name for name, _, _ in MSAN_FIELDS)

    def render(self) -> str:
        return _render(self, MSAN_FIELDS)


def _norm_path(path: str) -> str:
    """Collapse duplicate separators; trace dumps are inconsistent about ``//``.

    Most paths have none, and an ``in`` test is far cheaper than a ``sub``.
    """
    return re.sub(r"/{2,}", "/", path) if "//" in path else path


# Trace dumps are inconsistent about "//" in the file columns of every fact.
_MSAN_RELATIONS = _relations(
    MSAN_FIELDS, dict.fromkeys(("file", "src_file", "dst_file"), _norm_path), {}
)
MSAN_SORTS = {p: relation.sorts for p, relation in _MSAN_RELATIONS.items()}


def load_msan_facts(source: str) -> MsanFactSet:
    found = _scan((source,), _MSAN_RELATIONS)
    if found is None:
        from ..datalog.parser import parse_facts
        from .atoms import msan_facts_from_atoms

        return msan_facts_from_atoms(parse_facts(source))
    return MsanFactSet(**found[0])


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
    # each loop scans its facts unsorted and sorts only those it reports
    for f in sorted(f for f in fs.flow if (f.dst_var, f.dst_file, f.dst_line) not in supported):
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
    for f in sorted(f for f in fs.memory_error if (f.file, f.line) not in use_sites):
        report.errors.append(
            LintIssue(
                "memory-error-without-use",
                f"memoryError at {f.file}:{f.line} has no uses fact at "
                "that site",
                repr(f),
            )
        )
    uninit_vars = {f.var for f in fs.uninitialized}
    initializers = fs.has_initializer | fs.has_member_initializer
    for f in sorted(f for f in initializers if f.var in uninit_vars):
        report.warnings.append(
            LintIssue(
                "initializer-conflicts-uninitialized",
                f"{f.var!r} has an initializer claim but is also claimed "
                "uninitialized",
                repr(f),
            )
        )
    return report
