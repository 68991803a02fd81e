"""Export to (and re-import from) the external solver dialect on disk.

The on-disk layout is one rules file ``program.dl`` holding declarations and
rules, plus one tab-separated ``<relation>.facts`` file per relation that has
at least one fact (symbols unquoted, one tuple per line, so a nullary fact is
an empty line).  Re-importing a directory reproduces the program up to
statement ordering.
"""

from __future__ import annotations

import re
from itertools import chain
from pathlib import Path

from ..errors import ArityMismatchError, ClaimcheckError, SortError, UnknownRelationError
from .ast import NUMBER, Program, print_declaration, print_rule
from .engine import check_program
from .parser import parse_program
from .values import number_text

RULES_FILE = "program.dl"
FACTS_SUFFIX = ".facts"
# what splits a row into fields, or a file into lines (``str.splitlines``)
_SEPARATOR_RE = re.compile(r"[\t\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
# the parser's number token: no sign but "-", no blanks, no "_"
_NUMBER_RE = re.compile(r"-?\d+")


def _field(value) -> str:
    """A value as a field of a row: a symbol as it is, a number's digits."""
    return value if type(value) is str else number_text(value)


def _row_order(row: tuple) -> str:
    """``repr(row)``, written with no int-to-str digit limit."""
    text = ", ".join(repr(v) if type(v) is str else number_text(v) for v in row)
    return f"({text},)" if len(row) == 1 else f"({text})"


def export_external(program: Program, directory: str | Path) -> Path:
    """Write the program to ``directory``; returns the rules file path.

    Raises :class:`ClaimcheckError`, and writes nothing, when a symbol holds
    a tab or a line break, which no row could hold.
    """
    by_relation: dict[str, set[tuple]] = {}
    for relation, rows in program.segments:
        if rows:
            by_relation.setdefault(relation, set()).update(rows)
    texts = {}
    for relation, tuples in sorted(by_relation.items()):
        rows = sorted(tuples, key=_row_order)
        text = "\n".join("\t".join(map(_field, values)) for values in rows) + "\n"
        # each row is one line, and a row of k > 0 values holds k - 1 tabs
        tabs = sum(map(len, rows)) - len(rows) + rows.count(())
        if text.count("\t") != tabs or len(text.splitlines()) != len(rows):
            bad = next(v for v in chain.from_iterable(rows) if _SEPARATOR_RE.search(_field(v)))
            raise ClaimcheckError(
                f"cannot export {relation}: symbol {bad!r} holds a tab or a line break"
            )
        texts[relation] = text

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    lines = [print_declaration(n, s) for n, s in sorted(program.declarations.items())]
    lines.extend(print_rule(rule) for rule in program.rules)
    rules_path = out / RULES_FILE
    rules_path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    for relation, text in texts.items():
        (out / f"{relation}{FACTS_SUFFIX}").write_text(text, encoding="utf-8")
    return rules_path


def _number(field: str, what: str) -> int:
    """A number field, read as the parser reads a number token."""
    if _NUMBER_RE.fullmatch(field):
        try:
            return int(field)
        except ValueError:  # more digits than int() converts
            pass
    raise SortError(f"{what} is declared number, found {field!r}")


def import_external(directory: str | Path) -> Program:
    """Read back a directory produced by :func:`export_external`: each line
    of a facts file is one row."""
    src = Path(directory)
    program = parse_program((src / RULES_FILE).read_text(encoding="utf-8"), validate=False)
    for facts_path in sorted(src.glob(f"*{FACTS_SUFFIX}")):
        relation = facts_path.name[: -len(FACTS_SUFFIX)]
        if relation not in program.declarations:
            raise UnknownRelationError(relation)
        sorts = program.declarations[relation]
        rows = []
        text = facts_path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), 1):
            where = f"{facts_path.name}, line {number}"
            fields = line.split("\t") if line or sorts else []
            if len(fields) != len(sorts):
                raise ArityMismatchError(relation, len(sorts), len(fields), where)
            for i, (field, sort) in enumerate(zip(fields, sorts)):
                if sort == NUMBER:
                    fields[i] = _number(field, f"{where}: argument {i + 1} of {relation!r}")
            rows.append(tuple(fields))
        program.segments.append((relation, rows))
    check_program(program)
    return program
