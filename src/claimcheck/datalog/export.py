"""Export to (and re-import from) the external solver dialect on disk.

The on-disk layout is one rules file ``program.dl`` holding declarations and
rules, plus one tab-separated ``<relation>.facts`` file per relation that has
at least one fact (symbols unquoted, one tuple per line).  Re-importing a
directory reproduces the program up to statement ordering.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import UnknownRelationError
from .ast import (
    Atom,
    NUMBER,
    Program,
    print_declaration,
    print_rule,
)
from .engine import check_program
from .parser import parse_program

RULES_FILE = "program.dl"
FACTS_SUFFIX = ".facts"


def export_external(program: Program, directory: str | Path) -> Path:
    """Write the program to ``directory``; returns the rules file path."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    lines = [print_declaration(n, s) for n, s in sorted(program.declarations.items())]
    lines.extend(print_rule(rule) for rule in program.rules)
    rules_path = out / RULES_FILE
    rules_path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    by_relation: dict[str, list[tuple]] = {}
    for fact in program.facts:
        by_relation.setdefault(fact.predicate, []).append(fact.value_tuple())
    for relation, tuples in sorted(by_relation.items()):
        rows = sorted(set(tuples), key=repr)
        text = "\n".join("\t".join(str(v) for v in values) for values in rows)
        (out / f"{relation}{FACTS_SUFFIX}").write_text(
            text + ("\n" if rows else ""), encoding="utf-8"
        )
    return rules_path


def import_external(directory: str | Path) -> Program:
    """Read back a directory produced by :func:`export_external`."""
    src = Path(directory)
    program = parse_program((src / RULES_FILE).read_text(encoding="utf-8"), validate=False)
    for facts_path in sorted(src.glob(f"*{FACTS_SUFFIX}")):
        relation = facts_path.name[: -len(FACTS_SUFFIX)]
        if relation not in program.declarations:
            raise UnknownRelationError(relation)
        sorts = program.declarations[relation]
        for line in facts_path.read_text(encoding="utf-8").splitlines():
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(sorts):
                raise UnknownRelationError(
                    f"{facts_path.name}: row has {len(fields)} fields, "
                    f"declaration has {len(sorts)}"
                )
            args = tuple(
                int(field) if sort == NUMBER else field
                for field, sort in zip(fields, sorts)
            )
            program.facts.append(Atom(relation, args))
    check_program(program)
    return program
