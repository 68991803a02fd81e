"""The checks on atoms behind the fact scan.  Text that the scan does not
read in full goes to the Datalog parser, and its atoms come here, where
every arity, sort and vocabulary error is reported.  ``claimcheck.facts``
loads this module on first use of one of its names, and the loaders and
the formalize loop only when the scan gives up."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..datalog.values import NUMBER
from ..errors import ArityMismatchError, SortError, UnknownPredicateError
from . import _omitted, _Relation

if TYPE_CHECKING:
    from ..datalog.ast import Atom
    from .equiv import EquivBundle
    from .msan import MsanFactSet


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


def msan_facts_from_atoms(atoms: Iterable[Atom]) -> MsanFactSet:
    from .msan import _MSAN_RELATIONS, MsanFactSet

    return MsanFactSet(**_load_atoms(atoms, _MSAN_RELATIONS, str))


def equiv_bundle_from_atoms(
    code1_atoms: Iterable[Atom],
    code2_atoms: Iterable[Atom],
    correspondence_atoms: Iterable[Atom],
) -> EquivBundle:
    from .equiv import (
        _CORRESPONDENCE_RELATIONS,
        _SIDE_RELATIONS,
        CODE1,
        CODE2,
        CORRESPONDENCE_SORTS,
        _bundle,
    )

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
