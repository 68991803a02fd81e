"""The use-of-uninitialized-value condition as stratified Datalog rules.

``msan.verify_msan`` is the verdict path; these rules state the same
condition for export and for the cross-checks in the test suite.
:func:`msan_program` puts a fact set under them: evaluated, it derives
``satisfied()`` exactly when :func:`verify_msan` returns Verified, and the
first derivation of ``satisfied()`` is that verdict's witness.  The rules
alone are ``msan_program(MsanFactSet())``.  The name imports from
``claimcheck.msan``, which loads this module on its first use.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import TYPE_CHECKING

from . import _collector_paused
from .datalog.values import print_declaration
from .facts.msan import MSAN_FIELDS, MSAN_SORTS
from .msan import _site_key

if TYPE_CHECKING:
    from .datalog.ast import Program
    from .datalog.engine import RuleSet
    from .facts.msan import MsanFactSet

# Declarations of the vocabulary come from the fact types; only the
# rule-local relations are written out.  The engine keeps each tuple's
# first derivation, which has minimal height, so over msan_program's fact
# order the first satisfied() is verify_msan's witness.  ``reach`` stays
# first in each satisfied() body: scanned in insertion order, it yields
# the shallowest site first.
_RULES_SOURCE = "".join(
    print_declaration(predicate, sorts) + "\n" for predicate, sorts in MSAN_SORTS.items()
) + """
.decl reach(x: symbol, f: symbol, l: number)
.decl hasMemoryErrorClaim()
.decl satisfied()

reach(x, f, l) :- uninitialized(x, f, l).
reach(y, g, m) :- reach(x, f, l), flow(x, f, l, y, g, m).

hasMemoryErrorClaim() :- memoryError(_, _, _, _).

satisfied() :- reach(x, f, l), uses(x, f, l), !hasMemoryErrorClaim().
satisfied() :- reach(x, f, l), uses(x, f, l), memoryError(_, _, f, l).
"""


@cache  # built on first use, not at import
def _rule_set() -> RuleSet:
    from .datalog.engine import prepare
    from .datalog.parser import parse_program

    return prepare(parse_program(_RULES_SOURCE, validate=False))


# the tie-break order of a flow: its source's, then its destination's
_SEARCH_ORDER = {"uninitialized": _site_key, "flow": itemgetter(1, 2, 0, 4, 5, 3)}


@_collector_paused
def msan_program(fs: MsanFactSet) -> Program:
    """Rules plus the fact set, one segment of the container's facts per
    relation, ready for evaluation or export.

    The engine scans a relation in insertion order, so the ``uninitialized``
    and ``flow`` facts come in :func:`verify_msan`'s tie-break order; the
    others are sorted.
    """
    return _rule_set().program([
        (predicate, sorted(getattr(fs, name), key=_SEARCH_ORDER.get(name)))
        for name, predicate, _ in MSAN_FIELDS
    ])
