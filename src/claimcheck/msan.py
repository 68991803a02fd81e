"""Verification condition for use-of-uninitialized-value traces.

A fact set verifies when some claimed-uninitialized site reaches a claimed
use site through the reflexive-transitive closure of the claimed flows.
When the set also claims a concrete memory error, the witnessing use must
sit at a claimed error site; a chain that ends somewhere unrelated to the
reported bug does not count.  The verdict is Verified or DontKnow, never
NotVerified: absence of a chain only means the claims do not establish the
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Optional

from .datalog.ast import Program, print_declaration
from .datalog.parser import parse_program
from .facts import MSAN_FIELDS, MSAN_SORTS, LintReport, MsanFactSet, fact_atoms, lint_msan

if TYPE_CHECKING:
    from .datalog.engine import RuleSet

VERIFIED = "Verified"
DONT_KNOW = "DontKnow"

Site = tuple[str, str, int]  # (variable, file, line)


def _site_key(site: Site) -> tuple[str, int, str]:
    var, file, line = site
    return (file, line, var)


@dataclass(frozen=True)
class MsanVerdict:
    outcome: str
    witness: Optional[tuple[Site, ...]] = None
    lint: LintReport = field(default_factory=LintReport)

    @property
    def verified(self) -> bool:
        return self.outcome == VERIFIED

    def to_json(self) -> dict:
        chain = None
        if self.witness is not None:
            chain = [
                {"var": var, "file": file, "line": line}
                for var, file, line in self.witness
            ]
        return {"outcome": self.outcome, "chain": chain, "lint": self.lint.to_json()}


def verify_msan(fs: MsanFactSet) -> MsanVerdict:
    """Breadth-first search for the shortest qualifying flow chain.

    Ties between equally short chains break lexicographically by
    (file, line, variable) along the chain.  The search is linear in sites
    and flows: each site records the site it was first reached from, and
    the witness is rebuilt from those parent pointers.  Levels need no
    sorting, as each is generated in tie-break order: the starts and every
    site's successors are sorted, each site is reached once, and a level is
    produced from the previous one in order, so its chains order by their
    parents' chains first and by their last site second.
    """
    lint = lint_msan(fs)
    uses = {(f.var, f.file, f.line) for f in fs.uses}
    error_sites = {(f.file, f.line) for f in fs.memory_error}

    def qualifies(site: Site) -> bool:
        if site not in uses:
            return False
        if error_sites and (site[1], site[2]) not in error_sites:
            return False
        return True

    edges: dict[Site, list[Site]] = {}
    for f in fs.flow:
        src = (f.src_var, f.src_file, f.src_line)
        edges.setdefault(src, []).append((f.dst_var, f.dst_file, f.dst_line))
    for dsts in edges.values():
        dsts.sort(key=_site_key)

    starts = sorted(
        ((f.var, f.file, f.line) for f in fs.uninitialized), key=_site_key
    )
    # Parallel BFS from all uninitialized sites; the first qualifying site
    # of the shallowest level ends the shortest, least chain.
    parent: dict[Site, Optional[Site]] = {}
    frontier: list[Site] = []
    for site in starts:
        if site not in parent:
            parent[site] = None
            frontier.append(site)
    while frontier:
        for site in frontier:
            if qualifies(site):
                return MsanVerdict(VERIFIED, witness=_chain(parent, site), lint=lint)
        next_frontier: list[Site] = []
        for site in frontier:
            for dst in edges.get(site, ()):
                if dst not in parent:
                    parent[dst] = site
                    next_frontier.append(dst)
        frontier = next_frontier
    return MsanVerdict(DONT_KNOW, witness=None, lint=lint)


def _chain(parent: dict[Site, Optional[Site]], last: Site) -> tuple[Site, ...]:
    chain: list[Site] = []
    site: Optional[Site] = last
    while site is not None:
        chain.append(site)
        site = parent[site]
    chain.reverse()
    return tuple(chain)


# Declarations of the vocabulary come from the fact types; only the
# rule-local relations are written out.
_RULES_SOURCE = "".join(
    print_declaration(predicate, sorts) + "\n" for predicate, sorts in MSAN_SORTS.items()
) + """
.decl flowStar(x: symbol, f1: symbol, l1: number, y: symbol, f2: symbol, l2: number)
.decl hasMemoryErrorClaim()
.decl satisfied()

flowStar(x, f, l, x, f, l) :- uninitialized(x, f, l).
flowStar(x, f1, l1, z, f3, l3) :- flowStar(x, f1, l1, y, f2, l2), flow(y, f2, l2, z, f3, l3).

hasMemoryErrorClaim() :- memoryError(_, _, _, _).

satisfied() :- uninitialized(x, fx, lx), flowStar(x, fx, lx, y, fy, ly),
    uses(y, fy, ly), !hasMemoryErrorClaim().
satisfied() :- uninitialized(x, fx, lx), flowStar(x, fx, lx, y, fy, ly),
    uses(y, fy, ly), memoryError(_, _, fy, ly).
"""


@cache  # built on first use, not at import
def _rule_set() -> RuleSet:
    from .datalog.engine import prepare

    return prepare(parse_program(_RULES_SOURCE, validate=False))


def msan_rules() -> Program:
    """The verification condition as a stratified rule set over the vocabulary.

    Evaluating these rules over a fact set derives ``satisfied()`` exactly
    when :func:`verify_msan` returns Verified; the two code paths are
    cross-checked in the test suite.  The rules are parsed, validated and
    stratified once per process; each call returns a new program sharing
    the prepared rules, so evaluating it checks only the facts added to it.
    """
    return _rule_set().program()


def msan_program(fs: MsanFactSet) -> Program:
    """Rules plus the fact set, ready for evaluation or export."""
    program = msan_rules()
    program.facts.extend(fact_atoms(fs, MSAN_FIELDS))
    return program
