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

from operator import itemgetter
from typing import NamedTuple, Optional

from . import _collector_paused, _lazy_names
from .facts import LintReport
from .facts.msan import MsanFactSet, lint_msan

VERIFIED = "Verified"
DONT_KNOW = "DontKnow"

Site = tuple[str, str, int]  # (variable, file, line)

# The same condition as Datalog rules, loaded on first use (PEP 562).
_LAZY = {"msan_program": "msan_datalog"}
__getattr__, __dir__ = _lazy_names(globals(), _LAZY)


# verify_msan's tie-break order, (file, line, variable), of a site
_site_key = itemgetter(1, 2, 0)


class MsanVerdict(NamedTuple):
    outcome: str
    witness: Optional[tuple[Site, ...]]
    lint: LintReport

    def to_json(self) -> dict:
        """The report's ``verdict``, ``witness`` and ``lint``."""
        witness = None
        if self.witness is not None:
            chain = [{"var": var, "file": file, "line": line} for var, file, line in self.witness]
            witness = {"chain": chain}
        return {"verdict": self.outcome, "witness": witness, "lint": self.lint.to_json()}


@_collector_paused
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
