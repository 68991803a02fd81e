"""Structural equivalence of two programs over their dependence abstraction.

The check pairs variables (explicit ``varMap`` correspondences first, then
identical names), pairs each paired variable's definition sites by ordinal
occurrence, pairs condition/entry/exit sites, and then diffs the predicate
structure pointwise: a fact with no counterpart under the pairing, a paired
expression site whose operator or positional operands differ, a paired
definition whose control dependencies disagree, or a watch variable whose
reaching definitions at the mapped exit differ all yield mismatches.

Verdicts: Inconclusive when the sufficiency obligations fail (see
``lint_equiv``), NotEquivalent with the first mismatch as witness, else
Equivalent.  No algebraic reasoning is attempted: ``a + b`` and ``b + a``
are different computations here, and function symbols are compared by name
only.  The same diff is also emitted as a stratified Datalog program
(:func:`equiv_rules`) so the two implementations can check each other.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Collection, Hashable, Iterable, NamedTuple

from .datalog.ast import Program, Record, print_declaration
from .errors import ConflictingVarMapError
from .facts import (
    CODE1,
    CODE2,
    SIDE_FIELDS,
    SIDE_SORTS,
    EquivBundle,
    EquivSide,
    FlowFact,
    LintReport,
    SiteFact,
    fact_atom,
    fact_atoms,
    fact_text,
    lint_equiv,
)

if TYPE_CHECKING:
    from .datalog.engine import RuleSet

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"

Site = tuple[str, int]


def _is_entry_cond(cond: str) -> bool:
    return cond == "Entry" or cond.startswith("Entry:")


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


class SitePairing(Record):
    """Partial bijection between the two programs' names and sites."""

    __slots__ = _fields = (
        "var_pairs", "var_pairs_rev", "def_site_pairs", "cond_site_pairs", "entry_pairs",
        "exit_pairs", "line_map", "line_map_rev", "residue_defs_1", "residue_defs_2",
    )

    def __init__(self) -> None:
        self.var_pairs: dict[str, str] = {}
        self.var_pairs_rev: dict[str, str] = {}
        # (var1, site1, var2, site2), one entry per paired definition
        self.def_site_pairs: list[tuple[str, Site, str, Site]] = []
        self.cond_site_pairs: list[tuple[Site, Site]] = []
        self.entry_pairs: list[tuple[tuple[str, int], tuple[str, int]]] = []
        self.exit_pairs: list[tuple[Site, Site]] = []
        self.line_map: dict[Site, Site] = {}
        self.line_map_rev: dict[Site, Site] = {}
        self.residue_defs_1: list[tuple[str, Site]] = []
        self.residue_defs_2: list[tuple[str, Site]] = []

    def map_line(self, site: Site) -> Site:
        return self.line_map.get(site, site)

    def map_line_rev(self, site: Site) -> Site:
        return self.line_map_rev.get(site, site)

    def is_empty(self) -> bool:
        return not (self.var_pairs or self.def_site_pairs or self.exit_pairs)


def _index(pairs: Iterable[tuple[Hashable, Hashable]]) -> dict:
    """Each key with the set of values paired with it."""
    index: dict = {}
    for key, value in pairs:
        index.setdefault(key, set()).add(value)
    return index


def build_pairing(bundle: EquivBundle) -> SitePairing:
    pairing = SitePairing()
    vars1 = bundle.code1.variables()
    vars2 = bundle.code2.variables()

    for m in sorted(bundle.var_maps):
        existing = pairing.var_pairs.get(m.var1)
        if existing is not None and existing != m.var2:
            raise ConflictingVarMapError(m.var1)
        existing_rev = pairing.var_pairs_rev.get(m.var2)
        if existing_rev is not None and existing_rev != m.var1:
            raise ConflictingVarMapError(m.var2)
        pairing.var_pairs[m.var1] = m.var2
        pairing.var_pairs_rev[m.var2] = m.var1
    for name in sorted(vars1 & vars2):
        if name not in pairing.var_pairs and name not in pairing.var_pairs_rev:
            pairing.var_pairs[name] = name
            pairing.var_pairs_rev[name] = name

    paired_sites_1: set[tuple[str, Site]] = set()
    paired_sites_2: set[tuple[str, Site]] = set()
    def_sites_1, def_sites_2 = (
        _index((f.var, (f.file, f.line)) for f in side.defs)
        for side in (bundle.code1, bundle.code2)
    )
    for var1 in sorted(pairing.var_pairs):
        var2 = pairing.var_pairs[var1]
        sites1 = sorted(def_sites_1.get(var1, ()))
        sites2 = sorted(def_sites_2.get(var2, ()))
        for s1, s2 in zip(sites1, sites2):
            pairing.def_site_pairs.append((var1, s1, var2, s2))
            paired_sites_1.add((var1, s1))
            paired_sites_2.add((var2, s2))
    pairing.residue_defs_1, pairing.residue_defs_2 = (
        sorted(
            (var, site)
            for var, sites in def_sites.items()
            for site in sites
            if (var, site) not in paired
        )
        for def_sites, paired in ((def_sites_1, paired_sites_1), (def_sites_2, paired_sites_2))
    )

    cond_sites_1, cond_sites_2 = (
        _index((f.cond, (f.cond_file, f.cond_line)) for f in side.controldeps)
        for side in (bundle.code1, bundle.code2)
    )
    for cond1 in sorted(cond_sites_1):
        if _is_entry_cond(cond1) or cond1 not in pairing.var_pairs:
            continue
        cond2 = pairing.var_pairs[cond1]
        for s1, s2 in zip(
            sorted(cond_sites_1[cond1]), sorted(cond_sites_2.get(cond2, ()))
        ):
            pairing.cond_site_pairs.append((s1, s2))
    sites1 = sorted({(f.file, f.line) for f in bundle.code1.cond_with_expr})
    sites2 = sorted({(f.file, f.line) for f in bundle.code2.cond_with_expr})
    pairing.cond_site_pairs.extend(zip(sites1, sites2))

    # A map fact is its two (label or file, line) sites; without maps, the
    # lines (entries) or sites (exits) that both sides share pair.
    if bundle.entry_maps:
        pairing.entry_pairs = [(m[:2], m[2:]) for m in sorted(bundle.entry_maps)]
    else:
        lines = {f.line for f in bundle.code1.entries}
        lines &= {f.line for f in bundle.code2.entries}
        pairing.entry_pairs = [(("main", line), ("main", line)) for line in sorted(lines)]
    if bundle.exit_maps:
        pairing.exit_pairs = [(m[:2], m[2:]) for m in sorted(bundle.exit_maps)]
    else:
        sites = {(f.file, f.line) for f in bundle.code1.exits}
        sites &= {(f.file, f.line) for f in bundle.code2.exits}
        pairing.exit_pairs = [(site, site) for site in sorted(sites)]

    def register(site1: Site, site2: Site) -> None:
        pairing.line_map.setdefault(site1, site2)
        pairing.line_map_rev.setdefault(site2, site1)

    for _, s1, _, s2 in pairing.def_site_pairs:
        register(s1, s2)
    for s1, s2 in pairing.cond_site_pairs:
        register(s1, s2)
    for s1, s2 in pairing.exit_pairs:
        register(s1, s2)
    entry_files_1 = {f.file for f in bundle.code1.entries}
    entry_files_2 = {f.file for f in bundle.code2.entries}
    for (label1, line1), (label2, line2) in pairing.entry_pairs:
        for file1 in sorted(entry_files_1) or [label1]:
            for file2 in sorted(entry_files_2) or [label2]:
                register((file1, line1), (file2, line2))
    return pairing


# ---------------------------------------------------------------------------
# Mismatches
# ---------------------------------------------------------------------------


class Mismatch(NamedTuple):
    kind: str
    file: str
    line: int
    subject: str
    detail: str
    side1: tuple[str, ...] = ()
    side2: tuple[str, ...] = ()

    def project(self) -> tuple[str, str, int, str]:
        return (self.kind, self.file, self.line, self.subject)

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.kind, self.subject, self.detail)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "file": self.file,
            "line": self.line,
            "subject": self.subject,
            "detail": self.detail,
            "code1_facts": list(self.side1),
            "code2_facts": list(self.side2),
        }


def _facts_of(tag: str, *texts: str) -> dict:
    """The ``side1``/``side2`` argument that puts fact texts on ``tag``'s side."""
    return {"side1": texts} if tag == CODE1 else {"side2": texts}


def _sides(bundle: EquivBundle, pairing: SitePairing) -> tuple[tuple, tuple]:
    """Each side as (its facts, the other side's facts, its variable pairing,
    its site pairing, its tag), code1 first."""
    return (
        (bundle.code1, bundle.code2, pairing.var_pairs, pairing.map_line, CODE1),
        (bundle.code2, bundle.code1, pairing.var_pairs_rev, pairing.map_line_rev, CODE2),
    )


def _columns(fact_type) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The variable columns (``var``, ``*_var``) and the file columns
    (``file``, ``*_file``, each followed by its line) of a fact type."""
    names = getattr(fact_type, "_fields", ())
    return (
        tuple(i for i, name in enumerate(names) if name == "var" or name.endswith("_var")),
        tuple(i for i, name in enumerate(names) if name == "file" or name.endswith("_file")),
    )


# The obligation that each fact's image under the pairing is on the other
# side, one row per side field: the suffix of its mismatch kinds and the
# details of its unpaired and missing records, formatted with the side's
# tag, the unpaired var, the fact and its image as fact text, and the fact's
# first file and line.  Each row gains the field's predicate and the
# variable and file columns of its fact type from ``SIDE_FIELDS``.  A
# condWithExpr fact names no variable, so it has no unpaired record.
_POINTWISE = tuple(
    (field, predicate, suffix, *_columns(fact_type), unpaired, missing)
    for field, suffix, unpaired, missing in (
        ("uses", "use",
         "{tag} uses {var!r}, a variable with no pair",
         "{tag} has {fact} with no counterpart {image}"),
        ("flows", "flow",
         "{tag} flow mentions {var!r}, a variable with no pair",
         "{tag} has {fact} with no counterpart under the pairing"),
        ("def_with_expr", "defexpr",
         "{tag} has {fact} for a variable with no pair",
         "{tag} has {fact} with no counterpart"),
        ("cond_with_expr", "condexpr",
         None,
         "{tag} marks a complex condition at {file}:{line} with no counterpart"),
    )
    for name, predicate, fact_type in SIDE_FIELDS
    if name == field
)


def diff_structure(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    """Pointwise structural diff; empty means isomorphic modulo the pairing."""
    out: list[Mismatch] = []
    residues = (pairing.residue_defs_1, pairing.residue_defs_2)
    for (here, there, var_map, map_line, tag), residue in zip(_sides(bundle, pairing), residues):
        for var, (file, line) in residue:
            out.append(
                Mismatch(
                    "unpaired_def", file, line, var,
                    f"{tag} defines {var!r} at {file}:{line} with no paired "
                    "definition on the other side",
                    **_facts_of(tag, fact_text("def", SiteFact(var, file, line))),
                )
            )
        for field, predicate, suffix, variables, files, unpaired, missing in _POINTWISE:
            images = getattr(there, field)
            for f in sorted(getattr(here, field)):
                file, line = f[files[0]], f[files[0] + 1]
                names = [f[i] for i in variables if f[i] not in var_map]
                if names:
                    rendered = fact_text(predicate, f)
                    for var in dict.fromkeys(names):
                        out.append(
                            Mismatch(
                                "unpaired_" + suffix, file, line, var,
                                unpaired.format(tag=tag, var=var, fact=rendered),
                                **_facts_of(tag, rendered),
                            )
                        )
                    continue
                image = list(f)
                for i in variables:
                    image[i] = var_map[image[i]]
                for i in files:
                    image[i : i + 2] = map_line((image[i], image[i + 1]))
                if tuple(image) not in images:
                    rendered = fact_text(predicate, f)
                    out.append(
                        Mismatch(
                            "missing_" + suffix, file, line,
                            f[variables[0]] if variables else "-",
                            missing.format(
                                tag=tag, fact=rendered, image=fact_text(predicate, image),
                                file=file, line=line,
                            ),
                            **_facts_of(tag, rendered),
                        )
                    )

    out.extend(_diff_expressions(bundle, pairing))
    out.extend(_diff_controldeps(bundle, pairing))
    out.extend(_diff_constants(bundle, pairing))
    return sorted(out, key=Mismatch.sort_key)


def _diff_expressions(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    # Grouped by the code1 site so the comparison matches the generated
    # Datalog exactly: all code2 sites paired with one code1 site contribute
    # to a single agreement check.
    targets: dict[Site, set[Site]] = {}
    subjects: dict[Site, set[str]] = {}
    for var1, s1, _, s2 in pairing.def_site_pairs:
        targets.setdefault(s1, set()).add(s2)
        subjects.setdefault(s1, set()).add(var1)
    for s1, s2 in pairing.cond_site_pairs:
        targets.setdefault(s1, set()).add(s2)
        subjects.setdefault(s1, set()).add("-")

    unary1, unary2, binary1, binary2 = (
        _index(((f.file, f.line), f) for f in facts)
        for facts in (
            bundle.code1.unary, bundle.code2.unary,
            bundle.code1.binary, bundle.code2.binary,
        )
    )
    rename = pairing.var_pairs.get
    out = []
    for s1 in sorted(targets):
        s2_sites = targets[s1]
        u1 = sorted(unary1.get(s1, ()))
        b1 = sorted(binary1.get(s1, ()))
        u2 = sorted(g for s2 in s2_sites for g in unary2.get(s2, ()))
        b2 = sorted(g for s2 in s2_sites for g in binary2.get(s2, ()))
        if not (u1 or b1 or u2 or b2):
            continue
        # Every fact must meet one on the other side with the same operator
        # and paired operands: the operands of code1 renamed into code2's
        # names give the same set of keys on both sides.
        differs = {(f.op, rename(f.operand)) for f in u1} != {
            (g.op, g.operand) for g in u2
        } or {(f.op, rename(f.left), rename(f.right)) for f in b1} != {
            (g.op, g.left, g.right) for g in b2
        }
        if differs:
            render1 = tuple(fact_text("unaryFun", f) for f in u1) + tuple(
                fact_text("binaryFun", f) for f in b1
            )
            render2 = tuple(fact_text("unaryFun", f) for f in u2) + tuple(
                fact_text("binaryFun", f) for f in b2
            )
            for subject in sorted(subjects[s1]):
                out.append(
                    Mismatch(
                        "expr_mismatch", s1[0], s1[1], subject,
                        "expression structure differs at paired site "
                        f"{s1[0]}:{s1[1]}: "
                        f"{', '.join(render1) or 'nothing'} vs "
                        f"{', '.join(render2) or 'nothing'}",
                        side1=render1,
                        side2=render2,
                    )
                )
    return out


def _controldeps_agree(here: list[tuple], there: list[tuple]) -> bool:
    """Whether each (branch, condition, is entry) control dependency in
    ``here`` has one in ``there`` with the same branch and the same condition,
    or an entry condition if its own is one: any two entry conditions pair."""
    keys = {(branch, cond) for branch, cond, _ in there}
    entry_branches = {branch for branch, _, entry in there if entry}
    return all(
        (branch, cond) in keys or (entry and branch in entry_branches)
        for branch, cond, entry in here
    )


def _diff_controldeps(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    by_def1, by_def2 = (
        _index(((f.var, f.file, f.line), f) for f in side.controldeps)
        for side in (bundle.code1, bundle.code2)
    )
    rename = pairing.var_pairs.get
    out = []
    for var1, s1, var2, s2 in pairing.def_site_pairs:
        cd1 = sorted(by_def1.get((var1, *s1), ()))
        cd2 = sorted(by_def2.get((var2, *s2), ()))
        if not cd1 and not cd2:
            continue
        # code1's conditions renamed into code2's names
        here = [(f.branch, rename(f.cond), _is_entry_cond(f.cond)) for f in cd1]
        there = [(g.branch, g.cond, _is_entry_cond(g.cond)) for g in cd2]
        if _controldeps_agree(here, there) and _controldeps_agree(there, here):
            continue
        out.append(
            Mismatch(
                "controldep_mismatch", s1[0], s1[1], var1,
                f"control dependencies of {var1!r} at {s1[0]}:{s1[1]} and "
                f"{var2!r} at {s2[0]}:{s2[1]} disagree",
                side1=tuple(fact_text("controldep", f) for f in cd1),
                side2=tuple(fact_text("controldep", f) for f in cd2),
            )
        )
    return out


def _diff_constants(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    out = []
    for here, there, var_map, _, tag in _sides(bundle, pairing):
        for name in sorted(here.constants):
            paired = var_map.get(name)
            if paired in there.constants:
                if tag == CODE1 and paired != name:  # one record per pair
                    out.append(
                        Mismatch(
                            "constant_mismatch", "-", 0, name,
                            f"constants are compared by literal text: {name!r} vs "
                            f"{paired!r}",
                            side1=(fact_text("isConstantValue", name),),
                            side2=(fact_text("isConstantValue", paired),),
                        )
                    )
                continue
            out.append(
                Mismatch(
                    "constant_mismatch", "-", 0, name,
                    f"{tag} constant {name!r} has no paired variable"
                    if paired is None
                    else f"{tag} constant {name!r} pairs with {paired!r}, which is "
                    "not a constant on the other side",
                    **_facts_of(tag, fact_text("isConstantValue", name)),
                )
            )
    return out


def _unpaired_reaching(
    out: list[Mismatch], tag: str, var: str, exit_file: str, exit_line: int,
    reach: Collection[Site], there: Collection[Site], line_map: dict[Site, Site],
) -> None:
    """Append a record for each site in ``reach`` (the definitions of ``var``
    that reach one exit) whose paired site is not in ``there`` (those that
    reach the paired exit on the other side)."""
    for site in sorted(reach):
        if line_map.get(site, site) not in there:
            rendered = fact_text("flow", FlowFact(var, *site, var, exit_file, exit_line))
            out.append(
                Mismatch(
                    "reaching_defs_differ", site[0], site[1], var,
                    f"definition of {var!r} at {site[0]}:{site[1]} "
                    f"reaches the exit at {exit_file}:{exit_line} with no paired "
                    "reaching definition on the other side",
                    **_facts_of(tag, rendered),
                )
            )


def check_watchvars(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    """The two universally quantified watch-variable obligations.

    Every watch variable must have a paired watch variable on the other
    side, and each pair's reaching definitions at the mapped exits (the
    flows into the exit-line use) must correspond under the site pairing.
    """
    out: list[Mismatch] = []
    for here, there, var_map, _, tag in _sides(bundle, pairing):
        watched = {f.var for f in there.watch_vars}
        for f in here.watch_vars:  # no two of these records share a sort key
            if var_map.get(f.var) not in watched:
                out.append(
                    Mismatch(
                        "watchvar_unmatched", f.file, f.line, f.var,
                        f"{tag} watches {f.var!r} but the other side does not "
                        "watch its pair",
                        **_facts_of(tag, fact_text("watchVar", f)),
                    )
                )

    watched2 = {f.var for f in bundle.code2.watch_vars}
    pairs = {
        (f.var, pairing.var_pairs[f.var])
        for f in bundle.code1.watch_vars
        if pairing.var_pairs.get(f.var) in watched2
    }
    # (var, destination site) -> source sites of the var's flows into it,
    # for the variables of the watch pairs and the sites of the exit pairs
    reaching1, reaching2 = (
        _index(
            ((f.dst_var, f.dst_file, f.dst_line), (f.src_file, f.src_line))
            for f in side.flows
            if f.src_var == f.dst_var and f.dst_var in names and (f.dst_file, f.dst_line) in exits
        )
        for side, names, exits in (
            (bundle.code1, {v for v, _ in pairs}, {s for s, _ in pairing.exit_pairs}),
            (bundle.code2, {v for _, v in pairs}, {s for _, s in pairing.exit_pairs}),
        )
    )
    # Per watch pair and exit pair, code1's records come before code2's: the
    # sort key leaves out the side, so this order is the tie-break.
    for var1, var2 in sorted(pairs):
        for (ef1, e1), (ef2, e2) in pairing.exit_pairs:
            reach1 = reaching1.get((var1, ef1, e1), ())
            reach2 = reaching2.get((var2, ef2, e2), ())
            _unpaired_reaching(out, CODE1, var1, ef1, e1, reach1, reach2, pairing.line_map)
            _unpaired_reaching(out, CODE2, var2, ef2, e2, reach2, reach1, pairing.line_map_rev)
    return sorted(out, key=Mismatch.sort_key)


# ---------------------------------------------------------------------------
# Verdict
# ---------------------------------------------------------------------------


class EquivVerdict(NamedTuple):
    outcome: str
    witness: Mismatch | None
    obligations: tuple[str, ...]
    mismatches: tuple[Mismatch, ...]
    lint: LintReport

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "witness": self.witness.to_json() if self.witness else None,
            "obligations": list(self.obligations),
            "mismatch_count": len(self.mismatches),
            "lint": self.lint.to_json(),
        }


def all_mismatches(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    return diff_structure(bundle, pairing) + check_watchvars(bundle, pairing)


def verify_equiv(bundle: EquivBundle) -> EquivVerdict:
    lint = lint_equiv(bundle)
    if lint.errors:
        obligations = tuple(issue.message for issue in lint.errors)
        return EquivVerdict(INCONCLUSIVE, None, obligations, (), lint)
    mismatches = tuple(all_mismatches(bundle, build_pairing(bundle)))
    if mismatches:
        return EquivVerdict(NOT_EQUIVALENT, mismatches[0], (), mismatches, lint)
    return EquivVerdict(EQUIVALENT, None, (), (), lint)


# ---------------------------------------------------------------------------
# The same diff as a stratified Datalog program
# ---------------------------------------------------------------------------

_EQUIV_RULES = """
// Helpers over pairing facts.
paired_def_site1(x, f, l) :- pair_def_site(x, f, l, _, _, _).
paired_def_site2(y, f, l) :- pair_def_site(_, _, _, y, f, l).
var_paired1(x) :- pair_var(x, _).
var_paired2(y) :- pair_var(_, y).

mismatch("unpaired_def", f, l, x) :- def_c1(x, f, l), !paired_def_site1(x, f, l).
mismatch("unpaired_def", f, l, y) :- def_c2(y, f, l), !paired_def_site2(y, f, l).

mismatch("unpaired_use", f, l, x) :- use_c1(x, f, l), !var_paired1(x).
mismatch("unpaired_use", f, l, y) :- use_c2(y, f, l), !var_paired2(y).
mismatch("missing_use", f, l, x) :-
    use_c1(x, f, l), pair_var(x, y), pair_line(f, l, f2, l2), !use_c2(y, f2, l2).
mismatch("missing_use", f, l, y) :-
    use_c2(y, f, l), pair_var(x, y), pair_line_rev(f, l, f1, l1), !use_c1(x, f1, l1).

mismatch("unpaired_flow", fa, la, x) :- flow_c1(x, fa, la, y, fb, lb), !var_paired1(x).
mismatch("unpaired_flow", fa, la, y) :- flow_c1(x, fa, la, y, fb, lb), !var_paired1(y).
mismatch("unpaired_flow", fa, la, x) :- flow_c2(x, fa, la, y, fb, lb), !var_paired2(x).
mismatch("unpaired_flow", fa, la, y) :- flow_c2(x, fa, la, y, fb, lb), !var_paired2(y).
mismatch("missing_flow", fa, la, x) :-
    flow_c1(x, fa, la, y, fb, lb), pair_var(x, x2), pair_var(y, y2),
    pair_line(fa, la, fa2, la2), pair_line(fb, lb, fb2, lb2),
    !flow_c2(x2, fa2, la2, y2, fb2, lb2).
mismatch("missing_flow", fa, la, x) :-
    flow_c2(x, fa, la, y, fb, lb), pair_var(x1, x), pair_var(y1, y),
    pair_line_rev(fa, la, fa1, la1), pair_line_rev(fb, lb, fb1, lb1),
    !flow_c1(x1, fa1, la1, y1, fb1, lb1).

mismatch("unpaired_defexpr", f, l, x) :- defexpr_c1(x, f, l), !var_paired1(x).
mismatch("unpaired_defexpr", f, l, y) :- defexpr_c2(y, f, l), !var_paired2(y).
mismatch("missing_defexpr", f, l, x) :-
    defexpr_c1(x, f, l), pair_var(x, y), pair_line(f, l, f2, l2),
    !defexpr_c2(y, f2, l2).
mismatch("missing_defexpr", f, l, y) :-
    defexpr_c2(y, f, l), pair_var(x, y), pair_line_rev(f, l, f1, l1),
    !defexpr_c1(x, f1, l1).

mismatch("missing_condexpr", f, l, "-") :-
    condexpr_c1(f, l), pair_line(f, l, f2, l2), !condexpr_c2(f2, l2).
mismatch("missing_condexpr", f, l, "-") :-
    condexpr_c2(f, l), pair_line_rev(f, l, f1, l1), !condexpr_c1(f1, l1).

// Expression comparison at paired sites: same operator, positional operands.
// Each fact is checked on its own, keyed by the code1 site it is compared at.
site_pair(f1, l1, f2, l2) :- pair_def_site(_, f1, l1, _, f2, l2).
site_pair(f1, l1, f2, l2) :- pair_cond_site(f1, l1, f2, l2).
agree_u1(f1, l1, op, a) :-
    site_pair(f1, l1, f2, l2), unary_c1(op, a, f1, l1), unary_c2(op, b, f2, l2),
    pair_var(a, b).
agree_u2(f1, l1, op, b) :-
    site_pair(f1, l1, f2, l2), unary_c2(op, b, f2, l2), unary_c1(op, a, f1, l1),
    pair_var(a, b).
agree_b1(f1, l1, op, a1, a2) :-
    site_pair(f1, l1, f2, l2), binary_c1(op, a1, a2, f1, l1),
    binary_c2(op, b1, b2, f2, l2), pair_var(a1, b1), pair_var(a2, b2).
agree_b2(f1, l1, op, b1, b2) :-
    site_pair(f1, l1, f2, l2), binary_c2(op, b1, b2, f2, l2),
    binary_c1(op, a1, a2, f1, l1), pair_var(a1, b1), pair_var(a2, b2).
expr_differs(f1, l1) :-
    site_pair(f1, l1, f2, l2), unary_c1(op, a, f1, l1), !agree_u1(f1, l1, op, a).
expr_differs(f1, l1) :-
    site_pair(f1, l1, f2, l2), unary_c2(op, b, f2, l2), !agree_u2(f1, l1, op, b).
expr_differs(f1, l1) :-
    site_pair(f1, l1, f2, l2), binary_c1(op, a1, a2, f1, l1),
    !agree_b1(f1, l1, op, a1, a2).
expr_differs(f1, l1) :-
    site_pair(f1, l1, f2, l2), binary_c2(op, b1, b2, f2, l2),
    !agree_b2(f1, l1, op, b1, b2).
mismatch("expr_mismatch", f1, l1, x) :-
    pair_def_site(x, f1, l1, _, _, _), expr_differs(f1, l1).
mismatch("expr_mismatch", f1, l1, "-") :-
    pair_cond_site(f1, l1, _, _), expr_differs(f1, l1).

// Control dependencies at paired definition sites: paired condition
// variable and identical branch flag.
agree_cd1(x, f1, l1, c, br) :-
    pair_def_site(x, f1, l1, y, f2, l2), cdep_c1(x, f1, l1, c, br, _, _),
    cdep_c2(y, f2, l2, c2, br, _, _), cond_pair(c, c2).
agree_cd2(y, f2, l2, c, br) :-
    pair_def_site(x, f1, l1, y, f2, l2), cdep_c2(y, f2, l2, c, br, _, _),
    cdep_c1(x, f1, l1, c1, br, _, _), cond_pair(c1, c).
mismatch("controldep_mismatch", f1, l1, x) :-
    pair_def_site(x, f1, l1, y, f2, l2), cdep_c1(x, f1, l1, c, br, _, _),
    !agree_cd1(x, f1, l1, c, br).
mismatch("controldep_mismatch", f1, l1, x) :-
    pair_def_site(x, f1, l1, y, f2, l2), cdep_c2(y, f2, l2, c, br, _, _),
    !agree_cd2(y, f2, l2, c, br).

// Constants: compared by literal text.
mismatch("constant_mismatch", "-", 0, x) :- const_c1(x), !var_paired1(x).
mismatch("constant_mismatch", "-", 0, x) :-
    const_c1(x), pair_var(x, y), !const_c2(y).
mismatch("constant_mismatch", "-", 0, x) :-
    const_c1(x), pair_var(x, y), const_c2(y), !pair_var_same(x, y).
mismatch("constant_mismatch", "-", 0, y) :- const_c2(y), !var_paired2(y).
mismatch("constant_mismatch", "-", 0, y) :-
    const_c2(y), pair_var(x, y), !const_c1(x).

// Watch variables and their reaching definitions at mapped exits.
watch_pair(x, y) :- watch_c1(x, f1, l1), watch_c2(y, f2, l2), pair_var(x, y).
watch_has_pair1(x) :- watch_pair(x, _).
watch_has_pair2(y) :- watch_pair(_, y).
mismatch("watchvar_unmatched", f, l, x) :- watch_c1(x, f, l), !watch_has_pair1(x).
mismatch("watchvar_unmatched", f, l, y) :- watch_c2(y, f, l), !watch_has_pair2(y).
mismatch("reaching_defs_differ", sf, sl, x) :-
    watch_pair(x, y), pair_exit(ef1, e1, ef2, e2), flow_c1(x, sf, sl, x, ef1, e1),
    pair_line(sf, sl, sf2, sl2), !flow_c2(y, sf2, sl2, y, ef2, e2).
mismatch("reaching_defs_differ", sf, sl, y) :-
    watch_pair(x, y), pair_exit(ef1, e1, ef2, e2), flow_c2(y, sf, sl, y, ef2, e2),
    pair_line_rev(sf, sl, sf1, sl1), !flow_c1(x, sf1, sl1, x, ef1, e1).

has_mismatch() :- mismatch(_, _, _, _).
equivalent() :- !has_mismatch().
"""

# The rule relation of each side predicate; code1's facts carry the suffix
# ``_c1``, code2's ``_c2``.
_RULE_RELATIONS = {
    "entry": "entry",
    "isConstantValue": "const",
    "def": "def",
    "defWithExpr": "defexpr",
    "condWithExpr": "condexpr",
    "use": "use",
    "flow": "flow",
    "controldep": "cdep",
    "unaryFun": "unary",
    "binaryFun": "binary",
    "exit": "exit",
    "watchVar": "watch",
}
_SUFFIXES = ("c1", "c2")

# Declarations of the side relations come from the fact types; only the
# rule-local relations are written out.
_DECLS = "".join(
    print_declaration(f"{_RULE_RELATIONS[predicate]}_{suffix}", sorts) + "\n"
    for suffix in _SUFFIXES
    for predicate, sorts in SIDE_SORTS.items()
) + """
.decl pair_var(x: symbol, y: symbol)
.decl pair_var_same(x: symbol, y: symbol)
.decl cond_pair(x: symbol, y: symbol)
.decl pair_def_site(x: symbol, f1: symbol, l1: number, y: symbol, f2: symbol, l2: number)
.decl pair_cond_site(f1: symbol, l1: number, f2: symbol, l2: number)
.decl pair_line(f1: symbol, l1: number, f2: symbol, l2: number)
.decl pair_line_rev(f2: symbol, l2: number, f1: symbol, l1: number)
.decl pair_exit(f1: symbol, l1: number, f2: symbol, l2: number)
.decl mismatch(kind: symbol, f: symbol, l: number, subject: symbol)
.decl has_mismatch()
.decl equivalent()
"""


def _fact_lines(side: EquivSide) -> set[Site]:
    """Every (file, line) site that a fact of the side names."""
    lines: set[Site] = set()
    for name, _, fact_type in SIDE_FIELDS:
        files = _columns(fact_type)[1]
        for fact in getattr(side, name):
            for i in files:
                lines.add((fact[i], fact[i + 1]))
    return lines


@cache  # built on first use, not at import
def _rule_set() -> RuleSet:
    from .datalog.engine import prepare
    from .datalog.parser import parse_program

    return prepare(parse_program(_DECLS + _EQUIV_RULES, validate=False))


def equiv_rules(bundle: EquivBundle, pairing: SitePairing) -> Program:
    """The structural diff as Datalog over the bundle plus pairing facts.

    Evaluating the program derives one ``mismatch(kind, file, line, subject)``
    tuple per structural difference; the tuple set equals the projections of
    :func:`diff_structure` and :func:`check_watchvars`, and ``equivalent()``
    holds exactly when that union is empty.  The rules are parsed, validated
    and stratified once per process; each call returns a new program sharing
    the prepared rules, so evaluating it checks only its facts.
    """
    program = _rule_set().program()
    for side, suffix in zip((bundle.code1, bundle.code2), _SUFFIXES):
        relations = [(name, f"{_RULE_RELATIONS[p]}_{suffix}", t) for name, p, t in SIDE_FIELDS]
        program.facts.extend(fact_atoms(side, relations))
    for x in sorted(pairing.var_pairs):
        y = pairing.var_pairs[x]
        program.facts.append(fact_atom("pair_var", (x, y)))
        if x == y:
            program.facts.append(fact_atom("pair_var_same", (x, y)))
    conds1 = {f.cond for f in bundle.code1.controldeps}
    conds2 = {f.cond for f in bundle.code2.controldeps}
    cond_pairs = {
        (x, y) for x, y in pairing.var_pairs.items() if x in conds1 or y in conds2
    }
    for e1 in conds1:
        if _is_entry_cond(e1):
            for e2 in conds2:
                if _is_entry_cond(e2):
                    cond_pairs.add((e1, e2))
    for pair in sorted(cond_pairs):
        program.facts.append(fact_atom("cond_pair", pair))
    for var1, site1, var2, site2 in pairing.def_site_pairs:
        program.facts.append(fact_atom("pair_def_site", (var1, *site1, var2, *site2)))
    for site1, site2 in pairing.cond_site_pairs:
        program.facts.append(fact_atom("pair_cond_site", site1 + site2))
    for site1, site2 in pairing.exit_pairs:
        program.facts.append(fact_atom("pair_exit", site1 + site2))
    for site in sorted(_fact_lines(bundle.code1)):
        program.facts.append(fact_atom("pair_line", site + pairing.map_line(site)))
    for site in sorted(_fact_lines(bundle.code2)):
        program.facts.append(fact_atom("pair_line_rev", site + pairing.map_line_rev(site)))
    return program
