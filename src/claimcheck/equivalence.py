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

from itertools import compress
from operator import itemgetter, not_
from typing import Callable, Hashable, Iterable, NamedTuple

from . import _collector_paused, _lazy_names
from .datalog.values import Record
from .errors import ConflictingVarMapError
from .facts import LintReport, SiteFact, fact_text
from .facts.equiv import (
    _SITE,
    CODE1,
    CODE2,
    SIDE_FIELDS,
    EquivBundle,
    EquivSide,
    entry_files,
    lint_equiv,
)

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"

Site = tuple[str, int]

# The same diff as Datalog rules, loaded on first use (PEP 562).
_LAZY = {"equiv_rules": "equiv_datalog"}
__getattr__, __dir__ = _lazy_names(globals(), _LAZY)


def _is_entry_cond(cond: str) -> bool:
    return cond == "Entry" or cond.startswith("Entry:")


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


class SidePairing(Record):
    """One side's half of the pairing: its names and sites with their images
    on the other side."""

    __slots__ = _fields = ("var_map", "line_map", "def_site_pairs", "exit_pairs")

    def __init__(self) -> None:
        self.var_map: dict[str, str] = {}
        self.line_map: dict[Site, Site] = {}
        # (var, site, image var, image site), one entry per paired definition
        self.def_site_pairs: list[tuple[str, Site, str, Site]] = []
        self.exit_pairs: list[tuple[Site, Site]] = []

    def map_line(self, site: Site) -> Site:
        return self.line_map.get(site, site)


class SitePairing(Record):
    """Partial bijection between the two programs' names and sites, as one
    oriented half per side.  The condition site pairs are (code1 site, code2
    site) only: the expression comparison is grouped by the code1 site."""

    __slots__ = _fields = ("code1", "code2", "cond_site_pairs")

    def __init__(self) -> None:
        self.code1, self.code2 = SidePairing(), SidePairing()
        self.cond_site_pairs: list[tuple[Site, Site]] = []


def _index(pairs: Iterable[tuple[Hashable, Hashable]]) -> dict:
    """Each key with the set of values paired with it."""
    index: dict = {}
    for key, value in pairs:
        index.setdefault(key, set()).add(value)
    return index


@_collector_paused
def build_pairing(bundle: EquivBundle) -> SitePairing:
    pairing = SitePairing()
    one, two = pairing.code1, pairing.code2

    for m in sorted(bundle.var_maps):
        for half, var, image in ((one, m.var1, m.var2), (two, m.var2, m.var1)):
            if half.var_map.setdefault(var, image) != image:
                raise ConflictingVarMapError(var)
    for name in sorted(bundle.code1.variables() & bundle.code2.variables()):
        if name not in one.var_map and name not in two.var_map:
            one.var_map[name] = two.var_map[name] = name

    def_sites_1, def_sites_2 = (
        _index((f.var, (f.file, f.line)) for f in side.defs)
        for side in (bundle.code1, bundle.code2)
    )
    for var1 in sorted(one.var_map):
        var2 = one.var_map[var1]
        sites1 = sorted(def_sites_1.get(var1, ()))
        sites2 = sorted(def_sites_2.get(var2, ()))
        for s1, s2 in zip(sites1, sites2):
            one.def_site_pairs.append((var1, s1, var2, s2))
            two.def_site_pairs.append((var2, s2, var1, s1))

    cond_sites_1, cond_sites_2 = (
        _index((f.cond, (f.cond_file, f.cond_line)) for f in side.controldeps)
        for side in (bundle.code1, bundle.code2)
    )
    for cond1 in sorted(cond_sites_1):
        if _is_entry_cond(cond1) or cond1 not in one.var_map:
            continue
        cond2 = one.var_map[cond1]
        for s1, s2 in zip(
            sorted(cond_sites_1[cond1]), sorted(cond_sites_2.get(cond2, ()))
        ):
            pairing.cond_site_pairs.append((s1, s2))
    sites1 = sorted({(f.file, f.line) for f in bundle.code1.cond_with_expr})
    sites2 = sorted({(f.file, f.line) for f in bundle.code2.cond_with_expr})
    pairing.cond_site_pairs.extend(zip(sites1, sites2))

    # A map fact is its two (label or file, line) halves; without maps, the
    # (function, line) keys of entries or the sites of exits that both sides
    # share pair.
    if bundle.entry_maps:
        entry_pairs = [(m[:2], m[2:]) for m in sorted(bundle.entry_maps)]
    else:
        keys = {(f.function, f.line) for f in bundle.code1.entries}
        keys &= {(f.function, f.line) for f in bundle.code2.entries}
        entry_pairs = [(key, key) for key in sorted(keys)]
    if bundle.exit_maps:
        one.exit_pairs = [(m[:2], m[2:]) for m in sorted(bundle.exit_maps)]
    else:
        sites = {(f.file, f.line) for f in bundle.code1.exits}
        sites &= {(f.file, f.line) for f in bundle.code2.exits}
        one.exit_pairs = [(site, site) for site in sorted(sites)]
    two.exit_pairs = [(s2, s1) for s1, s2 in one.exit_pairs]

    def pair(site1: Site, site2: Site) -> None:
        one.line_map.setdefault(site1, site2)
        two.line_map.setdefault(site2, site1)

    for _, s1, _, s2 in one.def_site_pairs:
        pair(s1, s2)
    for s1, s2 in pairing.cond_site_pairs:
        pair(s1, s2)
    for s1, s2 in one.exit_pairs:
        pair(s1, s2)
    resolve1, resolve2 = entry_files(bundle.code1), entry_files(bundle.code2)
    for (label1, line1), (label2, line2) in entry_pairs:
        for file1 in resolve1(label1, line1):
            for file2 in resolve2(label2, line2):
                pair((file1, line1), (file2, line2))
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
    """Each side as (its facts, the other side's facts, its half of the
    pairing, its tag), code1 first."""
    return (
        (bundle.code1, bundle.code2, pairing.code1, CODE1),
        (bundle.code2, bundle.code1, pairing.code2, CODE2),
    )


def _transpose(rows: Iterable[tuple], width: int) -> list[tuple]:
    """The columns of ``rows``: ``width`` empty ones if there are none."""
    return list(zip(*rows)) or [()] * width


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
    # Each field's facts are mapped column by column; only those that yield
    # a record are sorted, so the records of a (side, field) come out in
    # fact order.
    out: list[Mismatch] = []
    for here, there, half, tag in _sides(bundle, pairing):
        paired = {(var, *site) for var, site, _, _ in half.def_site_pairs}
        for var, file, line in sorted(here.defs - paired):
            out.append(
                Mismatch(
                    "unpaired_def", file, line, var,
                    f"{tag} defines {var!r} at {file}:{line} with no paired "
                    "definition on the other side",
                    **_facts_of(tag, fact_text("def", SiteFact(var, file, line))),
                )
            )
        var_map, line_map = half.var_map, half.line_map
        for field, predicate, suffix, variables, files, unpaired, missing in _POINTWISE:
            facts = tuple(getattr(here, field))
            if not facts:
                continue
            # Each fact's image: an unpaired variable maps to None, and a
            # site without a pair to itself.
            columns = list(zip(*facts))
            for i in variables:
                columns[i] = map(var_map.get, columns[i])
            for i in files:
                sites = list(zip(columns[i], columns[i + 1]))
                columns[i : i + 2] = zip(*map(line_map.get, sites, sites))
            images = list(zip(*columns))
            found = map(getattr(there, field).__contains__, images)
            for f, image in sorted(compress(zip(facts, images), map(not_, found))):
                file, line = f[files[0]], f[files[0] + 1]
                rendered = fact_text(predicate, f)
                names = [f[i] for i in variables if image[i] is None]
                for var in dict.fromkeys(names):
                    out.append(
                        Mismatch(
                            "unpaired_" + suffix, file, line, var,
                            unpaired.format(tag=tag, var=var, fact=rendered),
                            **_facts_of(tag, rendered),
                        )
                    )
                if names:
                    continue
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


def _expression_keys(side: EquivSide, rename: Callable | None = None) -> dict[Site, set]:
    """Each site of ``side``'s unaryFun and binaryFun facts with the keys of
    those facts: the operator and the operands, renamed by ``rename``.  A
    unary key has two parts and a binary key three, so no two keys of
    different arity are equal."""
    keys: dict = {}
    for facts, arity in ((side.unary, 1), (side.binary, 2)):
        columns = _transpose(facts, arity + 3)
        operands = columns[1 : 1 + arity]
        if rename is not None:
            operands = [map(rename, column) for column in operands]
        for site, key in zip(zip(*columns[-2:]), zip(columns[0], *operands)):
            keys.setdefault(site, set()).add(key)
    return keys


def _rendered(unary: dict, binary: dict, sites: Iterable[Site]) -> tuple[str, ...]:
    """The unaryFun facts, then the binaryFun facts at ``sites``, each
    sorted, as fact text, from a side's facts of each kind by site."""
    return tuple(
        fact_text(predicate, f)
        for predicate, index in (("unaryFun", unary), ("binaryFun", binary))
        for f in sorted(f for site in sites for f in index.get(site, ()))
    )


def _diff_expressions(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    # Grouped by the code1 site so the comparison matches the generated
    # Datalog exactly: all code2 sites paired with one code1 site contribute
    # to a single agreement check.  Every fact must meet one on the other
    # side with the same operator and paired operands: the operands of code1
    # renamed into code2's names give the same set of keys on both sides.
    edges = [*map(itemgetter(1, 3), pairing.code1.def_site_pairs), *pairing.cond_site_pairs]
    here = _expression_keys(bundle.code1, pairing.code1.var_map.get)
    there = _expression_keys(bundle.code2)
    images: dict[Site, set] = {}  # each code1 site with the keys of its code2 sites
    for s1, s2 in edges:
        if s2 in there:
            images.setdefault(s1, set()).update(there[s2])
    compared = here.keys() & set(map(itemgetter(0), edges)) | images.keys()
    differing = {s1 for s1 in compared if here.get(s1) != images.get(s1)}
    if not differing:
        return []

    targets: dict[Site, set[Site]] = {}
    subjects: dict[Site, set[str]] = {}
    for var1, s1, _, s2 in pairing.code1.def_site_pairs:
        if s1 in differing:
            targets.setdefault(s1, set()).add(s2)
            subjects.setdefault(s1, set()).add(var1)
    for s1, s2 in pairing.cond_site_pairs:
        if s1 in differing:
            targets.setdefault(s1, set()).add(s2)
            subjects.setdefault(s1, set()).add("-")
    unary1, binary1, unary2, binary2 = (
        _index(zip(map(_SITE, facts), facts))
        for facts in (
            bundle.code1.unary, bundle.code1.binary, bundle.code2.unary, bundle.code2.binary,
        )
    )
    out = []
    for s1 in sorted(differing):
        render1 = _rendered(unary1, binary1, (s1,))
        render2 = _rendered(unary2, binary2, targets[s1])
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


def _controldep_columns(side: EquivSide) -> tuple[tuple, list, tuple, tuple]:
    """A side's control dependencies, with the (var, site) of each one's
    definition, its condition and its branch, in the same order."""
    facts = tuple(side.controldeps)
    var, file, line, cond, branch, _, _ = _transpose(facts, 7)
    return facts, list(zip(var, zip(file, line))), cond, branch


def _diff_controldeps(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    # code1's (def, branch, condition) triples, renamed into code2's names,
    # equal code2's at every paired definition whose control dependencies
    # agree without pairing two entry conditions.  Only the others need the
    # full check.
    pairs = pairing.code1.def_site_pairs
    image = dict(zip(map(itemgetter(0, 1), pairs), map(itemgetter(2, 3), pairs)))
    facts1, defs1, conds1, branches1 = _controldep_columns(bundle.code1)
    facts2, defs2, conds2, branches2 = _controldep_columns(bundle.code2)
    rename = pairing.code1.var_map.get
    ours = set(zip(map(image.get, defs1), branches1, map(rename, conds1)))
    theirs = set(zip(defs2, branches2, conds2))
    source = dict(zip(image.values(), image))  # each paired code2 def's code1 def
    checked = sorted(
        (source[d2], d2) for d2 in {d2 for d2, _, _ in ours ^ theirs} if d2 in source
    )
    if not checked:
        return []
    by_def1, by_def2 = _index(zip(defs1, facts1)), _index(zip(defs2, facts2))
    out = []
    for (var1, s1), (var2, s2) in checked:
        cd1 = sorted(by_def1.get((var1, s1), ()))
        cd2 = sorted(by_def2.get((var2, s2), ()))
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
    for here, there, half, tag in _sides(bundle, pairing):
        for name in sorted(here.constants):
            paired = half.var_map.get(name)
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


def check_watchvars(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    """The two universally quantified watch-variable obligations.

    Every watch variable must have a paired watch variable on the other
    side, and each pair's reaching definitions at the mapped exits (the
    flows into the exit-line use) must correspond under the site pairing.
    """
    out: list[Mismatch] = []
    for here, there, half, tag in _sides(bundle, pairing):
        var_map, paired_exits = half.var_map, _index(half.exit_pairs)
        watched = {f.var for f in there.watch_vars}
        partner = {}  # each watch variable with its paired watch variable
        for f in here.watch_vars:  # no two of these records share a sort key
            if var_map.get(f.var) in watched:
                partner[f.var] = var_map[f.var]
                continue
            out.append(
                Mismatch(
                    "watchvar_unmatched", f.file, f.line, f.var,
                    f"{tag} watches {f.var!r} but the other side does not "
                    "watch its pair",
                    **_facts_of(tag, fact_text("watchVar", f)),
                )
            )
        # A record for each flow of a paired watch variable into a paired
        # exit whose image, at an exit paired with that one, is not on the
        # other side.  code1's records come before code2's: the sort key
        # leaves out the side, so this order is the tie-break.
        flows = tuple(here.flows)
        for f in compress(flows, map(paired_exits.__contains__, map(itemgetter(4, 5), flows))):
            var = f.dst_var
            if f.src_var != var or var not in partner:
                continue
            image = (partner[var], *half.map_line((f.src_file, f.src_line)), partner[var])
            for other_exit in paired_exits[(f.dst_file, f.dst_line)]:
                if (*image, *other_exit) in there.flows:
                    continue
                out.append(
                    Mismatch(
                        "reaching_defs_differ", f.src_file, f.src_line, var,
                        f"definition of {var!r} at {f.src_file}:{f.src_line} reaches the "
                        f"exit at {f.dst_file}:{f.dst_line} with no paired reaching "
                        "definition on the other side",
                        **_facts_of(tag, fact_text("flow", f)),
                    )
                )
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
        """The report's ``verdict``, ``witness`` and ``lint``: the missing
        obligations of an Inconclusive verdict, the first mismatch of a
        NotEquivalent one."""
        witness = None
        if self.outcome == INCONCLUSIVE:
            witness = {"missing_obligations": list(self.obligations)}
        elif self.witness is not None:
            witness = self.witness.to_json()
        return {"verdict": self.outcome, "witness": witness, "lint": self.lint.to_json()}


def all_mismatches(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    return diff_structure(bundle, pairing) + check_watchvars(bundle, pairing)


@_collector_paused
def verify_equiv(bundle: EquivBundle) -> EquivVerdict:
    lint = lint_equiv(bundle)
    if lint.errors:
        obligations = tuple(issue.message for issue in lint.errors)
        return EquivVerdict(INCONCLUSIVE, None, obligations, (), lint)
    mismatches = tuple(all_mismatches(bundle, build_pairing(bundle)))
    if mismatches:
        return EquivVerdict(NOT_EQUIVALENT, mismatches[0], (), mismatches, lint)
    return EquivVerdict(EQUIVALENT, None, (), (), lint)
