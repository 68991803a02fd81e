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
from typing import TYPE_CHECKING, Hashable, Iterable, NamedTuple

from .datalog.ast import SYMBOL, Atom, Program, Record, print_declaration
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
    entry_files,
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
    """Each side as (its facts, the other side's facts, its half of the
    pairing, its tag), code1 first."""
    return (
        (bundle.code1, bundle.code2, pairing.code1, CODE1),
        (bundle.code2, bundle.code1, pairing.code2, CODE2),
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
    # Each loop scans its facts unsorted and sorts only those that yield a
    # record, so the records of a (side, field) come out in fact order.
    out: list[Mismatch] = []
    for here, there, half, tag in _sides(bundle, pairing):
        paired = {(var, *site) for var, site, _, _ in half.def_site_pairs}
        for var, file, line in sorted(f for f in here.defs if f not in paired):
            out.append(
                Mismatch(
                    "unpaired_def", file, line, var,
                    f"{tag} defines {var!r} at {file}:{line} with no paired "
                    "definition on the other side",
                    **_facts_of(tag, fact_text("def", SiteFact(var, file, line))),
                )
            )
        var_map, map_line = half.var_map, half.map_line
        for field, predicate, suffix, variables, files, unpaired, missing in _POINTWISE:
            images = getattr(there, field)
            # fact -> its image, or None when it names an unpaired variable
            reported: dict[tuple, list | None] = {}
            for f in getattr(here, field):
                if any(f[i] not in var_map for i in variables):
                    reported[f] = None
                    continue
                image = list(f)
                for i in variables:
                    image[i] = var_map[image[i]]
                for i in files:
                    image[i : i + 2] = map_line((image[i], image[i + 1]))
                if tuple(image) not in images:
                    reported[f] = image
            for f in sorted(reported):
                file, line = f[files[0]], f[files[0] + 1]
                rendered = fact_text(predicate, f)
                image = reported[f]
                if image is None:
                    names = [f[i] for i in variables if f[i] not in var_map]
                    for var in dict.fromkeys(names):
                        out.append(
                            Mismatch(
                                "unpaired_" + suffix, file, line, var,
                                unpaired.format(tag=tag, var=var, fact=rendered),
                                **_facts_of(tag, rendered),
                            )
                        )
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


def _diff_expressions(bundle: EquivBundle, pairing: SitePairing) -> list[Mismatch]:
    # Grouped by the code1 site so the comparison matches the generated
    # Datalog exactly: all code2 sites paired with one code1 site contribute
    # to a single agreement check.
    targets: dict[Site, set[Site]] = {}
    subjects: dict[Site, set[str]] = {}
    for var1, s1, _, s2 in pairing.code1.def_site_pairs:
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
    rename = pairing.code1.var_map.get
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
    rename = pairing.code1.var_map.get
    out = []
    for var1, s1, var2, s2 in pairing.code1.def_site_pairs:
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
        for f in here.flows:
            var, exit_site = f.dst_var, (f.dst_file, f.dst_line)
            if f.src_var != var or var not in partner or exit_site not in paired_exits:
                continue
            image = (partner[var], *half.map_line((f.src_file, f.src_line)), partner[var])
            for other_exit in paired_exits[exit_site]:
                if FlowFact(*image, *other_exit) in there.flows:
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

# Each side relation is its vocabulary predicate with a leading side column,
# "code1" or "code2"; other(s, t) names the other side t of each side s.
# pair_var, pair_def_site, pair_line and pair_exit hold each side's pairing
# into the other side; the expression and control-dependency comparisons
# are keyed by the code1 site, as the direct diff groups them.  A rule
# starts with other(s, t) where t must be bound before the other side's
# facts are probed.
_EQUIV_RULES = """
mismatch("unpaired_def", f, l, x) :- def(s, x, f, l), !pair_def_site(s, x, f, l, _, _, _).

mismatch("unpaired_use", f, l, x) :- use(s, x, f, l), !pair_var(s, x, _).
mismatch("missing_use", f, l, x) :-
    use(s, x, f, l), pair_var(s, x, y), pair_line(s, f, l, g, m), other(s, t),
    !use(t, y, g, m).

mismatch("unpaired_flow", fa, la, x) :- flow(s, x, fa, la, _, _, _), !pair_var(s, x, _).
mismatch("unpaired_flow", fa, la, y) :- flow(s, _, fa, la, y, _, _), !pair_var(s, y, _).
mismatch("missing_flow", fa, la, x) :-
    flow(s, x, fa, la, y, fb, lb), pair_var(s, x, x2), pair_var(s, y, y2),
    pair_line(s, fa, la, ga, ma), pair_line(s, fb, lb, gb, mb), other(s, t),
    !flow(t, x2, ga, ma, y2, gb, mb).

mismatch("unpaired_defexpr", f, l, x) :- defWithExpr(s, x, f, l), !pair_var(s, x, _).
mismatch("missing_defexpr", f, l, x) :-
    defWithExpr(s, x, f, l), pair_var(s, x, y), pair_line(s, f, l, g, m), other(s, t),
    !defWithExpr(t, y, g, m).

mismatch("missing_condexpr", f, l, "-") :-
    condWithExpr(s, f, l), pair_line(s, f, l, g, m), other(s, t), !condWithExpr(t, g, m).

// Expression comparison at paired sites: same operator, positional operands.
// compared_at(s, f, l, f1, l1): the site (f, l) of side s is compared at the
// code1 site (f1, l1).  Each fact must meet one with paired operands at a
// site of the other side compared at the same code1 site.
agree_unary(f1, l1, s, op, a) :-
    other(s, t), compared_at(s, f, l, f1, l1), unaryFun(s, op, a, f, l), pair_var(s, a, b),
    compared_at(t, g, m, f1, l1), unaryFun(t, op, b, g, m).
agree_binary(f1, l1, s, op, a, b) :-
    other(s, t), compared_at(s, f, l, f1, l1), binaryFun(s, op, a, b, f, l),
    pair_var(s, a, c), pair_var(s, b, d), compared_at(t, g, m, f1, l1),
    binaryFun(t, op, c, d, g, m).
expr_differs(f1, l1) :-
    compared_at(s, f, l, f1, l1), unaryFun(s, op, a, f, l), !agree_unary(f1, l1, s, op, a).
expr_differs(f1, l1) :-
    compared_at(s, f, l, f1, l1), binaryFun(s, op, a, b, f, l),
    !agree_binary(f1, l1, s, op, a, b).
mismatch("expr_mismatch", f, l, x) :-
    pair_def_site("code1", x, f, l, _, _, _), expr_differs(f, l).
mismatch("expr_mismatch", f, l, "-") :- pair_cond_site(f, l, _, _), expr_differs(f, l).

// Control dependencies at paired definition sites: the same branch flag and
// paired condition variables, or two entry conditions.
agree_cd(s, x, f, l, c, br) :-
    other(s, t), pair_def_site(s, x, f, l, y, g, m), controldep(s, x, f, l, c, br, _, _),
    pair_var(s, c, d), controldep(t, y, g, m, d, br, _, _).
agree_cd(s, x, f, l, c, br) :-
    other(s, t), pair_def_site(s, x, f, l, y, g, m), controldep(s, x, f, l, c, br, _, _),
    entry_cond(c), controldep(t, y, g, m, d, br, _, _), entry_cond(d).
mismatch("controldep_mismatch", f, l, x) :-
    pair_def_site("code1", x, f, l, _, _, _), controldep("code1", x, f, l, c, br, _, _),
    !agree_cd("code1", x, f, l, c, br).
mismatch("controldep_mismatch", f, l, x) :-
    pair_def_site("code1", x, f, l, y, g, m), controldep("code2", y, g, m, c, br, _, _),
    !agree_cd("code2", y, g, m, c, br).

// Constants: compared by literal text.
mismatch("constant_mismatch", "-", 0, x) :- isConstantValue(s, x), !pair_var(s, x, _).
mismatch("constant_mismatch", "-", 0, x) :-
    isConstantValue(s, x), pair_var(s, x, y), other(s, t), !isConstantValue(t, y).
mismatch("constant_mismatch", "-", 0, x) :-
    isConstantValue("code1", x), pair_var("code1", x, y), isConstantValue("code2", y),
    !pair_var("code1", x, x).

// Watch variables and their reaching definitions at mapped exits.
watch_pair(s, x, y) :-
    watchVar(s, x, _, _), pair_var(s, x, y), other(s, t), watchVar(t, y, _, _).
mismatch("watchvar_unmatched", f, l, x) :- watchVar(s, x, f, l), !watch_pair(s, x, _).
mismatch("reaching_defs_differ", f, l, x) :-
    watch_pair(s, x, y), pair_exit(s, ef, el, eg, em), flow(s, x, f, l, x, ef, el),
    pair_line(s, f, l, g, m), other(s, t), !flow(t, y, g, m, y, eg, em).

has_mismatch() :- mismatch(_, _, _, _).
equivalent() :- !has_mismatch().
"""

# Declarations of the side relations come from the fact types; only the
# pairing and rule-local relations are written out.
_DECLS = "".join(
    print_declaration(predicate, (SYMBOL, *sorts)) + "\n"
    for predicate, sorts in SIDE_SORTS.items()
) + """
.decl other(s: symbol, t: symbol)
.decl entry_cond(c: symbol)
.decl pair_var(s: symbol, x: symbol, y: symbol)
.decl pair_def_site(s: symbol, x: symbol, f: symbol, l: number, y: symbol, g: symbol, m: number)
.decl pair_cond_site(f1: symbol, l1: number, f2: symbol, l2: number)
.decl compared_at(s: symbol, f: symbol, l: number, f1: symbol, l1: number)
.decl pair_line(s: symbol, f: symbol, l: number, g: symbol, m: number)
.decl pair_exit(s: symbol, f: symbol, l: number, g: symbol, m: number)
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
    facts = program.facts
    facts += [Atom("other", (CODE1, CODE2)), Atom("other", (CODE2, CODE1))]
    conds = {f.cond for side in (bundle.code1, bundle.code2) for f in side.controldeps}
    facts += [Atom("entry_cond", (c,)) for c in sorted(conds) if _is_entry_cond(c)]
    for here, _, half, tag in _sides(bundle, pairing):
        facts.extend(fact_atoms(here, SIDE_FIELDS, tag))
        facts += [Atom("pair_var", (tag, x, half.var_map[x])) for x in sorted(half.var_map)]
        facts += [
            Atom("pair_def_site", (tag, x, *site, y, *image))
            for x, site, y, image in half.def_site_pairs
        ]
        facts += [Atom("pair_exit", (tag, *site, *image)) for site, image in half.exit_pairs]
        facts += [
            Atom("pair_line", (tag, *site, *half.map_line(site)))
            for site in sorted(_fact_lines(here))
        ]
    facts += [Atom("pair_cond_site", s1 + s2) for s1, s2 in pairing.cond_site_pairs]
    # Each code1 site of a paired definition or condition is compared at
    # itself, and each code2 site at the code1 site that it pairs with.
    sites = [(s1, s2) for _, s1, _, s2 in pairing.code1.def_site_pairs] + pairing.cond_site_pairs
    facts += [Atom("compared_at", (CODE1, *s1, *s1)) for s1 in sorted(dict(sites))]
    facts += [Atom("compared_at", (CODE2, *s2, *s1)) for s1, s2 in sites]
    return program
