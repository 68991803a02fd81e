"""The structural diff of ``equivalence`` as a stratified Datalog program.

``equivalence.verify_equiv`` is the verdict path; :func:`equiv_rules`
states the same diff for export and for the cross-checks in the test
suite.  It imports from ``claimcheck.equivalence``, which loads this module
on first use.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from . import _collector_paused
from .datalog.values import SYMBOL, print_declaration
from .equivalence import Site, SitePairing, _columns, _is_entry_cond, _sides
from .facts.equiv import CODE1, CODE2, SIDE_FIELDS, SIDE_SORTS

if TYPE_CHECKING:
    from .datalog.ast import Program
    from .datalog.engine import RuleSet
    from .facts.equiv import EquivBundle, EquivSide

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


@_collector_paused
def equiv_rules(bundle: EquivBundle, pairing: SitePairing) -> Program:
    """The structural diff as Datalog over the bundle plus pairing facts.

    Evaluating the program derives one ``mismatch(kind, file, line, subject)``
    tuple per structural difference; the tuple set equals the projections of
    :func:`diff_structure` and :func:`check_watchvars`, and ``equivalent()``
    holds exactly when that union is empty.  The rules are parsed, validated
    and stratified once per process; each call returns a new program sharing
    the prepared rules, so evaluating it checks only its facts.
    """
    conds = {f.cond for side in (bundle.code1, bundle.code2) for f in side.controldeps}
    segments = [
        ("other", [(CODE1, CODE2), (CODE2, CODE1)]),
        ("entry_cond", [(c,) for c in sorted(conds) if _is_entry_cond(c)]),
    ]
    for here, _, half, tag in _sides(bundle, pairing):
        for name, predicate, fact_type in SIDE_FIELDS:
            rows = sorted(getattr(here, name))
            if fact_type is str:  # a 1-ary fact is its value
                rows = [(fact,) for fact in rows]
            segments.append((predicate, [(tag, *fact) for fact in rows]))
        segments += [
            ("pair_var", [(tag, x, half.var_map[x]) for x in sorted(half.var_map)]),
            ("pair_def_site", [
                (tag, x, *site, y, *image) for x, site, y, image in half.def_site_pairs
            ]),
            ("pair_exit", [(tag, *site, *image) for site, image in half.exit_pairs]),
            ("pair_line", [
                (tag, *site, *half.map_line(site)) for site in sorted(_fact_lines(here))
            ]),
        ]
    # Each code1 site of a paired definition or condition is compared at
    # itself, and each code2 site at the code1 site that it pairs with.
    sites = [(s1, s2) for _, s1, _, s2 in pairing.code1.def_site_pairs] + pairing.cond_site_pairs
    segments += [
        ("pair_cond_site", [s1 + s2 for s1, s2 in pairing.cond_site_pairs]),
        ("compared_at", [(CODE1, *s1, *s1) for s1 in sorted(dict(sites))]
         + [(CODE2, *s2, *s1) for s1, s2 in sites]),
    ]
    return _rule_set().program(segments)
