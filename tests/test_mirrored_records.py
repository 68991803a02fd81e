"""The full records of the checks that apply to each side of a bundle.

Each record is pinned from code1 and from code2 (the second through
``swapped()``), with its order where two records share a sort key.
"""

import pytest

from claimcheck.equivalence import (
    INCONCLUSIVE,
    Mismatch,
    build_pairing,
    check_watchvars,
    diff_structure,
    verify_equiv,
)
from claimcheck.facts import (
    CondExprFact,
    EntryMapFact,
    EquivBundle,
    EquivSide,
    ExitFact,
    ExitMapFact,
    FlowFact,
    LintIssue,
    SiteFact,
    VarMapFact,
    lint_equiv,
    load_equiv_bundle_text,
)


def _site(var, line):
    return SiteFact(var, "main.cpp", line)


# code1 defines x at 2 and 4, code2 at 4 and 7: the ordinal pairing maps
# 2 -> 4 and 4 -> 7, so the reaching definition at line 4 on each side has
# no paired one on the other.  u and k are defined on one side only; w and v
# are watched on one side only.  Constants: 0 and 7 have no pair, k and u
# pair with a non-constant, and the varMap pairs 1 with 2.
_BUNDLE = EquivBundle(
    EquivSide(
        defs=frozenset({_site("x", 2), _site("x", 4), _site("u", 3)}),
        flows=frozenset({FlowFact("x", "main.cpp", 4, "x", "main.cpp", 9)}),
        watch_vars=frozenset({_site("x", 9), _site("w", 9)}),
        constants=frozenset({"0", "1", "k"}),
        exits=frozenset({ExitFact("main.cpp", 9)}),
    ),
    EquivSide(
        defs=frozenset({_site("x", 4), _site("x", 7), _site("k", 5)}),
        flows=frozenset({FlowFact("x", "main.cpp", 4, "x", "main.cpp", 9)}),
        watch_vars=frozenset({_site("x", 9), _site("v", 9)}),
        constants=frozenset({"2", "7", "u"}),
        exits=frozenset({ExitFact("main.cpp", 9)}),
    ),
    var_maps=frozenset({VarMapFact("1", "main.cpp", 0, "2", "main.cpp", 0)}),
)


def _records(bundle, kind):
    pairing = build_pairing(bundle)
    return [
        m
        for m in diff_structure(bundle, pairing) + check_watchvars(bundle, pairing)
        if m.kind == kind
    ]


def _unpaired_def(tag, var, line, **side):
    return Mismatch(
        "unpaired_def", "main.cpp", line, var,
        f"{tag} defines {var!r} at main.cpp:{line} with no paired definition on "
        "the other side",
        **side,
    )


def test_unpaired_def_records_from_each_side():
    u, k = ('def("u", "main.cpp", 3)',), ('def("k", "main.cpp", 5)',)
    assert _records(_BUNDLE, "unpaired_def") == [
        _unpaired_def("code1", "u", 3, side1=u),
        _unpaired_def("code2", "k", 5, side2=k),
    ]
    assert _records(_BUNDLE.swapped(), "unpaired_def") == [
        _unpaired_def("code2", "u", 3, side2=u),
        _unpaired_def("code1", "k", 5, side1=k),
    ]


def _unmatched(tag, var, **side):
    return Mismatch(
        "watchvar_unmatched", "main.cpp", 9, var,
        f"{tag} watches {var!r} but the other side does not watch its pair",
        **side,
    )


def test_watchvar_unmatched_records_from_each_side():
    v, w = ('watchVar("v", "main.cpp", 9)',), ('watchVar("w", "main.cpp", 9)',)
    assert _records(_BUNDLE, "watchvar_unmatched") == [
        _unmatched("code2", "v", side2=v),
        _unmatched("code1", "w", side1=w),
    ]
    assert _records(_BUNDLE.swapped(), "watchvar_unmatched") == [
        _unmatched("code1", "v", side1=v),
        _unmatched("code2", "w", side2=w),
    ]


@pytest.mark.parametrize("swap", [False, True], ids=["bundle", "swapped"])
def test_reaching_defs_records_keep_code1_before_code2(swap):
    # The two records share their sort key, so only the order in which the
    # check emits them tells them apart: code1's comes first.
    bundle = _BUNDLE.swapped() if swap else _BUNDLE
    flow = ('flow("x", "main.cpp", 4, "x", "main.cpp", 9)',)
    detail = (
        "definition of 'x' at main.cpp:4 reaches the exit at main.cpp:9 with no "
        "paired reaching definition on the other side"
    )
    assert _records(bundle, "reaching_defs_differ") == [
        Mismatch("reaching_defs_differ", "main.cpp", 4, "x", detail, side1=flow),
        Mismatch("reaching_defs_differ", "main.cpp", 4, "x", detail, side2=flow),
    ]


def _const(name):
    return (f'isConstantValue("{name}")',)


def test_constant_mismatch_records_from_each_side():
    def record(subject, detail, **side):
        return Mismatch("constant_mismatch", "-", 0, subject, detail, **side)

    assert _records(_BUNDLE, "constant_mismatch") == [
        record("0", "code1 constant '0' has no paired variable", side1=_const("0")),
        record(
            "1", "constants are compared by literal text: '1' vs '2'",
            side1=_const("1"), side2=_const("2"),
        ),
        record("7", "code2 constant '7' has no paired variable", side2=_const("7")),
        record(
            "k", "code1 constant 'k' pairs with 'k', which is not a constant on "
            "the other side",
            side1=_const("k"),
        ),
        record(
            "u", "code2 constant 'u' pairs with 'u', which is not a constant on "
            "the other side",
            side2=_const("u"),
        ),
    ]
    # The literal-text check runs from code1 only: swapped, it reports 2 vs 1.
    assert _records(_BUNDLE.swapped(), "constant_mismatch") == [
        record("0", "code2 constant '0' has no paired variable", side2=_const("0")),
        record(
            "2", "constants are compared by literal text: '2' vs '1'",
            side1=_const("2"), side2=_const("1"),
        ),
        record("7", "code1 constant '7' has no paired variable", side1=_const("7")),
        record(
            "k", "code2 constant 'k' pairs with 'k', which is not a constant on "
            "the other side",
            side2=_const("k"),
        ),
        record(
            "u", "code1 constant 'u' pairs with 'u', which is not a constant on "
            "the other side",
            side1=_const("u"),
        ),
    ]


def _bundle_text(code1, code2, correspondence):
    return (
        f"=== code1 ===\n{code1}\n=== code2 ===\n{code2}\n"
        f"=== correspondence ===\n{correspondence}\n"
    )


_ONE_ENTRY = 'exit(9).\nentry("main", 1).'
_TWO_ENTRIES = 'exit(8).\nentry("main", 1).\nentry("main", 4).'


def _exit_map(line1, line2, file1="main.cpp"):
    return repr(ExitMapFact(file1, line1, "main.cpp", line2))


def _entry_map(line1, line2, label2="main"):
    return repr(EntryMapFact("main", line1, label2, line2))


_EXIT_LINES_DIFFER = LintIssue(
    "exitmap-missing", "exit lines differ ([9] vs [8]) and no exitMap is supplied", ""
)
_ENTRY_LINES_DIFFER = LintIssue(
    "entrymap-missing", "entry lines differ ([1] vs [1, 4]) and no entryMap is supplied", ""
)


def _assert_lint_errors(text, errors):
    """A bundle whose maps dangle loads; its lint reports, in order, exactly
    ``errors``, and its verdict is Inconclusive."""
    bundle = load_equiv_bundle_text(text)
    assert lint_equiv(bundle).errors == errors
    assert verify_equiv(bundle).outcome == INCONCLUSIVE


@pytest.mark.parametrize(
    "code1, code2, correspondence, errors",
    [
        (_ONE_ENTRY, _TWO_ENTRIES, "exitMap(7, 8).", [
            LintIssue("exitmap-dangling", "exitMap cites line 7 on code1 but exits are at [9]",
                      _exit_map(7, 8)),
            _ENTRY_LINES_DIFFER,
        ]),
        (_ONE_ENTRY, _TWO_ENTRIES, "exitMap(9, 7).", [
            LintIssue("exitmap-dangling", "exitMap cites line 7 on code2 but exits are at [8]",
                      _exit_map(9, 7)),
            _ENTRY_LINES_DIFFER,
        ]),
        # two maps dangle, each on one side: both are reported, in sorted order
        (_ONE_ENTRY, _TWO_ENTRIES, "exitMap(9, 6).\nexitMap(7, 8).", [
            LintIssue("exitmap-dangling", "exitMap cites line 7 on code1 but exits are at [9]",
                      _exit_map(7, 8)),
            LintIssue("exitmap-dangling", "exitMap cites line 6 on code2 but exits are at [8]",
                      _exit_map(9, 6)),
            _ENTRY_LINES_DIFFER,
        ]),
        # both sides dangle: code1 before code2, and exitMap before entryMap
        (_ONE_ENTRY, _TWO_ENTRIES, 'exitMap(7, 7).\nentryMap("main", 3, "main", 3).', [
            LintIssue("exitmap-dangling", "exitMap cites line 7 on code1 but exits are at [9]",
                      _exit_map(7, 7)),
            LintIssue("exitmap-dangling", "exitMap cites line 7 on code2 but exits are at [8]",
                      _exit_map(7, 7)),
            LintIssue("entrymap-dangling",
                      "entryMap cites line 3 on code1 but entries are at [1]", _entry_map(3, 3)),
            LintIssue("entrymap-dangling",
                      "entryMap cites line 3 on code2 but entries are at [1, 4]",
                      _entry_map(3, 3)),
        ]),
        (_ONE_ENTRY, _TWO_ENTRIES, 'entryMap("main", 2, "main", 1).', [
            _EXIT_LINES_DIFFER,
            LintIssue("entrymap-dangling",
                      "entryMap cites line 2 on code1 but entries are at [1]", _entry_map(2, 1)),
        ]),
        (_ONE_ENTRY, _TWO_ENTRIES, 'entryMap("main", 1, "main", 2).', [
            _EXIT_LINES_DIFFER,
            LintIssue("entrymap-dangling",
                      "entryMap cites line 2 on code2 but entries are at [1, 4]",
                      _entry_map(1, 2)),
        ]),
    ],
)
def test_dangling_map_reference_messages(code1, code2, correspondence, errors):
    _assert_lint_errors(_bundle_text(code1, code2, correspondence), errors)


@pytest.mark.parametrize(
    "correspondence, errors",
    [
        ('exitMap("lib.cpp", 9, "main.cpp", 8).', [
            LintIssue("exitmap-dangling", "exitMap cites 'lib.cpp' at line 9 on code1 but no "
                      "exit fact at that line names it", _exit_map(9, 8, file1="lib.cpp")),
            _ENTRY_LINES_DIFFER,
        ]),
        ('entryMap("main", 1, "helper", 4).', [
            _EXIT_LINES_DIFFER,
            LintIssue("entrymap-dangling", "entryMap cites 'helper' at line 4 on code2 but no "
                      "entry fact at that line names it", _entry_map(1, 4, label2="helper")),
        ]),
    ],
    ids=["exit", "entry"],
)
def test_map_naming_no_fact_at_a_cited_line_dangles(correspondence, errors):
    _assert_lint_errors(_bundle_text(_ONE_ENTRY, _TWO_ENTRIES, correspondence), errors)


def test_entry_map_label_names_a_function_or_a_file():
    code1 = 'exit(9).\nentry("main", 1).\nentry("helper", "lib.cpp", 1).'
    for label in ("helper", "lib.cpp"):
        bundle = load_equiv_bundle_text(
            _bundle_text(code1, _TWO_ENTRIES, f'entryMap("{label}", 1, "main", 4).')
        )
        assert build_pairing(bundle).code1.line_map[("lib.cpp", 1)] == ("main.cpp", 4)


@pytest.mark.parametrize(
    "code1, code2, correspondence",
    [
        ("exit(9).", _TWO_ENTRIES, 'entryMap("main", 5, "main", 1).'),
        (_ONE_ENTRY, "exit(8).", 'entryMap("main", 1, "main", 5).'),
    ],
    ids=["code1", "code2"],
)
def test_entry_map_against_a_side_without_entries_is_not_dangling(
    code1, code2, correspondence
):
    bundle = load_equiv_bundle_text(_bundle_text(code1, code2, correspondence))
    assert len(bundle.entry_maps) == 1


def test_missing_map_lint_messages():
    report = lint_equiv(
        load_equiv_bundle_text(
            _bundle_text(_ONE_ENTRY, 'exit(8).\nentry("main", 2).', "")
        )
    )
    assert [i for i in report.errors if i.code.endswith("map-missing")] == [
        LintIssue(
            "exitmap-missing",
            "exit lines differ ([9] vs [8]) and no exitMap is supplied",
            "",
        ),
        LintIssue(
            "entrymap-missing",
            "entry lines differ ([1] vs [2]) and no entryMap is supplied",
            "",
        ),
    ]


# The pointwise obligations: x and y pair by name and their definitions pair
# 2 -> 3 and 4 -> 5; p and r are code1's only, q is code2's only.  The
# condWithExpr sites pair by sorted position (4 -> 3, 10 -> 11), but the
# definition pairs claim lines 4 and 3 first, so each side's first site maps
# onto a line the other side does not mark.
def _flow(src, src_line, dst, dst_line):
    return FlowFact(src, "main.cpp", src_line, dst, "main.cpp", dst_line)


def _cond(line):
    return CondExprFact("main.cpp", line)


_POINTWISE_BUNDLE = EquivBundle(
    EquivSide(
        defs=frozenset({_site("x", 2), _site("y", 4)}),
        uses=frozenset({_site("x", 2), _site("y", 4), _site("p", 6)}),
        flows=frozenset({
            _flow("x", 2, "y", 4),  # its image is on code2
            _flow("y", 4, "x", 7),
            _flow("x", 2, "p", 6),  # dst only unpaired
            _flow("p", 6, "x", 2),  # src only unpaired
            _flow("p", 6, "r", 6),  # both unpaired: one record each
            _flow("p", 6, "p", 8),  # the same variable at both ends: one record
            _flow("p", 9, "y", 4),  # two flows from one site whose records tie
            _flow("p", 9, "x", 2),
        }),
        def_with_expr=frozenset({_site("x", 2), _site("y", 4), _site("p", 6)}),
        cond_with_expr=frozenset({_cond(4), _cond(10)}),
    ),
    EquivSide(
        defs=frozenset({_site("x", 3), _site("y", 5)}),
        uses=frozenset({_site("x", 3), _site("q", 6), _site("y", 7)}),
        flows=frozenset({_flow("x", 3, "y", 5), _flow("q", 6, "x", 3)}),
        def_with_expr=frozenset({_site("x", 3), _site("q", 6), _site("y", 9)}),
        cond_with_expr=frozenset({_cond(3), _cond(11)}),
    ),
)

_FLOWS_MENTION_P = "{} flow mentions 'p', a variable with no pair"
# (kind, line, subject, detail with {} for the tag, fact text, side of the
# fact), in the order diff_structure returns them.
_POINTWISE_RECORDS = [
    ("unpaired_flow", 2, "p", _FLOWS_MENTION_P,
     'flow("x", "main.cpp", 2, "p", "main.cpp", 6)', 0),
    ("missing_condexpr", 3, "-",
     "{} marks a complex condition at main.cpp:3 with no counterpart",
     'condWithExpr("main.cpp", 3)', 1),
    ("missing_condexpr", 4, "-",
     "{} marks a complex condition at main.cpp:4 with no counterpart",
     'condWithExpr("main.cpp", 4)', 0),
    ("missing_defexpr", 4, "y",
     '{} has defWithExpr("y", "main.cpp", 4) with no counterpart',
     'defWithExpr("y", "main.cpp", 4)', 0),
    ("missing_flow", 4, "y",
     '{} has flow("y", "main.cpp", 4, "x", "main.cpp", 7) with no counterpart under '
     "the pairing",
     'flow("y", "main.cpp", 4, "x", "main.cpp", 7)', 0),
    ("missing_use", 4, "y",
     '{} has use("y", "main.cpp", 4) with no counterpart use("y", "main.cpp", 5)',
     'use("y", "main.cpp", 4)', 0),
    ("unpaired_defexpr", 6, "p",
     '{} has defWithExpr("p", "main.cpp", 6) for a variable with no pair',
     'defWithExpr("p", "main.cpp", 6)', 0),
    ("unpaired_defexpr", 6, "q",
     '{} has defWithExpr("q", "main.cpp", 6) for a variable with no pair',
     'defWithExpr("q", "main.cpp", 6)', 1),
    ("unpaired_flow", 6, "p", _FLOWS_MENTION_P,
     'flow("p", "main.cpp", 6, "p", "main.cpp", 8)', 0),
    ("unpaired_flow", 6, "p", _FLOWS_MENTION_P,
     'flow("p", "main.cpp", 6, "r", "main.cpp", 6)', 0),
    ("unpaired_flow", 6, "p", _FLOWS_MENTION_P,
     'flow("p", "main.cpp", 6, "x", "main.cpp", 2)', 0),
    ("unpaired_flow", 6, "q", "{} flow mentions 'q', a variable with no pair",
     'flow("q", "main.cpp", 6, "x", "main.cpp", 3)', 1),
    ("unpaired_flow", 6, "r", "{} flow mentions 'r', a variable with no pair",
     'flow("p", "main.cpp", 6, "r", "main.cpp", 6)', 0),
    ("unpaired_use", 6, "p", "{} uses 'p', a variable with no pair",
     'use("p", "main.cpp", 6)', 0),
    ("unpaired_use", 6, "q", "{} uses 'q', a variable with no pair",
     'use("q", "main.cpp", 6)', 1),
    ("missing_use", 7, "y",
     '{} has use("y", "main.cpp", 7) with no counterpart use("y", "main.cpp", 7)',
     'use("y", "main.cpp", 7)', 1),
    ("missing_defexpr", 9, "y",
     '{} has defWithExpr("y", "main.cpp", 9) with no counterpart',
     'defWithExpr("y", "main.cpp", 9)', 1),
    ("unpaired_flow", 9, "p", _FLOWS_MENTION_P,
     'flow("p", "main.cpp", 9, "x", "main.cpp", 2)', 0),
    ("unpaired_flow", 9, "p", _FLOWS_MENTION_P,
     'flow("p", "main.cpp", 9, "y", "main.cpp", 4)', 0),
]
_POINTWISE_KINDS = {
    "unpaired_use", "missing_use", "unpaired_flow", "missing_flow",
    "unpaired_defexpr", "missing_defexpr", "missing_condexpr",
}


@pytest.mark.parametrize("swap", [False, True], ids=["bundle", "swapped"])
def test_pointwise_records_from_each_side(swap):
    # Swapped, every fact moves to the other side and keeps its record and
    # its place among records that tie on the sort key.
    bundle = _POINTWISE_BUNDLE.swapped() if swap else _POINTWISE_BUNDLE
    pairing = build_pairing(bundle)
    expected = []
    for kind, line, subject, detail, fact, side in _POINTWISE_RECORDS:
        side ^= swap
        facts = {"side2" if side else "side1": (fact,)}
        expected.append(
            Mismatch(kind, "main.cpp", line, subject, detail.format(f"code{side + 1}"), **facts)
        )
    records = [m for m in diff_structure(bundle, pairing) if m.kind in _POINTWISE_KINDS]
    assert records == expected
