"""The full records of the checks that apply to each side of a bundle.

Each record is pinned from code1 and from code2 (the second through
``swapped()``), with its order where two records share a sort key.
"""

import pytest

from claimcheck.equivalence import Mismatch, build_pairing, check_watchvars, diff_structure
from claimcheck.errors import DanglingMapReferenceError
from claimcheck.facts import (
    EquivBundle,
    EquivSide,
    ExitFact,
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


@pytest.mark.parametrize(
    "code1, code2, correspondence, message",
    [
        (_ONE_ENTRY, _TWO_ENTRIES, "exitMap(7, 8).",
         "exitMap cites line 7 on code1 but exits are at [9]"),
        (_ONE_ENTRY, _TWO_ENTRIES, "exitMap(9, 7).",
         "exitMap cites line 7 on code2 but exits are at [8]"),
        # two maps dangle, each on one side: the first in sorted order is reported
        (_ONE_ENTRY, _TWO_ENTRIES, "exitMap(9, 6).\nexitMap(7, 8).",
         "exitMap cites line 7 on code1 but exits are at [9]"),
        # both sides dangle: code1 is reported, and exitMap before entryMap
        (_ONE_ENTRY, _TWO_ENTRIES, 'exitMap(7, 7).\nentryMap("main", 3, "main", 3).',
         "exitMap cites line 7 on code1 but exits are at [9]"),
        (_ONE_ENTRY, _TWO_ENTRIES, 'entryMap("main", 2, "main", 1).',
         "entryMap cites line 2 on code1 but entries are at [1]"),
        (_ONE_ENTRY, _TWO_ENTRIES, 'entryMap("main", 1, "main", 2).',
         "entryMap cites line 2 on code2 but entries are at [1, 4]"),
    ],
)
def test_dangling_map_reference_messages(code1, code2, correspondence, message):
    with pytest.raises(DanglingMapReferenceError) as raised:
        load_equiv_bundle_text(_bundle_text(code1, code2, correspondence))
    assert str(raised.value) == message


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
