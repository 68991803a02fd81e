import random
from pathlib import Path

import pytest

from claimcheck.datalog import (
    evaluate,
    export_external,
    import_external,
    parse_program,
    print_atom,
    print_rule,
)

from claimcheck.equivalence import build_pairing, equiv_rules
from claimcheck.errors import ArityMismatchError, ClaimcheckError, SortError, UnknownRelationError
from claimcheck.facts import load_equiv_bundle_text, load_msan_facts
from claimcheck.msan import msan_program

from generators import many_sources_chain, random_positive_program, two_file_self_pair
from oracles import naive_evaluate


def _fact_set(program):
    return {print_atom(f) for f in program.facts}


def test_fixture_export_layout(tmp_path, nonzero_output_program_text):
    program = parse_program(nonzero_output_program_text)
    export_external(program, tmp_path)
    assert (tmp_path / "program.dl").exists()
    fact_files = sorted(p.name for p in tmp_path.glob("*.facts"))
    assert fact_files == [
        "copy.facts",
        "defNonZero.facts",
        "defZero.facts",
        "outputFn.facts",
    ]
    rows = sum(
        len((tmp_path / name).read_text().splitlines()) for name in fact_files
    )
    assert rows == 5
    # symbols are written unquoted, tab-separated
    assert (tmp_path / "copy.facts").read_text() == "c\ta\t4\n"


def test_fixture_round_trip(tmp_path, nonzero_output_program_text):
    program = parse_program(nonzero_output_program_text)
    export_external(program, tmp_path)
    back = import_external(tmp_path)
    assert back.declarations == program.declarations
    assert [print_rule(r) for r in back.rules] == [print_rule(r) for r in program.rules]
    assert _fact_set(back) == _fact_set(program)
    assert dict(evaluate(back).relations) == dict(evaluate(program).relations)


def test_empty_program_export(tmp_path):
    export_external(parse_program(""), tmp_path)
    assert (tmp_path / "program.dl").read_text() == ""
    assert list(tmp_path.glob("*.facts")) == []
    back = import_external(tmp_path)
    assert back.facts == [] and back.rules == []


def test_random_round_trips(tmp_path):
    rng = random.Random(3)
    for index in range(20):
        program = random_positive_program(rng)
        target = tmp_path / f"case{index}"
        export_external(program, target)
        back = import_external(target)
        assert _fact_set(back) == _fact_set(program)
        assert [print_rule(r) for r in back.rules] == [
            print_rule(r) for r in program.rules
        ]
        assert dict(evaluate(back).relations) == naive_evaluate(program)


_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _equiv(bundle):
    return equiv_rules(bundle, build_pairing(bundle)), ("mismatch", "equivalent")


def _msan(fs):
    return msan_program(fs), ("satisfied", "reach")


# name -> (the program, and the relations that carry its meaning)
_RULE_PROGRAMS = {
    **{
        f"equiv/{p.name}": lambda p=p: _equiv(load_equiv_bundle_text(p.read_text()))
        for p in sorted((_FIXTURES / "equiv").iterdir())
    },
    "equiv/two-file self pair": lambda: _equiv(two_file_self_pair()),
    "msan/audio_buffer_trace.facts": lambda: _msan(
        load_msan_facts((_FIXTURES / "msan" / "audio_buffer_trace.facts").read_text())
    ),
    "msan/many sources": lambda: _msan(many_sources_chain(20)),
}


@pytest.mark.parametrize("name", list(_RULE_PROGRAMS))
def test_exported_rules_derive_what_the_program_derives(tmp_path, name):
    program, relations = _RULE_PROGRAMS[name]()
    direct = evaluate(program)
    export_external(program, tmp_path)
    imported = evaluate(import_external(tmp_path))
    for relation in relations:
        assert imported[relation] == direct[relation]
    assert any(direct[relation] for relation in relations)  # not vacuous


def test_nullary_facts_survive_the_round_trip(tmp_path):
    program = parse_program('q("a"). ok(). r(x) :- q(x), ok().')
    export_external(program, tmp_path)
    assert (tmp_path / "ok.facts").read_text() == "\n"
    back = import_external(tmp_path)
    assert _fact_set(back) == _fact_set(program)
    assert evaluate(back)["r"] == {("a",)} == evaluate(program)["r"]


def _import_rows(tmp_path, rows: str):
    (tmp_path / "program.dl").write_text(".decl e(a: symbol, n: number)\n")
    (tmp_path / "e.facts").write_text(rows)
    return import_external(tmp_path)


def test_import_rejects_a_symbol_in_a_number_column(tmp_path):
    with pytest.raises(SortError) as info:
        _import_rows(tmp_path, "x\t1\nx\ty\n")
    assert str(info.value) == (
        "e.facts, line 2: argument 2 of 'e' is declared number, found 'y'"
    )


@pytest.mark.parametrize("field", ["1_000", " 7", "7 ", "+7"])
def test_import_reads_a_number_only_as_the_parser_does(tmp_path, field):
    # int() accepts each of these, but the parser's number token -?\d+ does not
    with pytest.raises(SortError) as info:
        _import_rows(tmp_path, f"x\t1\nx\t{field}\n")
    assert str(info.value) == (
        f"e.facts, line 2: argument 2 of 'e' is declared number, found {field!r}"
    )


def test_import_reads_negative_and_plain_numbers(tmp_path):
    assert _import_rows(tmp_path, "x\t-3\ny\t42\n").segments == [("e", [("x", -3), ("y", 42)])]


@pytest.mark.parametrize(("rows", "found"), [("x\t1\t2\n", 3), ("x\t1\nx\n", 1), ("\n", 1)])
def test_import_rejects_a_row_of_the_wrong_arity(tmp_path, rows, found):
    with pytest.raises(ArityMismatchError) as info:
        _import_rows(tmp_path, rows)
    line = rows.count("\n")
    assert str(info.value) == (
        f"e.facts, line {line}: predicate 'e' declared with arity 2, used with {found}"
    )


def test_import_rejects_the_facts_of_an_undeclared_relation(tmp_path):
    (tmp_path / "program.dl").write_text(".decl e(a: symbol)\n")
    (tmp_path / "f.facts").write_text("x\n")
    with pytest.raises(UnknownRelationError) as info:
        import_external(tmp_path)
    assert str(info.value) == "unknown relation 'f'"


def test_a_number_beyond_the_digit_limit_exports_and_import_refuses_it(tmp_path):
    digits = "1" + "0" * 5000  # 10**5000, written without int-to-str conversion
    program = parse_program(".decl p(a: number)\n")
    program.segments = [("p", [(2,), (10**5000,), (-3,)])]
    export_external(program, tmp_path)
    # rows in the order of their repr, which would not convert 10**5000
    assert (tmp_path / "p.facts").read_text() == f"-3\n{digits}\n2\n"
    with pytest.raises(SortError) as info:
        import_external(tmp_path)
    assert str(info.value) == (
        f"p.facts, line 2: argument 1 of 'p' is declared number, found {digits!r}"
    )


def test_export_rejects_a_symbol_that_no_row_can_hold(tmp_path):
    for symbol in ("a\tb", "a\nb", "a\rb", "a\u2028b", "b\n"):
        program = parse_program(f'.decl s(a: symbol)\ns("ok"). s("{symbol}").')
        with pytest.raises(ClaimcheckError) as info:
            export_external(program, tmp_path / "out")
        assert str(info.value) == (
            f"cannot export s: symbol {symbol!r} holds a tab or a line break"
        )
        assert not (tmp_path / "out").exists()
