import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from claimcheck.datalog import (
    Atom,
    Program,
    parse_facts,
    parse_program,
    print_atom,
    print_program,
)
from claimcheck.datalog.parser import _position, _tokenize
from claimcheck.errors import (
    ArityMismatchError,
    DatalogSyntaxError,
    RangeRestrictionError,
    SortError,
    UnstratifiableNegationError,
)
from claimcheck.facts import load_equiv_bundle, load_msan_facts, split_bundle_sections

from oracles import (
    load_outcome,
    reference_load_equiv_bundle,
    reference_load_msan_facts,
    reference_tokenize,
)


def test_fixture_program_shape(nonzero_output_program_text):
    program = parse_program(nonzero_output_program_text)
    assert len(program.declarations) == 6
    assert len(program.rules) == 4
    assert len(program.facts) == 5


def test_empty_source():
    program = parse_program("")
    assert program.declarations == {}
    assert program.rules == []
    assert program.facts == []


def test_auto_declaration_infers_number_sort():
    program = parse_program("p(1). q(x) :- p(x), x < 2.")
    assert program.declarations["p"] == ("number",)
    assert program.declarations["q"] == ("number",)
    assert len(program.rules) == 1
    # pretty-print round trip preserves the program
    reparsed = parse_program(print_program(program))
    assert reparsed.declarations == program.declarations
    assert reparsed.rules == program.rules
    assert reparsed.facts == program.facts


def test_a_conflicting_redeclaration_is_reported_at_its_decl():
    source = ".decl q(a: symbol)\n  .decl q(a: number)\n\n\np(x) :- q(x)."
    assert _result_or_error(parse_program, source) == (
        "error", 2, 3, "conflicting redeclaration of 'q'"
    )
    # a declaration may end with a dot, and repeating it unchanged is no conflict
    program = parse_program(".decl q(a: symbol).\n.decl q(b: symbol)\np(x) :- q(x).")
    assert program.declarations == {"q": ("symbol",), "p": ("symbol",)}


def test_symbols_escape_round_trip():
    source = 'p("quo\\"te", "back\\\\slash").'
    program = parse_program(source)
    assert program.facts[0].args[0] == 'quo"te'
    assert parse_program(print_program(program)).facts == program.facts


def test_true_false_are_symbols():
    facts = parse_facts('p("d", 6, "c", true, 5).')
    assert facts[0].args[3] == "true"


def test_constants_are_plain_values():
    facts = parse_facts('p("1", 1).')
    assert facts[0].args == ("1", 1)
    assert type(facts[0].args[1]) is int
    assert print_atom(facts[0]) == 'p("1", 1)'
    assert parse_facts(print_atom(facts[0]) + ".") == facts


def test_comments_and_wildcards():
    program = parse_program(
        "// header\np(1). // trailing\nq() :- p(_).\n"
    )
    assert len(program.facts) == 1 and len(program.rules) == 1


def test_syntax_error_carries_position():
    with pytest.raises(DatalogSyntaxError) as info:
        parse_program("p(1)\nq(2).")
    assert info.value.line == 2


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        parse_program(".decl p(x: symbol)\np(\"a\", \"b\").")


def test_sort_error_on_symbol_comparison():
    with pytest.raises(SortError):
        parse_program('p("a"). q(x) :- p(x), x < 2.')


def test_range_restriction_rejected():
    with pytest.raises(RangeRestrictionError):
        parse_program("q(y) :- p(x).")
    with pytest.raises(RangeRestrictionError):
        parse_program("q(x) :- p(x), !r(y).")


def test_unstratifiable_negation_rejected():
    source = "p(x) :- base(x), !q(x). q(x) :- base(x), !p(x). base(1)."
    with pytest.raises(UnstratifiableNegationError):
        parse_program(source)


def test_facts_only_parser_rejects_rules():
    with pytest.raises(DatalogSyntaxError):
        parse_facts("p(x) :- q(x).")
    with pytest.raises(DatalogSyntaxError):
        parse_facts("p(x).")  # not ground


_term = st.one_of(
    st.integers(min_value=-99, max_value=99),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=12,
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["p", "q", "rel_3"]),
            st.lists(_term, min_size=0, max_size=4),
        ),
        max_size=12,
    )
)
def test_fact_print_parse_round_trip(raw_facts):
    # one declaration per (name, arity, sorts) signature to keep it well-formed
    atoms = []
    signatures: dict[str, tuple] = {}
    for name, args in raw_facts:
        sorts = tuple("number" if isinstance(a, int) else "symbol" for a in args)
        key = f"{name}_{len(args)}_{''.join(s[0] for s in sorts)}"
        signatures[key] = sorts
        atoms.append(Atom(key, tuple(args)))
    program = Program(declarations=signatures, facts=atoms)
    reparsed = parse_program(print_program(program))
    assert set(map(print_atom, reparsed.facts)) == set(map(print_atom, atoms))


def _result_or_error(parse, source: str):
    try:
        return parse(source)
    except DatalogSyntaxError as exc:
        return ("error", exc.line, exc.column, exc.message)


def _positioned_tokens(source: str):
    return [
        (kind, text, *_position(source, offset)) for kind, text, offset in _tokenize(source)
    ]


# the grammar's characters, plus comment starts and a letter the grammar lacks
_SOURCE_TEXT = st.lists(
    st.one_of(
        st.sampled_from(list('()",.:-!<>=_/\\ \n') + ["//", "\u00e9"]),
        st.sampled_from(list("abdelx019") + ["decl", ".decl", "true", "p(1)."]),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_SOURCE_TEXT)
def test_tokenizer_matches_reference(source):
    assert _result_or_error(_positioned_tokens, source) == _result_or_error(
        reference_tokenize, source
    )


@pytest.mark.parametrize(
    ("source", "line", "column", "message"),
    [
        ("p(1). // x y\n@", 2, 1, "unexpected character '@'"),
        ('p("abc).\nq(1).', 1, 3, "unexpected character '\"'"),
        ("// one\n// two\np(1).\n  \u00e9 q(2).", 4, 3, "unexpected character '\u00e9'"),
    ],
)
def test_tokenizer_error_positions(source, line, column, message):
    assert _result_or_error(reference_tokenize, source) == ("error", line, column, message)
    assert _result_or_error(_positioned_tokens, source) == ("error", line, column, message)


def test_missing_final_dot_is_reported_at_eof():
    source = "p(1).\n// done\nq(2) // no dot"
    assert _positioned_tokens(source)[-1] == ("eof", "", 3, 15)
    with pytest.raises(DatalogSyntaxError) as info:
        parse_program(source)
    assert (info.value.line, info.value.column) == (3, 15)
    assert info.value.message == "expected '.', found ''"


# ---------------------------------------------------------------------------
# The typed fact scan of the loaders against the full parser
# ---------------------------------------------------------------------------


def _assert_scan_matches_parser(source: str) -> None:
    """The loaders read ``source`` -- as a trace file, a code section and a
    correspondence section -- as the full parser and the checks on atoms
    do: the same facts, or the same error type and message."""
    for load, reference, texts in (
        (load_msan_facts, reference_load_msan_facts, (source,)),
        (load_equiv_bundle, reference_load_equiv_bundle, (source, "", "")),
        (load_equiv_bundle, reference_load_equiv_bundle, ("", "", source)),
    ):
        assert load_outcome(load, *texts) == load_outcome(reference, *texts)


# separators, including a comment inside a fact, which the scan leaves to
# the full parser
_GAP = st.sampled_from(["", "", " ", "\n", "\t", "\u2003", "\u2028", " // c\n"])
_FACT_TERM = st.sampled_from([
    '"a"', '""', '"a b/c.cc"', '"x, y)."', '"// not a comment"', '"q\\"uote"',
    '"back\\\\slash"', '"\\n"', '"\u00e9"', "true", "false", "trueish", "true_",
    "0", "42", "-007", "-1", "\u0663", "x", "_",
])


@st.composite
def _fact_statement(draw):
    gap = lambda: draw(_GAP)
    args = draw(st.lists(_FACT_TERM, max_size=4))
    inner = (gap() + "," + gap()).join(args)
    name = draw(st.sampled_from(["p", "q_1", "uses", "true", "declx"]))
    return f"{gap()}{name}{gap()}({gap()}{inner}{gap()}){gap()}."


_FACT_DOCUMENT = st.lists(
    st.one_of(
        _fact_statement(),
        _fact_statement(),
        st.sampled_from(
            ["// comment\n", "//", "\n", "\u2003", " ", ".decl p(a: number)",
             "q(x) :- p(x).", "decl", "(", ")", ",", ".", '"', "\\", "-", "@"]
        ),
    ),
    max_size=10,
).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_FACT_DOCUMENT)
def test_fact_scan_matches_full_parser(source):
    _assert_scan_matches_parser(source)


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("p(1).decl(2).", ("error", 1, 5, "expected '.', found '.decl'")),
        ("p(1).declx(2).", [Atom("p", (1,)), Atom("declx", (2,))]),
        ("p (1) .", [Atom("p", (1,))]),
        ("p().", [Atom("p", ())]),
        ('p(1).\nq("a")', ("error", 2, 7, "expected '.', found ''")),
        ("p(-007, \u0663, true, false).", [Atom("p", (-7, 3, "true", "false"))]),
        ("p(-007, \u0663, true, trueish).", (
            "error", 1, 1, "fact p contains a variable or wildcard")),
        ('p("\\\\", "a\\"b").', [Atom("p", ("\\", 'a"b'))]),
    ],
)
def test_fact_scan_edge_cases(source, expected):
    assert _result_or_error(parse_facts, source) == expected
    _assert_scan_matches_parser(source)


@pytest.mark.parametrize(
    ("source", "line", "column", "message"),
    [
        ('p(1).\n  q(x) :- p(x).\n.decl r(a: number)\nr(_).', 2, 3,
         "rules are not allowed in a fact file"),
        ('p(1).\n\n  .decl r(a: number)\nr(_).', 3, 3,
         "declarations are not allowed in a fact file"),
        ('p(1).\n// c\np(2). uses(x,\n "a.cc", 2).', 3, 7,
         "fact uses contains a variable or wildcard"),
    ],
)
def test_fact_file_errors_point_at_the_first_offending_statement(
    source, line, column, message
):
    assert _result_or_error(parse_facts, source) == ("error", line, column, message)


def _overlong_digits() -> str:
    """A number literal longer than ``int()`` converts (5,000 digits by default)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts number literals of any length")
    return "9" * max(5000, limit + 1)


def test_overlong_number_literal_is_a_syntax_error():
    digits = _overlong_digits()
    message = f"number literal of {len(digits)} digits is too long"
    facts = f'p(1).\n// c\n  uses("x", "a.cc", -{digits}).'
    assert _result_or_error(parse_facts, facts) == ("error", 3, 21, message)
    _assert_scan_matches_parser(facts)
    _assert_scan_matches_parser(facts.replace("-", ""))
    rule = f"q(x) :- p(x), x < {digits}."
    assert _result_or_error(parse_program, rule) == ("error", 1, 19, message)


def _fixture_fact_texts() -> list[str]:
    root = Path(__file__).resolve().parent.parent / "fixtures"
    texts = [path.read_text() for path in sorted(root.glob("msan/*.facts"))]
    for path in sorted(root.glob("equiv/*.bundle")):
        texts.extend(split_bundle_sections(path.read_text()).values())
    return texts


def test_fact_scan_reads_every_fixture():
    texts = _fixture_fact_texts()
    assert len(texts) == 19
    for text in texts:
        _assert_scan_matches_parser(text)


_MUTATION_PIECES = list('()",.:-!_/\\ \nx0') + [
    "//", ".decl", "true", "\u2003", "\u0663", "p(1).", ":-",
]


def test_fact_scan_matches_full_parser_on_mutated_fixtures():
    rng = random.Random(20261018)
    texts = _fixture_fact_texts()
    texts.append((Path(__file__).resolve().parent.parent
                  / "fixtures/datalog/nonzero_output_check.dl").read_text())
    for _ in range(1000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:  # delete a short span
                text = text[:at] + text[at + rng.randint(1, 3):]
            elif edit == 1:  # insert a piece of the grammar
                text = text[:at] + rng.choice(_MUTATION_PIECES) + text[at:]
            else:  # replace one character
                text = text[:at] + rng.choice(_MUTATION_PIECES) + text[at + 1:]
        _assert_scan_matches_parser(text)
