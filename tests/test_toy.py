import random

import pytest

from claimcheck.errors import MissingInputError, ToySyntaxError, UseBeforeDefError
from claimcheck.facts import (
    ControlDepFact,
    EntryFact,
    FlowFact,
    SiteFact,
    lint_equiv,
    lint_msan,
    load_equiv_bundle_text,
)
from claimcheck.equivalence import EQUIVALENT, verify_equiv
from claimcheck.msan import DONT_KNOW, VERIFIED, verify_msan
from claimcheck.toy import (
    extract_equiv_facts,
    extract_msan_facts,
    interpret,
    mix,
    normalize,
    oracle_equiv,
    parse_toy,
    render_toy,
    taint_reaches_output,
)
from claimcheck.toy.lang import ExprDef, GuardOpen

from generators import random_toy


COPY_CHAIN = "fixtures/toy/copy_chain.toy"
GUARDED_A = "fixtures/toy/guarded_call_a.toy"
GUARDED_B = "fixtures/toy/guarded_call_b.toy"


def _read(path):
    from pathlib import Path

    return Path(path).read_text()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_copy_chain():
    program = parse_toy(_read(COPY_CHAIN))
    assert len(program.statements) == 5
    assert program.free_vars == frozenset()


def test_parse_empty_source():
    program = parse_toy("")
    assert program.statements == ()
    assert program.line_count == 0


def test_parse_guarded_program():
    program = parse_toy(_read(GUARDED_A))
    guards = [s for s in program.statements if isinstance(s, GuardOpen)]
    assert len(guards) == 1 and guards[0].var == "c"


def test_use_before_def_is_rejected():
    with pytest.raises(UseBeforeDefError):
        parse_toy("int a = b;\n")


def test_free_declaration_allows_use():
    program = parse_toy("int b;\nint a = b;\n")
    assert program.free_vars == frozenset({"b"})


def test_bad_statement_reports_line():
    with pytest.raises(ToySyntaxError) as info:
        parse_toy("int a = 0;\nwat!\n")
    assert info.value.line == 2


_SHAPES = {
    "calls": lambda e: f"f({e})",
    "parentheses": lambda e: f"({e})",
    "negations": lambda e: f"-{e}",
    "sum": lambda e: f"{e} + a",
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_expressions_nest_at_most_64_levels(shape):
    wrap, deepest = _SHAPES[shape], "a"
    for _ in range(64):
        deepest = wrap(deepest)
    program = parse_toy(f"int a;\nint b = {deepest};\noutput(b);\n")
    assert taint_reaches_output(normalize(program), {"a"})
    with pytest.raises(ToySyntaxError) as info:
        parse_toy(f"int a;\nint b = {wrap(deepest)};\n")
    assert info.value.line == 2
    assert "deeper than 64" in info.value.message


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_splits_nested_sum():
    program = parse_toy("int a = 1;\nint b = 2;\nint c = 0;\nint x = a + b + c;\n")
    normalized = normalize(program)
    rendered = render_toy(normalized)
    assert "x_tmp1 = a + b;" in rendered
    assert "x = x_tmp1 + c;" in rendered


def test_normalize_is_identity_on_normal_form():
    program = parse_toy(_read(GUARDED_A))
    assert normalize(program) is program


def test_normalize_handles_guard_bodies_and_renumbers():
    program = parse_toy("int v;\nif (v) {\nint x = inc(inc(v));\n}\n")
    normalized = normalize(program)
    assert normalized.is_normalized()
    lines = [s.line for s in normalized.statements]
    assert lines == list(range(1, len(lines) + 1))


def test_normalize_preserves_semantics_on_random_nested_expressions():
    rng = random.Random(17)
    ops = ["f", "g", "+", "*"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(["a", "b", "1", "2"])
        if rng.random() < 0.4:
            return f"{rng.choice(['f', 'g'])}({random_expr(depth - 1)})"
        op = rng.choice(["+", "*"])
        return f"({random_expr(depth - 1)} {op} {random_expr(depth - 1)})"

    for _ in range(100):
        source = f"int a;\nint b;\nint x = {random_expr(3)};\noutput(x);\n"
        program = parse_toy(source)
        normalized = normalize(program)
        assert normalized.is_normalized()
        for va in (0, 1, 2):
            for vb in (0, 1, 2):
                inputs = {"a": va, "b": vb}
                before = interpret(program, inputs)
                after = interpret(normalized, inputs)
                assert before.env["x"] == after.env["x"]
                assert before.outputs == after.outputs
        assert taint_reaches_output(program, {"a"}) == taint_reaches_output(
            normalized, {"a"}
        )


def test_taint_flows_through_nested_expressions():
    program = parse_toy("int a;\nint b = f(g(a));\noutput(b);\n")
    assert taint_reaches_output(program, {"a"})
    assert not taint_reaches_output(program, set())
    state = interpret(program, {"a": 0}, {"a"})
    assert state.taint == {"a": True, "b": True} and state.tainted_output


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------


def test_copy_chain_outputs():
    state = interpret(parse_toy(_read(COPY_CHAIN)), {})
    assert state.outputs == [2, 0]
    assert state.exit_line == 6  # fell off the end


def test_single_output():
    state = interpret(parse_toy("int a = 0;\noutput(a);\n"), {})
    assert state.outputs == [0]


def test_missing_input_raises():
    with pytest.raises(MissingInputError):
        interpret(parse_toy("int a;\noutput(a);\n"), {})


def test_interpretation_is_deterministic():
    program = parse_toy(_read(GUARDED_A))
    states = [interpret(program, {}) for _ in range(3)]
    assert len({tuple(s.env.items()) for s in states}) == 1


def test_guard_and_return_semantics():
    program = parse_toy("int v;\nif (!v) {\nreturn;\n}\nint a = 1;\noutput(a);\n")
    taken = interpret(program, {"v": 0})
    assert taken.exit_ordinal == 0 and taken.outputs == []
    skipped = interpret(program, {"v": 1})
    assert skipped.exit_ordinal == -1 and skipped.outputs == [1]


def test_mix_is_order_sensitive_and_stable():
    assert mix("+", [1, 2]) != mix("+", [2, 1])
    assert mix("+", [1, 2]) == mix("+", [1, 2])
    assert mix("+", [1, 2]) in (0, 1, 2)
    # operators are compared by symbol: distinct names mix differently
    # somewhere on the small domain
    assert any(
        mix("foo", [v]) != mix("bar", [v]) for v in (0, 1, 2)
    )


# ---------------------------------------------------------------------------
# Equivalence extraction
# ---------------------------------------------------------------------------


def test_extracted_bundle_matches_published_fixture_modulo_conventions(
    renamed_fn_bundle_text,
):
    """The published bundle omits facts the systematic extractor always
    emits: the entry fact, constant markers, watch variables, control
    dependencies of unguarded definitions, and one operand flow inside the
    guard.  Everything else agrees exactly."""
    extracted = extract_equiv_facts(
        parse_toy(_read(GUARDED_A)), parse_toy(_read(GUARDED_B))
    )
    published = load_equiv_bundle_text(renamed_fn_bundle_text)

    for ours, reference in (
        (extracted.code1, published.code1),
        (extracted.code2, published.code2),
    ):
        assert ours.uses == reference.uses
        assert ours.defs == reference.defs
        assert ours.def_with_expr == reference.def_with_expr
        assert ours.unary == reference.unary
        assert ours.binary == reference.binary
        assert ours.exits == reference.exits
        assert ours.flows - reference.flows == {
            FlowFact("a", "main.cpp", 1, "a", "main.cpp", 6)
        }
        assert reference.flows - ours.flows == set()
        entry_deps = {
            ControlDepFact(v, "main.cpp", l, "Entry:main", "true", "main.cpp", 0)
            for v, l in (("a", 1), ("b", 2), ("c", 3), ("d", 4))
        }
        assert ours.controldeps == reference.controldeps | entry_deps
        assert ours.constants == {"0", "2"}
        assert ours.watch_vars == {
            SiteFact(v, "main.cpp", 8) for v in ("a", "b", "c", "d")
        }
        assert ours.entries == {EntryFact("main", "main.cpp", 0)}
    assert extracted.entry_maps == published.entry_maps
    assert extracted.exit_maps == published.exit_maps


def test_extractor_output_is_lint_clean():
    rng = random.Random(31)
    for _ in range(50):
        program = normalize(random_toy(rng))
        bundle = extract_equiv_facts(program, program)
        assert lint_equiv(bundle).errors == []


def test_empty_programs_extract_to_entry_exit_only():
    bundle = extract_equiv_facts(parse_toy(""), parse_toy(""))
    assert bundle.code1.defs == frozenset()
    assert bundle.code1.exits == {("main.cpp", 1)}
    assert bundle.code1.entries == {EntryFact("main", "main.cpp", 0)}


def test_self_pairs_verify_equivalent():
    rng = random.Random(8)
    for _ in range(30):
        program = normalize(random_toy(rng))
        bundle = extract_equiv_facts(program, program)
        assert verify_equiv(bundle).outcome == EQUIVALENT


def test_extraction_requires_normalized_input():
    program = parse_toy("int a = 1;\nint x = a + a + a;\n")
    assert any(isinstance(s, ExprDef) for s in program.statements)
    with pytest.raises(ValueError):
        extract_equiv_facts(program, program)


# ---------------------------------------------------------------------------
# Trace extraction
# ---------------------------------------------------------------------------


def test_copy_chain_trace_facts():
    program = parse_toy(_read(COPY_CHAIN))
    facts = extract_msan_facts(program, {"a"})
    assert SiteFact("a", "main.cpp", 1) in facts.uninitialized
    assert FlowFact("a", "main.cpp", 1, "c", "main.cpp", 4) in facts.flow
    assert SiteFact("c", "main.cpp", 5) in facts.uses
    assert {(e.file, e.line) for e in facts.memory_error} == {("main.cpp", 5)}
    assert lint_msan(facts).errors == []
    verdict = verify_msan(facts)
    assert verdict.outcome == VERIFIED
    assert verdict.witness[-1] == ("c", "main.cpp", 5)


def test_no_marked_variables_means_dont_know():
    program = parse_toy(_read(COPY_CHAIN))
    facts = extract_msan_facts(program, set())
    assert facts.uninitialized == frozenset()
    assert verify_msan(facts).outcome == DONT_KNOW


def test_verdict_tracks_taint_oracle_on_random_programs():
    # guards test dedicated free variables so that every static path is
    # dynamically realizable; see random_toy(guards_on_free_only=True)
    rng = random.Random(55)
    agreements = 0
    for _ in range(100):
        program = random_toy(rng, guards_on_free_only=True)
        inputs = sorted(program.free_vars)
        marked = {v for v in inputs if rng.random() < 0.4}
        facts = extract_msan_facts(program, marked)
        assert lint_msan(facts).errors == []
        verdict = verify_msan(facts)
        reaches = taint_reaches_output(program, marked)
        assert (verdict.outcome == VERIFIED) == reaches
        agreements += 1
    assert agreements == 100


# ---------------------------------------------------------------------------
# The brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_rejects_renamed_call_pair():
    pair_a = parse_toy("int a;\nint b;\nbool c = a == b;\nint d = 2;\nif (c) {\n  d = foo(a);\n}\n")
    pair_b = parse_toy("int a;\nint b;\nbool c = a == b;\nint d = 2;\nif (c) {\n  d = bar(a);\n}\n")
    assert oracle_equiv(pair_a, pair_b) is False


def test_oracle_accepts_self_pair():
    program = parse_toy(_read(GUARDED_A))
    assert oracle_equiv(program, program) is True


def test_oracle_rejects_commuted_operands():
    left = parse_toy("int a;\nint b;\nint x = a + b;\n")
    right = parse_toy("int a;\nint b;\nint x = b + a;\n")
    assert oracle_equiv(left, right) is False


def test_oracle_respects_var_pairing():
    left = parse_toy("int a;\nint x = inc(a);\n")
    right = parse_toy("int a;\nint y = inc(a);\n")
    assert oracle_equiv(left, right, {"x": "y"}) is True
    with pytest.raises(ValueError):
        oracle_equiv(left, parse_toy("int q;\nint y = inc(q);\n"))
