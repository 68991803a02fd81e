import hashlib
import random

import pytest

from claimcheck.cli import main
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
    VALUE_DOMAIN,
)
from claimcheck.toy.lang import ExprDef, GuardOpen

from generators import mutate_toy, random_toy


COPY_CHAIN = "fixtures/toy/copy_chain.toy"
GUARDED_A = "fixtures/toy/guarded_call_a.toy"
GUARDED_B = "fixtures/toy/guarded_call_b.toy"
GUARD_REDEFINITION = "fixtures/toy/guard_redefinition.toy"
GUARDED_RETURN = "fixtures/toy/guarded_return.toy"


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


# Each program is malformed on one line only, the line its error names.
_MALFORMED = {
    "bad-character": ("int a;\nint b = a$1;\noutput(b);\n", 2, "bad expression near '$1'"),
    "bad-character-after-a-blank": ("int a;\nint b = a $ 1;\n", 2, "bad expression near '$ 1'"),
    "unexpected-end": ("int a;\nint b = a +;\noutput(b);\n", 2, "unexpected end of expression"),
    "trailing-tokens": ("int a;\nint b = a a;\noutput(b);\n", 2, "trailing tokens near 'a'"),
    "bang-outside-a-guard": ("int a;\nint b = !a;\n", 2, "'!' is only allowed in guards"),
    "missing-parenthesis": ("int a;\nint b = (a 1;\n", 2, "missing ')'"),
    "missing-call-parenthesis": ("int a;\nint b = f(a 1;\n", 2, "missing ')' after call"),
    "call-arguments": ("int a;\n\nint b = f(a, a, a);\n", 3, "f() takes one or two arguments"),
    "unexpected-token": ("int a;\nint b = * a;\n", 2, "unexpected token '*'"),
    "unmatched-brace": ("int a;\noutput(a);\n}\n", 3, "unmatched '}'"),
    "reserved-free-variable": ("int a;\nint if;\n", 2, "'if' is a reserved word"),
    "reserved-definition": ("int a;\noutput = a;\n", 2, "'output' is a reserved word"),
    "unclosed-brace": ("int a;\nif (a) {\noutput(a);\n", 3, "unclosed '{'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_a_malformed_program_raises_on_its_line(case):
    source, line, message = _MALFORMED[case]
    with pytest.raises(ToySyntaxError) as info:
        parse_toy(source)
    assert (info.value.line, info.value.message) == (line, message)


def test_extract_on_a_malformed_program_is_a_usage_error(capsys, tmp_path):
    source, line, message = _MALFORMED["missing-call-parenthesis"]
    toy = tmp_path / "bad.toy"
    toy.write_text(source, encoding="utf-8")
    assert main(["extract", str(toy), "--task", "msan", "--uninit", "a"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line {line}: {message}\n")


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


def test_rendering_requires_normalized_input():
    # render_toy writes normalized statements only, and an ExprDef is not one
    program = parse_toy("int a;\nint b = f(a + 1);\n")
    assert any(isinstance(s, ExprDef) for s in program.statements)
    with pytest.raises(ValueError, match=r"normalized first \(see normalize\(\)\)"):
        render_toy(program)
    assert render_toy(normalize(program)) == "int a;\nb_tmp1 = a + 1;\nb = f(b_tmp1);\n"


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


def test_redefinition_in_a_guard_kills_the_tainted_definition():
    # on the path through the guard x0 is 0 before blend reads it; on the
    # path that skips the guard x1 keeps the constant: no taint reaches output
    program = parse_toy(_read(GUARD_REDEFINITION))
    facts = extract_msan_facts(program, {"in0"})
    assert not taint_reaches_output(program, {"in0"})
    assert FlowFact("x0", "main.cpp", 3, "x1", "main.cpp", 7) not in facts.flow
    assert FlowFact("x0", "main.cpp", 6, "x1", "main.cpp", 7) in facts.flow
    # both the guarded and the skipping definition of x1 reach the output
    assert {f.src_line for f in facts.flow if f.dst_line == 9} == {4, 7}
    assert facts.memory_error == frozenset()
    assert lint_msan(facts).errors == []
    assert verify_msan(facts).outcome == DONT_KNOW


_DECLS = "int in0;\nint g0;\nint g1;\nint x0 = 1;\n"


@pytest.mark.parametrize("source, reaches", [
    (GUARDED_RETURN, False),
    (_DECLS + "if (g0) {\n  return;\n  x0 = in0 + in0;\n  output(x0);\n}\noutput(x0);\n", False),
    (_DECLS + "if (g0) {\n  x0 = in0 + in0;\n  return;\n  if (g1) {\n    x0 = 2;\n  }\n"
     "  output(x0);\n}\noutput(x0);\n", False),
    (_DECLS + "if (g0) {\n  if (g1) {\n    x0 = in0 + in0;\n    return;\n  }\n"
     "  output(x0);\n}\noutput(x0);\n", False),
    # g0 and not g1 carries the marked value past both guards
    (_DECLS + "if (g0) {\n  x0 = in0 + in0;\n  if (g1) {\n    return;\n  }\n}\noutput(x0);\n", True),
    (_DECLS + "x0 = in0 + in0;\nreturn;\nif (g0) {\n  output(x0);\n}\noutput(x0);\n", False),
], ids=["def-then-return", "return-first", "nested-guard-after-return",
        "return-in-nested-guard", "nested-return-leaves-outer-path", "top-level-return"])
def test_a_return_ends_the_path_through_it(source, reaches):
    # the statements after a return are dead, and only the path that skips
    # the returning guard goes on past it
    program = parse_toy(_read(source) if source == GUARDED_RETURN else source)
    facts = extract_msan_facts(program, {"in0"})
    assert taint_reaches_output(program, {"in0"}) == reaches
    assert lint_msan(facts).errors == []
    assert bool(facts.memory_error) == reaches
    assert (verify_msan(facts).outcome == VERIFIED) == reaches


@pytest.mark.parametrize("seed", range(40))
def test_verdict_tracks_taint_oracle_on_random_programs(seed):
    # guards test free variables that are never assigned, but two guards may
    # test the same one, so a static path can be unrealizable (see
    # random_toy(guards_on_free_only=True)); no program these seeds draw has
    # a verdict that such a path decides
    rng = random.Random(seed)
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


def test_oracle_rejects_runs_that_leave_through_different_exits():
    # each input leaves one program through its return and the other through its end
    left = parse_toy("int a;\nif (a) {\n  return;\n}\noutput(a);\n")
    right = parse_toy("int a;\nif (!a) {\n  return;\n}\noutput(a);\n")
    assert oracle_equiv(left, right) is False
    assert oracle_equiv(left, left) is True
    assert oracle_equiv(right, right) is True


def test_oracle_respects_var_pairing():
    left = parse_toy("int a;\nint x = inc(a);\n")
    right = parse_toy("int a;\nint y = inc(a);\n")
    assert oracle_equiv(left, right, {"x": "y"}) is True
    with pytest.raises(ValueError):
        oracle_equiv(left, parse_toy("int q;\nint y = inc(q);\n"))


# ---------------------------------------------------------------------------
# The toy layer's output, pinned
# ---------------------------------------------------------------------------

# Nested right-hand sides, so that normalize adds temporaries (one of them
# around a name that is already taken), literal and variable copies, unary
# minus, calls on literals, a negated guard and a return inside it.
_NESTED_SOURCES = (
    "int a;\nint b;\nint c = f(a + 1, g(b) * 2);\noutput(c);\n",
    "int a;\nint x = 5;\nx = a;\nint y = -(a + x) * -3;\nif (!y) {\n"
    "  x = h(h(x, 0), a < 1 || y);\n  return;\n}\noutput(x);\n",
    "int a;\nint b_tmp1 = 1;\nint b = (a + b_tmp1) * (a - 2) + k(7);\noutput(b);\n",
    "int p;\np = p;\nint q = 0;\nq = (((p)));\nint r = p == q && q != 1;\n"
    "if (r) {\n  q = inc(2);\n  p = blend(3, q);\n}\noutput(r);\n",
)


def _pinned_toy_programs(fixtures_dir):
    """(program, its equivalence partner, var_map, label) for the shipped
    toy fixtures, the nested sources, and 100 seeded random programs each
    paired with one mutation of it."""
    for path in sorted((fixtures_dir / "toy").glob("*.toy")):
        program = parse_toy(path.read_text())
        yield program, program, {}, path.name
    for source in _NESTED_SOURCES:
        program = parse_toy(source)
        yield program, program, {}, "nested"
    rng = random.Random(3030)
    for i in range(100):
        program = random_toy(rng, guards_on_free_only=i % 2 == 1)
        mutation = mutate_toy(rng, program)
        yield program, mutation.program, mutation.var_map, mutation.kind
        yield mutation.program, mutation.program, {}, mutation.kind


def _exec_text(state):
    return repr((
        sorted(state.env.items()), sorted(state.taint.items()), state.outputs,
        state.tainted_output, state.exit_line, state.exit_ordinal,
    ))


# The sha256 of what ``test_toy_layer_output_is_pinned`` hashes.
_TOY_PINNED_DIGEST = "ae18568169abc110f738d5d8e1b52e07ee2adcc9ba1b2cb8b254e77b06855fb3"


def test_toy_layer_output_is_pinned(fixtures_dir):
    """Rendered normal forms, both extractors' facts, and interpreter states
    with taint on a few assignments, over ``_pinned_toy_programs``."""
    picks = random.Random(3031)
    digest = hashlib.sha256()

    def add(text):
        digest.update(text.encode() + b"\n\x00\n")

    for program, partner, var_map, label in _pinned_toy_programs(fixtures_dir):
        normal, normal_partner = normalize(program), normalize(partner)
        add(label)
        add(render_toy(normal))
        add(extract_equiv_facts(normal, normal_partner, var_map).render())
        marked = {picks.choice(sorted(normal.defined_vars()))}
        add(extract_msan_facts(normal, marked).render())
        free = sorted(program.free_vars)
        for _ in range(3):
            inputs = {v: picks.choice(VALUE_DOMAIN) for v in free}
            add(_exec_text(interpret(program, inputs, marked)))
            add(_exec_text(interpret(normal, inputs, marked)))
    assert digest.hexdigest() == _TOY_PINNED_DIGEST
