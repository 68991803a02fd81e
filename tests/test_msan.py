import dataclasses
import random

from claimcheck.datalog import engine, evaluate, parse_program, print_atom
from claimcheck.facts import (
    FlowFact,
    MemoryErrorFact,
    MsanFactSet,
    SiteFact,
    load_msan_facts,
)
from claimcheck.msan import DONT_KNOW, VERIFIED, msan_program, msan_rules, verify_msan

from generators import msan_reachability_oracle, random_msan_facts
from oracles import msan_witness_oracle


def test_trace_fixture_verifies_with_error_site_witness(trace_facts_text):
    verdict = verify_msan(load_msan_facts(trace_facts_text))
    assert verdict.outcome == VERIFIED
    assert verdict.witness[0] == ("data_", "audio/base/audio_buffer.cc", 375)
    assert verdict.witness[-1] == ("buffer", "utils/encoders/stream_encoder.c", 2538)
    assert verdict.lint.ok


def test_empty_set_is_dont_know():
    assert verify_msan(MsanFactSet()).outcome == DONT_KNOW


def test_reflexive_use_at_uninitialized_site():
    fs = MsanFactSet(
        uses=frozenset({SiteFact("x", "f", 1)}),
        uninitialized=frozenset({SiteFact("x", "f", 1)}),
    )
    verdict = verify_msan(fs)
    assert verdict.outcome == VERIFIED
    assert verdict.witness == (("x", "f", 1),)


def test_memory_error_gates_the_witness():
    # two chains; only the one that lands on the claimed error site counts
    fs = MsanFactSet(
        uses=frozenset({SiteFact("y", "f", 5), SiteFact("z", "f", 9)}),
        uninitialized=frozenset({SiteFact("x", "f", 1)}),
        flow=frozenset(
            {
                FlowFact("x", "f", 1, "y", "f", 5),
                FlowFact("x", "f", 1, "z", "f", 9),
            }
        ),
        memory_error=frozenset({MemoryErrorFact("z", "uninitialized", "f", 9)}),
    )
    verdict = verify_msan(fs)
    assert verdict.outcome == VERIFIED
    assert verdict.witness[-1] == ("z", "f", 9)


def test_unrelated_chain_does_not_verify_a_claimed_error():
    fs = MsanFactSet(
        uses=frozenset({SiteFact("y", "f", 5)}),
        uninitialized=frozenset({SiteFact("x", "f", 1)}),
        flow=frozenset({FlowFact("x", "f", 1, "y", "f", 5)}),
        memory_error=frozenset({MemoryErrorFact("q", "uninitialized", "g", 9)}),
    )
    assert verify_msan(fs).outcome == DONT_KNOW


def test_witness_is_shortest_with_lexicographic_ties():
    fs = MsanFactSet(
        uses=frozenset({SiteFact("b", "f", 2), SiteFact("a", "f", 2)}),
        uninitialized=frozenset({SiteFact("x", "f", 1)}),
        flow=frozenset(
            {
                FlowFact("x", "f", 1, "b", "f", 2),
                FlowFact("x", "f", 1, "a", "f", 2),
            }
        ),
    )
    assert verify_msan(fs).witness[-1] == ("a", "f", 2)


def test_witness_matches_enumeration_oracle_on_random_sets():
    # half the sets are dense, so that equally short chains compete often
    rng = random.Random(2024)
    verified = ties = 0
    for index in range(400):
        fs = random_msan_facts(rng, max_flows=6 if index % 2 else 16)
        witness = msan_witness_oracle(fs)
        assert verify_msan(fs).witness == witness
        if witness is not None:
            verified += 1
            ties += msan_witness_oracle(fs, pick=max) != witness
    assert verified >= 100 and ties >= 20  # the tie-break actually decided


def test_verdict_matches_reachability_oracle_on_random_sets():
    rng = random.Random(99)
    for _ in range(100):
        fs = random_msan_facts(rng)
        expected = VERIFIED if msan_reachability_oracle(fs) else DONT_KNOW
        assert verify_msan(fs).outcome == expected


def test_rules_path_agrees_with_direct_path():
    rng = random.Random(4)
    for _ in range(100):
        fs = random_msan_facts(rng)
        db = evaluate(msan_program(fs))
        datalog_verified = bool(db["satisfied"])
        assert datalog_verified == (verify_msan(fs).outcome == VERIFIED)


def test_rules_on_fixture_and_empty(trace_facts_text):
    assert evaluate(msan_program(load_msan_facts(trace_facts_text)))["satisfied"]
    assert not evaluate(msan_program(MsanFactSet()))["satisfied"]


def test_rules_export_shape(monkeypatch):
    program = msan_rules()
    assert "satisfied" in program.declarations
    assert "flowStar" in program.declarations
    assert len(program.rules) == 5
    rules, declarations = list(program.rules), dict(program.declarations)

    # an edited program is validated in full; the shared rule set is untouched
    checked = []
    check_program = engine.check_program
    monkeypatch.setattr(
        engine, "check_program", lambda p: checked.append(p) or check_program(p)
    )
    fs = MsanFactSet(uses=frozenset({SiteFact("p", "a.cc", 1)}))
    extended = msan_program(fs)
    extended.rules += parse_program("used(x) :- uses(x, _, _).", validate=False).rules
    assert evaluate(extended)["used"] == {("p",)}
    redeclared = msan_program(fs)
    redeclared.declarations["note"] = ("number",)
    assert evaluate(redeclared)["note"] == frozenset()
    assert checked == [extended, redeclared]

    for fresh in (msan_rules(), msan_program(fs)):
        assert fresh.rules == rules and len(fresh.rules) == 5
        assert fresh.declarations == declarations
    evaluate(msan_program(fs))
    assert len(checked) == 2


def test_verified_is_stable_under_additions_preserving_error_claims():
    # additions model re-extraction for the same report: they may add sites,
    # flows, uses, or (only when the claim already names error sites) more
    # error sites -- the sanitizer report is part of the prompt, so the
    # first error-site claim never appears mid-loop.
    rng = random.Random(1234)
    checked = 0
    for _ in range(100):
        fs = random_msan_facts(rng)
        additions = random_msan_facts(
            rng, with_memory_error=bool(fs.memory_error)
        )
        if not fs.memory_error:
            additions = dataclasses.replace(additions, memory_error=frozenset())
        if verify_msan(fs).outcome == VERIFIED:
            checked += 1
            assert verify_msan(fs.union(additions)).outcome == VERIFIED
    assert checked >= 10  # the sweep actually exercised verified sets


def test_witness_hops_are_claimed_facts(trace_facts_text):
    fs = load_msan_facts(trace_facts_text)
    verdict = verify_msan(fs)
    chain = verdict.witness
    flow_edges = {
        ((f.src_var, f.src_file, f.src_line), (f.dst_var, f.dst_file, f.dst_line))
        for f in fs.flow
    }
    for src, dst in zip(chain, chain[1:]):
        assert (src, dst) in flow_edges
    assert chain[0] in {(f.var, f.file, f.line) for f in fs.uninitialized}
    assert chain[-1] in {(f.var, f.file, f.line) for f in fs.uses}


def test_render_lines_are_the_program_facts():
    rng = random.Random(5)
    for _ in range(200):
        fs = random_msan_facts(rng)
        assert set(fs.render().splitlines()) == {
            print_atom(a) + "." for a in msan_program(fs).facts
        }
