"""Acceptance gate: one test per shipping criterion, at its stated tolerance.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion at the end of the run.
"""

import json
import random
import time

from claimcheck.cli import main as cli_main
from claimcheck.datalog import (
    evaluate,
    export_external,
    import_external,
    parse_facts,
    parse_program,
    print_atom,
    print_program,
    print_rule,
)
from claimcheck.equivalence import EQUIVALENT, INCONCLUSIVE, verify_equiv
from claimcheck.facts import (
    load_equiv_bundle_text,
    load_msan_facts,
)
from claimcheck.loop import EQUIV, mock_source, run_loop
from claimcheck.msan import VERIFIED, msan_program, verify_msan
from claimcheck.toy import extract_equiv_facts, normalize, oracle_equiv

from generators import (
    mutate_toy,
    random_fact_atoms,
    random_msan_facts,
    random_positive_program,
    random_toy,
)
from oracles import naive_evaluate


def test_criterion_01_nonzero_output_fixture_model(nonzero_output_program_text):
    """The five-line copy program's claims derive exactly the expected
    alarm tuples, in under 10 ms."""
    program = parse_program(nonzero_output_program_text)
    evaluate(program)  # warm-up outside the timed run
    started = time.perf_counter()
    db = evaluate(parse_program(nonzero_output_program_text))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert db["isUnsafe"] == {()}
    assert db["nonZeroInputToOutputFn"] == {("d",)}
    assert elapsed_ms < 10.0


def test_criterion_02_trace_fixture_verifies_at_error_site(
    capsys, fixtures_dir, trace_facts_text
):
    """The audio-buffer trace verifies, the witness ends at the claimed
    error site, and the whole command core runs in under 50 ms."""
    verify_msan(load_msan_facts(trace_facts_text))  # warm-up
    started = time.perf_counter()
    verdict = verify_msan(load_msan_facts(trace_facts_text))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert verdict.outcome == VERIFIED
    assert verdict.witness[-1] == (
        "buffer", "utils/encoders/stream_encoder.c", 2538,
    )
    error_sites = {("utils/encoders/stream_encoder.c", 2538)}
    assert (verdict.witness[-1][1], verdict.witness[-1][2]) in error_sites
    assert elapsed_ms < 50.0

    code = cli_main(["verify-msan", str(fixtures_dir / "msan" / "audio_buffer_trace.facts")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verdict"] == "Verified"
    assert report["witness"]["chain"][-1]["line"] == 2538


def test_criterion_03_renamed_call_sole_witness(
    capsys, fixtures_dir, renamed_fn_bundle_text
):
    verdict = verify_equiv(load_equiv_bundle_text(renamed_fn_bundle_text))
    assert verdict.outcome == "NotEquivalent"
    assert len(verdict.mismatches) == 1
    witness = verdict.witness
    assert witness.kind == "expr_mismatch"
    assert witness.side1 == ('unaryFun("foo", "a", "main.cpp", 6)',)
    assert witness.side2 == ('unaryFun("bar", "a", "main.cpp", 6)',)

    code = cli_main(
        ["verify-equiv", str(fixtures_dir / "equiv" / "guarded_call_renamed_fn.bundle")]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["verdict"] == "NotEquivalent"
    assert report["witness"]["code1_facts"] == ['unaryFun("foo", "a", "main.cpp", 6)']


def test_criterion_04_reorder_and_cond_swap_catch_controldep(fixtures_dir):
    for name in ("field_assign_reorder.bundle", "loop_cond_swap.bundle"):
        bundle = load_equiv_bundle_text((fixtures_dir / "equiv" / name).read_text())
        verdict = verify_equiv(bundle)
        assert verdict.outcome == "NotEquivalent", name
        assert verdict.witness.kind == "controldep_mismatch", name


def test_criterion_05_switch_vs_ifelse_is_conservatively_rejected(fixtures_dir):
    """The two dispatch forms are semantically equivalent; the dependence
    abstraction cannot see it and must (by design) say NotEquivalent."""
    bundle = load_equiv_bundle_text(
        (fixtures_dir / "equiv" / "switch_vs_ifelse.bundle").read_text()
    )
    assert verify_equiv(bundle).outcome == "NotEquivalent"


def test_criterion_06_soundness_sweep():
    """Over >=500 generated pairs, Equivalent never contradicts the
    brute-force interpreter."""
    rng = random.Random(60_001)
    started = time.perf_counter()
    equivalent_seen = 0
    for _ in range(500):
        base = normalize(random_toy(rng))
        mutation = mutate_toy(rng, base)
        bundle = extract_equiv_facts(base, mutation.program, mutation.var_map)
        verdict = verify_equiv(bundle)
        if verdict.outcome == EQUIVALENT:
            equivalent_seen += 1
            assert oracle_equiv(base, mutation.program, mutation.var_map), (
                mutation.kind
            )
    elapsed = time.perf_counter() - started
    assert equivalent_seen >= 50  # the sweep exercises the interesting branch
    assert elapsed < 60.0


def test_criterion_07_reflexivity_renaming_and_mutations():
    rng = random.Random(70_001)
    for _ in range(100):
        program = normalize(random_toy(rng))
        assert verify_equiv(extract_equiv_facts(program, program)).outcome == EQUIVALENT
    for _ in range(100):
        program = normalize(random_toy(rng))
        while True:
            mutation = mutate_toy(rng, program)
            if mutation.kind == "rename":
                break
        bundle = extract_equiv_facts(program, mutation.program, mutation.var_map)
        assert verify_equiv(bundle).outcome == EQUIVALENT
    for _ in range(100):
        program = normalize(random_toy(rng))
        while True:
            mutation = mutate_toy(rng, program)
            if mutation.kind != "rename":
                break
        bundle = extract_equiv_facts(program, mutation.program, mutation.var_map)
        assert verify_equiv(bundle).outcome in ("NotEquivalent", INCONCLUSIVE)


def test_criterion_08_engine_agreement_and_monotonicity():
    rng = random.Random(80_001)
    for _ in range(200):
        program = random_positive_program(rng)
        assert dict(evaluate(program).relations) == naive_evaluate(program)
    for _ in range(200):
        program = random_positive_program(rng)
        base = evaluate(program)
        superset = parse_program("")
        superset.declarations = dict(program.declarations)
        superset.rules = list(program.rules)
        superset.facts = list(program.facts) + random_fact_atoms(
            rng, program, rng.randint(1, 10)
        )
        extended = evaluate(superset)
        for name in base.relations:
            assert base[name] <= extended[name]


def test_criterion_09_msan_verdict_monotonicity():
    """Verified never regresses under fact additions.  Additions model
    re-extraction for the same sanitizer report: error-site claims come
    from the report itself, so an addition introduces one only when the
    base claims already name error sites."""
    rng = random.Random(90_001)
    verified_seen = 0
    for _ in range(100):
        base = random_msan_facts(rng)
        additions = random_msan_facts(rng, with_memory_error=bool(base.memory_error))
        if not base.memory_error:
            additions = additions._replace(memory_error=frozenset())
        if verify_msan(base).outcome == VERIFIED:
            verified_seen += 1
            assert verify_msan(base.union(additions)).outcome == VERIFIED
    assert verified_seen >= 10


def test_criterion_10_iteration_ablation(renamed_fn_bundle_text):
    """With a 40%-withholding source, five iterations are strictly better
    than one, and per-fact recovery beats the analytic 1 - 0.4**5 bar."""
    total_facts = 78
    trials = 100
    inconclusive = {1: 0, 5: 0}
    recovered = 0
    for trial in range(trials):
        for iters in (1, 5):
            result, _ = run_loop(
                mock_source(renamed_fn_bundle_text, 0.4, seed=1000 + trial),
                EQUIV,
                "",
                max_iters=iters,
            )
            if verify_equiv(result).outcome == INCONCLUSIVE:
                inconclusive[iters] += 1
            if iters == 5:
                recovered += len(result)
    assert inconclusive[5] < inconclusive[1]
    assert recovered / (trials * total_facts) >= 0.98


def test_criterion_11_round_trips(tmp_path, fixtures_dir, trace_facts_text,
                                  nonzero_output_program_text, renamed_fn_bundle_text):
    # fact grammar: parse -> print -> parse is set-equal on every fixture
    program = parse_program(nonzero_output_program_text)
    reparsed = parse_program(print_program(program))
    assert reparsed.declarations == program.declarations
    assert [print_rule(r) for r in reparsed.rules] == [print_rule(r) for r in program.rules]
    assert {print_atom(f) for f in reparsed.facts} == {print_atom(f) for f in program.facts}

    atoms = parse_facts(trace_facts_text)
    rendered = "".join(print_atom(a) + ".\n" for a in atoms)
    assert {print_atom(a) for a in parse_facts(rendered)} == {print_atom(a) for a in atoms}
    typed = load_msan_facts(trace_facts_text)
    assert load_msan_facts(typed.render()) == typed

    for name in (
        "guarded_call_renamed_fn.bundle",
        "field_assign_reorder.bundle",
        "loop_cond_swap.bundle",
        "switch_vs_ifelse.bundle",
        "guarded_call_self_pair.bundle",
        "guarded_call_onesided_watch.bundle",
    ):
        bundle = load_equiv_bundle_text((fixtures_dir / "equiv" / name).read_text())
        assert load_equiv_bundle_text(bundle.render()) == bundle, name

    # external solver format: export -> import reproduces the program
    for label, exported in (
        ("datalog", program),
        ("msan", msan_program(typed)),
    ):
        target = tmp_path / label
        export_external(exported, target)
        back = import_external(target)
        assert back.declarations == exported.declarations, label
        assert [print_rule(r) for r in back.rules] == [
            print_rule(r) for r in exported.rules
        ], label
        assert {print_atom(f) for f in back.facts} == {
            print_atom(f) for f in exported.facts
        }, label
