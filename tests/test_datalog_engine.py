import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from claimcheck.datalog import (
    Atom,
    Program,
    Var,
    evaluate,
    explain,
    parse_program,
    prepare,
    print_atom,
    print_rule,
    query,
)
from claimcheck.equivalence import build_pairing, equiv_rules
from claimcheck.errors import (
    ArityMismatchError,
    ClaimcheckError,
    NotDerivableError,
    RangeRestrictionError,
    SortError,
    UnknownRelationError,
)
from claimcheck.facts import FlowFact, MsanFactSet, SiteFact
from claimcheck.msan import msan_program
from claimcheck.toy import extract_equiv_facts, normalize

from generators import (
    mutate_toy,
    random_fact_atoms,
    random_msan_facts,
    random_positive_program,
    random_toy,
)
from oracles import brute_force_query, naive_evaluate, replay_derivation


def test_fixture_model(nonzero_output_program_text):
    db = evaluate(parse_program(nonzero_output_program_text))
    assert db["isUnsafe"] == {()}
    assert db["nonZeroInputToOutputFn"] == {("d",)}
    assert db["defZero"] == {("a", 1), ("c", 4)}


def test_facts_only_program_is_its_own_model():
    db = evaluate(parse_program('p("a", 1). p("b", 2). q().'))
    assert db["p"] == {("a", 1), ("b", 2)}
    assert db["q"] == {()}


@pytest.mark.parametrize("value", [True, 1.5, None])
def test_fact_argument_must_be_str_or_int(value):
    # a bool is an int subclass, but not a number constant
    program = parse_program('p("a", 1).', validate=False)
    program.facts.append(Atom("p", ("b", value)))
    with pytest.raises(RangeRestrictionError) as info:
        evaluate(program)
    assert str(info.value) == (
        f"fact p: argument 2 is {value!r}, neither a symbol (str) nor a number (int)"
    )


def test_quoted_argument_is_a_constant_not_a_variable():
    constant = evaluate(parse_program('q("y"). p("x") :- q("x").'))
    assert constant["p"] == frozenset()
    variable = evaluate(parse_program('q("y"). p(x) :- q(x).'))
    assert variable["p"] == {("y",)}


def test_duplicate_facts_are_deduplicated():
    db = evaluate(parse_program('p("a", 1). p("a", 1). p("a", 1).'))
    assert db["p"] == {("a", 1)}


def test_determinism(nonzero_output_program_text):
    program1 = parse_program(nonzero_output_program_text)
    program2 = parse_program(nonzero_output_program_text)
    assert dict(evaluate(program1).relations) == dict(evaluate(program2).relations)


def test_seminaive_matches_naive_oracle_small_sweep():
    rng = random.Random(11)
    for _ in range(40):
        program = random_positive_program(rng)
        assert dict(evaluate(program).relations) == naive_evaluate(program)


def test_negation_consults_lower_strata_only():
    program = parse_program(
        """
        edge("a", "b"). edge("b", "c").
        reach(x, y) :- edge(x, y).
        reach(x, z) :- reach(x, y), edge(y, z).
        unreachable(x, y) :- node(x), node(y), !reach(x, y).
        node("a"). node("b"). node("c").
        """
    )
    db = evaluate(program)
    assert ("a", "c") in db["reach"]
    assert ("c", "a") in db["unreachable"]
    assert dict(db.relations) == naive_evaluate(program)


def test_comparison_may_precede_binding_literal():
    # the comparison references a variable bound only by a later body atom
    program = parse_program("out(x) :- first(x, l), l1 < l, second(x, l1).\n"
                            'first("v", 5). second("v", 3). second("v", 9).')
    assert evaluate(program)["out"] == {("v",)}


def test_query_examples(nonzero_output_program_text):
    db = evaluate(parse_program(nonzero_output_program_text))
    assert query(db, Atom("isUnsafe", ())) == [{}]
    assert query(db, Atom("defNonZero", (Var("x"), Var("l")))) == [{"x": "d", "l": 2}]
    with pytest.raises(UnknownRelationError):
        query(db, Atom("nope", ()))


def test_query_on_empty_relation():
    db = evaluate(parse_program(".decl p(x: symbol)\n"))
    assert query(db, Atom("p", (Var("x"),))) == []


def test_query_orders_numbers_numerically():
    db = evaluate(parse_program('p("a", 2). p("a", 10). p("a", 1).'))
    results = query(db, Atom("p", (Var("x"), Var("l"))))
    assert [r["l"] for r in results] == [1, 2, 10]


def test_query_rejects_wrong_pattern_arity():
    from claimcheck.errors import ArityMismatchError
    db = evaluate(parse_program('p("a", 1).'))
    with pytest.raises(ArityMismatchError):
        query(db, Atom("p", (Var("x"),)))


def test_query_matches_brute_force_scan():
    rng = random.Random(23)
    for _ in range(20):
        program = random_positive_program(rng)
        db = evaluate(program)
        for name in sorted(db.relations):
            sorts = program.declarations[name]
            if not sorts:
                continue
            pattern_args = []
            for position, sort in enumerate(sorts):
                roll = rng.random()
                if roll < 0.4:
                    pattern_args.append(Var(f"q{position}"))
                elif roll < 0.6:
                    pattern_args.append(rng.randint(0, 6) if sort == "number" else "a")
                else:
                    pattern_args.append(Var(f"q{position}"))
            pattern = Atom(name, tuple(pattern_args))
            assert query(db, pattern) == brute_force_query(db[name], pattern)


def test_explain_fixture_leaves(nonzero_output_program_text):
    program = parse_program(nonzero_output_program_text)
    db = evaluate(program)
    tree = explain(db, Atom("isUnsafe", ()))
    leaves = {print_atom(leaf) for leaf in tree.leaves()}
    assert leaves == {'outputFn("d", 3)', 'defNonZero("d", 2)'}
    facts = {(f.predicate, f.value_tuple()) for f in program.facts}
    assert replay_derivation(tree, facts, db)


def test_explain_input_fact_is_leaf(nonzero_output_program_text):
    program = parse_program(nonzero_output_program_text)
    db = evaluate(program)
    tree = explain(db, Atom("defZero", ("a", 1)))
    assert tree.rule is None and tree.children == ()


def test_explain_not_derivable(nonzero_output_program_text):
    db = evaluate(parse_program(nonzero_output_program_text))
    with pytest.raises(NotDerivableError):
        explain(db, Atom("defZero", ("zz", 1)))


def test_every_derivation_replays_on_random_programs():
    rng = random.Random(5)
    for _ in range(50):
        program = random_positive_program(rng)
        db = evaluate(program)
        facts = {(f.predicate, f.value_tuple()) for f in program.facts}
        for name in sorted(db.relations):
            for values in sorted(db[name], key=repr):
                assert replay_derivation(explain(db, Atom(name, values)), facts, db)


def test_monotonicity_on_positive_programs():
    rng = random.Random(77)
    for _ in range(40):
        program = random_positive_program(rng)
        base = evaluate(program)
        extended_program = parse_program("")  # fresh container
        extended_program.declarations = dict(program.declarations)
        extended_program.rules = list(program.rules)
        extended_program.facts = list(program.facts) + random_fact_atoms(
            rng, program, rng.randint(1, 8)
        )
        extended = evaluate(extended_program)
        for name in base.relations:
            assert base[name] <= extended[name]


def test_transitive_closure_of_200_edge_chain_is_fast():
    n = 200
    edges = " ".join(f'edge("n{i}", "n{i + 1}").' for i in range(n))
    program = parse_program(
        "path(x, y) :- edge(x, y).\n"
        "path(x, z) :- path(x, y), edge(y, z).\n" + edges
    )
    start = time.perf_counter()
    db = evaluate(program)
    elapsed = time.perf_counter() - start
    assert len(db["path"]) == n * (n + 1) // 2 == 20_100
    assert elapsed < 2.0, f"TC over a {n}-edge chain took {elapsed:.2f} s"


def test_explain_1100_step_flow_chain():
    steps = 1100
    sites = [SiteFact(f"v{i}", "chain.c", i + 1) for i in range(steps + 1)]
    flows = [FlowFact(*a, *b) for a, b in zip(sites, sites[1:])]
    facts = MsanFactSet(
        uses=frozenset(sites[-1:]),
        uninitialized=frozenset(sites[:1]),
        flow=frozenset(flows),
    )
    program = msan_program(facts)
    db = evaluate(program)
    tree = explain(db, Atom("satisfied", ()))
    leaves = [leaf for leaf in tree.leaves() if leaf.predicate == "flow"]
    assert len(leaves) == steps
    inputs = {(f.predicate, f.value_tuple()) for f in program.facts}
    assert replay_derivation(tree, inputs, db)
    assert [leaf.value_tuple() for leaf in leaves] == [tuple(f) for f in flows]
    # the uninitialized fact supports both satisfied() and the first
    # flowStar step; both occurrences share one node
    node = tree.children[1]
    while node.fact.predicate == "flowStar":
        node = node.children[0]
    assert node is tree.children[0]
    # comparing, hashing and printing the proof do not recurse through it;
    # equality is identity, so a proof built again is a different node
    again = explain(db, Atom("satisfied", ()))
    assert tree == tree and tree != again
    assert len({tree, again, tree}) == 2
    assert repr(tree) == f"Derivation('satisfied()', rule={print_rule(tree.rule)!r}, children=3)"


# ---------------------------------------------------------------------------
# Prepared rule sets
# ---------------------------------------------------------------------------


def _unprepared(program: Program) -> Program:
    return Program(dict(program.declarations), list(program.rules), list(program.facts))


def _outcome(program: Program):
    """What evaluating a program gives: the error, or the model, the
    derivation order and the input leaves of every tuple's derivation."""
    try:
        db = evaluate(program)
    except ClaimcheckError as exc:
        return type(exc), str(exc)
    leaves = {
        (name, values): explain(db, Atom(name, values)).leaves()
        for name, relation in db.relations.items()
        for values in relation
    }
    return dict(db.relations), list(db.provenance.items()), leaves


def _rules_programs() -> list[Program]:
    rng = random.Random(8)
    programs = [msan_program(random_msan_facts(rng)) for _ in range(40)]
    for _ in range(20):
        toy = normalize(random_toy(rng))
        mutation = mutate_toy(rng, toy)
        bundle = extract_equiv_facts(toy, mutation.program, mutation.var_map)
        programs.append(equiv_rules(bundle, build_pairing(bundle)))
    return programs


def test_prepared_rules_evaluate_as_check_program_does():
    for program in _rules_programs():
        assert program.rule_set is not None
        assert program.rule_set.admits(program)
        assert _outcome(program) == _outcome(_unprepared(program))


def _small_rules_program(kind: str) -> Program:
    if kind == "msan":
        return msan_program(MsanFactSet(uses=frozenset({SiteFact("p", "a.cc", 1)})))
    toy = normalize(random_toy(random.Random(3)))
    bundle = extract_equiv_facts(toy, toy, {})
    return equiv_rules(bundle, build_pairing(bundle))


_INVALID_ARGS = {  # each for a relation of sorts (symbol, symbol, number)
    "arity": (("x", "a.cc"), ArityMismatchError),
    "sort": (("x", "a.cc", "1"), SortError),
    "variable": ((Var("x"), "a.cc", 1), RangeRestrictionError),
    "bool": (("x", "a.cc", True), RangeRestrictionError),
}


@pytest.mark.parametrize("kind", sorted(_INVALID_ARGS))
@pytest.mark.parametrize(("rules", "relation"), [("msan", "uses"), ("equiv", "use_c1")])
def test_prepared_rules_reject_invalid_facts_as_check_program_does(rules, relation, kind):
    args, error = _INVALID_ARGS[kind]
    prepared = _small_rules_program(rules)
    assert prepared.declarations[relation] == ("symbol", "symbol", "number")
    prepared.facts.append(Atom(relation, args))
    outcome = _outcome(prepared)
    assert outcome == _outcome(_unprepared(prepared))
    assert outcome[0] is error


def test_prepared_rules_declare_a_fact_only_relation_as_check_program_does():
    # check_program declares a relation that only facts name, so both paths
    # accept its facts; sorts clash within it as they do for any relation
    prepared = _small_rules_program("msan")
    prepared.facts.append(Atom("note", ("p", 1)))
    outcome = _outcome(prepared)
    assert outcome == _outcome(_unprepared(prepared))
    assert outcome[0]["note"] == {("p", 1)}
    assert prepared.declarations["note"] == ("symbol", "number")
    clash = msan_program(MsanFactSet())
    clash.facts += [Atom("note", ("p", 1)), Atom("note", (2, 1))]
    outcome = _outcome(clash)
    assert outcome == _outcome(_unprepared(clash))
    assert outcome[0] is SortError


def test_prepare_rejects_sorts_left_to_facts():
    with pytest.raises(SortError):
        prepare(parse_program("path(x, y) :- edge(x, y).", validate=False))
    rule_set = prepare(parse_program(
        ".decl edge(a: symbol, b: symbol)\npath(x, y) :- edge(x, y).", validate=False
    ))
    assert rule_set.declarations["path"] == ("symbol", "symbol")
    with pytest.raises(ValueError):
        prepare(parse_program('.decl edge(a: symbol, b: symbol)\nedge("a", "b").'))


_DETERMINISM_SCRIPT = """
import random, sys
from pathlib import Path
from claimcheck.datalog import Atom, evaluate, explain, parse_program, print_atom, print_rule
from claimcheck.facts import load_msan_facts
from claimcheck.msan import msan_program
from generators import random_positive_program

fixtures = Path(sys.argv[1])
programs = [
    parse_program((fixtures / "datalog" / "nonzero_output_check.dl").read_text()),
    msan_program(load_msan_facts((fixtures / "msan" / "audio_buffer_trace.facts").read_text())),
] + [random_positive_program(random.Random(seed)) for seed in range(6)]
for program in programs:
    db = evaluate(program)
    print("derivation order:", list(db.provenance))
    for name in sorted(db.relations):
        for values in sorted(db[name]):
            stack = [(explain(db, Atom(name, values)), 0)]
            while stack:
                node, depth = stack.pop()
                how = print_rule(node.rule) if node.rule else "input"
                print("  " * depth + print_atom(node.fact), "<-", how)
                stack.extend((child, depth + 1) for child in reversed(node.children))
"""


def test_evaluate_and_explain_do_not_depend_on_hash_seed(fixtures_dir):
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    outputs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
        run = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, str(fixtures_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0].count("\n") > 100
    assert all(output == outputs[0] for output in outputs[1:])
