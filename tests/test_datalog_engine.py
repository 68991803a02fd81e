import functools
import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from claimcheck import equiv_datalog, msan_datalog
from claimcheck.cli import main
from claimcheck.datalog import (
    Atom,
    Comparison,
    NegatedAtom,
    Program,
    Rule,
    Var,
    WILDCARD,
    engine,
    evaluate,
    explain,
    parse_program,
    prepare,
    print_atom,
    print_program,
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
from claimcheck.facts import (
    ExitFact,
    FlowFact,
    MsanFactSet,
    SiteFact,
    load_equiv_bundle_text,
    load_msan_facts,
)
from claimcheck.msan import msan_program
from claimcheck.toy import extract_equiv_facts, normalize

from generators import (
    mutate_toy,
    random_fact_atoms,
    random_msan_facts,
    random_positive_program,
    random_toy,
)
from oracles import brute_force_query, naive_evaluate, reference_fact_error, replay_derivation


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
    program.facts += [Atom("p", ("b", value))]
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


def test_steps_are_not_tracked_by_the_garbage_collector():
    # a step cites its rule by ordinal and holds only values, so once the
    # collector has seen it, it is never scanned again as the model grows
    n = 30
    edges = " ".join(f'edge("n{i}", "n{i + 1}").' for i in range(n))
    program = parse_program(
        "path(x, y) :- edge(x, y).\n"
        "path(x, z) :- path(x, y), edge(y, z).\n" + edges
    )
    db = evaluate(program)
    gc.collect()
    gc.collect()
    steps = [step for slots in db._steps.values() for step in slots.values() if step]
    assert len(steps) == len(db["path"]) == n * (n + 1) // 2
    assert [step for step in steps if gc.is_tracked(step)] == []
    assert explain(db, Atom("path", ("n0", f"n{n}"))).rule is program.rules[1]


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
    # one reach step per site, from the use back to the uninitialized leaf
    node, reached = tree.children[0], []
    while node.fact.predicate == "reach":
        reached.append(node.fact.value_tuple())
        node = node.children[0]
    assert reached[::-1] == [tuple(site) for site in sites]
    assert node.rule is None and node.fact.value_tuple() == tuple(sites[0])
    # comparing, hashing and printing the proof do not recurse through it;
    # equality is identity, so a proof built again is a different node
    again = explain(db, Atom("satisfied", ()))
    assert tree == tree and tree != again
    assert len({tree, again, tree}) == 2
    assert repr(tree) == f"Derivation('satisfied()', rule={print_rule(tree.rule)!r}, children=2)"


def test_explain_shares_one_node_per_fact():
    program = parse_program("c(). a() :- c(). b() :- c(). both() :- a(), b().")
    tree = explain(evaluate(program), Atom("both", ()))
    first, second = (child.children[0] for child in tree.children)
    assert first is second and first.rule is None
    assert [print_atom(leaf) for leaf in tree.leaves()] == ["c()", "c()"]


def _replays_everywhere(program: Program, db) -> bool:
    facts = {(f.predicate, f.value_tuple()) for f in program.facts}
    return all(
        replay_derivation(explain(db, Atom(name, values)), facts, db)
        for name in sorted(db.relations)
        for values in sorted(db[name], key=repr)
    )


@pytest.mark.parametrize("atoms", [22, 40])
def test_rule_deeper_than_python_loop_nesting(atoms):
    # one loop per positive atom; CPython nests at most 20 blocks per function
    n = atoms
    recursive = {2, n // 2, n - 2}  # r atoms there make delta plans start deep
    body = [f"{'r' if i in recursive else f'e{i}'}(x{i}, x{i + 1})" for i in range(n)]
    rules = (
        f"r(x0, x{n}) :- {', '.join(body)}, !blocked(x{n - 1}), x3 < x{n - 3}.\n"
        "r(x, y) :- link(x, y).\n"
    )
    facts = [f"e{i}({i}, {i + 1})." for i in range(n) if i not in recursive]
    facts += [f"link({i}, {i + 1})." for i in sorted(recursive)]
    # a second path around two atoms, and one that the negation blocks
    facts += [f"e{n - 5}({n - 5}, 900).", f"e{n - 4}(900, {n - 3}).", "blocked(901).",
              f"link({n - 2}, 901).", f"e{n - 1}(901, {n})."]
    program = parse_program(rules + " ".join(facts))
    db = evaluate(program)
    assert (0, n) in db["r"]
    assert dict(db.relations) == naive_evaluate(program)
    assert _replays_everywhere(program, db)


def test_exit_rule_deeper_than_python_loop_nesting():
    # the deep rule names no predicate of its stratum, so it runs once, before
    # the rounds of the recursive rule, and its plan continues in helpers
    n = 40
    body = [f"e{i}(x{i}, x{i + 1})" for i in range(n)]
    rules = (
        f"r(x0, x{n}) :- {', '.join(body)}, !blocked(x{n - 1}), x3 < x{n - 3}.\n"
        "r(x, z) :- r(x, y), link(y, z).\n"
    )
    facts = [f"e{i}({i}, {i + 1})." for i in range(n)]
    facts += [f"e{n - 5}({n - 5}, 900).", f"e{n - 4}(900, {n - 3}).", "blocked(901).",
              f"e{n - 2}({n - 2}, 901).", f"e{n - 1}(901, {n}).", f"link({n}, {n + 1})."]
    program = parse_program(rules + " ".join(facts))
    db = evaluate(program)
    assert db["r"] == {(0, n), (0, n + 1)}
    assert dict(db.relations) == naive_evaluate(program)
    assert _replays_everywhere(program, db)


# Names that are Python keywords, builtins or the generated locals, and
# symbols that would end a string literal or a line of source.
_HOSTILE_PREDICATES = {"path": "class", "edge": "lambda", "out": "__import__",
                       "mark": "append", "weight": "r0"}
_HOSTILE_VARIABLES = {"x": "lambda", "y": "v0", "z": "__import__", "n": "class",
                      "w": "t0"}
_HOSTILE_SYMBOLS = {"K1": '"', "K2": "\\", "K3": "\n", "K4": "')",
                    "K5": "__import__('os').getcwd()"}


def _renamed(program: Program, predicates: dict, variables: dict, symbols: dict) -> Program:
    def term(t):
        if isinstance(t, Var):
            return Var(variables.get(t.name, t.name))
        return symbols.get(t, t) if type(t) is str else t

    def atom(a):
        return Atom(predicates.get(a.predicate, a.predicate), tuple(map(term, a.args)))

    def literal(lit):
        if isinstance(lit, Atom):
            return atom(lit)
        if isinstance(lit, NegatedAtom):
            return NegatedAtom(atom(lit.atom))
        return Comparison(lit.op, term(lit.left), term(lit.right))

    return Program(
        {predicates.get(name, name): sorts for name, sorts in program.declarations.items()},
        [Rule(atom(r.head), tuple(map(literal, r.body))) for r in program.rules],
        [atom(fact) for fact in program.facts],
    )


def test_hostile_rule_text_is_inert_in_generated_source():
    plain = parse_program("""
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        out(x, "K1", n) :- path(x, y), weight(y, n), !mark(y), n > 1, w = n, weight(_, w).
        out(x, x, n) :- edge(x, x), weight(x, n), !mark("K5").
        mark("K2").
        edge("K1", "K2"). edge("K2", "K3"). edge("K3", "K4"). edge("K4", "K1").
        edge("K5", "K5"). edge("K4", "K5").
        weight("K3", 2). weight("K5", 7). weight("K1", 1). weight("K2", 3).
    """)
    hostile = _renamed(plain, _HOSTILE_PREDICATES, _HOSTILE_VARIABLES, _HOSTILE_SYMBOLS)
    db = evaluate(hostile)
    assert dict(db.relations) == naive_evaluate(hostile)
    assert _replays_everywhere(hostile, db)
    # plans do not depend on names: each tuple has the same derivation
    symbol_of = {v: k for k, v in _HOSTILE_SYMBOLS.items()}
    predicate_of = {v: k for k, v in _HOSTILE_PREDICATES.items()}

    def back(key):
        name, values = key
        return predicate_of[name], tuple(symbol_of.get(v, v) for v in values)

    def texts(program, db, fact):
        return {
            key: _derivation_text(
                explain(db, Atom(*key)), fact, lambda rule: str(program.rules.index(rule))
            )
            for key in _tuples(db)
        }

    hostile_texts = texts(hostile, db, lambda atom: _fact(back((atom.predicate, atom.args))))
    assert {back(key): text for key, text in hostile_texts.items()} == texts(
        plain, evaluate(plain), print_atom
    )
    assert len(hostile_texts) > len(hostile.facts)


def test_a_stratum_function_reads_all_it_needs_from_the_relations():
    program = parse_program("""
        path(x, y) :- edge(x, y, "K1", 7).
        path(x, z) :- path(x, y), edge(y, z, _, w), w > -3, !cut(z, "K2").
        edge("a", "b", "K1", 7). edge("b", "c", "K2", 1). cut("c", "K2").
    """)
    plans = engine.check_program(program).plans
    assert plans
    for plan in plans:
        # one parameter, no closure and no global but the builtins: every
        # constant and rule ordinal is a literal of its own code
        code = plan.__code__
        assert code.co_varnames[:code.co_argcount] == ("relations",)
        assert plan.__closure__ is None and set(plan.__globals__) <= {"__builtins__", "make"}
    db = evaluate(program)
    assert db["path"] == {("a", "b")}
    assert dict(db.relations) == naive_evaluate(program)


def test_a_negation_over_wildcards_alone_reads_an_index_on_no_columns():
    for facts in ('f("a"). f("b").', 'f("a"). f("b"). e("x", 1).'):
        program = parse_program(f"q(x) :- f(x), !e(_, _).\n.decl e(a: symbol, b: number)\n{facts}")
        db = evaluate(program)
        assert dict(db.relations) == naive_evaluate(program)
        assert db["q"] == (frozenset() if "e(" in facts else {("a",), ("b",)})


def test_a_number_constant_beyond_the_digit_limit_evaluates():
    big = 10**5000  # repr(big) raises where ints convert to text under a digit limit
    x = Var("x")
    rules = [
        Rule(Atom("hit", (x,)), (Atom("p", (x,)), Comparison("=", x, big))),
        Rule(Atom("above", (x,)), (Atom("p", (x,)), Comparison(">", x, -big))),
        Rule(Atom("paired", (x,)), (Atom("p", (x,)), Atom("pair", (x, big)))),
        Rule(Atom("top", (big,)), (Atom("p", (x,)), NegatedAtom(Atom("pair", (x, big + 1))))),
    ]
    facts = [Atom("p", (big,)), Atom("p", (1,)), Atom("pair", (1, big))]
    program = Program({}, rules, facts)
    db = evaluate(program)
    assert db["hit"] == {(big,)} and db["paired"] == {(1,)} and db["top"] == {(big,)}
    # the oracle orders tuples by their repr
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert dict(db.relations) == naive_evaluate(program)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


_X = Var("x")
# a rule whose constant ``c`` stands in each place a constant can take
_RULE_WITH_CONSTANT = {
    "head": lambda c: Rule(Atom("p", (c,)), (Atom("e", (_X, _X)),)),
    "atom": lambda c: Rule(Atom("p", (_X,)), (Atom("e", (_X, c)),)),
    "negation": lambda c: Rule(
        Atom("p", (_X,)), (Atom("e", (_X, _X)), NegatedAtom(Atom("e", (_X, c))))
    ),
    "comparison": lambda c: Rule(Atom("p", (_X,)), (Atom("e", (_X, _X)), Comparison("<", _X, c))),
}


@pytest.mark.parametrize("constant", [True, 1.5, None, b"1"], ids=repr)
@pytest.mark.parametrize("place", sorted(_RULE_WITH_CONSTANT))
def test_a_rule_constant_must_be_str_or_int(place, constant):
    # a bool is an int subclass, but not a number constant: True would match 1
    rule = _RULE_WITH_CONSTANT[place](constant)
    for validate in (engine.check_program, prepare):
        program = Program({"e": ("number", "number"), "p": ("number",)}, [rule])
        with pytest.raises(RangeRestrictionError) as info:
            validate(program)
        assert str(info.value) == (
            f"rule for 'p': constant {constant!r} is neither a symbol (str) nor a number (int)"
        )


@pytest.mark.parametrize(("rules", "error", "message"), [
    (lambda: [Rule(Atom("p", (WILDCARD,)), (Atom("q", (_X,)),))],
     RangeRestrictionError, "rule for 'p': wildcard in rule head"),
    (lambda: [Rule(Atom("p", (_X,)), (Atom("q", (_X,)), Comparison("<", WILDCARD, 1)))],
     RangeRestrictionError, "rule for 'p': wildcard in comparison"),
    ('p(x) :- q(x), x < "a".', SortError, "rule for 'p': comparison over symbol 'a'"),
    ("p(x) :- q(x), y < 1.", RangeRestrictionError,
     "rule for 'p': comparison variable 'y' does not occur in a positive body literal"),
    ("p(x) :- q(x).\np(x) :- q(x, x).", ArityMismatchError,
     "predicate 'q' declared with arity 1, used with 2"),
    ('a(x) :- p(x), x > 1.\nb(y) :- p(y), q(y).\nq("s").', SortError,
     "rule for 'b': variable 'y' is used both as number and as symbol"),
    ('h(x, y) :- p(x), p(y), x > 1, q(y).\nq("s").', SortError,
     "rule for 'h': argument 1 of 'p' is used both as number and as symbol"),
], ids=["head-wildcard", "comparison-wildcard", "comparison-symbol", "comparison-unbound",
        "arity-across-rules", "variable-sort-across-rules", "argument-sort-in-a-rule"])
def test_check_program_rejects_a_malformed_rule(rules, error, message):
    if isinstance(rules, str):
        program = parse_program(rules, validate=False)
    else:
        program = Program(rules=rules())
    with pytest.raises(error) as info:
        engine.check_program(program)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Prepared rule sets
# ---------------------------------------------------------------------------


def _unprepared(program: Program) -> Program:
    return Program(dict(program.declarations), list(program.rules), list(program.facts))


def _outcome(program: Program):
    """What evaluating a program gives: the error, or the model, and the
    derivation and the input leaves of every tuple."""
    try:
        db = evaluate(program)
    except ClaimcheckError as exc:
        return type(exc), str(exc)
    explained = {}
    for key in _tuples(db):
        root = explain(db, Atom(*key))
        explained[key] = _derivation_text(root), root.leaves()
    return dict(db.relations), explained


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
    "symbol": (("x", 7, 1), SortError),
    "variable": ((Var("x"), "a.cc", 1), RangeRestrictionError),
    "bool": (("x", "a.cc", True), RangeRestrictionError),
    "float": (("x", "a.cc", 1.5), RangeRestrictionError),
}


@pytest.mark.parametrize("kind", sorted(_INVALID_ARGS))
@pytest.mark.parametrize(("rules", "relation"), [("msan", "uses"), ("equiv", "exit")])
def test_prepared_rules_reject_invalid_facts_as_check_program_does(rules, relation, kind):
    args, error = _INVALID_ARGS[kind]
    prepared = _small_rules_program(rules)
    assert prepared.declarations[relation] == ("symbol", "symbol", "number")
    prepared.facts += [Atom(relation, args)]
    outcome = _outcome(prepared)
    assert outcome == _outcome(_unprepared(prepared))
    assert outcome[0] is error


def _typed_rules_program(rules: str, args: tuple) -> Program:
    """A rules program built from a hand-made container that holds ``args``
    as one fact: a ``uses`` site, or a code1 ``exit`` whose side tag takes
    the place of the first argument."""
    if rules == "msan":
        fact = SiteFact(*args) if len(args) == 3 else args
        return msan_program(MsanFactSet(uses=frozenset({fact})))
    toy = normalize(random_toy(random.Random(3)))
    bundle = extract_equiv_facts(toy, toy, {})
    code1 = bundle.code1._replace(exits=bundle.code1.exits | {ExitFact(*args[1:])})
    return equiv_rules(bundle._replace(code1=code1), build_pairing(bundle))


# an exit's file must stay a symbol, or its container does not sort
_TYPED_EXIT_KINDS = [
    kind for kind, (args, _) in sorted(_INVALID_ARGS.items())
    if len(args) == 3 and type(args[0]) is str and type(args[1]) is str
]


@pytest.mark.parametrize(
    ("rules", "kind"),
    [("msan", kind) for kind in sorted(_INVALID_ARGS)]
    + [("equiv", kind) for kind in _TYPED_EXIT_KINDS],
)
def test_prepared_rules_reject_invalid_typed_facts_as_check_program_does(rules, kind):
    args, error = _INVALID_ARGS[kind]
    outcome = _outcome(_typed_rules_program(rules, args))
    assert outcome == _outcome(_unprepared(_typed_rules_program(rules, args)))
    assert outcome[0] is error


def test_prepared_rules_declare_a_fact_only_relation_as_check_program_does():
    # check_program declares a relation that only facts name, so both paths
    # accept its facts; sorts clash within it as they do for any relation
    prepared = _small_rules_program("msan")
    prepared.facts += [Atom("note", ("p", 1))]
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


def test_prepared_rules_generate_their_plans_once(monkeypatch, tmp_path, fixtures_dir):
    # fresh rule sets, so that evaluations earlier in this process do not count
    for module in (msan_datalog, equiv_datalog):
        monkeypatch.setattr(module, "_rule_set", functools.cache(module._rule_set.__wrapped__))
    generated, checked = [], []
    plan, check_program = engine._plan, engine.check_program
    monkeypatch.setattr(engine, "_plan", lambda *args: generated.append(args) or plan(*args))
    monkeypatch.setattr(engine, "check_program", lambda p: checked.append(p) or check_program(p))
    msan_input = fixtures_dir / "msan" / "audio_buffer_trace.facts"
    equiv_input = fixtures_dir / "equiv" / "loop_cond_swap.bundle"
    for task, source in (("msan", msan_input), ("equiv", equiv_input)):
        assert main(["export", str(source), "--task", task, "-o", str(tmp_path / task)]) == 0
    assert generated == []

    fs = MsanFactSet(uses=frozenset({SiteFact("p", "a.cc", 1)}))
    bundle = load_equiv_bundle_text(equiv_input.read_text(encoding="utf-8"))
    for build in (lambda: msan_program(fs), lambda: equiv_rules(bundle, build_pairing(bundle))):
        first = evaluate(build())
        assert generated
        generated.clear()
        assert evaluate(build()) == first
        assert generated == []

    # an edited program is checked in full and planned afresh, each time
    for _ in range(2):
        edited = msan_program(fs)
        edited.rules += parse_program("used(x) :- uses(x, _, _).", validate=False).rules
        assert evaluate(edited)["used"] == {("p",)}
        assert checked == [edited] and len(generated) == 6  # 6 rules, one plan each
        checked.clear()
        generated.clear()
    evaluate(msan_program(fs))
    assert checked == [] and generated == []


def test_a_validated_program_is_checked_and_planned_once(monkeypatch):
    program = parse_program(
        'path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z).\n'
        'edge("a", "b"). edge("b", "c").'
    )
    rule_set = program.rule_set
    assert rule_set is not None and rule_set.admits(program)
    generated, checked = [], []
    plan, check_program = engine._plan, engine.check_program
    monkeypatch.setattr(engine, "_plan", lambda *args: generated.append(args) or plan(*args))
    monkeypatch.setattr(engine, "check_program", lambda p: checked.append(p) or check_program(p))
    first = evaluate(program)
    assert first["path"] == {("a", "b"), ("b", "c"), ("a", "c")}
    assert checked == [] and generated
    generated.clear()
    assert evaluate(program) == first
    assert checked == [] and generated == [] and program.rule_set is rule_set

    # check_program returns the rule set it sets; a new one plans afresh
    assert check_program(program) is program.rule_set is not rule_set
    assert evaluate(program) == first and generated


def test_an_empty_segment_declares_nothing():
    rule_set = prepare(parse_program(
        ".decl edge(a: symbol, b: symbol)\npath(x, y) :- edge(x, y).", validate=False
    ))
    for program in (rule_set.program([("note", [])]), Program(segments=[("note", [])])):
        db = evaluate(program)
        assert "note" not in db and "note" not in program.declarations


_SWEEP_RULES = (
    ".decl e(a: symbol, n: number)\n.decl f(n: number)\n.decl g(a: symbol, b: symbol)\n"
    "p(x) :- e(x, _).\nq(n) :- f(n), e(_, n).\nr(a, b) :- g(a, b), !p(a).\n"
)


def _sweep_facts(rng: random.Random) -> list[Atom]:
    """Runs of facts of the declared e, f, g and the undeclared u, then bad
    facts at random positions: single ones, or a whole run made bad alike."""
    good = {
        "e": lambda: (rng.choice("abc"), rng.randint(0, 3)),
        "f": lambda: (rng.randint(0, 3),),
        "g": lambda: (rng.choice("abc"), rng.choice("abc")),
        "u": lambda: (rng.choice("abc"), rng.randint(0, 3)),
    }
    facts = []
    for _ in range(rng.randint(1, 6)):
        name = rng.choice(sorted(good))
        facts += [Atom(name, good[name]()) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("arity", "sort", "bool", "float", "variable"))
        start = rng.randrange(len(facts))
        stop = start + 1
        if rng.random() < 0.4:  # to the end of this run
            while stop < len(facts) and facts[stop].predicate == facts[start].predicate:
                stop += 1
        column = rng.randrange(len(facts[start].args))
        for i in range(start, stop):
            args = list(facts[i].args)
            if kind == "arity":
                args = args[:-1] if column else args + [args[0]]
            elif kind == "sort":
                args[column] = len(args[column]) if type(args[column]) is str else str(args[column])
            else:
                args[column] = {"bool": True, "float": 1.5, "variable": Var("x")}[kind]
            facts[i] = Atom(facts[i].predicate, tuple(args))
        if rng.random() < 0.3:  # the first bad fact moves elsewhere
            facts.insert(rng.randrange(len(facts)), facts.pop(start))
    return facts


def _evaluated(program: Program):
    try:
        return dict(evaluate(program).relations)
    except ClaimcheckError as exc:
        return type(exc), str(exc)


def test_fact_checks_match_the_per_fact_reference():
    rules = parse_program(_SWEEP_RULES, validate=False)
    rule_set = prepare(rules)
    rng = random.Random(20)
    errors = set()
    for _ in range(400):
        facts = _sweep_facts(rng)
        parsed = parse_program(_SWEEP_RULES + "".join(print_atom(f) + "." for f in facts), validate=False)
        built = Program(dict(rules.declarations), list(rules.rules), facts)
        prepared = rule_set.program([
            (name, [fact.args for fact in run])
            for name, run in itertools.groupby(facts, lambda fact: fact.predicate)
        ])
        models = []
        for program in (parsed, built, prepared):
            expected = reference_fact_error(program)
            outcome = _evaluated(program)
            if expected is None:
                models.append(outcome)
            else:
                assert outcome == expected, print_program(program)
                errors.add(expected[0])
        if len(models) == 3:
            assert models[0] == models[1] == models[2]
    assert errors == {ArityMismatchError, SortError, RangeRestrictionError}


# ---------------------------------------------------------------------------
# Pinned derivations
# ---------------------------------------------------------------------------

_TC_RULES = {
    "single": "path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z).\n",
    # reads its own head outside the delta
    "double": "path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), path(y, z).\n",
}


def _pinned_programs(fixtures: Path) -> dict[str, Program]:
    rng = random.Random(19)
    edges = "".join(f'edge("n{rng.randrange(12)}", "n{rng.randrange(12)}").\n' for _ in range(30))
    programs = {f"tc-{name}": parse_program(rules + edges) for name, rules in _TC_RULES.items()}
    programs["msan"] = msan_program(
        load_msan_facts((fixtures / "msan" / "audio_buffer_trace.facts").read_text())
    )
    for path in sorted((fixtures / "equiv").glob("*.bundle")):
        bundle = load_equiv_bundle_text(path.read_text(encoding="utf-8"))
        programs[path.stem] = equiv_rules(bundle, build_pairing(bundle))
    return programs


def _fact(key) -> str:
    name, values = key
    return print_atom(Atom(name, tuple(values)))


def _tuples(db) -> list[tuple[str, tuple]]:
    """Every ``(relation, tuple)`` of the model, in sorted order."""
    return [(name, values) for name in sorted(db.relations) for values in sorted(db[name])]


def _derivation_text(root, fact=print_atom, rule=print_rule) -> str:
    """Each distinct node of a derivation once, in pre-order, with its rule
    and the numbers of its children; ``fact`` and ``rule`` print them."""
    number: dict[int, int] = {}
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in number:
            number[id(node)] = len(order)
            order.append(node)
            stack.extend(reversed(node.children))
    return "".join(
        f"{fact(node.fact)} <- "
        f"{'input' if node.rule is None else rule(node.rule)} "
        f"{[number[id(child)] for child in node.children]}\n"
        for node in order
    )


_PINNED_SHA256 = {
    "tc-single": "0f8500af47b0ef214acf86364f93caa2bd5471cdf31cb6a204a3776520ecdfcc",
    "tc-double": "d58b8e27181da5690c5933fd80842159d813acf2eebded4ab9215e129ed685ee",
    "msan": "0c1418c8db53af2dfca64dcfe6a3235c92deff36f98a12e96ec1e93dbe331e70",
    "field_assign_reorder": "0c6518fdbe0dde572036257a32ad602f43d4e835cd2265ea4bc39830693eb27c",
    "guarded_call_onesided_watch": "ff13d454a42e60bd29c2b987a3e226ff43e69870bb6f4841740052da57e47478",
    "guarded_call_renamed_fn": "f1689228a9a7e582b27c7ec9ac7094570ba7049f6d6d167f3a875780ae6ff9fd",
    "guarded_call_self_pair": "f05928d07ca8529369dc906fe7ea8603fbb19f04f35a41a87ab0310afd061abe",
    "loop_cond_swap": "f74084844882cd32ceebb4471d391eaed31d67fb91a7bd3da99f3f086d7631a7",
    "switch_vs_ifelse": "a61cedaf87152e4e7d3a2a870a3bf0ff94474ef219dbdea38a02b7bf449dcb95",
}


def test_provenance_and_explain_are_pinned(fixtures_dir):
    digests = {}
    for name, program in _pinned_programs(fixtures_dir).items():
        db = evaluate(program)
        text = "".join(_derivation_text(explain(db, Atom(*key))) for key in _tuples(db))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == _PINNED_SHA256


@pytest.mark.parametrize("name", ["tc-single", "tc-double", "msan"])
def test_pinned_derivations_replay(fixtures_dir, name):
    # the equivalence fixtures take the naive oracle seconds to tens of seconds each
    program = _pinned_programs(fixtures_dir)[name]
    db = evaluate(program)
    assert dict(db.relations) == naive_evaluate(program)
    assert _replays_everywhere(program, db)


def test_round_order_in_a_stratum_of_two_predicates():
    # even and odd are one stratum; from the second entry point n16 every
    # later node gets both parities, and link and skip derive some tuples
    # again, so which step a tuple keeps depends on the order of the rounds
    # and of the plans within one
    n = 40
    program = parse_program(
        "even(x) :- zero(x).\n"
        "odd(x) :- start(x).\n"
        "odd(y) :- even(x), succ(x, y).\n"
        "odd(y) :- even(x), link(x, y).\n"
        "even(y) :- odd(x), succ(x, y).\n"
        "even(y) :- odd(x), even(x), skip(x, y).\n"
        + 'zero("n0"). start("n16").\n'
        + "".join(f'succ("n{i}", "n{i + 1}").\n' for i in range(n))
        + "".join(f'link("n{i}", "n{i + 1}").\n' for i in range(0, n, 5))
        + "".join(f'skip("n{i}", "n{i + 2}").\n' for i in range(0, n - 2, 3))
    )
    db = evaluate(program)
    assert ("even", "odd") in program.rule_set.strata
    assert len(db["even"]) + len(db["odd"]) == n + 1 + n - 16 + 1
    assert dict(db.relations) == naive_evaluate(program)
    assert _replays_everywhere(program, db)
    text = "".join(_derivation_text(explain(db, Atom(*key))) for key in _tuples(db))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "315900f57eba3c56b917e3f675f73c54063150a3f3d9085e5c8c647d18887349"
    )


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
