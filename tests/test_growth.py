"""Growth of the checks on shapes that are legal but large.

- k functions in one file: the bundle is a self pair of k functions, each
  lint-clean: a parameter defined at the entry line, a definition computed
  from it, both control-dependent on the function's own ``Entry:f<i>``, and
  a watched variable used at the function's exit.
- many uninitialized sources on one chain: the first n sites of a 2n-step
  flow chain are uninitialized, the others declared, and the last site is
  used.
- one long chain: an n-step flow chain from one uninitialized site to one
  use, checked on the rules path (build, evaluate, explain the witness),
  from its fact set and, at a larger n, from its text.
- the typed scan and the parser fallback: the text of a chain of n steps,
  and of a toy self pair of n definitions, loaded as it is and with one
  escaped symbol added.
- transitive closure over a path graph, ``evaluate`` alone, as its derived
  tuples grow about 8x; each tuple's slot keeps the step that first derived
  it, which cites its rule by ordinal.

Going from n to 8n, each direct check must grow about linearly in time and
each rules program linearly in input facts and derived tuples, and the
witness derivation linearly in nodes.  A time is the best of at least 5 runs
over at least ``MIN_TOTAL_S``, each after a collection, so that on a busy
host a fast call is not measured by one slow moment.
"""

import gc
import random
import time

import pytest

from claimcheck.datalog import Atom, evaluate, explain, parse_program, parser
from claimcheck.equivalence import EQUIVALENT, build_pairing, equiv_rules, verify_equiv
from claimcheck.facts import (
    FlowFact,
    MsanFactSet,
    SiteFact,
    load_equiv_bundle,
    load_equiv_bundle_text,
    load_msan_facts,
)
from claimcheck.msan import VERIFIED, msan_program, verify_msan
from claimcheck.toy import extract_equiv_facts, normalize

from generators import many_sources_chain, random_toy

N = 100
# per function: 49 input facts (13 per side, 23 of pairing), 8 derived tuples
FACTS_PER_FUNCTION = 50
DERIVED_PER_FUNCTION = 10
SOURCES = 400
# one reach tuple per site and satisfied(): 2n + 2 for n sources
DERIVED_PER_SOURCE = 3
STEPS = 400
# a reach node and a flow leaf per step, plus the ends: 2n + 4 for n steps
NODES_PER_STEP = 3
TEXT_STEPS = 800
MIN_TOTAL_S = 0.3


def _functions(k):
    side = []
    for i in range(k):
        line = 3 * i
        p, r, entry = f"p{i}", f"r{i}", f"Entry:f{i}"
        side += [
            f'entry("f{i}", "m.c", {line}).',
            f'def("{p}", "m.c", {line}).',
            f'controldep("{p}", "m.c", {line}, "{entry}", "true", "m.c", {line}).',
            f'flow("{p}", "m.c", {line}, "{p}", "m.c", {line + 1}).',
            f'use("{p}", "m.c", {line + 1}).',
            f'def("{r}", "m.c", {line + 1}).',
            f'defWithExpr("{r}", "m.c", {line + 1}).',
            f'unaryFun("-", "{p}", "m.c", {line + 1}).',
            f'controldep("{r}", "m.c", {line + 1}, "{entry}", "true", "m.c", {line}).',
            f'flow("{r}", "m.c", {line + 1}, "{r}", "m.c", {line + 2}).',
            f'use("{r}", "m.c", {line + 2}).',
            f'exit("m.c", {line + 2}).',
            f'watchVar("{r}", "m.c", {line + 2}).',
        ]
    text = "\n".join(side) + "\n"
    return load_equiv_bundle(text, text, "")


def _best_time(call):
    """The best time of ``call`` over at least 5 runs and ``MIN_TOTAL_S``,
    and what its last run returned.  Each run starts from a collected heap,
    so that no run pays for the garbage of the one before."""
    best, runs, until = float("inf"), 0, time.perf_counter() + MIN_TOTAL_S
    while runs < 5 or time.perf_counter() < until:
        gc.collect()
        started = time.perf_counter()
        result = call()
        best, runs = min(best, time.perf_counter() - started), runs + 1
    return best, result


def _time_ratio(check, outcome, small, large):
    """Best time of ``check`` on ``large`` over that on ``small``."""
    times = []
    for facts in (small, large):
        best, verdict = _best_time(lambda: check(facts))
        assert verdict.outcome == outcome and not verdict.lint.errors
        times.append(best)
    return times[1] / times[0]


def test_verify_equiv_time_grows_about_linearly():
    assert _time_ratio(verify_equiv, EQUIVALENT, _functions(N), _functions(8 * N)) < 24


def test_verify_msan_time_grows_about_linearly_in_sources():
    small, large = many_sources_chain(SOURCES), many_sources_chain(8 * SOURCES)
    assert _time_ratio(verify_msan, VERIFIED, small, large) < 24


def test_rules_facts_and_derived_tuples_grow_linearly():
    for k in (N, 8 * N):
        bundle = _functions(k)
        program = equiv_rules(bundle, build_pairing(bundle))
        inputs = set(program.facts)
        assert len(inputs) <= FACTS_PER_FUNCTION * k
        db = evaluate(program)
        assert db["equivalent"] == {()}
        derived = sum(map(len, db.relations.values())) - len(inputs)
        assert derived <= DERIVED_PER_FUNCTION * k


def test_msan_rules_derived_tuples_grow_linearly_in_sources():
    for n in (SOURCES, 8 * SOURCES):  # n first: a quadratic rule set fails there
        program = msan_program(many_sources_chain(n))
        db = evaluate(program)
        assert db["satisfied"] == {()}
        derived = sum(map(len, db.relations.values())) - len(set(program.facts))
        assert derived <= DERIVED_PER_SOURCE * n


def _single_source_chain(steps):
    sites = [SiteFact(f"v{i}", "chain.c", i + 1) for i in range(steps + 1)]
    return MsanFactSet(
        uses=frozenset(sites[-1:]),
        uninitialized=frozenset(sites[:1]),
        flow=frozenset(FlowFact(*a, *b) for a, b in zip(sites, sites[1:])),
    )


def _nodes(derivation) -> int:
    """Distinct nodes of a derivation, counted without recursion."""
    seen, stack = set(), [derivation]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


@pytest.mark.parametrize("steps, prepare, load", [
    (STEPS, lambda facts: facts, lambda facts: facts),
    (TEXT_STEPS, MsanFactSet.render, load_msan_facts),
], ids=["facts", "text"])
def test_msan_rules_witness_grows_linearly_in_chain_length(steps, prepare, load):
    times = []
    for n in (steps, 8 * steps):
        source = prepare(_single_source_chain(n))
        best, witness = _best_time(
            lambda: explain(evaluate(msan_program(load(source))), Atom("satisfied", ()))
        )
        times.append(best)
        assert sum(leaf.predicate == "flow" for leaf in witness.leaves()) == n
        assert _nodes(witness) <= NODES_PER_STEP * n
    assert times[1] / times[0] < 24


# One escaped symbol sends the whole text through the Datalog parser and
# the checks on atoms: the fact scan reads no escapes.
ESCAPED = SiteFact('esc"aped', "chain.c", 0)
CHAIN_STEPS = 250
TOY_DEFINITIONS = 40


def _chain_text(steps):
    return _single_source_chain(steps).render()


def _toy_text(definitions):
    rng = random.Random(definitions)
    program = normalize(random_toy(rng, n_free=2, n_defs=definitions))
    return extract_equiv_facts(program, program).render()


def _escaped_chain_text(steps):
    return _chain_text(steps) + 'uses("esc\\"aped", "chain.c", 0).\n'


def _escaped_toy_text(definitions):
    return _toy_text(definitions).replace(
        "=== code2 ===", 'use("esc\\"aped", "chain.c", 0).\n=== code2 ==='
    )


def _load_grows_about_linearly(load, text_of, n, check):
    times = []
    for text in (text_of(n), text_of(8 * n)):
        best, loaded = _best_time(lambda: load(text))
        assert check(loaded)
        times.append(best)
    assert times[1] / times[0] < 24


@pytest.mark.parametrize("load, text_of, n, uses", [
    (load_msan_facts, _escaped_chain_text, CHAIN_STEPS, lambda facts: facts.uses),
    (load_equiv_bundle_text, _escaped_toy_text, TOY_DEFINITIONS, lambda bundle: bundle.code1.uses),
], ids=["msan-chain", "toy-bundle"])
def test_parser_fallback_load_grows_about_linearly(load, text_of, n, uses):
    _load_grows_about_linearly(load, text_of, n, lambda loaded: ESCAPED in uses(loaded))


def _no_parser(source):
    raise AssertionError("the typed scan sent this text to the parser")


@pytest.mark.parametrize("load, text_of, n", [
    (load_msan_facts, _chain_text, CHAIN_STEPS),
    (load_equiv_bundle_text, _toy_text, TOY_DEFINITIONS),
], ids=["msan-chain", "toy-bundle"])
def test_typed_scan_load_grows_about_linearly(monkeypatch, load, text_of, n):
    # the argument patterns read these texts alone, without backtracking
    # blow-ups: no parser fallback hides a slow scan
    monkeypatch.setattr(parser, "parse_facts", _no_parser)
    _load_grows_about_linearly(load, text_of, n, lambda loaded: len(loaded) > n)


# a path graph of n edges has n(n + 1)/2 paths: 7,260, then 57,970 (8.0x)
PATH_EDGES = (120, 340)


def _path_graph(edges):
    return parse_program(
        "path(x, y) :- edge(x, y).\npath(x, z) :- path(x, y), edge(y, z).\n"
        + "".join(f'edge("n{i}", "n{i + 1}").\n' for i in range(edges))
    )


def test_tc_evaluate_grows_about_linearly_in_derived_tuples():
    times = []
    for edges in PATH_EDGES:
        program = _path_graph(edges)
        best, db = _best_time(lambda: evaluate(program))
        assert len(db["edge"]) == edges
        assert len(db["path"]) == edges * (edges + 1) // 2
        times.append(best)
    assert times[1] / times[0] < 24
