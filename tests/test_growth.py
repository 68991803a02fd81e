"""Growth of the checks on shapes that are legal but large.

- k functions in one file: the bundle is a self pair of k functions, each
  lint-clean: a parameter defined at the entry line, a definition computed
  from it, both control-dependent on the function's own ``Entry:f<i>``, and
  a watched variable used at the function's exit.
- many uninitialized sources on one chain: the first n sites of a 2n-step
  flow chain are uninitialized, the others declared, and the last site is
  used.

Going from n to 8n, each direct check must grow about linearly in time and
each rules program linearly in input facts and derived tuples.
"""

import time

from claimcheck.datalog import evaluate
from claimcheck.equivalence import EQUIVALENT, build_pairing, equiv_rules, verify_equiv
from claimcheck.facts import load_equiv_bundle
from claimcheck.msan import VERIFIED, msan_program, verify_msan

from generators import many_sources_chain

N = 100
# per function: 49 input facts (13 per side, 23 of pairing), 8 derived tuples
FACTS_PER_FUNCTION = 50
DERIVED_PER_FUNCTION = 10
SOURCES = 400
# one reach tuple per site and satisfied(): 2n + 2 for n sources
DERIVED_PER_SOURCE = 3


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


def _time_ratio(check, outcome, small, large):
    """Best-of-5 time of ``check`` on ``large`` over that on ``small``."""
    times = []
    for facts in (small, large):
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            verdict = check(facts)
            best = min(best, time.perf_counter() - started)
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
