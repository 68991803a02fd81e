"""Growth of the equivalence check with the number of functions in a bundle.

The bundle is a self pair of k functions in one file, each lint-clean: a
parameter defined at the entry line, a definition computed from it, both
control-dependent on the function's own ``Entry:f<i>``, and a watched
variable used at the function's exit.  Going from k = n to k = 8n, the
direct check must grow about linearly in time and the rules program
linearly in input facts and derived tuples.
"""

import time

from claimcheck.datalog import evaluate
from claimcheck.equivalence import EQUIVALENT, build_pairing, equiv_rules, verify_equiv
from claimcheck.facts import load_equiv_bundle

N = 100
# per function: 49 input facts (13 per side, 23 of pairing), 8 derived tuples
FACTS_PER_FUNCTION = 50
DERIVED_PER_FUNCTION = 10


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


def _best_of_5(bundle):
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        verdict = verify_equiv(bundle)
        best = min(best, time.perf_counter() - started)
    assert verdict.outcome == EQUIVALENT and not verdict.lint.errors
    return best


def test_verify_equiv_time_grows_about_linearly():
    small, large = _functions(N), _functions(8 * N)
    assert _best_of_5(large) / _best_of_5(small) < 24


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
