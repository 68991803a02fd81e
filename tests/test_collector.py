"""The cyclic collector is paused while the package builds fact sets,
programs and derivations in bulk, and every such call leaves the
collector's switch as it found it, on return and on raise."""

import gc
import random
import sys

import pytest

from claimcheck import _collector_paused
from claimcheck.datalog import Atom, evaluate, explain, parse_program
from claimcheck.equiv_datalog import equiv_rules
from claimcheck.equivalence import build_pairing, verify_equiv
from claimcheck.errors import (
    ArityMismatchError,
    ConflictingVarMapError,
    DatalogSyntaxError,
    NotDerivableError,
    UnknownPredicateError,
)
from claimcheck.facts import FlowFact, MsanFactSet, SiteFact, load_equiv_bundle, load_msan_facts
from claimcheck.loop import parse_response
from claimcheck.msan import msan_program, verify_msan
from claimcheck.toy import extract_equiv_facts, normalize

from generators import random_toy

_CONFLICT = (
    'def("x", "f", 1).',
    'def("y", "f", 1). def("z", "f", 2).',
    'varMap("x", "f", 1, "y", "f", 1). varMap("x", "f", 1, "z", "f", 2).',
)
_TRACE = 'uninitialized("a", "f.c", 1).\nflow("a", "f.c", 1, "b", "f.c", 2).\nuses("b", "f.c", 2).\n'
_BUNDLE = '=== code1 ===\ndef("x", "f", 1).\n=== code2 ===\ndef("x", "f", 1).\n'


def _rules():
    bundle = load_equiv_bundle('def("x", "f", 1).', 'def("x", "f", 1).', "")
    return bundle, build_pairing(bundle)


# Each paused entry point: a call that returns, and one that raises with
# the exception it raises.
_CALLS = {
    "load_msan_facts": (lambda: load_msan_facts(_TRACE),
                        lambda: load_msan_facts('bogus("x").'), UnknownPredicateError),
    "load_equiv_bundle": (lambda: load_equiv_bundle(*_CONFLICT),
                          lambda: load_equiv_bundle('bogus("x").', "", ""), UnknownPredicateError),
    "parse_response": (lambda: parse_response("equiv", _BUNDLE + 'bogus("x").\n'),
                       lambda: parse_response("equiv", None), AttributeError),
    "verify_msan": (lambda: verify_msan(load_msan_facts(_TRACE)),
                    lambda: verify_msan(None), AttributeError),
    "verify_equiv": (lambda: verify_equiv(load_equiv_bundle(*_CONFLICT[:2], "")),
                     lambda: verify_equiv(None), AttributeError),
    "build_pairing": (lambda: build_pairing(load_equiv_bundle(*_CONFLICT[:2], "")),
                      lambda: build_pairing(load_equiv_bundle(*_CONFLICT)), ConflictingVarMapError),
    "parse_program": (lambda: parse_program('p("a").'),
                      lambda: parse_program("p("), DatalogSyntaxError),
    "evaluate": (lambda: evaluate(parse_program('p("a"). q(x) :- p(x).')),
                 lambda: evaluate(parse_program("p(x) :- q(x).\np(x) :- q(x, x).", validate=False)),
                 ArityMismatchError),
    "explain": (lambda: explain(evaluate(parse_program('p("a").')), Atom("p", ("a",))),
                lambda: explain(evaluate(parse_program('p("a").')), Atom("p", ("b",))),
                NotDerivableError),
    "msan_program": (lambda: msan_program(load_msan_facts(_TRACE)),
                     lambda: msan_program(None), AttributeError),
    "equiv_rules": (lambda: equiv_rules(*_rules()),
                    lambda: equiv_rules(_rules()[0], None), AttributeError),
}


def _paused_functions() -> set[str]:
    """The names of the package's functions that run under the pause."""
    code = _collector_paused(len).__code__
    return {
        name
        for module, value in list(sys.modules.items())
        if module.startswith("claimcheck")
        for name, value in vars(value).items()
        if getattr(value, "__code__", None) is code
    }


def test_the_calls_cover_every_paused_function():
    assert _paused_functions() == set(_CALLS)


def _switch_kept(enabled: bool, call) -> bool:
    """Whether ``call()`` leaves the collector as ``enabled`` set it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        call()
        return gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("name", sorted(_CALLS))
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_paused_call_leaves_the_collector_as_it_found_it(name, enabled):
    returns, raises, error = _CALLS[name]
    assert _switch_kept(enabled, returns)

    def raising():
        with pytest.raises(error):
            raises()

    assert _switch_kept(enabled, raising)


def test_the_pause_holds_during_the_call_and_keeps_a_callers_own_setting():
    paused = _collector_paused(gc.isenabled)
    nested = _collector_paused(lambda: (paused(), gc.isenabled()))
    assert _switch_kept(True, lambda: (paused(), nested()) == (False, (False, False)))
    assert _switch_kept(False, lambda: (paused(), nested()) == (False, (False, False)))


def _collections_inside(function, call, *args) -> int:
    """The collections that start while the code of ``function`` runs in a
    call of ``call(*args)``, counted from ``gc.callbacks``."""
    code, inside = function.__code__, []

    def count(phase, info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            inside.append(frame is not None)

    gc.collect()
    gc.callbacks.append(count)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(count)
    return sum(inside)


def _chain(steps: int) -> MsanFactSet:
    sites = [SiteFact(f"v{i}", "chain.c", i + 1) for i in range(steps + 1)]
    return MsanFactSet(
        uses=frozenset(sites[-1:]),
        uninitialized=frozenset(sites[:1]),
        flow=frozenset(FlowFact(*a, *b) for a, b in zip(sites, sites[1:])),
    )


def _toy_bundle(seed: int):
    program = normalize(random_toy(random.Random(seed), n_free=3, n_defs=300))
    return extract_equiv_facts(program, program)


def _seeded_calls():
    """Each entry point with its arguments: a few thousand facts each."""
    chain = _chain(2000)
    db = evaluate(msan_program(chain))
    return [
        (load_msan_facts, (chain.render(),)),
        (verify_equiv, (_toy_bundle(5),)),
        (evaluate, (msan_program(chain),)),
        (explain, (db, Atom("satisfied", ()))),
    ]


@pytest.mark.skipif(not gc.isenabled(), reason="the collector is off for this run")
def test_no_collection_runs_inside_a_paused_call_on_thousands_of_facts():
    assert gc.get_threshold()[0] > 0
    for paused, args in _seeded_calls():
        function = paused.__wrapped__
        # the same call without the pause runs collections
        assert _collections_inside(function, function, *args) > 0, function.__name__
        assert _collections_inside(function, paused, *args) == 0, function.__name__
