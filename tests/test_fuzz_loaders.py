"""Loaders must either produce a typed value or raise a documented error,
never crash, on arbitrary well-formed fact text."""

from hypothesis import given, settings, strategies as st

from claimcheck.datalog.ast import Atom, print_atom
from claimcheck.errors import (
    ArityMismatchError,
    SortError,
    UnknownPredicateError,
    DanglingMapReferenceError,
)
from claimcheck.facts import (
    MSAN_PREDICATES,
    SIDE_PREDICATES,
    CORRESPONDENCE_PREDICATES,
    load_equiv_bundle,
    load_msan_facts,
)

_name = st.sampled_from(
    MSAN_PREDICATES + SIDE_PREDICATES + CORRESPONDENCE_PREDICATES + ("mystery",)
)
_term = st.one_of(
    st.integers(min_value=-3, max_value=2000),
    st.sampled_from(["x", "y", "main.cpp", "a/b.cc", "true", ""]),
)
_atoms = st.lists(
    st.builds(
        Atom, _name, st.lists(_term, min_size=0, max_size=8).map(tuple)
    ),
    max_size=10,
)

_DOCUMENTED = (ArityMismatchError, SortError, UnknownPredicateError)


def _render(atoms):
    return "".join(print_atom(a) + ".\n" for a in atoms)


@settings(max_examples=300, deadline=None)
@given(_atoms)
def test_msan_loader_is_total_or_raises_documented_errors(atoms):
    try:
        facts = load_msan_facts(_render(atoms))
    except _DOCUMENTED:
        return
    assert load_msan_facts(facts.render()) == facts


@settings(max_examples=300, deadline=None)
@given(_atoms, _atoms, _atoms)
def test_equiv_loader_is_total_or_raises_documented_errors(code1, code2, corr):
    try:
        bundle = load_equiv_bundle(_render(code1), _render(code2), _render(corr))
    except _DOCUMENTED + (DanglingMapReferenceError,):
        return
    from claimcheck.equivalence import verify_equiv
    from claimcheck.errors import ConflictingVarMapError
    from claimcheck.facts import load_equiv_bundle_text

    assert load_equiv_bundle_text(bundle.render()) == bundle
    try:
        verdict = verify_equiv(bundle)
    except ConflictingVarMapError:
        return
    assert verdict.outcome in ("Equivalent", "NotEquivalent", "Inconclusive")


@settings(max_examples=200, deadline=None)
@given(_atoms)
def test_msan_verifier_is_total_on_loaded_sets(atoms):
    from claimcheck.msan import verify_msan

    try:
        facts = load_msan_facts(_render(atoms))
    except _DOCUMENTED:
        return
    assert verify_msan(facts).outcome in ("Verified", "DontKnow")
