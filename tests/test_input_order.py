"""Verdicts do not depend on input order: shuffling the fact lines of a fact
set, and for a bundle also the order of its three sections, leaves the
verdict, its witness and the full mismatch list unchanged."""

import random

from hypothesis import given, settings, strategies as st

from claimcheck.equivalence import all_mismatches, build_pairing, verify_equiv
from claimcheck.facts import load_equiv_bundle_text, load_msan_facts, split_bundle_sections
from claimcheck.msan import verify_msan
from claimcheck.toy import extract_equiv_facts, normalize

from generators import mutate_toy, random_msan_facts, random_toy


def _shuffled(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.randoms(use_true_random=False))
def test_msan_verdict_ignores_fact_order(seed, order):
    text = random_msan_facts(random.Random(seed), max_flows=12).render()
    verdict = verify_msan(load_msan_facts(text))
    assert verify_msan(load_msan_facts(_shuffled(text, order))).to_json() == verdict.to_json()


def _toy_pair(seed: int):
    rng = random.Random(seed)
    program = normalize(random_toy(rng))
    if rng.random() < 0.25:
        return extract_equiv_facts(program, program)
    mutation = mutate_toy(rng, program)
    return extract_equiv_facts(program, mutation.program, mutation.var_map)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.randoms(use_true_random=False))
def test_equiv_verdict_ignores_fact_and_section_order(seed, order):
    text = _toy_pair(seed).render()
    sections = list(split_bundle_sections(text).items())
    order.shuffle(sections)
    shuffled = "".join(
        f"=== {name} ===\n{_shuffled(body, order)}" for name, body in sections
    )
    bundle, reordered = load_equiv_bundle_text(text), load_equiv_bundle_text(shuffled)
    assert reordered == bundle
    verdict, again = verify_equiv(bundle), verify_equiv(reordered)
    assert again.to_json() == verdict.to_json()
    assert again.mismatches == verdict.mismatches
    assert all_mismatches(reordered, build_pairing(reordered)) == all_mismatches(
        bundle, build_pairing(bundle)
    )
