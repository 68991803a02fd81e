"""The loaders' typed fact scan against the full parser and the checks on
atoms, which it must match fact for fact and error for error."""

import json
import random

from hypothesis import given, settings, strategies as st

from claimcheck import facts
from claimcheck.datalog import parser
from claimcheck.facts import (
    EQUIV,
    _ABBREVIATED,
    CORRESPONDENCE_SORTS,
    MSAN_SORTS,
    SIDE_SORTS,
    load_equiv_bundle,
    load_equiv_bundle_text,
    load_msan_facts,
    split_bundle_sections,
)
from claimcheck.loop import parse_response
from claimcheck.toy import extract_equiv_facts, extract_msan_facts, normalize, parse_toy

from generators import mutate_toy, random_toy
from oracles import load_outcome, reference_load_equiv_bundle, reference_load_msan_facts


def _forms(sorts: dict[str, tuple[str, ...]], abbreviated: bool) -> list[tuple[str, tuple]]:
    """Each predicate with the argument sorts of its canonical and, where the
    vocabulary has one, its abbreviated form."""
    forms = []
    for predicate, canonical in sorts.items():
        forms.append((predicate, canonical))
        slots, _ = _ABBREVIATED.get(predicate, ((), "")) if abbreviated else ((), "")
        if slots:
            forms.append((predicate, tuple(s for i, s in enumerate(canonical) if i not in slots)))
    return forms


_MSAN_FORMS = _forms(MSAN_SORTS, abbreviated=False)
_SIDE_FORMS = _forms(SIDE_SORTS, abbreviated=True)
_SIDE_FORMS += [("outputVar", sorts) for predicate, sorts in _SIDE_FORMS if predicate == "watchVar"]
_CORRESPONDENCE_FORMS = _forms(CORRESPONDENCE_SORTS, abbreviated=True)
# every form of every vocabulary, and a predicate of none
_ANY_FORM = _MSAN_FORMS + _SIDE_FORMS + _CORRESPONDENCE_FORMS + [("mystery", ("number",))]

# constants the scan reads, and the rest of the dialect, which it leaves to
# the parser: escapes, negative numbers, variables, wildcards
_TERMS = {
    "symbol": [
        '"x"', '"y"', '"main.cpp"', '"a//b"', '"a/b"', '""', '"TRUE"', '"é"', "true", "false"
    ],
    "number": ["0", "3", "8", "007", "٣"],
}
_ANY_TERM = [*_TERMS["symbol"], *_TERMS["number"], '"q\\"uote"', '"back\\\\slash"', "-1", "x", "_"]
_GAP = ["", "", "", " ", "\n", "\t"]
_NOISY_GAP = _GAP + [" // c\n"]  # a comment inside a fact
_END = [".\n", ".\n", ". ", "."]
_NOISY_END = _END + [".decl p(a: number)", ""]


@st.composite
def _statement(draw, forms, noisy):
    """One fact of a form of ``forms``; if ``noisy``, sometimes of another
    vocabulary, of no form, with a wrong or unscannable constant, a comment
    inside or a declaration after it."""
    chance = lambda: noisy and not draw(st.integers(0, 9))
    predicate, sorts = draw(st.sampled_from(_ANY_FORM if chance() else forms))
    if chance() and chance():
        sorts = draw(st.lists(st.sampled_from(["symbol", "number"]), max_size=8))
    args = [draw(st.sampled_from(_ANY_TERM if chance() else _TERMS[sort])) for sort in sorts]
    gap = lambda: draw(st.sampled_from(_NOISY_GAP if chance() else _GAP))
    inner = (gap() + "," + gap()).join(args)
    end = draw(st.sampled_from(_NOISY_END if chance() else _END))
    return f"{gap()}{predicate}{gap()}({gap()}{inner}{gap()}){gap()}{end}"


@st.composite
def _document(draw, forms):
    noisy = draw(st.booleans())
    statements = draw(st.lists(
        st.one_of(_statement(forms, noisy), _statement(forms, noisy), st.just("// comment\n")),
        max_size=8,
    ))
    if statements and draw(st.booleans()):  # a duplicate
        statements.append(draw(st.sampled_from(statements)))
    return "".join(statements)


@settings(max_examples=500, deadline=None)
@given(_document(_MSAN_FORMS))
def test_msan_loader_matches_the_parser(text):
    assert load_outcome(load_msan_facts, text) == load_outcome(reference_load_msan_facts, text)


@settings(max_examples=500, deadline=None)
@given(_document(_SIDE_FORMS), _document(_SIDE_FORMS), _document(_CORRESPONDENCE_FORMS))
def test_equiv_loader_matches_the_parser(code1, code2, correspondence):
    texts = (code1, code2, correspondence)
    assert load_outcome(load_equiv_bundle, *texts) == load_outcome(
        reference_load_equiv_bundle, *texts
    )


def _no_parser(source):
    raise AssertionError(f"the typed scan sent this text to the parser: {source!r}")


def test_corpus_and_extracted_facts_load_without_the_parser(monkeypatch, fixtures_dir):
    monkeypatch.setattr(parser, "parse_facts", _no_parser)
    manifest = json.loads((fixtures_dir / "corpus.json").read_text())
    assert len(manifest["fixtures"]) == 7
    for entry in manifest["fixtures"]:
        text = (fixtures_dir / entry["path"]).read_text()
        loaded = (load_msan_facts if entry["task"] == "msan" else load_equiv_bundle_text)(text)
        assert len(loaded.render()) > 100

    def toy(name):
        return normalize(parse_toy((fixtures_dir / "toy" / name).read_text()))

    pairs = [(toy("guarded_call_a.toy"), toy("guarded_call_b.toy"), None)]
    rng = random.Random(11)
    for _ in range(20):
        program = normalize(random_toy(rng))
        mutation = mutate_toy(rng, program)
        pairs.append((program, mutation.program, mutation.var_map))
    for program1, program2, var_map in pairs:
        bundle = extract_equiv_facts(program1, program2, var_map)
        assert load_equiv_bundle_text(bundle.render()) == bundle
    facts = extract_msan_facts(toy("copy_chain.toy"), {"a"})
    assert len(facts) and load_msan_facts(facts.render()) == facts


def test_a_bundle_looks_up_each_form_once_for_its_sections(monkeypatch, fixtures_dir):
    # loop_cond_swap writes 10 side predicates, each in one form in both
    # sides, and 2 map predicates: 12 forms, which each section looked up
    # again before (44 lookups)
    calls = []
    forms = facts._forms

    def counted(relation, source, pos):
        calls.append(relation.field)
        return forms(relation, source, pos)

    monkeypatch.setattr(facts, "_forms", counted)
    for path in sorted((fixtures_dir / "equiv").glob("*.bundle")):
        sections = split_bundle_sections(path.read_text())
        texts = [sections[name] for name in ("code1", "code2", "correspondence")]
        calls.clear()
        assert load_equiv_bundle(*texts) == reference_load_equiv_bundle(*texts)
        if path.name == "loop_cond_swap.bundle":
            assert len(calls) == 12
        assert len(calls) == len(set(calls)) > 0


def test_a_response_scans_each_section_as_one_load(monkeypatch, fixtures_dir):
    # read as a response, loop_cond_swap's 101 fact lines are one load per
    # table of relations, so each of its 12 forms is looked up once, as in
    # the bundle's own load (each line looked them all up again before)
    text = (fixtures_dir / "equiv" / "loop_cond_swap.bundle").read_text()
    calls = []
    forms = facts._forms

    def counted(relation, source, pos):
        calls.append(relation.field)
        return forms(relation, source, pos)

    monkeypatch.setattr(facts, "_forms", counted)
    bundle, failures = parse_response(EQUIV, text)
    assert len(calls) == 12 == len(set(calls))
    assert failures == [] and bundle == load_equiv_bundle_text(text)


# lines that the scan does not read, by the marker they follow
_UNREADABLE = {
    "=== code1 ===": ['use("x", "main.cpp").', 'bogus("x", "main.cpp", 1).'],
    "=== code2 ===": ['def("x" "main.cpp", 1).'],
    "=== correspondence ===": ['varMap("a", 1).'],
}


def test_each_unreadable_response_line_reports_its_own_failure(fixtures_dir):
    # a side fact before any marker has no section; then a wrong arity, a
    # predicate outside the vocabulary, a syntax error and a map's wrong arity
    text = (fixtures_dir / "equiv" / "loop_cond_swap.bundle").read_text()
    damaged, expected = ['def("x", "s.cpp", 1).'], [(1, "def: no Code1/Code2 attribution")]
    for line in text.splitlines():
        damaged.append(line)
        for bad in _UNREADABLE.get(line, ()):
            damaged.append(bad)
            # the reason that the line gives alone in its section
            [(_, reason)] = parse_response(EQUIV, f"{line}\n{bad}\n")[1]
            expected.append((len(damaged), reason))
    bundle, failures = parse_response(EQUIV, "\n".join(damaged))
    assert failures == expected and len(set(reason for _, reason in failures)) == 5
    assert bundle == load_equiv_bundle_text(text)
