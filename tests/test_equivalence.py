import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from claimcheck.datalog import engine, evaluate, parse_facts, print_atom
from claimcheck.equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    all_mismatches,
    build_pairing,
    check_watchvars,
    diff_structure,
    equiv_rules,
    verify_equiv,
)
from claimcheck.errors import ClaimcheckError, ConflictingVarMapError
from claimcheck.facts import (
    BinaryFact,
    CondExprFact,
    ControlDepFact,
    EntryFact,
    EntryMapFact,
    EquivBundle,
    EquivSide,
    ExitFact,
    ExitMapFact,
    FlowFact,
    SIDE_FIELDS,
    SiteFact,
    UnaryFact,
    VarMapFact,
    fact_text,
    load_equiv_bundle,
    load_equiv_bundle_text,
)
from claimcheck.toy import extract_equiv_facts, normalize, oracle_equiv

from generators import mutate_toy, random_toy, two_file_self_pair


def _load(fixtures_dir, name):
    return load_equiv_bundle_text((fixtures_dir / "equiv" / name).read_text())


def _with_watchvars(bundle, names, line=8):
    watch = frozenset(SiteFact(v, "main.cpp", line) for v in names)
    return bundle._replace(
        code1=bundle.code1._replace(watch_vars=watch),
        code2=bundle.code2._replace(watch_vars=watch),
    )


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def test_fixture_pairs_completely(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    pairing = build_pairing(bundle)
    names = {v: v for v in ("0", "2", "a", "b", "c", "d")}
    assert pairing.code1.var_map == pairing.code2.var_map == names
    assert len(pairing.code1.def_site_pairs) == len(pairing.code2.def_site_pairs) == 7
    assert not any(m.kind == "unpaired_def" for m in diff_structure(bundle, pairing))


def test_empty_bundle_pairs_to_nothing():
    pairing = build_pairing(EquivBundle(EquivSide(), EquivSide()))
    assert not pairing.cond_site_pairs
    for half in (pairing.code1, pairing.code2):
        assert not any(getattr(half, name) for name in half._fields)


def test_reordered_defs_pair_by_ordinal_across_lines(fixtures_dir):
    bundle = _load(fixtures_dir, "field_assign_reorder.bundle")
    pairing = build_pairing(bundle)
    pairs = {
        (var1, site1[1], site2[1])
        for var1, site1, _, site2 in pairing.code1.def_site_pairs
    }
    assert ("cache->size", 32, 27) in pairs
    assert ("cache->arr", 27, 28) in pairs
    assert pairing.code2.def_site_pairs == [
        (var2, site2, var1, site1) for var1, site1, var2, site2 in pairing.code1.def_site_pairs
    ]


def test_var_map_pairs_before_identical_names():
    bundle = load_equiv_bundle(
        'def("x", "f", 1).', 'def("y", "f", 1).', 'varMap("x", "f", 1, "y", "f", 1).'
    )
    pairing = build_pairing(bundle)
    assert pairing.code1.var_map == {"x": "y"}
    assert pairing.code2.var_map == {"y": "x"}


def test_conflicting_var_map_is_rejected():
    bundle = load_equiv_bundle(
        'def("x", "f", 1).',
        'def("y", "f", 1). def("z", "f", 2).',
        'varMap("x", "f", 1, "y", "f", 1). varMap("x", "f", 1, "z", "f", 2).',
    )
    with pytest.raises(ConflictingVarMapError):
        build_pairing(bundle)


# ---------------------------------------------------------------------------
# Structural diff
# ---------------------------------------------------------------------------


def test_fixture_diff_is_exactly_the_renamed_call(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    mismatches = diff_structure(bundle, build_pairing(bundle))
    assert len(mismatches) == 1
    only = mismatches[0]
    assert only.kind == "expr_mismatch" and only.line == 6
    assert 'unaryFun("foo", "a", "main.cpp", 6)' in only.side1
    assert 'unaryFun("bar", "a", "main.cpp", 6)' in only.side2


def test_identical_sides_have_empty_diff(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    identical = bundle._replace(code2=bundle.code1)
    assert diff_structure(identical, build_pairing(identical)) == []


def test_reordered_assignment_yields_controldep_mismatch(fixtures_dir):
    bundle = _load(fixtures_dir, "field_assign_reorder.bundle")
    mismatches = diff_structure(bundle, build_pairing(bundle))
    assert [m.kind for m in mismatches] == ["controldep_mismatch"]
    assert mismatches[0].subject == "cache->size"


def test_operand_order_is_significant(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    swapped_binary = {
        f._replace(left=f.right, right=f.left) for f in bundle.code2.binary
    }
    mutated = bundle._replace(
        code2=bundle.code2._replace(binary=frozenset(swapped_binary)),
    )
    kinds = {m.kind for m in diff_structure(mutated, build_pairing(mutated))}
    assert "expr_mismatch" in kinds
    sites = {
        (m.line, m.kind) for m in diff_structure(mutated, build_pairing(mutated))
    }
    assert (3, "expr_mismatch") in sites  # the a == b comparison site


# ---------------------------------------------------------------------------
# Watch variables
# ---------------------------------------------------------------------------


def test_watchvar_reaching_defs_pair(renamed_fn_bundle_text):
    bundle = _with_watchvars(
        load_equiv_bundle_text(renamed_fn_bundle_text), ("a", "b", "c", "d")
    )
    mismatches = check_watchvars(bundle, build_pairing(bundle))
    assert mismatches == []


def test_zero_watchvars_is_vacuous(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    assert check_watchvars(bundle, build_pairing(bundle)) == []


def test_deleted_watchvar_is_reported(renamed_fn_bundle_text):
    bundle = _with_watchvars(
        load_equiv_bundle_text(renamed_fn_bundle_text), ("a", "b", "c", "d")
    )
    mutated = bundle._replace(
        code2=bundle.code2._replace(
            watch_vars=frozenset(
                f for f in bundle.code2.watch_vars if f.var != "d"
            ),
        ),
    )
    mismatches = check_watchvars(mutated, build_pairing(mutated))
    assert [m.kind for m in mismatches] == ["watchvar_unmatched"]
    assert mismatches[0].subject == "d"


def test_changed_reaching_def_is_reported(renamed_fn_bundle_text):
    bundle = _with_watchvars(
        load_equiv_bundle_text(renamed_fn_bundle_text), ("a", "b", "c", "d")
    )
    pruned = frozenset(
        f
        for f in bundle.code2.flows
        if not (f.src_var == "d" and f.src_line == 6 and f.dst_line == 8)
    )
    mutated = bundle._replace(
        code2=bundle.code2._replace(flows=pruned)
    )
    kinds = {m.kind for m in check_watchvars(mutated, build_pairing(mutated))}
    assert "reaching_defs_differ" in kinds


@pytest.mark.parametrize("tag", ["code1", "code2"])
def test_resited_watched_flow_into_an_exit_differs(tag):
    """Moving one side's flow of a watch variable into the exit to a line
    that defines nothing reports the moved flow from that side and the
    original, now without an image, from the other; the rules agree."""
    program = normalize(random_toy(random.Random(7)))
    bundle = extract_equiv_facts(program, program)
    here = bundle.side(tag)
    watched = {f.var for f in here.watch_vars}
    exits = {(f.file, f.line) for f in here.exits}
    flow = max(
        f for f in here.flows
        if f.src_var == f.dst_var and f.src_var in watched
        and (f.dst_file, f.dst_line) in exits
    )
    moved = flow._replace(src_line=program.line_count + 5)
    edited = here._replace(flows=here.flows - {flow} | {moved})
    bundle = bundle._replace(**{tag: edited})
    differ = {
        (m.line, m.side1 + m.side2, bool(m.side1))  # bool: from code1
        for m in check_watchvars(bundle, build_pairing(bundle))
        if m.kind == "reaching_defs_differ"
    }
    assert differ == {
        (moved.src_line, (fact_text("flow", moved),), tag == "code1"),
        (flow.src_line, (fact_text("flow", flow),), tag == "code2"),
    }
    for candidate in (bundle, bundle.swapped()):
        pairing = build_pairing(candidate)
        direct = {m.project() for m in all_mismatches(candidate, pairing)}
        assert evaluate(equiv_rules(candidate, pairing))["mismatch"] == direct


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_fixture_verdicts(fixtures_dir, renamed_fn_bundle_text):
    assert verify_equiv(load_equiv_bundle_text(renamed_fn_bundle_text)).outcome == NOT_EQUIVALENT
    assert verify_equiv(_load(fixtures_dir, "field_assign_reorder.bundle")).outcome == NOT_EQUIVALENT
    assert verify_equiv(_load(fixtures_dir, "loop_cond_swap.bundle")).outcome == NOT_EQUIVALENT
    assert verify_equiv(_load(fixtures_dir, "switch_vs_ifelse.bundle")).outcome == NOT_EQUIVALENT
    assert verify_equiv(_load(fixtures_dir, "guarded_call_self_pair.bundle")).outcome == EQUIVALENT
    assert verify_equiv(_load(fixtures_dir, "guarded_call_onesided_watch.bundle")).outcome == INCONCLUSIVE


def test_identity_is_equivalent(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    identical = bundle._replace(code2=bundle.code1)
    assert verify_equiv(identical).outcome == EQUIVALENT


def test_all_watchvars_deleted_from_one_side_is_inconclusive(renamed_fn_bundle_text):
    bundle = _with_watchvars(
        load_equiv_bundle_text(renamed_fn_bundle_text), ("a", "b", "c", "d")
    )
    mutated = bundle._replace(
        code1=bundle.code1._replace(watch_vars=frozenset())
    )
    verdict = verify_equiv(mutated)
    assert verdict.outcome == INCONCLUSIVE
    assert any("watch" in message for message in verdict.obligations)


def test_symmetry_of_verdicts(fixtures_dir, renamed_fn_bundle_text):
    for name in (
        "guarded_call_renamed_fn.bundle",
        "field_assign_reorder.bundle",
        "loop_cond_swap.bundle",
        "switch_vs_ifelse.bundle",
        "guarded_call_self_pair.bundle",
        "guarded_call_onesided_watch.bundle",
    ):
        bundle = _load(fixtures_dir, name)
        forward = verify_equiv(bundle)
        backward = verify_equiv(bundle.swapped())
        assert forward.outcome == backward.outcome
        if forward.outcome == NOT_EQUIVALENT:
            assert forward.witness.kind == backward.witness.kind


def test_every_mismatch_names_concrete_facts():
    rng = random.Random(31337)
    seen_kinds = set()
    for _ in range(120):
        base = normalize(random_toy(rng))
        mutation = mutate_toy(rng, base)
        bundle = extract_equiv_facts(base, mutation.program, mutation.var_map)
        verdict = verify_equiv(bundle)
        for mismatch in verdict.mismatches:
            seen_kinds.add(mismatch.kind)
            assert mismatch.side1 or mismatch.side2, mismatch
    assert "expr_mismatch" in seen_kinds


def test_claims_missing_a_predicate_verify_equivalent_only_when_the_sides_agree():
    # Pairs the oracle tells apart, each with one side predicate deleted on
    # both sides: what is left may verify Equivalent only if the two sides
    # claim the same facts, for then nothing compared them at all.
    rng = random.Random(777)
    pairs = 0
    for _ in range(300):
        base = normalize(random_toy(rng))
        mutation = mutate_toy(rng, base)
        if mutation.var_map or oracle_equiv(base, mutation.program):
            continue
        pairs += 1
        bundle = extract_equiv_facts(base, mutation.program)
        for field, predicate, _ in SIDE_FIELDS:
            stripped = bundle._replace(**{
                side: getattr(bundle, side)._replace(**{field: frozenset()})
                for side in ("code1", "code2")
            })
            if verify_equiv(stripped).outcome == EQUIVALENT:
                assert stripped.code1 == stripped.code2, (predicate, mutation.kind)
    assert pairs > 100


def test_witness_is_deterministic(renamed_fn_bundle_text):
    runs = {
        verify_equiv(load_equiv_bundle_text(renamed_fn_bundle_text)).witness.detail
        for _ in range(3)
    }
    assert len(runs) == 1


def test_loop_cond_swap_witness_names_controldep(fixtures_dir):
    verdict = verify_equiv(_load(fixtures_dir, "loop_cond_swap.bundle"))
    assert verdict.witness.kind == "controldep_mismatch"
    assert all(m.kind == "controldep_mismatch" for m in verdict.mismatches)


def test_renaming_invariance(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    renamed_side = EquivSide(
        uses=frozenset(f._replace(var=f.var + "_r") for f in bundle.code2.uses),
        defs=frozenset(f._replace(var=f.var + "_r") for f in bundle.code2.defs),
        flows=frozenset(
            f._replace(src_var=f.src_var + "_r", dst_var=f.dst_var + "_r")
            for f in bundle.code2.flows
        ),
        controldeps=frozenset(
            f._replace(var=f.var + "_r", cond=f.cond + "_r")
            for f in bundle.code2.controldeps
        ),
        def_with_expr=frozenset(
            f._replace(var=f.var + "_r") for f in bundle.code2.def_with_expr
        ),
        unary=frozenset(
            f._replace(operand=f.operand + "_r") for f in bundle.code2.unary
        ),
        binary=frozenset(
            f._replace(left=f.left + "_r", right=f.right + "_r")
            for f in bundle.code2.binary
        ),
        entries=bundle.code2.entries,
        exits=bundle.code2.exits,
        constants=frozenset(c + "_r" for c in bundle.code2.constants),
        watch_vars=frozenset(
            f._replace(var=f.var + "_r") for f in bundle.code2.watch_vars
        ),
    )
    var_maps = frozenset(
        VarMapFact(v, "main.cpp", 0, v + "_r", "main.cpp", 0)
        for v in ("0", "2", "a", "b", "c", "d")
    )
    renamed = bundle._replace(code2=renamed_side, var_maps=var_maps)
    verdict = verify_equiv(renamed)
    # still exactly the foo/bar call difference, nothing about the renaming
    assert verdict.outcome == NOT_EQUIVALENT
    assert {m.kind for m in verdict.mismatches} == {"expr_mismatch"}
    assert len(verdict.mismatches) == 1


# ---------------------------------------------------------------------------
# The generated Datalog program
# ---------------------------------------------------------------------------


def test_rules_path_on_fixture(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    pairing = build_pairing(bundle)
    db = evaluate(equiv_rules(bundle, pairing))
    assert len(db["mismatch"]) == 1
    assert db["equivalent"] == frozenset()
    identical = bundle._replace(code2=bundle.code1)
    db = evaluate(equiv_rules(identical, build_pairing(identical)))
    assert db["mismatch"] == frozenset()
    assert db["equivalent"] == {()}


def test_rules_path_agrees_on_all_fixtures(fixtures_dir):
    for name in (
        "guarded_call_renamed_fn.bundle",
        "field_assign_reorder.bundle",
        "loop_cond_swap.bundle",
        "switch_vs_ifelse.bundle",
        "guarded_call_self_pair.bundle",
    ):
        bundle = _load(fixtures_dir, name)
        pairing = build_pairing(bundle)
        direct = {m.project() for m in all_mismatches(bundle, pairing)}
        db = evaluate(equiv_rules(bundle, pairing))
        assert set(db["mismatch"]) == direct, name
        assert bool(db["equivalent"]) == (not direct), name


def test_rules_path_agrees_on_random_toy_pairs():
    rng = random.Random(2024)
    for _ in range(100):
        program = normalize(random_toy(rng))
        mutation = mutate_toy(rng, program)
        bundle = extract_equiv_facts(program, mutation.program, mutation.var_map)
        pairing = build_pairing(bundle)
        direct = {m.project() for m in all_mismatches(bundle, pairing)}
        db = evaluate(equiv_rules(bundle, pairing))
        assert set(db["mismatch"]) == direct, mutation.kind
        assert bool(db["equivalent"]) == (not direct)


def _crowded_site(rng):
    """A toy self-pair whose one paired definition site also holds 50 to 80
    paired unaryFun/binaryFun/controldep facts (code1 names p*, code2 names
    q*, paired by varMap; entry conditions differ in name), and then up to
    three of code2's facts with an operand or branch changed."""
    program = normalize(random_toy(rng))
    bundle = extract_equiv_facts(program, program)
    var1, (f1, l1), var2, (f2, l2) = rng.choice(build_pairing(bundle).code1.def_site_pairs)
    names = [f"p{i}" for i in range(5)]
    twin = {name: "q" + name[1:] for name in names}
    twin.update({"Entry": "Entry:main", "Entry:main": "Entry"})
    facts1, facts2 = [], []
    for _ in range(rng.randint(50, 80)):
        kind = rng.randrange(3)
        if kind == 0:
            op, a = rng.choice("-!~"), rng.choice(names)
            facts1.append(UnaryFact(op, a, f1, l1))
            facts2.append(UnaryFact(op, twin[a], f2, l2))
        elif kind == 1:
            op, a, b = rng.choice("+*<"), rng.choice(names), rng.choice(names)
            facts1.append(BinaryFact(op, a, b, f1, l1))
            facts2.append(BinaryFact(op, twin[a], twin[b], f2, l2))
        else:
            cond = rng.choice(names + ["Entry", "Entry:main"])
            branch = rng.choice(["true", "false"])
            facts1.append(ControlDepFact(var1, f1, l1, cond, branch, f1, l1))
            facts2.append(ControlDepFact(var2, f2, l2, twin[cond], branch, f2, l2))
    for _ in range(rng.choice([0, 0, 1, 3])):
        i = rng.randrange(len(facts2))
        fact = facts2[i]
        if isinstance(fact, ControlDepFact):
            flipped = "false" if fact.branch == "true" else "true"
            facts2[i] = fact._replace(branch=flipped)
        elif isinstance(fact, UnaryFact):
            facts2[i] = fact._replace(operand=rng.choice(list(twin.values())))
        else:
            facts2[i] = fact._replace(right=rng.choice(list(twin.values())))

    def crowd(side, facts):
        return side._replace(
            unary=side.unary | {f for f in facts if isinstance(f, UnaryFact)},
            binary=side.binary | {f for f in facts if isinstance(f, BinaryFact)},
            controldeps=side.controldeps
            | {f for f in facts if isinstance(f, ControlDepFact)},
        )

    var_maps = frozenset(
        VarMapFact(name, f1, l1, twin[name], f2, l2) for name in names
    )
    return EquivBundle(
        crowd(bundle.code1, facts1), crowd(bundle.code2, facts2), var_maps,
        bundle.entry_maps, bundle.exit_maps,
    )


def test_rules_path_agrees_when_one_site_has_many_facts():
    rng = random.Random(50)
    kinds, agreeing = set(), 0
    for _ in range(40):
        bundle = _crowded_site(rng)
        for candidate in (bundle, bundle.swapped()):
            pairing = build_pairing(candidate)
            direct = {m.project() for m in all_mismatches(candidate, pairing)}
            db = evaluate(equiv_rules(candidate, pairing))
            assert set(db["mismatch"]) == direct
            crowded = {kind for kind, *_ in direct} & {
                "expr_mismatch", "controldep_mismatch"
            }
            kinds |= crowded
            agreeing += not crowded
    assert kinds == {"expr_mismatch", "controldep_mismatch"}
    assert agreeing >= 10


# Raw bundles: any facts over six names, two files and five lines, not only
# the well-formed ones the toy extractor emits.
_NAME = st.sampled_from(["a", "b", "c", "x", "y", "Entry"])
_FILE = st.sampled_from(["main.cpp", "lib.cpp"])
_LINE = st.integers(0, 4)


def _few(fact_type, *fields):
    return st.frozensets(st.builds(fact_type, *fields), max_size=4)


_BRANCH = st.sampled_from(["true", "false"])
_RAW_SIDE = st.builds(
    EquivSide,
    uses=_few(SiteFact, _NAME, _FILE, _LINE),
    defs=_few(SiteFact, _NAME, _FILE, _LINE),
    flows=_few(FlowFact, _NAME, _FILE, _LINE, _NAME, _FILE, _LINE),
    controldeps=_few(ControlDepFact, _NAME, _FILE, _LINE, _NAME, _BRANCH, _FILE, _LINE),
    def_with_expr=_few(SiteFact, _NAME, _FILE, _LINE),
    cond_with_expr=_few(CondExprFact, _FILE, _LINE),
    unary=_few(UnaryFact, _NAME, _NAME, _FILE, _LINE),
    binary=_few(BinaryFact, _NAME, _NAME, _NAME, _FILE, _LINE),
    entries=_few(EntryFact, _NAME, _FILE, _LINE),
    exits=_few(ExitFact, _FILE, _LINE),
    constants=st.frozensets(_NAME, max_size=2),
    watch_vars=_few(SiteFact, _NAME, _FILE, _LINE),
)
_RAW_BUNDLE = st.builds(
    EquivBundle,
    _RAW_SIDE,
    _RAW_SIDE,
    var_maps=_few(VarMapFact, _NAME, _FILE, _LINE, _NAME, _FILE, _LINE),
    entry_maps=_few(EntryMapFact, _NAME, _LINE, _NAME, _LINE),
    exit_maps=_few(ExitMapFact, _FILE, _LINE, _FILE, _LINE),
)


@settings(max_examples=300, deadline=None)
@given(_RAW_BUNDLE)
def test_rules_path_agrees_on_raw_bundles(bundle):
    for candidate in (bundle, bundle.swapped()):
        try:
            pairing = build_pairing(candidate)
        except ConflictingVarMapError:
            return
        direct = {m.project() for m in all_mismatches(candidate, pairing)}
        db = evaluate(equiv_rules(candidate, pairing))
        assert set(db["mismatch"]) == direct
        assert bool(db["equivalent"]) == (not direct)


def test_rules_pair_line_covers_entry_only_sites(fixtures_dir):
    bundle = _load(fixtures_dir, "guarded_call_self_pair.bundle")
    # no fact of either side but this entry names lib.cpp:42
    entry = EntryFact("helper", "lib.cpp", 42)
    extended = bundle._replace(
        code1=bundle.code1._replace(entries=bundle.code1.entries | {entry}),
        code2=bundle.code2._replace(entries=bundle.code2.entries | {entry}),
    )
    program = equiv_rules(extended, build_pairing(extended))
    sites = {f.value_tuple()[:3] for f in program.facts if f.predicate == "pair_line"}
    for side in ("code1", "code2"):
        assert (side, "lib.cpp", 42) in sites, side
    before = evaluate(equiv_rules(bundle, build_pairing(bundle)))
    assert evaluate(program)["mismatch"] == before["mismatch"]


def test_two_file_self_pair_pairs_entries_by_function():
    bundle = two_file_self_pair()
    pairing = build_pairing(bundle)
    assert pairing.code1.line_map[("f1.c", 0)] == ("f1.c", 0)
    assert pairing.code2.line_map[("f1.c", 0)] == ("f1.c", 0)
    assert verify_equiv(bundle).outcome == EQUIVALENT
    db = evaluate(equiv_rules(bundle, pairing))
    assert db["mismatch"] == frozenset() and db["equivalent"] == {()}


def test_rules_program_edits_leave_the_shared_rules(monkeypatch, renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    pairing = build_pairing(bundle)
    program = equiv_rules(bundle, pairing)
    rules, declarations = list(program.rules), dict(program.declarations)
    checked = []
    check_program = engine.check_program
    monkeypatch.setattr(
        engine, "check_program", lambda p: checked.append(p) or check_program(p)
    )
    assert program.rules.pop().head.predicate == "equivalent"
    assert evaluate(program)["equivalent"] == frozenset()
    assert checked == [program]
    fresh = equiv_rules(bundle, pairing)
    assert fresh.rules == rules and fresh.declarations == declarations
    assert len(evaluate(fresh)["mismatch"]) == 1
    assert checked == [program]


def test_witness_facts_with_quotes_and_backslashes_parse_back(fixtures_dir):
    text = (fixtures_dir / "equiv" / "guarded_call_self_pair.bundle").read_text()
    code1, code2 = text.split("=== code2 ===")
    # d"q\ for d in code1, and =\= for the == operator in code2
    code1 = code1.replace('"d"', r'"d\"q\\"')
    code2 = code2.replace('"=="', r'"=\\="')
    verdict = verify_equiv(load_equiv_bundle_text(code1 + "=== code2 ===" + code2))
    assert verdict.outcome == NOT_EQUIVALENT
    symbols = set()
    for mismatch in verdict.mismatches:
        for fact in mismatch.side1 + mismatch.side2:
            atoms = parse_facts(fact + ".")
            assert len(atoms) == 1
            assert print_atom(atoms[0]) == fact
            symbols.update(arg for arg in atoms[0].args if isinstance(arg, str))
    assert {'d"q\\', "=\\="} <= symbols


# ---------------------------------------------------------------------------
# Pinned outputs: every record, verdict and rules fact on a seeded sweep
# ---------------------------------------------------------------------------


def _seeded_raw_bundle(rng):
    """A raw bundle drawn as ``_RAW_BUNDLE`` draws one, from ``rng``."""

    def few(make, most=4):
        return frozenset(make() for _ in range(rng.randint(0, most)))

    def name():
        return rng.choice(["a", "b", "c", "x", "y", "Entry"])

    def file():
        return rng.choice(["main.cpp", "lib.cpp"])

    def line():
        return rng.randint(0, 4)

    def side():
        return EquivSide(
            uses=few(lambda: SiteFact(name(), file(), line())),
            defs=few(lambda: SiteFact(name(), file(), line())),
            flows=few(lambda: FlowFact(name(), file(), line(), name(), file(), line())),
            controldeps=few(lambda: ControlDepFact(
                name(), file(), line(), name(), rng.choice(["true", "false"]), file(), line()
            )),
            def_with_expr=few(lambda: SiteFact(name(), file(), line())),
            cond_with_expr=few(lambda: CondExprFact(file(), line())),
            unary=few(lambda: UnaryFact(name(), name(), file(), line())),
            binary=few(lambda: BinaryFact(name(), name(), name(), file(), line())),
            entries=few(lambda: EntryFact(name(), file(), line())),
            exits=few(lambda: ExitFact(file(), line())),
            constants=few(name, 2),
            watch_vars=few(lambda: SiteFact(name(), file(), line())),
        )

    return EquivBundle(
        side(), side(),
        var_maps=few(lambda: VarMapFact(name(), file(), line(), name(), file(), line())),
        entry_maps=few(lambda: EntryMapFact(name(), line(), name(), line())),
        exit_maps=few(lambda: ExitMapFact(file(), line(), file(), line())),
    )


def _pinned_bundles(fixtures_dir):
    """The shipped bundles loaded from text, 300 seeded raw bundles and their
    mirrors, then 100 toy pairs: even draws pair a program with itself, odd
    draws with a mutation of it."""
    for path in sorted((fixtures_dir / "equiv").glob("*.bundle")):
        yield lambda path=path: load_equiv_bundle_text(path.read_text())
    rng = random.Random(1809)
    for _ in range(300):
        bundle = _seeded_raw_bundle(rng)
        yield lambda bundle=bundle: bundle
        yield bundle.swapped
    rng = random.Random(1810)
    for i in range(100):
        program = normalize(random_toy(rng))
        if i % 2 == 0:
            yield lambda program=program: extract_equiv_facts(program, program)
        else:
            mutation = mutate_toy(rng, program)
            yield lambda program=program, m=mutation: extract_equiv_facts(
                program, m.program, m.var_map
            )


# The sha256 of the records, verdicts and rules facts of ``_pinned_bundles``.
_PINNED_DIGEST = "c9272a5ca65468b8cc717909629a5e6d2e3ef73df41212823c200c3a7be09b14"


def test_outputs_on_a_seeded_sweep_are_pinned(fixtures_dir):
    digest = hashlib.sha256()
    for load in _pinned_bundles(fixtures_dir):
        try:
            bundle = load()
            pairing = build_pairing(bundle)
        except ClaimcheckError as exc:
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        records = [m.to_json() for m in all_mismatches(bundle, pairing)]
        facts = sorted(print_atom(f) for f in equiv_rules(bundle, pairing).facts)
        for part in (records, verify_equiv(bundle).to_json(), facts):
            digest.update(json.dumps(part, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == _PINNED_DIGEST
