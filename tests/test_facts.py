import hashlib
import json
import random
from pathlib import Path

import pytest

from claimcheck.datalog import parse_facts
from claimcheck.errors import (
    ArityMismatchError,
    ClaimcheckError,
    SortError,
    UnknownPredicateError,
)
from claimcheck.facts import (
    CORRESPONDENCE_FIELDS,
    CORRESPONDENCE_SORTS,
    CondExprFact,
    ControlDepFact,
    MSAN_FIELDS,
    MSAN_SORTS,
    SIDE_FIELDS,
    SIDE_SORTS,
    EquivBundle,
    EquivSide,
    ExitMapFact,
    InitFact,
    LintIssue,
    MsanFactSet,
    SiteFact,
    UnaryFact,
    _norm_path,
    lint_equiv,
    lint_msan,
    load_equiv_bundle,
    load_equiv_bundle_text,
    load_msan_facts,
    split_bundle_sections,
)
from claimcheck.toy import extract_equiv_facts, extract_msan_facts, normalize

from generators import mutate_toy, random_toy


# ---------------------------------------------------------------------------
# Trace fact sets
# ---------------------------------------------------------------------------


def test_trace_fixture_counts(trace_facts_text):
    fs = load_msan_facts(trace_facts_text)
    assert len(fs.uses) == 4
    assert len(fs.flow) == 4
    assert len(fs.uninitialized) == 1
    assert len(fs.allocated) == 1
    assert len(fs.memory_error) == 1
    assert len(fs) == 11


def test_trace_paths_are_normalized(trace_facts_text):
    fs = load_msan_facts(trace_facts_text)
    files = {f.dst_file for f in fs.flow} | {f.file for f in fs.memory_error}
    assert all("//" not in path for path in files)
    (use,) = load_msan_facts('uses("x", "a//b///c.cc", 1).').uses
    assert use.file == "a/b/c.cc"
    path = "a/b/c.cc"
    assert _norm_path(path) is path


def test_empty_text_gives_empty_set():
    fs = load_msan_facts("")
    assert len(fs) == 0


def test_wrong_vocabulary_is_rejected():
    with pytest.raises(UnknownPredicateError) as info:
        load_msan_facts('watchVar("x", "f", 1).')
    assert "watchVar" in str(info.value)


def test_msan_arity_is_checked():
    with pytest.raises(ArityMismatchError):
        load_msan_facts('uses("x", 1).')


def test_msan_round_trip(trace_facts_text):
    fs = load_msan_facts(trace_facts_text)
    assert load_msan_facts(fs.render()) == fs


def test_lint_trace_fixture_is_clean(trace_facts_text):
    report = lint_msan(load_msan_facts(trace_facts_text))
    assert report.errors == [] and report.warnings == []


def test_lint_empty_set_is_clean():
    report = lint_msan(load_msan_facts(""))
    assert report.errors == [] and report.warnings == []


def test_lint_warns_on_initializer_for_uninitialized_var(trace_facts_text):
    fs = load_msan_facts(trace_facts_text)
    mutated = fs._replace(
        has_initializer=frozenset({InitFact("data_", "AudioBuffer::AudioBuffer")}),
    )
    report = lint_msan(mutated)
    assert report.errors == []
    assert [w.code for w in report.warnings] == ["initializer-conflicts-uninitialized"]


def test_lint_flags_unsupported_flow_destination(trace_facts_text):
    fs = load_msan_facts(
        trace_facts_text + '\nflow("data_", "audio/base/audio_buffer.cc", 375, "ghost", "nowhere.cc", 9).'
    )
    report = lint_msan(fs)
    assert [e.code for e in report.errors] == ["flow-endpoint-unsupported"]


def test_lint_flags_memory_error_without_use(trace_facts_text):
    fs = load_msan_facts(
        trace_facts_text + '\nmemoryError("x", "uninitialized_data", "other.cc", 1).'
    )
    assert [e.code for e in lint_msan(fs).errors] == ["memory-error-without-use"]


# ---------------------------------------------------------------------------
# Equivalence bundles
# ---------------------------------------------------------------------------


def test_bundle_fixture_counts(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    assert len(bundle.code1) == 38
    assert len(bundle.code2) == 38
    assert len(bundle.var_maps) + len(bundle.entry_maps) + len(bundle.exit_maps) == 2


def test_abbreviated_forms_get_default_file(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    assert {f.file for f in bundle.code1.defs} == {"main.cpp"}
    assert {f.cond_file for f in bundle.code1.controldeps} == {"main.cpp"}


def test_output_var_is_watch_var_synonym():
    bundle = load_equiv_bundle(
        'outputVar("a", "main.cpp", 3).', 'watchVar("a", "main.cpp", 3).', ""
    )
    assert bundle.code1.watch_vars == bundle.code2.watch_vars


def test_single_fact_sides_load_without_maps():
    bundle = load_equiv_bundle(
        'def("a", "main.cpp", 1).', 'def("a", "main.cpp", 1).', ""
    )
    assert len(bundle.code1.defs) == 1
    # sufficiency problems (no entry/exit) belong to lint, not loading
    report = lint_equiv(bundle)
    assert {e.code for e in report.errors} >= {"entry-missing", "exit-missing"}


def test_dangling_exit_map_is_rejected(renamed_fn_bundle_text):
    # a map that names no fact is an insufficient claim: lint reports each
    # half that dangles, which makes the verdict Inconclusive
    mutated = renamed_fn_bundle_text.replace("exitMap(8, 8).", "exitMap(9, 9).")
    dangling = repr(ExitMapFact("main.cpp", 9, "main.cpp", 9))
    assert lint_equiv(load_equiv_bundle_text(mutated)).errors == [
        LintIssue("exitmap-dangling", "exitMap cites line 9 on code1 but exits are at [8]",
                  dangling),
        LintIssue("exitmap-dangling", "exitMap cites line 9 on code2 but exits are at [8]",
                  dangling),
    ]


def _halves(text):
    """Two texts that each keep every line but the fact lines, which they
    share out alternately."""
    halves = ([], [])
    facts = 0
    for line in text.splitlines(keepends=True):
        if line.lstrip()[:1].isalpha():
            halves[facts % 2].append(line)
            facts += 1
        else:
            halves[0].append(line)
            halves[1].append(line)
    return "".join(halves[0]), "".join(halves[1])


_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize(
    "path", [*sorted(_FIXTURES.glob("equiv/*.bundle")), *sorted(_FIXTURES.glob("msan/*.facts"))],
    ids=lambda path: path.name,
)
def test_union_of_the_halves_of_a_fixture_is_the_fixture(path):
    load = load_msan_facts if path.suffix == ".facts" else load_equiv_bundle_text
    text = path.read_text(encoding="utf-8")
    whole = load(text)
    first, second = map(load, _halves(text))
    assert 0 < len(first) < len(whole) and 0 < len(second) < len(whole)
    assert first.union(second) == second.union(first) == whole
    assert whole.union() == whole.union(first, second) == whole


# Every line break of str.splitlines() but "\n"; a bundle line ends at "\n" only.
_OTHER_LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e", "\r"]


@pytest.mark.parametrize("char", _OTHER_LINE_BREAKS, ids=map(hex, map(ord, _OTHER_LINE_BREAKS)))
def test_bundle_symbols_keep_line_break_characters(char):
    side = f'def("a{char}b", "main.cpp", 1).\n'
    from_bundle = load_equiv_bundle_text(
        f"=== code1 ===\n{side}=== code2 ===\n{side}=== correspondence ===\n"
    )
    assert from_bundle == load_equiv_bundle(side, side, "")
    assert from_bundle.code1.defs == {SiteFact(f"a{char}b", "main.cpp", 1)}


@pytest.mark.parametrize("escape", [False, True], ids=["scan", "parser"])
def test_crlf_bundle_loads_like_lf(fixtures_dir, escape):
    for path in sorted((fixtures_dir / "equiv").glob("*.bundle")):
        text = path.read_text()
        if escape:  # an escaped quote sends the sections to the full parser
            text = text.replace("=== code1 ===\n", '=== code1 ===\ndef("q\\"", 1).\n', 1)
        lf = load_equiv_bundle_text(text)
        assert load_equiv_bundle_text(text.replace("\n", "\r\n")) == lf, path.name


def test_bundle_marker_rules():
    sections = split_bundle_sections(
        "// a comment line\n"
        "  \t\n"
        "  ===  Code1 ===  \n"
        'def("a", 1).\n'
        "===CORRESPONDENCE===\r\n"
        "exitMap(1, 1).\n"
        "=== code1 ===\n"
        'def("b", 2).'
    )
    assert sections == {
        "code1": 'def("a", 1).\ndef("b", 2).\n',
        "code2": "\n",
        "correspondence": "exitMap(1, 1).\n",
    }
    # a marker is a whole line: "===" and its name on two lines are not one
    text = "=== code1 ===\n===\ncode2 ===\n"
    assert split_bundle_sections(text)["code1"] == "===\ncode2 ===\n"
    # any case, in the sense of re.IGNORECASE: the long s matches "s"
    assert split_bundle_sections("=== corre\u017fpondence ===\nx\n")["correspondence"] == "x\n"
    # before the first marker, only blank and "//" lines, which end at "\n"
    assert split_bundle_sections("// note\u2028x\n=== code2 ===\nx\n")["code2"] == "x\n"
    for preamble in ("def(1).\n", "x\u2028// y\n"):
        with pytest.raises(ClaimcheckError, match="must start with"):
            split_bundle_sections(preamble + "=== code1 ===\n")


def test_correspondence_predicates_rejected_in_code_sections():
    with pytest.raises(UnknownPredicateError):
        load_equiv_bundle('varMap("a", 1, "b", 1).', "", "")


def test_side_predicates_rejected_in_correspondence():
    with pytest.raises(UnknownPredicateError):
        load_equiv_bundle("", "", 'def("a", "f", 1).')


def test_each_unknown_predicate_is_named_once():
    with pytest.raises(UnknownPredicateError) as info:
        load_equiv_bundle("", "", "foo(1). foo(2).")
    assert info.value.names == ["foo (not a correspondence predicate)"]
    with pytest.raises(UnknownPredicateError) as info:
        load_equiv_bundle('varMap("a", 1, "b", 1). varMap("c", 2, "d", 2). bar(1). bar(2).', "", "")
    assert info.value.names == ["varMap (correspondence predicate in section code1)", "bar"]
    assert str(info.value).count("varMap") == 1


# Every abbreviated form with its canonical spelling.  The correspondence
# cases need an exit at line 8 on both sides for exitMap to refer to.
_ABBREVIATED = [
    ("use", 'use("x", 3)', 'use("x", "main.cpp", 3)'),
    ("def", 'def("x", 3)', 'def("x", "main.cpp", 3)'),
    ("defWithExpr", 'defWithExpr("x", 3)', 'defWithExpr("x", "main.cpp", 3)'),
    ("watchVar", 'watchVar("x", 8)', 'watchVar("x", "main.cpp", 8)'),
    ("outputVar", 'outputVar("x", 8)', 'watchVar("x", "main.cpp", 8)'),
    ("entry", 'entry("main", 0)', 'entry("main", "main.cpp", 0)'),
    ("exit", "exit(8)", 'exit("main.cpp", 8)'),
    ("flow", 'flow("x", 1, "y", 2)', 'flow("x", "main.cpp", 1, "y", "main.cpp", 2)'),
    ("controldep", 'controldep("x", 4, "c", "TRUE", 2)',
     'controldep("x", "main.cpp", 4, "c", "true", "main.cpp", 2)'),
    ("condWithExpr", "condWithExpr(5)", 'condWithExpr("main.cpp", 5)'),
    ("unaryFun", 'unaryFun("-", "a", 6)', 'unaryFun("-", "a", "main.cpp", 6)'),
    ("binaryFun", 'binaryFun("+", "a", "b", 7)', 'binaryFun("+", "a", "b", "main.cpp", 7)'),
    ("varMap", 'varMap("x", 1, "y", 2)', 'varMap("x", "main.cpp", 1, "y", "main.cpp", 2)'),
    ("entryMap", "entryMap(0, 0)", 'entryMap("main", 0, "main", 0)'),
    ("exitMap", "exitMap(8, 8)", 'exitMap("main.cpp", 8, "main.cpp", 8)'),
]


# Each predicate's argument sorts, in table order: a line column read as a
# symbol would change every declaration, export and sort check.
_MSAN_SORTS = {
    "uninitialized": ("symbol", "symbol", "number"),
    "declared": ("symbol", "symbol", "number"),
    "allocated": ("symbol", "symbol", "number"),
    "hasInitializer": ("symbol", "symbol"),
    "hasMemberInitializer": ("symbol", "symbol"),
    "uses": ("symbol", "symbol", "number"),
    "flow": ("symbol", "symbol", "number", "symbol", "symbol", "number"),
    "memoryError": ("symbol", "symbol", "symbol", "number"),
}
_SIDE_SORTS = {
    "entry": ("symbol", "symbol", "number"),
    "isConstantValue": ("symbol",),
    "def": ("symbol", "symbol", "number"),
    "defWithExpr": ("symbol", "symbol", "number"),
    "condWithExpr": ("symbol", "number"),
    "use": ("symbol", "symbol", "number"),
    "flow": ("symbol", "symbol", "number", "symbol", "symbol", "number"),
    "controldep": ("symbol", "symbol", "number", "symbol", "symbol", "symbol", "number"),
    "unaryFun": ("symbol", "symbol", "symbol", "number"),
    "binaryFun": ("symbol", "symbol", "symbol", "symbol", "number"),
    "exit": ("symbol", "number"),
    "watchVar": ("symbol", "symbol", "number"),
}
_CORRESPONDENCE_SORTS = {
    "entryMap": ("symbol", "number", "symbol", "number"),
    "exitMap": ("symbol", "number", "symbol", "number"),
    "varMap": ("symbol", "symbol", "number", "symbol", "symbol", "number"),
}


def test_sorts_of_each_vocabulary():
    assert list(MSAN_SORTS.items()) == list(_MSAN_SORTS.items())
    assert list(SIDE_SORTS.items()) == list(_SIDE_SORTS.items())
    assert list(CORRESPONDENCE_SORTS.items()) == list(_CORRESPONDENCE_SORTS.items())


@pytest.mark.parametrize(
    "container,fields,sorts",
    [
        (MsanFactSet, MSAN_FIELDS, MSAN_SORTS),
        (EquivSide, SIDE_FIELDS, SIDE_SORTS),
        (EquivBundle, CORRESPONDENCE_FIELDS, CORRESPONDENCE_SORTS),
    ],
    ids=["msan", "side", "correspondence"],
)
def test_each_fact_field_has_one_row_of_its_predicates_arity(container, fields, sorts):
    fact_fields = [name for name in container._fields if name not in ("code1", "code2")]
    assert sorted(name for name, _, _ in fields) == sorted(fact_fields)
    for _, predicate, fact_type in fields:
        arity = 1 if fact_type is str else len(fact_type._fields)
        assert arity == len(sorts[predicate])


def _load_one(predicate: str, text: str) -> EquivBundle:
    if predicate in CORRESPONDENCE_SORTS:
        side = 'exit("main.cpp", 8).'
        return load_equiv_bundle(side, side, text + ".")
    return load_equiv_bundle(text + ".", "", "")


@pytest.mark.parametrize("predicate,short,canonical", _ABBREVIATED, ids=[c[0] for c in _ABBREVIATED])
def test_abbreviated_form_loads_as_its_canonical_spelling(predicate, short, canonical):
    bundle = _load_one(predicate, short)
    assert bundle == _load_one(predicate, canonical)
    assert len(bundle.code1) == 1
    assert len(bundle.var_maps | bundle.entry_maps | bundle.exit_maps) == (
        predicate in CORRESPONDENCE_SORTS
    )


_ARITIES = [
    (task, predicate, len(sorts))
    for task, tables in (("equiv", (SIDE_SORTS, CORRESPONDENCE_SORTS)), ("msan", (MSAN_SORTS,)))
    for table in tables
    for predicate, sorts in table.items()
] + [("equiv", "outputVar", 3)]
_SHORT_ARITY = {p: len(parse_facts(short + ".")[0].args) for p, short, _ in _ABBREVIATED}


@pytest.mark.parametrize("task,predicate,arity", _ARITIES, ids=[f"{t}-{p}" for t, p, _ in _ARITIES])
def test_other_arities_name_the_canonical_arity(task, predicate, arity):
    for n in range(9):
        if n == arity or (task == "equiv" and n == _SHORT_ARITY.get(predicate)):
            continue
        text = f"{predicate}({', '.join(str(i) for i in range(n))})"
        with pytest.raises(ArityMismatchError) as info:
            load_msan_facts(text + ".") if task == "msan" else _load_one(predicate, text)
        assert (info.value.expected, info.value.found) == (arity, n)
        assert f"arity {arity}," in str(info.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ('def("x", "y")', "def: argument 2 must be a number"),
        ('flow("x", 1, 2, 3)', "flow: argument 3 must be a quoted symbol"),
        ('controldep("x", 4, "c", "t", -2)', "controldep: line numbers must be >= 0"),
        ('binaryFun("+", "a", 1, 7)', "binaryFun: argument 3 must be a quoted symbol"),
    ],
)
def test_sort_errors_in_abbreviated_forms_name_the_argument_as_written(text, message):
    with pytest.raises(SortError, match=f"^{message}$"):
        load_equiv_bundle(text + ".", "", "")


def test_fact_scan_compiles_one_pattern_per_signature_and_one_converter_per_shape(
    fixtures_dir,
):
    """What a launch compiles: loading the corpus fixtures twice compiles
    in the first pass only, and no more argument patterns than there are
    sort signatures, nor converters than shapes, among the forms that the
    fixtures use."""
    from claimcheck import facts
    from claimcheck.datalog import values
    from claimcheck.facts.equiv import _CORRESPONDENCE_RELATIONS, _SIDE_RELATIONS
    from claimcheck.facts.msan import _MSAN_RELATIONS

    manifest = json.loads((fixtures_dir / "corpus.json").read_text())
    texts = [(entry["task"], (fixtures_dir / entry["path"]).read_text())
             for entry in manifest["fixtures"]]
    assert len(texts) == 7
    caches = (facts._form, facts._arguments, values.compiled_make)
    for cache in caches:
        cache.cache_clear()
    sizes = []
    for _ in range(2):
        for task, text in texts:
            (load_msan_facts if task == "msan" else load_equiv_bundle_text)(text)
        sizes.append([cache.cache_info().currsize for cache in caches])
    assert sizes[0] == sizes[1]
    # the forms used, as the parser reads them
    signatures, shapes = set(), set()
    for task, text in texts:
        if task == "msan":
            sections = [(_MSAN_RELATIONS, text)]
        else:
            sections = [
                (_CORRESPONDENCE_RELATIONS if name == "correspondence" else _SIDE_RELATIONS, body)
                for name, body in split_bundle_sections(text).items()
            ]
        for relations, body in sections:
            for atom in parse_facts(body):
                relation = relations[atom.predicate]
                signatures.add(tuple(type(arg) for arg in atom.args))
                shapes.add(facts._shape(relation, facts._omitted(relation, len(atom.args))))
    _, patterns, converters = sizes[1]
    assert patterns <= len(signatures) and converters <= len(shapes)


def test_bundle_round_trip(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    assert load_equiv_bundle_text(bundle.render()) == bundle


def test_lint_bundle_fixture_is_clean(renamed_fn_bundle_text):
    report = lint_equiv(load_equiv_bundle_text(renamed_fn_bundle_text))
    assert report.errors == []


def test_lint_def_without_source(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    mutated = bundle._replace(
        code1=bundle.code1._replace(
            defs=bundle.code1.defs | {SiteFact("z", "main.cpp", 6)},
        ),
    )
    assert [e.code for e in lint_equiv(mutated).errors] == ["def-without-source"]


def test_lint_facts_that_no_def_anchors(renamed_fn_bundle_text):
    # function, control-dependence and constant facts are compared only at
    # def sites, so without the def of d at line 6 nothing compares foo(a)
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    mutated = bundle._replace(
        code1=bundle.code1._replace(
            defs=bundle.code1.defs - {SiteFact("d", "main.cpp", 6)},
            constants=frozenset({"7"}),
        ),
    )
    errors = [(e.code, e.fact) for e in lint_equiv(mutated).errors]
    assert errors == [
        ("operator-without-def", repr(UnaryFact("foo", "a", "main.cpp", 6))),
        ("controldep-without-def",
         repr(ControlDepFact("d", "main.cpp", 6, "c", "true", "main.cpp", 5))),
        ("constant-without-def", repr("7")),
    ]
    # a function fact at a condition's site needs no def there
    guarded = bundle._replace(
        code1=bundle.code1._replace(
            unary=bundle.code1.unary | {UnaryFact("g", "c", "main.cpp", 5)},
            cond_with_expr=frozenset({CondExprFact("main.cpp", 5)}),
        ),
    )
    assert lint_equiv(guarded).errors == []


def _sourceless_defs(side, maps=""):
    report = lint_equiv(load_equiv_bundle(side, side, maps))
    return [e.fact for e in report.errors if e.code == "def-without-source"]


def test_lint_entry_exemption_keys_on_the_entry_site():
    # with entry facts, a def needs no source at line 0 or at an entry's site
    sites = [("a.c", 0), ("b.c", 0), ("a.c", 5), ("b.c", 5), ("b.c", 7)]
    side = 'entry("main", "a.c", 5).\nexit("a.c", 9).\n' + "".join(
        f'def("x", "{file}", {line}).\n' for file, line in sites
    )
    flagged = [repr(SiteFact("x", "b.c", 5)), repr(SiteFact("x", "b.c", 7))]
    assert _sourceless_defs(side) == flagged * 2
    # without them an entryMap label names no file: its line counts in any
    side = 'exit("a.c", 9).\ndef("x", "b.c", 5).\ndef("x", "b.c", 7).\n'
    maps = 'entryMap("main", 5, "main", 5).\n'
    assert _sourceless_defs(side, maps) == [repr(SiteFact("x", "b.c", 7))] * 2


def test_lint_expr_without_operator(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    unary = {f for f in bundle.code1.unary if f.line != 6}
    mutated = bundle._replace(
        code1=bundle.code1._replace(unary=frozenset(unary))
    )
    assert [e.code for e in lint_equiv(mutated).errors] == ["expr-without-operator"]


def test_lint_use_without_def(renamed_fn_bundle_text):
    bundle = load_equiv_bundle_text(renamed_fn_bundle_text)
    mutated = bundle._replace(
        code2=bundle.code2._replace(
            uses=bundle.code2.uses | {SiteFact("phantom", "main.cpp", 5)}
        ),
    )
    assert [e.code for e in lint_equiv(mutated).errors] == ["use-without-def"]


def test_lint_empty_bundle_misses_entry_and_exit_on_both_sides():
    bundle = EquivBundle(EquivSide(), EquivSide())
    codes = sorted(e.code for e in lint_equiv(bundle).errors)
    assert codes == ["entry-missing", "entry-missing", "exit-missing", "exit-missing"]


def _withheld(rng, text, share):
    """``text`` without about ``share`` of its fact lines; markers stay."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if line.startswith("===") or rng.random() >= share
    )


def _lint_outputs(fixtures_dir):
    """The lint JSON of seeded trace sets and bundles, each with 10-30 % of
    its lines withheld, so that every kind of issue shows up."""
    rng = random.Random(29)
    out = []
    traces = [(fixtures_dir / "msan" / "audio_buffer_trace.facts").read_text()] * 4
    for _ in range(30):
        program = normalize(random_toy(rng, n_defs=rng.randint(6, 30)))
        marked = set(rng.sample(sorted(program.free_vars), k=1))
        extra = "".join(
            f'{rng.choice(["hasInitializer", "hasMemberInitializer"])}("{var}", "ctx").\n'
            for var in rng.sample(sorted(program.free_vars), k=len(program.free_vars))
        )
        traces.append(extract_msan_facts(program, marked).render() + extra)
    for text in traces:
        out.append(lint_msan(load_msan_facts(_withheld(rng, text, rng.uniform(0.1, 0.3)))))
    bundles = [path.read_text() for path in sorted((fixtures_dir / "equiv").glob("*.bundle"))]
    for _ in range(30):
        toy = normalize(random_toy(rng, n_defs=rng.randint(6, 30)))
        mutation = mutate_toy(rng, toy)
        bundles.append(extract_equiv_facts(toy, mutation.program, mutation.var_map).render())
    for text in bundles:
        out.append(lint_equiv(load_equiv_bundle_text(_withheld(rng, text, rng.uniform(0.1, 0.3)))))
    return [report.to_json() for report in out]


def test_lint_reports_of_withheld_lines_are_pinned(fixtures_dir):
    reports = _lint_outputs(fixtures_dir)
    codes = {issue["code"] for report in reports for issue in report["errors"] + report["warnings"]}
    assert len(codes) >= 10
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6af8801776770368126985570138d32c38f1b8e457c842bc4dbb3dc333dd0d58"
    )
