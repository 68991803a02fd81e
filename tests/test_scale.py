"""Total behaviour on legal-but-large and malformed inputs.

Each case is sized well past the shipped fixtures: the checker must stay
fast (no super-linear path), give a verdict, and keep its documented exit
codes (0 or 1 with a JSON report, 2 with an error and no traceback).
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from claimcheck.datalog import parse_facts
from claimcheck.equivalence import EQUIVALENT, NOT_EQUIVALENT, verify_equiv
from claimcheck.errors import DatalogSyntaxError
from claimcheck.facts import FlowFact, MemoryErrorFact, MsanFactSet, SiteFact
from claimcheck.msan import VERIFIED, verify_msan
from claimcheck.toy import extract_equiv_facts, normalize

from generators import mutate_toy, random_toy

SRC = Path(__file__).resolve().parent.parent / "src"


def _decoyed_chain(steps: int, with_use: bool = True) -> MsanFactSet:
    """A flow chain from one uninitialized site to a claimed error site.

    Every third chain site also flows to a decoy, a claimed use that is not
    an error site; decoys sort before the chain sites, so the search meets
    them first at every level and must pass them over.
    """
    chain = [SiteFact(f"v{i}", "chain.c", i + 1) for i in range(steps + 1)]
    decoys = [SiteFact(f"d{i}", "a_decoy.c", i + 1) for i in range(0, steps, 3)]
    flows = [FlowFact(*a, *b) for a, b in zip(chain, chain[1:])]
    flows += [FlowFact(*chain[3 * k], *decoy) for k, decoy in enumerate(decoys)]
    last = chain[-1]
    return MsanFactSet(
        uses=frozenset(decoys + ([last] if with_use else [])),
        uninitialized=frozenset(chain[:1]),
        flow=frozenset(flows),
        memory_error=frozenset(
            {MemoryErrorFact(last.var, "uninitialized", last.file, last.line)}
        ),
    )


def test_5000_step_chain_with_decoys_is_fast():
    facts = _decoyed_chain(5000)
    started = time.perf_counter()
    verdict = verify_msan(facts)
    elapsed = time.perf_counter() - started
    assert verdict.outcome == VERIFIED
    assert len(verdict.witness) == 5001
    assert verdict.witness == tuple(
        (f"v{i}", "chain.c", i + 1) for i in range(5001)
    )
    assert elapsed < 1.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("mutated", [False, True], ids=["self-pair", "mutation"])
def test_verify_equiv_on_2560_definitions_is_fast(mutated):
    rng = random.Random(2560)
    program = normalize(random_toy(rng, n_free=3, n_defs=2560))
    other, var_map, expected = program, None, EQUIVALENT
    if mutated:
        mutation = mutate_toy(rng, program)
        other, var_map = normalize(mutation.program), mutation.var_map
        expected = EQUIVALENT if mutation.kind == "rename" else NOT_EQUIVALENT
    bundle = extract_equiv_facts(program, other, var_map)
    assert len(bundle.code1) + len(bundle.code2) >= 30000
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        verdict = verify_equiv(bundle)
        best = min(best, time.perf_counter() - started)
    assert verdict.outcome == expected
    assert best < 1.0, f"{best:.2f} s"


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "claimcheck.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120,
    )


# The msan fixture has 11 facts and each equivalence fixture about 100
# lines; these inputs are ten times that or more.
@pytest.mark.parametrize("with_use", [True, False], ids=["verified", "dont-know"])
def test_verify_msan_at_10x_fixture_size(tmp_path, with_use):
    facts = _decoyed_chain(80, with_use)
    assert len(facts) >= 110
    path = tmp_path / "chain.facts"
    path.write_text(facts.render())
    run = _cli("verify-msan", str(path))
    assert run.returncode == (0 if with_use else 1), run.stderr
    report = json.loads(run.stdout)
    assert report["verdict"] == ("Verified" if with_use else "DontKnow")
    if with_use:
        assert len(report["witness"]["chain"]) == 81


@pytest.mark.parametrize("mutated", [False, True], ids=["self-pair", "mutation"])
def test_verify_equiv_at_10x_fixture_size(tmp_path, mutated):
    rng = random.Random(41)
    program = normalize(random_toy(rng, n_free=3, n_defs=70))
    other, var_map = program, None
    if mutated:
        mutation = mutate_toy(rng, program)
        other, var_map = normalize(mutation.program), mutation.var_map
    bundle = extract_equiv_facts(program, other, var_map).render()
    assert len(bundle.splitlines()) >= 1000
    path = tmp_path / "pair.bundle"
    path.write_text(bundle)
    run = _cli("verify-equiv", str(path))
    assert run.returncode in (0, 1), run.stderr
    report = json.loads(run.stdout)
    assert report["verdict"] in ("Equivalent", "NotEquivalent", "Inconclusive")
    assert run.returncode == (0 if report["verdict"] == "Equivalent" else 1)
    if not mutated:
        assert report["verdict"] == "Equivalent"


def test_msan_file_cut_inside_a_string_is_usage_error(tmp_path):
    text = _decoyed_chain(80).render()
    line_start = text.index("\n", len(text) // 2) + 1
    cut = text.index('"', line_start) + 3  # two characters into a line's first symbol
    path = tmp_path / "cut.facts"
    path.write_text(text[:cut])
    run = _cli("verify-msan", str(path))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    report = json.loads(run.stdout)
    assert report["verdict"] is None
    assert "unexpected character '\"'" in report["error"]


def test_20000_fact_document_reports_the_line_of_its_syntax_error():
    lines = [f'uses("v{i}", "big.c", {i}).' for i in range(20000)]
    atoms = parse_facts("\n".join(lines))
    assert len(atoms) == 20000
    assert atoms[-1].args == ("v19999", "big.c", 19999)
    lines[-1] = 'uses("v19999", "big.c" 19999).'
    with pytest.raises(DatalogSyntaxError) as info:
        parse_facts("\n".join(lines))
    assert (info.value.line, info.value.column) == (20000, 24)
    assert info.value.message == "expected ')', found '19999'"


_READERS = {
    "verify-msan": "verify-msan {}",
    "verify-equiv": "verify-equiv {}",
    "verify-equiv-three-files": "verify-equiv --code1 {0} --code2 {0} --correspondence {0}",
    "lint-msan": "lint --task msan {}",
    "lint-equiv": "lint --task equiv {}",
}


@pytest.mark.parametrize("argv", _READERS.values(), ids=_READERS)
@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_input_is_usage_error(tmp_path, argv, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    run = _cli(*argv.format(path).split())
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    report = json.loads(run.stdout)
    assert report["verdict"] is None
    if kind == "not-utf8":
        assert report["error"].startswith(f"{path} is not UTF-8 text")
    else:
        assert "Is a directory" in report["error"]
        assert report["inputs"] == []


def test_not_utf8_input_of_export_and_corpus_is_reported(tmp_path):
    path = tmp_path / "input.facts"
    path.write_bytes(b"\xff\xfe")
    for task in ("datalog", "msan", "equiv"):
        run = _cli("export", str(path), "--task", task, "-o", str(tmp_path / "out"))
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith(f"error: {path} is not UTF-8 text")
    manifest = tmp_path / "corpus.json"
    manifest.write_text(json.dumps({"fixtures": [
        {"name": "m", "task": "msan", "path": path.name, "expected": "Verified"},
        {"name": "e", "task": "equiv", "path": path.name, "expected": "Equivalent"},
    ]}))
    run = _cli("corpus", str(manifest))
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    rows = json.loads(run.stdout)["results"]
    assert [row["actual"].startswith(f"error: {path} is not UTF-8") for row in rows] == [True, True]
    run = _cli("corpus", str(path))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
