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
