import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from claimcheck import __version__, cli
from claimcheck.cli import main

FIXTURES = "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# verify-msan
# ---------------------------------------------------------------------------


def test_verify_msan_fixture(capsys):
    code, report = run_json(capsys, "verify-msan", f"{FIXTURES}/msan/audio_buffer_trace.facts")
    assert code == 0
    assert report["verdict"] == "Verified"
    chain = report["witness"]["chain"]
    assert chain[-1] == {"var": "buffer", "file": "utils/encoders/stream_encoder.c", "line": 2538}


def test_verify_msan_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.facts"
    empty.write_text("")
    code, report = run_json(capsys, "verify-msan", str(empty))
    assert code == 1
    assert report["verdict"] == "DontKnow"
    assert report["witness"] is None


def test_verify_msan_corrupted_line_is_usage_error(capsys, tmp_path):
    lines = Path(FIXTURES, "msan", "audio_buffer_trace.facts").read_text().splitlines()
    lines[5] = 'uses("sample_ptr", "internal/client/encoders/audio_encoder.cc" 218).'
    bad = tmp_path / "bad.facts"
    bad.write_text("\n".join(lines))
    code, report = run_json(capsys, "verify-msan", str(bad))
    assert code == 2
    assert report["verdict"] is None
    assert "line 6" in report["error"]


def test_verify_msan_variable_in_fact_reports_its_position(capsys, tmp_path):
    path = tmp_path / "variable.facts"
    path.write_text('uses("x", "a.cc", 1).\nuses(x, "a.cc", 2).\n')
    code, report = run_json(capsys, "verify-msan", str(path))
    assert code == 2
    assert report["verdict"] is None
    assert report["error"] == "line 2, column 1: fact uses contains a variable or wildcard"


def test_verify_msan_overlong_number_is_usage_error(capsys, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts number literals of any length")
    digits = "9" * max(5000, limit + 1)
    path = tmp_path / "overlong.facts"
    path.write_text(f'uses("x", "a.cc", 1).\nuses("x", "a.cc", {digits}).\n')
    code, report = run_json(capsys, "verify-msan", str(path))
    assert code == 2
    assert report["verdict"] is None
    assert report["error"] == (
        f"line 2, column 19: number literal of {len(digits)} digits is too long"
    )


# ---------------------------------------------------------------------------
# verify-equiv
# ---------------------------------------------------------------------------


def test_verify_equiv_fixture(capsys):
    code, report = run_json(
        capsys, "verify-equiv", f"{FIXTURES}/equiv/guarded_call_renamed_fn.bundle"
    )
    assert code == 1
    assert report["verdict"] == "NotEquivalent"
    assert report["witness"]["kind"] == "expr_mismatch"
    assert 'unaryFun("foo", "a", "main.cpp", 6)' in report["witness"]["code1_facts"]


def test_verify_equiv_self_pair(capsys):
    code, report = run_json(
        capsys, "verify-equiv", f"{FIXTURES}/equiv/guarded_call_self_pair.bundle"
    )
    assert code == 0 and report["verdict"] == "Equivalent"


def test_verify_equiv_inconclusive(capsys):
    code, report = run_json(
        capsys, "verify-equiv", f"{FIXTURES}/equiv/guarded_call_onesided_watch.bundle"
    )
    assert code == 1 and report["verdict"] == "Inconclusive"
    assert report["witness"]["missing_obligations"]


def test_verify_equiv_three_files(capsys, tmp_path):
    (tmp_path / "c1").write_text('def("a", "main.cpp", 1).\nexit(2).\nflow("a", 0, "a", 1).\nentry("main", 0).\n')
    (tmp_path / "c2").write_text('def("a", "main.cpp", 1).\nexit(2).\nflow("a", 0, "a", 1).\nentry("main", 0).\n')
    (tmp_path / "corr").write_text("")
    code, report = run_json(
        capsys, "verify-equiv",
        "--code1", str(tmp_path / "c1"),
        "--code2", str(tmp_path / "c2"),
        "--correspondence", str(tmp_path / "corr"),
    )
    assert code == 0 and report["verdict"] == "Equivalent"


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------


def test_report_json_schema(capsys):
    _, report = run_json(
        capsys, "verify-equiv", f"{FIXTURES}/equiv/guarded_call_renamed_fn.bundle"
    )
    assert set(report) >= {"task", "verdict", "witness", "lint", "iterations", "version", "inputs"}
    assert report["task"] == "equiv"
    assert {"errors", "warnings"} == set(report["lint"])
    assert report["iterations"] == []
    for entry in report["inputs"]:
        assert set(entry) == {"path", "sha256"}
        assert len(entry["sha256"]) == 64


def test_reports_are_stable_across_runs(capsys):
    def snapshot():
        _, report = run_json(
            capsys, "verify-msan", f"{FIXTURES}/msan/audio_buffer_trace.facts"
        )
        report.pop("timing_ms")
        return json.dumps(report, sort_keys=True)

    assert snapshot() == snapshot()


# ---------------------------------------------------------------------------
# help and usage: argparse's layout differs between Python versions, so the
# tests look for names and messages, never for whole lines
# ---------------------------------------------------------------------------

_COMMANDS = {
    "verify-msan": ("verify an uninitialized-value fact file", ["facts", "--pretty", "--json"]),
    "verify-equiv": ("verify a two-program fact bundle",
                     ["bundle", "--code1", "--code2", "--correspondence", "--pretty", "--json"]),
    "lint": ("run the well-formedness checks only",
             ["--task", "input", "--code1", "--code2", "--correspondence", "--pretty", "--json"]),
    "extract": ("extract ground-truth facts from toy programs",
                ["toy", "toy2", "--task", "--uninit", "--var-map", "--file-name", "-o",
                 "--output"]),
    "formalize": ("run the iterative fact-acquisition loop",
                  ["snippets", "--task", "--source", "--iters", "--withhold", "--seed",
                   "--ground-truth", "--url", "--verify", "-o", "--output", "--pretty",
                   "--json"]),
    "export": ("write solver-dialect rules and fact files", ["input", "--task", "-o", "--output"]),
    "corpus": ("verify a manifest of fixtures", ["manifest", "--pretty", "--json"]),
}


def _exit_output(capsys, monkeypatch, *argv) -> tuple[int, str, str]:
    monkeypatch.setenv("COLUMNS", "200")  # no wrapped help lines
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_help_lists_every_command_with_its_help(capsys, monkeypatch):
    code, out, _ = _exit_output(capsys, monkeypatch, "--help")
    assert code == 0
    words = " ".join(out.split())
    for name, (help_text, _) in _COMMANDS.items():
        assert f" {name} {help_text}" in words, name


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_help_names_each_option(capsys, monkeypatch, command):
    code, out, _ = _exit_output(capsys, monkeypatch, command, "--help")
    assert code == 0
    assert f"usage: claimcheck {command}" in out
    names = set(re.findall(r"[\w-]+", out))
    assert [name for name in _COMMANDS[command][1] if name not in names] == []


def test_unknown_command_is_a_usage_error(capsys, monkeypatch):
    code, out, err = _exit_output(capsys, monkeypatch, "bogus", "x")
    assert code == 2 and out == ""
    assert "usage: claimcheck" in err and "invalid choice: 'bogus'" in err


def test_lint_without_task_is_a_usage_error(capsys, monkeypatch):
    code, out, err = _exit_output(
        capsys, monkeypatch, "lint", f"{FIXTURES}/msan/audio_buffer_trace.facts"
    )
    assert code == 2 and out == ""
    assert "usage: claimcheck lint" in err
    assert "the following arguments are required: --task" in err


def _outcome(capsys, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, without timings."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'"timing_ms": [\d.]+', "", out), err


_FACTS = f"{FIXTURES}/msan/audio_buffer_trace.facts"


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["bogus"], ["--help", "verify-msan"],
    ["verify-msan", "--help"], ["lint", _FACTS],
    ["verify-equiv"], ["verify-msan"], ["verify-msan", "a", "b"],
    ["-x", "verify-msan", _FACTS], ["--pretty", "verify-msan", _FACTS],
    ["verify-msan", _FACTS, "--version"],
    ["corpus", f"{FIXTURES}/corpus.json"],
    ["verify-equiv", f"{FIXTURES}/equiv/guarded_call_renamed_fn.bundle", "--pretty"],
], ids=repr)
def test_one_command_parser_reads_as_the_full_one(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "200")
    ours = _outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert ours == _outcome(capsys, argv)


# ---------------------------------------------------------------------------
# imports: a launch loads only the modules its command runs
# ---------------------------------------------------------------------------

_NEW_MODULES_SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from claimcheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# hashlib loads OpenSSL, about 3.7 MB and 4 ms a launch; the package hashes
# with the interpreter's own SHA-256.
_OPENSSL = {"hashlib", "_hashlib"}
# dataclasses, with the inspect it imports, costs every launch about 10 ms.
_NEVER = {"dataclasses", "inspect"} | _OPENSSL
_NETWORK = {"urllib.request", "ssl", "concurrent.futures"}
# The fact scan reads every fixture, so no verify command loads the parser,
# the syntax tree of rules, or the checks on atoms behind the parser; and
# none runs the rules that state each condition in Datalog.
_NOT_FOR_VERIFY = _NEVER | _NETWORK | {
    "claimcheck.loop",
    "claimcheck.toy",
    "claimcheck.datalog.ast",
    "claimcheck.datalog.engine",
    "claimcheck.datalog.export",
    "claimcheck.datalog.parser",
    "claimcheck.facts.atoms",
    "claimcheck.msan_datalog",
    "claimcheck.equiv_datalog",
}
# verify-msan, verify-equiv and lint compile none of the other commands.
_NOT_FOR_CHECKS = _NOT_FOR_VERIFY | {"claimcheck.commands"}
_NOT_FOR_MSAN = {"claimcheck.equivalence", "claimcheck.facts.equiv"}
_NOT_FOR_EQUIV = {"claimcheck.msan", "claimcheck.facts.msan"}
_BUNDLE = f"{FIXTURES}/equiv/guarded_call_renamed_fn.bundle"


@pytest.mark.parametrize("argv, needed, forbidden", [
    (["verify-msan", f"{FIXTURES}/msan/audio_buffer_trace.facts"],
     "claimcheck.msan", _NOT_FOR_CHECKS | _NOT_FOR_MSAN),
    (["verify-equiv", _BUNDLE], "claimcheck.equivalence", _NOT_FOR_CHECKS | _NOT_FOR_EQUIV),
    (["verify-equiv", "--code1", "{tmp}/code1", "--code2", "{tmp}/code2",
      "--correspondence", "{tmp}/correspondence"],
     "claimcheck.equivalence", _NOT_FOR_CHECKS | _NOT_FOR_EQUIV),
    (["lint", "--task", "equiv", _BUNDLE],
     "claimcheck.facts.equiv", _NOT_FOR_CHECKS | _NOT_FOR_EQUIV | {"claimcheck.equivalence"}),
    (["lint", "--task", "msan", f"{FIXTURES}/msan/audio_buffer_trace.facts"],
     "claimcheck.facts.msan", _NOT_FOR_CHECKS | _NOT_FOR_MSAN | {"claimcheck.msan"}),
    (["corpus", f"{FIXTURES}/corpus.json"], "claimcheck.equivalence", _NOT_FOR_VERIFY),
    (["export", "--task", "equiv", _BUNDLE, "-o", "{tmp}/out"],
     "claimcheck.datalog.export",
     _NEVER | _NETWORK | {"claimcheck.loop", "claimcheck.toy", "claimcheck.msan"}),
    (["formalize", f"{FIXTURES}/msan/audio_buffer_trace.facts", "--task", "msan",
      "--source", "mock", "--ground-truth", f"{FIXTURES}/msan/audio_buffer_trace.facts"],
     "claimcheck.loop",
     _NEVER | _NETWORK | _NOT_FOR_MSAN | {"claimcheck.toy", "importlib.resources", "logging"}),
    # the toy language is built of dataclasses
    (["extract", f"{FIXTURES}/toy/copy_chain.toy", "--task", "msan", "--uninit", "a"],
     "claimcheck.toy.interp",
     _OPENSSL | _NETWORK | {"claimcheck.loop", "claimcheck.msan", "claimcheck.equivalence"}),
], ids=["verify-msan", "verify-equiv", "verify-equiv-sections", "lint", "lint-msan", "corpus",
        "export", "formalize", "extract"])
def test_verify_commands_load_only_their_own_modules(argv, needed, forbidden, tmp_path):
    text = Path(_BUNDLE).read_text(encoding="utf-8")
    sections = dict(zip(("code1", "code2", "correspondence"), re.split(r"=== \w+ ===\n", text)[1:]))
    for name, section in sections.items():
        (tmp_path / name).write_text(section, encoding="utf-8")
    # -S: no .pth file of the host may load a module before the command does
    run = subprocess.run(
        [sys.executable, "-S", "-c", _NEW_MODULES_SCRIPT,
         *(arg.format(tmp=tmp_path) for arg in argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert needed in loaded
    assert sorted(loaded & forbidden) == []


# ---------------------------------------------------------------------------
# lint / extract
# ---------------------------------------------------------------------------


def test_lint_msan_fixture(capsys):
    code, report = run_json(
        capsys, "lint", "--task", "msan", f"{FIXTURES}/msan/audio_buffer_trace.facts"
    )
    assert code == 0
    assert report["lint"] == {"errors": [], "warnings": []}


def test_extract_msan_then_verify(capsys, tmp_path):
    out = tmp_path / "facts"
    code, _ = run(
        capsys, "extract", f"{FIXTURES}/toy/copy_chain.toy",
        "--task", "msan", "--uninit", "a", "-o", str(out),
    )
    assert code == 0
    code, report = run_json(capsys, "verify-msan", str(out))
    assert code == 0 and report["verdict"] == "Verified"


def test_extract_msan_rejects_a_marked_variable_never_defined(capsys):
    assert main(["extract", f"{FIXTURES}/toy/copy_chain.toy", "--task", "msan",
                 "--uninit", "zz"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: marked variables are never defined: ['zz']\n"
    )


def test_extract_empty_toy_bundle(capsys, tmp_path):
    empty = tmp_path / "empty.toy"
    empty.write_text("")
    code, out = run(capsys, "extract", str(empty), str(empty), "--task", "equiv")
    assert code == 0
    assert "entry(" in out and "exit(" in out


def test_extract_pair_matches_fixture_verdict(capsys, tmp_path):
    out = tmp_path / "pair.bundle"
    code, _ = run(
        capsys, "extract",
        f"{FIXTURES}/toy/guarded_call_a.toy", f"{FIXTURES}/toy/guarded_call_b.toy",
        "--task", "equiv", "-o", str(out),
    )
    assert code == 0
    code, report = run_json(capsys, "verify-equiv", str(out))
    assert code == 1
    assert report["verdict"] == "NotEquivalent"
    assert report["witness"]["kind"] == "expr_mismatch"


def test_extract_equiv_needs_two_programs(capsys):
    code = main(["extract", f"{FIXTURES}/toy/copy_chain.toy", "--task", "equiv"])
    assert code == 2


@pytest.mark.parametrize("entry", ["=y", "x= ", "nosuch=a", "a=nosuch", "a"])
def test_extract_rejects_var_map_entries_naming_no_variable(capsys, tmp_path, entry):
    out = tmp_path / "pair.bundle"
    code = main([
        "extract", f"{FIXTURES}/toy/guarded_call_a.toy", f"{FIXTURES}/toy/guarded_call_b.toy",
        "--task", "equiv", "--var-map", f"a=a,{entry}", "-o", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: bad --var-map entry {entry!r}")
    assert not out.exists()


@pytest.mark.parametrize("var_map", ["a=b,c=b", "a=b,a=c", "a=b, a = b "])
def test_extract_rejects_a_var_map_that_is_not_one_to_one(capsys, tmp_path, var_map):
    out = tmp_path / "pair.bundle"
    code = main([
        "extract", f"{FIXTURES}/toy/guarded_call_a.toy", f"{FIXTURES}/toy/guarded_call_b.toy",
        "--task", "equiv", "--var-map", var_map, "-o", str(out),
    ])
    assert code == 2
    repeated = var_map.split(",")[1]
    assert capsys.readouterr().err.startswith(f"error: bad --var-map entry {repeated!r}")
    assert not out.exists()


def test_extract_var_map_entries_are_stripped(capsys):
    code, out = run(
        capsys, "extract",
        f"{FIXTURES}/toy/guarded_call_a.toy", f"{FIXTURES}/toy/guarded_call_b.toy",
        "--task", "equiv", "--var-map", " a = b ",
    )
    assert code == 0
    assert 'varMap("a", "main.cpp", 1, "b", "main.cpp", 2).' in out


@pytest.mark.parametrize("argv, option", [
    (["copy_chain.toy", "copy_chain.toy", "--task", "msan", "--uninit", "a"],
     "a second toy program"),
    (["copy_chain.toy", "--task", "msan", "--uninit", "a", "--var-map", "a=a"], "--var-map"),
    (["guarded_call_a.toy", "guarded_call_b.toy", "--task", "equiv", "--uninit", "zz"],
     "--uninit"),
], ids=["toy2-msan", "var-map-msan", "uninit-equiv"])
def test_extract_rejects_an_option_its_task_does_not_use(capsys, argv, option):
    argv = [f"{FIXTURES}/toy/{a}" if a.endswith(".toy") else a for a in argv]
    assert main(["extract", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} is for --task ")


@pytest.mark.parametrize("argv", [
    ["extract", f"{FIXTURES}/toy/copy_chain.toy", "--task", "msan", "--uninit", "a"],
    ["formalize", f"{FIXTURES}/msan/audio_buffer_trace.facts", "--task", "msan",
     "--source", "mock", "--ground-truth", f"{FIXTURES}/msan/audio_buffer_trace.facts"],
], ids=["extract", "formalize"])
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "missing" / "out.facts"
    run = subprocess.run(
        [sys.executable, "-m", "claimcheck.cli", *argv, "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and str(out) in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [
    ["verify-msan", f"{FIXTURES}/msan/audio_buffer_trace.facts"],  # Verified
    ["verify-equiv", f"{FIXTURES}/equiv/loop_cond_swap.bundle"],
    ["corpus", f"{FIXTURES}/corpus.json"],
    ["extract", f"{FIXTURES}/toy/copy_chain.toy", "--task", "msan", "--uninit", "a"],
], ids=["verify-msan", "verify-equiv", "corpus", "extract"])
def test_a_closed_stdout_is_a_usage_error(argv):
    # the reader is gone before the launch writes: the report cannot be written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "claimcheck.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (2, b"")


@pytest.mark.parametrize("expr", [
    "(" * 400 + "a" + ")" * 400,
    "-" * 3000 + "a",
    " + ".join(["a"] * 3000),
], ids=["parentheses", "negations", "sum"])
def test_extract_rejects_an_expression_nested_too_deep(capsys, tmp_path, expr):
    toy = tmp_path / "deep.toy"
    toy.write_text(f"int a;\nint b = {expr};\noutput(b);\n")
    code = main(["extract", str(toy), "--task", "msan", "--uninit", "a"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 2: expression nested deeper than 64 levels\n"
    )


def test_extract_accepts_an_expression_64_levels_deep(capsys, tmp_path):
    expr = "a"
    for _ in range(64):
        expr = f"f({expr})"
    toy, facts = tmp_path / "deep.toy", tmp_path / "deep.facts"
    toy.write_text(f"int a;\nint b = {expr};\noutput(b);\n")
    code, _ = run(
        capsys, "extract", str(toy), "--task", "msan", "--uninit", "a", "-o", str(facts)
    )
    assert code == 0
    code, report = run_json(capsys, "verify-msan", str(facts))
    assert code == 0 and report["verdict"] == "Verified"


def test_lint_equiv_accepts_positional_bundle(capsys):
    code, report = run_json(
        capsys, "lint", "--task", "equiv",
        f"{FIXTURES}/equiv/guarded_call_renamed_fn.bundle",
    )
    assert code == 0 and report["lint"]["errors"] == []


def test_verify_equiv_without_inputs_is_usage_error(capsys):
    code, report = run_json(capsys, "verify-equiv")
    assert code == 2 and "provide" in report["error"]


# ---------------------------------------------------------------------------
# formalize
# ---------------------------------------------------------------------------


def test_formalize_mock_reaches_fixpoint(capsys, tmp_path):
    snippets = tmp_path / "snips"
    snippets.write_text("irrelevant for the mock")
    code, report = run_json(
        capsys, "formalize", str(snippets),
        "--task", "msan", "--source", "mock",
        "--ground-truth", f"{FIXTURES}/msan/audio_buffer_trace.facts",
        "--withhold", "0.4", "--seed", "7", "--verify",
    )
    assert code == 0
    counts = [record["new_facts"] for record in report["iterations"]]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0
    assert report["verdict"] == "Verified"
    assert report["consolidated_facts"] == 11


def test_formalize_single_iteration_recovers_less(capsys, tmp_path):
    snippets = tmp_path / "snips"
    snippets.write_text("x")

    def consolidated(iters):
        _, report = run_json(
            capsys, "formalize", str(snippets),
            "--task", "equiv", "--source", "mock",
            "--ground-truth", f"{FIXTURES}/equiv/guarded_call_renamed_fn.bundle",
            "--withhold", "0.4", "--seed", "7", "--iters", str(iters),
        )
        return report["consolidated_facts"]

    assert consolidated(1) < consolidated(5)


@pytest.mark.parametrize("task, ground_truth, load", [
    ("msan", "msan/audio_buffer_trace.facts", "load_msan_facts"),
    ("equiv", "equiv/guarded_call_renamed_fn.bundle", "load_equiv_bundle_text"),
])
def test_formalize_writes_the_rendered_container(capsys, tmp_path, task, ground_truth, load):
    from claimcheck import facts

    snippets = tmp_path / "snips"
    snippets.write_text("x")
    out = tmp_path / "out.facts"
    code, report = run_json(
        capsys, "formalize", str(snippets), "--task", task, "--source", "mock",
        "--ground-truth", f"{FIXTURES}/{ground_truth}", "--withhold", "0.4", "--seed", "7",
        "-o", str(out),
    )
    assert code == 0
    written = out.read_bytes()
    loaded = getattr(facts, load)(written.decode("utf-8"))
    assert written == loaded.render().encode("utf-8")
    assert len(loaded) == report["consolidated_facts"] > 0


# ---------------------------------------------------------------------------
# the readable report
# ---------------------------------------------------------------------------


def test_pretty_report_of_a_lint_error(capsys):
    code, out = run(
        capsys, "verify-equiv", f"{FIXTURES}/equiv/guarded_call_onesided_watch.bundle", "--pretty"
    )
    message = "code1: watch variables are declared on the other side only"
    assert (code, out) == (1, (
        "task:    equiv\n"
        "verdict: Inconclusive\n"
        "witness:\n"
        "  {\n"
        '    "missing_obligations": [\n'
        f'      "{message}"\n'
        "    ]\n"
        "  }\n"
        f"lint error: [watchvar-one-sided] {message}\n"
    ))


def test_pretty_report_of_a_usage_error(capsys):
    assert run(capsys, "lint", "--task", "msan", "--pretty") == (2, (
        "task:    msan\n"
        "verdict: None\n"
        "error:   lint --task msan needs a fact file\n"
    ))


def test_pretty_report_of_formalize(capsys, tmp_path):
    snippets = tmp_path / "snips"
    snippets.write_text("x")
    code, out = run(
        capsys, "formalize", str(snippets), "--task", "msan", "--source", "mock",
        "--ground-truth", f"{FIXTURES}/msan/audio_buffer_trace.facts",
        "--withhold", "0.4", "--seed", "7", "--verify", "--pretty",
    )
    assert (code, out) == (0, (
        "task:    msan\n"
        "verdict: Verified\n"
        "witness:\n"
        "  {\n"
        '    "chain": [\n'
        "      {\n"
        '        "var": "data_",\n'
        '        "file": "audio/base/audio_buffer.cc",\n'
        '        "line": 375\n'
        "      },\n"
        "      {\n"
        '        "var": "buffer",\n'
        '        "file": "utils/encoders/stream_encoder.c",\n'
        '        "line": 2538\n'
        "      }\n"
        "    ]\n"
        "  }\n"
        "iteration 1: parsed=5 new=5 failures=0\n"
        "iteration 2: parsed=7 new=4 failures=0\n"
        "iteration 3: parsed=9 new=2 failures=0\n"
        "iteration 4: parsed=5 new=0 failures=0\n"
    ))


def test_formalize_mock_needs_ground_truth(capsys, tmp_path):
    snippets = tmp_path / "s"
    snippets.write_text("x")
    assert main(["formalize", str(snippets), "--task", "msan", "--source", "mock"]) == 2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_datalog_round_trip(capsys, tmp_path):
    from claimcheck.datalog import import_external, evaluate

    out = tmp_path / "exported"
    code, _ = run(
        capsys, "export", f"{FIXTURES}/datalog/nonzero_output_check.dl", "-o", str(out),
    )
    assert code == 0
    assert evaluate(import_external(out))["isUnsafe"] == {()}


def test_export_msan_task(capsys, tmp_path):
    out = tmp_path / "exported"
    code, _ = run(
        capsys, "export", f"{FIXTURES}/msan/audio_buffer_trace.facts",
        "--task", "msan", "-o", str(out),
    )
    assert code == 0
    assert (out / "program.dl").exists()
    assert (out / "uninitialized.facts").exists()


@pytest.mark.parametrize("symbol", ["a\tb", "a\nb"])
def test_export_rejects_a_symbol_with_a_tab_or_a_line_break(capsys, tmp_path, symbol):
    facts = tmp_path / "trace.facts"
    facts.write_text(f'uses("{symbol}", "m.c", 3).\nuninitialized("p", "m.c", 1).\n')
    out = tmp_path / "exported"
    assert main(["export", str(facts), "--task", "msan", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot export uses: symbol {symbol!r} holds a tab or a line break\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_corpus_manifest_all_match(capsys):
    code, report = run_json(capsys, "corpus", f"{FIXTURES}/corpus.json")
    assert code == 0
    assert all(row["ok"] for row in report["results"])
    assert len(report["results"]) == 7


def test_corpus_report_order_follows_manifest(capsys):
    manifest = json.loads(Path(FIXTURES, "corpus.json").read_text())
    _, report = run_json(capsys, "corpus", f"{FIXTURES}/corpus.json")
    assert [row["name"] for row in report["results"]] == [
        entry["name"] for entry in manifest["fixtures"]
    ]


def test_corpus_empty_manifest(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"fixtures": []}')
    code, report = run_json(capsys, "corpus", str(manifest))
    assert code == 0 and report["results"] == []


def test_corpus_flags_wrong_expectation(capsys, tmp_path):
    manifest = {
        "fixtures": [
            {
                "name": "deliberately-wrong",
                "task": "msan",
                "path": "trace.facts",
                "expected": "DontKnow",
            }
        ]
    }
    (tmp_path / "trace.facts").write_text(
        Path(FIXTURES, "msan", "audio_buffer_trace.facts").read_text()
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code, report = run_json(capsys, "corpus", str(path))
    assert code == 1
    assert report["results"][0]["ok"] is False
    assert report["results"][0]["actual"] == "Verified"


def test_corpus_unreadable_manifest(capsys, tmp_path):
    assert main(["corpus", str(tmp_path / "missing.json")]) == 2


def _corpus_usage_error(capsys, tmp_path, manifest) -> str:
    (tmp_path / "trace.facts").write_text(
        Path(FIXTURES, "msan", "audio_buffer_trace.facts").read_text()
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code = main(["corpus", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # validated before any entry runs
    return captured.err


def test_corpus_manifest_top_level_list_is_usage_error(capsys, tmp_path):
    entry = {"name": "t", "task": "msan", "path": "trace.facts", "expected": "Verified"}
    err = _corpus_usage_error(capsys, tmp_path, [entry])
    assert '"fixtures" list' in err


def test_corpus_entry_without_task_is_usage_error(capsys, tmp_path):
    good = {"name": "ok", "task": "msan", "path": "trace.facts", "expected": "Verified"}
    bad = {"name": "no-task", "path": "trace.facts", "expected": "Verified"}
    err = _corpus_usage_error(capsys, tmp_path, {"fixtures": [good, bad]})
    assert 'entry 2: "task"' in err


def test_corpus_entry_without_path_is_usage_error(capsys, tmp_path):
    bad = {"name": "no-path", "task": "msan", "expected": "Verified"}
    err = _corpus_usage_error(capsys, tmp_path, {"fixtures": [bad]})
    assert 'entry 1: "path"' in err


_GOOD_ENTRY = {"name": "ok", "task": "msan", "path": "trace.facts", "expected": "Verified"}


@pytest.mark.parametrize("bad, message", [
    ("trace.facts", "entry 2 is not an object"),
    (dict(_GOOD_ENTRY, name=7), 'entry 2: "name" must be a string'),
    (dict(_GOOD_ENTRY, task="sanitize"), "entry 2: unknown task 'sanitize'"),
    (dict(_GOOD_ENTRY, expected="Equivalent"),
     'entry 2: "expected" must be one of Verified, DontKnow'),
], ids=["not-an-object", "name-not-a-string", "unknown-task", "expected-of-another-task"])
def test_corpus_unusable_entry_is_usage_error(capsys, tmp_path, bad, message):
    err = _corpus_usage_error(capsys, tmp_path, {"fixtures": [_GOOD_ENTRY, bad]})
    assert err == f"error: cannot read manifest: {message}\n"


# ---------------------------------------------------------------------------
# error reports
# ---------------------------------------------------------------------------


def _error_report(capsys, *argv):
    """The exit code and the report of a command that fails, without its
    timing."""
    code, report = run_json(capsys, *argv)
    del report["timing_ms"]
    return code, report


def _failed(task, error, inputs, iterations=()):
    return {
        "task": task,
        "verdict": None,
        "witness": None,
        "lint": {"errors": [], "warnings": []},
        "iterations": list(iterations),
        "version": __version__,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "error": error,
    }


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_lint_msan_without_a_file_is_usage_error(capsys):
    assert _error_report(capsys, "lint", "--task", "msan") == (
        2, _failed("msan", "lint --task msan needs a fact file", []),
    )


_PROVIDE = "provide a sectioned bundle file or all of --code1/--code2/--correspondence"


@pytest.mark.parametrize("command", [["verify-equiv"], ["lint", "--task", "equiv"]])
def test_partial_section_inputs_list_only_the_files_that_exist(capsys, tmp_path, command):
    code1 = tmp_path / "c1"
    code1.write_text('def("a", "main.cpp", 1).\nexit(2).\n')
    missing = tmp_path / "missing"
    assert _error_report(
        capsys, *command, "--code1", str(code1), "--code2", str(missing),
    ) == (2, _failed("equiv", _PROVIDE, [code1]))
    assert _error_report(
        capsys, *command,
        "--code1", str(code1), "--code2", str(missing), "--correspondence", str(code1),
    ) == (
        2,
        _failed("equiv", f"[Errno 2] No such file or directory: '{missing}'", [code1, code1]),
    )


@pytest.mark.parametrize("empty", ["--code1", "--correspondence"])
def test_empty_section_option_is_read_as_a_path(capsys, empty):
    bundle = Path(FIXTURES, "equiv", "guarded_call_self_pair.bundle")
    options = {option: str(bundle) for option in ("--code1", "--code2", "--correspondence")}
    options[empty] = ""
    argv = [part for option in options.items() for part in option]
    assert _error_report(capsys, "verify-equiv", *argv) == (
        2, _failed("equiv", "[Errno 21] Is a directory: '.'", [bundle, bundle]),
    )


def test_exit_map_naming_no_exit_fact_is_inconclusive(capsys, tmp_path):
    bundle = tmp_path / "ghost.bundle"
    bundle.write_text(
        Path(FIXTURES, "equiv", "guarded_call_self_pair.bundle").read_text()
        + 'exitMap("nowhere.cpp", 8, "nowhere.cpp", 8).\n'
    )
    messages = [
        f"exitMap cites 'nowhere.cpp' at line 8 on {side} but no exit fact at that "
        "line names it"
        for side in ("code1", "code2")
    ]
    fact = "ExitMapFact(file1='nowhere.cpp', line1=8, file2='nowhere.cpp', line2=8)"
    code, report = run_json(capsys, "verify-equiv", str(bundle))
    assert (code, report["verdict"]) == (1, "Inconclusive")
    assert report["lint"]["errors"] == [
        {"code": "exitmap-dangling", "message": message, "fact": fact} for message in messages
    ]
    assert report["witness"] == {"missing_obligations": messages}


_EXCLUSIVE = "a bundle file and --code1/--code2/--correspondence are exclusive"
_EQUIV_ONLY = "--code1/--code2/--correspondence are for --task equiv only"


@pytest.mark.parametrize("command", [["verify-equiv"], ["lint", "--task", "equiv"]])
def test_bundle_file_and_section_options_are_usage_error(capsys, tmp_path, command):
    bundle = Path(FIXTURES, "equiv", "guarded_call_self_pair.bundle")
    code1 = tmp_path / "c1"
    code1.write_text('def("a", "main.cpp", 1).\nexit(2).\n')
    assert _error_report(capsys, *command, str(bundle), "--code1", str(code1)) == (
        2, _failed("equiv", _EXCLUSIVE, [bundle, code1]),
    )


def test_section_options_with_task_msan_are_usage_error(capsys, tmp_path):
    facts = Path(FIXTURES, "msan", "audio_buffer_trace.facts")
    missing = tmp_path / "missing"
    lint_msan = ("lint", "--task", "msan")
    assert _error_report(capsys, *lint_msan, str(facts), "--code2", str(missing)) == (
        2, _failed("msan", _EQUIV_ONLY, [facts]),
    )
    assert _error_report(capsys, *lint_msan, "--code1", str(facts)) == (
        2, _failed("msan", _EQUIV_ONLY, [facts]),
    )


def test_conflicting_var_maps_are_usage_error(capsys, tmp_path):
    bundle = tmp_path / "conflict.bundle"
    bundle.write_text(
        Path(FIXTURES, "equiv", "guarded_call_self_pair.bundle").read_text()
        + 'varMap("a", "main.cpp", 1, "a", "main.cpp", 1).\n'
        + 'varMap("a", "main.cpp", 1, "b", "main.cpp", 2).\n'
    )
    assert _error_report(capsys, "verify-equiv", str(bundle)) == (
        2, _failed("equiv", "varMap pairs variable 'a' inconsistently", [bundle]),
    )


def test_formalize_verify_of_conflicting_var_maps_is_usage_error(capsys, tmp_path):
    bundle = tmp_path / "conflict.bundle"
    bundle.write_text(
        Path(FIXTURES, "equiv", "guarded_call_self_pair.bundle").read_text()
        + 'varMap("a", "main.cpp", 1, "a", "main.cpp", 1).\n'
        + 'varMap("a", "main.cpp", 1, "b", "main.cpp", 2).\n'
    )
    code, report = _error_report(
        capsys, "formalize", str(bundle), "--task", "equiv", "--source", "mock",
        "--ground-truth", str(bundle), "--verify",
    )
    for record in report["iterations"]:
        del record["wall_ms"]
    iterations = [
        {"index": 1, "parsed_facts": 104, "new_facts": 104, "failures": []},
        {"index": 2, "parsed_facts": 104, "new_facts": 0, "failures": []},
    ]
    assert (code, report) == (
        2, _failed("equiv", "varMap pairs variable 'a' inconsistently", [bundle], iterations),
    )


def test_corpus_entry_with_a_missing_file_reports_the_error(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"fixtures": [
        {"name": "gone", "task": "msan", "path": "missing.facts", "expected": "Verified"},
    ]}))
    code, report = run_json(capsys, "corpus", str(manifest))
    assert code == 1
    assert report == {
        "results": [{
            "name": "gone",
            "task": "msan",
            "expected": "Verified",
            "actual": "error: [Errno 2] No such file or directory: "
            f"'{tmp_path / 'missing.facts'}'",
            "ok": False,
        }],
        "version": __version__,
    }


def test_formalize_verify_outside_the_vocabulary_is_a_line_failure(capsys, tmp_path):
    facts = tmp_path / "gt.facts"
    facts.write_text('uses("x", "a.cc", 1).\nbogus("x").\n')
    code, report = _error_report(
        capsys, "formalize", str(facts), "--task", "msan", "--source", "mock",
        "--ground-truth", str(facts), "--verify",
    )
    for record in report["iterations"]:
        del record["wall_ms"]
    failures = [{"line": 2, "reason": "predicate(s) outside the task vocabulary: bogus"}]
    assert (code, report) == (
        1,
        {
            "task": "msan",
            "verdict": "DontKnow",
            "witness": None,
            "lint": {"errors": [], "warnings": []},
            "iterations": [
                {"index": 1, "parsed_facts": 1, "new_facts": 1, "failures": failures},
                {"index": 2, "parsed_facts": 1, "new_facts": 0, "failures": failures},
            ],
            "version": __version__,
            "inputs": [{"path": str(facts), "sha256": _sha256(facts)}],
            "consolidated_facts": 1,
        },
    )
