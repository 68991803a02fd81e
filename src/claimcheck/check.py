"""The checks behind ``verify-msan``, ``verify-equiv`` and ``lint``, and
what the other commands share with them: reading and loading the input
files, the verdict of a task's facts, and the JSON report.  The report's
``inputs[].sha256`` is hashed by :data:`claimcheck.sha256`, the
interpreter's own SHA-256, so no check loads ``hashlib`` and OpenSSL.

Exit codes: 0 when the verdict is Verified/Equivalent, 1 for
DontKnow/NotEquivalent/Inconclusive, 2 for unreadable, unparsable, or
otherwise unusable input.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from . import __version__, facts, sha256
from .errors import ClaimcheckError
from .facts import EQUIV, MSAN

OK, NOT_PROVEN, USAGE_ERROR = 0, 1, 2

# Each task's verdicts, in the order that messages list them, with their
# exit codes.
EXIT_BY_VERDICT = {
    MSAN: {"Verified": OK, "DontKnow": NOT_PROVEN},
    EQUIV: {"Equivalent": OK, "NotEquivalent": NOT_PROVEN, "Inconclusive": NOT_PROVEN},
}


def read_text(path: Path) -> str:
    """An input file's text; bytes that are not UTF-8 are a ClaimcheckError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ClaimcheckError(f"{path} is not UTF-8 text: {exc}") from None


def _sha256(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _inputs(paths: list[Path]) -> list[dict]:
    return [{"path": str(p), "sha256": _sha256(p)} for p in paths if p.is_file()]


def make_report(
    task: str,
    verdict: str | None,
    witness,
    lint,
    paths: list[Path],
    started: float,
    iterations=None,
    error: str | None = None,
) -> dict:
    report = {
        "task": task,
        "verdict": verdict,
        "witness": witness,
        "lint": lint if lint is not None else {"errors": [], "warnings": []},
        "iterations": iterations or [],
        "version": __version__,
        "inputs": _inputs(paths),
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    if error is not None:
        report["error"] = error
    return report


def emit(report: dict, pretty: bool) -> None:
    if not pretty:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"task:    {report['task']}")
    print(f"verdict: {report.get('verdict')}")
    if report.get("error"):
        print(f"error:   {report['error']}")
    witness = report.get("witness")
    if witness:
        print("witness:")
        print("  " + json.dumps(witness, indent=2).replace("\n", "\n  "))
    lint = report.get("lint") or {}
    for level in ("errors", "warnings"):
        for issue in lint.get(level, []):
            print(f"lint {level[:-1]}: [{issue['code']}] {issue['message']}")
    for record in report.get("iterations", []):
        print(
            f"iteration {record['index']}: parsed={record['parsed_facts']} "
            f"new={record['new_facts']} failures={len(record['failures'])}"
        )


def verdict_of(task: str, loaded) -> tuple[str, dict | None, dict]:
    """The outcome of verifying the task's loaded facts, its witness JSON and
    its lint JSON: the values of the verdict's ``to_json()``."""
    if task == MSAN:
        from .msan import verify_msan as verify
    else:
        from .equivalence import verify_equiv as verify
    return tuple(verify(loaded).to_json().values())


def load_text(task: str, text: str):
    """The facts of ``task`` in the text of one input file."""
    return facts.load_msan_facts(text) if task == MSAN else facts.load_equiv_bundle_text(text)


def _sections(args) -> list[str | None]:
    """The files of --code1, --code2 and --correspondence; ``export`` has none."""
    return [getattr(args, name, None) for name in ("code1", "code2", "correspondence")]


def _input_paths(args) -> list[Path]:
    """The input files a command names: its one file and the section files."""
    return [Path(p) for p in (args.input, *_sections(args)) if p is not None]


def load(args):
    """The facts of ``args.task`` in the command's input files."""
    sections = _sections(args)
    named = any(p is not None for p in sections)
    if named and args.task == MSAN:
        raise ClaimcheckError("--code1/--code2/--correspondence are for --task equiv only")
    if args.input is not None:
        if named:
            raise ClaimcheckError(
                "a bundle file and --code1/--code2/--correspondence are exclusive"
            )
        return load_text(args.task, read_text(Path(args.input)))
    if args.task == MSAN:
        raise ClaimcheckError("lint --task msan needs a fact file")
    if None in sections:
        raise ClaimcheckError(
            "provide a sectioned bundle file or all of --code1/--code2/--correspondence"
        )
    return facts.load_equiv_bundle(*(read_text(Path(p)) for p in sections))


def cmd_check(args) -> int:
    """verify-msan, verify-equiv and lint: load the input, then verify it or,
    for lint, only run the well-formedness checks."""
    started = time.perf_counter()
    paths = _input_paths(args)
    try:
        loaded = load(args)
        if args.command == "lint":
            report = (facts.lint_msan if args.task == MSAN else facts.lint_equiv)(loaded)
            verdict, witness, lint = None, None, report.to_json()
            status = OK if report.ok else NOT_PROVEN
        else:
            verdict, witness, lint = verdict_of(args.task, loaded)
            status = EXIT_BY_VERDICT[args.task][verdict]
    except (OSError, ClaimcheckError) as exc:
        emit(make_report(args.task, None, None, None, paths, started, error=str(exc)), args.pretty)
        return USAGE_ERROR
    emit(make_report(args.task, verdict, witness, lint, paths, started), args.pretty)
    return status
