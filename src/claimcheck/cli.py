"""Batch entry point: verify, lint, extract, formalize, export, corpus.

Exit codes: 0 when the verdict is Verified/Equivalent (or every corpus row
matches its expectation), 1 for DontKnow/NotEquivalent/Inconclusive (or a
corpus mismatch), 2 for unreadable, unparsable, or otherwise unusable
input.  Reports are JSON by default (``--pretty`` for humans).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ClaimcheckError
from .facts import (
    EQUIV,
    MSAN,
    lint_equiv,
    lint_msan,
    load_equiv_bundle,
    load_equiv_bundle_text,
    load_msan_facts,
)

# Each command imports the verifiers, the loop and the toy language itself,
# so that a launch loads only the modules its command runs.

OK, NOT_PROVEN, USAGE_ERROR = 0, 1, 2

_EXIT_BY_VERDICT = {
    "Verified": OK,
    "Equivalent": OK,
    "DontKnow": NOT_PROVEN,
    "NotEquivalent": NOT_PROVEN,
    "Inconclusive": NOT_PROVEN,
}


def _read(path: Path) -> str:
    """An input file's text; bytes that are not UTF-8 are a ClaimcheckError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ClaimcheckError(f"{path} is not UTF-8 text: {exc}") from None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _inputs(paths: list[Path]) -> list[dict]:
    return [{"path": str(p), "sha256": _sha256(p)} for p in paths if p.is_file()]


def _report(
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


def _emit(report: dict, pretty: bool) -> None:
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


def _verdict(task: str, facts) -> tuple[str, dict | None, dict]:
    """The outcome of verifying the task's facts, its witness JSON and its
    lint JSON."""
    if task == MSAN:
        from .msan import verify_msan

        verdict = verify_msan(facts)
        chain = verdict.to_json()["chain"]
        witness = None if chain is None else {"chain": chain}
    else:
        from .equivalence import INCONCLUSIVE, verify_equiv

        verdict = verify_equiv(facts)
        if verdict.outcome == INCONCLUSIVE:
            witness = {"missing_obligations": list(verdict.obligations)}
        else:
            witness = None if verdict.witness is None else verdict.witness.to_json()
    return verdict.outcome, witness, verdict.lint.to_json()


# How each task reads one input file.
_LOAD_TEXT = {MSAN: load_msan_facts, EQUIV: load_equiv_bundle_text}


def _sections(args) -> list[str | None]:
    """The files of --code1, --code2 and --correspondence; ``export`` has none."""
    return [getattr(args, name, None) for name in ("code1", "code2", "correspondence")]


def _input_paths(args) -> list[Path]:
    """The input files a command names: its one file and the section files."""
    return [Path(p) for p in (args.input, *_sections(args)) if p is not None]


def _load(args):
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
        return _LOAD_TEXT[args.task](_read(Path(args.input)))
    if args.task == MSAN:
        raise ClaimcheckError("lint --task msan needs a fact file")
    if None in sections:
        raise ClaimcheckError(
            "provide a sectioned bundle file or all of --code1/--code2/--correspondence"
        )
    return load_equiv_bundle(*(_read(Path(p)) for p in sections))


def cmd_check(args) -> int:
    """verify-msan, verify-equiv and lint: load the input, then verify it or,
    for lint, only run the well-formedness checks."""
    started = time.perf_counter()
    paths = _input_paths(args)
    try:
        facts = _load(args)
        if args.command == "lint":
            report = (lint_msan if args.task == MSAN else lint_equiv)(facts)
            verdict, witness, lint = None, None, report.to_json()
            status = OK if report.ok else NOT_PROVEN
        else:
            verdict, witness, lint = _verdict(args.task, facts)
            status = _EXIT_BY_VERDICT[verdict]
    except (OSError, ClaimcheckError) as exc:
        _emit(_report(args.task, None, None, None, paths, started, error=str(exc)), args.pretty)
        return USAGE_ERROR
    _emit(_report(args.task, verdict, witness, lint, paths, started), args.pretty)
    return status


def cmd_extract(args) -> int:
    from .toy import extract_equiv_facts, extract_msan_facts, normalize, parse_toy
    from .toy.interp import first_def_sites

    started = time.perf_counter()
    try:
        program = normalize(parse_toy(_read(Path(args.toy))))
        if args.task == MSAN:
            marked = set(filter(None, (args.uninit or "").split(",")))
            facts = extract_msan_facts(program, marked, file=args.file_name)
            text = facts.render()
        else:
            if not args.toy2:
                raise ClaimcheckError("equivalence extraction needs two toy programs")
            other = normalize(parse_toy(_read(Path(args.toy2))))
            names1, names2 = first_def_sites(program), first_def_sites(other)
            var_map = {}
            for pair in filter(None, (args.var_map or "").split(",")):
                left, _, right = pair.partition("=")
                left, right = left.strip(), right.strip()
                if left not in names1 or right not in names2:
                    raise ClaimcheckError(
                        f"bad --var-map entry {pair!r}: want x=y, where x is a variable "
                        "of the first program and y one of the second"
                    )
                var_map[left] = right
            text = extract_equiv_facts(program, other, var_map, file=args.file_name).render()
    except (OSError, ClaimcheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} ({(time.perf_counter() - started) * 1000.0:.1f} ms)")
    else:
        print(text, end="")
    return OK


def cmd_formalize(args) -> int:
    from .loop import DEFAULT_MAX_ITERS, http_source, mock_source, run_loop

    started = time.perf_counter()
    try:
        snippets = _read(Path(args.snippets))
        if args.source == "mock":
            if not args.ground_truth:
                raise ClaimcheckError("--source mock needs --ground-truth FILE")
            ground_truth = _read(Path(args.ground_truth))
            source = mock_source(ground_truth, args.withhold, args.seed)
        else:
            source = http_source(args.url)
        iters = DEFAULT_MAX_ITERS if args.iters is None else args.iters
        result, log = run_loop(source, args.task, snippets, max_iters=iters)
    except (OSError, ClaimcheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    text = result.render()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")

    verdict = witness = lint = None
    status = OK
    if args.verify:
        try:
            facts = result.to_msan_facts() if args.task == MSAN else result.to_equiv_bundle()
            verdict, witness, lint = _verdict(args.task, facts)
        except ClaimcheckError as exc:
            _emit(
                _report(args.task, None, None, None, [Path(args.snippets)], started,
                        iterations=log.to_json(), error=str(exc)),
                args.pretty,
            )
            return USAGE_ERROR
        status = _EXIT_BY_VERDICT[verdict]
    report = _report(
        args.task, verdict, witness, lint, [Path(args.snippets)], started,
        iterations=log.to_json(),
    )
    report["consolidated_facts"] = result.fact_count()
    _emit(report, args.pretty)
    return status


def cmd_export(args) -> int:
    from .datalog.export import export_external

    try:
        if args.task == "datalog":
            from .datalog.parser import parse_program

            program = parse_program(_read(Path(args.input)))
        elif args.task == MSAN:
            from .msan import msan_program

            program = msan_program(_load(args))
        else:
            from .equivalence import build_pairing, equiv_rules

            bundle = _load(args)
            program = equiv_rules(bundle, build_pairing(bundle))
        rules_path = export_external(program, args.output)
    except (OSError, ClaimcheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {rules_path.parent}")
    return OK


_CORPUS_VERDICTS = {
    MSAN: ("Verified", "DontKnow"),
    EQUIV: ("Equivalent", "NotEquivalent", "Inconclusive"),
}


def _manifest_entries(manifest) -> list[dict]:
    """The manifest's entries, or ValueError naming the first unusable one."""
    if not isinstance(manifest, dict) or not isinstance(manifest.get("fixtures"), list):
        raise ValueError('top level must be an object with a "fixtures" list')
    entries = manifest["fixtures"]
    for number, entry in enumerate(entries, start=1):
        where = f"entry {number}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} is not an object")
        if not isinstance(entry.get("name", ""), str):
            raise ValueError(f'{where}: "name" must be a string')
        for key in ("task", "path", "expected"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f'{where}: "{key}" must be a string')
        verdicts = _CORPUS_VERDICTS.get(entry["task"])
        if verdicts is None:
            raise ValueError(f'{where}: unknown task {entry["task"]!r}')
        if entry["expected"] not in verdicts:
            raise ValueError(f'{where}: "expected" must be one of {", ".join(verdicts)}')
    return entries


def _corpus_row(entry: dict, base: Path) -> dict:
    name = entry.get("name", "<unnamed>")
    task = entry["task"]
    try:
        actual = _verdict(task, _LOAD_TEXT[task](_read(base / entry["path"])))[0]
    except (OSError, ClaimcheckError) as exc:
        actual = f"error: {exc}"
    return {
        "name": name,
        "task": task,
        "expected": entry["expected"],
        "actual": actual,
        "ok": actual == entry["expected"],
    }


def cmd_corpus(args) -> int:
    path = Path(args.manifest)
    try:
        entries = _manifest_entries(json.loads(_read(path)))
    except (OSError, ValueError, ClaimcheckError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rows = [_corpus_row(entry, path.parent) for entry in entries]
    if args.pretty:
        width = max((len(r["name"]) for r in rows), default=4)
        for row in rows:
            mark = "ok " if row["ok"] else "FAIL"
            print(f"{mark} {row['name']:<{width}} expected={row['expected']} actual={row['actual']}")
        print(f"{sum(r['ok'] for r in rows)}/{len(rows)} matched")
    else:
        print(json.dumps({"results": rows, "version": __version__}, indent=2))
    return OK if all(r["ok"] for r in rows) else NOT_PROVEN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Check formalized code-reasoning claims against executable "
        "verification conditions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pretty(p):
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.add_argument("--json", dest="pretty", action="store_false",
                       help="JSON output (default)")

    def add_sections(p):
        p.add_argument("--code1")
        p.add_argument("--code2")
        p.add_argument("--correspondence")

    p = sub.add_parser("verify-msan", help="verify an uninitialized-value fact file")
    p.add_argument("input", metavar="facts")
    add_pretty(p)
    p.set_defaults(func=cmd_check, task=MSAN)

    p = sub.add_parser("verify-equiv", help="verify a two-program fact bundle")
    p.add_argument("input", nargs="?", metavar="bundle", help="sectioned bundle file")
    add_sections(p)
    add_pretty(p)
    p.set_defaults(func=cmd_check, task=EQUIV)

    p = sub.add_parser("lint", help="run the well-formedness checks only")
    p.add_argument("--task", choices=(MSAN, EQUIV), required=True)
    p.add_argument("input", nargs="?")
    add_sections(p)
    add_pretty(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extract", help="extract ground-truth facts from toy programs")
    p.add_argument("toy")
    p.add_argument("toy2", nargs="?")
    p.add_argument("--task", choices=(MSAN, EQUIV), required=True)
    p.add_argument("--uninit", help="comma-separated variables claimed uninitialized")
    p.add_argument("--var-map", help="comma-separated x=y variable pairs")
    p.add_argument("--file-name", default="main.cpp", help="file name used in facts")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("formalize", help="run the iterative fact-acquisition loop")
    p.add_argument("snippets", help="code snippets / explanation file")
    p.add_argument("--task", choices=(MSAN, EQUIV), required=True)
    p.add_argument("--source", choices=("mock", "http"), default="mock")
    p.add_argument("--iters", type=int)
    p.add_argument("--withhold", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-truth", help="fact file the mock source draws from")
    p.add_argument("--url", help="endpoint URL (default: $CLAIMCHECK_LLM_URL)")
    p.add_argument("--verify", action="store_true", help="verify the consolidated facts")
    p.add_argument("-o", "--output", help="write consolidated facts here")
    add_pretty(p)
    p.set_defaults(func=cmd_formalize)

    p = sub.add_parser("export", help="write solver-dialect rules and fact files")
    p.add_argument("input")
    p.add_argument("--task", choices=(MSAN, EQUIV, "datalog"), default="datalog")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("corpus", help="verify a manifest of fixtures")
    p.add_argument("manifest")
    add_pretty(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
