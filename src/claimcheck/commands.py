"""The commands that a verify launch never runs: extract, formalize, export
and corpus.  ``cli.main`` imports this module only for them.

Exit codes as in ``check``; ``corpus`` exits 0 when every row matches its
expectation and 1 on a mismatch.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from . import __version__
from .check import (
    EXIT_BY_VERDICT,
    NOT_PROVEN,
    OK,
    USAGE_ERROR,
    emit,
    load,
    load_text,
    make_report,
    read_text,
    verdict_of,
)
from .errors import ClaimcheckError, ConflictingVarMapError
from .facts import MSAN


def cmd_extract(args) -> int:
    from .toy import extract_equiv_facts, extract_msan_facts, normalize, parse_toy
    from .toy.interp import first_def_sites

    started = time.perf_counter()
    try:
        if args.task == MSAN:
            if args.toy2 is not None:
                raise ClaimcheckError("a second toy program is for --task equiv only")
            if args.var_map is not None:
                raise ClaimcheckError("--var-map is for --task equiv only")
        elif args.uninit is not None:
            raise ClaimcheckError("--uninit is for --task msan only")
        program = normalize(parse_toy(read_text(Path(args.toy))))
        if args.task == MSAN:
            marked = set(filter(None, (args.uninit or "").split(",")))
            facts = extract_msan_facts(program, marked, file=args.file_name)
            text = facts.render()
        else:
            if not args.toy2:
                raise ClaimcheckError("equivalence extraction needs two toy programs")
            other = normalize(parse_toy(read_text(Path(args.toy2))))
            names1, names2 = first_def_sites(program), first_def_sites(other)
            var_map, images = {}, set()
            for pair in filter(None, (args.var_map or "").split(",")):
                left, _, right = pair.partition("=")
                left, right = left.strip(), right.strip()
                if left not in names1 or right not in names2:
                    raise ClaimcheckError(
                        f"bad --var-map entry {pair!r}: want x=y, where x is a variable "
                        "of the first program and y one of the second"
                    )
                if left in var_map or right in images:
                    raise ClaimcheckError(
                        f"bad --var-map entry {pair!r}: an earlier entry maps one of its "
                        "variables; the map must be one-to-one"
                    )
                var_map[left] = right
                images.add(right)
            text = extract_equiv_facts(program, other, var_map, file=args.file_name).render()
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
    except (OSError, ClaimcheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.output:
        print(f"wrote {args.output} ({(time.perf_counter() - started) * 1000.0:.1f} ms)")
    else:
        print(text, end="")
    return OK


def cmd_formalize(args) -> int:
    from .loop import DEFAULT_MAX_ITERS, http_source, mock_source, run_loop

    started = time.perf_counter()
    try:
        snippets = read_text(Path(args.snippets))
        if args.source == "mock":
            if not args.ground_truth:
                raise ClaimcheckError("--source mock needs --ground-truth FILE")
            ground_truth = read_text(Path(args.ground_truth))
            source = mock_source(ground_truth, args.withhold, args.seed)
        else:
            source = http_source(args.url)
        iters = DEFAULT_MAX_ITERS if args.iters is None else args.iters
        facts, log = run_loop(source, args.task, snippets, max_iters=iters)
        if args.output:
            Path(args.output).write_text(facts.render(), encoding="utf-8")
    except (OSError, ClaimcheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    verdict = witness = lint = None
    status = OK
    if args.verify:
        try:
            verdict, witness, lint = verdict_of(args.task, facts)
        except ConflictingVarMapError as exc:
            emit(
                make_report(args.task, None, None, None, [Path(args.snippets)], started,
                            iterations=log.to_json(), error=str(exc)),
                args.pretty,
            )
            return USAGE_ERROR
        status = EXIT_BY_VERDICT[args.task][verdict]
    report = make_report(
        args.task, verdict, witness, lint, [Path(args.snippets)], started,
        iterations=log.to_json(),
    )
    report["consolidated_facts"] = len(facts)
    emit(report, args.pretty)
    return status


def cmd_export(args) -> int:
    from .datalog.export import export_external

    try:
        if args.task == "datalog":
            from .datalog.parser import parse_program

            program = parse_program(read_text(Path(args.input)))
        elif args.task == MSAN:
            from .msan import msan_program

            program = msan_program(load(args))
        else:
            from .equivalence import build_pairing, equiv_rules

            bundle = load(args)
            program = equiv_rules(bundle, build_pairing(bundle))
        rules_path = export_external(program, args.output)
    except (OSError, ClaimcheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {rules_path.parent}")
    return OK


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
        verdicts = EXIT_BY_VERDICT.get(entry["task"])
        if verdicts is None:
            raise ValueError(f'{where}: unknown task {entry["task"]!r}')
        if entry["expected"] not in verdicts:
            raise ValueError(f'{where}: "expected" must be one of {", ".join(verdicts)}')
    return entries


def _corpus_row(entry: dict, base: Path) -> dict:
    name = entry.get("name", "<unnamed>")
    task = entry["task"]
    try:
        actual = verdict_of(task, load_text(task, read_text(base / entry["path"])))[0]
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
        entries = _manifest_entries(json.loads(read_text(path)))
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
