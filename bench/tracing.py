"""Spans around calls into the package's public functions, from outside.

``Tracer.install`` replaces each listed function, in every loaded
``claimcheck`` module that holds it, with a wrapper that records a span:
its name, its parent span, start and end, and a count taken from the
result.  Nothing inside the package changes.  Spans stay in memory and are
handed to the harness per check.

A function that is missing (renamed or removed by a later change) is
skipped, and the metrics that read it report 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# Layer (module) -> public functions whose calls get a span.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "datalog.parser": ("parse_facts", "parse_program", "parse_fact_lines"),
    "facts": ("load_msan_facts", "load_equiv_bundle_text", "load_equiv_bundle", "lint_msan", "lint_equiv"),
    "msan": ("verify_msan", "msan_program", "msan_rules"),
    "equivalence": ("verify_equiv", "build_pairing", "diff_structure", "check_watchvars", "equiv_rules"),
    "datalog.engine": ("check_program", "stratify", "evaluate", "explain"),
    "loop": ("run_loop",),
}
# Recursive functions keep their own module's reference unwrapped, so the
# wrapper neither opens a span per recursion level nor deepens the stack.
RECURSIVE = {"explain"}

CHILD_MARKER = b"BENCH_SPANS "


def _count(name: str, args: tuple, out) -> int | None:
    """The work count a span carries, read from the call's result."""
    fn = name.rsplit(".", 1)[1]
    if fn == "parse_facts":
        return len(out)
    if fn == "parse_program":
        return len(out.facts) + sum(1 + len(rule.body) for rule in out.rules)
    if fn == "load_msan_facts":
        return len(out)
    if fn in ("load_equiv_bundle_text", "load_equiv_bundle"):
        return (len(out.code1) + len(out.code2) + len(out.var_maps)
                + len(out.entry_maps) + len(out.exit_maps))
    if fn == "verify_msan":
        return len(out.witness) if out.witness is not None else None
    if fn == "verify_equiv":
        return len(out.mismatches)
    if fn == "evaluate":
        inputs = {(f.predicate, f.value_tuple()) for f in args[0].facts}
        return sum(len(rel) for rel in out.values()) - len(inputs)
    if fn == "run_loop":
        return len(out[1].records)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, count]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[2] = start
                stack.pop()
            span[4] = _count(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = f"claimcheck.{layer}"
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if callable(fn):
                    targets[id(fn)] = (fn, module, self._wrap(f"{layer}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "claimcheck" or mod_name.startswith("claimcheck.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                if attr in RECURSIVE and mod_name == hit[1]:
                    continue
                setattr(mod, attr, hit[2])

    def take(self) -> list[list]:
        """The spans recorded since the last call; parents index this list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def absorb_child(self, launch) -> None:
        """Adopt the spans a traced CLI child wrote as its last stderr line."""
        for line in reversed(launch.stderr.splitlines()):
            if line.startswith(CHILD_MARKER):
                self.spans.extend(json.loads(line[len(CHILD_MARKER):]))
                return


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> spans whose self time it sums per check; the median over the
# checks that reach any of them is reported.
SELF_TIME_MS = {
    "parser.parse_facts_ms": ("datalog.parser.parse_facts", "datalog.parser.parse_fact_lines"),
    "parser.parse_program_ms": ("datalog.parser.parse_program",),
    "facts.load_self_ms": ("facts.load_msan_facts", "facts.load_equiv_bundle_text", "facts.load_equiv_bundle"),
    "facts.lint_ms": ("facts.lint_msan", "facts.lint_equiv"),
    "msan.verify_self_ms": ("msan.verify_msan",),
    "msan.program_build_ms": ("msan.msan_program", "msan.msan_rules"),
    "equivalence.pairing_ms": ("equivalence.build_pairing",),
    "equivalence.diff_ms": ("equivalence.diff_structure",),
    "equivalence.watchvars_ms": ("equivalence.check_watchvars",),
    "equivalence.rules_build_ms": ("equivalence.equiv_rules",),
    "engine.check_program_ms": ("datalog.engine.check_program",),
    "engine.stratify_ms": ("datalog.engine.stratify",),
    "engine.evaluate_ms": ("datalog.engine.evaluate",),
    "engine.explain_ms": ("datalog.engine.explain",),
    "loop.run_ms": ("loop.run_loop",),
}
PARSER_SPANS = SELF_TIME_MS["parser.parse_facts_ms"] + SELF_TIME_MS["parser.parse_program_ms"]
LOAD_SPANS = SELF_TIME_MS["facts.load_self_ms"]


def _self_times(spans: list[list]) -> list[float]:
    children = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    return [(end - start) - children[i] for i, (_, _, start, end, _) in enumerate(spans)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(checks: list[tuple[float, list[list]]], rounds: int) -> dict[str, float]:
    """Per-layer metrics from (check seconds, spans) pairs of whole rounds.

    Times are medians, over the checks that reach a layer, of the check's
    summed self time there.  Counts are totals per round, except
    ``msan.witness_len`` and ``loop.iterations`` (medians per call).
    """
    per_check: dict[str, list[float]] = {m: [] for m in SELF_TIME_MS}
    totals = {"atoms": 0, "parse_s": 0.0, "input_facts": 0, "mismatches": 0,
              "derived": 0, "evaluate_s": 0.0, "covered_s": 0.0, "check_s": 0.0}
    witness_lens: list[int] = []
    iterations: list[int] = []
    for seconds, spans in checks:
        selfs = _self_times(spans)
        sums: dict[str, float] = {}
        for (name, parent, start, end, count), self_s in zip(spans, selfs):
            sums[name] = sums.get(name, 0.0) + self_s
            if parent < 0:
                totals["covered_s"] += end - start
            if name in PARSER_SPANS:
                totals["parse_s"] += self_s
                totals["atoms"] += count or 0
            elif name in LOAD_SPANS and (parent < 0 or spans[parent][0] not in LOAD_SPANS):
                totals["input_facts"] += count or 0
            elif name == "msan.verify_msan" and count is not None:
                witness_lens.append(count)
            elif name == "equivalence.verify_equiv":
                totals["mismatches"] += count or 0
            elif name == "datalog.engine.evaluate":
                totals["derived"] += count or 0
                totals["evaluate_s"] += self_s
            elif name == "loop.run_loop" and count is not None:
                iterations.append(count)
        totals["check_s"] += seconds
        for metric, names in SELF_TIME_MS.items():
            hits = [sums[n] for n in names if n in sums]
            if hits:
                per_check[metric].append(sum(hits) * 1000.0)
    rounds = max(rounds, 1)
    out = {metric: _median(values) for metric, values in per_check.items()}
    out.update({
        "parser.atoms_per_s": totals["atoms"] / totals["parse_s"] if totals["parse_s"] else 0.0,
        "facts.input_facts": totals["input_facts"] / rounds,
        "msan.witness_len": _median(witness_lens),
        "equivalence.mismatches": totals["mismatches"] / rounds,
        "engine.derived_tuples": totals["derived"] / rounds,
        "engine.derived_tuples_per_s": (
            totals["derived"] / totals["evaluate_s"] if totals["evaluate_s"] else 0.0
        ),
        "loop.iterations": _median(iterations),
        "trace.uncovered_share": (
            1.0 - totals["covered_s"] / totals["check_s"] if totals["check_s"] else 0.0
        ),
    })
    return out
