"""Iterative fact acquisition from a pluggable source.

A fact source is asked repeatedly for predicate instances; responses are
parsed leniently (prose is ignored, malformed fact lines are logged) and
consolidated by set union, never replacement.  The loop stops at an
iteration cap or once a re-ask contributes no new facts; the first
iteration alone never counts as convergence evidence, since there is
nothing to compare it against.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
from typing import Protocol

from .datalog.ast import Atom, Record, print_atom
from .datalog.parser import parse_fact_lines
from . import facts
from .facts import CODE1, CODE2, CORRESPONDENCE, EQUIV, MSAN
from .prompts import render_template

DEFAULT_MAX_ITERS = 5
URL_ENV = "CLAIMCHECK_LLM_URL"
TOKEN_ENV = "CLAIMCHECK_LLM_TOKEN"
# Responses longer than this fail their iteration, like a transport error.
MAX_RESPONSE_BYTES = 1 << 20
# Seconds an HTTP request may wait on the endpoint before it fails.
HTTP_TIMEOUT_S = 30.0

class FactSource(Protocol):
    def __call__(self, task: str, snippets: str, prior_facts: str) -> str: ...


class IterationRecord(Record):
    __slots__ = _fields = ("index", "raw_text", "parsed_facts", "new_facts", "failures", "wall_ms")

    def __init__(
        self, index: int, raw_text: str, parsed_facts: int, new_facts: int,
        failures: list[tuple[int, str]], wall_ms: float,
    ) -> None:
        self.index, self.raw_text, self.parsed_facts = index, raw_text, parsed_facts
        self.new_facts, self.failures, self.wall_ms = new_facts, failures, wall_ms

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "parsed_facts": self.parsed_facts,
            "new_facts": self.new_facts,
            "failures": [{"line": line, "reason": reason} for line, reason in self.failures],
            "wall_ms": round(self.wall_ms, 3),
        }


class IterationLog(Record):
    __slots__ = _fields = ("records",)

    def __init__(self) -> None:
        self.records: list[IterationRecord] = []

    def new_fact_counts(self) -> list[int]:
        return [r.new_facts for r in self.records]

    def replay_key(self) -> tuple:
        """Everything except wall time; equal keys mean identical replays."""
        return tuple(
            (r.index, r.raw_text, r.parsed_facts, r.new_facts, tuple(r.failures))
            for r in self.records
        )

    def to_json(self) -> list[dict]:
        return [r.to_json() for r in self.records]


class LoopResult(Record):
    __slots__ = _fields = ("task", "sections")

    def __init__(self, task: str, sections: dict[str, frozenset[Atom]]) -> None:
        self.task, self.sections = task, sections

    def fact_count(self) -> int:
        return sum(len(atoms) for atoms in self.sections.values())

    def all_atoms(self) -> set[tuple[str, Atom]]:
        return {
            (section, atom)
            for section, atoms in self.sections.items()
            for atom in atoms
        }

    def render(self) -> str:
        if self.task == MSAN:
            atoms = sorted(self.sections.get("facts", frozenset()), key=print_atom)
            return "".join(print_atom(a) + ".\n" for a in atoms)
        parts = []
        for section in (CODE1, CODE2, CORRESPONDENCE):
            parts.append(f"=== {section} ===")
            for atom in sorted(self.sections.get(section, frozenset()), key=print_atom):
                parts.append(print_atom(atom) + ".")
        return "\n".join(parts) + "\n"

    def to_msan_facts(self) -> facts.MsanFactSet:
        atoms = self.sections.get("facts", frozenset())
        return facts.msan_facts_from_atoms(sorted(atoms, key=print_atom))

    def to_equiv_bundle(self) -> facts.EquivBundle:
        return facts.equiv_bundle_from_atoms(
            sorted(self.sections.get(CODE1, frozenset()), key=print_atom),
            sorted(self.sections.get(CODE2, frozenset()), key=print_atom),
            sorted(self.sections.get(CORRESPONDENCE, frozenset()), key=print_atom),
        )


_SECTION_MARKERS = {
    "=== code1 ===": CODE1,
    "=== code2 ===": CODE2,
    "=== correspondence ===": CORRESPONDENCE,
    "<code1 predicates>": CODE1,
    "<code2 predicates>": CODE2,
    "<common predicates>": CORRESPONDENCE,
}

_TAGS = {"Code1": CODE1, "Code2": CODE2}


def _strip_tags(atom: Atom) -> tuple[Atom, str | None]:
    """Remove inline Code1/Code2 tag arguments; returns (atom, tagged section)."""
    section = None
    args = []
    for term in atom.args:
        if term in _TAGS:
            section = section or _TAGS[term]
            continue
        args.append(term)
    return Atom(atom.predicate, tuple(args)), section


def parse_response(task: str, text: str) -> tuple[dict[str, set[Atom]], list[tuple[int, str]]]:
    """Lenient parse of a source response into per-section fact sets."""
    if task == MSAN:
        atoms, failures = parse_fact_lines(text)
        return {"facts": set(atoms)}, failures

    sections: dict[str, set[Atom]] = {CODE1: set(), CODE2: set(), CORRESPONDENCE: set()}
    failures: list[tuple[int, str]] = []
    current: str | None = None
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip().lower()
        if stripped in _SECTION_MARKERS:
            current = _SECTION_MARKERS[stripped]
            continue
        atoms, line_failures = parse_fact_lines(raw)
        failures.extend((idx, reason) for _, reason in line_failures)
        for atom in atoms:
            bare, tagged = _strip_tags(atom)
            if bare.predicate in facts.CORRESPONDENCE_PREDICATES:
                sections[CORRESPONDENCE].add(bare)
            elif tagged is not None:
                sections[tagged].add(bare)
            elif current is not None:
                sections[current].add(bare)
            else:
                failures.append((idx, f"{bare.predicate}: no Code1/Code2 attribution"))
    return sections, failures


def run_loop(
    source: FactSource,
    task: str,
    snippets: str,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[LoopResult, IterationLog]:
    """Union facts across source calls until a re-ask adds nothing.

    Source failures surface as an empty delta plus a log entry; they never
    abort the loop.
    """
    if task not in (MSAN, EQUIV):
        raise ValueError(f"unknown task {task!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    consolidated: dict[str, set[Atom]] = {}
    log = IterationLog()
    for index in range(1, max_iters + 1):
        start = time.perf_counter()
        result = LoopResult(
            task, {k: frozenset(v) for k, v in consolidated.items()}
        )
        try:
            text = source(task, snippets, result.render())
        except Exception as exc:  # a broken source must not kill the loop
            print(f"fact source failed on iteration {index}: {exc}", file=sys.stderr)
            text = ""
            sections, failures = {}, [(0, f"source error: {exc}")]
        else:
            sections, failures = parse_response(task, text)
        new_facts = 0
        parsed = 0
        for section, atoms in sections.items():
            parsed += len(atoms)
            known = consolidated.setdefault(section, set())
            fresh = atoms - known
            new_facts += len(fresh)
            known |= fresh
        log.records.append(
            IterationRecord(
                index=index,
                raw_text=text,
                parsed_facts=parsed,
                new_facts=new_facts,
                failures=list(failures),
                wall_ms=(time.perf_counter() - start) * 1000.0,
            )
        )
        if index >= 2 and new_facts == 0:
            break
    result = LoopResult(task, {k: frozenset(v) for k, v in consolidated.items()})
    return result, log


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------


def mock_source(
    ground_truth: str, withhold_fraction: float = 0.0, seed: int = 0
) -> FactSource:
    """A source that knows the answer but forgets a random slice per call.

    Each call independently withholds every fact line with the given
    probability; section markers always survive.  Deterministic under the
    seed (call k draws from its own stream derived from ``seed`` and k).
    """
    if not 0.0 <= withhold_fraction < 1.0:
        raise ValueError("withhold fraction must be in [0, 1)")
    lines = ground_truth.splitlines()
    fact_line = re.compile(r"\s*[A-Za-z_][A-Za-z0-9_]*\s*\(")
    calls = {"n": 0}

    def source(task, snippets, prior_facts):
        calls["n"] += 1
        rng = random.Random(seed * 1_000_003 + calls["n"])
        kept = []
        for line in lines:
            if fact_line.match(line) and rng.random() < withhold_fraction:
                continue
            kept.append(line)
        return "\n".join(kept) + "\n"

    return source


def _split_marked(text: str, marker: str) -> str | None:
    pattern = re.compile(
        rf"^===\s*{marker}\s*===\s*$(.*?)(?=^===|\Z)", re.MULTILINE | re.DOTALL
    )
    m = pattern.search(text)
    return m.group(1).strip() if m else None


def http_source(url: str | None = None) -> FactSource:
    """A source backed by a completion endpoint.

    Each call posts ``{"system": ..., "user": ...}`` as JSON and reads the
    response's ``text`` field.  For the trace task two requests are made
    per iteration (trace extraction, then formalization); the equivalence
    task is a single request with the vocabulary prompt.  Failures raise:
    a missing URL, a transport error, an HTTP error status (its code is in
    the message), a response over ``MAX_RESPONSE_BYTES`` or one without a
    ``text`` field.  :func:`run_loop` records the message as the failed
    iteration's ``source error``.  Requests go to ``url``, or, when it is
    None, to ``$CLAIMCHECK_LLM_URL`` as read at each request, and wait at
    most ``HTTP_TIMEOUT_S`` seconds.
    """

    def post(system: str, user: str) -> str:
        endpoint = url or os.environ.get(URL_ENV)
        if not endpoint:
            raise RuntimeError(f"no endpoint URL configured (set {URL_ENV} or pass url=)")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps({"system": system, "user": user}).encode("utf-8")
        import urllib.request  # the HTTP stack loads only when a request is made

        request = urllib.request.Request(endpoint, data=body, headers=headers)
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
            payload = response.read(MAX_RESPONSE_BYTES + 1)
        if len(payload) > MAX_RESPONSE_BYTES:
            raise ValueError(f"response exceeds {MAX_RESPONSE_BYTES} bytes")
        return json.loads(payload.decode("utf-8"))["text"]

    def source(task, snippets, prior_facts):
        prior = prior_facts.strip() or "(none yet)"
        if task == MSAN:
            explanation = _split_marked(snippets, "explanation") or snippets
            context = _split_marked(snippets, "context") or snippets
            trace = post(
                render_template(
                    "msan_trace_v1",
                    file_context=context,
                    explanation=explanation,
                ),
                explanation,
            )
            return post(
                render_template("msan_formalize_v1", trace=trace, prior_facts=prior),
                trace,
            )
        code1 = _split_marked(snippets, "code1") or snippets
        code2 = _split_marked(snippets, "code2") or snippets
        return post(
            render_template(
                "equiv_formalize_v1",
                code1=code1,
                code2=code2,
                prior_facts=prior,
            ),
            snippets,
        )

    return source
