"""Iterative fact acquisition from a pluggable source.

A fact source is asked repeatedly for predicate instances.  Each response
is read leniently into the task's fact container, ``MsanFactSet`` or
``EquivBundle``: prose is ignored, and a malformed fact line or a fact
outside the vocabulary is logged as a failure of its line.  Containers are
consolidated by union, never replacement, and the consolidated container
is what the source sees as prior facts and what the loop returns; whether
its facts suffice for a verdict is for lint to say.  The loop stops at an
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
from typing import TYPE_CHECKING, Callable, Protocol

from . import facts
from .datalog.values import Record
from .errors import ClaimcheckError, DatalogSyntaxError
from .facts import CODE1, CODE2, CORRESPONDENCE, EQUIV, MSAN, _scan
from .prompts import render_template

if TYPE_CHECKING:
    from .datalog.ast import Atom

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


# A line that may hold a fact; any other line of a response is prose.
_FACT_LINE = re.compile(r"\s*[A-Za-z_][A-Za-z0-9_]*\s*\(")
# Section markers of the listing style, besides those of a bundle.
_LISTING_MARKERS = {
    "<code1 predicates>": CODE1,
    "<code2 predicates>": CODE2,
    "<common predicates>": CORRESPONDENCE,
}

_TAGS = {"Code1": CODE1, "Code2": CODE2}


def _strip_tags(atom: Atom) -> tuple[Atom, str | None]:
    """Remove inline Code1/Code2 tag arguments; returns (atom, tagged section)."""
    from .datalog.ast import Atom

    section = None
    args = []
    for term in atom.args:
        if term in _TAGS:
            section = section or _TAGS[term]
            continue
        args.append(term)
    return Atom(atom.predicate, tuple(args)), section


def _add(found: dict[str, set], facts: dict[str, set]) -> None:
    """Add ``facts`` to ``found``, both field to set."""
    for field, new in facts.items():
        found.setdefault(field, set()).update(new)


def _vocabulary(task: str) -> tuple[dict, Callable, Callable]:
    """The sections of a ``task`` response, each with its predicates'
    relations; the function from the facts found per section (field to set)
    to the task's container; and the one from a line to the section it
    marks, or None.  A trace response is one section, without markers."""
    if task == MSAN:
        from .facts.msan import _MSAN_RELATIONS, MsanFactSet

        container = lambda found: MsanFactSet(**found[MSAN])
        return {MSAN: _MSAN_RELATIONS}, container, lambda line: None
    from .facts.equiv import _CORRESPONDENCE_RELATIONS, _SIDE_RELATIONS, _bundle
    from .facts.equiv import _MARKER_RE

    def marker(line: str) -> str | None:
        m = _MARKER_RE.fullmatch("\n" + line)
        return m[1].casefold() if m else _LISTING_MARKERS.get(line.strip().lower())

    sections = {
        CODE1: _SIDE_RELATIONS,
        CODE2: _SIDE_RELATIONS,
        CORRESPONDENCE: _CORRESPONDENCE_RELATIONS,
    }
    return sections, lambda found: _bundle(*map(found.get, sections)), marker


def parse_response(
    task: str, text: str
) -> tuple[facts.MsanFactSet | facts.EquivBundle, list[tuple[int, str]]]:
    """Lenient parse of a source response into the task's container.

    A fact line starts with a predicate and ``(``, and its final dot may be
    missing; every other line is prose, which is ignored, or a section
    marker: a bundle's, as ``split_bundle_sections`` reads it, or
    ``<code1 predicates>`` style.  A fact line that does not parse, a fact
    outside the vocabulary (an unknown predicate, a wrong arity or sort)
    and an equivalence side fact with no Code1/Code2 attribution are each a
    ``(line, reason)`` failure."""
    sections, container, marker = _vocabulary(task)
    found: dict[str, dict[str, set]] = {section: {} for section in sections}
    failures: list[tuple[int, str]] = []
    current = MSAN if task == MSAN else None
    for idx, raw in enumerate(text.splitlines(), start=1):
        if not _FACT_LINE.match(raw):  # prose, or a section marker
            current = marker(raw) or current
            continue
        line = raw.strip()
        if not line.endswith("."):
            line += "."
        # A line that the fact scan reads in full needs no parser.  A Code1 or
        # Code2 tag is stripped, and a fact outside every section attributed,
        # on the parser path only.
        scanned = None if '"Code' in line else _scan(line, sections.get(current, {}))
        if scanned is not None:
            _add(found[current], scanned)
            continue
        from .datalog.parser import parse_facts
        from .facts.atoms import _load_atoms

        try:
            atoms = parse_facts(line)
        except DatalogSyntaxError as exc:
            failures.append((idx, exc.message))
            continue
        for atom in atoms:
            section = current
            if task == EQUIV:
                atom, tagged = _strip_tags(atom)
                if atom.predicate in sections[CORRESPONDENCE]:
                    section = CORRESPONDENCE
                elif tagged is not None:
                    section = tagged
            if section is None:
                failures.append((idx, f"{atom.predicate}: no Code1/Code2 attribution"))
                continue
            try:
                _add(found[section], _load_atoms([atom], sections[section], str))
            except ClaimcheckError as exc:
                failures.append((idx, str(exc)))
    return container(found), failures


def run_loop(
    source: FactSource,
    task: str,
    snippets: str,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[facts.MsanFactSet | facts.EquivBundle, IterationLog]:
    """Union facts across source calls until a re-ask adds nothing; returns
    the task's container of every fact seen, and the log.

    Source failures surface as an empty delta plus a log entry; they never
    abort the loop.
    """
    if task not in (MSAN, EQUIV):
        raise ValueError(f"unknown task {task!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    consolidated, _ = parse_response(task, "")
    log = IterationLog()
    for index in range(1, max_iters + 1):
        start = time.perf_counter()
        failures = []
        try:
            text = source(task, snippets, consolidated.render())
        except Exception as exc:  # a broken source must not kill the loop
            print(f"fact source failed on iteration {index}: {exc}", file=sys.stderr)
            text = ""
            failures.append((0, f"source error: {exc}"))
        response, parse_failures = parse_response(task, text)
        merged = consolidated.union(response)
        new_facts = len(merged) - len(consolidated)
        consolidated = merged
        log.records.append(
            IterationRecord(
                index=index,
                raw_text=text,
                parsed_facts=len(response),
                new_facts=new_facts,
                failures=failures + parse_failures,
                wall_ms=(time.perf_counter() - start) * 1000.0,
            )
        )
        if index >= 2 and new_facts == 0:
            break
    return consolidated, log


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
    calls = {"n": 0}

    def source(task, snippets, prior_facts):
        calls["n"] += 1
        rng = random.Random(seed * 1_000_003 + calls["n"])
        kept = []
        for line in lines:
            if _FACT_LINE.match(line) and rng.random() < withhold_fraction:
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
