import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from claimcheck.equivalence import NOT_EQUIVALENT, verify_equiv
from claimcheck.facts import (
    CORRESPONDENCE_SORTS,
    MSAN_SORTS,
    SIDE_SORTS,
    MsanFactSet,
    SiteFact,
    load_equiv_bundle_text,
)
from claimcheck.loop import (
    EQUIV,
    MSAN,
    MAX_RESPONSE_BYTES,
    http_source,
    mock_source,
    parse_response,
    run_loop,
)
from claimcheck.msan import VERIFIED, verify_msan
from claimcheck.prompts import load_template, render_template


# ---------------------------------------------------------------------------
# The loop itself
# ---------------------------------------------------------------------------


def test_full_source_stops_after_second_iteration(renamed_fn_bundle_text):
    result, log = run_loop(mock_source(renamed_fn_bundle_text), EQUIV, "")
    assert len(log.records) == 2
    assert [r.new_facts for r in log.records] == [78, 0]
    assert len(result) == 78
    assert verify_equiv(result).outcome == NOT_EQUIVALENT


def test_empty_source_stops_after_second_iteration():
    result, log = run_loop(lambda *args: "", MSAN, "")
    assert len(log.records) == 2
    assert [r.new_facts for r in log.records] == [0, 0]
    assert len(result) == 0


def test_single_iteration_cap():
    result, log = run_loop(mock_source("uses(\"x\", \"f\", 1).\n"), MSAN, "", max_iters=1)
    assert len(log.records) == 1
    assert len(result) == 1


@pytest.mark.parametrize(("task", "max_iters", "message"), [
    ("datalog", 1, "unknown task 'datalog'"),
    (MSAN, 0, "max_iters must be >= 1"),
])
def test_run_loop_rejects_an_unknown_task_and_no_iterations(task, max_iters, message):
    with pytest.raises(ValueError) as info:
        run_loop(lambda *args: "", task, "", max_iters=max_iters)
    assert str(info.value) == message


def test_union_is_monotone_and_source_failures_are_survivable(trace_facts_text):
    calls = {"n": 0}
    good = mock_source(trace_facts_text, withhold_fraction=0.5, seed=3)

    def flaky(task, snippets, prior):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("backend down")
        return good(task, snippets, prior)

    result, log = run_loop(flaky, MSAN, "")
    counts = [r.parsed_facts for r in log.records]
    assert counts[1] == 0  # the failed call contributed nothing
    assert any("source error" in reason for _, reason in log.records[1].failures)
    sizes = []
    running = 0
    for record in log.records:
        running += record.new_facts
        sizes.append(running)
    assert sizes == sorted(sizes)


def test_mock_is_deterministic_under_seed(renamed_fn_bundle_text):
    run1 = run_loop(mock_source(renamed_fn_bundle_text, 0.4, seed=7), EQUIV, "")
    run2 = run_loop(mock_source(renamed_fn_bundle_text, 0.4, seed=7), EQUIV, "")
    assert run1[1].replay_key() == run2[1].replay_key()
    assert run1[0] == run2[0]
    run3 = run_loop(mock_source(renamed_fn_bundle_text, 0.4, seed=8), EQUIV, "")
    assert run3[1].replay_key() != run1[1].replay_key()


def test_mock_fraction_zero_returns_everything(trace_facts_text):
    source = mock_source(trace_facts_text, withhold_fraction=0.0, seed=1)
    assert source(MSAN, "", "") == source(MSAN, "", "")
    result, _ = run_loop(source, MSAN, "")
    assert len(result) == 11


def test_mock_rejects_bad_fraction(trace_facts_text):
    with pytest.raises(ValueError):
        mock_source(trace_facts_text, withhold_fraction=1.0)


def test_heavy_withholding_often_leaves_bundles_insufficient(renamed_fn_bundle_text):
    inconclusive = 0
    for trial in range(20):
        result, _ = run_loop(
            mock_source(renamed_fn_bundle_text, 0.99, seed=trial), EQUIV, ""
        )
        inconclusive += verify_equiv(result).outcome == "Inconclusive"
    assert inconclusive >= 15


# ---------------------------------------------------------------------------
# Response parsing forms
# ---------------------------------------------------------------------------


def test_tagged_response_form_is_accepted():
    text = (
        'Sure, here are the predicates:\n'
        'def("x", "s.cpp", 1, "Code1").\n'
        'def("x", "s.cpp", 1, "Code2").\n'
        'varMap("x", "s.cpp", 1, "Code1", "x", "s.cpp", 1, "Code2").\n'
    )
    bundle, failures = parse_response(EQUIV, text)
    assert failures == []
    assert len(bundle.code1) == 1
    assert len(bundle.code2) == 1
    assert len(bundle.var_maps) == 1


def test_listing_style_section_markers_are_accepted():
    text = (
        "<Code1 Predicates>\n"
        'def("x", "s.cpp", 1).\n'
        "<Code2 Predicates>\n"
        'def("x", "s.cpp", 1).\n'
        "<Common Predicates>\n"
        "exitMap(3, 3).\n"
    )
    bundle, failures = parse_response(EQUIV, text)
    assert failures == []
    assert {len(bundle.code1), len(bundle.code2), len(bundle.exit_maps)} == {1}


def test_response_parse_skips_prose():
    text = "Here are the facts:\nuses(\"x\", \"f\", 1).\nbroken(\"x\", .\nnot a fact\n"
    facts, failures = parse_response(MSAN, text)
    assert facts == MsanFactSet(uses=[SiteFact("x", "f", 1)])
    assert len(failures) == 1 and failures[0][0] == 3


def test_fact_line_without_its_dot_is_read_on_the_scan(monkeypatch):
    from claimcheck.datalog import parser

    dotted = 'uses("x", "f", 1).\nflow("x", "f", 1, "y", "f", 2).\n'
    expected, failures = parse_response(MSAN, dotted)
    assert failures == [] and len(expected) == 2

    def no_parser(source):
        raise AssertionError(f"the fact scan sent this line to the parser: {source!r}")

    monkeypatch.setattr(parser, "parse_facts", no_parser)
    assert parse_response(MSAN, dotted.replace(").", ")")) == (expected, [])


def test_response_reads_every_bundle_marker_as_a_bundle_does():
    text = (
        "=== code1 ===\n"
        'use("x", "main.cpp", 1).\n'
        "===code2===\n"
        'use("y", "main.cpp", 2).\n'
    )
    bundle, failures = parse_response(EQUIV, text)
    assert failures == []
    assert bundle == load_equiv_bundle_text(text)
    assert bundle.code2.uses == {SiteFact("y", "main.cpp", 2)}


def test_untagged_side_fact_is_logged_not_crashed():
    bundle, failures = parse_response(EQUIV, 'def("x", "s.cpp", 1).\n')
    assert len(bundle) == 0
    assert len(failures) == 1 and "attribution" in failures[0][1]


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------


def test_msan_template_carries_the_full_vocabulary():
    text = load_template("msan_formalize_v1")
    assert 'flow("x", "src_file_x", line_x' in text
    for head in ("uses(", "uninitialized(", "hasInitializer(", "hasMemberInitializer(",
                 "allocated(", "declared(", "memoryError("):
        assert head in text
    for head in MSAN_SORTS:
        assert head + "(" in text


def test_equiv_template_carries_the_full_vocabulary():
    text = load_template("equiv_formalize_v1")
    for head in [*SIDE_SORTS, *CORRESPONDENCE_SORTS]:
        assert head + "(" in text or head == "watchVar"  # prompt names it outputVar
    assert "outputVar(" in text


def test_render_template_is_brace_safe():
    rendered = render_template(
        "msan_formalize_v1", trace="TRACE_BODY", prior_facts="(none)"
    )
    assert "TRACE_BODY" in rendered
    assert "{trace}" not in rendered
    rendered = render_template(
        "equiv_formalize_v1", code1="A", code2="B", prior_facts="(none)"
    )
    assert "{code1}" not in rendered and "{code2}" not in rendered


def test_unknown_template_id():
    with pytest.raises(KeyError):
        load_template("nope_v0")


# ---------------------------------------------------------------------------
# The HTTP source against a loopback stub
# ---------------------------------------------------------------------------


class _Stub(BaseHTTPRequestHandler):
    canned = ""
    status = 200
    requests: list[dict] = []
    authorizations: list[str | None] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).requests.append(json.loads(self.rfile.read(length)))
        type(self).authorizations.append(self.headers["Authorization"])
        body = json.dumps({"text": type(self).canned}).encode()
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server(trace_facts_text):
    _Stub.canned = trace_facts_text
    _Stub.status = 200
    _Stub.requests = []
    _Stub.authorizations = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    thread.join()
    server.server_close()


def test_http_source_round_trip(stub_server, trace_facts_text):
    source = http_source(stub_server)
    result, log = run_loop(source, MSAN, "explanation text")
    assert len(result) == 11
    assert verify_msan(result).outcome == VERIFIED
    # two requests per iteration for the trace task: extract, then formalize
    assert len(_Stub.requests) == 2 * len(log.records)
    assert all(set(r) == {"system", "user"} for r in _Stub.requests)


def test_http_source_reads_url_and_token_from_the_environment(stub_server, monkeypatch):
    monkeypatch.setenv("CLAIMCHECK_LLM_URL", stub_server)
    monkeypatch.setenv("CLAIMCHECK_LLM_TOKEN", "secret-token")
    result, _ = run_loop(http_source(None), MSAN, "x", max_iters=1)
    assert len(result) == 11
    assert _Stub.authorizations == ["Bearer secret-token"] * 2


def test_http_source_without_a_url_logs_a_source_error(monkeypatch):
    monkeypatch.delenv("CLAIMCHECK_LLM_URL", raising=False)
    monkeypatch.delenv("CLAIMCHECK_LLM_TOKEN", raising=False)
    _, log = run_loop(http_source(), MSAN, "x", max_iters=1)
    assert log.records[0].failures == [
        (0, "source error: no endpoint URL configured (set CLAIMCHECK_LLM_URL or pass url=)")
    ]


def test_http_source_renders_vocabulary_into_requests(stub_server):
    source = http_source(stub_server)
    run_loop(source, MSAN, "snippet", max_iters=1)
    formalize_request = _Stub.requests[-1]
    assert 'flow("x", "src_file_x", line_x' in formalize_request["system"]


def test_http_source_equivalence_makes_one_request_per_iteration(
    stub_server, renamed_fn_bundle_text
):
    _Stub.canned = renamed_fn_bundle_text
    snippets = "=== code1 ===\nint y = foo(x);\n=== code2 ===\nint y = bar(x);\n"
    result, log = run_loop(http_source(stub_server), EQUIV, snippets)
    assert len(result) == 78
    assert verify_equiv(result).outcome == NOT_EQUIVALENT
    assert len(_Stub.requests) == len(log.records) == 2
    for request in _Stub.requests:  # each half of the snippets in its own block
        assert request["user"] == snippets
        assert "<Code1>\nint y = foo(x);\n</Code1>" in request["system"]
        assert "<Code2>\nint y = bar(x);\n</Code2>" in request["system"]


def test_http_source_zero_length_snippet(stub_server):
    source = http_source(stub_server)
    result, _ = run_loop(source, MSAN, "", max_iters=1)
    assert len(result) == 11


def test_http_source_maps_transport_errors_to_empty(monkeypatch):
    source = http_source("http://127.0.0.1:1/unreachable")
    result, log = run_loop(source, MSAN, "x", max_iters=2)
    assert len(result) == 0
    assert len(log.records) == 2


def test_http_source_drops_responses_over_the_size_cap(stub_server, trace_facts_text, capsys):
    # every fact is in the body; only its padded size makes the call fail
    _Stub.canned = trace_facts_text + " " * MAX_RESPONSE_BYTES
    source = http_source(stub_server)
    result, log = run_loop(source, MSAN, "x", max_iters=2)
    assert len(result) == 0
    assert len(log.records) == 2
    assert "exceeds" in capsys.readouterr().err


def test_http_error_status_is_logged_as_a_source_error(stub_server):
    _Stub.status = 503
    source = http_source(stub_server)
    result, log = run_loop(source, MSAN, "x", max_iters=1)
    assert len(result) == 0
    assert any("503" in reason for _, reason in log.records[0].failures)


def test_cli_formalize_against_loopback_stub(stub_server, tmp_path, capsys, trace_facts_text):
    from claimcheck.cli import main
    from claimcheck.facts import load_msan_facts

    snippets = tmp_path / "snips"
    snippets.write_text("explanation of the bug")
    out = tmp_path / "consolidated.facts"
    code = main(
        ["formalize", str(snippets), "--task", "msan", "--source", "http",
         "--url", stub_server, "-o", str(out), "--verify"]
    )
    capsys.readouterr()
    assert code == 0
    assert load_msan_facts(out.read_text()) == load_msan_facts(trace_facts_text)
