"""The three workloads: their cases, the timed call, and the known answer.

A case is one check.  ``run`` is the timed part, from the input text to the
verdict, and calls only public functions of the package.  ``judge`` compares
the result with the case's known answer outside the timed region and
returns a failure cause, or None.  ``outcome`` renders the verdict and
witness as canonical bytes for the determinism digest.

The in-process workloads look every function up through its module at call
time, so the traced run can wrap them from outside.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
BENCH = Path(__file__).resolve().parent

WRONG_VERDICT = "wrong verdict"
WRONG_WITNESS = "wrong witness"
WRONG_EXIT = "wrong exit code"
ORACLE_REFUTED = "Equivalent refuted by oracle"
EXIT_BY_VERDICT = {
    "Verified": 0,
    "Equivalent": 0,
    "DontKnow": 1,
    "NotEquivalent": 1,
    "Inconclusive": 1,
}


@dataclass
class Case:
    id: str
    kind: str
    text: str  # the input text; its digest goes into the output
    facts: int  # input size, counted from the text
    expect: Any
    extra: dict = field(default_factory=dict)


def _mod(name: str):
    return importlib.import_module(name)


def child_env(hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


# ---------------------------------------------------------------------------
# Host probes: fixed work that does not touch the package, timed before each
# check to tell how fast the shared host is at that moment
# ---------------------------------------------------------------------------

HOST_PROBE_REF_S = 0.0013  # host_probe on a quiet 2-vCPU VM
LAUNCH_PROBE_REF_S = 0.010  # Launcher.probe on the same VM


def host_probe() -> float:
    """Seconds for a loop of tuple, str and dict work, like the in-process
    checks do: the fastest of three passes, so that a pass the scheduler
    interrupts does not count."""
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        counts: dict = {}
        for i in range(4000):
            key = ("k", i % 997, str(i))
            counts[key] = counts.get(key, 0) + len(key[2])
        passes.append(time.perf_counter() - start)
    return min(passes)


# ---------------------------------------------------------------------------
# verify-scale: fact text -> load_* -> verify_msan / verify_equiv
# ---------------------------------------------------------------------------

CHAIN_STEPS = (50, 100, 200, 400, 800, 1600)
TOY_SIZES = (20, 40, 80, 160, 320)
TOY_KINDS = ("self", "rename", "mutate", "onesided")
# Every size takes every kind, plus one 240-statement mutation.  The extra
# case puts the pooled median in the middle of the three 80-statement
# Equivalent/NotEquivalent cases and p90 in the middle of their 320-statement
# counterparts, instead of on the edge between two sizes, where it would
# jump between them from run to run.
TOY_PAIRS = tuple((n, kind) for n in TOY_SIZES for kind in TOY_KINDS) + ((240, "mutate"),)
TOY_EXPECT = {"self": "Equivalent", "rename": "Equivalent", "mutate": "NotEquivalent", "onesided": "Inconclusive"}


def _shape(key: str) -> random.Random:
    """Structure generator for one case slot; independent of the seed."""
    return random.Random(f"shape:{key}")


def _toy_bundle(rng: random.Random, n: int, kind: str, slot: str) -> tuple[str, Any]:
    """Bundle text for a toy pair, plus the pair (kept for the oracle)."""
    toy = _mod("claimcheck.toy")
    while True:
        pair = gen.toy_pair(rng, _shape(f"toy:{n}:{slot}"), n, kind)
        p1 = toy.normalize(toy.parse_toy(pair.source1))
        p2 = toy.normalize(toy.parse_toy(pair.source2))
        # A mutation of a dead statement, or a swap under a commutative
        # operator, leaves the meaning unchanged; NotEquivalent is the known
        # answer only for one the brute-force oracle tells apart.
        if kind != "mutate" or not toy.oracle_equiv(p1, p2, pair.var_map):
            break
    bundle = toy.extract_equiv_facts(p1, p2, pair.var_map)
    text = gen.shuffle_sections(rng, bundle.render(), drop_code2_watch=kind == "onesided")
    return text, (p1, p2, pair.var_map)


def _oracle(case: Case) -> bool:
    """Brute-force equivalence over the toy interpreter, cached per case."""
    if "oracle" not in case.extra:
        p1, p2, var_map = case.extra["programs"]
        case.extra["oracle"] = _mod("claimcheck.toy").oracle_equiv(p1, p2, var_map)
    return case.extra["oracle"]


def verify_scale_cases(rng: random.Random) -> list[Case]:
    cases = []
    for steps in CHAIN_STEPS:
        for verified in (True, False):
            c = gen.msan_chain(rng, _shape(f"chain:{steps}"), steps, verified)
            cases.append(Case(
                f"chain-{steps}-{'verified' if verified else 'dontknow'}", "chain",
                c.text, gen.fact_lines(c.text),
                ("Verified", c.chain) if verified else ("DontKnow", None),
            ))
    for n, kind in TOY_PAIRS:
        text, programs = _toy_bundle(rng, n, kind, "")
        case = Case(f"toy-{n}-{kind}", "toy", text, gen.fact_lines(text),
                    TOY_EXPECT[kind], {"programs": programs})
        if kind in ("self", "rename"):
            _oracle(case)
        cases.append(case)
    return cases


def verify_scale_run(case: Case):
    cc = _mod("claimcheck")
    if case.kind == "chain":
        return cc.verify_msan(cc.load_msan_facts(case.text))
    return cc.verify_equiv(cc.load_equiv_bundle_text(case.text))


def verify_scale_judge(case: Case, verdict) -> str | None:
    if case.kind == "chain":
        outcome, chain = case.expect
        if verdict.outcome != outcome:
            return WRONG_VERDICT
        if chain is not None and tuple(verdict.witness) != chain:
            return WRONG_WITNESS
        return None
    if verdict.outcome != case.expect:
        return WRONG_VERDICT
    if verdict.outcome == "Equivalent" and not _oracle(case):
        return ORACLE_REFUTED
    return None


def verify_scale_outcome(case: Case, verdict) -> Any:
    if case.kind == "chain":
        return [verdict.outcome, verdict.witness]
    return [verdict.outcome, verdict.witness.to_json() if verdict.witness else None,
            list(verdict.obligations), len(verdict.mismatches)]


# ---------------------------------------------------------------------------
# datalog-eval: evaluate on TC, msan_program (+ explain), equiv_rules
# ---------------------------------------------------------------------------

# Small rungs repeat so that three rounds hold the hundred checks p90 needs;
# every repeat is a fresh input of the same size.  The counts put each
# reported quantile inside a block of cases that take about the same time,
# not on the edge between two sizes, where it would jump between them from
# run to run: 19 cases run faster than the six 100-step msan chains and 19
# slower, so the median falls among those six; above the 800- and 400-step
# chains, the three 80-statement toy pairs and TC n=100 hold p90.
TC_SIZES = (25, 25, 25, 25, 25, 25, 25, 25, 25, 35, 35, 50, 50, 70, 100)
RULE_CHAIN_STEPS = (50, 50, 50, 50, 50, 50, 50, 50, 100, 100, 100, 100, 100, 100, 200, 200, 400, 800)
RULE_TOY_SIZES = (20, 20, 20, 20, 30, 30, 40, 40, 80, 80, 80)


def datalog_eval_cases(rng: random.Random) -> list[Case]:
    cases = []
    for i, n in enumerate(TC_SIZES):
        text = gen.tc_chain(rng, n)
        cases.append(Case(f"tc-{n}-{i}", "tc", text, gen.fact_lines(text), n * (n + 1) // 2))
    for i, steps in enumerate(RULE_CHAIN_STEPS):
        c = gen.msan_chain(rng, _shape(f"chain:{steps}:{i}"), steps, True, decoys=False)
        cases.append(Case(f"msan-rules-{steps}-{i}", "msan-rules", c.text,
                          gen.fact_lines(c.text), steps))
    for i, n in enumerate(RULE_TOY_SIZES):
        text, programs = _toy_bundle(rng, n, "self", str(i))
        case = Case(f"equiv-rules-{n}-{i}", "equiv-rules", text, gen.fact_lines(text),
                    "Equivalent", {"programs": programs})
        _oracle(case)
        cases.append(case)
    return cases


def datalog_eval_run(case: Case):
    dl = _mod("claimcheck.datalog")
    if case.kind == "tc":
        return dl.evaluate(dl.parse_program(case.text))
    cc = _mod("claimcheck")
    if case.kind == "msan-rules":
        db = dl.evaluate(_mod("claimcheck.msan").msan_program(cc.load_msan_facts(case.text)))
        return db, dl.explain(db, dl.Atom("satisfied", ()))
    eq = _mod("claimcheck.equivalence")
    bundle = cc.load_equiv_bundle_text(case.text)
    return dl.evaluate(eq.equiv_rules(bundle, eq.build_pairing(bundle)))


def _leaves(derivation) -> list:
    """Input facts under a derivation, collected without recursion."""
    out, stack = [], [derivation]
    while stack:
        node = stack.pop()
        if node.rule is None:
            out.append(node.fact)
        else:
            stack.extend(reversed(node.children))
    return out


def datalog_eval_judge(case: Case, result) -> str | None:
    if case.kind == "tc":
        return None if len(result.get("path", ())) == case.expect else WRONG_VERDICT
    if case.kind == "msan-rules":
        db, derivation = result
        if not db.get("satisfied"):
            return WRONG_VERDICT
        flows = [a for a in _leaves(derivation) if a.predicate == "flow"]
        return None if len(flows) == case.expect else WRONG_WITNESS
    if bool(result.get("equivalent")) != (case.expect == "Equivalent") or result.get("mismatch"):
        return WRONG_VERDICT
    if result.get("equivalent") and not _oracle(case):
        return ORACLE_REFUTED
    return None


def datalog_eval_outcome(case: Case, result) -> Any:
    if case.kind == "tc":
        return sorted(result["path"])
    if case.kind == "msan-rules":
        print_atom = _mod("claimcheck.datalog").print_atom
        return [print_atom(a) for a in _leaves(result[1])]
    return [sorted(result.get("equivalent", ())), sorted(result.get("mismatch", ()))]


# ---------------------------------------------------------------------------
# Fresh interpreters
# ---------------------------------------------------------------------------


def peak_rss_kb() -> int:
    """This process's own peak RSS (``VmHWM``).

    ``ru_maxrss`` is no use here: at ``exec`` the kernel folds the parent's
    high-water mark into the child's, so a child never reads below the
    process that started it.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


@dataclass
class Launch:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float


class Launcher:
    """Starts ``python3 <args>`` in the checkout and reaps it.

    Output goes to two unlinked temporary files in the benchmark directory,
    since a pipe could fill and stall the child.
    """

    TIMEOUT_S = 60

    def __init__(self):
        self._out = tempfile.TemporaryFile(dir=BENCH)
        self._err = tempfile.TemporaryFile(dir=BENCH)

    def close(self) -> None:
        self._out.close()
        self._err.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def probe(self) -> float:
        """Seconds for a bare interpreter launch that reads no site or
        package files: the exec and start-up every launch pays."""
        launch = self.run(["-I", "-S", "-c", "pass"])
        if launch.returncode != 0:
            raise RuntimeError(f"bare interpreter exited {launch.returncode}")
        return launch.wall_s

    def run(self, args: list[str], hash_seed: str | None = None) -> Launch:
        for f in (self._out, self._err):
            f.seek(0)
            f.truncate()

        def expire(signum, frame):
            raise TimeoutError(f"launch exceeded {self.TIMEOUT_S} s")

        env = child_env(hash_seed)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=self._out, stderr=self._err,
        )
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(self.TIMEOUT_S)
        try:
            _, status = os.waitpid(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = []
        for f in (self._out, self._err):
            f.seek(0)
            outputs.append(f.read())
        return Launch(proc.returncode, outputs[0], outputs[1], wall)


# ---------------------------------------------------------------------------
# cli-corpus: one `python -m claimcheck.cli` launch per check
# ---------------------------------------------------------------------------

FORMALIZE_FIXTURE = "msan/audio_buffer_trace.facts"
RSS_MARKER = b"BENCH_VMHWM_KB "
# ``python -m claimcheck.cli`` as runpy runs it, plus an exit hook that
# writes the process's own peak RSS (see peak_rss_kb) as the last stderr line.
CLI_MAIN = (
    "import atexit, runpy, sys\n"
    "def report():\n"
    "    with open('/proc/self/status', encoding='ascii') as f:\n"
    "        kb = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
    f"    sys.stderr.write('{RSS_MARKER.decode()}' + kb + '\\n')\n"
    "atexit.register(report)\n"
    "runpy.run_module('claimcheck.cli', run_name='__main__', alter_sys=True)\n"
)


def cli_corpus_cases(rng: random.Random, seed: int) -> list[Case]:
    manifest_text = (FIXTURES / "corpus.json").read_text(encoding="utf-8")
    entries = json.loads(manifest_text)["fixtures"]
    cases = []
    expected = {}
    total = 0
    for e in entries:
        text = (FIXTURES / e["path"]).read_text(encoding="utf-8")
        command = "verify-msan" if e["task"] == "msan" else "verify-equiv"
        argv = [command, f"fixtures/{e['path']}"]
        cases.append(Case(f"{command}:{e['name']}", "verify", text, gen.fact_lines(text),
                          e["expected"], {"argv": argv}))
        expected[e["name"]] = e["expected"]
        total += gen.fact_lines(text)
    cases.append(Case("corpus", "corpus", manifest_text, total, expected,
                      {"argv": ["corpus", "fixtures/corpus.json"]}))
    truth = f"fixtures/{FORMALIZE_FIXTURE}"
    text = (FIXTURES / FORMALIZE_FIXTURE).read_text(encoding="utf-8")
    verdict = next(e["expected"] for e in entries if e["path"] == FORMALIZE_FIXTURE)
    cases.append(Case("formalize", "formalize", text, gen.fact_lines(text), verdict, {"argv": [
        "formalize", truth, "--task", "msan", "--source", "mock", "--ground-truth", truth,
        "--withhold", "0.4", "--seed", str(seed), "--verify",
    ]}))
    return cases


class CliCorpus:
    """Launches the CLI per check; in a traced run, through ``cli_child.py``."""

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.tracer = None
        self.rss_kb: list[int] = []  # each launch's own peak RSS
        self.timing_shares: list[float] = []
        self.recovered: list[float] = []

    def run(self, case: Case) -> Launch:
        argv = case.extra["argv"]
        if self.tracer is not None:
            launch = self.launcher.run([str(BENCH / "cli_child.py"), *argv])
            self.tracer.absorb_child(launch)
            return launch
        launch = self.launcher.run(["-c", CLI_MAIN, *argv])
        lines = launch.stderr.splitlines()
        if lines and lines[-1].startswith(RSS_MARKER):
            self.rss_kb.append(int(lines[-1][len(RSS_MARKER):]))
        return launch

    def judge(self, case: Case, launch: Launch) -> str | None:
        try:
            report = json.loads(launch.stdout)
        except ValueError:
            tail = launch.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit {launch.returncode} without a report: {' '.join(tail)[:120]}"
        if "timing_ms" in report:
            self.timing_shares.append(report["timing_ms"] / 1000.0 / launch.wall_s)
        if case.kind == "corpus":
            actual = {row["name"]: row["actual"] for row in report.get("results", ())}
            if actual != case.expect:
                return WRONG_VERDICT
            return None if launch.returncode == 0 else WRONG_EXIT
        verdict = report.get("verdict")
        if case.kind == "formalize":
            self.recovered.append(report["consolidated_facts"] / case.facts)
            if report["consolidated_facts"] != case.facts:
                # No known answer for a partial recovery: only the exit code
                # must match the documented one for the verdict given.
                return None if launch.returncode == EXIT_BY_VERDICT.get(verdict) else WRONG_EXIT
        if verdict != case.expect:
            return WRONG_VERDICT
        return None if launch.returncode == EXIT_BY_VERDICT[case.expect] else WRONG_EXIT

    @staticmethod
    def outcome(case: Case, launch: Launch) -> Any:
        report = json.loads(launch.stdout)
        report.pop("timing_ms", None)
        for record in report.get("iterations", ()):
            record.pop("wall_ms", None)
        return [launch.returncode, report]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    cases: Callable[[random.Random, int], list[Case]]
    run: Callable[[Case], Any]
    judge: Callable[[Case, Any], str | None]
    outcome: Callable[[Case, Any], Any]
    setup_args: list[str]  # argv after python3: import the entry modules, run one check
    entry_modules: tuple[str, ...]
    probe: Callable[[], float] = host_probe
    probe_ref_s: float = HOST_PROBE_REF_S
    cli: CliCorpus | None = None


_MSAN_FIXTURE = f"fixtures/{FORMALIZE_FIXTURE}"


def make_workload(name: str, launcher: Launcher) -> Workload:
    if name == "cli-corpus":
        cli = CliCorpus(launcher)
        return Workload(
            cli_corpus_cases, cli.run, cli.judge, cli.outcome,
            ["-m", "claimcheck.cli", "verify-msan", _MSAN_FIXTURE], ("claimcheck.cli",),
            launcher.probe, LAUNCH_PROBE_REF_S, cli,
        )
    if name == "verify-scale":
        return Workload(
            lambda rng, seed: verify_scale_cases(rng), verify_scale_run,
            verify_scale_judge, verify_scale_outcome,
            ["-c", "import claimcheck as c\n"
                   f"c.verify_msan(c.load_msan_facts(open({_MSAN_FIXTURE!r}).read()))"],
            ("claimcheck",),
        )
    if name == "datalog-eval":
        return Workload(
            lambda rng, seed: datalog_eval_cases(rng), datalog_eval_run,
            datalog_eval_judge, datalog_eval_outcome,
            ["-c", "import claimcheck.datalog as d, claimcheck.msan, claimcheck.equivalence\n"
                   "d.evaluate(d.parse_program('e(\"a\", \"b\"). p(x, y) :- e(x, y).'))"],
            ("claimcheck.datalog", "claimcheck.msan", "claimcheck.equivalence"),
        )
    raise KeyError(name)


WORKLOAD_NAMES = ("cli-corpus", "verify-scale", "datalog-eval")
