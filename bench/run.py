"""claimcheck benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single caller in this process: the
next check starts when the previous verdict is back.  The seed builds every
input (see ``gen.py``); checks are issued in whole rounds over the fixed
case list, reshuffled per round, until the next round would overrun
``--seconds`` and at least ``MIN_CHECKS`` checks are done.  Each verdict is
compared with a known answer that does not come from the verifier.

The shared host's speed swings by a quarter within a second.  So a fixed
probe that does not touch the package is timed between checks, and each
time is reported scaled to a reference host: multiplied by the probe's
reference time over the mean of the probes just before and after it
(``Phase.scale``).  The unscaled figures are in the detail line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with spans around the package's public functions,
reports the per-layer metrics, and re-runs one round in a child interpreter
under another ``PYTHONHASHSEED`` to check that inputs, verdicts and
witnesses are byte-identical.  The next-to-last stdout line holds the input
digests, fact counts and failures by cause; the last line is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_CHECKS = 100  # p90 then has at least ten samples above it
MIN_CHECKS_PER_TRACE_PHASE = 50
HARD_STOP_FACTOR = 2.5  # no new round once a phase has run this many budgets
SETUP_LAUNCHES = 9  # spread evenly over the measured phase
PROBE_LAUNCHES = 5
SETUP_PROBES = 2  # bare launches on each side of a set-up launch


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Phase:
    probe_ref_s: float  # the workload's probe time on the reference host
    samples: list[tuple[float, str | None, int]] = field(default_factory=list)  # (s, cause, facts)
    probes: list[float] = field(default_factory=list)  # host probe seconds, before each check and at the end
    spans: list[tuple[float, list]] = field(default_factory=list)  # traced: (s, spans) per check
    setup: list[tuple[float, float]] = field(default_factory=list)  # (wall s, launch probe s) per launch
    rounds: int = 0

    def scale(self, j: int) -> float:
        """Reference probe time over the mean of the probes just before and
        just after check ``j``.

        The shared host's speed swings by a quarter within a second, and the
        probe, which does not touch the package, swings with it; scaling by
        it reports every time as it would read on the reference host.  Probes
        further away track the speed during the check worse.
        """
        return self.probe_ref_s / ((self.probes[j] + self.probes[j + 1]) / 2)

    def scaled(self) -> list[tuple[float, str | None, int]]:
        return [(s * self.scale(j), cause, f) for j, (s, cause, f) in enumerate(self.samples)]

    def times_ms(self) -> list[float]:
        return [s * 1000.0 for s, _, _ in self.scaled()]

    def setup_s(self) -> list[float]:
        return [wall * wl.LAUNCH_PROBE_REF_S / probe for wall, probe in self.setup]


def _exception_cause(exc: BaseException) -> str:
    """Exception type and the package function the harness called into."""
    where = "?"
    tb = exc.__traceback__
    while tb is not None:
        if Path(tb.tb_frame.f_code.co_filename).resolve().is_relative_to(SRC):
            where = tb.tb_frame.f_code.co_name
            break
        tb = tb.tb_next
    return f"{type(exc).__name__} in {where}"


def _measure(
    workload, cases, budget_s, min_checks, order_rng, tracer=None, outcomes=None, setup=None
) -> Phase:
    """Whole rounds of checks, each after a host probe; ``setup`` launches
    are spread over the phase."""
    phase = Phase(workload.probe_ref_s)
    start = time.perf_counter()
    next_setup = start
    last_round = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if phase.rounds and (
            elapsed > HARD_STOP_FACTOR * budget_s
            or (len(phase.samples) >= min_checks and elapsed + last_round > budget_s)
        ):
            phase.probes.append(workload.probe())
            while setup is not None and len(phase.setup) < SETUP_LAUNCHES:
                phase.setup.append(setup())
            return phase
        order = list(range(len(cases)))
        order_rng.shuffle(order)
        round_start = time.perf_counter()
        for i in order:
            case = cases[i]
            if setup is not None and len(phase.setup) < SETUP_LAUNCHES and time.perf_counter() >= next_setup:
                phase.setup.append(setup())
                next_setup += budget_s / SETUP_LAUNCHES
            phase.probes.append(workload.probe())
            gc.collect()  # every check starts from the same collector state
            t0 = time.perf_counter()
            try:
                result = workload.run(case)
            except Exception as exc:  # a failed check is counted, never fatal
                seconds = time.perf_counter() - t0
                cause = _exception_cause(exc)
                result = None
            else:
                seconds = time.perf_counter() - t0
                cause = workload.judge(case, result)
            if tracer is not None:
                phase.spans.append((seconds, tracer.take()))
            if outcomes is not None and i not in outcomes:
                outcomes[i] = _outcome_sha256(cause if result is None else workload.outcome(case, result))
            phase.samples.append((seconds, cause, case.facts))
        last_round = time.perf_counter() - round_start
        phase.rounds += 1


def _outcome_sha256(outcome) -> str:
    """Digest of one verdict and witness.  Only the digest is kept, so the
    peak RSS does not depend on the order in which outcomes were kept."""
    return hashlib.sha256(json.dumps(outcome, sort_keys=True, default=repr).encode()).hexdigest()


def _digests(cases, outcomes: dict) -> dict:
    inputs = [hashlib.sha256(c.text.encode()).hexdigest() for c in cases]
    ordered = [outcomes[i] for i in range(len(cases))]
    return {
        "inputs_sha256": hashlib.sha256("".join(inputs).encode()).hexdigest(),
        "outcomes_sha256": hashlib.sha256("".join(ordered).encode()).hexdigest(),
        "per_input": [{"id": c.id, "sha256": h, "facts": c.facts} for c, h in zip(cases, inputs)],
    }


def _launch_walls(launcher, args: list[str], count: int) -> list[float]:
    walls = []
    for _ in range(count):
        launch = launcher.run(args)
        if launch.returncode != 0:
            _fail(f"launch {args} exited {launch.returncode}: {launch.stderr[-300:]!r}")
        walls.append(launch.wall_s)
    return walls


def _setup_launch(launcher, args: list[str]) -> tuple[float, float]:
    """Wall seconds of one set-up launch, and the median of the bare
    launches around it, by which it is scaled as checks are."""
    before = [launcher.probe() for _ in range(SETUP_PROBES)]
    wall = _launch_walls(launcher, args, 1)[0]
    after = [launcher.probe() for _ in range(SETUP_PROBES)]
    return wall, statistics.median(before + after)


def _import_ms(launcher, modules: tuple[str, ...]) -> float:
    code = (
        "import time\nt = time.perf_counter()\n"
        f"import {', '.join(modules)}\n"
        "print((time.perf_counter() - t) * 1000.0)"
    )
    values = []
    for _ in range(PROBE_LAUNCHES):
        launch = launcher.run(["-c", code])
        if launch.returncode != 0:
            _fail(f"import of {modules} failed: {launch.stderr[-300:]!r}")
        values.append(float(launch.stdout))
    return statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="run one round in case order and print only its digests")
    args = parser.parse_args(argv)

    for required in (SRC / "claimcheck" / "__init__.py", ROOT / "fixtures" / "corpus.json",
                     ROOT / "BENCHMARK.json"):
        if not required.is_file():
            _fail(f"{required.relative_to(ROOT)} not found: run from the root of a claimcheck checkout")
    sys.path.insert(0, str(SRC))
    import claimcheck

    if Path(claimcheck.__file__).resolve().parent != SRC / "claimcheck":
        _fail(f"imported claimcheck from {claimcheck.__file__}, not from {SRC}")
    from tracing import Tracer, layer_metrics

    if args.workload not in wl.WORKLOAD_NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOAD_NAMES)}")
    wrong_answers = {wl.WRONG_VERDICT, wl.WRONG_WITNESS, wl.WRONG_EXIT, wl.ORACLE_REFUTED}

    with wl.Launcher() as launcher:
        workload = wl.make_workload(args.workload, launcher)
        cases = workload.cases(random.Random(args.seed), args.seed)
        order_rng = random.Random(f"{args.seed}:order")
        outcomes: dict = {}

        if args.digest:
            for i, case in enumerate(cases):
                try:
                    outcomes[i] = _outcome_sha256(workload.outcome(case, workload.run(case)))
                except Exception as exc:
                    outcomes[i] = _outcome_sha256(_exception_cause(exc))
            digests = _digests(cases, outcomes)
            print(json.dumps({k: digests[k] for k in ("inputs_sha256", "outcomes_sha256")}))
            return 0

        setup = None
        if not args.trace:
            _launch_walls(launcher, workload.setup_args, 1)  # untimed: warms the file cache
            setup = lambda: _setup_launch(launcher, workload.setup_args)  # noqa: E731
        warm = min(cases, key=lambda c: c.facts)
        workload.judge(warm, workload.run(warm))
        gc.collect()
        gc.freeze()  # inputs and modules stay out of the collections checks trigger

        budget = args.seconds / 2 if args.trace else args.seconds
        floor = MIN_CHECKS_PER_TRACE_PHASE if args.trace else MIN_CHECKS
        plain = _measure(workload, cases, budget, floor, order_rng, outcomes=outcomes, setup=setup)
        phases = [plain]
        digests = _digests(cases, outcomes)
        detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

        if args.trace:
            cli = workload.cli
            timing_shares = list(cli.timing_shares) if cli else []
            recovered = list(cli.recovered) if cli else []
            tracer = Tracer()
            tracer.install()
            if cli:
                cli.tracer = tracer
            traced = _measure(workload, cases, budget, floor, order_rng, tracer=tracer)
            phases.append(traced)
            metrics = layer_metrics(traced.spans, traced.rounds)
            command_ms = [
                (end - start) * 1000.0
                for _, spans in traced.spans
                for name, _, start, end, _ in spans
                if name == "cli.main"
            ]
            metrics.update({
                "cli.interpreter_ms": 1000.0 * statistics.median(
                    _launch_walls(launcher, ["-c", "pass"], PROBE_LAUNCHES)),
                "cli.import_ms": _import_ms(launcher, workload.entry_modules),
                "cli.command_ms": statistics.median(command_ms) if command_ms else 0.0,
                "cli.report_timing_share": statistics.median(timing_shares) if timing_shares else 0.0,
                "loop.recovered_share": statistics.fmean(recovered) if recovered else 0.0,
                "trace.overhead_share": (
                    statistics.median(traced.times_ms()) / statistics.median(plain.times_ms()) - 1.0
                ),
            })
            hash_seed = os.environ.get("PYTHONHASHSEED", "random")
            other = str(int(hash_seed) + 1) if hash_seed.isdigit() else "0"
            child = launcher.run(
                [str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--digest"],
                hash_seed=other,
            )
            try:
                theirs = json.loads(child.stdout.splitlines()[-1])
            except (ValueError, IndexError):
                theirs = {"error": child.stderr.decode(errors="replace")[-300:]}
            ours = {k: digests[k] for k in ("inputs_sha256", "outcomes_sha256")}
            detail["determinism"] = {
                "hash_seeds": [hash_seed, other], "identical": theirs == ours, "child": theirs,
            }
        else:
            scaled = plain.scaled()
            times = plain.times_ms()
            busy_s = sum(s for s, _, _ in scaled)
            completed_facts = sum(f for _, cause, f in scaled
                                  if cause is None or cause in wrong_answers)
            failed = sum(1 for _, cause, _ in plain.samples if cause is not None)
            # Launches of the same command differ by a few MB, so the median
            # launch is reported rather than the largest.
            rss_kb = statistics.median(workload.cli.rss_kb) if workload.cli else wl.peak_rss_kb()
            metrics = {
                "check_ms_p50": statistics.median(times),
                "check_ms_p90": statistics.quantiles(times, n=10)[-1],
                "facts_per_s": completed_facts / busy_s,
                "ok_rate": 1.0 - failed / len(plain.samples),
                "peak_rss_mb": rss_kb / 1024.0,
                "setup_s": statistics.median(plain.setup_s()),
            }
            raw_ms = [s * 1000.0 for s, _, _ in plain.samples]
            detail["unscaled"] = {
                "check_ms_p50": statistics.median(raw_ms),
                "check_ms_p90": statistics.quantiles(raw_ms, n=10)[-1],
                "setup_s": statistics.median(wall for wall, _ in plain.setup),
            }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        _fail(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    samples = [s for phase in phases for s in phase.samples]
    causes: dict[str, int] = {}
    for _, cause, _ in samples:
        if cause is not None:
            causes[cause] = causes.get(cause, 0) + 1
    facts = [c.facts for c in cases]
    correct = not any(c in wrong_answers for c in causes)
    if args.trace:
        correct = correct and detail["determinism"]["identical"]
    detail.update({
        "rounds": [p.rounds for p in phases],
        "checks": len(samples),
        "error_rate": sum(causes.values()) / len(samples),
        "failures_by_cause": causes,
        "fact_counts": {"cases_per_round": len(facts), "min": min(facts),
                        "median": statistics.median(facts), "max": max(facts),
                        "per_round": sum(facts)},
        "setup_s_samples": plain.setup_s(),
        "host_probe_ms": [1000.0 * statistics.median(p.probes) for p in phases],
        "host_probe_ref_ms": 1000.0 * workload.probe_ref_s,
        **digests,
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": sum(causes.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
