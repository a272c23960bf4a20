#!/usr/bin/env python3
"""dbasim benchmark: trial throughput, CLI wall time and per-layer timings.

Usage, from the root of a checkout that holds ``src/dbasim``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  ``--trace 0`` measures the
end-to-end metrics with tracing off, as medians of times scaled to a
reference host speed (``hostspeed.py``).  ``--trace 1`` runs the same work
untraced and then traced, and reports per-layer counts and self times.
Every batch is checked (``workloads.check_batch``), every CLI invocation
must exit 0 and print the bytes the in-process run printed, every repeat
of a batch must print the same bytes, and with the reference seed the
records must match ``reference.json``.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the run's metadata.  Spans and
scratch files go to ``.perfbench_out/`` in the checkout.  ``--tiny`` shrinks
every size, for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import hostspeed
import workloads
from hostspeed import Calibrator
from tracer import Tracer, load, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
PROBE = os.path.join(HERE, "probe.py")

#: seed whose records are pinned in reference.json
REFERENCE_SEED = 0
#: how far the ``*_ci`` floats may move from the reference, so that a Wilson
#: interval computed without scipy still passes
CI_TOLERANCE = 1e-9
#: slices of an in-process end-to-end run, each with two child processes (a
#: set-up probe and a CLI invocation in even slices, two CLI invocations in
#: odd ones) and timed passes, (normal, tiny)
SLICES = (5, 1)
#: ``cli-startup`` rounds per end-to-end run however short ``--seconds`` is,
#: so that every invocation has more than one sample, (normal, tiny)
MIN_ROUNDS = (2, 1)
#: ``python -X importtime`` probes per traced run, (normal, tiny)
IMPORT_PROBES = (3, 1)
#: timed passes per phase, however short ``--seconds`` is
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
IMPORT_CODE = "import time; t = time.perf_counter(); import dbasim.cli; print(time.perf_counter() - t)"

CALLS_PER_TRIAL = (
    "listgen.generate_segment",
    "listgen.combine_segments",
    "protocol.check_claim",
    "adversary.forge_claim",
    "harness.derive_rng",
)
SELF_US_PER_TRIAL = (
    "listgen.generate_segment",
    "listgen.combine_segments",
    "listgen.combined_lists_from_segments",
    "protocol.check_claim",
    "protocol.decide",
    "protocol.relay_step",
    "protocol.make_claim",
    "adversary.adversary_act",
    "adversary.forge_claim",
    "adversary.resolve_bribes",
    "harness.derive_rng",
    "harness.run_trial",
    "harness.run_batch",
)


@dataclass
class Child:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    #: ``wall_s`` scaled to the reference host speed (``hostspeed``)
    scaled_s: float = 0.0


def run_child(args: list[str]) -> Child:
    """Run ``python args...`` in the checkout and wait for it: wall time, peak RSS, output.

    A child's peak RSS starts from the parent's at fork, so it is only the
    child's own when the parent is the smaller process.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out.read().decode(), err.read().decode())


@dataclass
class Pass:
    """The run_batch wall seconds of every batch in one pass, raw and scaled to the reference host speed."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)


@dataclass
class Ledger:
    """Operations attempted (batches and CLI invocations) and every problem found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, where: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{where}: {p}" for p in problems]


class Bench:
    """One run of one workload.

    It starts with one untimed run of every batch, which warms caches and
    fixes the bytes that every later run of the batch, in-process or through
    the CLI, must reproduce.  ``cli-startup`` makes that run in a child, so
    that this process stays smaller than the CLI processes whose peak RSS it
    reports.
    """

    def __init__(self, name: str, seed: int, tiny: bool, seconds: float) -> None:
        self.name, self.seed, self.tiny, self.seconds = name, seed, tiny, seconds
        self.ledger = Ledger()
        self.samples: dict[str, int] = {}
        self.kernel_cal = Calibrator(hostspeed.timed(hostspeed.kernel), hostspeed.KERNEL_REF_S)
        self.child_cal = Calibrator(self._calibration_child, hostspeed.CHILD_REF_S)
        self.dump_sha: str | None = None
        #: unscaled end-to-end times, for the metadata
        self.raw: dict[str, float] = {}
        self.in_process = name in workloads.IN_PROCESS
        if self.in_process:
            self.w = workloads.build(name, seed, tiny)
            first = workloads.first_run(self.w)
        else:
            child = run_child([PROBE, name, str(seed), *self._tiny_flag(), "--run"])
            if child.returncode != 0:
                raise RuntimeError(f"first run failed: {child.stderr.strip()[-2000:]}")
            first = json.loads(child.stdout)
        self.master_seed, self.sender_input = first["master_seed"], first["sender_input"]
        self.invocations = first["invocations"]
        for inv in self.invocations:
            inv["trials"] = 0
            for line in inv["lines"]:
                record = json.loads(line)
                inv["trials"] += record["config"]["trials"]
                self.ledger.op(f"first run of {' '.join(inv['argv'])}", workloads.check_batch(record))

    def _tiny_flag(self) -> list[str]:
        return ["--tiny"] if self.tiny else []

    def _calibration_child(self) -> float:
        child = run_child(hostspeed.CHILD_ARGS)
        if child.returncode != 0:
            self.ledger.problems.append(f"calibration process failed: {child.stderr.strip()[-500:]}")
        return child.wall_s

    def _scaled_child(self, args: list[str]) -> Child:
        """``run_child`` between two calibration processes, with ``scaled_s`` set."""
        self.child_cal.before()
        child = run_child(args)
        child.scaled_s = self.child_cal.scale(child.wall_s)
        return child

    # --- in-process --------------------------------------------------------

    def run_pass(self, label: str) -> Pass:
        """Every batch of the workload once, each run_batch call timed between two calibration kernels."""
        lines = [line for inv in self.invocations for line in inv["lines"]]
        done = Pass()
        self.kernel_cal.forget()
        for i, cfg in enumerate(self.w.configs):
            self.kernel_cal.before()
            start = time.perf_counter()
            rep = harness.run_batch(cfg)
            wall = time.perf_counter() - start
            done.raw.append(wall)
            done.scaled.append(self.kernel_cal.scale(wall))
            same = rep.canonical_json() == lines[i]
            self.ledger.op(f"{label} batch {i}", [] if same else ["canonical JSON differs from the first run"])
        return done

    def passes(self, label: str, deadline: float, minimum: int = MIN_PASSES, after_each=None) -> list[Pass]:
        done: list[Pass] = []
        while len(done) < minimum or time.perf_counter() < deadline:
            done.append(self.run_pass(f"{label} pass {len(done)}"))
            if after_each:
                after_each()
        return done

    def median_rate(self, passes: list[Pass], scaled: bool = True) -> float:
        """Trials per second of one pass in which every batch takes its median time."""
        walls = [p.scaled if scaled else p.raw for p in passes]
        return self.w.trials / sum(statistics.median(batch) for batch in zip(*walls))

    # --- processes ---------------------------------------------------------

    def invoke(self, index: int, label: str, spans: str | None = None) -> Child:
        """One ``dbasim`` process running invocation ``index``; checks exit code and bytes."""
        inv = self.invocations[index]
        args = ["-m", "dbasim.cli"] if spans is None else [os.path.join(HERE, "traced_cli.py"), spans]
        args += inv["argv"]
        dump_path = os.path.join(OUT, "trials.jsonl")
        if inv["dump"]:
            args += ["--dump-trials", dump_path]
        child = self._scaled_child(args)
        problems = []
        if child.returncode != 0:
            problems.append(f"exit code {child.returncode}: {child.stderr.strip()[-500:]}")
        elif child.stdout != "".join(line + "\n" for line in inv["lines"]):
            problems.append("stdout differs from the in-process canonical JSON")
        elif inv["dump"]:
            with open(dump_path, encoding="utf-8") as fh:
                content = fh.read()
            problems += workloads.check_dump(content.splitlines(), json.loads(inv["lines"][0]))
            sha = hashlib.sha256(content.encode()).hexdigest()
            if self.dump_sha not in (None, sha):
                problems.append("the --dump-trials file differs from the first one")
            self.dump_sha = sha
        if inv["dump"] and os.path.exists(dump_path):
            os.remove(dump_path)
        self.ledger.op(f"{label}: dbasim {' '.join(inv['argv'])}", problems)
        return child

    def cli_round(self, label: str, spans_prefix: str | None = None) -> list[Child]:
        return [
            self.invoke(i, f"{label} {i}", None if spans_prefix is None else f"{spans_prefix}.{i}")
            for i in range(len(self.invocations))
        ]

    def probe_setup(self) -> Child:
        """One fresh interpreter doing the workload's set-up, timed."""
        child = self._scaled_child([PROBE, self.name, str(self.seed), *self._tiny_flag()])
        if child.returncode != 0:
            self.ledger.problems.append(f"setup probe failed: {child.stderr.strip()[-500:]}")
        return child

    def probe_imports(self) -> tuple[list[float], list[float]]:
        """Seconds to import dbasim.cli, and the part spent importing scipy.stats."""
        total, scipy = [], []
        for _ in range(IMPORT_PROBES[self.tiny]):
            child = run_child(["-X", "importtime", "-c", IMPORT_CODE])
            if child.returncode != 0:
                self.ledger.problems.append(f"import probe failed: {child.stderr.strip()[-500:]}")
                continue
            total.append(float(child.stdout))
            rows = [ln.split("|") for ln in child.stderr.splitlines() if ln.startswith("import time:")]
            stats = [int(r[1]) for r in rows if len(r) == 3 and r[2].strip() == "scipy.stats"]
            scipy.append(max(stats, default=0) / 1e6)
        return total, scipy

    # --- the two kinds of run ----------------------------------------------

    def end_to_end(self) -> dict:
        """Set-up probes, CLI invocations and timed passes, interleaved across the window.

        Every time is scaled to the reference host speed (``hostspeed``) and
        reported as a median over the run; the unscaled figures go into the
        metadata as ``raw``.
        """
        start = time.perf_counter()
        setup: list[Child] = []
        children: list[Child] = []
        if self.in_process:
            timed: list[Pass] = []
            slices = SLICES[self.tiny]
            for i in range(slices):
                self.child_cal.forget()
                if i % 2 == 0:
                    setup.append(self.probe_setup())
                for j in range(1 + i % 2):
                    children.append(self.invoke(self.w.cli_group, f"cli {i}.{j}"))
                deadline = start + (i + 1) * self.seconds / slices
                timed += self.passes(f"slice {i}", deadline, MIN_PASSES if slices == 1 else 1)
            self.samples["trials_per_s"] = len(timed)
            trials_per_s = self.median_rate(timed)
            raw_trials_per_s = self.median_rate(timed, scaled=False)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            rounds = 0
            while True:
                round_start = time.perf_counter()
                for i in range(len(self.invocations)):
                    if i % 3 == 0:
                        setup.append(self.probe_setup())
                    children.append(self.invoke(i, f"round {rounds} {i}"))
                rounds += 1
                now = time.perf_counter()
                if rounds >= MIN_ROUNDS[self.tiny] and now + (now - round_start) > start + self.seconds:
                    break
            self.samples["trials_per_s"] = rounds
            n = len(self.invocations)
            trials = sum(inv["trials"] for inv in self.invocations)
            trials_per_s = trials / sum(statistics.median(c.scaled_s for c in children[i::n]) for i in range(n))
            raw_trials_per_s = trials / sum(statistics.median(c.wall_s for c in children[i::n]) for i in range(n))
            rss = max(c.rss_mb for c in children)
        self.samples["setup_s"] = len(setup)
        self.samples["cli_wall_s"] = len(children)
        self.samples["peak_rss_mb"] = 1 if self.in_process else len(children)
        self.raw = {
            "trials_per_s": raw_trials_per_s,
            "cli_wall_s": statistics.median(c.wall_s for c in children),
            "setup_s": statistics.median(c.wall_s for c in setup),
        }
        ok = self.ledger.attempted - self.ledger.failed
        return {
            "trials_per_s": (trials_per_s, "1/s"),
            "cli_wall_s": (statistics.median(c.scaled_s for c in children), "s"),
            "setup_s": (statistics.median(c.scaled_s for c in setup), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ok_ops_frac": (ok / self.ledger.attempted, "frac"),
        }

    def per_layer(self) -> dict:
        spans_path = os.path.join(OUT, f"{self.name}.spans")
        start = time.perf_counter()
        if self.in_process:
            untraced = self.passes("untraced", start + self.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                if self.name == "builtin-mix":
                    workloads.build(self.name, self.seed, self.tiny)  # times load_builtin_scenario
                mark = [len(tracer)]
                per_pass: list[dict] = []

                def count_calls() -> None:
                    per_pass.append(tracer.calls_since(mark[0]))
                    mark[0] = len(tracer)

                traced = self.passes("traced", time.perf_counter() + self.seconds / 2, after_each=count_calls)
            finally:
                tracer.uninstall()
            tracer.write(spans_path)
            if any(calls != per_pass[0] for calls in per_pass):
                self.ledger.problems.append("call counts differ between traced passes of the same batches")
            calls, self_s = summarize(tracer.data())
            rounds = len(traced)
            overhead = 1 - self.median_rate(traced) / self.median_rate(untraced)
            self.samples["passes_untraced"], self.samples["passes_traced"] = len(untraced), len(traced)
        else:
            untraced_wall = sum(c.scaled_s for c in self.cli_round("untraced"))
            traced_wall = sum(c.scaled_s for c in self.cli_round("traced", spans_prefix=spans_path))
            calls, self_s = {}, {}
            for i in range(len(self.invocations)):
                c, s = summarize(load(f"{spans_path}.{i}"))
                for name in c:
                    calls[name] = calls.get(name, 0) + c[name]
                    self_s[name] = self_s.get(name, 0.0) + s[name]
            rounds = 1
            overhead = 1 - untraced_wall / traced_wall
        import_s, scipy_s = self.probe_imports()
        self.samples["cli.import_s"] = len(import_s)

        records = [json.loads(line) for inv in self.invocations for line in inv["lines"]]
        trials = rounds * sum(r["config"]["trials"] for r in records)
        batches = rounds * len(records)
        attempts = sum(r["forge_attempts"] for r in records)
        successes = sum(r["forge_successes"] for r in records)
        loads = calls["cli.load_builtin_scenario"]
        metrics = {f"{n}.calls_per_trial": (calls[n] / trials, "calls/trial") for n in CALLS_PER_TRIAL}
        metrics.update({f"{n}.self_us_per_trial": (self_s[n] * 1e6 / trials, "us/trial") for n in SELF_US_PER_TRIAL})
        metrics.update(
            {
                "adversary.forge_success_ratio": (successes / attempts if attempts else 0.0, "ratio"),
                "adversary.forge_attempts_per_trial": (attempts * rounds / trials, "attempts/trial"),
                "harness.wilson_interval.self_ms_per_batch": (self_s["harness.wilson_interval"] * 1e3 / batches, "ms/batch"),
                "cli.import_s": (statistics.median(import_s) if import_s else 0.0, "s"),
                "cli.import_scipy_s": (statistics.median(scipy_s) if scipy_s else 0.0, "s"),
                "cli.load_builtin_scenario.self_ms": (
                    self_s["cli.load_builtin_scenario"] * 1e3 / loads if loads else 0.0,
                    "ms/call",
                ),
                "cli.emit.self_ms": (self_s["cli.emit"] * 1e3 / batches, "ms/batch"),
                "tracing_overhead_frac": (overhead, "frac"),
            }
        )
        return metrics

    def check_reference(self) -> None:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)["workloads"][self.name]
        lines = [line for inv in self.invocations for line in inv["lines"]]
        if len(ref["batches"]) != len(lines):
            self.ledger.problems.append(f"reference holds {len(ref['batches'])} batches, this run {len(lines)}")
        for i, (line, want) in enumerate(zip(lines, ref["batches"])):
            got = json.loads(line)
            self.ledger.problems += workloads.compare_records(got, want, CI_TOLERANCE, f"batch {i} vs reference")
        if self.dump_sha is not None and self.dump_sha != ref.get("dump_sha256"):
            self.ledger.problems.append("the --dump-trials file differs from the reference")


def source_digest() -> str:
    """sha256 over src/ (paths and contents), identifying the code without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def load_program(in_process: bool) -> str | None:
    """Put the checkout's src/ first on the path, and import dbasim if the run needs it here."""
    global harness
    if not os.path.isfile(os.path.join(SRC, "dbasim", "__init__.py")):
        return f"no dbasim sources under {SRC}; run from the root of a dbasim checkout"
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if in_process:
        import dbasim.harness as harness

        if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
            return f"imported dbasim from {harness.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    error = load_program(args.workload in workloads.IN_PROCESS)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.tiny, args.seconds)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    if args.seed == REFERENCE_SEED and not args.tiny:
        bench.check_reference()
    ledger = bench.ledger
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": bench.master_seed,
        "sender_input": bench.sender_input,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "samples": bench.samples,
        "raw": bench.raw,
        "calibration_s": {
            "kernel": statistics.median(bench.kernel_cal.times) if bench.kernel_cal.times else None,
            "child": statistics.median(bench.child_cal.times) if bench.child_cal.times else None,
        },
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
