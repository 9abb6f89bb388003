"""Benchmark of the twoarr command line, one workload per run.

    python3 bench/run.py --workload generic-lines --seed 3 --seconds 20 --trace 0

With --trace 0, every invocation is its own `python -m twoarr.cli` process
with PYTHONPATH=src, started one at a time from this process and reaped
with os.wait4 for its wall time, CPU time and peak RSS. Those times are
scaled to a fixed core speed by a probe that runs while the child runs (see
PROBE_REF_S). Whole passes over the workload repeat until --seconds have
elapsed; each metric is the median over passes. setup_s is the median
start-up of a fresh `import twoarr.cli`, sampled between invocations
throughout the run.

With --trace 1, the same invocations run in this process through
twoarr.cli.main(argv), alternating an untraced pass with a pass under the
wrappers of tracer.py; the per-layer metrics are medians over the traced
passes, in unscaled seconds.

Every result goes through the correctness gate in workloads.py. The metric
table goes to stdout, and the last line is one JSON object with the keys
correct, attempted, failed and metrics. `--record` instead writes the stdout
digests of the code in this checkout to digests.json.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # never leave __pycache__ in src/ or bench/

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import gen
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
INPUT_SETS = 16  # generated inputs use seed mod INPUT_SETS; digests cover all of them
SETUP_SAMPLES = 25
TIMEOUT_S = 60.0
# End-to-end times are scaled to a fixed core speed. While a child runs, a
# thread of this process, on the same core, times a small fixed piece of
# work (the probe) every PROBE_INTERVAL_S; the child's times are multiplied
# by PROBE_REF_S / (mean probe time). On a shared host a core flips between
# a fast and a ~1.6x slower state every second or so; unscaled, one
# invocation's time then varies by +-30%. PROBE_REF_S is close to the
# probe's time on an uncontended 2.1 GHz Xeon core, so scaled seconds read
# roughly like seconds there. The probes take about 1% of the core.
PROBE_REF_S = 0.0004
PROBE_INTERVAL_S = 0.05
# The whole environment of every child. PYTHONDONTWRITEBYTECODE makes each
# child compile the package, as it does on every commit measured.
CHILD_ENV = {
    "PYTHONPATH": "src",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- inputs -----------------------------------------------------------------


def input_seed(workload: str, seed: int) -> int | None:
    return None if workload == "paper-fixtures" else seed % INPUT_SETS


def write_inputs(workload: str, seed: int, work: Path) -> dict[str, Path]:
    if workload == "paper-fixtures":
        fixtures = SRC / "twoarr" / "fixtures"
        return {name: Path(shutil.copy(fixtures / f"{name}.arr", work / f"{name}.arr")) for name in wl.FIXTURES}
    return gen.write_generated(input_seed(workload, seed), work)


# --- speed probe ---------------------------------------------------------------


def _probe_work() -> None:
    # exact elimination of the 6x6 Hilbert matrix: Fraction arithmetic, as
    # in the rank computations the children spend their time on
    n = 6
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]


class Probe:
    """Times _probe_work every PROBE_INTERVAL_S until stopped; kills `pid`
    if it is still running at `deadline`."""

    def __init__(self, pid: int, deadline: float):
        self.pid, self.deadline = pid, deadline
        self.samples: list[float] = []
        self.killed = False
        self._lock = threading.Lock()
        self._exited = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - start)
            if self._stop.wait(PROBE_INTERVAL_S):
                return
            with self._lock:
                if not self._exited and time.perf_counter() > self.deadline:
                    self.killed = True
                    os.kill(self.pid, signal.SIGKILL)

    def stop(self) -> float:
        """Mark the child exited, stop probing; returns the speed scale."""
        with self._lock:
            self._exited = True
        self._stop.set()
        self._thread.join()
        # a probe preempted by the child reads many times too slow; drop those
        typical = statistics.median(self.samples)
        return PROBE_REF_S / statistics.fmean(t for t in self.samples if t <= 2 * typical)


# --- child processes ----------------------------------------------------------


class Child(NamedTuple):
    """One finished child; wall and cpu are scaled by the speed probe."""

    exit_code: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool


def run_child(argv: list[str], work: Path) -> Child:
    """Run `python <argv>` in ROOT with CHILD_ENV; kill it after TIMEOUT_S."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        probe = Probe(proc.pid, start + TIMEOUT_S)
        # wait without reaping, so the pid cannot be reused while the probe may kill it
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        scale = probe.stop()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, out_path.read_bytes(), wall * scale, cpu * scale, usage.ru_maxrss / 1024, probe.killed)


def cli_argv(inv: wl.Invocation, paths: dict[str, Path]) -> list[str]:
    return ["-m", "twoarr.cli", *inv.argv(paths)]


class SetupSampler:
    """setup_s samples spread evenly over a run: between invocations, enough
    are taken that about one falls in every `gap` seconds."""

    def __init__(self, work: Path, gap: float):
        self.work, self.gap = work, gap
        self.samples: list[float] = []
        self.start = time.perf_counter()

    def _take(self) -> None:
        child = run_child(["-c", "import twoarr.cli"], self.work)
        if child.exit_code != 0:
            raise BenchError(f"`import twoarr.cli` failed in a child: exit {child.exit_code}")
        self.samples.append(child.wall)

    def catch_up(self) -> None:
        due = min(SETUP_SAMPLES, int((time.perf_counter() - self.start) / self.gap) + 1)
        while len(self.samples) < due:
            self._take()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self._take()
        return statistics.median(self.samples)


def check_inputs(invocations, paths: dict[str, Path], seed: int, work: Path) -> None:
    """Every input must pass `twoarr validate` before timing starts; this is also the warm-up."""
    for name in wl.inputs_used(invocations):
        child = run_child(["-m", "twoarr.cli", "validate", str(paths[name])], work)
        if child.exit_code != 0:
            raise BenchError(f"seed {seed}: input {name} fails `twoarr validate` (exit {child.exit_code})")


# --- gate -----------------------------------------------------------------------


class Gate:
    def __init__(self, workload: str, seed: int):
        self.workload, self.input_seed = workload, input_seed(workload, seed)
        self.digests = wl.load_digests()
        self.attempted = 0
        self.failed = 0

    def check(self, inv: wl.Invocation, exit_code: int, stdout: bytes, timed_out: bool = False) -> bool:
        self.attempted += 1
        key = wl.digest_key(self.workload, self.input_seed, inv)
        why = ["timed out"] if timed_out else wl.problems(inv, key, self.digests, exit_code, stdout)
        if why:
            self.failed += 1
            print(f"FAILED {inv.label}: {'; '.join(why)}", file=sys.stderr)
        return not why


# --- trace 0: one process per invocation -------------------------------------


def timed_pass(invocations, paths, work: Path, gate: Gate, setup: SetupSampler) -> dict[str, float]:
    verb_s: dict[str, float] = {}
    wall = cpu = peak = 0.0
    for inv in invocations:
        setup.catch_up()
        child = run_child(cli_argv(inv, paths), work)
        gate.check(inv, child.exit_code, child.stdout, child.timed_out)
        verb_s[inv.verb] = verb_s.get(inv.verb, 0.0) + child.wall
        wall += child.wall
        cpu += child.cpu
        peak = max(peak, child.rss_mb)
    metrics = {"workload_s": wall, "cpu_s": cpu, "peak_rss_mb": peak}
    metrics.update({f"{verb}_s": s for verb, s in verb_s.items()})
    return metrics


def end_to_end(workload: str, invocations, paths, work: Path, gate: Gate, seconds: float) -> tuple[dict, int]:
    # children inherit the affinity: each one shares a core with its probe
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = SetupSampler(work, seconds / SETUP_SAMPLES)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(invocations, paths, work, gate, setup))
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["setup_s"] = setup.median()
    metrics["failed_frac"] = gate.failed / gate.attempted
    metrics["setup_share"] = metrics["setup_s"] * len(invocations) / metrics["workload_s"]
    return metrics, len(passes)


# --- trace 1: in process, with and without the wrappers -------------------------


def in_process_pass(invocations, paths, gate: Gate, trace: tracer.Tracer | None) -> tuple[float, int]:
    import twoarr.cli

    stdout_bytes = 0
    start = time.perf_counter()
    for inv in invocations:
        if trace is not None:
            trace.begin_invocation(inv.verb)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = twoarr.cli.main(inv.argv(paths))
        data = out.getvalue().encode()
        stdout_bytes += len(data)
        gate.check(inv, code, data)
    return time.perf_counter() - start, stdout_bytes


def per_layer(workload: str, seed: int, invocations, paths, gate: Gate, seconds: float) -> tuple[dict, int]:
    sys.path.insert(0, str(SRC))
    import twoarr.cli  # noqa: F401  (loads every module the wrappers patch)

    in_process_pass(invocations[:1], paths, gate, None)  # warm-up
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(in_process_pass(invocations, paths, gate, None)[0])
        trace = tracer.Tracer()
        trace.install()
        try:
            wall, stdout_bytes = in_process_pass(invocations, paths, gate, trace)
        finally:
            trace.uninstall()
        if trace.missing:
            print(f"not wrapped (absent in this code): {', '.join(trace.missing)}", file=sys.stderr)
        traced.append(wall)
        layers.append(trace.metrics(stdout_bytes))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced) - statistics.median(untraced)) / statistics.median(
        untraced
    )
    trace.write_spans(BENCH / "_out" / f"spans-{workload}-seed{seed}.json", [inv.label for inv in invocations])
    return metrics, len(traced)


# --- recording digests ----------------------------------------------------------


def record(work: Path) -> None:
    digests = {}
    for workload, invocations in wl.WORKLOADS.items():
        seeds = [0] if workload == "paper-fixtures" else range(INPUT_SETS)
        for seed in seeds:
            sub = work / f"{workload}-{seed}"
            sub.mkdir()
            paths = write_inputs(workload, seed, sub)
            check_inputs(invocations, paths, seed, sub)
            for inv in invocations:
                child = run_child(cli_argv(inv, paths), sub)
                if child.timed_out:
                    raise BenchError(f"{inv.label} timed out while recording")
                digests[wl.digest_key(workload, input_seed(workload, seed), inv)] = wl.digest(
                    child.exit_code, child.stdout
                )
            print(f"recorded {workload} input set {seed}", file=sys.stderr)
    wl.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


# --- main -----------------------------------------------------------------------


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_mb", "MiB"), ("bytes", "bytes"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_frac", "_share")) else "count"


def self_time_ranking(metrics: dict[str, float], top: int = 6) -> list[tuple[str, float]]:
    """Largest self times, with rref's time added to the wrapped function that called it."""
    own = {name[: -len(".self_s")]: v for name, v in metrics.items() if name.endswith(".self_s")}
    own["cli.main"] = own.pop("cli")
    for caller, rref_s in (
        ("exterior.degree_span_rank", metrics["exterior.slice.rref_s"]),
        ("arrangement.codim", metrics["arrangement.codim.rref_s"]),
    ):
        own[caller + " + rref"] = own.pop(caller) + rref_s
        own["linalg.rref"] -= rref_s
    return sorted(own.items(), key=lambda kv: -kv[1])[:top]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write digests.json from this checkout's code")
    args = parser.parse_args()
    if not (SRC / "twoarr" / "cli.py").is_file():
        raise BenchError(f"no twoarr sources under {SRC}")
    BENCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH) as tmp:
        work = Path(tmp)
        if args.record:
            record(work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        invocations = wl.WORKLOADS[args.workload]
        paths = write_inputs(args.workload, args.seed, work)
        check_inputs(invocations, paths, args.seed, work)
        gate = Gate(args.workload, args.seed)
        if args.trace:
            metrics, passes = per_layer(args.workload, args.seed, invocations, paths, gate, args.seconds)
            declared = declared_metrics("per_layer")
        else:
            metrics, passes = end_to_end(args.workload, invocations, paths, work, gate, args.seconds)
            declared = declared_metrics("end_to_end")
    print(f"workload {args.workload}  seed {args.seed}  input set {input_seed(args.workload, args.seed)}")
    print(f"passes {passes}  invocations {gate.attempted}  failed {gate.failed}")
    print(f"child env {json.dumps(CHILD_ENV, sort_keys=True)}  python {sys.executable}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6f}  {unit_of(name)}")
    if args.trace:
        print("largest self times: " + ", ".join(f"{name} {s:.3f} s" for name, s in self_time_ranking(metrics)))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured on {args.workload}: {', '.join(missing)}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
