"""The triwaring benchmark: one command, every metric, checked answers.

    python3 perfbench/run.py --workload cli-cold --seed 1 \
        --seconds 10 --trace 0

--workload is one of decompose-warm, cli-cold, oracle-exhaustive, or
"all" to run the three in turn (BENCHMARK.json lists the last two). Each
workload is one closed-loop client: worker processes (perfbench/worker.py)
run one after another, never two at once. A run uses
max(3, round(processes * seconds / 10)) processes, with the workload's
processes and rounds from perfbench/spec.json; each sets up once and runs
the seed's op list `rounds` times, so the work of a run, and its counts,
are fixed by --seed and --seconds. Times are taken at the reference speed
and an op's time is the least of its tries (perfbench/README.md, "Times at
the reference speed"); the unscaled figures go on the info line.

--trace 0 reports the end-to-end metrics; --trace 1 runs the seed's op
list untraced and then under cProfile, each in its own
process, and reports the per-layer metrics. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. Exit codes: 0 when
every answer checked out, 1 on a wrong answer, 2 when the benchmark could
not run (for instance, no triwaring sources next to perfbench/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS, load_spec  # noqa: E402

MIN_SETUPS = 3
# the reference computation's time (worker.reference_ms) on the machine
# the benchmark was defined on, in a quiet spell
REF_NOMINAL_MS = 30.0
TAIL_SHARE = 0.05  # op_tail_ms is p95 ...
TAIL_BEYOND = 10  # ... or lower, so that at least this many ops lie beyond it
HARD_DEADLINE_S = 175

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("solved_ratio", "ratio"),
              ("peak_rss_mb", "MB")]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Wrong(Exception):
    """A worker reported a wrong answer."""

    def __init__(self, message: str, attempted: int):
        super().__init__(message)
        self.attempted = attempted


def header() -> dict:
    """Facts about this run, so noisy runs can be spotted."""
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "triwaring")
    if os.path.isdir(pkg):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    try:
        with open("/proc/loadavg") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = "unavailable"
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": loadavg}


def tail(sorted_values: list[float]) -> tuple[float, str]:
    """The p95 of the values, or the highest lower percentile that has
    TAIL_BEYOND values beyond it, and a note naming that percentile."""
    n = len(sorted_values)
    beyond = max(TAIL_BEYOND, int(n * TAIL_SHARE))
    rank = max(1, n - beyond)
    return sorted_values[rank - 1], (f"p{100 * rank / n:.2f}: {n - rank} of "
                                     f"{n} ops beyond it")


def run_worker(workload: str, seed: int, started: float, smoke: bool,
               rounds: int = 1, trace: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    remaining = HARD_DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran out of time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["wrong"] is not None:
        raise Wrong(f"{workload}: {out['wrong']}", out["attempted"])
    return out


def figures(times_ms: list[float]) -> dict:
    """ops_per_s, op_p50_ms and op_tail_ms of one time per op."""
    times = sorted(times_ms)
    return {"ops_per_s": len(times) / (sum(times) / 1e3),
            "op_p50_ms": statistics.median(times),
            "op_tail_ms": tail(times)[0]}


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool,
               started: float) -> tuple[dict, dict]:
    spec = load_spec()["workloads"][workload]
    processes = max(MIN_SETUPS, round(spec["processes"] * seconds / 10))
    rounds = 1 if smoke else spec["rounds"]
    outs = [run_worker(workload, seed, started, smoke, rounds)
            for _ in range(processes)]
    # Every round of every process runs the same ops. An op's time is the
    # least of its processes x rounds times, each taken at the reference
    # speed: scaled by REF_NOMINAL_MS / the reference timed around it.
    measured = [r for o in outs for r in o["latencies_ms"]]
    scaled = [[t * REF_NOMINAL_MS / ref for t, ref in zip(times, refs)]
              for o in outs
              for times, refs in zip(o["latencies_ms"], o["ref_ms"])]
    best = [min(col) for col in zip(*scaled)]
    attempted = sum(o["attempted"] for o in outs)
    typed = sum(o["typed"] for o in outs)
    metrics = {
        "setup_s": statistics.median(o["setup_s"] * REF_NOMINAL_MS
                                     / o["setup_ref_ms"] for o in outs),
        **figures(best),
        "solved_ratio": (attempted - typed) / attempted,
        "peak_rss_mb": max(o["rss_mb"] for o in outs),
    }
    as_measured = figures([min(col) for col in zip(*measured)])
    as_measured["setup_s"] = statistics.median(o["setup_s"] for o in outs)
    info = {"processes": processes, "rounds": rounds, "ops": len(best),
            "samples": attempted, "typed_failures": typed,
            "failed_ratio": typed / attempted, "tail": tail(sorted(best))[1],
            "reference_ms": statistics.median(
                ref for o in outs for refs in o["ref_ms"] for ref in refs),
            "as_measured": as_measured}
    return metrics, info


def traced(workload: str, seed: int, smoke: bool, started: float
           ) -> tuple[dict, dict]:
    """Process 0's op list untraced, then the same list under cProfile."""
    plain = run_worker(workload, seed, started, smoke)
    prof = run_worker(workload, seed, started, smoke, trace=True)
    metrics = dict(prof["layers"])
    metrics["trace.overhead_ratio"] = prof["op_time_s"] / plain["op_time_s"]
    info = {"samples": prof["attempted"], "typed_failures": prof["typed"],
            "total_calls": prof["total_calls"],
            "self_time_shares": {k: round(v, 4)
                                 for k, v in prof["shares"].items()}}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)

    started = time.monotonic()
    print("# header " + json.dumps(header()), flush=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(END_TO_END)
    metrics: dict[str, dict] = {}
    attempted = 0
    try:
        for name in names:
            if args.trace:
                values, info = traced(name, args.seed, args.smoke, started)
            else:
                values, info = end_to_end(name, args.seed, args.seconds,
                                          args.smoke, started)
            attempted += info["samples"]
            print(f"# {name} " + json.dumps(info), flush=True)
            for key, value in values.items():
                unit = units.get(key) or layers.unit_of(key)
                print(f"{name:18} {key:32} {value:>16.6g} {unit}")
                full = key if len(names) == 1 else f"{name}.{key}"
                metrics[full] = {"value": value, "unit": unit}
    except BenchError as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    except Wrong as err:
        print(f"WRONG ANSWER: {err}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, attempted + err.attempted),
                          "failed": 1, "metrics": metrics}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
