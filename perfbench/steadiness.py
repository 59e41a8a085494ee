"""Steadiness evidence for the benchmark.

Runs perfbench/run.py once per seed on each workload and reports, per
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json. With --repeat-seed
it also runs one seed twice per workload, end to end and traced (the two
traced runs under different PYTHONHASHSEED values), and checks that
solved_ratio and every per-layer count repeat exactly.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads cli-cold] [--repeat-seed 1] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int,
          hashseed: str | None = None) -> dict:
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["header"] = json.loads(lines[0].removeprefix("# header "))
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def exact_counts(metrics: dict) -> dict:
    return {name: metrics[name]["value"] for name in layers.NAMES
            if layers.unit_of(name) != "s" and name != "trace.overhead_ratio"}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in config["workloads"]])
    ap.add_argument("--repeat-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"seconds": config["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, s, config["run_seconds"], 0) for s in args.seeds]
        rows = {}
        print(f"{workload}: {len(runs)} runs, loadavg at start "
              + ", ".join(r["header"]["loadavg"].split()[0] for r in runs))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            rows[name] = {"median": median, "spread": share, "bound": bound,
                          "values": values}
            flag = "" if share < bound / 3 else "  <-- above bound/3"
            print(f"  {name:14} median {median:12.6g}  spread {share:7.2%}  "
                  f"bound {bound:.0%}{flag}")
        entry = {"metrics": rows,
                 "loadavg": [r["header"]["loadavg"] for r in runs]}
        if args.repeat_seed is not None:
            s = args.repeat_seed
            e2e = [bench(workload, s, config["run_seconds"], 0)
                   for _ in range(2)]
            traced = [bench(workload, s, config["run_seconds"], 1, h)
                      for h in ("1", "2")]
            ratios = [r["metrics"]["solved_ratio"]["value"] for r in e2e]
            counts = [exact_counts(r["metrics"]) for r in traced]
            entry["repeat"] = {"seed": s, "solved_ratio": ratios,
                               "solved_ratio_repeats": ratios[0] == ratios[1],
                               "counts_repeat": counts[0] == counts[1],
                               "counts": counts[0]}
            print(f"  seed {s} twice: solved_ratio {ratios} "
                  f"(repeats: {ratios[0] == ratios[1]}); per-layer counts "
                  f"repeat across PYTHONHASHSEED 1/2: {counts[0] == counts[1]}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
