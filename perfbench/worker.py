"""One benchmark process: set up once, then run the seed's op list
--rounds times.

Started by run.py in a fresh interpreter, so set-up pays the import of
triwaring. Inputs are generated before the set-up clock starts. Only the
program call of each op is timed; checks run between ops. Prints one JSON
object on its last stdout line, with one list of op latencies per round.

    python3 perfbench/worker.py --workload decompose-warm --seed 1 \
        [--rounds 2] [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PKG_DIR = os.path.join(SRC, "triwaring")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import refarith as ra  # noqa: E402
from workloads import WORKLOADS, WrongAnswer, load_spec  # noqa: E402

REF_EVERY_S = 0.5
_REF_FIELD = ra.RefField(5, 3, ra.irreducible_moduli(5, 3)[0])
_REF_MATRIX = ra.unpack(8, [(7 * i + 3) % 125 for i in range(36)])


def reference_ms() -> float:
    """Time of a fixed pure-Python computation that never touches
    triwaring (a power of a dense 8x8 matrix over F_125, about 30 ms):
    the host's speed, taken next to the ops it corrects."""
    t = time.perf_counter()
    ra.mat_pow(_REF_FIELD, _REF_MATRIX, 100)
    return (time.perf_counter() - t) * 1e3


def import_program():
    """Import triwaring from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(PKG_DIR, "__init__.py")):
        raise SystemExit(f"no triwaring package under {SRC}")
    sys.path.insert(0, SRC)
    import triwaring
    if os.path.dirname(os.path.abspath(triwaring.__file__)) != PKG_DIR:
        raise SystemExit(f"imported triwaring from {triwaring.__file__}, "
                         f"not from {PKG_DIR}")
    return triwaring


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.trace and args.rounds != 1:
        raise SystemExit("a traced run has one round")

    work = WORKLOADS[args.workload](load_spec(), args.smoke)
    ops, warm_ops = work.generate(args.seed)

    ref_before = reference_ms()
    t0 = time.perf_counter()
    tw = import_program()
    warm_outcomes = work.setup(tw, warm_ops)
    setup_s = time.perf_counter() - t0
    refs = [(ref_before + reference_ms()) / 2]

    out = {"setup_s": setup_s, "setup_ref_ms": refs[0], "latencies_ms": [],
           "attempted": 0, "typed": 0, "op_time_s": 0.0, "wrong": None}
    ref_of_op = []
    prof = cProfile.Profile() if args.trace else None
    try:
        for op, (ok, value) in zip(warm_ops, warm_outcomes):
            work.check(op, ok, value)
        prepared = [work.prepare(op) for op in ops]
        perf_counter, execute = time.perf_counter, work.execute
        refs.append(reference_ms())
        last_ref = perf_counter()
        for _ in range(args.rounds):
            latencies, around = [], []
            out["latencies_ms"].append(latencies)
            ref_of_op.append(around)
            for op, fn in zip(ops, prepared):
                t = perf_counter()
                if prof:
                    prof.enable()
                ok, value = execute(fn)
                if prof:
                    prof.disable()
                dt = perf_counter() - t
                out["op_time_s"] += dt
                latencies.append(dt * 1e3)
                around.append(len(refs) - 1)
                out["attempted"] += 1
                out["typed"] += work.check(op, ok, value) == "typed"
                if perf_counter() - last_ref >= REF_EVERY_S:
                    refs.append(reference_ms())
                    last_ref = perf_counter()
    except WrongAnswer as err:
        out["wrong"] = str(err)
    except (Exception, SystemExit):
        # an untyped exception or a CLI usage exit is a wrong answer too
        out["wrong"] = traceback.format_exc()
    refs.append(reference_ms())

    # each op's host-speed reference: the mean of the two taken around it
    out["ref_ms"] = [[(refs[i] + refs[i + 1]) / 2 for i in around]
                     for around in ref_of_op]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace and out["wrong"] is None:
        prof.create_stats()
        out["layers"] = layers.layer_metrics(prof.stats, PKG_DIR)
        out["shares"] = layers.shares(prof.stats, PKG_DIR)
        out["total_calls"] = sum(s[1] for s in prof.stats.values())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
