"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src; inputs
are generated from --seed into perfbench/out/. The last line on stdout is
the result: {"correct", "attempted", "failed", "metrics"}, where metrics
are the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. Checks that fail are listed on stderr and make "correct" false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

import common

os.environ.update({v: "1" for v in common.THREAD_VARS})

WORKLOADS = ("train", "serve-short", "serve-long", "ingest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "evmguard" / "__init__.py").is_file():
        print(f"error: no program sources under {common.SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    workdir = common.HERE / "out" / f"{args.workload}-t{args.trace}"  # replaced by the next run
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "seed.txt").write_text(str(args.seed))
    trace = bool(args.trace)

    if args.workload.startswith("serve"):
        import workload_serve

        outcome = workload_serve.run(args.workload, workdir, args.seed, args.seconds, trace)
    else:
        load = importlib.import_module(f"workload_{args.workload}")
        ctx = load.prepare(workdir, args.seed)
        setup, res = common.worker_run(args.workload, workdir, args.seconds, trace)
        metrics = (common.per_layer(res["per_layer"]) if trace else
                   common.end_to_end(setup, res["work"], res["busy_s"], [ms for r in res["rounds"] for ms in r["op_ms"]],
                                     res["rss_mb"]))
        outcome = {"failures": load.verify(ctx, res, workdir), "attempted": load.operations(res["rounds"]),
                   "failed": 0, "metrics": metrics}

    for failure in outcome["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not outcome["failures"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
