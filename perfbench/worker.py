"""Child process doing one workload's program work: set-up, warm-up, timed rounds.

    worker.py <train|ingest> <workdir> <seconds> <trace 0|1> <run 0|1>

It prints "ready" once the program is set up; with run 0 it stops there
(one set-up sample). With trace 1 the first half of the time runs as in
an untraced run and the second half under the tracer, so the overhead of
tracing is measured against the same process.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import common
import tracing


def main(argv: list[str]) -> int:
    workload, workdir, seconds, trace, run = argv
    workdir, seconds = Path(workdir), float(seconds)
    load = importlib.import_module(f"workload_{workload}")
    state = load.setup(workdir)
    print("ready", flush=True)
    if run == "0":
        return 0
    load.warm_up(state)
    state["clock"] = tracing.OpClock()
    load.install_clock(state["clock"])
    plain = common.run_rounds(load.timed_round, state, seconds / 2 if trace == "1" else seconds)
    state.pop("clock").restore()
    result = {**plain, "rss_mb": common.max_rss_mb()}
    if trace == "1":
        tracer = tracing.Tracer()
        state["tracer"] = tracer
        load.install_tracer(tracer)
        traced = common.run_rounds(load.timed_round, state, seconds / 2)
        tracer.restore()
        tracer.dump(workdir / "trace.jsonl")
        extra = load.trace_extra(state, traced["rounds"])
        extra["overhead_pct"] = 100.0 * ((plain["work"] / plain["busy_s"]) / (traced["work"] / traced["busy_s"]) - 1.0)
        result["rounds"] += traced["rounds"]
        result["per_layer"] = tracing.layer_metrics(tracer.spans, extra)
    load.save_outputs(state, workdir)
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
