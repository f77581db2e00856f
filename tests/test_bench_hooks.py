"""The benchmark wraps program functions by module attribute; a renamed one fails here.

The hooks run in a child process so the wrappers never leak into other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_EVERY_HOOK = """
import serve_launcher, tracing, workload_ingest, workload_train

for workload in (workload_train, workload_ingest):
    workload.install_clock(tracing.OpClock())
    workload.install_tracer(tracing.Tracer())
serve_launcher.install(tracing.Tracer(), {})
"""


# A tiny train then transfer under the train workload's clock and tracer: the
# clock must time each optimizer step once, and the spans must see every call.
TRAIN_HOOKS_FIRE = """
import tracing, workload_train
from evmguard import mol_net, trainer
from evmguard.corpus import Chunk, ContractRecord
from evmguard.tokenizer import fit

clock, tracer = tracing.OpClock(), tracing.Tracer()
workload_train.install_clock(clock)
workload_train.install_tracer(tracer)

def chunks(n_classes, sizes):
    tokens = [("60", "01"), ("52", "f1", "60"), ("01",)]
    return [Chunk(index=k, records=tuple(
        ContractRecord(f"r{k}_{i}", tokens[i % 3], tuple(bool((i >> c) & 1) for c in range(n_classes)))
        for i in range(size))) for k, size in enumerate(sizes)]

old, new = chunks(2, (5, 0, 3)), chunks(1, (4, 6))
vocab = fit(r.tokens for c in old for r in c.records)
stem = mol_net.StemConfig(len(vocab), 3, 4, 0.2, 6)
model = mol_net.init_model(stem, [mol_net.BranchConfig(n, (3, 1)) for n in "ab"], seed=0)
val = trainer.encode_records(new[0].records, vocab, 6)
steps = trainer.train(model, old, vocab, trainer.TrainConfig(2, 1, 2, seed=0)).optimizer_steps
steps += trainer.transfer_train(model, new, [mol_net.BranchConfig("c", (3, 1))], vocab,
                                trainer.TrainConfig(1, 2, 4, seed=0), val).optimizer_steps
calls = [span[2] for span in tracer.spans]
assert steps == 2 * (3 + 2) + 2 * (1 + 2), steps
assert len(clock.latencies_ms) == steps, (len(clock.latencies_ms), steps)
assert calls.count("mol_net.adam_step") == calls.count("mol_net.backward") == steps, calls
assert calls.count("trainer.evaluate") == 1 * 2 * 2, calls
"""


def _run_with_perfbench(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_hooks_install():
    _run_with_perfbench(INSTALL_EVERY_HOOK)


def test_train_clock_times_each_optimizer_step_once():
    _run_with_perfbench(TRAIN_HOOKS_FIRE)
