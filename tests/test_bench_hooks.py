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


def test_benchmark_hooks_install():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_EVERY_HOOK],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
