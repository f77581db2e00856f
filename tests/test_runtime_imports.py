"""The runtime is numpy and the standard library, and no HTTP client, mail or TLS code.

The import runs in a child process, and only the modules it adds count:
a site hook may load other packages before any program code runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LIST_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import evmguard.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_adds_only_numpy_and_standard_library_modules():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LIST_NEW_MODULES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "evmguard.cli" in loaded
    packages = {name.partition(".")[0] for name in loaded}
    assert packages - set(sys.stdlib_module_names) == {"numpy", "evmguard"}
    assert loaded.isdisjoint({"http.server", "http.client", "email", "ssl"})
