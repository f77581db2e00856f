"""The runtime is numpy and the standard library, and no HTTP client, mail or TLS code.

The import runs in a child process, and only the modules it adds count:
a site hook may load other packages before any program code runs. The
package imports no submodule, and a submodule loads only what it imports.
No module under src/evmguard imports a name it never uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, bar those on a `# noqa: F401` line.

    A name counts as used if it is read anywhere or listed in `__all__`.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> the import's line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            spanned = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in spanned):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_finder():
    source = (
        "import os\nimport os.path\nimport json as j\nfrom a import b, c\n"
        "from d import e  # noqa: F401\n__all__ = ['c']\nprint(os, b)\n"
    )
    assert unused_imports(source) == ["line 3: j"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "evmguard").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def program_modules_added(statement: str) -> set[str]:
    """The evmguard modules a child process adds while it runs `statement`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = LIST_NEW_MODULES.replace("import evmguard.cli", statement)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {name for name in json.loads(proc.stdout.splitlines()[-1]) if name.partition(".")[0] == "evmguard"}


def test_the_package_imports_no_submodule():
    assert program_modules_added("import evmguard") == {"evmguard"}


def test_a_submodule_loads_only_what_it_imports():
    assert program_modules_added("from evmguard import tokenizer") == {
        "evmguard", "evmguard.errors", "evmguard.evm_bytecode", "evmguard.tokenizer",
    }
