"""Every name a package, test or tool module imports is used in that module, and the exact
subcommands leave ``numpy.random`` unloaded."""

import ast
import os
import pathlib
import subprocess
import sys

import noisycluster

PACKAGE = pathlib.Path(noisycluster.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent

# bindings kept only so bench/spans.py can patch them where it looks them up
TRACER_ONLY = {
    ("cli", "overlap_avg"),
    ("cli", "pair_scan"),
    ("oneway", "derive_local_correction"),
}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports named in __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return imported - used


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from typing import Iterable, Mapping\n"
        "def f(x: Mapping) -> None:\n    np.zeros(1)\n"
    )
    assert unused_imports(source) == {"os", "Iterable"}
    assert unused_imports("from . import a, b\n__all__ = ['a']\n") == {"b"}


def test_package_imports_are_all_used():
    found = {
        (path.stem, name)
        for directory in (PACKAGE, REPO / "tests", REPO / "tools")
        for path in sorted(directory.glob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    # the allowlist stays exact: drop an entry once the tracer stops needing it
    assert found == TRACER_ONLY


def test_exact_subcommands_leave_numpy_random_unloaded():
    # numpy loads numpy.random on first use, about 6 MB of peak memory; only a draw needs it
    code = (
        "import contextlib, io, sys\n"
        "from noisycluster import cli\n"
        "for argv in (['fig-noise'], ['fig-dephasing'], ['concurrence-scan', '--n', '10']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main([*argv, '--no-meta']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
