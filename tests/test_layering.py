"""Module layering: ``protocols`` is a leaf that only the CLI and the
package root import, and no module reaches into its private names; only
``ingest`` folds case, so the bundled (model, method) match has one home;
every attribute the benchmark's tracer patches exists; and importing the CLI
loads neither ``dataclasses`` nor what it pulls in, a cost every command
would pay at start-up."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import covsearch
import covsearch.cli

MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in Path(covsearch.__file__).parent.glob("*.py")
}


def protocols_imports(tree):
    """The names bound by each import of ``covsearch.protocols`` in a module:
    the imported names of ``from .protocols import``, else the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".protocols", "covsearch.protocols"):
                yield names
            elif module in (".", "covsearch") and "protocols" in names:
                yield ["protocols"]
        elif isinstance(node, ast.Import):
            if any(alias.name == "covsearch.protocols" for alias in node.names):
                yield ["protocols"]


def test_only_the_cli_and_the_package_root_import_protocols():
    importers = {name for name, tree in MODULES.items() if any(protocols_imports(tree))}
    assert importers == {"cli", "__init__"}


def test_no_module_imports_a_private_protocols_name():
    private = {
        (name, imported)
        for name, tree in MODULES.items()
        for names in protocols_imports(tree)
        for imported in names
        if imported.startswith("_")
    }
    private |= {  # protocols._name through a module import
        (name, node.attr)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id == "protocols"
    }
    assert private == set()


def test_only_ingest_folds_case():
    callers = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "lower"
    }
    assert callers == {"ingest"}


def test_every_tracer_target_exists():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (owner.__name__, attr) for owner, attr, _ in tracing.TARGETS if attr not in vars(owner)
    ]
    assert missing == []
    assert callable(covsearch.cli.builtin_catalog)  # the benchmark's import probe calls it


def absolute_imports(tree):
    """The module named by each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_dataclasses():
    importers = {
        name
        for name, tree in MODULES.items()
        if any(module.split(".")[0] == "dataclasses" for module in absolute_imports(tree))
    }
    assert importers == set()


def test_importing_the_cli_loads_no_start_up_weight():
    # -S skips site-packages' .pth files, which may preload any module.
    script = (
        "import sys, covsearch.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    )
    src = str(Path(covsearch.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
