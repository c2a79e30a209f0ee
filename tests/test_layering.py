"""Module layering: ``protocols`` is a leaf that only the CLI and the
package root import, and no module reaches into its private names."""

import ast
from pathlib import Path

import covsearch

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
