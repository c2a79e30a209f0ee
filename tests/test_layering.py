"""Module layering: ``protocols`` is a leaf that only the CLI and the
package root import, and no module reaches into its private names; only
``ingest`` folds case, so the bundled (model, method) match has one home;
every attribute the benchmark's tracer patches exists; importing the CLI
loads neither ``dataclasses`` nor what it pulls in, a cost every command
would pay at start-up; ``ingest._decode`` is the one JSON decoder; and
every record fills its fields with ``_fill`` but the four built on hot paths;
every result record's ``to_dict`` is the shared encoder but three; and the
CLI holds no input rule of its own: default configurations are read in
``ingest``, whose one value rule space files share, and only ``model`` reads
the number range; and only the CLI writes to stderr, every line through
``cli._line``, which alone bounds a diagnostic's width."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import covsearch
import covsearch.cli
from covsearch.model import _Record, _to_dict

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


def test_only_the_ingest_decoder_calls_json_loads():
    def loads_calls(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads"
        ]

    decoder = next(
        node for node in ast.walk(MODULES["ingest"])
        if isinstance(node, ast.FunctionDef) and node.name == "_decode"
    )
    calls = [call for tree in MODULES.values() for call in loads_calls(tree)]
    assert len(calls) == 1 and calls == loads_calls(decoder)
    assert "json" not in {  # no bare ``loads`` imported from json
        node.module for tree in MODULES.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }


def test_records_fill_their_fields_but_the_four_hot_ones():
    filled, direct = set(), set()
    for tree in MODULES.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and "_Record" in [ast.unparse(b) for b in cls.bases]:
                (init,) = [f for f in cls.body if getattr(f, "name", None) == "__init__"]
                body = [ast.unparse(statement) for statement in init.body]
                (filled if body == ["_fill(self, locals())"] else direct).add(cls.name)
    assert direct == {"Configuration", "Context", "BudgetDetail", "RankingEntry"}
    assert len(filled) == 16


def test_results_encode_their_fields_but_three():
    own = {
        cls.name
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "to_dict"
    }
    assert own == {"RankingEntry", "BudgetDetail", "FixedConfigResult"}
    shared = {
        cls.__name__ for cls in _Record.__subclasses__() if vars(cls).get("to_dict") is _to_dict
    }
    assert shared == {
        "CoverageRanking", "LooScore", "LooResult", "UpperBoundResult", "BudgetPoint",
        "BudgetCurve", "CompareRow", "HpImportance", "ImportanceReport",
    }
    (write,) = [
        node for node in ast.walk(MODULES["cli"])
        if isinstance(node, ast.FunctionDef) and node.name == "_write"
    ]
    called = {ast.unparse(node.func) for node in ast.walk(write) if isinstance(node, ast.Call)}
    assert "_data" in called and "isinstance" not in called  # no list/tuple branch of its own


def test_the_cli_holds_no_input_rule():
    cli = MODULES["cli"]
    imported = {
        alias.name for node in ast.walk(cli) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & {"load_json", "ParseError", "NUMBER", "MAX_EXPONENT"} == set()
    readers = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if getattr(node, "id", None) == "MAX_EXPONENT"  # a name
        or getattr(node, "attr", None) == "MAX_EXPONENT"  # model.MAX_EXPONENT
        or isinstance(node, ast.alias) and node.name == "MAX_EXPONENT"  # an import
    }
    assert readers == {"model"}
    functions = {
        (name, node.name): node
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    value_types = [
        (name, node)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and ast.unparse(node) == "(str, int, float)"
    ]
    home = list(ast.walk(functions["ingest", "_check_values"]))
    assert len(value_types) == 1 and value_types[0][1] in home
    for reader in ("_space", "load_default_config"):
        called = {ast.unparse(node.func) for node in ast.walk(functions["ingest", reader])
                  if isinstance(node, ast.Call)}
        assert "_check_values" in called
    for function, banned in [("cmd_compare", "isinstance"), ("_real", "NUMBER.fullmatch")]:
        called = {ast.unparse(node.func) for node in ast.walk(functions["cli", function])
                  if isinstance(node, ast.Call)}
        assert banned not in called


def test_every_diagnostic_line_goes_through_line():
    assert "reprlib" not in {
        module.split(".")[0] for tree in MODULES.values() for module in absolute_imports(tree)
    }
    uses = {
        name: [node for node in ast.walk(tree) if getattr(node, "attr", None) == "stderr"]
        for name, tree in MODULES.items()
    }
    assert {name for name, nodes in uses.items() if nodes} == {"cli"}
    calls = [node for node in ast.walk(MODULES["cli"]) if isinstance(node, ast.Call)]
    writes = [call for call in calls if ast.unparse(call.func) == "sys.stderr.write"]
    (error,) = [
        node for node in ast.walk(MODULES["cli"])
        if isinstance(node, ast.FunctionDef) and node.name == "error"
    ]
    (exit_,) = [
        node for node in ast.walk(error)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "self.exit"
    ]
    # the one other use is print_usage(sys.stderr): argparse wraps usage to the terminal
    assert len(uses["cli"]) == len(writes) + 1 == 4
    assert all(
        isinstance(arg, ast.Call) and ast.unparse(arg.func) == "_line"
        for arg in [call.args[0] for call in writes] + [exit_.args[1]]
    )
