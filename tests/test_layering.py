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
``cli._line``, which alone bounds a diagnostic's width; the CLI queries no
bundled catalog, which ``ingest.catalog_entries`` answers; it prints only
in ``cli._write`` and ``cmd_synth``, and writes every file in ``cli._save``;
``protocols`` selects on validation in one function, which ``upper_bound``
and ``budget_curve`` both call, and raises a missing split cell and a chosen
configuration's missing test record at one site each; and the CLI holds no
importance scope rule: ``cmd_importance`` asks ``importance_scopes`` which
train sizes to report, and only ``importance`` words the skip warning; only
``model`` names the integer grammar, and the CLI and the score parser read
every integer through its one reader; and the leave-one-out, budget and
compare commands pass their selection flags through one hand-off; and
``importance`` writes the js_score formula in one function and counts
value frequencies in plain Python in one function; and a coverage ranking's
pool is built only by ``rank`` and ``protocols._held_out``, which reaches
into ``ranking`` through three private names, and only ``ranking`` says
when the pool runs out of contexts."""

import argparse
import ast
import importlib.util
import inspect
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


def test_the_cli_queries_no_catalog_and_writes_through_write():
    def calls(tree):
        return [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]

    callers = {
        name for name, tree in MODULES.items()
        if any(called.endswith("_names_pair") for called in calls(tree))
    }
    assert callers == {"ingest"}
    assert not [called for called in calls(MODULES["cli"]) if called.endswith("builtin_catalog")]

    functions = {
        node.name: node for node in ast.walk(MODULES["cli"]) if isinstance(node, ast.FunctionDef)
    }

    def writes(tree, names):
        return [called for called in calls(tree) if called.endswith(names)]

    files = (".write_text", ".write_bytes", "open", "os.replace")
    assert writes(MODULES["cli"], files) == writes(functions["_save"], files) != []
    assert all("_save" in calls(functions[name]) for name in ("_write", "cmd_synth"))
    stdout = "sys.stdout.write"
    printers = {name for name, node in functions.items() if writes(node, stdout)}
    assert printers == {"_write", "cmd_synth"}
    assert len(writes(MODULES["cli"], stdout)) == sum(
        len(writes(functions[name], stdout)) for name in printers
    )


def test_protocols_select_and_look_up_in_one_place():
    tree = MODULES["protocols"]
    raised = [ast.unparse(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    for message in ("split unavailable for context", "has no test record on"):
        assert sum(message in text for text in raised) == 1, message
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("upper_bound", "budget_curve"):
        called = {ast.unparse(node.func) for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call)}
        assert "_selected" in called and "max" not in called, name


def test_the_cli_holds_no_importance_scope_rule():
    (command,) = [
        node for node in ast.walk(MODULES["cli"])
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_importance"
    ]
    called = {ast.unparse(node.func) for node in ast.walk(command) if isinstance(node, ast.Call)}
    assert "importance_scopes" in called and called.isdisjoint({"_select", "Counter"})
    imported = {
        alias.name for node in ast.walk(MODULES["cli"])
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    assert "Counter" not in imported
    wording = {
        name for name, tree in MODULES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and "fewer than two datasets; skipped" in str(node.value)
    }
    assert wording == {"importance"}


def mentions(tree):
    """Every name a module mentions: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_model_names_the_integer_grammar():
    holders = {name for name, tree in MODULES.items() if "INTEGER" in mentions(tree)}
    assert holders == {"model"}


def test_integers_from_outside_have_one_reader():
    assert not [name for name, tree in MODULES.items() if "_check_digits" in mentions(tree)]
    for module in ("cli", "ingest"):
        imported = {
            alias.name for node in ast.walk(MODULES[module])
            if isinstance(node, ast.ImportFrom) and node.module == "model" for alias in node.names
        }
        called = {
            ast.unparse(node.func) for node in ast.walk(MODULES[module])
            if isinstance(node, ast.Call)
        }
        assert "_integer" in imported & called, module


def test_the_held_out_commands_select_through_one_hand_off():
    keys = {"datasets", "train_sizes", "split", "threshold", "skip_degenerate"}
    args = argparse.Namespace(**{key: key for key in keys}, command="loo")
    assert covsearch.cli._selection(args) == {key: key for key in keys}
    for function in (covsearch.loo_cbs, covsearch.budget_curve, covsearch.compare_protocols):
        assert keys <= set(inspect.signature(function).parameters), function.__name__
    held_out = ("cmd_loo", "cmd_budget", "cmd_compare")
    commands = {
        node.name: node for node in ast.walk(MODULES["cli"])
        if isinstance(node, ast.FunctionDef) and node.name in held_out
    }
    assert len(commands) == 3
    for name, command in commands.items():
        read = {
            node.attr for node in ast.walk(command)
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args"
        }
        assert read.isdisjoint(keys), name
        handed = [
            keyword for node in ast.walk(command) if isinstance(node, ast.Call)
            for keyword in node.keywords
            if keyword.arg is None and ast.unparse(keyword.value) == "_selection(args)"
        ]
        assert len(handed) == 1, name



def importance_functions():
    tree = MODULES["importance"]
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_importance_writes_the_js_score_formula_once():
    holders = [
        name for name, function in importance_functions().items()
        for node in ast.walk(function) if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub) and ast.unparse(node.left) == "1.0"
        and ast.unparse(node.right).startswith("math.fsum(")
    ]
    assert holders == ["_row_score"]  # a nested holder would list its outer function too


def test_importance_counts_value_frequencies_in_one_function():
    functions = importance_functions()
    for name in ("value_distribution", "_pure_permutation_test"):
        called = {ast.unparse(node.func) for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call)}
        assert "_shares" in called and "Counter" not in called, name


def test_only_rank_and_the_held_out_analyses_build_the_pool():
    builders = {
        (name, getattr(statement, "name", None))
        for name, tree in MODULES.items() for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_Pool"
    }
    assert builders == {("ranking", "rank"), ("protocols", "_held_out")}
    package = Path(covsearch.__file__).parent
    named = [path.name for path in package.glob("*.py") if "_ranker" in path.read_text("utf-8")]
    assert named == []  # the closure-returning builder that _Pool replaced


def test_only_ranking_says_when_the_pool_runs_out():
    for message in ("no contexts remain after holding out", "all requested contexts are degenerate"):
        holders = {
            name for name, tree in MODULES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and message in str(node.value)
        }
        assert holders == {"ranking"}, message


def test_protocols_imports_three_private_ranking_names():
    private = {
        alias.name for node in ast.walk(MODULES["protocols"])
        if isinstance(node, ast.ImportFrom) and node.module == "ranking"
        for alias in node.names if alias.name.startswith("_")
    }
    assert private <= {"_Pool", "_cell_and_best", "_usable"}
