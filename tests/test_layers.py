"""The modules of `sireason` import only the modules below them."""

import ast
import pathlib

import sireason

# Each module by its layer; a module may import from lower layers only.
LAYERS = {
    "core": 0,
    "cnl": 1,
    "symbolic": 2,
    "models": 3,
    "engine": 4,
    "datasets": 4,
    "evalcli": 5,
}
PACKAGE = pathlib.Path(sireason.__file__).parent


def _imported(path: pathlib.Path) -> set[str]:
    """The `sireason` modules that one module imports, wherever it does."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sireason"):
            rest = node.module.split(".")[1:]
            found.update(rest[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sireason."))
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_each_module_imports_only_lower_layers():
    wrong = {
        (name, other)
        for name, layer in LAYERS.items()
        for other in _imported(PACKAGE / f"{name}.py")
        if LAYERS[other] >= layer
    }
    assert wrong == set()


def test_each_shared_rule_is_defined_once_in_core():
    """Problems, the period rule and the selection order have one definition,
    which the other layers import."""
    defined = sorted(
        (node.name, path.stem)
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in {"Problem", "strip_period", "selection_order"}
    )
    assert defined == [("Problem", "core"), ("selection_order", "core"),
                       ("strip_period", "core")]
    assert "core" in _imported(PACKAGE / "cnl.py")


def _period_tests(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, top-level definition) of each `.endswith(".")` in a module."""
    return [
        (path.stem, getattr(top, "name", ""))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "endswith" and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == "."
    ]


def test_the_trailing_period_is_tested_only_by_strip_period():
    """Every reader strips one trailing period through `core.strip_period`.
    The halter-reply readers in `models`, `read_ready` and `read_verdict`,
    strip every trailing period with `.rstrip(".")`: that is their own rule
    and is not matched."""
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _period_tests(path)]
    assert found == [("core", "strip_period")]


def test_the_engine_reads_no_completion_text():
    """`engine` formats, sends and ranks; each role's reply is read in
    `models`, next to its writer.  So the engine imports no reasoner and
    spells no halter reply or value default."""
    path = PACKAGE / "engine.py"
    assert _imported(path) == {"core", "models"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spelled = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.strip(" .") in {"Yes", "True", "False"}
    }
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert spelled == set()
    assert named & {"CERTAIN_BAD", "NOTHING_FOLLOWS"} == set()


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module's top-level imports bind that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_does_not_use():
    unused = {path.stem: _unused_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
