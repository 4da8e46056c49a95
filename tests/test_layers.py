"""The modules of `sireason` import only the modules below them."""

import ast
import pathlib

import pytest

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


def _named(path: pathlib.Path) -> set[str]:
    """The names a module reads, binds or imports."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


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
    assert spelled == set()
    assert _named(path) & {"CERTAIN_BAD", "NOTHING_FOLLOWS"} == set()


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


def _spelled(path: pathlib.Path) -> set[str]:
    """The string constants of a module, f-string parts too, less its
    docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    }


def test_the_loader_and_the_cli_leave_prompt_and_endpoint_syntax_to_models():
    """`models` writes the halter prompts and connects to endpoints, so it
    owns their syntax: the loader asks `models.check_choices` and the
    command line `models.check_endpoint`, and neither spells it."""
    loader = PACKAGE / "datasets.py"
    assert {s for s in _spelled(loader) if " OR " in s or "?" in s} == set()
    assert "check_choices" in _named(loader) and "read_choices" not in _named(loader)
    cli = PACKAGE / "evalcli.py"
    assert {s for s in _spelled(cli) if "pipe:" in s or "http" in s} == set()
    assert "check_endpoint" in _named(cli)
    assert _named(cli) & {"urllib", "urlsplit", "scheme"} == set()


@pytest.mark.parametrize("text, owner", [
    ("Therefore,", "core"),
    ("Does it imply that the statement", "cnl"),
])
def test_each_text_form_is_spelled_only_by_its_owner(text, owner):
    """`core` writes and reads a step line, whose inference prompt ends in
    the step connective, and `cnl` writes and reads the implication
    question; no other module spells either."""
    spelling = sorted(path.stem for path in PACKAGE.glob("*.py")
                      if any(text in s for s in _spelled(path)))
    assert spelling == [owner]


def _callers(path: pathlib.Path, callee: str) -> list[tuple[str, str]]:
    """(module, enclosing class or function) of each call to `callee`, a name
    or a dotted `module.name`; a class is named with the method that calls."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == callee:
                found.append((path.stem, where))
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_a_request_reads_its_own_role():
    """A role given as its value is read once, where a request is built;
    the scripted backend reads its script's keys the same way."""
    callers = sorted(hit for path in sorted(PACKAGE.glob("*.py"))
                     for hit in _callers(path, "GeneratorRole"))
    assert callers == [("models", "CompletionRequest.__post_init__"),
                       ("models", "ScriptedBackend.__init__")]


def test_one_writer_frames_every_wire_line():
    assert _callers(PACKAGE / "models.py", "json.dumps") == [("models", "_document")]
