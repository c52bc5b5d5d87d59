"""Static checks of the package's modules: no import left behind by a
deletion, no ``__all__`` entry naming something that is gone, and no
configuration field that no config file can set."""

import ast
import dataclasses
import json
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bnpforecast"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _top_level_imports(tree):
    """Names bound by the module's top-level imports (``import a.b`` binds
    ``a``), with their line numbers; ``__future__`` imports excluded."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _top_level_definitions(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_package_modules_found():
    assert {"cli.py", "gp_core.py", "model_engine.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(_dunder_all(tree))
    unused = {name: line for name, line in _top_level_imports(tree).items()
              if name not in used and name not in exported}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_exists(path):
    tree = _parse(path)
    available = _top_level_definitions(tree) | set(_top_level_imports(tree))
    if path.name == "__init__.py":  # a package may list its submodules
        available |= {p.stem for p in MODULES}
    missing = [name for name in _dunder_all(tree) if name not in available]
    assert not missing, f"{path.name}: __all__ names {missing} are not defined"


def test_config_dataclasses_match_schema():
    """Every ``McmcConfig`` field but the seed (which ``run`` derives per
    cell) is a key of the schema's ``mcmc`` object, and every ``RunConfig``
    field a top-level key, and the reverse: a field no config can reach is
    an option no run can take."""
    from bnpforecast.cli import RunConfig
    from bnpforecast.data_pipeline import McmcConfig
    schema = json.loads((PACKAGE / "config_schema.json").read_text())
    mcmc = {f.name for f in dataclasses.fields(McmcConfig)} - {"seed"}
    assert mcmc == set(schema["properties"]["mcmc"]["properties"])
    assert {f.name for f in dataclasses.fields(RunConfig)} == set(schema["properties"])
