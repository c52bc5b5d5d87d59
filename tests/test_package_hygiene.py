"""Static checks of the package's modules: no import left behind by a
deletion, no ``__all__`` entry naming something that is gone, no runtime
dependency the code does not import, no configuration field that no config
file can set, and no schema keyword the config check does not read."""

import ast
import dataclasses
import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bnpforecast"
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


def test_mean_blocks_form_no_dense_inverse():
    """``model_engine`` factors K plus a diagonal and never forms a T x T
    inverse: it neither imports nor calls ``dpotri``, ``inv`` or ``pinv``."""
    tree = _parse(PACKAGE / "model_engine.py")
    banned = {"dpotri", "inv", "pinv"}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    called = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    called |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported & banned and not called & banned


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


def test_runtime_dependencies_are_what_the_package_imports():
    """``[project] dependencies`` names exactly the third-party packages that
    ``src/`` imports anywhere, in a function body too."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", PACKAGE.name}
    assert third_party == declared


def test_config_check_reads_every_schema_keyword():
    """Every keyword in ``config_schema.json`` is one ``cli.schema_violation``
    reads, every type one it knows, and ``additionalProperties`` is false
    wherever it appears, so a schema edit cannot go unchecked."""
    from bnpforecast import cli
    schemas = [json.loads((PACKAGE / "config_schema.json").read_text())]
    while schemas:
        schema = schemas.pop()
        assert set(schema) <= cli._SCHEMA_KEYWORDS, set(schema) - cli._SCHEMA_KEYWORDS
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(cli._JSON_TYPES)
        assert schema.get("additionalProperties", False) is False
        schemas.extend(schema.get("properties", {}).values())
        schemas.extend([schema["items"]] if "items" in schema else [])
