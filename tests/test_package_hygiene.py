"""Static checks of the package's modules: no import left behind by a
deletion, no ``__all__`` entry naming something that is gone, no defaulted
parameter that no call sets, no class member that nothing reads, no
runtime dependency the code does not import, no scipy import outside the
modules that need it, no configuration field that no config file can set,
no schema keyword the config check does not read, no Cholesky retry, and
no module that only the tests import."""

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


# Modules that run without another package module importing them.
ENTRY_POINTS = {"__init__", "__main__", "cli"}


def test_every_module_is_imported_or_an_entry_point():
    """Every module of the package is imported by another package module,
    or is an entry point: code that only the tests reach belongs under
    ``tests/``."""
    imported = set()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                base = (node.module or "") if node.level == 0 else \
                    ".".join(filter(None, (PACKAGE.name, node.module)))
                names = [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            # bnpforecast.m or bnpforecast.m.name: module m is imported
            imported.update(n.split(".")[1] for n in names
                            if n.startswith(PACKAGE.name + "."))
    orphans = {p.stem for p in MODULES} - imported - ENTRY_POINTS
    assert not orphans, f"modules no package module imports: {sorted(orphans)}"


# Defaulted parameters that no call in src/ sets, each kept for its reason.
UNSET_DEFAULTS_ALLOWED = {
    ("cli", "main", "argv"): "entry point: the console script calls main()",
    ("linear_summary", "lasso_fit", "max_breakpoints"): "a test sets 3 to hit the limit",
    ("linear_summary", "default_lambda_grid", "n_points"): "tests set shorter grids",
    ("linear_summary", "default_lambda_grid", "ratio"): "a test sets a narrower span",
    ("linear_summary", "fit_quantile_paths", "folds"): "tests set 4 folds",
    ("evaluation", "kolmogorov_halfwidth", "level"): "a test sets an invalid level",
}


def _defaulted_parameters(path):
    """(module, function, parameter, position) for every parameter with a
    default; the position counts from the first argument a call passes
    (after a method's self) and is None for keyword-only parameters."""
    tree = _parse(path)
    methods = {id(f) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for f in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        pos = a.posonlyargs + a.args
        shift = int(id(node) in methods and bool(pos) and pos[0].arg in ("self", "cls"))
        first = len(pos) - len(a.defaults)
        for i, arg in enumerate(pos[first:], start=first):
            yield path.stem, node.name, arg.arg, i - shift
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield path.stem, node.name, arg.arg, None


def _calls(path):
    """(callee name, positional count, keyword names, has a * or ** splat)
    for every call to a plain or attribute name."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name:
                splat = (any(isinstance(x, ast.Starred) for x in node.args)
                         or any(k.arg is None for k in node.keywords))
                yield (name, sum(not isinstance(x, ast.Starred) for x in node.args),
                       {k.arg for k in node.keywords}, splat)


def test_no_defaulted_parameter_goes_unset():
    """Every defaulted parameter of a function in ``src/`` is set by some
    call in ``src/`` (by name, by position or through a splat), or is in
    ``UNSET_DEFAULTS_ALLOWED`` with its reason: a parameter no call sets
    is an option no run can take. Calls are matched by function name."""
    calls = [c for path in MODULES for c in _calls(path)]
    unset = set()
    for mod, fn, param, idx in (d for path in MODULES for d in _defaulted_parameters(path)):
        if not any(name == fn and (param in kws or (idx is not None and npos > idx) or splat)
                   for name, npos, kws, splat in calls):
            unset.add((mod, fn, param))
    assert unset - set(UNSET_DEFAULTS_ALLOWED) == set()
    assert set(UNSET_DEFAULTS_ALLOWED) - unset == set(), "stale allowlist entries"


def _class_members(path):
    """(module, class, member) for every field (a class-level annotation or
    an attribute a method assigns on ``self``), property and public method
    of each class in the module."""
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield path.stem, node.name, item.target.id
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                is_property = any(isinstance(d, ast.Name) and d.id == "property"
                                  for d in item.decorator_list)
                if is_property or not item.name.startswith("_"):
                    yield path.stem, node.name, item.name
                for n in ast.walk(item):
                    if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name) and n.value.id == "self"):
                        yield path.stem, node.name, n.attr


def test_every_class_member_is_read():
    """Every field, property and public method of a class in ``src/`` is read
    as an attribute somewhere in ``src/``: state that nothing reads is state
    the package need not keep. Reads are matched by name alone, so a member
    passes when any attribute of that name is read."""
    read = {n.attr for path in MODULES for n in ast.walk(_parse(path))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = sorted(m for path in MODULES for m in _class_members(path) if m[2] not in read)
    assert not unread


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
    """Every ``McmcConfig`` field is a key of the schema's ``mcmc`` object,
    and every ``RunConfig`` field a top-level key, and the reverse: a field
    no config can reach is an option no run can take."""
    from bnpforecast.cli import RunConfig
    from bnpforecast.data_pipeline import McmcConfig
    schema = json.loads((PACKAGE / "config_schema.json").read_text())
    mcmc = {f.name for f in dataclasses.fields(McmcConfig)}
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


def test_only_gp_core_and_model_engine_import_scipy():
    """scipy is imported, at module or function level, only where the linear
    algebra and the GP hyperparameter moves need it: ``gp_core`` and
    ``model_engine``. The error models draw with numpy alone."""
    importers = set()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.stem)
    assert "gp_core" in importers  # the scan sees scipy imports at all
    assert importers <= {"gp_core", "model_engine"}, importers


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


def test_chol_psd_is_one_factorization(monkeypatch):
    """``gp_core`` keeps no jitter ladder (no ``_JITTERS``), and ``chol_psd``
    calls ``cho_factor`` exactly once per call, whether the factorization
    succeeds or raises: the kernel's nugget, not a retry, keeps the
    matrices positive definite."""
    import numpy as np

    from bnpforecast import gp_core
    assert "_JITTERS" not in _top_level_definitions(_parse(PACKAGE / "gp_core.py"))
    calls = []
    orig = gp_core.cho_factor
    monkeypatch.setattr(gp_core, "cho_factor", lambda M: (calls.append(1), orig(M))[1])
    gp_core.chol_psd(np.eye(3))
    assert len(calls) == 1
    with pytest.raises(gp_core.SingularKernelError):
        gp_core.chol_psd(np.ones((4, 4)))
    assert len(calls) == 2
