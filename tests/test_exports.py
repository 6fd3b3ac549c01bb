"""Guards against stale names: every exported name resolves and is reached,
the package root is exactly the README and CLI surface, no module imports a
name it never uses, and the README's Python example and CLI lines run. Also
guards the import weight of the command."""

import argparse
import ast
import importlib
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import ballgrad
from ballgrad import cli
from ballgrad.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"
MODULES = ("cli", "constants", "gegenbauer", "identities", "quadrature")
ROOT_NAMES = {
    "ConstantQuery", "ConvexityReport", "RadialMaxReport",
    "certify_convexity", "certify_radial_max", "constant_direct", "constant_radial",
    "constant_series", "DimensionParams", "SeriesConvergenceError", "run_suite",
    "gauss_legendre",
}

# imported names a module does not use: the package root re-exports its surface,
# and bench/spans.py traces calls through these names in identities
UNUSED_IMPORTS = {
    "__init__": ROOT_NAMES,
    "identities": {"assoc_legendre", "integrate", "integrate_split"},
}


def test_module_exports_resolve():
    for name in MODULES:
        module = importlib.import_module(f"ballgrad.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name


def _reached():
    """(module, name) of every top-level name of the package that the README's
    Python example or the `ballgrad` command (cli.console_entry, the script of
    pyproject.toml, and the cli `__main__` block) reaches through package code,
    following the names each reached definition's code references, and a
    resolver mapping an imported name to its (module, name) of definition."""
    defs, alias, todo = {}, {}, [("cli", "console_entry")]
    for path in pathlib.Path(ballgrad.__file__).parent.glob("*.py"):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                alias.update({(mod, a.asname or a.name): (node.module, a.name) for a in node.names})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update({(mod, t.id): node for target in targets
                             for t in ast.walk(target) if isinstance(t, ast.Name)})
            else:  # code that defines no name runs on import, or as __main__
                todo += [(mod, n.id) for n in ast.walk(node) if isinstance(n, ast.Name)]
    for code in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        todo += [("__init__", a.name) for node in ast.walk(ast.parse(code))
                 if isinstance(node, ast.ImportFrom) and node.module == "ballgrad"
                 for a in node.names]

    def resolve(key):
        while key in alias:
            key = alias[key]
        return key

    reached = set()
    while todo:
        key = resolve(todo.pop())
        if key in defs and key not in reached:
            reached.add(key)
            todo += [(key[0], n.id) for n in ast.walk(defs[key]) if isinstance(n, ast.Name)]
    return reached, resolve


def test_every_export_is_reached(monkeypatch):
    # an exported name that nothing reaches is test-only API: it belongs in
    # tests/referees.py. A bench/spans.py wrap point reaches the name it wraps,
    # but not the names that name's code uses: the tracer calls nothing itself.
    # curvature_density_grid is the one exception: criterion 5 of
    # tests/test_acceptance.py imports it as the pointwise kernel density.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    reached, resolve = _reached()
    wrapped = {resolve((module.split(".")[1], attr)) for module, attr, _ in spans.WRAP_POINTS}
    unreached = [(name, attr) for name in MODULES
                 for attr in importlib.import_module(f"ballgrad.{name}").__all__
                 if resolve((name, attr)) not in reached | wrapped]
    assert unreached == [("constants", "curvature_density_grid")]


def test_primary_routes_import_nothing_from_identities():
    # the identity suite is an oracle: the modules of the primary routes must not lean on it
    for name in ("constants", "gegenbauer", "quadrature"):
        tree = ast.parse((pathlib.Path(ballgrad.__file__).parent / f"{name}.py").read_text())
        paths = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
        paths += [f"{node.module or ''}.{a.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for a in node.names]
        assert [path for path in paths if "identities" in path.split(".")] == [], name


def test_package_root_is_readme_and_cli_surface():
    public = {name for name, value in vars(ballgrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES


def test_no_unused_imports():
    # no linter runs here; this catches names that deletions leave imported
    for path in sorted(pathlib.Path(ballgrad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        allowed = UNUSED_IMPORTS.get(path.stem, set())
        assert imported - used == allowed, path.name


def test_readme_example_runs(capsys):
    examples = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert examples
    for code in examples:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_lines_run(capsys):
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "ballgrad" for argv in lines)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out


def test_readme_documents_every_flag():
    # the backticked --flags of the README are exactly the parser's options
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for parser in sub.choices.values() for action in parser._actions
               for flag in action.option_strings if flag not in ("-h", "--help")}
    assert set(re.findall(r"`(--[a-z][a-z-]*)", README.read_text())) == options


def test_cli_loads_no_heavy_modules():
    # a fresh process that imports the CLI and runs each command loads none
    # of these: each adds milliseconds of import time and resident memory
    src = str(pathlib.Path(ballgrad.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import io, sys, contextlib, ballgrad.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert ballgrad.cli.main(['certify', '--dim', '3', '--rho', '0.5']) == 0\n"
            "    assert ballgrad.cli.main(['constant', '--dim', '3', '--rho', '0.5']) == 0\n"
            "    assert ballgrad.cli.main(['identities', '--samples', '2', '--degree-max', '4']) == 0\n"
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "ballgrad.constants" in loaded
    heavy = [m for m in loaded if m == "numpy.polynomial" or m.startswith("numpy.polynomial.")
             or m.split(".")[0] in ("scipy", "mpmath", "fractions", "decimal", "heapq")]
    assert heavy == []
