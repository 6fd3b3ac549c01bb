"""Guards against stale names: every exported name resolves, the package root
is exactly the README and CLI surface, no module imports a name it never
uses, and the README's Python example and CLI lines run. Also guards the
import weight of the command."""

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
    "identities": {"assoc_legendre", "eval_recurrence", "legendre", "integrate",
                   "integrate_split"},
}


def test_module_exports_resolve():
    for name in MODULES:
        module = importlib.import_module(f"ballgrad.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name


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
