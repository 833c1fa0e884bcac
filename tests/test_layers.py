"""The exact layers and commands never load numpy.

``params``, ``exactlinalg``, ``spectra``, ``models``, ``stability``,
``oracle`` (the exact oracles) and ``cli`` compute with ``Fraction`` and
ints.  Only ``geometry`` (the float kernel) and ``sampled`` (the sampled
checks) import numpy, and ``cli`` imports ``sampled`` only when a sampled
command runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bergersphere import cli, geometry, params

PACKAGE = Path(params.__file__).parent
EXACT_MODULES = ("params", "exactlinalg", "spectra", "models", "stability", "oracle", "cli")
FLOAT_MODULES = ("geometry", "sampled")
# cli function -> a command line that runs it, for the commands that run
# sampled checks
SAMPLED_COMMANDS = {"cmd_verify": ["verify"],
                    "cmd_tai_check": ["tai-check", "--tau-sq", "1/3"],
                    "cmd_curvature_check": ["curvature-check", "--tau-sq", "1/3"]}
FORMATS = ("table", "csv", "json")

# (argv, exit code) of ``cli.main``; None runs ``import bergersphere`` alone.
EXACT_RUNS = (
    [(None, None)]
    + [(["index", "--model", "clifford", "--m1", "0", "--m2", "1", "--tau-sq", "1/3",
         "--format", fmt], 0) for fmt in FORMATS]
    + [(["spectrum", *space, "--tau-sq", "2/7", "--format", fmt], 0)
       for space in (["--space", "berger", "--n", "2"],
                     ["--space", "clifford", "--m1", "1", "--m2", "0"],
                     ["--space", "clifford", "--m1", "1", "--m2", "0", "--low"])
       for fmt in FORMATS]
    + [(["phase", "--n-max", "2", "--format", fmt], 0) for fmt in FORMATS]
    + [(["moduli", "--samples", "5", "--format", fmt], 0) for fmt in FORMATS]
    + [(["--help"], 0), (["index", "--model", "veronese-rp3", "--tau-sq", "0.3"], 2)])


def _fresh_run(argv):
    """(exit code, whether numpy is loaded) of ``cli.main(argv)`` in a fresh
    interpreter, its output discarded; ``argv`` None only imports the package."""
    if argv is None:
        code = "import bergersphere\ncode = None\n"
    else:
        code = ("import contextlib, io\n"
                "from bergersphere import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "    try:\n"
                f"        code = cli.main({argv!r})\n"
                "    except SystemExit as exc:\n"
                "        code = exc.code\n")
    code += "import sys\nprint(code, 'numpy' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("BERGER_SEED", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    exit_code, loaded = out.stdout.split()
    return (None if exit_code == "None" else int(exit_code)), loaded == "True"


@pytest.mark.parametrize("argv, exit_code", EXACT_RUNS,
                         ids=["import" if a is None else " ".join(a) for a, _ in EXACT_RUNS])
def test_exact_command_does_not_load_numpy(argv, exit_code):
    assert _fresh_run(argv) == (exit_code, False)


def test_sampled_command_loads_numpy():
    # the probe above can see numpy when it is there
    assert _fresh_run(["verify", "--samples", "1"]) == (0, True)


def _module_level_imports(tree):
    """Modules imported by the statements run when the module loads: every
    import outside a function body, as dotted names relative to the package
    for a relative import."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.append(base)
            if node.module is None:
                found += [base + alias.name for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_imports_no_float_module(module):
    # nor, but for itself, the verification layer ``oracle``: the tables do
    # not depend on what checks them, and the exact commands do not load it
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imports = _module_level_imports(tree)
    assert imports, "the walk saw no import at all"
    forbidden = FLOAT_MODULES + (() if module == "oracle" else ("oracle",))
    found = [name for name in imports
             if name.split(".")[0] == "numpy"
             or name.lstrip(".").removeprefix("bergersphere.") in forbidden]
    assert found == []


def _imports_sampled(node) -> bool:
    return any(isinstance(sub, ast.ImportFrom)
               and (sub.module == "sampled" and sub.level == 1
                    or sub.module in ("bergersphere", None) and any(
                        alias.name == "sampled" for alias in sub.names)
                    or sub.module == "bergersphere.sampled")
               or isinstance(sub, ast.Import)
               and any(alias.name == "bergersphere.sampled" for alias in sub.names)
               for sub in ast.walk(node))


def test_cli_imports_sampled_only_in_the_sampled_commands():
    """Every function of ``cli`` that imports ``sampled``, and every one that
    calls such a function, directly or not, serves a sampled command: the
    ones that no other function calls are the sampled commands."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not _imports_sampled(ast.Module(
        body=[node for node in tree.body if not isinstance(node, ast.FunctionDef)],
        type_ignores=[]))
    calls = {name: {sub.func.id for sub in ast.walk(fn)
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
             for name, fn in funcs.items()}
    reach = {name for name, fn in funcs.items() if _imports_sampled(fn)}
    assert reach, "the walk found no import of sampled"
    while True:
        callers = {name for name, called in calls.items() if called & reach} - reach
        if not callers:
            break
        reach |= callers
    roots = {name for name in reach if not any(name in calls[other] for other in reach)}
    assert roots == set(SAMPLED_COMMANDS)
    for name, argv in SAMPLED_COMMANDS.items():
        assert cli.build_parser().parse_args(argv).func is getattr(cli, name)


def test_sampled_import_walk_sees_every_form():
    for code in ("from . import sampled", "from .sampled import N_LIMIT",
                 "from bergersphere import sampled", "import bergersphere.sampled",
                 "from bergersphere.sampled import verify_all"):
        assert _imports_sampled(ast.parse(code)), code
    assert not _imports_sampled(ast.parse("from . import oracle, spectra"))


def test_importing_the_exact_oracles_loads_no_float_module():
    code = ("import sys\nimport bergersphere.oracle\n"
            "print(*sorted(name for name in ('numpy', 'bergersphere.geometry', "
            "'bergersphere.sampled', 'bergersphere.oracle') if name in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["bergersphere.oracle"]


def test_import_walk_finds_float_imports():
    tree = ast.parse("import numpy as np\nfrom . import geometry, spectra\n"
                     "from .oracle import N_LIMIT\n"
                     "class C:\n    from numpy import pi\n"
                     "def f():\n    from . import oracle\n")
    assert sorted(_module_level_imports(tree)) == [
        ".", ".geometry", ".oracle", ".spectra", "numpy", "numpy"]


def test_geometry_reexports_the_one_parameter_class():
    # perfbench's tracer patches ``geometry.BergerParam.one_minus`` to count
    # its reads; the exact layers must read the same property.
    assert geometry.BergerParam is params.BergerParam
    assert geometry.GeometryDomainError is params.GeometryDomainError
    assert geometry.RoundSphereUnsupportedError is params.RoundSphereUnsupportedError
    assert isinstance(params.BergerParam.__dict__["one_minus"], property)
