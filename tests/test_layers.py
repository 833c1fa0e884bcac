"""The exact layers and commands never load numpy.

``params``, ``exactlinalg``, ``spectra``, ``models``, ``stability`` and
``cli`` compute with ``Fraction`` and ints.  Only ``geometry`` (the float
kernel) and ``oracle`` (the sampled checks) import numpy, and ``cli``
imports ``oracle`` only when a sampled command runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bergersphere import geometry, params

PACKAGE = Path(params.__file__).parent
EXACT_MODULES = ("params", "exactlinalg", "spectra", "models", "stability", "cli")
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
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imports = _module_level_imports(tree)
    assert imports, "the walk saw no import at all"
    forbidden = [name for name in imports
                 if name.split(".")[0] == "numpy"
                 or name.lstrip(".").removeprefix("bergersphere.") in ("geometry", "oracle")]
    assert forbidden == []


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
