"""Time one representative call per layer, before and after a change.

    python3 bench/layers.py --before <git rev> --out BENCH_<n>.json [--only <text> ...]

The source tree of ``<git rev>`` is extracted with ``git archive`` into a
temporary directory; the "after" tree is the working tree.  Every case runs
in a fresh interpreter whose ``PYTHONPATH`` is the tree's ``src``, with BLAS
threads set to 1 and ``BERGER_SEED`` removed.  The working tree's ``src`` is
copied beside the extracted one without its ``__pycache__``, so both trees
start with the same bytecode cache: bytecode that only the working tree has
would shorten its process wall times by the compile time.  Each repeat of a
case is one pair of runs, one per tree, back to back; the tree that runs
first alternates from pair to pair.  Slow drift of the host's speed thus hits both trees of a
pair alike, and the per-pair difference cancels it where the spread of either
tree's runs would not.

Cases:

* L0 ``oracle.harmonic_dim_bruteforce`` at (n, a, b) = (3, 3, 4), a size of
  the exact-oracles benchmark's large tier, and (2, 1, 4), a small-tier size
  near the benchmark's median operation.  ``oracle.lxi_squared_spectrum`` at
  (n, tau^2, k) = (1, 1/3, 8), (1, 1/3, 7), (2, 1/3, 5), (3, 2/7, 4),
  (2, 1/3, 8) and (3, 2/7, 6): exact kernel ranks, dominated by the
  elimination in ``exactlinalg``.  The first four are sizes of the
  exact-oracles benchmark's large tier, (1, 8) and (1, 7) the two with the
  largest shares of its time; (2, 1/3, 8) and (3, 2/7, 6) lie beyond it, at
  the cap the tests reach.  L0 ``oracle.torus_fourier_index(1/3, 4)``: the dual-lattice
  scan, which ``verify`` runs five times.
* L1 ``phase_rows``: ``stability.phase_rows`` over ``cli._phase_models(8)``
  at six random rationals tau^2 and over ``cli._phase_models(12)`` at ten
  (seeded, drawn outside the timed region).  Each run is a fresh
  interpreter, so the mode tables start cold, as they do for a single
  command-line call.  L1 Laplace tables:
  ``spectra.berger_modes(4, 2/7, 8)`` and ``spectra.clifford_modes(1, 2,
  2/7, 6)``, sizes of the exact-tables benchmark's ``spectrum`` draws, and
  the depth-64 Clifford tables ``spectra.clifford_modes(3, 3, 1/3, 64)`` and
  ``CliffordHypersurface(3, 3).table(64)``.
* L2 ``curvature-tensor-500``: one ``curvature_tensor_rows`` call on 500
  sampled points, and ``curvature-six-orders-256``: R(x, y, z, w) and the
  five rearrangements that ``curvature-symmetries`` compares, on 256 sampled
  points at n = 2: one ``curvature_orders_rows`` call, or six
  ``curvature_tensor_rows`` calls in a tree without it (inputs built outside
  the timed region).
* L3 ``curvature_symmetry_check(1/3, 2, 500)`` (two batches of full
  size), ``tai_checks(2/7, 1, 2048)`` (the benchmark's ``tai-check`` cap)
  and ``tai_checks(2/7, 16, 300)`` at n = ``sampled.N_LIMIT``, which also
  reports its ``tracemalloc`` peak from one more, untimed call,
  ``sectional_consistency_check(2/7, 3, 256)`` and
  ``round_degeneration_check(3, 256)`` (one full batch each),
  ``minimality_first_variation_check(CliffordHypersurface(0, 0), 1/3, 2)``
  and ``minimality_first_variation_check(TotallyRealSphere(2, 2), 1/2, 1)``,
  first-variation checks that ``verify`` runs at every sample count, and
  ``tai_checks(1/2, 2, 50)``, the projector checks at the size ``verify``
  runs them at 200 samples or fewer, and ``bidegree_cross_check()``, the 45
  small harmonic-dimension oracle calls of ``verify``.
* L4 ``verify_all(512)`` and ``verify_all(24)``; 24 is about the median
  ``--samples`` of a log-uniform draw up to 512.
* Warm cases, named with a trailing ``warm``: the call runs once before the
  clock starts, so imports done on first use (``numpy.random`` alone takes
  about 15 ms) and cold caches stay out of the timed call, as in a process
  that runs many commands, like the sampled-verify benchmark's worker.  L3
  ``curvature_symmetry_check(2/7, 2, 16)`` and ``tai_checks(2/7, 2, 20)``,
  small batches near that benchmark's median operation, and L4
  ``verify_all(24)``.
* L5, each command run as ``bergersphere.cli`` by ``runpy`` in a fresh
  interpreter: ``verify --samples 2000``, ``index --model totally-real --n 4
  --d 3 --tau-sq 2/7``, ``phase --n-max 8 --tau-sq-grid
  1/7,3/17,2/9,5/12,8/13,29/31 --format json`` and
  ``tai-check --tau-sq 1/2 --n 3 --samples 2048``
  (the benchmark's sample cap for ``tai-check``), ``curvature-check
  --tau-sq 2/7 --n 3 --samples 1024`` (its cap for ``curvature-check``), and
  the small sampled commands near the sampled-verify benchmark's median,
  ``curvature-check --tau-sq 2/7 --n 2 --samples 16`` and
  ``tai-check --tau-sq 2/7 --n 2 --samples 20``; the depth-64 Clifford
  tables ``index --model clifford --m1 3 --m2 3 --tau-sq 1/3 --kmax 64`` and
  ``spectrum --space clifford --m1 3 --m2 3 --tau-sq 1/3 --kmax 64``, the
  latter also with ``--format json``, and the small ``spectrum --space
  berger --n 2 --tau-sq 2/7 --kmax 8``; ``moduli`` at its defaults and the
  small ``spectrum --space clifford --m1 0 --m2 0 --tau-sq 1/3``, whose
  process time is mostly imports; a cold ``python -c "import
  bergersphere"``, and a cold ``python -c "import bergersphere.oracle"``,
  the import that the exact-oracles benchmark's worker makes; process wall
  time and the process's peak resident set size (``VmHWM`` of its own
  address space, which the process writes to stderr at exit: see
  ``PEAK_HOOK``).

``--only`` runs the cases whose names contain one of the given texts.
Every case runs 21 pairs: on a host whose speed drifts, 11 pairs have read a
difference of several milliseconds on code that did not change.  The output
holds, per case and tree, the median and the interquartile range of the
repeats in seconds and, for L5 cases, of the peak RSS in MiB (for a traced
L3 case, of the traced peak in MiB); per case, the number of pairs, how
many of them the after tree won (ran faster), and the median and
interquartile range of the per-pair difference after - before in seconds;
the number of ``np.einsum``
calls each tree makes for each command of ``EINSUM_COMMANDS`` (numpy's
per-call cost dominates small sampled runs); plus the git sha, a digest of
the after tree's sources, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 21

# (layer, name, command line of an L5 case)
CASES = [
    ("L0", "harmonic_dim_bruteforce(3, 3, 4)", None),
    ("L0", "harmonic_dim_bruteforce(2, 1, 4)", None),
    ("L0", "lxi_squared_spectrum(1, 1/3, 8)", None),
    ("L0", "lxi_squared_spectrum(1, 1/3, 7)", None),
    ("L0", "lxi_squared_spectrum(2, 1/3, 5)", None),
    ("L0", "lxi_squared_spectrum(3, 2/7, 4)", None),
    ("L0", "lxi_squared_spectrum(2, 1/3, 8)", None),
    ("L0", "lxi_squared_spectrum(3, 2/7, 6)", None),
    ("L0", "torus_fourier_index(1/3, 4)", None),
    ("L1", "phase_rows(_phase_models(8), 6 random tau^2)", None),
    ("L1", "phase_rows(_phase_models(12), 10 random tau^2)", None),
    ("L1", "berger_modes(4, 2/7, 8)", None),
    ("L1", "clifford_modes(1, 2, 2/7, 6)", None),
    ("L1", "clifford_modes(3, 3, 1/3, 64)", None),
    ("L1", "CliffordHypersurface(3, 3).table(64)", None),
    ("L2", "curvature-tensor-500", None),
    ("L2", "curvature-six-orders-256", None),
    ("L3", "curvature_symmetry_check(1/3, 2, 500)", None),
    ("L3", "tai_checks(2/7, 1, 2048)", None),
    ("L3", "tai_checks(2/7, 16, 300)", None),
    ("L3", "sectional_consistency_check(2/7, 3, 256)", None),
    ("L3", "round_degeneration_check(3, 256)", None),
    ("L3", "curvature_symmetry_check(2/7, 2, 16) warm", None),
    ("L3", "tai_checks(2/7, 2, 20) warm", None),
    ("L3", "minimality_first_variation_check(CliffordHypersurface(0, 0), 1/3, 2)", None),
    ("L3", "minimality_first_variation_check(TotallyRealSphere(2, 2), 1/2, 1)", None),
    ("L3", "tai_checks(1/2, 2, 50)", None),
    ("L3", "bidegree_cross_check()", None),
    ("L4", "verify_all(512)", None),
    ("L4", "verify_all(24)", None),
    ("L4", "verify_all(24) warm", None),
    ("L5", "cli verify --samples 2000 (process wall)", ["verify", "--samples", "2000"]),
    ("L5", "cli index --model totally-real --n 4 --d 3 --tau-sq 2/7 (process wall)",
     ["index", "--model", "totally-real", "--n", "4", "--d", "3", "--tau-sq", "2/7"]),
    ("L5", "cli phase --n-max 8 --tau-sq-grid 1/7,3/17,2/9,5/12,8/13,29/31 --format json "
     "(process wall)",
     ["phase", "--n-max", "8", "--tau-sq-grid", "1/7,3/17,2/9,5/12,8/13,29/31",
      "--format", "json"]),
    ("L5", "cli tai-check --tau-sq 1/2 --n 3 --samples 2048 (process wall)",
     ["tai-check", "--tau-sq", "1/2", "--n", "3", "--samples", "2048"]),
    ("L5", "cli curvature-check --tau-sq 2/7 --n 3 --samples 1024 (process wall)",
     ["curvature-check", "--tau-sq", "2/7", "--n", "3", "--samples", "1024"]),
    ("L5", "cli curvature-check --tau-sq 2/7 --n 2 --samples 16 (process wall)",
     ["curvature-check", "--tau-sq", "2/7", "--n", "2", "--samples", "16"]),
    ("L5", "cli tai-check --tau-sq 2/7 --n 2 --samples 20 (process wall)",
     ["tai-check", "--tau-sq", "2/7", "--n", "2", "--samples", "20"]),
    ("L5", "cli index --model clifford --m1 3 --m2 3 --tau-sq 1/3 --kmax 64 (process wall)",
     ["index", "--model", "clifford", "--m1", "3", "--m2", "3", "--tau-sq", "1/3",
      "--kmax", "64"]),
    ("L5", "cli spectrum --space clifford --m1 3 --m2 3 --tau-sq 1/3 --kmax 64 "
     "(process wall)",
     ["spectrum", "--space", "clifford", "--m1", "3", "--m2", "3", "--tau-sq", "1/3",
      "--kmax", "64"]),
    ("L5", "cli spectrum --space clifford --m1 3 --m2 3 --tau-sq 1/3 --kmax 64 --format json "
     "(process wall)",
     ["spectrum", "--space", "clifford", "--m1", "3", "--m2", "3", "--tau-sq", "1/3",
      "--kmax", "64", "--format", "json"]),
    ("L5", "cli spectrum --space berger --n 2 --tau-sq 2/7 --kmax 8 (process wall)",
     ["spectrum", "--space", "berger", "--n", "2", "--tau-sq", "2/7", "--kmax", "8"]),
    ("L5", "cli moduli (process wall)", ["moduli"]),
    ("L5", "cli spectrum --space clifford --m1 0 --m2 0 --tau-sq 1/3 (process wall)",
     ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0", "--tau-sq", "1/3"]),
    ("L5", "python -c 'import bergersphere' (process wall)", ["-c", "import bergersphere"]),
    ("L5", "python -c 'import bergersphere.oracle' (process wall)",
     ["-c", "import bergersphere.oracle"]),
]

# Code run first in an L5 process: at exit it writes the peak resident set
# size of the process's own address space (VmHWM) to stderr.  ``ru_maxrss``
# of the reaped child cannot serve: it also counts the address space the
# child was forked from, this script with numpy loaded, so it never reads
# below about 35 MiB.
PEAK_HOOK = ("import atexit, sys\n"
             "atexit.register(lambda: sys.stderr.write(\n"
             "    [line for line in open('/proc/self/status') if line.startswith('VmHWM:')][0]))\n")
RUN_CLI = "import runpy\nrunpy.run_module('bergersphere.cli', run_name='__main__')\n"

# In-process cases whose child also reports the tracemalloc peak of one
# more call, in MiB.
TRACED_CASES = {"tai_checks(2/7, 16, 300)"}

# Command lines whose ``np.einsum`` calls are counted, once per tree.
EINSUM_COMMANDS = [
    ["verify", "--samples", "22"],
    ["curvature-check", "--tau-sq", "2/7", "--n", "2", "--samples", "16"],
    ["tai-check", "--tau-sq", "2/7", "--n", "2", "--samples", "20"],
]


def _time_in_process(case: str) -> list[float]:
    """One timed run of the in-process case named ``case``, in seconds;
    inputs are built before the clock starts.  A case of ``TRACED_CASES``
    then runs once more under ``tracemalloc`` and adds its peak in MiB."""
    from fractions import Fraction

    from bergersphere import cli, geometry, oracle, spectra, stability
    try:
        from bergersphere import sampled
    except ImportError:  # a tree whose oracle module still holds the sampled checks
        sampled = oracle
    from bergersphere.models import CliffordHypersurface, TotallyRealSphere

    phase_sizes = {"phase_rows(_phase_models(8), 6 random tau^2)": (8, 6),
                   "phase_rows(_phase_models(12), 10 random tau^2)": (12, 10)}
    if case in phase_sizes:
        n_max, size = phase_sizes[case]
        rng = np.random.default_rng(2024)
        grid = []
        while len(grid) < size:
            den = int(rng.integers(2, 65))
            value = Fraction(int(rng.integers(1, den + 1)), den)
            if value not in grid:
                grid.append(value)
        model_list = cli._phase_models(n_max)
        start = time.perf_counter()
        stability.phase_rows(model_list, grid)
        return [time.perf_counter() - start]
    if case in ("curvature-tensor-500", "curvature-six-orders-256"):
        rows = 500 if case == "curvature-tensor-500" else 256
        rng = np.random.default_rng(2024)
        z = rng.standard_normal((rows, 6))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        vecs = []
        for _ in range(4):
            u = rng.standard_normal((rows, 6))
            vecs.append(u - np.einsum("ij,ij->i", u, z)[:, None] * z)
        orders = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (1, 2, 0, 3),
                  (2, 0, 1, 3))
        start = time.perf_counter()
        if case == "curvature-tensor-500":
            geometry.curvature_tensor_rows(Fraction(1, 3), z, *vecs)
        elif hasattr(geometry, "curvature_orders_rows"):
            geometry.curvature_orders_rows(Fraction(1, 3), z, vecs, orders)
        else:
            for order in orders:
                geometry.curvature_tensor_rows(Fraction(1, 3), z, *(vecs[i] for i in order))
        return [time.perf_counter() - start]
    call = {
        "harmonic_dim_bruteforce(3, 3, 4)": lambda: oracle.harmonic_dim_bruteforce(3, 3, 4),
        "harmonic_dim_bruteforce(2, 1, 4)": lambda: oracle.harmonic_dim_bruteforce(2, 1, 4),
        "lxi_squared_spectrum(1, 1/3, 8)":
            lambda: oracle.lxi_squared_spectrum(1, Fraction(1, 3), 8),
        "lxi_squared_spectrum(1, 1/3, 7)":
            lambda: oracle.lxi_squared_spectrum(1, Fraction(1, 3), 7),
        "lxi_squared_spectrum(2, 1/3, 5)":
            lambda: oracle.lxi_squared_spectrum(2, Fraction(1, 3), 5),
        "lxi_squared_spectrum(3, 2/7, 4)":
            lambda: oracle.lxi_squared_spectrum(3, Fraction(2, 7), 4),
        "lxi_squared_spectrum(2, 1/3, 8)":
            lambda: oracle.lxi_squared_spectrum(2, Fraction(1, 3), 8),
        "lxi_squared_spectrum(3, 2/7, 6)":
            lambda: oracle.lxi_squared_spectrum(3, Fraction(2, 7), 6),
        "curvature_symmetry_check(1/3, 2, 500)":
            lambda: sampled.curvature_symmetry_check(Fraction(1, 3), 2, 500),
        "curvature_symmetry_check(2/7, 2, 16)":
            lambda: sampled.curvature_symmetry_check(Fraction(2, 7), 2, 16),
        "sectional_consistency_check(2/7, 3, 256)":
            lambda: sampled.sectional_consistency_check(Fraction(2, 7), 3, 256),
        "round_degeneration_check(3, 256)": lambda: sampled.round_degeneration_check(3, 256),
        "tai_checks(2/7, 2, 20)": lambda: sampled.tai_checks(Fraction(2, 7), 2, 20),
        "tai_checks(2/7, 1, 2048)": lambda: sampled.tai_checks(Fraction(2, 7), 1, 2048),
        "tai_checks(2/7, 16, 300)": lambda: sampled.tai_checks(Fraction(2, 7), 16, 300),
        "minimality_first_variation_check(CliffordHypersurface(0, 0), 1/3, 2)":
            lambda: sampled.minimality_first_variation_check(CliffordHypersurface(0, 0),
                                                            Fraction(1, 3), 2),
        "minimality_first_variation_check(TotallyRealSphere(2, 2), 1/2, 1)":
            lambda: sampled.minimality_first_variation_check(TotallyRealSphere(2, 2),
                                                            Fraction(1, 2), 1),
        "torus_fourier_index(1/3, 4)": lambda: oracle.torus_fourier_index(Fraction(1, 3), 4),
        "berger_modes(4, 2/7, 8)": lambda: spectra.berger_modes(4, Fraction(2, 7), 8),
        "clifford_modes(1, 2, 2/7, 6)": lambda: spectra.clifford_modes(1, 2, Fraction(2, 7), 6),
        "clifford_modes(3, 3, 1/3, 64)":
            lambda: spectra.clifford_modes(3, 3, Fraction(1, 3), 64),
        "CliffordHypersurface(3, 3).table(64)": lambda: CliffordHypersurface(3, 3).table(64),
        "tai_checks(1/2, 2, 50)": lambda: sampled.tai_checks(Fraction(1, 2), 2, 50),
        "bidegree_cross_check()": oracle.bidegree_cross_check,
        "verify_all(512)": lambda: sampled.verify_all(512),
        "verify_all(24)": lambda: sampled.verify_all(24),
    }[case.removesuffix(" warm")]
    if case.endswith(" warm"):
        call()
    start = time.perf_counter()
    call()
    result = [time.perf_counter() - start]
    if case in TRACED_CASES:
        tracemalloc.start()
        call()
        result.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
        tracemalloc.stop()
    return result


def _count_einsum(argv: list[str]) -> int:
    """``np.einsum`` calls of one in-process CLI invocation."""
    calls = 0
    einsum = np.einsum

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return einsum(*args, **kwargs)

    np.einsum = counting
    try:
        from bergersphere import cli
        cli.main(argv, out=io.StringIO())
    finally:
        np.einsum = einsum
    return calls


def tree_env(src: Path) -> dict:
    """Environment of a fresh interpreter that imports the package from
    ``src``: one BLAS thread, no ``BERGER_SEED``."""
    env = {k: v for k, v in os.environ.items() if k != "BERGER_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _one_run(name: str, command, env: dict) -> tuple[float, Optional[float]]:
    """Seconds of one run and, for a command line, the peak RSS of its
    process in MiB (for a case of ``TRACED_CASES``, its traced peak).  A
    command line is the arguments of ``bergersphere.cli``, or ``-c`` and the
    code to run in its place."""
    if command is not None:
        code, args = (command[1], command[2:]) if command[0] == "-c" else (RUN_CLI, command)
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", PEAK_HOOK + code, *args], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                             check=True)
        elapsed = time.perf_counter() - start
        return elapsed, int(out.stderr.rsplit("VmHWM:", 1)[1].split()[0]) / 1024
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", name],
                         env=env, capture_output=True, text=True, check=True)
    values = [float(value) for value in out.stdout.strip().splitlines()[-1].split()]
    return values[0], (values[1] if len(values) > 1 else None)


def _one_einsum_count(command, env: dict) -> int:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child-einsum",
                          *command], env=env, capture_output=True, text=True, check=True)
    return int(out.stdout.strip().splitlines()[-1])


def _median_iqr(values) -> tuple[float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(med), float(q3 - q1)


def _summary(times: list[float]) -> dict:
    med, iqr = _median_iqr(times)
    return {"median_s": med, "iqr_s": iqr, "repeats": len(times)}


def _paired(before: list[float], after: list[float]) -> dict:
    diff = np.subtract(after, before)
    med, iqr = _median_iqr(diff)
    return {"pairs": len(diff), "after_wins": int(np.sum(diff < 0)),
            "diff_median_s": med, "diff_iqr_s": iqr}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract_src(sha: str, dest: str) -> Path:
    """The ``src`` tree of commit ``sha``, extracted under ``dest``."""
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return Path(dest) / "src"


def copy_working_src(dest: Path) -> Path:
    """The working tree's ``src``, copied under ``dest`` without bytecode."""
    return Path(shutil.copytree(ROOT / "src", dest / "src",
                                ignore=shutil.ignore_patterns("__pycache__")))


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="git rev of the tree to compare against")
    parser.add_argument("--out", default="-", help="output JSON file, - for stdout")
    parser.add_argument("--only", action="append",
                        help="run only the cases whose name contains this text (repeatable)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-einsum", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(*_time_in_process(args.child))
        return 0
    if args.child_einsum:
        print(_count_einsum(args.child_einsum))
        return 0
    if not args.before:
        parser.error("--before is required")
    before_sha = git("rev-parse", args.before)
    with tempfile.TemporaryDirectory() as tmp:
        before_src = extract_src(before_sha, tmp)
        after_src = copy_working_src(Path(tmp) / "after")
        after_digest = _src_digest(after_src)
        cases = []
        envs = {"before": tree_env(before_src), "after": tree_env(after_src)}
        einsum_calls = []
        for command in EINSUM_COMMANDS:
            counts = {tree: _one_einsum_count(command, envs[tree]) for tree in envs}
            einsum_calls.append({"command": " ".join(command), **counts})
            print(f"einsum calls of {' '.join(command)}: {counts['before']} -> "
                  f"{counts['after']}", file=sys.stderr)
        for layer, name, command in CASES:
            if args.only and not any(text in name for text in args.only):
                continue
            times = {"before": [], "after": []}
            rss = {"before": [], "after": []}
            for i in range(PAIRS):
                for tree in ("before", "after") if i % 2 == 0 else ("after", "before"):
                    seconds, peak = _one_run(name, command, envs[tree])
                    times[tree].append(seconds)
                    rss[tree].append(peak)
            before, after = _summary(times["before"]), _summary(times["after"])
            paired = _paired(times["before"], times["after"])
            case = {"layer": layer, "case": name, "before": before, "after": after,
                    "speedup": before["median_s"] / after["median_s"], "paired": paired}
            if command is not None or name in TRACED_CASES:
                key = "peak_rss_mb" if command is not None else "traced_peak_mib"
                case[key] = {tree: dict(zip(("median", "iqr"), _median_iqr(rss[tree])))
                             for tree in rss}
            cases.append(case)
            print(f"{layer} {name}: {before['median_s']:.4f} s -> {after['median_s']:.4f} s, "
                  f"after won {paired['after_wins']}/{paired['pairs']} pairs, "
                  f"diff median {paired['diff_median_s']:+.4f} s", file=sys.stderr)
    result = {
        "command": " ".join(["python3 bench/layers.py", "--before", args.before, "--out", args.out,
                             *(f"--only {shlex.quote(text)}" for text in args.only or ())]),
        "before": {"git_sha": before_sha},
        "after": {"git_sha": git("rev-parse", "HEAD"),
                  "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
                  "src_sha256": after_digest},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cases": cases,
        "einsum_calls": einsum_calls,
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
