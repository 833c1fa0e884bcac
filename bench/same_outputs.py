"""Check that the sampled and table commands print the same output before and after a change.

    python3 bench/same_outputs.py --before <git rev>

The source tree of ``<git rev>`` is extracted with ``git archive`` into a
temporary directory; the "after" tree is the working tree.  Every invocation
of a fixed corpus runs once per tree, each in a fresh interpreter whose
``PYTHONPATH`` is the tree's ``src``, with BLAS threads set to 1 and
``BERGER_SEED`` removed.  The corpus:

* ``verify`` in table and json format at seeds 1, 7, 12345 and 0x5EED, at the
  default sample count and at ``--samples`` 1, 22, 43, 64, 512 and 2048 (1 and
  512 bound the sampled-verify benchmark's sample range, 22 is near its
  median, 2048 spans eight full batches);
* ``tai-check --samples 700`` and ``curvature-check --samples 300``, json, for
  n = 1..4 and tau^2 in {1/3, 2/7, 1/2};
* ``tai-check`` and ``curvature-check`` at ``--samples`` 1, 16, 42, 43 and 257,
  json, for n = 1..3 and tau^2 in {1/3, 2/7, 1/2}.  These straddle a full
  256-row batch and its sixth, 42 rows;
* ``tai-check`` and ``curvature-check`` at ``--samples`` 1, 43 and 257, json,
  at n = 16 (``oracle.N_LIMIT``) and tau^2 = 1/1000, where rounding is
  largest;
* ``BOUNDARY_SAMPLES``: ``curvature-check``, ``tai-check`` and ``verify``,
  json, tau^2 = 2/7, at the sample counts on both sides of every batch and
  direction-group boundary of ``oracle.CALL_BYTES`` at n = 1, 2, 3 and 16
  (``verify`` runs at n = 2);
* ``spectrum`` in every format at tau^2 in {1/3, 2/7, 1}: ``--space berger``
  for n in {0, 1, 4} and ``--space clifford`` for (m1, m2) in {(0, 0),
  (1, 2), (3, 3)}, at the default depth, ``--kmax`` 0, 4 and 8 and, for
  Clifford, ``--low``; and at ``--kmax 64`` in every format at tau^2 = 2/7;
* ``spectrum --format json --kmax 64`` at tau^2 = 1/3 for ``--space berger
  --n 4`` and ``--space clifford --m1 3 --m2 3``;
* ``index`` for the same Clifford models at ``--kmax`` 8, 32 and 64 and
  tau^2 in {1/(2n+1), 2/7, 1}, and at ``--kmax 64`` in json.  A depth-64
  Clifford table takes seconds on a tree that counts each frequency per
  label;
* ``phase`` in every format at ``--n-max`` 1, 2, 3, 8 and 12, each on the
  default grid, on a grid of every threshold of those models (1/k for
  2 <= k <= 25, and 1) and on three random grids of six values with
  denominators up to 1000, drawn from ``random.Random`` seeds 1, 2 and 3;
* ``moduli`` in every format at the default range and at ``--tau-sq-min 1/7
  --tau-sq-max 5/6 --samples 65``.

The exit code and stdout must be byte-identical.  Each invocation that
differs is printed; the exit status is 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import ROOT, extract_src, git, tree_env


# Sample counts around the batch and group boundaries of a 128 KiB call
# budget, per command and n.  curvature-check: one and two batches of five
# vectors of S^{2n+1}.  tai-check: the isometry batch (two steps of (n+1)^2
# complex entries per row), half of it (both pushes in one call), the
# probe's batch of half that (samples = 5 x its sff rows, and 5 more), and
# the sff rows up to which all of a probe batch's 2n + 6 directions, or its
# 2n pushes, share one call.  verify (n = 2): one and two batches of five
# vectors, and the 455-row metric-definiteness batch (samples / 4).
BOUNDARY_SAMPLES = {
    ("curvature-check", 1): (818, 819, 820, 1638, 1639),
    ("curvature-check", 2): (545, 546, 547, 1092, 1093),
    ("curvature-check", 3): (408, 409, 410, 818, 819),
    ("curvature-check", 16): (95, 96, 97, 192, 193),
    ("tai-check", 1): (512, 513, 640, 645, 1023, 1024, 1025, 2564, 2565),
    ("tai-check", 2): (227, 228, 229, 230, 454, 455, 456, 569, 570, 1139, 1140),
    ("tai-check", 3): (109, 110, 128, 129, 214, 215, 255, 256, 257, 644, 645),
    ("tai-check", 16): (7, 8, 13, 14, 15, 74, 75),
    ("verify", 2): (545, 546, 547, 1092, 1093, 1823, 1824),
}


def corpus() -> list[list[str]]:
    argvs = [["verify", "--format", fmt, "--seed", seed, *samples]
             for fmt in ("table", "json") for seed in ("1", "7", "12345", "0x5EED")
             for samples in ([], *(["--samples", n]
                                   for n in ("1", "22", "43", "64", "512", "2048")))]
    for cmd, samples in (("tai-check", "700"), ("curvature-check", "300")):
        argvs += [[cmd, "--tau-sq", tau_sq, "--n", str(n), "--samples", samples,
                   "--format", "json"]
                  for n in range(1, 5) for tau_sq in ("1/3", "2/7", "1/2")]
    argvs += [[cmd, "--tau-sq", tau_sq, "--n", str(n), "--samples", samples, "--format", "json"]
              for cmd in ("tai-check", "curvature-check")
              for samples in ("1", "16", "42", "43", "257")
              for n in range(1, 4) for tau_sq in ("1/3", "2/7", "1/2")]
    argvs += [[cmd, "--tau-sq", "1/1000", "--n", "16", "--samples", samples, "--format", "json"]
              for cmd in ("tai-check", "curvature-check") for samples in ("1", "43", "257")]
    for (cmd, n), counts in BOUNDARY_SAMPLES.items():
        args = ["--seed", "1"] if cmd == "verify" else ["--tau-sq", "2/7", "--n", str(n)]
        argvs += [[cmd, *args, "--samples", str(samples), "--format", "json"]
                  for samples in counts]
    spaces = [["--space", "berger", "--n", n] for n in ("0", "1", "4")]
    pairs = ((0, 0), (1, 2), (3, 3))
    spaces += [["--space", "clifford", "--m1", str(m1), "--m2", str(m2)] for m1, m2 in pairs]
    for space in spaces:
        depths = ([], ["--kmax", "0"], ["--kmax", "4"], ["--kmax", "8"])
        if "clifford" in space:
            depths += (["--low"],)
        argvs += [["spectrum", *space, "--tau-sq", tau_sq, *depth, "--format", fmt]
                  for tau_sq in ("1/3", "2/7", "1") for depth in depths
                  for fmt in ("table", "csv", "json")]
        argvs += [["spectrum", *space, "--tau-sq", "2/7", "--kmax", "64", "--format", fmt]
                  for fmt in ("table", "csv", "json")]
    for m1, m2 in pairs:
        model = ["index", "--model", "clifford", "--m1", str(m1), "--m2", str(m2)]
        threshold = f"1/{2 * (m1 + m2 + 1) + 1}"
        argvs += [[*model, "--tau-sq", tau_sq, "--kmax", kmax]
                  for kmax in ("8", "32", "64") for tau_sq in (threshold, "2/7", "1")]
        argvs.append([*model, "--tau-sq", threshold, "--kmax", "64", "--format", "json"])
    argvs += [["spectrum", *space, "--tau-sq", "1/3", "--kmax", "64", "--format", "json"]
              for space in (["--space", "berger", "--n", "4"],
                            ["--space", "clifford", "--m1", "3", "--m2", "3"])]
    grids = [[], ["--tau-sq-grid", ",".join([f"1/{k}" for k in range(25, 1, -1)] + ["1"])]]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        values = []
        for _ in range(6):
            den = rng.randint(1, 1000)
            values.append(f"{rng.randint(1, den)}/{den}")
        grids.append(["--tau-sq-grid", ",".join(values)])
    argvs += [["phase", "--n-max", n_max, *grid, "--format", fmt]
              for n_max in ("1", "2", "3", "8", "12") for grid in grids
              for fmt in ("table", "csv", "json")]
    argvs += [["moduli", *bounds, "--format", fmt]
              for bounds in ([], ["--tau-sq-min", "1/7", "--tau-sq-max", "5/6", "--samples", "65"])
              for fmt in ("table", "csv", "json")]
    return argvs


def _run(argv: list[str], env: dict) -> tuple[int, str]:
    out = subprocess.run([sys.executable, "-m", "bergersphere.cli", *argv], env=env,
                         capture_output=True, text=True, check=False)
    return out.returncode, out.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="git rev of the tree to compare against")
    args = parser.parse_args(argv)
    before_sha = git("rev-parse", args.before)
    differ = 0
    argvs = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        before, after = tree_env(extract_src(before_sha, tmp)), tree_env(ROOT / "src")
        for cmd in argvs:
            if _run(cmd, before) != _run(cmd, after):
                differ += 1
                print("differs: " + " ".join(cmd))
    print(f"{differ} of {len(argvs)} invocations differ from {args.before} ({before_sha[:12]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
