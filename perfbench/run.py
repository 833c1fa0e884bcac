"""Benchmark entry point: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it imports the package from
``src``).  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced replay.  The
line before it records the environment; ``perfbench/out/`` receives the full
result, with every failed operation, and the span file of traced runs.

Set-up time is the time from spawning a worker until its first operation
is ready (package import plus input generation).  It is measured on
``SETUP_PROBES`` extra workers that stop there, half of them spawned before
the measuring worker and half after it, plus the measuring worker, and
reported as the median.  Like the latencies, each set-up time is scaled to
the nominal machine speed, from reference-kernel runs made in this process
right before the spawn and, for the extra workers, right after it (see
``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BERGER_SEED", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run one worker; returns (set-up seconds, stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {timeout} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    if not ready:
        raise BenchError("worker never reported ready")
    return float(ready[0].split()[1]) - t0, lines


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """Run one workload and return the full result with its metrics."""
    if not (root / "src" / "bergersphere" / "__init__.py").is_file():
        raise BenchError(f"no package source under {root / 'src'}; run from a checkout root")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def probes(count: int) -> list[float]:
        setups = []
        for _ in range(count):
            before = speed.scale_now()
            setup = spawn(base + ["--setup-only"], 60)[0]
            setups.append(setup * (before + speed.scale_now()) / 2)
        return setups

    for _ in range(speed.WARMUP):
        speed.kernel()
    probes_before = probes(SETUP_PROBES // 2) if trace == 0 else []
    before = speed.scale_now()
    setup, lines = spawn(base + ["--trace", str(trace)], WORKER_TIMEOUT_S)
    setups = probes_before + [setup * before]
    if trace == 0:
        setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    res = json.loads(lines[-1])
    res["setup_samples_s"] = setups
    failed = len(res["failures"])
    if trace == 0:
        values = {
            "ops_per_s": res["passed"] / res["timed_s"],
            "op_p50_s": res["p50_s"],
            "op_p90_s": res["p90_s"],
            "ok_ratio": 1 - failed / res["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    else:
        values = res["layer"]
    # BENCHMARK.json names every reported metric with its unit.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    wrong = [f for f in res["failures"] + res["probe_failures"]
             if not f["reason"].startswith("raised ")]
    res.update({
        "correct": res["self_test"] and not wrong,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
        "seconds": seconds,
    })
    res["env"]["git_sha"] = git_sha(root)
    (out_dir / f"result-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, args.trace, Path.cwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for f in res["failures"]:
        print(f"failed op {f['op']} [{f['kind']}]: {f['call']} -> {f['reason']}", file=sys.stderr)
    for f in res["probe_failures"]:
        print(f"bad-input probe [{f['kind']}]: {f['call']} -> {f['reason']}", file=sys.stderr)
    print("# env " + json.dumps(res["env"]))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
