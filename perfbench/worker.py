"""One benchmark worker: a single client running a closed loop in-process.

Spawned by ``run.py`` as a fresh process, from the root of a source
checkout.  It imports the package from ``src``, draws its operations from
the seeded stream and prints a ``ready <monotonic time>`` line once the
first operation is ready, so the parent can time set-up from the spawn.

Untraced (``--trace 0``): between operations, outside the timed region, a
reference kernel tracks the machine's speed, and latencies are scaled to
its nominal speed (see ``speed.py``).  Operations run one after another
until their summed scaled latency reaches ``--seconds``, at least
``MIN_OPS`` have run and the current round of the stream is complete (see
``workloads.ROUND``), so that a run holds about the same operations however
fast the machine is at the time.

Traced (``--trace 1``): the first ``TRACE_OPS[workload]`` operations run
once untraced and once under the tracer; the traced outputs must equal the
untraced ones, and the per-layer metrics come from the traced pass.  The
spans go to ``perfbench/out/spans-<workload>.npz``.

Every output is gated outside the timed region, and only a small record of
each operation is kept, so that the worker's memory and garbage-collection
work do not grow with the run.  On exact-tables, every documented bad input
then runs once more, untimed, in the bad-input probe (see
``workloads.bad_input_probe``).  The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from bergersphere import cli, oracle  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedTrack  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_OPS = 100

# Operations replayed by a traced run.  Fixed per workload, so that per-layer
# counts of the same seed repeat exactly and compare across program versions.
TRACE_OPS = {"sampled-verify": 48, "exact-tables": 600, "exact-oracles": 300}


def execute(op) -> gate.Outcome:
    """Run one operation; returns what it produced.  This is the timed part."""
    if op.argv is None:
        try:
            return gate.Outcome(value=getattr(oracle, op.call)(*op.args))
        except Exception as exc:  # a raising op is a failed op, not a crash
            return gate.Outcome(error=f"{type(exc).__name__}: {exc}")
    out = io.StringIO()
    try:
        rc = cli.main(list(op.argv), out)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        return gate.Outcome(stdout=out.getvalue(), error=f"{type(exc).__name__}: {exc}")
    return gate.Outcome(rc=rc, stdout=out.getvalue())


def timed(op, tracer=None) -> tuple[float, gate.Outcome]:
    stderr, sys.stderr = sys.stderr, io.StringIO()
    try:
        if tracer is not None:
            tracer.op_id = op.index
            tracer.on = True
        t0 = time.perf_counter()
        outcome = execute(op)
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.on = False
        sys.stderr = stderr
    return dt, outcome


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass on each
    ((i-1)/n, i/n].  It varies less from run to run than the single order
    statistic ``statistics.quantiles`` interpolates, because one noisy
    operation near the quantile moves it less."""
    x = np.sort(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(64 * n) + 0.5) / (64 * n)   # midpoints, 64 per order statistic
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, 64).sum(axis=1)
    return float(mass @ x / mass.sum())


def fingerprint(outcome: gate.Outcome) -> str:
    return hashlib.sha1(outcome.fingerprint().encode()).hexdigest()


class Loop:
    """Closed loop: the next op starts only after the previous one returned
    and was gated.  Keeps latencies, failures and output fingerprints, and,
    given a ``SpeedTrack``, the start of each op and kernel samples between
    ops."""

    def __init__(self, check, speed: SpeedTrack = None):
        self.check = check
        self.speed = speed
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.busy = 0.0
        self.nominal_busy = 0.0
        self.failures: list[dict] = []
        self.prints: list[str] = []
        self.self_test = None

    def step(self, op) -> None:
        self.starts.append(time.perf_counter())
        dt, outcome = timed(op)
        self.latencies.append(dt)
        self.busy += dt
        self.prints.append(fingerprint(outcome))
        reason = self.check(op, outcome)
        if reason is not None:
            self.fail(op, reason)
        elif self.self_test is None:
            # Feed the gate a tampered copy of a passing result: it must fail it.
            bad = gate.tamper(op, outcome)
            if bad is not None:
                self.self_test = self.check(op, bad) is not None
        if self.speed is not None:
            self.speed.top_up(self.busy)
            self.nominal_busy += dt * self.speed.recent_scale()

    def fail(self, op, reason: str) -> None:
        self.failures.append({"op": op.index, "kind": op.kind, "call": op.describe(),
                              "reason": reason})

    def summary(self) -> dict:
        """Counts and latency statistics; with a ``SpeedTrack`` the latencies
        are scaled to nominal speed and the raw figures go under ``raw``."""
        raw = self.latencies
        out = {
            "attempted": len(raw),
            "passed": len(raw) - len(self.failures),
            "failures": self.failures,
            "self_test": bool(self.self_test),
        }
        stats = lambda lat: {"timed_s": float(sum(lat)), "p50_s": hd_quantile(lat, 0.5),  # noqa: E731
                             "p90_s": hd_quantile(lat, 0.9)}
        if self.speed is None:
            return {**out, **stats(raw)}
        scale = self.speed.scale(self.starts, raw)
        return {**out, **stats(list(np.asarray(raw) * scale)), "raw": stats(raw),
                "speed_scale": {"min": float(scale.min()), "median": float(np.median(scale)),
                                "max": float(scale.max())},
                "kernel_median_s": float(np.median(self.speed.took))}


def traced_replay(ops, loop: Loop, spans: Path) -> dict:
    """Replay ``ops`` under the tracer; returns the per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = [timed(op, tracer) for op in ops]
    finally:
        tracer.uninstall()
    for op, (_, outcome), plain in zip(ops, traced, loop.prints):
        if fingerprint(outcome) != plain:
            loop.fail(op, "traced output differs from untraced")
    traced_s = sum(dt for dt, _ in traced)
    layer = tracer.metrics()
    layer["bench.tracing_overhead_ratio"] = traced_s / loop.busy
    layer["bench.traced_wall_s"] = traced_s
    layer["bench.ops"] = len(ops)
    tracer.save(spans)
    return layer


def bad_input_probe(workload: str, seed: int) -> list[dict]:
    """Failures of the untimed bad-input probe; none outside exact-tables."""
    if workload != "exact-tables":
        return []
    probe = Loop(gate.check_tables)
    for op in workloads.bad_input_probe(seed):
        probe.step(op)
    return probe.failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    stream = workloads.stream(args.workload, args.seed)
    first = next(stream)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(gate.CHECKS[args.workload], SpeedTrack() if args.trace == 0 else None)
    ops = itertools.chain([first], stream)
    result = {"workload": args.workload, "seed": args.seed}
    if args.trace == 0:
        round_ops = workloads.ROUND[args.workload]
        for op in ops:
            loop.step(op)
            done = len(loop.latencies)
            if loop.nominal_busy >= args.seconds and done >= MIN_OPS and done % round_ops == 0:
                break
        for _ in range(10):   # samples after the last operation
            loop.speed.sample()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        replay = list(itertools.islice(ops, TRACE_OPS[args.workload]))
        for op in replay:
            loop.step(op)
        spans = HERE / "out" / f"spans-{args.workload}.npz"
        result["layer"] = traced_replay(replay, loop, spans)
    result["probe_failures"] = bad_input_probe(args.workload, args.seed)
    if args.trace:
        result["layer"]["cli.bad_input_raises"] = sum(
            f["reason"].startswith("raised ") for f in result["probe_failures"])
    result.update(loop.summary())
    result["latencies"] = loop.latencies
    if loop.speed is not None:
        result.update(starts=loop.starts, kernel_at=loop.speed.at, kernel_took=loop.speed.took)
    result["env"] = {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "nproc": os.cpu_count(),
                     "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
