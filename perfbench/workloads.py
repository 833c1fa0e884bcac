"""Seeded operation streams for the three benchmark workloads.

Every operation is drawn from a ``random.Random`` seeded by the benchmark's
``--seed``; the program under test only ever sees the generated arguments.

The seed decides the values: exact ``tau^2`` draws, per-op check seeds,
output formats, model parameters and the order of operations.  The amount
of work is kept nearly independent of the seed, so that two runs of the
same program agree:

* a stream is a sequence of rounds of ``ROUND[workload]`` operations with a
  fixed mix of commands (on exact-oracles, one pass over the large sizes),
  and a run ends on a round boundary;
* commands, sizes and parameters come in fixed-composition blocks whose
  order is shuffled per block;
* ``--samples`` follows the Weyl sequence ``frac(1/2 + k * golden)`` pushed
  through the log-uniform inverse CDF, the same for every seed, so any
  prefix covers the log range evenly;
* the large exact-oracle sizes are walked in a fixed order, one pass per
  round;
* ``tau^2`` mixes a threshold pool, walked in a seeded order so that every
  threshold and its neighbours appear, with random rationals.  On
  sampled-verify and exact-oracles every other draw comes from the pool and
  the random denominators go up to 64.  On exact-tables only one draw in
  ``TABLES_POOL_EVERY`` comes from the pool and the random denominators go
  up to ``TABLES_MAX_DEN``: a ``phase`` operation evaluates about a hundred
  models at each grid point, so pool values there would repeat the same
  (model, tau^2) pairs across operations, and a cache across operations
  would be timed instead of the program.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

WORKLOADS = ("sampled-verify", "exact-tables", "exact-oracles")

GOLDEN = (math.sqrt(5) - 1) / 2

# Upper ends of the log-uniform --samples draws, per sampled command.  They
# differ so that the largest operation of each command costs about the same
# (about 1.5 s on the seed code).  A verify cap in the thousands would make
# one verify cost several seconds, so a 25-second run would hold too few
# operations for a steady op_p90_s.
SAMPLE_CAPS = {"verify": 512, "curvature-check": 1024, "tai-check": 2048}

# One block of sampled-verify commands; every block is a shuffled copy.
SAMPLED_BLOCK = ("verify", "curvature-check", "tai-check", "tai-check")

# One block of exact-tables commands (bad-input operations are interleaved
# separately, one every BAD_INPUT_EVERY operations).
TABLES_BLOCK = ("index", "index", "index", "spectrum", "spectrum", "phase", "phase", "moduli")
BAD_INPUT_EVERY = 25

# exact-tables tau^2 draws: one in TABLES_POOL_EVERY from the threshold pool
# (25 values), the rest random with denominators up to TABLES_MAX_DEN,
# so that (model, tau^2) pairs hardly repeat across operations.
TABLES_POOL_EVERY = 16
TABLES_MAX_DEN = 1024

MODELS = ("tg-berger", "circle", "veronese-rp3", "veronese-s3", "totally-real", "clifford")
FORMATS = ("table", "csv", "json")

# exact-oracles sizes within the oracles' default cap of 8.  One operation
# in five is drawn from the large tier, which holds the sizes whose exact
# elimination runs from about 0.05 s to about 1 s on the seed code, so the
# top tenth of operations is the upper half of that tier.
ORACLE_SMALL = (
    [("harmonic", (n, a, t - a)) for n in (1, 2) for t in range(2, 9) for a in range(1, t // 2 + 1)
     if not (n == 2 and t >= 7)]
    + [("harmonic", (3, a, t - a)) for t in range(2, 6) for a in range(1, t // 2 + 1)]
    + [("lxi", (n, k)) for n in range(0, 4) for k in range(1, 9)
       if (n == 0) or (n == 1 and k <= 5) or (n >= 2 and k <= 3)]
    + [("torus", ())] * 6
)
ORACLE_LARGE = (   # walked in this order, larger and smaller sizes alternating
    ("harmonic", (3, 3, 4)), ("lxi", (2, 4)), ("lxi", (1, 8)), ("harmonic", (2, 3, 5)),
    ("harmonic", (3, 2, 5)), ("harmonic", (2, 4, 4)), ("lxi", (2, 5)), ("lxi", (1, 6)),
    ("lxi", (1, 7)), ("harmonic", (3, 2, 4)), ("lxi", (3, 4)), ("harmonic", (3, 1, 7)),
    ("harmonic", (3, 3, 3)),
)
LARGE_EVERY = 5

# Operations per round; a run stops only at the end of a round.
ROUND = {
    "sampled-verify": len(SAMPLED_BLOCK),
    "exact-tables": BAD_INPUT_EVERY,
    "exact-oracles": LARGE_EVERY * len(ORACLE_LARGE),
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``argv`` is set for operations that go through ``cli.main``; ``call``
    names an ``oracle`` function and ``args`` its positional arguments for
    direct library calls.  ``expect_rc`` is the exit code the gate demands.
    """

    index: int
    kind: str
    argv: Optional[tuple[str, ...]] = None
    call: Optional[str] = None
    args: tuple = ()
    expect_rc: int = 0

    def describe(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        return f"oracle.{self.call}({', '.join(str(a) for a in self.args)})"


def threshold_pool(n_max: int = 8) -> list[Fraction]:
    """The table thresholds 1/(2m+2), 1/(2n+1), 1/(d+1), 1/4, 1/8 and 1,
    with their neighbours at the same denominator, all inside (0, 1]."""
    base = {Fraction(1, 4), Fraction(1, 8), Fraction(1)}
    for k in range(n_max):
        base.add(Fraction(1, 2 * k + 2))
    for k in range(1, n_max + 1):
        base.add(Fraction(1, 2 * k + 1))
        base.add(Fraction(1, k + 1))
    pool = set()
    for t in base:
        for num in (t.numerator - 1, t.numerator, t.numerator + 1):
            value = Fraction(num, t.denominator)
            if 0 < value <= 1:
                pool.add(value)
    return sorted(pool)


class TauDraw:
    """Exact tau^2 draws: one in ``pool_every`` from the threshold-pool walk,
    the others random rationals with denominators up to ``max_den``."""

    def __init__(self, rng: random.Random, below_one: bool = False,
                 pool_every: int = 2, max_den: int = 64):
        self.rng = rng
        self.pool = [t for t in threshold_pool() if not (below_one and t == 1)]
        self.below_one = below_one
        self.pool_every = pool_every
        self.max_den = max_den
        self.order: list[Fraction] = []
        self.count = 0

    def __call__(self) -> Fraction:
        self.count += 1
        if self.count % self.pool_every == 1:
            if not self.order:
                self.order = self.pool[:]
                self.rng.shuffle(self.order)
            return self.order.pop()
        den = self.rng.randint(2, self.max_den)
        top = den - 1 if self.below_one else den
        return Fraction(self.rng.randint(1, top), den)


def log_uniform_samples(cap: int) -> Iterator[int]:
    """Low-discrepancy log-uniform integers on [1, cap]."""
    u = 0.5
    while True:
        u = (u + GOLDEN) % 1.0
        yield max(1, min(cap, int(math.exp(u * math.log(cap + 1)))))


def _blocks(rng: random.Random, block) -> Iterator:
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# sampled-verify
# ---------------------------------------------------------------------------


def sampled_verify(seed: int) -> Iterator[Op]:
    rng = random.Random(f"sampled-verify/{seed}")
    tau = TauDraw(rng, below_one=True)
    samples = {cmd: log_uniform_samples(cap) for cmd, cap in SAMPLE_CAPS.items()}
    dims = {cmd: itertools.cycle((1, 2, 3)) for cmd in SAMPLE_CAPS}
    for i, cmd in enumerate(_blocks(rng, SAMPLED_BLOCK)):
        argv = [cmd]
        if cmd != "verify":
            argv += ["--tau-sq", str(tau()), "--n", str(next(dims[cmd]))]
        argv += ["--samples", str(next(samples[cmd])), "--seed", str(rng.randrange(2 ** 31)),
                 "--format", rng.choice(("table", "json"))]
        yield Op(i, cmd, argv=tuple(argv))


# ---------------------------------------------------------------------------
# exact-tables
# ---------------------------------------------------------------------------


class Balanced:
    """Seeded draws from fixed value lists, in shuffled blocks, so that every
    prefix of a stream holds each value about equally often."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.iters: dict[str, Iterator] = {}

    def __call__(self, key: str, values):
        if key not in self.iters:
            self.iters[key] = _blocks(self.rng, values)
        return next(self.iters[key])


MODEL_PARAMS = {
    "tg-berger": [("--n", n, "--m", m) for n in range(1, 7) for m in range(n)],
    "circle": [("--n", n, "--s", s) for n in range(1, 7) for s in range(1, 5)],
    "totally-real": [("--n", n, "--d", d) for n in range(1, 7) for d in range(1, n + 1)],
    "clifford": [("--m1", a, "--m2", b) for a in range(5) for b in range(5)],
    "veronese-rp3": [()],
    "veronese-s3": [()],
}
BERGER_SPECTRA = [(n, k) for n in range(5) for k in range(1, 9)]
CLIFFORD_SPECTRA = [(a, b, k) for a in range(4) for b in range(4) for k in ("low", 1, 2, 3, 4, 5, 6)]


def _table_op(pick: Balanced, i: int, cmd: str, tau: TauDraw) -> Op:
    if cmd == "index":
        model = pick("model", MODELS)
        params = [str(x) for x in pick(model, MODEL_PARAMS[model])]
        argv = ["index", "--model", model, *params, "--tau-sq", str(tau())]
    elif cmd == "spectrum":
        if pick("space", ("berger", "clifford")) == "berger":
            n, kmax = pick("berger", BERGER_SPECTRA)
            argv = ["spectrum", "--space", "berger", "--n", str(n), "--kmax", str(kmax)]
        else:
            m1, m2, kmax = pick("clifford-spectrum", CLIFFORD_SPECTRA)
            argv = ["spectrum", "--space", "clifford", "--m1", str(m1), "--m2", str(m2)]
            argv += ["--low"] if kmax == "low" else ["--kmax", str(kmax)]
        argv += ["--tau-sq", str(tau())]
    elif cmd == "phase":
        grid = sorted({tau() for _ in range(pick("grid", range(2, 7)))})
        argv = ["phase", "--n-max", str(pick("n-max", range(2, 9))),
                "--tau-sq-grid", ",".join(str(t) for t in grid)]
    else:
        lo, hi = tau(), tau()
        while lo == hi:
            hi = tau()
        lo, hi = min(lo, hi), max(lo, hi)
        argv = ["moduli", "--samples", str(pick("moduli", range(2, 66))),
                "--tau-sq-min", str(lo), "--tau-sq-max", str(hi)]
    return Op(i, cmd, argv=tuple(argv + ["--format", pick(cmd + "-format", FORMATS)]))


# Documented bad input; every one of these must end in exit code 2.
def _bad_inputs(rng: random.Random):
    float_tau = rng.choice(("0.25", "0.3", "1e-1", "0.125"))
    outside = rng.choice(("3/2", "0", "7/5", "2"))
    neg = str(-rng.randint(1, 4))
    return [
        ("float-tau", ["index", "--model", "veronese-rp3", "--tau-sq", float_tau]),
        ("float-tau", ["spectrum", "--space", "berger", "--n", "1", "--tau-sq", float_tau]),
        ("float-tau", ["phase", "--n-max", "2", "--tau-sq-grid", f"1/3,{float_tau}"]),
        ("float-tau", ["moduli", "--tau-sq-min", float_tau]),
        ("tau-outside", ["index", "--model", "clifford", "--m1", "0", "--m2", "1",
                         "--tau-sq", outside]),
        ("tau-outside", ["spectrum", "--space", "clifford", "--m1", "0", "--m2", "0",
                         "--tau-sq", outside]),
        ("tau-outside", ["phase", "--n-max", "2", "--tau-sq-grid", f"1/4,{outside}"]),
        ("negative-n", ["index", "--model", "clifford", "--m1", neg, "--m2", "0",
                        "--tau-sq", "1/3"]),
        ("negative-n", ["index", "--model", "tg-berger", "--n", neg, "--m", "0",
                        "--tau-sq", "1/3"]),
        ("negative-n", ["index", "--model", "circle", "--n", neg, "--s", "2", "--tau-sq", "1/3"]),
        ("missing-param", ["index", "--model", "tg-berger", "--n", "2", "--tau-sq", "1/3"]),
        ("missing-param", ["index", "--model", "circle", "--s", "2", "--tau-sq", "1/3"]),
        ("missing-param", ["index", "--model", "totally-real", "--n", "2", "--tau-sq", "1/3"]),
        ("missing-param", ["index", "--model", "clifford", "--m1", "0", "--tau-sq", "1/3"]),
        ("missing-param", ["spectrum", "--space", "berger", "--tau-sq", "1/3"]),
        ("missing-param", ["spectrum", "--space", "clifford", "--m1", "1", "--tau-sq", "1/3"]),
    ]


# Bad input that the seed program does not reject: a negative n or m1 on
# ``spectrum`` raises a raw ValueError instead of exiting with code 2
# (ROADMAP item 5).  A workload must hold no failing operation, so these are
# kept out of the timed stream and run once per run, untimed, in the
# bad-input probe, which reports each failure.
def _spectrum_sign_inputs(neg: str):
    return [
        ("negative-n", ["spectrum", "--space", "berger", "--n", neg, "--tau-sq", "1/3"]),
        ("negative-n", ["spectrum", "--space", "clifford", "--m1", neg, "--m2", "0",
                        "--tau-sq", "1/3"]),
    ]


def bad_input_probe(seed: int) -> list[Op]:
    """Every documented bad input once, for the untimed probe of exact-tables."""
    rng = random.Random(f"bad-input-probe/{seed}")
    items = _bad_inputs(rng) + _spectrum_sign_inputs(str(-rng.randint(1, 4)))
    return [Op(-1 - i, "bad-input:" + kind, argv=tuple(argv), expect_rc=2)
            for i, (kind, argv) in enumerate(items)]


def exact_tables(seed: int) -> Iterator[Op]:
    rng = random.Random(f"exact-tables/{seed}")
    tau = TauDraw(rng, pool_every=TABLES_POOL_EVERY, max_den=TABLES_MAX_DEN)
    pick = Balanced(rng)
    bad: list = []
    for i in itertools.count():
        if i % BAD_INPUT_EVERY == BAD_INPUT_EVERY - 1:
            if not bad:
                bad = _bad_inputs(rng)
                rng.shuffle(bad)
            kind, argv = bad.pop()
            yield Op(i, "bad-input:" + kind, argv=tuple(argv), expect_rc=2)
        else:
            yield _table_op(pick, i, pick("command", TABLES_BLOCK), tau)


# ---------------------------------------------------------------------------
# exact-oracles
# ---------------------------------------------------------------------------


def _oracle_op(rng: random.Random, i: int, item, tau: TauDraw) -> Op:
    kind, size = item
    if kind == "harmonic":
        n, a, b = size
        if rng.random() < 0.5:
            a, b = b, a
        return Op(i, "harmonic", call="harmonic_dim_bruteforce", args=(n, a, b))
    if kind == "lxi":
        n, k = size
        return Op(i, "lxi", call="lxi_squared_spectrum", args=(n, tau(), k))
    return Op(i, "torus", call="torus_fourier_index", args=(tau(), 4))


def exact_oracles(seed: int) -> Iterator[Op]:
    rng = random.Random(f"exact-oracles/{seed}")
    tau = TauDraw(rng)
    small = _blocks(rng, ORACLE_SMALL)
    large = itertools.cycle(ORACLE_LARGE)
    for i in itertools.count():
        item = next(large) if i % LARGE_EVERY == LARGE_EVERY - 1 else next(small)
        yield _oracle_op(rng, i, item, tau)


def stream(workload: str, seed: int) -> Iterator[Op]:
    return {"sampled-verify": sampled_verify, "exact-tables": exact_tables,
            "exact-oracles": exact_oracles}[workload](seed)
