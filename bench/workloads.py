"""The four workloads: their inputs, their operations and their checks.

Every operation calls a public entry point of the package: three
workloads run ``cyclocover.cli.main(argv)`` in-process and capture its
output; ``divisor-multiplicity`` calls
``cyclocover.hassewitt.h0_divisor_multiplicity``, which no subcommand
exposes.  Names are looked up on the module at call time, so a traced
pass sees the wrappers the tracer installed.

A run makes ``--seconds // round_seconds`` rounds (at least two) of the
same operations; ``round_seconds`` is a round's length on the reference
machine (2 vCPUs, Python 3.11.7).  A round is timed in slices of
``slice_ops`` operations, with the reference kernel timed between slices.
The inputs are fixed.  The seed drives the ``witness --seed`` of each
round and which inputs the slower checks recompute.
"""

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from cyclocover import cli, hassewitt
from cyclocover.ff import is_prime_u64
from cyclocover.hassewitt import OrbitContext
from cyclocover.monodromy import MonodromyDatum, signature

M7 = "7:4:3,1,1,2"
M7_LABELS = (3, 1, 1, 2)
WITNESS_DMAX = 4


@dataclass
class CliResult:
    status: int
    out: str
    err: str


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return CliResult(status, out.getvalue(), err.getvalue())


@dataclass
class Op:
    """One invocation; it fails if it raises or exits non-zero."""

    label: str
    call: Callable

    def run(self):
        result = self.call()
        if isinstance(result, CliResult) and result.status != 0:
            raise RuntimeError(f"exit {result.status}: {result.err.strip()}")
        return result


def primes_in(m, classes, lo, hi):
    return [p for p in range(lo, hi + 1) if p % m in classes and is_prime_u64(p)]


class SurveyBalanced:
    """census of M7 at the first 100 primes p = 1 mod 7 into a fresh
    cache, then the survey that replays them from it."""

    name = "survey-balanced"
    round_seconds = 12
    slice_ops = 1
    expected_basic = 32

    def __init__(self, seed):
        self.primes = []
        n = 1
        while len(self.primes) < 100:
            n += 7
            if is_prime_u64(n):
                self.primes.append(n)
        rng = random.Random(seed)
        self.sample = sorted(rng.sample([p for p in self.primes if p <= 1500], 3))

    def ops(self, cache_dir, round_no):
        common = ["-o", "json", "--cache-dir", cache_dir]
        ops = [Op(f"census p={p}", lambda a=["census", M7, "-p", str(p)] + common: run_cli(a))
               for p in self.primes]
        argv = ["survey", M7, "--class", "1", "--count", "100"] + common
        ops.append(Op("survey", lambda: run_cli(argv)))
        return ops

    def check(self, results):
        import checks

        errors = checks.check_closed_form_oracle(self.primes[0])
        return errors + checks.check_survey(
            self.primes, [r.out for r in results[:-1]], results[-1].out,
            self.sample, self.expected_basic,
        )


class CensusLongOrbit:
    """census of M7 at the primes p = 3, 4 mod 7 in [31, 179]: twisted
    two-step chains of degree up to ~4,800."""

    name = "census-long-orbit"
    round_seconds = 8
    slice_ops = 1

    def __init__(self, seed):
        self.primes = primes_in(7, (3, 4), 31, 179)

    def ops(self, cache_dir, round_no):
        return [Op(f"census p={p}", lambda a=["census", M7, "-p", str(p), "-o", "json"]: run_cli(a))
                for p in self.primes]

    def check(self, results):
        import checks

        sig = signature(MonodromyDatum(7, 4, M7_LABELS))
        base = 7 - min(c for c in range(1, 7) if sig[c] == 1)
        expected = checks.load_golden()
        expected[31] = checks.nu_certificate_oracle(7, M7_LABELS, 31, base)
        return checks.check_long_orbit(self.primes, [r.out for r in results], expected)


class WitnessFactor:
    """witness of M7 at the primes p = +-1 mod 7 in [29, 400], base
    characters 4 and 5, dmax 4.  Each round passes its own --seed, drawn
    from the benchmark seed: the equal-degree split is randomized, and
    one op's time moves up to 6x between seeds, so the run takes each
    op's median over several rounds."""

    name = "witness-factor"
    round_seconds = 3
    slice_ops = 1

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(64)]
        self.cases = [(p, b0) for p in primes_in(7, (1, 6), 29, 400) for b0 in (4, 5)]

    def ops(self, cache_dir, round_no):
        return [
            Op(f"witness p={p} b0={b0}",
               lambda a=["witness", M7, "-p", str(p), "--b0", str(b0), "--dmax", str(WITNESS_DMAX),
                         "--seed", str(self.seeds[round_no]), "-o", "json"]: run_cli(a))
            for p, b0 in self.cases
        ]

    def check(self, results):
        import checks

        return checks.check_witness(self.cases, [r.out for r in results], WITNESS_DMAX)


class DivisorMultiplicity:
    """h0_divisor_multiplicity over the six label pairs of every sixth
    chain with l <= 2 of the four-point M5 and M7 data at p = 11 and 13
    (the small primes where such chains exist for both m).  The whole
    sweep takes 15-21 s; a sixth of it makes rounds short enough that a
    run holds eight."""

    name = "divisor-multiplicity"
    round_seconds = 3
    slice_ops = 48  # the six label pairs of eight chains, ~0.1 s
    primes = (11, 13)
    chain_stride = 6
    sample_size = 40

    def __init__(self, seed):
        self.cases = []
        self.contexts = []
        chains = 0
        for m in (5, 7):
            for labels in itertools.product(range(1, m), repeat=4):
                if sum(labels) % m:
                    continue
                datum = MonodromyDatum(m, 4, labels)
                sig = signature(datum)
                for p in self.primes:
                    if p == m:
                        continue
                    for base in range(1, m):
                        if math.gcd(base, m) != 1 or sig[m - base] != 1:
                            continue
                        ctx = OrbitContext(datum, p, base)
                        if ctx.l > 2:
                            continue
                        chains += 1
                        if (chains - 1) % self.chain_stride:
                            continue
                        for j1, j2 in itertools.combinations(range(1, 5), 2):
                            self.contexts.append(ctx)
                            self.cases.append((m, labels, p, base, j1, j2))
        rng = random.Random(seed)
        self.sample = sorted(rng.sample(range(len(self.cases)), self.sample_size))

    def ops(self, cache_dir, round_no):
        return [
            Op(f"multiplicity {i}",
               lambda ctx=ctx, j=case[4:]: hassewitt.h0_divisor_multiplicity(ctx, *j))
            for i, (ctx, case) in enumerate(zip(self.contexts, self.cases))
        ]

    def check(self, results):
        import checks

        return checks.check_divisor(self.cases, results, self.sample)


WORKLOADS = {w.name: w for w in (SurveyBalanced, CensusLongOrbit, WitnessFactor, DivisorMultiplicity)}
