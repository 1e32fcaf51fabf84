"""Benchmark of cyclocover, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
wall_ref, peak_rss_mb); with ``--trace 1`` the run makes its untraced
rounds and then one traced pass, and reports the per-layer metrics and
the tracing overhead.  Result and span files go to ``bench/out``.  See
README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def seconds_since_process_start():
    """Wall time since this process was started, from /proc (Linux)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


@dataclass
class Pass:
    """One pass over a round's operations.  A failed operation's record is
    None.  The operations run in slices of ``slice_ops``; ``slice_s`` holds
    each slice's wall time and ``kernel_s`` the reference kernel's time
    (``reference.gauge``), once before the first slice and once after
    each."""

    records: list
    failed: int
    slice_s: list
    kernel_s: list

    @property
    def wall(self):
        return sum(self.slice_s)

    def gauges(self):
        """For each slice, the median of the four kernel times nearest it
        (two before, two after): one kernel time alone jitters by more
        than the host's drift."""
        k = self.kernel_s
        return [statistics.median(k[max(0, s - 1):s + 3]) for s in range(len(self.slice_s))]


def run_ops(ops, slice_ops):
    """Run each operation once, in order, timing it in slices of
    ``slice_ops`` operations, with the reference kernel timed between
    slices."""
    records, failed, slice_s, kernel_s = [], 0, [], [reference.gauge(0)]
    for first in range(0, len(ops), slice_ops):
        start = time.perf_counter()
        for op in ops[first:first + slice_ops]:
            try:
                record = op.run()
            except Exception as exc:  # an operation's failure is counted, not fatal
                record = None
                failed += 1
                print(f"{op.label}: failed: {exc!r}", file=sys.stderr)
            records.append(record)
        slice_s.append(time.perf_counter() - start)
        kernel_s.append(reference.gauge(slice_s[-1]))
    return Pass(records, failed, slice_s, kernel_s)


def wall_ref(passes):
    """One round's wall time in multiples of the reference kernel's time:
    each slice's wall time over the kernel's at the same moment, its
    median over the rounds, summed over the slices.  The host's speed
    drifts over tens of seconds (the ratio cancels it) and dips for a few
    seconds at a time (the median over the rounds passes them over)."""
    ratios = ([t / g for t, g in zip(p.slice_s, p.gauges())] for p in passes)
    return sum(map(statistics.median, zip(*ratios)))


def outputs(records):
    return [getattr(r, "out", r) for r in records]


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    if not (ROOT / "src" / "cyclocover" / "__init__.py").is_file():
        print(f"error: no cyclocover source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the program reads these; the workloads define their own cache use
    os.environ.pop("CYCLOCOVER_CACHE_DIR", None)
    os.environ.pop("CYCLOCOVER_WORKERS", None)
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # at least two rounds, so that every slice has a second timing
    rounds = max(2, args.seconds // workload.round_seconds)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        round_ops = [workload.ops(os.path.join(scratch, f"round{k}"), k) for k in range(rounds)]
        # the traced pass repeats the last round, so it runs warm like the others
        traced_ops = workload.ops(os.path.join(scratch, "traced"), rounds - 1) if args.trace else None
        setup_s = seconds_since_process_start()

        results = [run_ops(ops, workload.slice_ops) for ops in round_ops]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_ops(traced_ops, workload.slice_ops)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(scratch)

    records = results[0].records
    if results[0].failed:
        errors = ["operations failed, so the outputs were not checked"]
    else:
        errors = workload.check(records)
    passes = results + ([traced] if args.trace else [])
    for k, res in enumerate(passes[1:], 2):
        if outputs(res.records) != outputs(records):
            errors.append(f"pass {k} printed other outputs than pass 1")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    attempted = sum(len(res.records) for res in passes)
    failed = sum(res.failed for res in passes)
    if args.trace:
        overhead = 100 * (wall_ref([traced]) / wall_ref(results[-1:]) - 1)
        metrics = tracer.metrics(overhead)
        tracer.write(OUT / f"spans-{args.workload}.txt.gz")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": wall_ref(results), "unit": "kernels"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        walls = ", ".join(f"{res.wall:.2f}" for res in results)
        typical = sum(map(statistics.median, zip(*(res.slice_s for res in results))))
        print(f"round walls (s): {walls}; median slices summed: {typical:.2f}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
