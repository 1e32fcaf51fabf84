"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 45 % over tens of seconds (contention for shared cache and memory,
which also slows CPU time).  The kernel does the kind of work the program
does most, a schoolbook division of two dense coefficient lists mod p in
pure Python, on inputs that never change and code that is not the
program's.  Timed right next to each slice of the workload, it turns that
slice's wall time into a multiple of the kernel's time at the same moment.
The prime is above 256, so that coefficients are heap objects as in most
of the workloads.  Tried against a smaller prime and against lists four
times as long, this one tracked the host best: on 10-12 repeats of the
same rounds the spread (interquartile range over median) of the ratio was
0.035 on witness-factor and 0.055 on census-long-orbit, against 0.094 and
0.077 for the wall time itself.
"""

import random
import statistics
import time

P = 4621
_rng = random.Random(20240613)
_NUM = [_rng.randrange(P) for _ in range(851)]
_DEN = [_rng.randrange(1, P) for _ in range(800)]


def _divide(num, den, p):
    rem = list(num)
    dd = len(den) - 1
    inv = pow(den[-1], -1, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * inv % p
        if c:
            off = i - dd
            for j in range(dd):
                rem[off + j] = (rem[off + j] - c * den[j]) % p
    return rem[:dd]


def time_kernel():
    """Wall seconds of one run of the kernel (a few ms)."""
    start = time.perf_counter()
    _divide(_NUM, _DEN, P)
    return time.perf_counter() - start


def gauge(after_s):
    """The median kernel time over 1 + after_s / 0.25 runs, at most 8.
    ``after_s`` is the length of the slice just timed: a long slice gets
    more runs, so its reading weighs less on a single jittery one while
    the runs stay a few per cent of the slice."""
    runs = min(8, 1 + int(after_s / 0.25))
    return statistics.median(time_kernel() for _ in range(runs))
