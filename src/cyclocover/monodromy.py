"""Monodromy data for cyclic covers of the projective line.

A datum (m, r, a) fixes a degree-m cyclic cover branched over r points,
with inertia generators a(1), ..., a(r) in Z/m.  Everything downstream
(signatures, Frobenius orbits, Hasse-Witt matrices) starts here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InternalError,
    InvalidInput,
    NotAdmissible,
    NotGenerating,
    ParamOutOfRange,
    PDividesM,
    QuotientDegenerate,
    SumNonzero,
    ZeroLabel,
)


@dataclass(frozen=True)
class MonodromyDatum:
    m: int
    r: int
    a: tuple

    def __post_init__(self):
        if self.m < 2:
            raise ParamOutOfRange(f"degree m must be >= 2: got {self.m}")
        if self.r < 3:
            raise ParamOutOfRange(f"branch count r must be >= 3: got {self.r}")
        if len(self.a) != self.r:
            raise InvalidInput(f"expected {self.r} inertia labels, got {len(self.a)}")
        for x in self.a:
            if not isinstance(x, int) or x % self.m == 0:
                raise ZeroLabel(f"label {x} is 0 mod {self.m}")
            if not 1 <= x <= self.m - 1:
                raise ZeroLabel(f"label {x} outside [1, {self.m - 1}]")
        if math.gcd(self.m, *self.a) != 1:
            raise NotGenerating(f"labels {self.a} do not generate Z/{self.m}")
        if sum(self.a) % self.m != 0:
            raise SumNonzero(f"labels {self.a} sum to {sum(self.a)} != 0 mod {self.m}")

    def to_text(self) -> str:
        return f"{self.m}:{self.r}:{','.join(str(x) for x in self.a)}"

    def to_json(self) -> dict:
        return {"m": self.m, "r": self.r, "a": list(self.a)}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _datum_from_json(text: str) -> MonodromyDatum:
    """The object form {"m": int, "r": int, "a": [int, ...]} that to_json
    writes, and nothing looser."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InvalidInput(f"bad datum JSON: {e}") from None
    if not isinstance(obj, dict) or sorted(obj) != ["a", "m", "r"]:
        raise InvalidInput(f"datum JSON needs exactly the keys m, r and a: got {text!r}")
    m, r, a = obj["m"], obj["r"], obj["a"]
    if not (_is_int(m) and _is_int(r)):
        raise InvalidInput(f"datum m and r must be integers: got {text!r}")
    if not (isinstance(a, list) and all(_is_int(x) for x in a)):
        raise InvalidInput(f"datum labels a must be a list of integers: got {text!r}")
    return MonodromyDatum(m, r, tuple(a))


def parse_datum(text: str) -> MonodromyDatum:
    """Parse 'm:r:a1,a2,...,ar' or the JSON object form."""
    text = text.strip()
    if text.startswith("{"):
        return _datum_from_json(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInput(f"datum must look like m:r:a1,...,ar: got {text!r}")
    try:
        m = int(parts[0])
        r = int(parts[1])
        a = tuple(int(x) for x in parts[2].split(","))
    except ValueError as e:
        raise InvalidInput(f"bad datum literal {text!r}") from e
    return MonodromyDatum(m, r, a)


def canonicalize(d: MonodromyDatum) -> MonodromyDatum:
    """Least representative of the (unit x permutation) orbit.

    Sorting kills the permutation action, so it is enough to scan units."""
    best = None
    for u in range(1, d.m):
        if math.gcd(u, d.m) != 1:
            continue
        cand = tuple(sorted(u * x % d.m for x in d.a))
        if best is None or cand < best:
            best = cand
    return MonodromyDatum(d.m, d.r, best)


def equivalent(d1: MonodromyDatum, d2: MonodromyDatum) -> bool:
    return d1.m == d2.m and canonicalize(d1) == canonicalize(d2)


@functools.lru_cache(maxsize=1024)
def signature(d: MonodromyDatum) -> tuple:
    """f indexed by i = 0..m-1; f(0) = 0.

    f(i) = -1 + sum_k <i*a(k)/m>, with fractional parts done as exact
    integer arithmetic: the residue sum is divisible by m because the
    labels sum to 0 mod m.  Cached, as every OrbitContext of a datum
    asks for it again."""
    m = d.m
    f = [0] * m
    for i in range(1, m):
        s = sum(i * ak % m for ak in d.a)
        if s % m:
            raise InternalError(f"residue sum {s} at index {i} is not divisible by m = {m}")
        f[i] = s // m - 1
    return tuple(f)


def genus(d: MonodromyDatum) -> int:
    """Riemann-Hurwitz for the cyclic cover: 2g - 2 = -2m + sum(m - gcd(a(i), m))."""
    ram = sum(d.m - math.gcd(ak, d.m) for ak in d.a)
    two_g = 2 - 2 * d.m + ram
    if two_g % 2 or two_g < 0:
        raise InternalError(f"Riemann-Hurwitz gives 2g = {two_g} for {d.to_text()}")
    return two_g // 2


@dataclass(frozen=True)
class FrobeniusOrbit:
    """Orbit of multiplication by p on Z/m - {0}: [i, pi, p^2 i, ...]."""

    members: tuple
    l: int
    gO: Optional[int] = None


def frobenius_orbits(m: int, p: int, sig: Optional[tuple] = None) -> list:
    """Partition of {1..m-1} under multiplication by p, orbits keyed by
    least member.  With a signature, each orbit carries gO = f(i)+f(m-i),
    constant along the orbit."""
    if m < 2:
        raise ParamOutOfRange(f"degree m must be >= 2: got {m}")
    if p % m == 0 or math.gcd(p, m) != 1:
        raise PDividesM(f"p={p} shares a factor with m={m}")
    seen = [False] * m
    orbits = []
    for start in range(1, m):
        if seen[start]:
            continue
        members = []
        c = start
        while not seen[c]:
            seen[c] = True
            members.append(c)
            c = c * p % m
        gO = None
        if sig is not None:
            gO = sig[start] + sig[m - start]
        orbits.append(FrobeniusOrbit(tuple(members), len(members), gO))
    return orbits


def quotient_datum(d: MonodromyDatum, m1: int) -> MonodromyDatum:
    """Push the datum down to the degree-m1 quotient cover: reduce labels
    mod m1 and drop the ones that die."""
    if m1 < 2 or d.m % m1 != 0:
        raise ParamOutOfRange(f"m1={m1} must be a divisor >= 2 of m={d.m}")
    labels = tuple(ak % m1 for ak in d.a if ak % m1 != 0)
    if len(labels) < 3:
        raise QuotientDegenerate(
            f"only {len(labels)} labels survive reduction mod {m1}"
        )
    return MonodromyDatum(m1, len(labels), labels)


def find_tau_signature_one(d: MonodromyDatum, sig: Optional[tuple] = None) -> Optional[int]:
    """Smallest i with f(m-i) = 1 and f(i) + f(m-i) >= 2, if any."""
    if sig is None:
        sig = signature(d)
    for i in range(1, d.m):
        if sig[d.m - i] == 1 and sig[i] + sig[d.m - i] >= 2:
            return i
    return None


def hypothesis_cases(d: MonodromyDatum) -> set:
    """Which of the three structural clauses the datum satisfies:
    (1) r in {4, 5};
    (2) sum of labels in {m, 2m, (r-2)m, (r-1)m};
    (3) some proper divisor m1 >= 2 of m divides exactly r-4 or r-5 labels."""
    out = set()
    if d.r in (4, 5):
        out.add(1)
    if sum(d.a) in {d.m, 2 * d.m, (d.r - 2) * d.m, (d.r - 1) * d.m}:
        out.add(2)
    for m1 in range(2, d.m):
        if d.m % m1 != 0:
            continue
        count = sum(1 for ak in d.a if ak % m1 == 0)
        if count in (d.r - 4, d.r - 5):
            out.add(3)
            break
    return out


def clutch(d1: MonodromyDatum, d2: MonodromyDatum) -> tuple:
    """Glue two data along the last label of d1 and the first of d2.

    Admissible when a1(r1) + a2(1) = 0 mod m; returns the joined datum of
    length r1 + r2 - 2 together with eps = gcd(a1(r1), m) - 1."""
    if d1.m != d2.m:
        raise NotAdmissible(f"degrees differ: {d1.m} vs {d2.m}")
    if (d1.a[-1] + d2.a[0]) % d1.m != 0:
        raise NotAdmissible(
            f"labels {d1.a[-1]} and {d2.a[0]} do not sum to 0 mod {d1.m}"
        )
    a3 = d1.a[:-1] + d2.a[1:]
    eps = math.gcd(d1.a[-1], d1.m) - 1
    return MonodromyDatum(d1.m, d1.r + d2.r - 2, a3), eps
