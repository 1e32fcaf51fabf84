"""The one-parameter family f(a,b,c) = sum_i C(a,i) C(b,c-i) t^i over F_p.

Everything the stratum computations need from these polynomials comes
down to a handful of exact laws: where the roots at 0 and 1 sit, how to
strip them off, when two members share a factor, and a divided-power
derivative D_{p^k} for valuation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisNotMet, ParamOutOfRange
from .ff import FpMultiPoly, FpUniPoly, PrimeField, is_prime_u64


@dataclass(frozen=True)
class FabcParams:
    a: int
    b: int
    c: int
    p: int

    def __post_init__(self):
        if self.p < 3 or not is_prime_u64(self.p):
            raise ParamOutOfRange(f"p must be an odd prime: got {self.p}")
        if not (0 <= self.a < self.p and 0 <= self.b < self.p):
            raise ParamOutOfRange(f"need 0 <= a,b < p: got a={self.a}, b={self.b}, p={self.p}")
        if not 0 <= self.c <= self.a + self.b:
            raise ParamOutOfRange(f"need 0 <= c <= a+b: got c={self.c}, a+b={self.a + self.b}")


def fabc(params: FabcParams) -> FpUniPoly:
    """C(a,i) C(b,c-i) = a! b! / (i! (a-i)! (c-i)! (b-c+i)!) from factorial
    tables: every index is at most max(a, b) < p, so all are units mod p."""
    a, b, c, p = params.a, params.b, params.c, params.p
    field = PrimeField(p)
    lo = max(0, c - b)
    hi = min(a, c)
    top = max(a, b)
    fact = [1] * (top + 1)
    for n in range(1, top + 1):
        fact[n] = fact[n - 1] * n % p
    inv_fact = [1] * (top + 1)
    inv_fact[top] = pow(fact[top], p - 2, p)
    for n in range(top, 0, -1):
        inv_fact[n - 1] = inv_fact[n] * n % p
    scale = fact[a] * fact[b] % p
    coeffs = [0] * lo + [
        scale * inv_fact[i] * inv_fact[a - i] % p * inv_fact[c - i] * inv_fact[b - c + i] % p
        for i in range(lo, hi + 1)
    ]
    return FpUniPoly(field, coeffs)


def fabc_profile(params: FabcParams) -> tuple:
    """(degree, v_t, v_{t-1}) by the closed forms, without building the
    polynomial."""
    a, b, c, p = params.a, params.b, params.c, params.p
    deg = min(a, c)
    vt = max(0, c - b)
    if a + b - (p - 1) <= c <= p - 1 < a + b:
        vt1 = a + b - (p - 1)
    else:
        vt1 = 0
    return deg, vt, vt1


@dataclass(frozen=True)
class StripResult:
    """fabc(original) = sign * t^t_power * (t-1)^t1_power * fabc(reduced),
    with the reduced polynomial nonvanishing at 0 and 1."""

    sign: int
    t_power: int
    t1_power: int
    reduced: FabcParams


def strip(params: FabcParams) -> StripResult:
    """Pull the roots at 0 and 1 out of f(a,b,c).

    Two exact identities do the work, applied in this order:
      t-step (when c > b):    f(a,b,c) = t^(c-b) f(b,a,a+b-c)
      1-step (when a+b > p-1): f(a,b,c) = (-1)^(a+c) (t-1)^(a+b-p+1)
                                          f(c-(a+b)+(p-1), p-1-c, p-1-b)
    The t-step leaves c <= b, which the 1-step preserves, so one pass of
    each suffices."""
    a, b, c, p = params.a, params.b, params.c, params.p
    sign = 1
    s1 = 0
    if c > b:
        s1 = c - b
        a, b, c = b, a, a + b - c
    s2 = 0
    v = a + b - (p - 1)
    if v > 0 and v <= c <= p - 1:
        if (a + c) % 2 == 1:
            sign = -sign
        s2 = v
        a, b, c = c - v, p - 1 - c, p - 1 - b
    return StripResult(sign=sign, t_power=s1, t1_power=s2, reduced=FabcParams(a, b, c, p))


def coprime_shift(params: FabcParams) -> tuple:
    """gcd(f(a,b,c), f(a,b,c-1)) under the hypotheses that force it to be
    1; returns (is_coprime, gcd) so callers can audit."""
    a, b, c, p = params.a, params.b, params.c, params.p
    if not (a > 0 and b > 0 and c > 0):
        raise HypothesisNotMet("need a, b, c > 0")
    if not (a <= p - 1 and b <= p - 1):
        raise HypothesisNotMet("need a, b <= p-1")
    if c > b:
        raise HypothesisNotMet("need c <= b")
    if not (a + b <= p - 1 or c <= a + b - p + 1):
        raise HypothesisNotMet("need a+b <= p-1 or c <= a+b-p+1")
    g = fabc(params).gcd(fabc(FabcParams(a, b, c - 1, p)))
    return g.degree == 0, g


def separable_away_from_01(f: FpUniPoly) -> bool:
    """True iff f has only simple roots outside {0, 1}."""
    if f.is_zero:
        raise ParamOutOfRange("zero polynomial")
    f = f.strip_root(0)[1].strip_root(1)[1]
    if f.degree == 0:
        return True
    return f.gcd(f.derivative()).degree == 0


def proportionality_obstruction(p1: FabcParams, p2: FabcParams) -> bool:
    """Cheap necessary conditions for f(p1) to be a constant multiple of
    f(p2).  False certifies they are not proportional; True means the
    test is inconclusive."""
    if p1.p != p2.p:
        raise HypothesisNotMet("parameters live over different primes")
    p = p1.p
    if min(p1.a, p1.b, p1.c, p1.a + p1.b - p1.c) < 3:
        raise HypothesisNotMet("need min{a1, b1, c1, a1+b1-c1} >= 3")
    if p1.a + p1.b != p2.a + p2.b:
        return False
    left = sorted((p1.a % p, p1.c % p, (p2.c - p2.b - 1) % p))
    right = sorted((p2.a % p, p2.c % p, (p1.c - p1.b - 1) % p))
    if left != right:
        return False
    return True


def Dpk(f: FpUniPoly, k: int) -> FpUniPoly:
    """Divided-power derivative: sum_i floor(i/p^k) a_i t^(i-p^k).

    k=0 gives the usual derivative's cousin with step 1 (i.e. D_1)."""
    if k < 0:
        raise ParamOutOfRange("k must be >= 0")
    q = f.field.p**k
    return FpUniPoly._from_terms(f.field, {i - q: (i // q) * c for i, c in f.terms if i >= q})


def Dpk_multi(f: FpMultiPoly, k: int, var: int) -> FpMultiPoly:
    """Dpk acting on one variable of a multivariate polynomial, the other
    variables riding along as coefficients."""
    if k < 0:
        raise ParamOutOfRange("k must be >= 0")
    p = f.field.p
    q = p**k
    out: dict = {}
    for exps, coeff in f.terms.items():
        i = exps[var]
        if i < q:
            continue
        c = (i // q) % p * coeff % p
        if not c:
            continue
        e = list(exps)
        e[var] = i - q
        key = tuple(e)
        out[key] = (out.get(key, 0) + c) % p
    return FpMultiPoly(f.field, f.r, out)
