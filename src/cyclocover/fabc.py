"""The one-parameter family f(a,b,c) = sum_i C(a,i) C(b,c-i) t^i over F_p.

Everything the stratum computations need from these polynomials comes
down to a handful of exact laws: where the roots at 0 and 1 sit, how to
strip them off, when two members share a factor, the gcd of two
symmetric members f(a,a,c) at half the degree (Kummer's quadratic
transformation, fabc_gcd), and a divided-power derivative D_{p^k} for
valuation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisNotMet, InvalidInput, ParamOutOfRange
from .ff import (
    FpUniPoly,
    PrimeField,
    is_prime_u64,
    poly_powmod,
    _distinct_degree,
    _least_in_block,
    _pack,
    _reduce_slots,
    _slot_layout,
    _unpack,
)


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


def _ratio_run(nums, dens, p: int, start: int = 1, start_den: int = 1) -> list:
    """[u_0, ..., u_n] with u_0 = start / start_den and
    u_(i+1) = u_i nums[i] / dens[i] mod p, start_den and every dens[i] a
    unit.  u_i = start N_i / D_i with N_i and D_i the prefix products
    (D_0 = start_den); one pow inverts D_n, and walking back,
    1 / D_(i-1) = dens[i-1] / D_i gives every other inverse."""
    out, num, den = [start], start, start_den
    for x, y in zip(nums, dens):
        num = num * x % p
        den = den * y % p
        out.append(num)
    inv = pow(den, p - 2, p)
    for i in range(len(out) - 1, 0, -1):
        out[i] = out[i] * inv % p
        inv = inv * dens[i - 1] % p
    out[0] = out[0] * inv % p
    return out


def fabc(params: FabcParams, monic: bool = False) -> FpUniPoly:
    """f(a,b,c), or f(a,b,c) over its leading coefficient when monic, from
    the ratios of consecutive terms, in time linear in its c + 1 or fewer
    coefficients.

    The terms u_i = C(a,i) C(b,c-i) are nonzero exactly for
    lo = max(0, c-b) <= i <= hi = min(a, c), where
        u_(i+1) / u_i = (a-i)(c-i) / ((i+1)(b-c+i+1))   (lo <= i < hi).
    Every factor there is a unit: as lo <= i < hi, 1 <= a-i <= a and
    1 <= i+1 <= a (hi <= a), 1 <= c-i <= b and 1 <= b-c+i+1 <= b
    (c-b <= i < c), all below p.  So over F_p every u_i is a unit,
    deg f = hi, and _ratio_run takes the run with one pow.
    The run starts from the leading term u_hi = C(a,hi) C(b,c-hi), or
    from 1 for the monic polynomial, so no pass divides by it, and goes
    down by the reciprocal ratios, the same units.  u_hi enters the run
    as a product over a product, C(n,k) = n (n-1) ... (n-k+1) / k! with
    k <= n < p (k read as min(k, n-k)), so k! is a unit and the run's one
    pow inverts it too.
      * Symmetry.  When a = b, u_i = C(a,i) C(a,c-i) = u_(c-i), and
        lo + hi = c, so u_lo = u_hi: the run goes up from u_lo, only
        lo <= i <= c // 2 is built, and the rest is the same run read
        backwards."""
    a, b, c, p = params.a, params.b, params.c, params.p
    lo, hi = max(0, c - b), min(a, c)
    num = den = 1
    if not monic:
        for n, k in ((a, hi), (b, c - hi)):
            for i in range(min(k, n - k)):
                num = num * (n - i) % p
                den = den * (i + 1) % p
    if a == b:
        steps = range(lo, c // 2)
        half = _ratio_run([(a - i) * (c - i) for i in steps], [(i + 1) * (b - c + i + 1) for i in steps], p, num, den)
        body = half + half[: c - c // 2 - lo][::-1]
    else:
        steps = range(hi - 1, lo - 1, -1)
        body = _ratio_run([(i + 1) * (b - c + i + 1) for i in steps], [(a - i) * (c - i) for i in steps], p, num, den)[::-1]
    return FpUniPoly._raw(PrimeField(p), [0] * lo + body)


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


def _kummer_coeffs(a: int, c: int, p: int) -> list:
    """r_0, ..., r_D (D = c // 2) of fabc_gcd's docstring, for c <= a < p:
    r_0 = 1 and r_(j+1) = r_j (c - 2j)(c - 2j - 1) / ((j + 1)(a - c + j + 1))."""
    steps = range(c // 2)
    return _ratio_run([(c - 2 * j) * (c - 2 * j - 1) for j in steps], [(j + 1) * (a - c + j + 1) for j in steps], p)


def _homogenize(g, p: int) -> list:
    """Coefficients of sum_k g_k t^k (1 + t)^(2(n - 1 - k)), n = len(g).

    Divide and conquer over binomial rows: for a block of 2h coefficients,
    H(g_0..g_{2h-1}) = (1 + t)^(2h) H(g_0..g_{h-1}) + t^h H(g_h..g_{2h-1}).
    g is padded in front to N = 2^L coefficients, which multiplies H by
    t^(N - n), and the L levels run bottom up on one Kronecker-packed
    integer.  At level l, block i holds H of 2^l coefficients in
    2^(l+1) - 1 slots from slot i 2^(l+1).  One product by the packed row
    (1 + t)^(2^(l+1)) takes the low block of every pair at once, without
    overlap (each product has 2^(l+2) - 1 slots), the high blocks move
    down by 2^l slots, and the next row is the square of this one.

    The slot bound.  _slot_layout makes 2^X > 4 (N + 2) p^2, and the
    slot-wise Barrett step of _gcd_coeffs brings each slot below 2^X back
    to [0, 2p) after every level and every square.  A product of the row
    and a low block, or of the row and itself, sums at most
    2^(l+1) + 1 <= N + 1 products below 4 p^2 in a slot, and a high slot
    below 2p is added, so every slot stays below 4 (N + 2) p^2 < 2^X, and
    no value spans more than the 2N - 1 slots PAT covers."""
    n = len(g)
    if n == 1:
        return list(g)
    levels = (n - 1).bit_length()
    width = 1 << levels
    pad = width - n
    size, x, m, _, pat = _slot_layout(p, 2 * width - 1, 4 * (width + 2) * p * p)
    w = 8 * size
    slots = [0] * (2 * width - 1)
    slots[2 * pad::2] = g
    acc = _pack(slots, size)
    row = 1 | 2 << w | 1 << 2 * w  # (1 + t)^2
    for level in range(levels):
        half = 1 << level
        low = int.from_bytes((b"\xff" * (size * 2 * half) + bytes(size * 2 * half)) * (width >> level + 1), "little")
        lo = acc & low
        acc = _reduce_slots(row * lo + ((acc - lo) >> w * half), p, x, m, pat)
        if level + 1 < levels:
            row = _reduce_slots(row * row, p, x, m, pat)
    return _unpack(acc >> w * pad, 2 * n - 1, size, p)


def fabc_gcd(p1: FabcParams, p2: FabcParams) -> FpUniPoly:
    """Monic gcd of f(p1) and f(p2).

    When both are symmetric, a = b with c <= a (strip leaves c <= b, so a
    reduced f(a,a,c) is one), the gcd comes from Euclid at degree about
    c / 2 by Kummer's
    quadratic transformation (DLMF 15.8.13); every other pair takes the
    generic FpUniPoly.gcd, which is also the law's test oracle.  Proof,
    with D = floor(c / 2), X = 4t, Y = (1 + t)^2:
      * f(a,a,c) is the coefficient of x^c in
        (1 + x)^a (1 + t x)^a = (1 + (1 + t) x + t x^2)^a.  Picking j
        factors t x^2, c - 2j factors (1 + t) x and a - c + j factors 1
        (c <= a makes every count >= 0 for j <= D), the multinomial
        theorem gives over Z
            f(a,a,c) = sum_{j<=D} a! / (j! (c-2j)! (a-c+j)!) t^j (1+t)^(c-2j)
                     = C(a,c) (1 + t)^(c-2D) Y^D Q(X / Y),
        with Q(w) = sum_{j<=D} q_j w^j and
            q_j = c! (a-c)! / (4^j j! (c-2j)! (a-c+j)!)
                = (-c/2)_j ((1-c)/2)_j / ((a-c+1)_j j!),
        since (-c/2)_j ((1-c)/2)_j = 4^-j prod_{i<2j} (i - c) = 4^-j c! / (c-2j)!
        and (a-c+1)_j = (a-c+j)! / (a-c)!.  This is Kummer's identity
        for the terminating 2F1(-a, -c; a-c+1; t) = f(a,a,c) / C(a,c).
      * Every factorial above has argument at most a - c + D <= a < p, so
        for c <= a < p the identity holds over F_p with every denominator
        a unit.  With r_j = 4^j q_j (the coefficients of Q(4u)),
        r_0 = 1 and r_{j+1} / r_j = (c-2j)(c-2j-1) / ((j+1)(a-c+j+1)), so
        Q is built in O(D) with one pow (_kummer_coeffs, by fabc's ratio run).
      * Q(0) = q_0 = 1, and q_D is a product of units, so deg Q = D.  Over
        an algebraic closure Q = q_D prod_i (w - w_i)^(m_i) with distinct
        w_i != 0, so Y^D Q(X/Y) = q_D prod_i P_i^(m_i) with
        P_i = X - w_i Y = 4t - w_i (1 + t)^2, a quadratic in t (its t^2
        coefficient is -w_i).  A common root s of P_i and
        P_k would give w_i = 4s / (1 + s)^2 = w_k (s = -1 is a root of
        neither, as P(-1) = -4), so distinct w give coprime quadratics,
        and 1 + t is prime to each.
      * Hence, with f(p_k) = C_k (1 + t)^(v_k) prod_i P_i^(m_ki) and
        v_k = c_k - 2 D_k = c_k mod 2, the gcd is
        (1 + t)^(min(v_1, v_2)) prod_i P_i^(min(m_1i, m_2i)).  With
        G = gcd(Q_1, Q_2) of degree e, prod_i P_i^(min) is Y^e G(X/Y) up to
        a unit; taking G with G(0) = 1 (G divides Q_1, so G(0) != 0)
        makes it monic, as its t^(2e) coefficient is G(0).  So
            gcd_t = (1 + t)^[c_1, c_2 both odd] Y^e G(X / Y),
        and Euclid runs on Q_1, Q_2 of degree D_k, about c / 2.
    G is found as gcd(r_1, r_2) by FpUniPoly.gcd, the same gcd with
    w = 4u, and Y^e G(X/Y) = sum_j g_j t^j (1 + t)^(2(e-j)) for
    G(4u) = sum_j g_j u^j (_homogenize).  When G is all of one Q_k (e = D_k), the gcd is instead
    fabc(p_k, monic=True), divided by 1 + t when c_k is odd and the other
    c even: one closed form in linear time in place of the build."""
    if p1.p != p2.p or not all(q.a == q.b and q.c <= q.a for q in (p1, p2)):
        return fabc(p1).gcd(fabc(p2))
    p, field = p1.p, PrimeField(p1.p)
    r1, r2 = _kummer_coeffs(p1.a, p1.c, p), _kummer_coeffs(p2.a, p2.c, p)
    g = FpUniPoly._raw(field, r1).gcd(FpUniPoly._raw(field, r2)).coeffs
    odd = p1.c % 2 == 1 and p2.c % 2 == 1
    for q, r in ((p1, r1), (p2, r2)):
        if len(g) == len(r):
            f = fabc(q, monic=True)
            return f.strip_root(-1)[1] if q.c % 2 == 1 and not odd else f
    inv = pow(g[0], p - 2, p)
    h = _homogenize([c * inv % p for c in g], p)
    if odd:
        h = [(x + y) % p for x, y in zip(h + [0], [0] + h)]
    return FpUniPoly._raw(field, h)


def fabc_least_irreducible(params: FabcParams, seed: int) -> FpUniPoly:
    """Least monic irreducible factor, in the order (degree,
    coefficients), of f = fabc(params, monic=True) for a symmetric
    f(a,a,c) with f(0) f(1) != 0, as strip leaves every symmetric
    radical: ff.least_factor(f, seed), the same for every seed, found
    without building f.  For odd c it is t + 1, with no split:
    f(0) = C(a,c) != 0 and f(-1) = 0 (least_factor's docstring).  For
    even c, f(0) f(-1) != 0, and the distinct-degree search runs in
    Kummer's variable, at half the degree.  Proof, with D = c / 2 and
    R(u) = Q(4u) = sum_j r_j u^j (_kummer_coeffs) of fabc_gcd's docstring:
      * f(0) = C(a,c) != 0 gives c <= a, so fabc_gcd's identity reads
        f(a,a,c) = C(a,c) (1 + t)^(2D) R(t / (1 + t)^2), with deg R = D
        and R(0) = 1.  f is squarefree (h1_radical's proof), hence so
        is R.
      * Let pi be an irreducible factor of R of degree e, and u0 in
        F_{p^e} a root of it; u0 != 0.  The t over u0 solve
        t = u0 (1 + t)^2, or u0 t^2 + (2 u0 - 1) t + u0 = 0, with
        discriminant (2 u0 - 1)^2 - 4 u0^2 = 1 - 4 u0.  That is not 0:
        u0 = 1/4 would make t = 1 a root of f.  So there are two distinct
        roots t = (1 - 2 u0 +- sqrt(1 - 4 u0)) / (2 u0), and
        u0 = t / (1 + t)^2 lies in F_p(t), so F_{p^e} lies in F_p(t).
      * If 1 - 4 u0 is a square in F_{p^e}, both t lie in F_{p^e} and
        each has degree exactly e: the 2e roots over the e conjugates of
        u0 make two t-factors of degree e.  If it is not, t lies in
        F_{p^(2e)} but not in F_{p^e}, so it has degree 2e: one t-factor
        of degree 2e.  These are the factors of
        P_pi = (1 + t)^(2e) pi(t / (1 + t)^2), of degree 2e with top
        coefficient pi(0) != 0, and f is a unit times the product of the
        P_pi.  So f's irreducible factors of degree d come from the pi of
        degree d with a square discriminant and those of degree d / 2
        without one.
      * The square test.  For u0 != 1/4, (1 - 4 u0)^((p^e - 1) / 2) is 1
        when 1 - 4 u0 is a square in F_{p^e} and -1 when it is not
        (Euler's criterion in the cyclic group F_{p^e}*).  So for the
        u-block B_e, the product of R's factors of degree e,
        S_e = gcd(B_e, (1 - 4u)^((p^e - 1) / 2) - 1) is the product of
        those with a square discriminant, and N_e = B_e / S_e the rest.
      * The search.  The least t-degree d* is the least of every e with
        S_e != 1 and 2 e1 for the least e1 with N_e1 != 1.  The u-search
        goes up in e and stops at the first e with S_e != 1, or at
        e = 2 e1 once N_e1 != 1 is found.  f's degree-d* block is
        P_U = (1 + t)^(2k) U(t / (1 + t)^2) for U = S_d* N_(d*/2) of
        degree k, N_(d*/2) taken only when d* = 2 e1; _homogenize builds
        it, and dividing by its top coefficient U(0) makes it monic.  The
        seeded split of that block and the least of its factors follow
        as in least_factor (ff._least_in_block).
    Every powmod and gcd of the search but that last split runs at
    degree at most D = deg f / 2."""
    a, c, p = params.a, params.c, params.p
    if params.b != a or fabc_profile(params)[1:] != (0, 0):
        raise HypothesisNotMet("need a = b and f(0) f(1) != 0, as strip leaves a symmetric member")
    if not c:
        raise InvalidInput("a constant has no irreducible factor")
    field = PrimeField(p)
    if c % 2:
        return FpUniPoly._raw(field, [1, 1])
    disc = FpUniPoly._raw(field, [1, -4 % p])  # 1 - 4u
    one = FpUniPoly.one(field)
    best = half = None  # 2 e1 and N_e1
    for b, e in _distinct_degree(FpUniPoly._raw(field, _kummer_coeffs(a, c, p)).monic()):
        if b.degree:
            square = b.gcd(poly_powmod(disc, (p**e - 1) // 2, b) - one)
            if square.degree:
                d, u = e, (square * half if e == best else square)
                break
            if best is None:
                best, half = 2 * e, b
        if e == best:
            d, u = best, half
            break
    else:
        d, u = best, half
    block = FpUniPoly._raw(field, _homogenize(list(u.coeffs), p)).monic()
    return _least_in_block(block, d, seed)


def separable_away_from_01(f: FpUniPoly) -> bool:
    """True iff f has only simple roots outside {0, 1}."""
    if f.is_zero:
        raise ParamOutOfRange("zero polynomial")
    f = f.strip_root(0)[1].strip_root(1)[1]
    if f.degree == 0:
        return True
    return f.gcd(f.derivative()).degree == 0


def Dpk(f: FpUniPoly, k: int) -> FpUniPoly:
    """Divided-power derivative: sum_i floor(i/p^k) a_i t^(i-p^k).

    k=0 gives the usual derivative's cousin with step 1 (i.e. D_1)."""
    if k < 0:
        raise ParamOutOfRange("k must be >= 0")
    q = f.field.p**k
    return FpUniPoly._from_terms(f.field, {i - q: (i // q) * c for i, c in f.terms if i >= q})
