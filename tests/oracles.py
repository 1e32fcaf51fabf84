"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written from scratch against the defining
formulas, using big-integer arithmetic (math.comb) and brute-force
expansion, and does not use the package under test.  Outputs are plain
Python values: univariate polynomials as coefficient lists (lowest degree
first, trailing zeros trimmed), multivariate polynomials as dicts mapping
exponent tuples to nonzero residues.

The last two sections are the exception: the generic routines that the
package's faster paths replaced, kept as references, and fabc laws that
only tests use.  They run on the package's polynomial types and kernels.
"""

import math
import random
from fractions import Fraction

from cyclocover.errors import HypothesisNotMet, InvalidInput, ParamOutOfRange
from cyclocover.fabc import FabcParams
from cyclocover.ff import (
    ExtField,
    FpMultiPoly,
    FpUniPoly,
    _distinct_degree,
    _equal_degree_split,
    _squarefree_parts,
)
from cyclocover.hassewitt import h1, _strip_01


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def binom_mod(n, k, p):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % p


def fabc_brute(a, b, c, p):
    """f(a,b,c) = sum_{i2+i3=c} C(a,i2) C(b,i3) t^i2 over F_p."""
    coeffs = [0] * (c + 1)
    for i2 in range(0, c + 1):
        i3 = c - i2
        coeffs[i2] = (math.comb(a, i2) * math.comb(b, i3)) % p
    return trim(coeffs)


def mul_schoolbook(a, b, p):
    """Product of two coefficient lists over F_p, term by term."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return trim([c % p for c in out])


def divrem_schoolbook(a, b, p):
    """(quotient, remainder) of a by a nonzero b over F_p, one leading
    term at a time."""
    b = trim([c % p for c in b])
    rem = [c % p for c in a]
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    if len(rem) - 1 < db:
        return [], trim(rem)
    quot = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] * lead_inv % p
        if q:
            quot[i - db] = q
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    return trim(quot), trim(rem[:db])


def powmod_schoolbook(base, e, f, p):
    """base^e mod f over F_p for e >= 0 and a nonzero f, by right-to-left
    square-and-multiply with the schoolbook product and division; e = 0
    gives [1] whatever f is."""
    result = [1]
    base = divrem_schoolbook(base, f, p)[1]
    while e:
        if e & 1:
            result = divrem_schoolbook(mul_schoolbook(result, base, p), f, p)[1]
        e >>= 1
        if e:
            base = divrem_schoolbook(mul_schoolbook(base, base, p), f, p)[1]
    return result


def remainder_sequence(a, b, p):
    """Euclid's remainders a, b, a mod b, ... over F_p, not made monic,
    up to the last nonzero one."""
    seq = [trim([c % p for c in a]), trim([c % p for c in b])]
    while seq[-1]:
        seq.append(divrem_schoolbook(seq[-2], seq[-1], p)[1])
    return seq[:-1]


def gcd_euclid(a, b, p):
    """Monic gcd over F_p by Euclid's algorithm ([] when both are zero)."""
    g = remainder_sequence(a, b, p)[-1]
    if not g:
        return []
    inv = pow(g[-1], p - 2, p)
    return [c * inv % p for c in g]


def poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def valuation_at_zero(coeffs):
    for i, c in enumerate(coeffs):
        if c != 0:
            return i
    raise ValueError("zero polynomial")


def _mul_slice(acc, b_k, var, r, cap):
    """Multiply dict acc (exp tuple -> int) by (1 + x_var)^{b_k} truncated
    to total degree <= cap, keeping exact integer coefficients."""
    out = {}
    for exps, coef in acc.items():
        tot = sum(exps)
        for n in range(0, min(b_k, cap - tot) + 1):
            e = list(exps)
            e[var] += n
            key = tuple(e)
            out[key] = out.get(key, 0) + coef * math.comb(b_k, n)
    return out


def graded_slice(bs, n, p):
    """Degree-n slice of prod_k (1 + x_k)^{b_k}: dict of exponent tuples
    (n_1..n_r) with sum n, coefficient prod C(b_k, n_k) mod p."""
    r = len(bs)
    if n < 0 or n > sum(bs):
        return {}
    acc = {tuple([0] * r): 1}
    for k, b_k in enumerate(bs):
        acc = _mul_slice(acc, b_k, k, r, n)
    out = {}
    for exps, coef in acc.items():
        if sum(exps) == n and coef % p != 0:
            out[exps] = coef % p
    return out


def slice_counts_brute(bs, n, k=0):
    """(terms, shifted) of the degree-n slice by enumeration: every
    (e_1..e_r) with 0 <= e_s <= b_s and sum n counts once in terms and
    e_k + 1 times in shifted."""
    import itertools

    terms = shifted = 0
    for es in itertools.product(*(range(b + 1) for b in bs)):
        if sum(es) == n:
            terms += 1
            shifted += es[k] + 1
    return terms, shifted


def phi_entry_oracle(m, a, p, c, jp, j):
    """Entry (j', j) of the phi matrix at character c: the degree-N slice
    of prod (1 + x_k)^{b_k} with b_k = floor(p<c a_k/m>), N = s - jp + j',
    carrying the global sign (-1)^N."""
    bs = [(p * ((c * ak) % m)) // m for ak in a]
    n = sum(bs) - (j * p - jp)
    sl = graded_slice(bs, n, p)
    sign = 1 if n % 2 == 0 else -1
    return {e: (sign * v) % p for e, v in sl.items() if (sign * v) % p != 0}


def _elementary_symmetric(indices, deg, r):
    """e_deg of the variables listed in `indices`, as a dict over r-tuples."""
    import itertools

    out = {}
    for combo in itertools.combinations(indices, deg):
        e = [0] * r
        for i in combo:
            e[i] = 1
        out[tuple(e)] = 1
    return out


def psi_entry_oracle(m, a, p, c, jp, j):
    """Entry (j', j) of the psi matrix at character c, assembled term by
    term: -(sum_k b_k * r_k * qhat_{j',k}) where r_k is the signed degree-N
    slice with b_k decremented (N = s - jp), and qhat_{j',k} is the
    coefficient of x^{j'-1} in prod_{s != k} (x - x_s), i.e.
    (-1)^{r-j'} e_{r-j'} of the other variables."""
    r = len(a)
    bs = [(p * ((c * ak) % m)) // m for ak in a]
    n = sum(bs) - j * p
    sign_n = 1 if n % 2 == 0 else -1
    out = {}
    for k in range(r):
        if bs[k] == 0:
            continue
        dec = list(bs)
        dec[k] -= 1
        rk = graded_slice(dec, n, p)
        if not rk:
            continue
        qdeg = r - jp
        sign_q = 1 if (r - jp) % 2 == 0 else -1
        esym = _elementary_symmetric([s for s in range(r) if s != k], qdeg, r)
        for e1, v1 in rk.items():
            for e2, v2 in esym.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                term = (-1) * bs[k] * sign_n * v1 * sign_q * v2
                out[key] = (out.get(key, 0) + term) % p
    return {e: v for e, v in out.items() if v != 0}


def compose_sigma_linear(matrices, p, pow_fn, mul_fn, add_fn):
    """Step-by-step sigma-linear composite of a chain: returns
    A_{l-1} . A_{l-2}^(p) . ... . A_0^(p^{l-1}) using caller-supplied
    entry operations (so this works for any polynomial representation).
    Matrices are lists of rows; pow_fn(entry, k) must realize entry^(p^k).
    """
    l = len(matrices)
    acc = None
    for i, mat in enumerate(matrices):
        twisted = [[pow_fn(e, l - 1 - i) for e in row] for row in mat]
        if acc is None:
            acc = twisted
            continue
        rows = len(twisted)
        mid = len(acc)
        cols = len(acc[0])
        assert len(twisted[0]) == mid
        prod = [[None] * cols for _ in range(rows)]
        for i2 in range(rows):
            for j2 in range(cols):
                cell = None
                for t in range(mid):
                    term = mul_fn(twisted[i2][t], acc[t][j2])
                    cell = term if cell is None else add_fn(cell, term)
                prod[i2][j2] = cell
        acc = prod
    return acc


def mu_ordinary_slopes_oracle(members, f, l):
    """Slopes of one Frobenius orbit, as Fractions with multiplicity l."""
    g = f[members[0]] + f[(len(f) - members[0]) % len(f)]
    out = []
    for jj in range(1, g + 1):
        cnt = sum(1 for c in members if f[c] >= g + 1 - jj)
        out.append(Fraction(cnt, l))
    return sorted(out)


def sympy_factor(coeffs, p):
    """Factor a univariate polynomial over GF(p) with sympy; returns
    (unit, sorted list of (monic factor coeff list, multiplicity))."""
    import sympy

    t = sympy.symbols("t")
    poly = sympy.Poly(list(reversed(coeffs)), t, modulus=p, symmetric=False)
    unit, facs = poly.factor_list()
    out = []
    for fac, mult in facs:
        fc = [int(x) % p for x in reversed(fac.all_coeffs())]
        out.append((trim(fc), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return int(unit) % p, out


# Frozen scalar values derived once from the formulas above (documented in
# comments so the tests do not have to recompute them).
FROZEN = {
    # math.comb(24, 9) % 13: comb = 1307504 = 13*100577 + 3
    "binom_24_9_mod_13": 3,
    # fabc(5,5,9) over p=13 is 5t^4 + 5t^5, so valuation at 0 is 4
    "fabc_5_5_9_p13": [0, 0, 0, 0, 5, 5],
    "fabc_5_5_9_p13_v0": 4,
    # fabc(3,3,1) over p=13 is 3 + 3t
    "fabc_3_3_1_p13": [3, 3],
    # canonical form of (5,4,(1,1,1,2)): already minimal over units x perm
    "canon_5_4_1112": (1, 1, 1, 2),
    # quotient of (15,4,(3,5,6,1)) mod 5: labels (3,0,1,1) -> (5,3,(3,1,1))
    "quotient_15_to_5": (5, 3, (3, 1, 1)),
    # clutch (7,4,(3,1,1,2)) x (7,4,(5,1,3,5)): 2+5=7 admissible,
    # result (7,6,(3,1,1,1,3,5)), eps = gcd(2,7)-1 = 0
    "clutch_7": (7, 6, (3, 1, 1, 1, 3, 5), 0),
}


# ---------------------------------------------------------------------------
# generic routines replaced in the package, on its own types and kernels


def radical_01(f):
    """Radical of f away from 0 and 1: strip t and t - 1, then multiply
    the parts of a squarefree decomposition."""
    out = FpUniPoly.one(f.field)
    for part in _squarefree_parts(_strip_01(f).monic()):
        out = out * part
    return out


def ext_roots(f, dmax, seed):
    """One representative root per irreducible factor of degree <= dmax.

    Each factor g of degree d is used as the modulus of F_{p^d}, so the
    class of t is an exact root; returns [(ExtFieldElem, d)], sorted by
    (d, factor coefficients)."""
    if f.is_zero:
        raise InvalidInput("root search on the zero polynomial")
    if dmax < 1:
        raise ParamOutOfRange("dmax must be >= 1")
    rng = random.Random(seed)
    irreducibles = []
    for part in _squarefree_parts(f.monic()):
        for prod, d in _distinct_degree(part):
            if prod.degree:
                irreducibles.extend(_equal_degree_split(prod, d, rng))
            if d == dmax:
                break
    irreducibles.sort(key=lambda g: (g.degree, g.coeffs))
    return [(ExtField(f.field, g, check=False).generator(), g.degree) for g in irreducibles]


def slice_counts_dp(bs, n, k=0):
    """(terms, shifted) of the degree-n slice, as hassewitt._slice_counts
    computed them before its closed form: prefix-sum counts w_t of the
    compositions of t into the parts other than e_k, one part at a time
    (O(r n)), then grouped by e_k."""
    import itertools

    if n < 0:
        return 0, 0
    ways = [1] + [0] * n
    for b in bs[:k] + bs[k + 1:]:
        acc = list(itertools.accumulate(ways))
        ways = [v - (acc[s - b - 1] if s > b else 0) for s, v in enumerate(acc)]
    by_e = [ways[n - e] for e in range(min(bs[k], n) + 1)]
    return sum(by_e), sum((e + 1) * c for e, c in enumerate(by_e))


# ---------------------------------------------------------------------------
# fabc laws that no package path calls


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
