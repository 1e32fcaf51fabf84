"""Character-indexed Cartier/Frobenius matrices for cyclic covers.

Every character index c in 1..m-1 carries branch exponents
b_k(c) = floor(p * ((c*a_k) mod m) / m) and their sum s(c).  The two
matrix families are built from graded slices of prod_k (1 + x_k)^{b_k}:
phi entries are single signed slices, psi entries combine decremented
slices with the cofactor coefficients of prod_{s != k} (x - x_s).

An OrbitContext walks the multiplication-by-p orbit through a chosen
base character.  One builder (_layers) assembles its chain matrices.
h0, over all l steps and multivariate, cuts out the non-ordinary locus
in the branch-point coordinates; _composite multiplies its index walks
out one by one.  h1, over the first i0 steps and univariate, is the last
of the heads H_{i+1} = A_i . H_i^(p) (_heads), the one fold that the
radical also reads.
For four branch points the substitution (x_1, x_2, x_3, x_4) =
(infinity, t, 1, 0) turns every entry into a univariate polynomial, and
h1 gives a computable certificate of non-ordinariness.

The specialized degree-n phi slice is zero unless 0 <= n <= sum(b);
otherwise, with E1 = min(b_1, n) and E4 = max(0, n - b_1 - b_2 - b_3),
it equals (-1)^n C(b_1, E1) C(b_4, E4) f(b_2, b_3, n - E1 - E4).  Proof:
each C(b_k, e_k) with 0 <= e_k <= b_k < p is a unit, so the slice has a
term for every composition of n with parts e_k <= b_k.  The gap e_1 - e_4
is largest, E1 - E4, exactly when e_1 = E1 and e_4 = E4 (lowering e_1 by
d raises the least admissible e_4 by at most d).  specialize_infty keeps
those terms and sets x_1 = x_3 = x_4 = 1, leaving C(b_1, E1) C(b_4, E4)
f(b_2, b_3, n - E1 - E4).

The specialized psi entry comes from the same closed form.  With
n = s - p*j it is -sum_k b_k (-1)^n S_k qhat_k, S_k the degree-n slice
of b - e_k (slots with b_k = 0 drop out), and every S_k is nonzero
exactly when 0 <= n < s.  The gap is a grading, so each product's top
part is the product of its factors' top parts: unit_k f(params_k) at gap
E1_k - E4_k from the phi closed form for b - e_k, and the top part of
qhat_k, which is (-1)^(4-jp) times (gap q_k, value at (x_2, x_3) = (t, 1))

    jp = 1:  (-1, t), (0, 1), (0, t), (+1, t)        for k = 1, 2, 3, 4
    jp = 2:  (0, t), (+1, 1), (+1, t), (+1, 1 + t).

With U = b_1 + b_2 + b_3 and E1 = min(b_1, n), slot k's total gap is

    k = 1:     min(b_1 - 1, n) - max(0, n - U + 1) + q_1
    k = 2, 3:  E1 - max(0, n - U + 1) + q_2
    k = 4:     E1 - max(0, n - U) + q_4

with q_1 = q_2 - 1 and q_4 = q_2 + 2 - jp.  So slot 4 alone is on top
when b_4 > 0 and either jp = 1, n >= U or b_2 = b_3 = 0; slot 1 alone
when b_2 = b_3 = b_4 = 0; and otherwise slots 2 and 3 tie (one of them
may be absent), joined by slot 4 at jp = 2.  A tie has n < U, hence
E4 = 0 and the shared unit (-1)^n C(b_1, E1) and c = n - E1 of the slice
of b itself, and its terms add up to b_2 f(b_2-1, b_3, c)
+ b_3 t f(b_2, b_3-1, c) + b_4 (1+t) f(b_2, b_3, c) (at jp = 1 the tie
has b_4 = 0).  With
H = (1 + s t)^{b_2} (1 + s)^{b_3}, so that f(b_2, b_3, c) = [s^c] H,
that is [s^c] of

    H (b_2 / (1+st) + t b_3 / (1+s) + b_4 (1+t))
        = (1+t) ((b_2 + b_3 + b_4) H - s H') - H',

by Euler's identity s H' = H (b_2 st / (1+st) + b_3 s / (1+s)).  Hence
the tie is

    (1+t) (b_2 + b_3 + b_4 - c) f(b_2, b_3, c) - (c+1) f(b_2, b_3, c+1),

and for n >= b_1 its first coefficient is s - n = p*j, zero mod p.  A
single slot on top is a unit times f(params_k) times a nonzero part of
qhat_k, so only a tie can cancel.

A psi entry's tie cancels only at row 2 with b_1 = 0, and then the next
gap, 0, gives the entry -(-1)^n b_4 t f(b_2, b_3, n).  At jp = 1 a tie
has b_4 = 0, and c + 1 = b_2 + b_3 + 1 - p*j lies in 1..p-1 when
n >= b_1, while the tie is a unit times b_2 + b_3 t otherwise.  At jp = 2
the second row needs signature 2 at -p*tau, which forces
sum_k <p tau a_k / m> = 1, so s = n = -1 mod p, n >= b_1, and the tie is
-(c+1) f(b_2, b_3, c+1) with c + 1 = -b_1 mod p.  When b_1 = 0, x_1
enters only through qhat_k = x_1 (e_1' - x_k) + e_2'(k), with
e_1' = x_2 + x_3 + x_4 and e_2'(k) the product of the two of x_2, x_3,
x_4 other than x_k.  Let S be the degree-(n+1) slice of b, so that
b_k S_k = d S / d x_k and sum_k b_k x_k S_k = (n+1) S = 0.  The entry is
-(-1)^n (x_1 e_1' sum_k dS/dx_k + sum_k b_k S_k e_2'(k)).  Write T_d for
the degree-d slice of (1 + x_2)^{b_2} (1 + x_3)^{b_3}.  The x_4-free part
of sum_k dS/dx_k is (s - n) T_n = 0, as in the tie, and its x_4-linear
part is b_4 x_4 (s - n) T_{n-1} = 0 by the same identity, so the gap-0
part is b_4 x_2 x_3 T_n from slot 4 alone.  It is nonzero: b_4 = 0 would
make s = b_2 + b_3 = p - 1 and n < 0.  Any other cancelling tie is
refused with InternalError.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DegreeBudgetExceeded,
    HypothesisNotMet,
    IndexOutOfRange,
    InternalError,
    InvalidInput,
    ParamOutOfRange,
    PDividesM,
    PsiHypothesisNotMet,
)
from .fabc import FabcParams, _ratio_run, fabc, fabc_least_irreducible, strip
from .ff import (
    DEFAULT_TERM_BUDGET,
    ExtField,
    FpMultiPoly,
    FpUniPoly,
    PrimeField,
    binomial_mod_p,
    check_product_budget,
    check_shift_budget,
    least_factor,
    poly_powmod,
    _squarefree_parts,
    _twisted_dot,
)
from .monodromy import MonodromyDatum, signature

KIND_PHI = "phi"
KIND_PHI_DUAL = "phi_dual"
KIND_PSI = "psi"
KIND_PSI_DUAL = "psi_dual"


def _require_coprime(datum: MonodromyDatum, p: int) -> None:
    if math.gcd(p, datum.m) != 1:
        raise PDividesM(f"p = {p} shares a factor with m = {datum.m}")


def branch_exponents(datum: MonodromyDatum, p: int, tau: int) -> tuple:
    """b_k = floor(p * ((tau*a_k) mod m) / m), in the datum's branch order
    (OrbitContext.ordered_datum permutes the labels)."""
    m = datum.m
    if not 1 <= tau <= m - 1:
        raise IndexOutOfRange(f"character index {tau} outside 1..{m - 1}")
    return tuple((p * ((tau * ak) % m)) // m for ak in datum.a)


def first_covering_index(bs, n: int) -> int:
    """Least c (1-based) with b_1 + ... + b_c > n; needs sum(bs) > n >= 0."""
    if n < 0 or sum(bs) <= n:
        raise ParamOutOfRange("covering index needs 0 <= n < sum(bs)")
    acc = 0
    for idx, b in enumerate(bs, start=1):
        acc += b
        if acc > n:
            return idx
    raise InternalError(f"no covering index although sum(bs) > {n}")


def _check_slice_terms(terms: int, budget: int) -> None:
    """Refuse a nonzero graded slice of over budget terms."""
    if terms > max(budget, 0):
        raise DegreeBudgetExceeded(f"graded slice exceeds {budget} terms")


def _graded_slice(field: PrimeField, bs, n: int, budget: int) -> FpMultiPoly:
    """Degree-n slice of prod_k (1 + x_k)^{b_k} as a multivariate polynomial.

    Every b_k is < p, so each binomial coefficient is a nonzero single
    Lucas digit and the slice has exactly as many terms as compositions.
    The walk visits each composition once, so a slice over the budget is
    refused by its count (_slice_sizes) before any term is walked."""
    r = len(bs)
    if n < 0 or n > sum(bs):
        return FpMultiPoly.zero(field, r)
    _check_slice_terms(_slice_sizes(bs, n, 0, budget)[0], budget)
    suffix = [0] * (r + 1)
    for k in range(r - 1, -1, -1):
        suffix[k] = suffix[k + 1] + bs[k]
    p = field.p
    terms: dict = {}
    exps = [0] * r

    def walk(k: int, rem: int, coef: int) -> None:
        if k == r:
            terms[tuple(exps)] = coef
            return
        lo = max(0, rem - suffix[k + 1])
        hi = min(bs[k], rem)
        for nk in range(lo, hi + 1):
            exps[k] = nk
            walk(k + 1, rem - nk, (coef * binomial_mod_p(bs[k], nk, p)) % p)
        exps[k] = 0

    walk(0, n, 1)
    return FpMultiPoly(field, r, terms)


def _qhat(field: PrimeField, r: int, jp: int, k: int) -> FpMultiPoly:
    """Coefficient of x^{jp-1} in prod_{s != k} (x - x_s): the elementary
    symmetric polynomial of degree r-jp in the other variables, with sign
    (-1)^{r-jp}."""
    deg = r - jp
    sgn = 1 if deg % 2 == 0 else field.p - 1
    terms = {}
    for combo in itertools.combinations([s for s in range(r) if s != k], deg):
        e = [0] * r
        for s in combo:
            e[s] = 1
        terms[tuple(e)] = sgn
    return FpMultiPoly(field, r, terms)


def _check_phi_index(m: int, p: int, sig, tau: int, jp: int, j: int) -> None:
    """Entry (jp, j) of phi at character tau exists: tau in 1..m-1,
    j in 1..sig[tau], jp in 1..sig[p*tau]."""
    if not 1 <= tau <= m - 1:
        raise IndexOutOfRange(f"character index {tau} outside 1..{m - 1}")
    if not 1 <= j <= sig[tau]:
        raise IndexOutOfRange(f"column {j} outside 1..{sig[tau]} at character {tau}")
    rows = sig[(p * tau) % m]
    if not 1 <= jp <= rows:
        raise IndexOutOfRange(f"row {jp} outside 1..{rows} at character {tau}")


def _check_psi_index(m: int, p: int, sig, tau: int, jp: int, j: int) -> None:
    """psi is defined at character tau (gcd(tau, m) = 1 and the signature
    vanishes at p*tau or m-tau) and has an entry (jp, j): j in
    1..sig[tau], jp in 1..sig[-p*tau]."""
    if not 1 <= tau <= m - 1:
        raise IndexOutOfRange(f"character index {tau} outside 1..{m - 1}")
    if math.gcd(tau, m) != 1 or not (sig[(p * tau) % m] == 0 or sig[(m - tau) % m] == 0):
        raise PsiHypothesisNotMet(
            f"psi at character {tau} needs gcd(tau, m) = 1 and a vanishing "
            f"signature at {(p * tau) % m} or {(m - tau) % m}"
        )
    if not 1 <= j <= sig[tau]:
        raise IndexOutOfRange(f"column {j} outside 1..{sig[tau]} at character {tau}")
    rows = sig[(m - (p * tau) % m) % m]
    if not 1 <= jp <= rows:
        raise IndexOutOfRange(f"row {jp} outside 1..{rows} at character {tau}")


def phi_entry(
    datum: MonodromyDatum,
    p: int,
    tau: int,
    jp: int,
    j: int,
    budget: int = DEFAULT_TERM_BUDGET,
) -> FpMultiPoly:
    """Entry (jp, j) of the phi matrix at character tau: the signed
    degree-N slice with N = s - p*j + jp.  Out-of-range N gives zero."""
    field = PrimeField(p)
    _require_coprime(datum, p)
    m = datum.m
    sig = signature(datum)
    _check_phi_index(m, p, sig, tau, jp, j)
    bs = branch_exponents(datum, p, tau)
    n = sum(bs) - (p * j - jp)
    block = _graded_slice(field, bs, n, budget)
    return block if n % 2 == 0 else -block


def psi_entry(
    datum: MonodromyDatum,
    p: int,
    tau: int,
    jp: int,
    j: int,
    budget: int = DEFAULT_TERM_BUDGET,
) -> FpMultiPoly:
    """Entry (jp, j) of the psi matrix at character tau.

    Defined only when gcd(tau, m) = 1 and the signature vanishes at
    p*tau or at m-tau; outside that window the defining sum does not
    compute the operator and we refuse."""
    field = PrimeField(p)
    _require_coprime(datum, p)
    m, r = datum.m, datum.r
    sig = signature(datum)
    _check_psi_index(m, p, sig, tau, jp, j)
    bs = branch_exponents(datum, p, tau)
    n = sum(bs) - p * j
    sign = 1 if n % 2 == 0 else field.p - 1
    acc = FpMultiPoly.zero(field, r)
    for k in range(r):
        if bs[k] == 0:
            continue
        dec = list(bs)
        dec[k] -= 1
        sl = _graded_slice(field, dec, n, budget)
        if sl.is_zero:
            continue
        piece = sl.mul(_qhat(field, r, jp, k), budget).scale((bs[k] * sign) % field.p)
        acc = acc + piece
    return -acc


class OrbitContext:
    """Multiplication-by-p walk through the dual of a base character.

    `base` is a unit B0 mod m; the chain is anchored at c0 = (m - B0) % m,
    whose signature value must be 1, and visits u_i = p^i * c0 mod m.
    Derived attributes:

      chars        (u_0, ..., u_{l-1}), the anchored walk
      dims         (d_0, ..., d_l): signature at u_i, or at m - u_i when
                   that vanishes; d_0 = d_l = 1
      kinds        per-step matrix family, one of the KIND_* tags
      chain_chars  the character each step's matrix is computed at (u_i
                   for the plain kinds, m - u_i for the dual ones)
      i0           least i >= 1 with signature 1 at u_i
      branch_order slot permutation (r = 4 only) making the middle two
                   branch exponents at c0 sum to at most the outer two
    """

    __slots__ = (
        "datum",
        "p",
        "field",
        "base",
        "c0",
        "sig",
        "chars",
        "l",
        "i0",
        "dims",
        "kinds",
        "chain_chars",
        "branch_order",
        "ordered_datum",
    )

    def __init__(self, datum: MonodromyDatum, p: int, base: int):
        self.field = PrimeField(p)
        _require_coprime(datum, p)
        m = datum.m
        if not 1 <= base <= m - 1:
            raise ParamOutOfRange(f"base character {base} outside 1..{m - 1}")
        if math.gcd(base, m) != 1:
            raise InvalidInput(f"base character {base} is not a unit mod {m}")
        self.datum = datum
        self.p = p
        self.base = base
        self.sig = signature(datum)
        self.c0 = (m - base) % m
        if self.sig[self.c0] != 1:
            raise HypothesisNotMet(
                f"chain needs signature 1 at index {self.c0} (dual of base {base}), "
                f"got {self.sig[self.c0]}"
            )
        chars = [self.c0]
        u = (p * self.c0) % m
        while u != self.c0:
            chars.append(u)
            u = (p * u) % m
        self.chars = tuple(chars)
        self.l = len(chars)
        self.i0 = next(
            i for i in range(1, self.l + 1) if self.sig[chars[i % self.l]] == 1
        )
        dims = []
        for u in chars:
            fu = self.sig[u]
            dims.append(fu if fu >= 1 else self.sig[(m - u) % m])
        dims.append(dims[0])
        self.dims = tuple(dims)
        kinds = []
        wchars = []
        for i in range(self.l):
            u = chars[i]
            v = chars[(i + 1) % self.l]
            if self.sig[u] >= 1:
                kinds.append(KIND_PHI if self.sig[v] >= 1 else KIND_PSI)
                wchars.append(u)
            else:
                kinds.append(KIND_PSI_DUAL if self.sig[v] >= 1 else KIND_PHI_DUAL)
                wchars.append((m - u) % m)
        self.kinds = tuple(kinds)
        self.chain_chars = tuple(wchars)
        if datum.r == 4:
            bs = branch_exponents(datum, p, self.c0)
            self.branch_order = next(
                perm
                for perm in itertools.permutations(range(4))
                if bs[perm[1]] + bs[perm[2]] <= bs[perm[0]] + bs[perm[3]]
            )
        else:
            self.branch_order = tuple(range(datum.r))
        self.ordered_datum = (
            datum
            if self.branch_order == tuple(range(datum.r))
            else MonodromyDatum(m, datum.r, tuple(datum.a[k] for k in self.branch_order))
        )

    def __repr__(self) -> str:
        return (
            f"OrbitContext(m={self.datum.m}, p={self.p}, base={self.base}, "
            f"l={self.l}, i0={self.i0})"
        )


def _layers(ctx: OrbitContext, steps: int, phi, psi) -> tuple:
    """Chain matrices A_0..A_{steps-1} along the orbit walk, A_i of shape
    dims[i+1] x dims[i], with entries phi(w, jp, j) or psi(w, jp, j) by
    the step's kind at its chain character w."""
    mats = []
    for i in range(steps):
        entry = phi if ctx.kinds[i] in (KIND_PHI, KIND_PHI_DUAL) else psi
        w = ctx.chain_chars[i]
        mats.append(
            tuple(
                tuple(entry(w, jp, j) for j in range(1, ctx.dims[i] + 1))
                for jp in range(1, ctx.dims[i + 1] + 1)
            )
        )
    return tuple(mats)


def build_chain(ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET) -> tuple:
    """The multivariate chain matrices A_0..A_{l-1} along the orbit walk.

    Plain kinds take entries at u_i, dual kinds at m - u_i (the operators
    at mirrored characters are represented by the same matrices)."""
    phi = functools.partial(phi_entry, ctx.datum, ctx.p, budget=budget)
    psi = functools.partial(psi_entry, ctx.datum, ctx.p, budget=budget)
    return _layers(ctx, ctx.l, phi, psi)


def _paths(dims):
    """All index paths J with J(0) = J(l) = 1 and 1 <= J(i) <= dims[i]."""
    l = len(dims) - 1
    middles = [range(1, d + 1) for d in dims[1:l]]
    for mid in itertools.product(*middles):
        yield (1, *mid, 1)


def _composite(layers, dims, one, mul):
    """Twisted composite of the layers A_0..A_{l-1} (dims[0] = dims[l] = 1),

        sum_J prod_i A_i(J(i+1), J(i)) ** (p ** (l-1-i)),

    each walk multiplied out alone, left to right from `one` in the order
    of _paths, so every product is one walk's prefix times one entry, as
    h0's refusals count."""
    l = len(layers)

    def walk(J):
        twisted = (layers[i][J[i + 1] - 1][J[i] - 1].frobenius_pow(l - 1 - i) for i in range(l))
        return functools.reduce(mul, twisted, one)

    return functools.reduce(operator.add, map(walk, _paths(dims)))


def _heads(field: PrimeField, layers) -> list:
    """The heads H_0 = (1) and H_{i+1} = A_i . H_i^(p) of univariate layers
    A_0, A_1, ...: H_i[k] sums the twisted walks of the first i layers
    that end at index k, and a last layer of one row makes the last head
    the twisted composite A_{i-1} . A_{i-2}^(p) . ... . A_0^(p^(i-1))."""
    heads = [(FpUniPoly.one(field),)]
    for mat in layers:
        ys = [y.coeffs for y in heads[-1]]
        heads.append(tuple(_twisted_row(row, ys, field) for row in mat))
    return heads


def _twisted_row(row, ys, field: PrimeField) -> FpUniPoly:
    """sum_j row[j] * Y_j^p for the coefficient lists ys of the Y_j."""
    p = field.p
    return FpUniPoly._raw(field, _twisted_dot([(c.coeffs, y) for c, y in zip(row, ys)], p, p))


def _slice_counts(bs, n: int, k: int = 0) -> tuple:
    """(terms, shifted) of the degree-n graded slice.  terms counts its
    monomials, the compositions of n with parts 0 <= e_s <= b_s; shifted
    sums e_k + 1 over them, the terms substitute_shift writes when it
    expands x_k (each C(e_k, i) with i <= e_k < p is a unit).  Both are
    closed forms, in at most min(2^q, n+1) pairs of binomials for
    q = r - 1.

    Proof.  Let w_t count the compositions of t into the q parts other
    than e_k.  With E = min(b_k, n), terms = sum_{e=0}^{E} w_{n-e} and
    shifted = sum_{e=0}^{E} (e+1) w_{n-e}.  For q = 0, w_t = [t = 0], so
    both vanish unless n <= b_k, and then they are 1 and n + 1.  For
    q >= 1, sum_t w_t x^t = N(x) / (1-x)^q with
    N(x) = prod_{s != k} (1 - x^{b_s+1}) = sum_sigma c_sigma x^sigma, so
    w_t = sum_{sigma <= t} c_sigma C(t - sigma + q-1, q-1).  Only
    sigma <= n matter, so N is expanded truncated at degree n, merging
    equal sigma (at most min(2^q, n+1) of them), and a part with
    b_s >= n contributes only its 1.  For one sigma put hi = n - sigma
    >= 0, j = hi - e and lo = max(0, hi - E); e runs over 0..E with
    j >= 0 exactly when j runs over lo..hi.  The hockey-stick sums
    sum_{j=0}^{h} C(j+q-1, q-1) = C(h+q, q) and
    sum_{j=0}^{h} C(j+q-1, q) = C(h+q, q+1) give
        T = sum_{j=lo}^{hi} C(j+q-1, q-1) = C(hi+q, q) - C(lo+q-1, q),
        U = sum_{j=lo}^{hi} C(j+q-1, q)   = C(hi+q, q+1) - C(lo+q-1, q+1),
    the lower ends being the sums up to lo - 1, which vanish at lo = 0.
    As e + 1 = (hi+1) - j and j C(j+q-1, q-1) = q C(j+q-1, q), sigma
    contributes c_sigma T to terms and c_sigma ((hi+1) T - q U) to
    shifted.  C(N, q+1) = C(N, q) (N - q) / (q + 1) takes both ends of U
    from those of T, so (q+1) U = hi C(hi+q, q) - (lo-1) C(lo+q-1, q),
    divided exactly.  Every argument of math.comb is nonnegative:
    hi + q >= q >= 1, and the lower end is taken only for lo >= 1."""
    if n < 0:
        return 0, 0
    q = len(bs) - 1
    top = min(bs[k], n)
    if not q:
        return (1, n + 1) if top == n else (0, 0)
    numer = {0: 1}
    for s, b in enumerate(bs):
        if s == k or b >= n:
            continue
        # each shifted degree takes one old coefficient, read from the snapshot
        for sigma, c in list(numer.items()):
            if sigma + b < n:
                numer[sigma + b + 1] = numer.get(sigma + b + 1, 0) - c
    terms = shifted = 0
    for sigma, c in numer.items():
        if not c:
            continue
        hi = n - sigma
        lo = hi - top
        upper = math.comb(hi + q, q)
        lower = math.comb(lo + q - 1, q) if lo > 0 else 0
        t = upper - lower
        u = (hi * upper - (lo - 1) * lower) // (q + 1)
        terms += c * t
        shifted += c * ((hi + 1) * t - q * u)
    return terms, shifted


def _slice_sizes(bs, n: int, k: int, budget: int) -> tuple:
    """(terms, shifted) of the degree-n slice, grouped at x_k, for its two
    budget checks, terms <= budget and shifted <= 8 * budget: the exact
    _slice_counts(bs, n, k), or upper bounds of both when the bounds
    already pass both checks, so no check can tell them apart.

    Proof.  The slice is zero exactly when n < 0 or n > sum(bs), and then
    the exact count, (0, 0), is returned.  Otherwise its terms are
    distinct compositions of n with parts 0 <= e_s <= b_s, so
    terms <= P = prod_s (b_s + 1), and each adds e_k + 1 <= b_k + 1 to
    shifted, so shifted <= (b_k + 1) P.  When P <= budget and
    (b_k + 1) P <= 8 * budget, the exact counts pass both checks as the
    bounds do, and both are nonzero.  At p <= 13 and r = 4 the bounds are
    at most 13^4 and 13^5, far below the default budget."""
    if 0 <= n <= sum(bs):
        bound = math.prod(b + 1 for b in bs)
        shifted = (bs[k] + 1) * bound
        if bound <= budget and shifted <= 8 * budget:
            return bound, shifted
    return _slice_counts(bs, n, k)


def _slice_multiplicity(
    p: int, bs, n: int, j1: int, j2: int, budget: int, counts: Optional[tuple] = None
) -> int:
    """Multiplicity of (x_{j1} - x_{j2}) in the degree-n graded slice of
    prod_k (1 + x_k)^{b_k}, every b_k < p, read off the exponents: the
    value, or the error, of

        divisor_multiplicity(_graded_slice(field, bs, n, budget), j1, j2, budget)

    with its checks in the same order (zero slice, term budget, labels,
    shift budget), and no slice or shift built.  `counts` is
    _slice_sizes(bs, n, k, budget) with k = j2 - 1, or k = 0 when j2 is
    out of range; it is computed here when not given.

    Proof.  Write alpha = b_{j1}, beta = b_{j2}, B' for the sum of the
    other b_k, and y for the shifted x_{j2}.  The slice is
    [s^n] prod_k (1 + s x_k)^{b_k}, and x_{j2} -> x_{j1} + y turns it into

        sum_{i=0}^{beta} C(beta, i) y^i [s^{n-i}] (1 + s x_{j1})^{N_i}
                                       prod_{k != j1, j2} (1 + s x_k)^{b_k}

    with N_i = alpha + beta - i.  Each C(beta, i) is a unit and no two
    monomials collide, within one power of y or across them; the
    monomial x_{j1}^e prod x_k^{e_k} carries C(N_i, e) prod C(b_k, e_k),
    and the C(b_k, e_k) are units.  So y^i survives iff some e in
    [n - i - B', n - i] with 0 <= e <= N_i has C(N_i, e) != 0 mod p.
    As N_i < 2p, Lucas's theorem makes those e every e <= N_i when
    N_i < p, and e in [0, N_i - p] or [p, N_i] otherwise.  The
    multiplicity is the least surviving i, and none survives exactly
    when the slice is zero."""
    r = len(bs)
    # the term count does not depend on the slot grouped by
    if counts is None:
        counts = _slice_sizes(bs, n, j2 - 1 if 1 <= j2 <= r else 0, budget)
    terms, shifted = counts
    if not terms:
        raise InvalidInput("multiplicity in the zero polynomial")
    _check_slice_terms(terms, budget)
    _check_labels(r, j1, j2)
    check_shift_budget(shifted, budget)
    alpha, beta = bs[j1 - 1], bs[j2 - 1]
    rest = sum(bs) - alpha - beta
    for i in range(beta + 1):
        big_n = alpha + beta - i
        lo, hi = max(0, n - i - rest), min(big_n, n - i)
        if lo <= hi and (big_n < p or lo <= big_n - p or hi >= p):
            return i
    raise InternalError(f"nonzero slice {bs} at degree {n} with no surviving shift")


def _refuse_phi_composite(ctx: OrbitContext, budget: int) -> None:
    """Raise, before any entry is built, the error FpMultiPoly.mul would
    raise in h0's walk-by-walk composite of a chain whose kinds are all
    phi or phi_dual, by the same check_product_budget rule.  The counts
    are exact: slice coefficients are units and slice exponents are below
    p, so twisted factors multiply without collisions.  When a slice is
    over the budget, build_chain refuses it by its count, before its
    terms are walked."""

    def size(w, jp, j):
        bs = branch_exponents(ctx.datum, ctx.p, w)
        return _slice_counts(bs, sum(bs) - (ctx.p * j - jp))[0]

    sizes = _layers(ctx, ctx.l, size, None)
    if any(n > budget for mat in sizes for row in mat for n in row):
        return
    for J in _paths(ctx.dims):
        walk = (mat[J[i + 1] - 1][J[i] - 1] for i, mat in enumerate(sizes))
        for terms in itertools.accumulate(walk, operator.mul):
            check_product_budget(terms, budget, terms)


def h0(ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET) -> FpMultiPoly:
    """Scalar twisted composite of the full chain, as the path sum

        h0 = sum_J prod_i A_i(J(i+1), J(i)) ** (p ** (l-1-i)).

    Grows like p^l; the budget turns infeasible requests into an error,
    raised before the chain is built when every step has kind phi or
    phi_dual."""
    if all(k in (KIND_PHI, KIND_PHI_DUAL) for k in ctx.kinds):
        _refuse_phi_composite(ctx, budget)
    return _composite(
        build_chain(ctx, budget),
        ctx.dims,
        FpMultiPoly.constant(ctx.field, ctx.datum.r, 1),
        lambda a, b: a.mul(b, budget),
    )


def specialize_infty(f: FpMultiPoly) -> FpUniPoly:
    """Substitute (x_1, x_2, x_3, x_4) = (infinity, t, 1, 0): keep the
    monomials maximizing the exponent gap between x_1 and x_4, then read
    off the x_2-polynomial with the other variables set to 1."""
    if f.r != 4:
        raise ParamOutOfRange("specialization is defined for four branch points")
    if f.is_zero:
        return FpUniPoly.zero(f.field)
    gap = max(e[0] - e[3] for e in f.terms)
    kept = {e: c for e, c in f.terms.items() if e[0] - e[3] == gap}
    filtered = FpMultiPoly(f.field, 4, kept)
    return filtered.substitute_values({0: 1, 2: 1, 3: 1}).to_unipoly(1)


def _phi_fabc_params(p: int, bs, n: int) -> Optional[tuple]:
    """(params, unit) with the specialized degree-n slice of
    prod_k (1 + x_k)^{b_k}, signed by (-1)^n, equal to unit * f(params)
    (the closed form of the module docstring); None when the slice is
    zero.  phi entries and the slices of psi entries take it."""
    if not 0 <= n <= sum(bs):
        return None
    e1 = min(bs[0], n)
    e4 = max(0, n - bs[0] - bs[1] - bs[2])
    unit = binomial_mod_p(bs[0], e1, p) * binomial_mod_p(bs[3], e4, p) % p
    if n % 2:
        unit = p - unit
    return FabcParams(bs[1], bs[2], n - e1 - e4, p), unit


def phi_specialized(ctx: OrbitContext, tau: int, jp: int, j: int) -> FpUniPoly:
    """Univariate phi entry after specialization, in the context's branch
    order: the closed form of the module docstring at N = s - p*j + jp,
    with no multivariate entry built."""
    if ctx.datum.r != 4:
        raise ParamOutOfRange("specialized entries need four branch points")
    p = ctx.p
    _check_phi_index(ctx.datum.m, p, ctx.sig, tau, jp, j)
    bs = branch_exponents(ctx.ordered_datum, p, tau)
    closed = _phi_fabc_params(p, bs, sum(bs) - (p * j - jp))
    if closed is None:
        return FpUniPoly.zero(ctx.field)
    params, unit = closed
    return fabc(params).scale(unit)


def psi_specialized(ctx: OrbitContext, tau: int, jp: int, j: int) -> FpUniPoly:
    """Univariate psi entry after specialization, in the context's branch
    order: the closed form of the module docstring at n = s - p*j
    (_psi_closed_form), with no multivariate entry built."""
    if ctx.datum.r != 4:
        raise ParamOutOfRange("specialized entries need four branch points")
    _check_psi_index(ctx.datum.m, ctx.p, ctx.sig, tau, jp, j)
    bs = branch_exponents(ctx.ordered_datum, ctx.p, tau)
    return _psi_closed_form(ctx.field, bs, sum(bs) - ctx.p * j, jp)


def _psi_closed_form(field: PrimeField, bs, n: int, jp: int) -> FpUniPoly:
    """Specialization of -sum_k b_k (-1)^n S_k qhat_k (S_k the degree-n
    slice of b - e_k, qhat_k at row jp), for any exponents b_k < p, from
    the slots with the largest gap (the module docstring): slot 4 or
    slot 1 alone, or the tie of slots 2, 3 (and 4) by Euler's identity,
    and the next gap where that tie cancels at row 2 with b_1 = 0 and
    n = -1 mod p.  That takes one f(a,b,c) for every psi entry and at most
    two otherwise.  Raises InternalError where any other tie cancels,
    which no psi entry reaches."""
    p = field.p
    b1, b2, b3, b4 = bs
    if not 0 <= n < b1 + b2 + b3 + b4:
        return FpUniPoly.zero(field)
    if b2 + b3 and not (b4 and (jp == 1 or n >= b1 + b2 + b3)):
        # the tie: the slice of b itself has its unit and f(b_2, b_3, c)
        params, unit = _phi_fabc_params(p, bs, n)
        c = params.c
        terms = [((b2 + b3 + b4 - c) * unit, params, (1, 1)),
                 (-(c + 1) * unit, FabcParams(b2, b3, c + 1, p), (1,))]
        if jp == 2 and b1 == 0 and (n + 1) % p == 0:
            terms = [(b4 * unit, params, (0, 1))]  # the tie cancels: the next gap
    else:
        k = 3 if b4 else 0
        params, unit = _phi_fabc_params(p, bs[:k] + (bs[k] - 1,) + bs[k + 1:], n)
        terms = [(bs[k] * unit, params, (1, 1) if k == 3 and jp == 2 else (0, 1))]
    sign = 1 if jp % 2 else -1  # -(-1)^(4-jp)
    entry = sum((fabc(params).scale(coef * sign) * FpUniPoly(field, qtop)
                 for coef, params, qtop in terms if coef % p), FpUniPoly.zero(field))
    if entry.is_zero:
        raise InternalError(f"psi slices of {tuple(bs)} at degree {n}, row {jp}: the top-gap terms cancel")
    return entry


def specialized_chain(ctx: OrbitContext) -> tuple:
    """The univariate chain matrices A_0..A_{i0-1} after specialization."""
    if ctx.datum.r != 4:
        raise ParamOutOfRange("specialized chains need four branch points")
    phi = functools.partial(phi_specialized, ctx)
    psi = functools.partial(psi_specialized, ctx)
    return _layers(ctx, ctx.i0, phi, psi)


def h1(ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET) -> FpUniPoly:
    """Twisted composite of the specialized chain over the first i0 steps:

        h1 = A_{i0-1} . A_{i0-2}^(p) . ... . A_0^(p^(i0-1)),

    a 1x1 matrix read off as a polynomial in t.  It divides the full
    specialized composite, so any root off {0, 1} certifies a
    non-ordinary member of the family."""
    return _heads(ctx.field, _budgeted_chain(ctx, budget))[-1][0]


def _budgeted_chain(ctx: OrbitContext, budget: int) -> tuple:
    """specialized_chain, refused when the composite's degree estimate
    sum_i p^(i0-1-i) * (largest entry degree of layer i) reaches the
    budget.  A chain of one phi entry is refused before it is built, by
    h1_fabc_params' check of the entry's degree min(a, c), the same
    estimate."""
    h1_fabc_params(ctx, budget)
    layers = specialized_chain(ctx)
    est = 0
    for i, mat in enumerate(layers):
        dmax = max((e.degree or 0) for row in mat for e in row)
        est += dmax * (ctx.p ** (ctx.i0 - 1 - i))
    _check_composite_degree(est, budget)
    return layers


def _check_composite_degree(est: int, budget: int) -> None:
    if est >= budget:
        raise DegreeBudgetExceeded(
            f"composite degree ~{est} exceeds the budget {budget}"
        )


def h1_fabc_params(
    ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET
) -> Optional[FabcParams]:
    """Parameters with h1 = unit * f(a,b,c), when h1 is a single nonzero
    phi entry: i0 = 1, so dims (1, 1), and the one step has kind phi (the
    closed form of _phi_fabc_params).  This is every balanced pair's
    chain when p = +-1 mod m.  None for every other chain shape and for a
    zero entry.

    Refuses, exactly as h1 does, when the entry degree min(a, c) reaches
    the budget."""
    if ctx.datum.r != 4 or ctx.i0 != 1 or ctx.kinds[0] != KIND_PHI:
        return None
    bs = branch_exponents(ctx.ordered_datum, ctx.p, ctx.chain_chars[0])
    closed = _phi_fabc_params(ctx.p, bs, sum(bs) - ctx.p + 1)
    if closed is None:
        return None
    params = closed[0]
    _check_composite_degree(min(params.a, params.c), budget)
    return params


@dataclass(frozen=True)
class H1Profile:
    """Exact shape data of h1 extracted without expanding the composite."""

    v_t: int
    degree: int
    value_at_one: int


def h1_profile(ctx: OrbitContext) -> H1Profile:
    """Valuation at 0, degree, and value at 1 of h1, computed layer by
    layer: values at 1 are Frobenius-fixed so they compose as a plain
    matrix product, and for p > 3m the per-entry valuations and degrees
    sit below p, making the walk sums base-p digits that cannot collide
    or cancel."""
    p = ctx.p
    if p <= 3 * ctx.datum.m:
        raise HypothesisNotMet(
            f"profile extraction needs p > 3m (p = {p}, m = {ctx.datum.m})"
        )
    layers = specialized_chain(ctx)
    for entry in (e for mat in layers for row in mat for e in row):
        if entry.is_zero:
            raise HypothesisNotMet("vanishing chain entry; profile laws do not apply")
        ev, ed = entry.valuation_at(0), entry.degree
        if not (ev < p and ed < p):
            raise InternalError(
                f"chain entry of degree {ed} (valuation {ev}) reaches p = {p}"
            )
    vmin, dmax, vals = [0], [0], [1]  # indexed by J(i) - 1
    for i, mat in enumerate(layers):
        w = p ** (ctx.i0 - 1 - i)
        vmin = [min(vmin[j] + w * e.valuation_at(0) for j, e in enumerate(row)) for row in mat]
        dmax = [max(dmax[j] + w * e.degree for j, e in enumerate(row)) for row in mat]
        vals = [sum(vals[j] * e.evaluate(1) for j, e in enumerate(row)) % p for row in mat]
    return H1Profile(v_t=vmin[0], degree=dmax[0], value_at_one=vals[0])


def _check_labels(r: int, j1: int, j2: int) -> None:
    if not (1 <= j1 <= r and 1 <= j2 <= r) or j1 == j2:
        raise IndexOutOfRange(f"need two distinct labels in 1..{r}")


def divisor_multiplicity(
    h: FpMultiPoly, j1: int, j2: int, budget: int = DEFAULT_TERM_BUDGET
) -> int:
    """Multiplicity of (x_{j1} - x_{j2}) in h (1-based variable labels),
    read off as the least exponent of the shifted variable after the
    substitution x_{j2} -> x_{j1} + x_{j2}."""
    if h.is_zero:
        raise InvalidInput("multiplicity in the zero polynomial")
    _check_labels(h.r, j1, j2)
    shifted = h.substitute_shift(j2 - 1, j1 - 1, budget)
    return shifted.min_exponent(j2 - 1)


def h0_divisor_multiplicity(
    ctx: OrbitContext, j1: int, j2: int, budget: int = DEFAULT_TERM_BUDGET
) -> int:
    """Multiplicity of (x_{j1} - x_{j2}) in h0.

    When every chain layer is 1x1 the composite is a plain product of
    entries raised to p-powers (over F_p the exponent twist e -> p*e is
    the p-th power map on polynomials), so the valuation splits as
    sum_i p^{l-1-i} * v(entry_i) without expanding the product.  A phi
    or phi_dual entry's valuation is read off its branch exponents
    (_slice_multiplicity), so no chain and no slice is built; a psi entry
    is built and shifted.  One loop over the steps checks every phi
    slice's size and builds every psi entry before any valuation is
    taken, and the valuations then come in step order, each with its
    checks in the order zero slice, term budget, labels, shift budget;
    so each refusal is the one that building the chain and then shifting
    its entries gives.  Chains with wider layers fall back to expanding h0.

    A phi slice's sizes feed only the two budget checks, so they are
    counted exactly only when the product bound fails (_slice_sizes): a
    slice of prod_s (b_s + 1) = P terms at most, whose shift writes at
    most (b_{j2} + 1) P terms, passes both checks whenever P <= budget and
    (b_{j2} + 1) P <= 8 * budget, and it is zero exactly when
    n < 0 or n > sum(bs)."""
    if not all(d == 1 for d in ctx.dims):
        return divisor_multiplicity(h0(ctx, budget), j1, j2, budget)
    p = ctx.p
    k = j2 - 1 if 1 <= j2 <= ctx.datum.r else 0
    steps = []
    for kind, w in zip(ctx.kinds, ctx.chain_chars):
        if kind in (KIND_PHI, KIND_PHI_DUAL):
            bs = branch_exponents(ctx.datum, p, w)
            n = sum(bs) - p + 1
            sizes = _slice_sizes(bs, n, k, budget)
            _check_slice_terms(sizes[0], budget)
            steps.append((bs, n, sizes))
        else:
            steps.append(psi_entry(ctx.datum, p, w, 1, 1, budget))
    total = 0
    for step in steps:
        if isinstance(step, FpMultiPoly):
            v = divisor_multiplicity(step, j1, j2, budget)
        else:
            bs, n, sizes = step
            v = _slice_multiplicity(p, bs, n, j1, j2, budget, sizes)
        total = total * p + v
    return total


def divisor_bound(ctx: OrbitContext, j1: int, j2: int) -> int:
    """Upper bound sum_i p^{l-1-i} * max(0, b_{j1} + b_{j2} - (p - 3)) for
    the multiplicity of (x_{j1} - x_{j2}) in h0, with the branch exponents
    taken at each step's chain character."""
    _check_labels(ctx.datum.r, j1, j2)
    total = 0
    for i in range(ctx.l):
        bs = branch_exponents(ctx.datum, ctx.p, ctx.chain_chars[i])
        t_i = max(0, bs[j1 - 1] + bs[j2 - 1] - (ctx.p - 3))
        total += (ctx.p ** (ctx.l - 1 - i)) * t_i
    return total


def _strip_01(f: FpUniPoly) -> FpUniPoly:
    """Divide out all t and (t - 1) factors."""
    return f.strip_root(0)[1].strip_root(1)[1]


def h1_radical(ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET) -> FpUniPoly:
    """Monic product of the distinct irreducible factors of h1 away from
    t and t - 1; the constant 1 when h1 has no root off {0, 1}.

    When h1 is one nonzero phi entry, a unit times f(a,b,c) by the
    closed form of the module docstring (h1_fabc_params; every balanced
    pair's chain when p = +-1 mod m), the radical is f(a',b',c') made
    monic (fabc(..., monic=True), from the ratios of its terms), with
    (a',b',c') = strip(a,b,c).reduced, and neither h1 nor
    gcd(f, f') is computed.  Proof:
      * strip's identity f(a,b,c) = +-t^s (t-1)^u f(a',b',c'), with
        f(a',b',c') nonzero at 0 and 1, removes the roots at 0 and 1
        exactly.
      * g = f(a',b',c') satisfies the hypergeometric equation
        t(1-t) g'' + (b'-c'+1 + (a'+c'-1) t) g' - a'c' g = 0, because
        the coefficients u_i of g obey
        (i+1)(b'-c'+i+1) u_{i+1} = (i-a')(i-c') u_i over Z, hence over
        F_p.  Its only finite singular points are 0 and 1.
      * Let z, in an extension of F_p, be a double root outside {0, 1}:
        g(z) = g'(z) = 0.  The equation differentiated k times has
        leading term t(1-t) g^(k+2), and t(1-t) is a unit at z, so by
        induction every derivative of g vanishes at z.  As
        deg g <= a' < p, every k! up to deg g is a unit, so Taylor
        expansion at z forces g = 0.  But g has a unit coefficient.
    So g is squarefree and is its own radical away from 0 and 1.

    Every other chain shape takes the radical from the chain's last
    layer, with no gcd at the full degree of h1.  The heads of _heads,
    H_0 = (1) and H_{i+1} = A_i . H_i^(p), end in H_{i0} = h1, and
    _row_radical takes rad X for X = sum_j c_j Y_j^p, where (c_j) is a
    row of layer i and Y_j = H_i[j]; h1 is the last layer's one row.
    Here rad is taken away from t and t - 1: no step leaves either in
    place (the last case below says how h is rid of them).  Terms with
    c_j = 0 or Y_j = 0 drop out, and for four branch points at most two
    remain (the signature is at most 2).  Over F_p, (Y^p)' = 0.  Proof,
    by cases:
      * No term: X = 0; for h1 that is the vanishing composite.
      * One term: X = c Y^p, so rad X = lcm(rad c, rad Y), and Y = H_i[j]
        is the sum over row j of layer i - 1 (rad H_0 = 1).
      * Two terms with W = c_1' c_2 - c_1 c_2' = 0.  With g = gcd(c_1, c_2)
        and c_k = g a_k, W = g^2 (a_1' a_2 - a_1 a_2'); a_1 and a_2 are
        coprime, so a_1 divides a_1', and a_1' = a_2' = 0.  Hence
        a_k = alpha_k^p with alpha_k read off every p-th coefficient (a
        constant when the entries have degree below p), and
        X = g (alpha_1 Y_1 + alpha_2 Y_2)^p.  The bracket is the sum over
        the row alpha_1 A_{i-1}[1] + alpha_2 A_{i-1}[2] of layer i - 1, so
        rad X = lcm(rad g, rad of the bracket), and X = 0 exactly when
        the bracket is.
      * Two terms with W != 0.  Let G = gcd(Y_1, Y_2) and Y_k = G Z_k, so
        X = G^p h with h = c_1 Z_1^p + c_2 Z_2^p and
        rad X = lcm(rad G, rad h).  As h' = c_1' Z_1^p + c_2' Z_2^p,
            c_2' h - c_2 h' = -W Z_1^p  and  c_1' h - c_1 h' = W Z_2^p.
        So h != 0 (else c_1 / c_2 = -(Z_2 / Z_1)^p and
        W = c_2^2 (c_1 / c_2)' = 0), and if pi^e exactly divides h with
        e >= 2, pi^(e-1) divides W Z_1^p and W Z_2^p, hence W, as Z_1 and
        Z_2 are coprime.  Let W_0 be W with every factor t and t - 1
        divided out, so v_pi(W_0) = v_pi(W) for every pi other than t
        and t - 1.  Such a pi, if it is not t or t - 1, then divides
        D = gcd(W_0, h), so v_pi(W_0 D) >= e.  D and W_0 D are prime to t
        and t - 1, so E = gcd(W_0 D, h) is the product of pi^e over those
        pi, times simple factors of h other than t and t - 1, and
        h / (E / rad E) has no repeated factor but t and t - 1.  When
        D = 1 there is no such pi, and h itself has none; in particular
        D = 1 when W_0 is a constant, and then no residue of h is taken.
        (With W in place of W_0, D is the same once t and t - 1 are
        divided out, and E differs only by powers of t and t - 1.)
        Every residue h mod n is c_1 (Z_1^p mod n) + c_2 (Z_2^p mod n),
        taken at the degree of n.
        - W's shape.  Past its v_0 roots at 0, let R be the rest of W,
          of degree n.  If W_0 is a constant, R = W_0 (t - 1)^n.  When
          n < p every C(n, i) is a unit, so the terms of lc(R) (t - 1)^n,
          lc(R) C(n, i) (-1)^(n-i), are nonzero and go up by the ratio
          (i - n) / (i + 1), whose denominator i + 1 <= n is a unit; one
          ratio run builds them, and R equals them exactly when W_0 is
          the constant lc(R), found in O(n) with no pass per root at 1.
          Any other R, or n >= p, takes the generic strip.
        - h monic.  c_k Z_k^p has degree deg c_k + p deg Z_k and top
          coefficient lc(c_k) lc(Z_k), as Frobenius fixes F_p.  So lc(h)
          is the top of the higher term, or the sum of both tops when
          the degrees agree; c_1 and c_2 are scaled by 1 / lc(h), which
          scales h and each residue of h by one unit and leaves every
          gcd and quotient as it was.  Only when the tops cancel is h
          made monic after it is built.
        - The ends.  For x in F_p, Z^p(x) = Z(x)^p = Z(x), so
          h(0) = sum c_k(0) Z_k(0) and h(1) = sum c_k(1) Z_k(1) come from
          the short factors.  Every other factor of the result is prime
          to t and t - 1: rad G, and E, a divisor of W_0 D.  So the
          result has the roots at 0 and 1 that h has, and h is stripped
          only when h(0) or h(1) is 0.
    The gcds run on entries of degree below p, on W_0 and W_0 D of degree
    below 2p and 4p, and on G at the degree of H_{i0-1}, about deg h1 / p.
    The radical is unique, so this is the radical of the stripped h1."""
    return h1_radical_params(ctx, budget)[0]


def h1_radical_params(
    ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET
) -> tuple:
    """(h1_radical(ctx, budget), P): P = strip(h1_fabc_params(ctx)).reduced
    when h1 is one nonzero phi entry, so that the radical is
    fabc(P, monic=True), and None for every other chain shape."""
    params = h1_fabc_params(ctx, budget)
    if params is not None:
        reduced = strip(params).reduced
        return fabc(reduced, monic=True), reduced
    rad = _layers_radical(_budgeted_chain(ctx, budget))
    if rad is None:
        raise HypothesisNotMet(
            "chain composite vanishes identically; every parameter is a witness"
        )
    return rad, None


def _layers_radical(layers) -> Optional[FpUniPoly]:
    """Radical away from t and t - 1 of the twisted composite of univariate
    layers A_0..A_{i0-1} (first and last dimension 1), by the cases of
    h1_radical's docstring; None when the composite is 0."""
    heads = _heads(layers[0][0][0].field, layers[:-1])
    return _row_radical(layers, heads, len(layers) - 1, layers[-1][0])


def _radical_01(f: FpUniPoly) -> FpUniPoly:
    """Monic product of the distinct irreducible factors of f != 0 other
    than t and t - 1."""
    parts = _squarefree_parts(_strip_01(f).monic())
    return functools.reduce(operator.mul, parts, FpUniPoly.one(f.field))


def _lcm(a: FpUniPoly, b: FpUniPoly) -> FpUniPoly:
    """Lcm of monic a and b, its gcd taken at the smaller degree."""
    if a.degree > b.degree:
        a, b = b, a
    if a.degree == 0:
        return b
    return b * (a // a.gcd(b % a))


def _row_radical(layers, heads, i: int, row) -> Optional[FpUniPoly]:
    """For X = sum_j row[j] * heads[i][j]^p, by the cases of h1_radical's
    docstring: the monic product of the distinct irreducible factors of X
    other than t and t - 1; None when X = 0."""
    terms = [(c, y, j) for j, (c, y) in enumerate(zip(row, heads[i])) if not (c.is_zero or y.is_zero)]
    if not terms:
        return None
    if len(terms) == 1:
        ((c, y, j),) = terms
        inner = _row_radical(layers, heads, i - 1, layers[i - 1][j]) if i else y
        return _lcm(_radical_01(c), inner)
    (c1, y1, _), (c2, y2, _) = terms
    w = c1.derivative() * c2 - c1 * c2.derivative()
    if w.is_zero:
        g = c1.gcd(c2)
        alphas = [FpUniPoly(g.field, (c // g).coeffs[:: g.field.p]) for c in (c1, c2)]
        bracket = tuple(alphas[0] * e1 + alphas[1] * e2 for e1, e2 in zip(*layers[i - 1]))
        inner = _row_radical(layers, heads, i - 1, bracket)
        return None if inner is None else _lcm(_radical_01(g), inner)
    g = y1.gcd(y2)
    z1, z2 = y1 // g, y2 // g
    field = g.field
    p = field.p
    # the top of h = c_1 Z_1^p + c_2 Z_2^p from the tops of its two terms;
    # 1 / lc(h) is folded into c_1 and c_2, so that h is built monic
    tops = [(c.degree + p * z.degree, c.coeffs[-1] * z.coeffs[-1]) for c, z in ((c1, z1), (c2, z2))]
    top = max(d for d, _ in tops)
    lc = sum(u for d, u in tops if d == top) % p
    if lc:
        inv = field.inv(lc)
        c1, c2 = c1.scale(inv), c2.scale(inv)

    def h_mod(n):
        return (c1 * poly_powmod(z1, p, n) + c2 * poly_powmod(z2, p, n)) % n

    h = _twisted_row((c1, c2), (z1.coeffs, z2.coeffs), field)
    if not lc:
        h = h.monic()
    if not all(_twisted_ends((c1, c2), (z1, z2))):
        h = _strip_01(h)
    w0 = _strip_w(w)
    if w0.degree:
        d = w0.gcd(h_mod(w0))
        if d.degree:
            wd = w0 * d
            e = wd.gcd(h_mod(wd))
            h = h // (e // _radical_01(e))
    rad_g = _radical_01(g)
    if rad_g.degree == 0:
        return h
    # the lcm: rad G is squarefree, so its gcd with rad h is its gcd with h
    return h * (rad_g // rad_g.gcd(h_mod(rad_g)))


def _strip_w(w: FpUniPoly) -> FpUniPoly:
    """_strip_01(w), with no pass per root at 1 when W is a unit times
    t^v_0 (t - 1)^n: past its roots at 0, W of degree n < p is compared
    with lc (t - 1)^n, whose terms lc C(n, i) (-1)^(n-i) come from one
    ratio run (every i + 1 <= n is a unit), and if they are equal, W_0 is
    the constant lc.  Any other W takes the generic strip."""
    rest = w.strip_root(0)[1]
    n, p = rest.degree, w.field.p
    if n < p:
        lc = rest.coeffs[-1]
        run = _ratio_run(range(-n, 0), range(1, n + 1), p, (-1) ** n * lc % p)
        if tuple(run) == rest.coeffs:
            return FpUniPoly._raw(w.field, [lc])
    return rest.strip_root(1)[1]


def _twisted_ends(cs, zs) -> tuple:
    """(h(0), h(1)) for h = sum_k c_k Z_k^p (every c_k and Z_k nonzero),
    read off the short factors: Z^p(x) = Z(x)^p = Z(x) at every x of
    F_p, so h(0) sums c_k(0) Z_k(0) and h(1) sums c_k(1) Z_k(1), each
    value at 1 a coefficient sum."""
    p = cs[0].field.p
    pairs = [(c.coeffs, z.coeffs) for c, z in zip(cs, zs)]
    return (sum(c[0] * z[0] for c, z in pairs) % p,
            sum(sum(c) * sum(z) for c, z in pairs) % p)


@dataclass(frozen=True)
class Witness:
    """A certified non-ordinary member: the certificate is the least
    irreducible factor of h1_radical (by degree, then coefficients) and
    alpha a root of it in the branch coordinates fixed by branch_order,
    or None when the certificate's degree exceeds the cap.  count is the
    number of distinct roots of h1 off {0, 1}."""

    alpha: Optional[object]
    degree: int
    certificate: FpUniPoly
    branch_order: tuple
    count: int


def nonordinary_witness(
    ctx: OrbitContext, dmax: int, seed: int, budget: int = DEFAULT_TERM_BUDGET
) -> Optional[Witness]:
    """Root of h1 off {0, 1}, as a concrete extension-field element.

    The certificate is the least irreducible factor of h1_radical, unique,
    so it does not depend on the seed, which drives only the equal-degree
    split of the lowest-degree factors.  When the radical is
    fabc(P, monic=True) for reduced parameters P = (a, a, c) of
    h1_radical_params (one phi entry; every balanced pair's chain when
    p = +-1 mod m has one), fabc_least_irreducible finds it, and for even
    c its distinct-degree search runs in Kummer's variable at half the
    degree (its docstring has the proofs: an irreducible factor of degree
    e of R(u) = Q(4u) gives two t-factors of degree e when 1 - 4u is a
    square in F_{p^e} and one of degree 2e when it is not).  strip leaves
    P with f(0) f(1) != 0, as that function needs.  Every other radical
    takes least_factor.  Returns None only when h1 has no root off {0, 1}
    (for p > 3m that cannot happen)."""
    if dmax < 1:
        raise ParamOutOfRange("dmax must be >= 1")
    rad, params = h1_radical_params(ctx, budget)
    if rad.degree == 0:
        return None
    if params is not None and params.a == params.b:
        cert = fabc_least_irreducible(params, seed)
    else:
        cert = least_factor(rad, seed)
    if cert.degree == 1:
        # root in the prime field itself; the certificate is monic
        alpha = -cert.coeffs[0] % ctx.p
    elif cert.degree <= dmax:
        alpha = ExtField(ctx.field, cert, check=False).generator()
    else:
        alpha = None
    return Witness(alpha, cert.degree, cert, ctx.branch_order, rad.degree)


def witness_count(ctx: OrbitContext, budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Number of distinct roots of h1 outside {0, 1}."""
    return h1_radical(ctx, budget).degree
