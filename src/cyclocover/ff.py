"""Exact arithmetic over F_p and F_{p^d}.

Univariate polynomials are dense coefficient tuples (lowest degree first),
except that Frobenius twists, divided-power derivatives and the products
they enter stay in a sparse (exponent, residue) form until something asks
for the dense tuple.  Multivariate ones are sparse maps from exponent
tuples to residues.  All values are immutable after construction; the
randomized factorization steps take an explicit seed so runs are
reproducible.

Dense products, division and gcd take plain coefficient lists.  With
M(n) the cost of one n-coefficient product, CPython's Karatsuba on a
Kronecker-packed integer, so about n^1.58 word operations with a small
constant:
  - multiplication: M(n) at every size; a sum of twisted products
    sum c(t) y(t^q) takes one product per pair, with y spread to every
    q-th slot, and one unpacking;
  - division: one fused pass for a linear quotient; for a quotient of
    n >= 32 coefficients by a divisor of degree d, Newton inversion of
    one series of length L <= max(d, 32), reused for each of the
    ceil(n / max(d, 32)) equal blocks of the quotient, so O(M(n)) for
    n <= d and O((n / d) M(d)) above; schoolbook (quotient length times
    divisor length) otherwise;
  - gcd: below 6,000 coefficients, Euclid on Kronecker-packed integers:
    O(n^2) word operations in C, a handful of integer operations per
    quotient term and per remainder, and no Python loop over
    coefficients; from 6,000 on, half-gcd, O(M(n) log n);
  - powmod mod f of degree n: below n = 512, square-and-multiply on
    Kronecker-packed integers, each product reduced by a polynomial
    Barrett step with one inverse series per modulus, so 3 M(n) and no
    Python loop over coefficients per step; from 512 on, one product and
    one division on lists per step.
"""

from __future__ import annotations

import functools
import random
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, zip_longest
from typing import Iterable, Optional

from .errors import DegreeBudgetExceeded, InternalError, InvalidInput, ParamOutOfRange

DEFAULT_TERM_BUDGET = 10**7


def check_product_budget(pairs: int, budget: int, terms: int = 0) -> None:
    """Refuse a product touching over 4 * budget term pairs, or, once
    formed, with over budget terms."""
    if pairs > 4 * budget:
        raise DegreeBudgetExceeded(f"product would touch ~{pairs} term pairs")
    if terms > budget:
        raise DegreeBudgetExceeded(f"product has {terms} terms (budget {budget})")


def check_shift_budget(terms: int, budget: int) -> None:
    """Refuse a substitute_shift that writes over 8 * budget terms."""
    if terms > 8 * budget:
        raise DegreeBudgetExceeded("substitution exceeded the term budget")


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=4096)
def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for an odd prime p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 3 or p >= 2**31:
            raise ParamOutOfRange(f"p must be an odd prime in [3, 2^31): got {p}")
        if p % 2 == 0 or not is_prime_u64(p):
            raise ParamOutOfRange(f"p must be an odd prime: got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def elem(self, x: int) -> int:
        return x % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(x, self.p - 2, self.p)


# Coefficient-list kernels.  Operands are sequences of residues in [0, p),
# lowest degree first, with no trailing zeros (the zero polynomial is
# empty); results are lists in the same form.  The thresholds below were
# set by timing the kernels against each other (Python 3.11.7, x86-64).

# gcd runs Euclid on packed integers below this many coefficients,
# half-gcd from here on (the two cost about the same from 4,000 to 10,000
# coefficients; half-gcd wins above)
_HGCD_MIN = 6000
# The half-gcd recursion ends in Euclid with cofactors below this size.
_HGCD_BASE = 100
# Divisions with a quotient of at least this many coefficients find it by
# Newton iteration, and gcd takes such a quotient on lists before packing.
_NEWTON_MIN = 32
# poly_powmod runs on packed integers for moduli of degree 2 up to below
# this, on lists from here on: its slots are up to twice as wide as a
# list product's (64 against 32 bits at p = 2039), which from about 512
# coefficients costs more than the list path's division does
_POWMOD_PACKED_MAX = 512

_BIG_ENDIAN = sys.byteorder == "big"
# array typecodes of 1-, 2-, 4- and 8-byte unsigned slots, by size
_SLOT_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _pack(coeffs, size: int, step: int = 1) -> int:
    """Kronecker packing: sum of coeffs[i] * 2^(8 size step i), one
    size-byte slot per coefficient every step slots (the slots between
    are zero), lowest degree in the lowest slot; coeffs is not empty."""
    if len(coeffs) == 1:
        step = 1  # one slot: no gap, however large step is
    code = _SLOT_CODES.get(size)
    if code is None:
        gap = bytes(size * (step - 1))
        return int.from_bytes(gap.join([c.to_bytes(size, "little") for c in coeffs]), "little")
    if step == 1:
        slots = array(code, coeffs)
    else:
        slots = array(code, bytes(size * (step * (len(coeffs) - 1) + 1)))
        slots[::step] = array(code, coeffs)
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(x: int, n: int, size: int, p: int) -> list:
    """The n lowest size-byte slots of x, lowest first, each reduced mod p."""
    buf = x.to_bytes(n * size, "little")
    if size < 8 and size not in _SLOT_CODES:
        # widen each slot to the next array item size, one byte column at
        # a time, so the slots are read in C
        wide = 1 << size.bit_length()
        out = bytearray(n * wide)
        for j in range(size):
            out[j::wide] = buf[j::size]
        buf, size = out, wide
    code = _SLOT_CODES.get(size)
    if code is None:
        return [int.from_bytes(buf[i:i + size], "little") % p for i in range(0, n * size, size)]
    slots = array(code)
    slots.frombytes(buf)
    if _BIG_ENDIAN:
        slots.byteswap()
    return [c % p for c in slots]


def _mul_coeffs(a, b, p: int) -> list:
    """Product of two coefficient lists.

    Kronecker substitution (Harvey 2009): each operand becomes one integer
    with a coefficient per fixed-width slot, CPython's Karatsuba multiplies
    the integers, and the product's slots hold the exact integer product
    coefficients, which are then reduced mod p.  A slot is wide enough for
    min(len a, len b) * (p-1)^2, so slots never carry into each other;
    up to 8 bytes it is widened to an array item size."""
    if not a or not b:
        return []
    size = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()  # an array item size: 1, 2, 4 or 8
    x = _pack(a, size)
    y = x if a is b else _pack(b, size)
    return _unpack(x * y, len(a) + len(b) - 1, size, p)


def _twisted_dot(pairs, q: int, p: int) -> list:
    """Sum of c(t) * y(t^q) over the pairs (c, y) of coefficient lists
    (q >= 1), as one trimmed coefficient list.

    Each nonzero pair is one Kronecker product (see _mul_coeffs): c with
    a slot per coefficient, times y spread to every q-th slot.  The
    products are added as integers, and the sum is unpacked once.

    The slot bound.  Slot s of one product is the sum of c_i y_k over
    i + k q = s with 0 <= i < len c.  Then i = s mod q, so at most
    ceil(len c / q) values of i occur, each fixing k, and the slot is
    at most ceil(len c / q) (p - 1)^2.  This holds also when deg c >= q,
    where the blocks c(t) y_k t^(kq) overlap.  Slots are nonnegative, so
    each slot of the sum is at most sum ceil(len c / q) (p - 1)^2 over
    the pairs.  The slots take the fewest bytes that hold this bound, so
    no slot carries into the next, and each slot of the sum is the exact
    integer coefficient before it is reduced mod p."""
    pairs = [(c, y) for c, y in pairs if c and y]
    if not pairs:
        return []
    bound = sum(-(-len(c) // q) for c, _ in pairs) * (p - 1) ** 2
    size = (bound.bit_length() + 7) // 8
    total = sum(_pack(c, size) * _pack(y, size, q) for c, y in pairs)
    n = max(len(c) + q * (len(y) - 1) for c, y in pairs)
    return _trimmed(_unpack(total, n, size, p))


def _trimmed(coeffs: list) -> list:
    """Drop trailing zeros in place."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    del coeffs[n:]
    return coeffs


def _sub_coeffs(a, b, p: int) -> list:
    if len(a) < len(b):
        return _trimmed([(x - y) % p for x, y in zip(a, b)] + [p - y if y else 0 for y in b[len(a):]])
    return _trimmed([(x - y) % p for x, y in zip(a, b)] + list(a[len(b):]))


def _add_coeffs(a, b, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _trimmed([(x + y) % p for x, y in zip(a, b)] + list(a[len(b):]))


def _divrem_coeffs(a, b, p: int) -> tuple:
    """Division of a by nonzero b: (quotient, remainder).

    A linear quotient takes one fused pass.  A block of l quotient
    coefficients depends only on the top 2l - 1 coefficients of the
    running remainder and the top l of b: from _NEWTON_MIN on, the
    quotient is cut into equal blocks of L <= max(deg b, _NEWTON_MIN)
    coefficients, one power-series inverse of the reversed top of b, of
    length L, gives them one at a time from the top, and each block then
    costs one product to update the remainder.  A short divisor thus
    never pays for a series as long as the whole quotient.  Otherwise
    each schoolbook quotient
    step adds a multiple of the negated divisor to the running remainder
    in one comprehension, reducing mod p only the leading coefficient it
    reads."""
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return [], list(a)
    inv = pow(b[-1], p - 2, p)
    if db == 0:
        return [c * inv % p for c in a], []
    if n == 2:
        q1 = a[-1] * inv % p
        q0 = (a[-2] - q1 * b[-2]) * inv % p
        rem = [(x - q0 * y - q1 * z) % p for x, y, z in zip(a[:db], b, chain((0,), b))]
        return [q0, q1], _trimmed(rem)
    if n >= _NEWTON_MIN:
        # equal blocks of at most max(deg b, _NEWTON_MIN) coefficients
        blocks = -(-n // max(db, _NEWTON_MIN))
        block = -(-n // blocks)
        inv_rev = _inverse_series(b[:-block - 1:-1], block, p)
        quot = [0] * n
        rem = list(a)
        for top in range(n, 0, -block):
            lo = max(0, top - block)
            rev_q = _mul_coeffs(rem[:lo + db - 1:-1], inv_rev[:top - lo], p)[:top - lo]
            quot[lo:top] = rev_q[::-1]
            # the top - lo leading coefficients of rem cancel; keep the db below
            low = _mul_coeffs(quot[lo:top], b, p)
            rem[lo:] = [(x - y) % p for x, y in zip(rem[lo:lo + db], low)]
        return quot, _trimmed(rem)
    neg = [p - c for c in b[:-1]]
    rem = list(a)
    quot = [0] * n
    for i in range(n - 1, -1, -1):
        c = rem[i + db] % p
        if c:
            q = c * inv % p
            quot[i] = q
            rem[i:i + db] = [x + q * y for x, y in zip(rem[i:i + db], neg)]
    return quot, _trimmed([c % p for c in rem[:db]])


def _inverse_series(f, n: int, p: int) -> list:
    """g with f * g = 1 mod t^n, for f[0] != 0, by Newton iteration
    g <- g - g (f g - 1), which doubles the precision of g per step."""
    g = [pow(f[0], p - 2, p)]
    k = 1
    while k < n:
        k, done = min(2 * k, n), k
        # f g - 1 vanishes below t^done; its next k - done coefficients
        # give the correction
        err = _mul_coeffs(f[:k], g, p)[done:k]
        g += [p - c if c else 0 for c in _mul_coeffs(g, err, p)[:k - done]]
        g += [0] * (k - len(g))
    return g


def _barrett_inverse(f, p: int) -> list:
    """t^(2n-2) div f for f of degree n >= 2, as the reversed inverse
    series of the reversed f (poly_powmod's mu, which proves it)."""
    return _inverse_series(f[::-1], len(f) - 2, p)[::-1]


_IDENTITY = ([1], [], [], [1])


def _apply(mat: tuple, a, b, p: int) -> tuple:
    """The pair mat * (a, b), for a 2x2 matrix (m00, m01, m10, m11)."""
    m00, m01, m10, m11 = mat
    return (
        _add_coeffs(_mul_coeffs(m00, a, p), _mul_coeffs(m01, b, p), p),
        _add_coeffs(_mul_coeffs(m10, a, p), _mul_coeffs(m11, b, p), p),
    )


def _quotient_step(mat: tuple, q, p: int) -> tuple:
    """[[0, 1], [1, -q]] * mat: the cofactors after one Euclid step."""
    m00, m01, m10, m11 = mat
    if len(q) == 2:
        # a linear quotient: each new cofactor in one fused pass
        q0, q1 = q
        return m10, m11, *(
            _trimmed([(x - q0 * y - q1 * z) % p
                      for x, y, z in zip_longest(u, v, chain((0,), v), fillvalue=0)])
            for u, v in ((m00, m10), (m01, m11))
        )
    return (m10, m11, _sub_coeffs(m00, _mul_coeffs(q, m10, p), p),
            _sub_coeffs(m01, _mul_coeffs(q, m11, p), p))


def _hgcd(a, b, p: int) -> tuple:
    """Half-gcd of a, b with deg a > deg b (Thull-Yap 1990; von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 11).

    Returns the matrix M of the Euclidean quotient steps of (a, b) whose
    image (c, d) = M * (a, b) satisfies deg c >= m > deg d, where
    m = ceil(deg a / 2).  The top halves of a and b fix the first half of
    the quotient sequence, so M comes from two recursive calls on inputs
    of about half the degree, with one explicit quotient step between."""
    m = len(a) // 2
    if len(b) <= m:
        return _IDENTITY
    if len(a) < _HGCD_BASE:
        mat = _IDENTITY
        while len(b) > m:
            q, r = _divrem_coeffs(a, b, p)
            a, b = b, r
            mat = _quotient_step(mat, q, p)
        return mat
    mat = _hgcd(a[m:], b[m:], p)
    c, d = _apply(mat, a, b, p)
    if len(d) <= m:
        return mat
    q, r = _divrem_coeffs(c, d, p)
    mat = _quotient_step(mat, q, p)
    if len(r) <= m:
        return mat
    k = 2 * m - (len(d) - 1)
    if k < 0:
        raise InternalError(f"half-gcd shift {k} < 0 (deg a = {len(a) - 1}, deg d = {len(d) - 1})")
    s00, s01, s10, s11 = _hgcd(d[k:], r[k:], p)
    m00, m01, m10, m11 = mat
    return (
        _add_coeffs(_mul_coeffs(s00, m00, p), _mul_coeffs(s01, m10, p), p),
        _add_coeffs(_mul_coeffs(s00, m01, p), _mul_coeffs(s01, m11, p), p),
        _add_coeffs(_mul_coeffs(s10, m00, p), _mul_coeffs(s11, m10, p), p),
        _add_coeffs(_mul_coeffs(s10, m01, p), _mul_coeffs(s11, m11, p), p),
    )


def _slot_layout(p: int, n: int, top: int = 0) -> tuple:
    """(size, X, M, burst, PAT) of a packed loop at p over n slots: slot
    bytes, the shift and multiplier of the slot-wise Barrett step, the
    most Euclid quotient terms between two reductions, and 2^(w - X) - 1
    in each of n slots of w = 8 size bits.  2^X exceeds top and is at
    least 2^(2k + 2), k = bitlen(p); w is the fewest whole bytes with
    2X <= w + k - 1, which the Barrett step needs.  _gcd_coeffs (top = 0,
    so w = 8 ceil((3k + 5) / 8)) and poly_powmod prove their bounds."""
    k = p.bit_length()
    size = (2 * max(2 * k + 2, top.bit_length()) - k + 8) // 8
    w = 8 * size
    x = (w + k - 1) // 2
    burst = ((1 << x) - 2 * p) // ((p - 1) * (2 * p - 1))
    pat = ((1 << w * n) - 1) // ((1 << w) - 1) * ((1 << w - x) - 1)
    return size, x, (1 << x) // p, burst, pat


def _reduce_slots(v: int, p: int, x: int, m: int, pat: int) -> int:
    """The slot-wise Barrett step: each slot of v below 2^x becomes the
    value in [0, 2p) congruent to it mod p."""
    return v - ((v * m >> x) & pat) * p


def _gcd_coeffs(a, b, p: int) -> list:
    """Monic gcd of two coefficient lists ([] when both are zero).

    A pair of _HGCD_MIN coefficients or more, or one whose quotient has
    _NEWTON_MIN coefficients or more, takes one step on lists and recurses
    on the smaller pair: a half-gcd call first when the divisor is more
    than half as long (it carries the degree to about half), then one
    division (Newton's for a long quotient).  Every other pair runs
    Euclid's loop on Kronecker-packed integers, so no Python loop runs
    over coefficients until the gcd is unpacked.

    Packing.  With k = bitlen(p), each coefficient takes a slot of
    w = 8 ceil((3k + 5) / 8) bits.  A quotient term q at shift s adds
    (p - q) * B << w s to A, so A's top slot becomes a multiple of p; it
    and the other slots from deg B up are cut off once the quotient is
    done.  Leading coefficients are read exactly, as slot % p, and top
    slots that are 0 mod p are dropped from the remainder; so a divisor's
    top slot is below 2p and a unit mod p, and pow(slot, -1, p), which
    reduces it first, is its inverse.

    Reduction.  After each remainder every slot is brought back to
    [0, 2p) at once by the slot-wise Barrett step
    A -= (((A * M) >> X) & PAT) * p, with X = floor((w + k - 1) / 2),
    M = floor(2^X / p) and PAT holding 2^(w - X) - 1 in every slot.  For
    a slot value v < 2^X: vM <= v 2^X / p < 2^(2X - k + 1) <= 2^w, since
    p > 2^(k-1) and 2X <= w + k - 1, so the slots of A * M do not overlap
    and each slot of the shifted and masked product is exactly
    floor(vM / 2^X) <= v / p.  As vM / 2^X >= v/p - v/2^X > v/p - 1,
    v - floor(vM / 2^X) p lies in [0, 2p), and no slot borrows from the
    next.

    The slot bound.  Every slot of A and B starts below 2p, and each
    quotient term adds at most (p - 1)(2p - 1) to a slot, so after c terms
    a slot is below 2p + c (p - 1)(2p - 1).  That is below 2^X for
    c <= burst = floor((2^X - 2p) / ((p - 1)(2p - 1))), and burst >= 2
    because X >= 2k + 2 gives 2^X >= 4 p^2 > (2p - 1)^2 + 1: a linear
    quotient never needs an extra reduction.  A longer quotient reduces A
    after every burst terms (at p near 2^31 burst is 16).

    Linear steps.  When deg A = deg B + 1, as at every step of a normal
    remainder sequence, both quotient terms come before any product: q1
    from A's top slot and q0 from A's slot db less q1 times B's slot
    db - 1, which is the slot the first term would leave there.  Then
    A += B ((p - q1) 2^w + (-q0 mod p)) adds the same two terms in one
    product, each multiplier below p, so the bound above holds as is."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) >= _HGCD_MIN and len(a) > len(b) > len(a) // 2:
        a, b = _apply(_hgcd(a, b, p), a, b, p)
    if b and (len(a) >= _HGCD_MIN or len(a) - len(b) >= _NEWTON_MIN):
        return _gcd_coeffs(b, _divrem_coeffs(a, b, p)[1], p)
    if not a:
        return []
    size, x, m, burst, pat = _slot_layout(p, len(a))
    w = 8 * size
    slot = (1 << w) - 1
    A, B = _pack(a, size), _pack(b, size)
    da, db = len(a) - 1, len(b) - 1
    while B:
        inv = pow(B >> w * db, -1, p)
        if da == db + 1:
            # both terms of a linear quotient in one product: q1 from A's
            # top slot, q0 from the slot db that A - q1 B t leaves, A's
            # slot db less q1 times B's slot db - 1 (none when db = 0)
            b1 = (B >> w * (db - 1)) & slot if db else 0
            q1 = (A >> w * da) * inv % p
            q0 = (((A >> w * db) & slot) - q1 * b1) * inv % p
            A += B * ((p - q1 << w) + (-q0 % p))
        else:
            for s in range(da - db, -1, -1):
                q = ((A >> w * (db + s)) & slot) * inv % p
                if q:
                    A += (p - q) * B << w * s
                if s and (da - db + 1 - s) % burst == 0:
                    A = _reduce_slots(A, p, x, m, pat)
        A = _reduce_slots(A & (1 << w * db) - 1, p, x, m, pat)
        dr = db - 1
        while dr >= 0 and ((A >> w * dr) & slot) % p == 0:
            dr -= 1
        if dr < db - 1:
            A &= (1 << w * (dr + 1)) - 1
        A, B, da, db = B, A, db, dr
    g = _unpack(A, da + 1, size, p)
    inv = pow(g[-1], p - 2, p)
    return [c * inv % p for c in g]


def _divide_linear(coeffs, c: int, p: int) -> tuple:
    """Synthetic (Horner) division by t - c: (quotient, remainder)."""
    acc = 0
    out = []
    for x in reversed(coeffs):
        acc = (acc * c + x) % p
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem


class FpUniPoly:
    """Univariate polynomial over F_p, lowest degree first.

    A polynomial built from a coefficient list is stored densely.  One
    built from its nonzero terms (Frobenius twists, D_{p^k}, and products
    with such a factor) keeps the sorted ``terms`` tuple of (exponent,
    residue) pairs instead, so a degree-3 twist by p^3 costs 4 entries,
    not 3p^3 + 1.  ``coeffs`` expands the dense tuple on demand and
    ``terms`` the sparse one; each is computed at most once.

    The zero polynomial has an empty coefficient tuple and degree None
    (never -1, so it cannot leak into index arithmetic).

    ``_barrett`` is the packed Barrett inverse that poly_powmod reduces by
    when this polynomial is the modulus, also computed at most once.
    """

    __slots__ = ("field", "_coeffs", "_terms", "_barrett")

    def __init__(self, field: PrimeField, coeffs: Iterable[int]):
        self.field = field
        self._coeffs = tuple(_trimmed([c % field.p for c in coeffs]))
        self._terms = None
        self._barrett = None

    @classmethod
    def _raw(cls, field: PrimeField, coeffs) -> "FpUniPoly":
        """Trusted dense constructor: coeffs are already residues in
        [0, p) with no trailing zeros, as the coefficient kernels return
        them, so neither the reduction nor the trim is repeated."""
        poly = object.__new__(cls)
        poly.field = field
        poly._coeffs = tuple(coeffs)
        poly._terms = None
        poly._barrett = None
        return poly

    @classmethod
    def _from_terms(cls, field: PrimeField, terms: dict) -> "FpUniPoly":
        """Sparse constructor from {exponent: coefficient}; coefficients
        are reduced mod p and zero residues dropped."""
        p = field.p
        poly = object.__new__(cls)
        poly.field = field
        poly._coeffs = None
        poly._terms = tuple(sorted((e, r) for e, c in terms.items() if (r := c % p)))
        poly._barrett = None
        return poly

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            out = [0] * (self._terms[-1][0] + 1) if self._terms else []
            for e, c in self._terms:
                out[e] = c
            self._coeffs = tuple(out)
        return self._coeffs

    @property
    def terms(self) -> tuple:
        """Sorted (exponent, residue) pairs of the nonzero coefficients."""
        if self._terms is None:
            self._terms = tuple((e, c) for e, c in enumerate(self._coeffs) if c)
        return self._terms

    @classmethod
    def zero(cls, field: PrimeField) -> "FpUniPoly":
        return cls(field, [])

    @classmethod
    def one(cls, field: PrimeField) -> "FpUniPoly":
        return cls(field, [1])

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> "FpUniPoly":
        return cls(field, [c])

    @property
    def is_zero(self) -> bool:
        return not (self._terms if self._coeffs is None else self._coeffs)

    @property
    def degree(self) -> Optional[int]:
        if self._coeffs is None:
            return self._terms[-1][0] if self._terms else None
        return len(self._coeffs) - 1 if self._coeffs else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpUniPoly) or other.field != self.field:
            return False
        if self._coeffs is None or other._coeffs is None:
            return self.terms == other.terms
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def _check(self, other: "FpUniPoly") -> None:
        if self.field != other.field:
            raise InvalidInput("mixed prime fields")

    def __add__(self, other: "FpUniPoly") -> "FpUniPoly":
        self._check(other)
        return FpUniPoly._raw(self.field, _add_coeffs(self.coeffs, other.coeffs, self.field.p))

    def __sub__(self, other: "FpUniPoly") -> "FpUniPoly":
        self._check(other)
        return FpUniPoly._raw(self.field, _sub_coeffs(self.coeffs, other.coeffs, self.field.p))

    def __neg__(self) -> "FpUniPoly":
        return FpUniPoly._raw(self.field, _sub_coeffs((), self.coeffs, self.field.p))

    def __mul__(self, other: "FpUniPoly") -> "FpUniPoly":
        self._check(other)
        if self._terms is None and other._terms is None:
            return FpUniPoly._raw(self.field, _mul_coeffs(self.coeffs, other.coeffs, self.field.p))
        out: dict = {}
        for i, c in self.terms:
            for j, d in other.terms:
                out[i + j] = out.get(i + j, 0) + c * d
        return FpUniPoly._from_terms(self.field, out)

    def scale(self, c: int) -> "FpUniPoly":
        c %= self.field.p
        return FpUniPoly(self.field, [c * x for x in self.coeffs])

    def frobenius_pow(self, k: int) -> "FpUniPoly":
        """self**(p**k), via the freshman's dream: exponents scale by p^k."""
        if k == 0 or self.is_zero:
            return self
        q = self.field.p**k
        return FpUniPoly._from_terms(self.field, {i * q: c for i, c in self.terms})

    def divrem(self, other: "FpUniPoly") -> tuple:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divrem_coeffs(self.coeffs, other.coeffs, self.field.p)
        return FpUniPoly._raw(self.field, quot), FpUniPoly._raw(self.field, rem)

    def __floordiv__(self, other: "FpUniPoly") -> "FpUniPoly":
        return self.divrem(other)[0]

    def __mod__(self, other: "FpUniPoly") -> "FpUniPoly":
        return self.divrem(other)[1]

    def monic(self) -> "FpUniPoly":
        """self over its leading coefficient: a unit times a trimmed list
        of residues stays trimmed, so one pass builds it."""
        if self.is_zero:
            return self
        p = self.field.p
        inv = self.field.inv(self.coeffs[-1])
        return FpUniPoly._raw(self.field, [inv * x % p for x in self.coeffs])

    def gcd(self, other: "FpUniPoly") -> "FpUniPoly":
        """Monic greatest common divisor."""
        self._check(other)
        return FpUniPoly._raw(self.field, _gcd_coeffs(self.coeffs, other.coeffs, self.field.p))

    def derivative(self) -> "FpUniPoly":
        p = self.field.p
        return FpUniPoly._raw(self.field, _trimmed([i * c % p for i, c in enumerate(self.coeffs)][1:]))

    def evaluate(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def valuation_at(self, c: int) -> int:
        """Largest k with (t-c)^k dividing self."""
        return self.strip_root(c)[0]

    def strip_root(self, c: int) -> tuple:
        """(k, self / (t-c)^k) for the largest k with (t-c)^k dividing
        self; one synthetic division by t - c per factor.  At c = 1 the
        remainder is the coefficient sum f(1), and the quotient's
        coefficients are the suffix sums q_i = a_(i+1) + ... + a_n."""
        if self.is_zero:
            raise InvalidInput("valuation of the zero polynomial")
        p = self.field.p
        c %= p
        coeffs = self.coeffs
        if c == 0:
            k = next(i for i, x in enumerate(coeffs) if x)
            return k, (FpUniPoly._raw(self.field, coeffs[k:]) if k else self)
        k = 0
        if c == 1:
            # highest degree first, so that each quotient is one accumulate
            rev = coeffs[::-1]
            while sum(rev) % p == 0:
                k += 1
                rev = [s % p for s in accumulate(rev[:-1])]
            return k, (FpUniPoly._raw(self.field, rev[::-1]) if k else self)
        while True:
            quot, rem = _divide_linear(coeffs, c, p)
            if rem:
                return k, (FpUniPoly._raw(self.field, coeffs) if k else self)
            k += 1
            coeffs = quot

    def to_text(self) -> str:
        """Canonical text form: 'c0 + c1*t + ...', zero terms omitted."""
        if self.is_zero:
            return "0"
        return " + ".join([
            f"{c}*t^{e}" if e > 1 else f"{c}*t" if e else str(c)
            for e, c in enumerate(self.coeffs) if c
        ])

    def to_json(self) -> list:
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"FpUniPoly(p={self.field.p}, {self.to_text()})"


def poly_powmod(base: FpUniPoly, e: int, mod: FpUniPoly) -> FpUniPoly:
    """base^e mod mod for an exponent e >= 0 (a negative one raises
    ParamOutOfRange); e = 0 gives 1 for every nonzero mod, even a
    constant one.

    For n = deg mod from 2 up to below _POWMOD_PACKED_MAX the
    square-and-multiply runs on Kronecker-packed integers (left to right,
    each product then reduced mod f = mod), so no Python loop runs over
    coefficients until the result is unpacked; other moduli take the same
    left-to-right loop on FpUniPoly products and remainders, so either
    way e costs bitlen(e) - 1 squarings and one product per further set
    bit.

    Reduction.  A product a of two residues of degree < n has degree at
    most 2n - 2; one below degree n needs no reduction mod f.  Otherwise,
    with mu = t^(2n-2) div f, found at the first product of degree >= n
    and kept on mod (packed: its slot size depends only on p and n), so
    every later power mod the same object reuses it, the quotient is
    Q = (a1 mu) div t^(n-2) for
    a = a1 t^n + a0, deg a0 < n (polynomial Barrett reduction).  Proof:
    write t^(2n-2) = mu f + rho and a1 mu = Q t^(n-2) + R, with
    deg rho < n and deg R < n - 2.  Then
    (a - Q f) t^(n-2) = a1 rho + a0 t^(n-2) + R f, each term of degree
    at most 2n - 3, so deg(a - Q f) < n and a - Q f = a mod f.  Hence
    a mod f = (a + Q (-f)) mod t^n, needing only the n low coefficients
    of -f.  On packed integers div and mod by a power of t are shifts and
    masks, which act slot by slot, so they commute with reducing the
    slots mod p.  mu is one reversed series inverse: t^(2n-2) = mu f + rho
    with t replaced by 1/t and multiplied by t^(2n-2) reads
    1 = rev(mu) rev(f) + t^(n-1) rev(rho), where rev reverses the n - 1
    coefficients of mu (the top one is 1 / lc f, not 0), the n + 1 of f
    and the n of rho.  So rev(mu) = 1 / rev(f) mod t^(n-1), a series
    whose constant term lc f is a unit.

    The slot bound.  The slot-wise Barrett step of _gcd_coeffs takes
    slots below 2^X to [0, 2p), and _slot_layout makes 2^X > 6 n p^2.
    Every packed residue has n slots in [0, 2p) (the base: [0, p)), and
    mu and -f have slots in [0, p).  A product of two residues has slots
    of at most n (2p - 1)^2 < 4 n p^2, and is reduced at once when its
    degree is below n; else its high part a1 is reduced, a1 mu has slots
    of at most (n - 1)(2p - 1)(p - 1) < 2 n p^2, and Q, reduced, has
    slots in [0, 2p); a + Q (-f) then has slots below
    4 n p^2 + 2 n p^2 = 6 n p^2 before its last reduction.  All these
    are below 2^X <= 2^w, so no slot carries into the next, and each
    value reduced has at most the n slots that PAT covers."""
    if e < 0:
        raise ParamOutOfRange(f"negative exponent {e}")
    n = mod.degree
    if n is None or not 2 <= n < _POWMOD_PACKED_MAX:
        base = base % mod
        if e == 0:
            return FpUniPoly.one(base.field)
        result = base
        for bit in bin(e)[3:]:
            result = (result * result) % mod
            if bit == "1":
                result = (result * base) % mod
        return result
    base._check(mod)
    field, p, f = mod.field, mod.field.p, mod.coeffs
    b = _divrem_coeffs(base.coeffs, f, p)[1]
    if e == 0 or not b:
        return FpUniPoly._raw(field, [1] if e == 0 else [])
    size, x, m, _, pat = _slot_layout(p, n, 6 * n * p * p)
    w = 8 * size
    neg = _pack([p - c if c else 0 for c in f[:n]], size)
    low = (1 << w * n) - 1
    mu = mod._barrett
    B, db = _pack(b, size), len(b) - 1
    R, dr = B, db
    for bit in bin(e)[3:]:
        # square, then multiply by the base where the bit is set
        for y, dy in ((R, dr), (B, db)) if bit == "1" else ((R, dr),):
            a, da = R * y, dr + dy
            if da < n:
                R, dr = _reduce_slots(a, p, x, m, pat), da
                continue
            if mu is None:
                mu = mod._barrett = _pack(_barrett_inverse(f, p), size)
            q = _reduce_slots(_reduce_slots(a >> w * n, p, x, m, pat) * mu >> w * (n - 2), p, x, m, pat)
            R, dr = _reduce_slots((a + q * neg) & low, p, x, m, pat), n - 1
    return FpUniPoly._raw(field, _trimmed(_unpack(R, dr + 1, size, p)))


def binomial_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem (products over base-p digits)."""
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        ki = min(ki, ni - ki)
        num = den = 1
        for i in range(ki):
            num = num * (ni - i) % p
            den = den * (i + 1) % p
        out = out * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return out


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity), factors monic irreducible."""

    unit: int
    factors: tuple  # of (FpUniPoly, int)

    def expand(self, field: PrimeField) -> FpUniPoly:
        out = FpUniPoly.constant(field, self.unit)
        for fac, mult in self.factors:
            for _ in range(mult):
                out = out * fac
        return out


def _squarefree_parts(f: FpUniPoly) -> dict:
    """Monic f -> {monic squarefree part: multiplicity}."""
    p = f.field.p
    res: dict = {}
    if f.degree == 0:
        return res
    fp = f.derivative()
    if fp.is_zero:
        # f = g(t^p) = g(t)^p over F_p; take the p-th root by exponent division
        root = FpUniPoly(f.field, [f.coeffs[i * p] for i in range(0, f.degree // p + 1)])
        for part, mult in _squarefree_parts(root).items():
            res[part] = res.get(part, 0) + mult * p
        return res
    g = f.gcd(fp)
    w = (f // g).monic()
    i = 1
    while w.degree and w.degree > 0:
        y = w.gcd(g)
        z = (w // y).monic()
        if z.degree and z.degree > 0:
            res[z] = res.get(z, 0) + i
        i += 1
        w = y
        g = (g // y).monic()
    if g.degree and g.degree > 0:
        for part, mult in _squarefree_parts(g).items():
            res[part] = res.get(part, 0) + mult
    return res


def _distinct_degree(f: FpUniPoly):
    """Monic squarefree f -> (product of irreducible factors of degree d, d)
    for d = 1, 2, ... in turn, the constant 1 at a degree with no factor,
    up to the largest factor degree.  Lazy: a consumer stops at the
    degree it needs and pays no powmod past it.

    Step d takes h = t^(p^d) mod cur as the p-th power of the last h, and
    splits off gcd(cur, h - t).  cur is a new object only when a block is
    found, so poly_powmod computes its Barrett inverse at the first step
    whose product reaches deg cur and reuses it at every later step until
    then: one inverse per modulus, not one per d.  Once deg cur < 2d, cur
    has no factor of degree below d, so it is irreducible: the steps up
    to deg cur need no powmod."""
    p = f.field.p
    t = FpUniPoly(f.field, [0, 1])
    one = FpUniPoly.one(f.field)
    h = t
    cur = f
    d = 0
    while cur.degree and cur.degree > 0:
        d += 1
        if cur.degree < 2 * d:
            for e in range(d, cur.degree):
                yield one, e
            yield cur, cur.degree
            return
        h = poly_powmod(h, p, cur)
        g = cur.gcd(h - t)
        if g.degree and g.degree > 0:
            yield g, d
            cur = (cur // g).monic()
            h = h % cur
        else:
            yield one, d


def _equal_degree_split(f: FpUniPoly, d: int, rng: random.Random) -> list:
    """Monic squarefree product of degree-d irreducibles -> list of them.

    Cantor-Zassenhaus: for a random u of degree < deg f, each factor pi
    sees u^((p^d - 1) / 2) as 1, -1 or, when pi divides u, 0.  So
    gcd(f, u^((p^d - 1) / 2) - 1) is the product of the factors that see
    1, a proper factor unless all of them see 1 or none does.  A u that
    shares a factor with f needs no gcd of its own: that factor sees 0
    and stays out of the product, like one that sees -1."""
    p = f.field.p
    if f.degree == d:
        return [f]
    n = f.degree
    while True:
        u = FpUniPoly(f.field, [rng.randrange(p) for _ in range(n)])
        if u.is_zero or (u.degree is not None and u.degree == 0):
            continue
        v = poly_powmod(u, (p**d - 1) // 2, f) - FpUniPoly.one(f.field)
        if v.is_zero:
            continue
        g = f.gcd(v)
        if g.degree and 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split((f // g).monic(), d, rng)


def factor(f: FpUniPoly, seed: int) -> Factorization:
    """Complete factorization: squarefree decomposition, distinct-degree
    splitting, then seeded Cantor-Zassenhaus equal-degree splitting."""
    if f.is_zero:
        raise InvalidInput("cannot factor the zero polynomial")
    unit = f.coeffs[-1]
    rng = random.Random(seed)
    found: dict = {}
    for part, mult in _squarefree_parts(f.monic()).items():
        for prod, d in _distinct_degree(part):
            if not prod.degree:
                continue
            for irr in _equal_degree_split(prod, d, rng):
                found[irr] = found.get(irr, 0) + mult
    factors = sorted(found.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit=unit, factors=tuple(factors))


def _first_block(f: FpUniPoly) -> tuple:
    """(product of the irreducible factors of least degree d, d) of monic
    squarefree f of degree >= 1."""
    return next(block for block in _distinct_degree(f) if block[0].degree)


def _least_in_block(block: FpUniPoly, d: int, seed: int) -> FpUniPoly:
    """Least factor in the order (degree, coefficients) of a monic
    squarefree product of irreducibles of degree d; the seed drives only
    the equal-degree split."""
    return min(_equal_degree_split(block, d, random.Random(seed)), key=lambda g: g.coeffs)


def least_factor(f: FpUniPoly, seed: int) -> FpUniPoly:
    """Least monic irreducible factor of monic squarefree f in the order
    (degree, coefficients) that factor sorts by.  Irreducible factors are
    unique, so this is factor(f, seed).factors[0][0] for every seed; only
    the lowest distinct-degree block is split.

    The two least first.  Coefficient tuples run lowest degree first with
    entries in [0, p), so the monic linear t + c has coeffs (c, 1), and
    in this order t < t + 1 < t + c (2 <= c < p) < every monic of degree
    2 or more.  So when f(0) = 0 the answer is t, and else, when
    f(-1) = 0 (the alternating coefficient sum), it is t + 1, whatever
    the seed, with no split at all.  A symmetric f(a,a,c) with c <= a
    (as strip leaves it), or its monic form, has f(0) = C(a,c) != 0 and
    takes the second exactly when c is odd:
    f(a,a,c) = sum_i C(a,i) C(a,c-i) t^i is the coefficient of x^c in
    (1 + t x)^a (1 + x)^a, so at t = -1 it is [x^c] (1 - x^2)^a, which is
    0 for odd c and (-1)^(c/2) C(a, c/2) for even c, a unit as
    c/2 <= a < p.  For even c, fabc.fabc_least_irreducible finds the same
    factor with its distinct-degree search in Kummer's variable, at half
    the degree."""
    if f.degree is None or f.degree < 1:
        raise InvalidInput("a constant has no irreducible factor")
    field, coeffs = f.field, f.coeffs
    if coeffs[0] == 0:
        return FpUniPoly._raw(field, [0, 1])
    if (sum(coeffs[::2]) - sum(coeffs[1::2])) % field.p == 0:
        return FpUniPoly._raw(field, [1, 1])
    return _least_in_block(*_first_block(f), seed)


def is_irreducible(f: FpUniPoly) -> bool:
    """Whether f is irreducible: the first block of its distinct-degree
    split comes at degree d = deg f.  A reducible f, squarefree or not,
    has an irreducible factor of degree e <= deg f / 2, which divides
    t^(p^e) - t, so its first block comes at d <= e."""
    if f.is_zero or f.degree == 0:
        return False
    return _first_block(f.monic())[1] == f.degree


class ExtField:
    """F_{p^d} presented as F_p[t]/(modulus), modulus monic irreducible."""

    __slots__ = ("base", "d", "modulus")

    def __init__(self, base: PrimeField, modulus: FpUniPoly, check: bool = True):
        if modulus.field != base:
            raise InvalidInput("modulus lives in the wrong field")
        if modulus.is_zero or modulus.degree is None or modulus.degree < 1:
            raise InvalidInput("modulus must be non-constant")
        modulus = modulus.monic()
        if check and not is_irreducible(modulus):
            raise InvalidInput("modulus is not irreducible")
        self.base = base
        self.d = modulus.degree
        self.modulus = modulus

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.base.p, self.modulus.coeffs))

    def elem(self, poly: FpUniPoly) -> "ExtFieldElem":
        return ExtFieldElem(self, poly % self.modulus)

    def from_base(self, c: int) -> "ExtFieldElem":
        return self.elem(FpUniPoly.constant(self.base, c))

    def generator(self) -> "ExtFieldElem":
        """The residue class of t (a root of the modulus)."""
        return self.elem(FpUniPoly(self.base, [0, 1]))

    def __repr__(self) -> str:
        return f"ExtField(p={self.base.p}, d={self.d}, mod={self.modulus.to_text()})"


class ExtFieldElem:
    __slots__ = ("ext", "rep")

    def __init__(self, ext: ExtField, rep: FpUniPoly):
        self.ext = ext
        self.rep = rep

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtFieldElem) and other.ext == self.ext and other.rep == self.rep

    def __hash__(self) -> int:
        return hash((self.ext.base.p, self.ext.modulus.coeffs, self.rep.coeffs))

    def __add__(self, other: "ExtFieldElem") -> "ExtFieldElem":
        return ExtFieldElem(self.ext, self.rep + other.rep)

    def __sub__(self, other: "ExtFieldElem") -> "ExtFieldElem":
        return ExtFieldElem(self.ext, self.rep - other.rep)

    def __mul__(self, other: "ExtFieldElem") -> "ExtFieldElem":
        return ExtFieldElem(self.ext, (self.rep * other.rep) % self.ext.modulus)

    def inv(self) -> "ExtFieldElem":
        if self.is_zero:
            raise ZeroDivisionError("inverse of 0 in extension field")
        # Fermat: x^(p^d - 2)
        ext = self.ext
        return ExtFieldElem(ext, poly_powmod(self.rep, ext.base.p**ext.d - 2, ext.modulus))

    def to_json(self) -> dict:
        return {"degree": self.ext.d, "modulus": self.ext.modulus.to_json(), "value": self.rep.to_json()}

    def __repr__(self) -> str:
        return f"ExtFieldElem({self.rep.to_text()} in {self.ext!r})"


def eval_in_ext(f: FpUniPoly, alpha: ExtFieldElem) -> ExtFieldElem:
    """Evaluate f (over F_p) at an extension-field point, by Horner."""
    acc = alpha.ext.from_base(0)
    for c in reversed(f.coeffs):
        acc = acc * alpha + alpha.ext.from_base(c)
    return acc


class FpMultiPoly:
    """Sparse multivariate polynomial over F_p in r variables.

    Terms map exponent tuples of length r to nonzero residues."""

    __slots__ = ("field", "r", "terms")

    def __init__(self, field: PrimeField, r: int, terms: dict):
        self.field = field
        self.r = r
        clean = {}
        for exps, c in terms.items():
            c %= field.p
            if c:
                if len(exps) != r:
                    raise InvalidInput("exponent tuple of wrong length")
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field: PrimeField, r: int) -> "FpMultiPoly":
        return cls(field, r, {})

    @classmethod
    def constant(cls, field: PrimeField, r: int, c: int) -> "FpMultiPoly":
        return cls(field, r, {tuple([0] * r): c})

    @classmethod
    def variable(cls, field: PrimeField, r: int, var: int) -> "FpMultiPoly":
        e = [0] * r
        e[var] = 1
        return cls(field, r, {tuple(e): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMultiPoly)
            and other.field == self.field
            and other.r == self.r
            and other.terms == self.terms
        )

    def _check(self, other: "FpMultiPoly") -> None:
        if self.field != other.field or self.r != other.r:
            raise InvalidInput("incompatible multivariate polynomials")

    def _plus(self, other: "FpMultiPoly", sign: int) -> "FpMultiPoly":
        """self + sign * other in one pass over other's terms."""
        self._check(other)
        out = dict(self.terms)
        p = self.field.p
        for e, c in other.terms.items():
            v = (out.get(e, 0) + sign * c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return FpMultiPoly(self.field, self.r, out)

    def __add__(self, other: "FpMultiPoly") -> "FpMultiPoly":
        return self._plus(other, 1)

    def __neg__(self) -> "FpMultiPoly":
        p = self.field.p
        return FpMultiPoly(self.field, self.r, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "FpMultiPoly") -> "FpMultiPoly":
        return self._plus(other, -1)

    def scale(self, c: int) -> "FpMultiPoly":
        return FpMultiPoly(self.field, self.r, {e: v * c for e, v in self.terms.items()})

    def mul(self, other: "FpMultiPoly", budget: int = DEFAULT_TERM_BUDGET) -> "FpMultiPoly":
        self._check(other)
        pairs = len(self.terms) * len(other.terms)
        check_product_budget(pairs, budget)
        p = self.field.p
        out: dict = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        check_product_budget(pairs, budget, len(out))
        return FpMultiPoly(self.field, self.r, {e: c % p for e, c in out.items()})

    def __mul__(self, other: "FpMultiPoly") -> "FpMultiPoly":
        return self.mul(other)

    def frobenius_pow(self, k: int) -> "FpMultiPoly":
        """self**(p**k) by exponent scaling (coefficients are fixed by
        Frobenius on F_p)."""
        if k == 0:
            return self
        q = self.field.p**k
        return FpMultiPoly(
            self.field, self.r, {tuple(q * x for x in e): c for e, c in self.terms.items()}
        )

    def min_exponent(self, var: int) -> Optional[int]:
        if not self.terms:
            return None
        return min(e[var] for e in self.terms)

    def substitute_shift(self, var: int, base_var: int, budget: int = DEFAULT_TERM_BUDGET) -> "FpMultiPoly":
        """Replace x_var by (x_base_var + x_var), expanding binomially."""
        p = self.field.p
        out: dict = {}
        count = 0
        for exps, c in self.terms.items():
            n = exps[var]
            for i in range(n + 1):
                b = binomial_mod_p(n, i, p)
                if not b:
                    continue
                e = list(exps)
                e[var] = i
                e[base_var] += n - i
                key = tuple(e)
                out[key] = (out.get(key, 0) + c * b) % p
                count += 1
                check_shift_budget(count, budget)
        return FpMultiPoly(self.field, self.r, out)

    def substitute_values(self, assignments: dict) -> "FpMultiPoly":
        """Partially evaluate: {var index: residue}. Remaining variables
        keep their slots (exponent 0 on the substituted ones)."""
        p = self.field.p
        out: dict = {}
        for exps, c in self.terms.items():
            v = c
            e = list(exps)
            for var, val in assignments.items():
                v = v * pow(val % p, e[var], p) % p
                e[var] = 0
            if v:
                key = tuple(e)
                out[key] = (out.get(key, 0) + v) % p
        return FpMultiPoly(self.field, self.r, out)

    def to_unipoly(self, var: int) -> FpUniPoly:
        """Collapse to a univariate polynomial in x_var; every other
        variable must have exponent 0 everywhere."""
        coeffs: dict = {}
        for exps, c in self.terms.items():
            for i, e in enumerate(exps):
                if i != var and e:
                    raise InvalidInput("polynomial is not univariate in the chosen variable")
            coeffs[exps[var]] = c
        if not coeffs:
            return FpUniPoly.zero(self.field)
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return FpUniPoly(self.field, out)

    def evaluate(self, point: list) -> int:
        p = self.field.p
        if len(point) != self.r:
            raise InvalidInput("evaluation point of wrong length")
        acc = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * pow(x % p, e, p) % p
            acc = (acc + v) % p
        return acc

    def to_json(self) -> list:
        items = sorted(self.terms.items())
        return [{"exponents": list(e), "coefficient": c} for e, c in items]

    def __repr__(self) -> str:
        return f"FpMultiPoly(p={self.field.p}, r={self.r}, {len(self.terms)} terms)"
