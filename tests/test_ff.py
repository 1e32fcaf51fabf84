import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclocover.errors import DegreeBudgetExceeded, InvalidInput, ParamOutOfRange
from cyclocover import ff
from cyclocover.fabc import Dpk, FabcParams, fabc
from cyclocover.ff import (
    ExtField,
    FpMultiPoly,
    FpUniPoly,
    PrimeField,
    _apply,
    _barrett_inverse,
    _divrem_coeffs,
    _gcd_coeffs,
    _hgcd,
    _mul_coeffs,
    _pack,
    _reduce_slots,
    _slot_layout,
    _twisted_dot,
    _unpack,
    binomial_mod_p,
    eval_in_ext,
    factor,
    is_irreducible,
    is_prime_u64,
    least_factor,
    poly_powmod,
)
from cyclocover.hassewitt import OrbitContext, h1_radical
from cyclocover.monodromy import parse_datum

from oracles import (
    binom_mod,
    divrem_schoolbook,
    ext_roots,
    gcd_euclid,
    mul_schoolbook,
    powmod_schoolbook,
    remainder_sequence,
    sympy_factor,
    trim,
)

F13 = PrimeField(13)
F5 = PrimeField(5)

primes = st.sampled_from([3, 5, 7, 11, 13, 29, 97, 101])


def rand_poly(field, deg, rng):
    return FpUniPoly(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def test_is_prime_u64_small_range():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime_u64(n) == sieve[n]


def test_is_prime_u64_large():
    assert is_prime_u64(2**31 - 1)
    assert not is_prime_u64(2**31 - 2)
    # Carmichael numbers must not fool it
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime_u64(n)


def test_prime_field_validation():
    with pytest.raises(ParamOutOfRange):
        PrimeField(2)
    with pytest.raises(ParamOutOfRange):
        PrimeField(15)
    with pytest.raises(ParamOutOfRange):
        PrimeField(2**31 + 11)
    assert PrimeField(13).p == 13


def test_zero_poly_degree_sentinel():
    z = FpUniPoly.zero(F13)
    assert z.is_zero
    assert z.degree is None
    assert FpUniPoly(F13, [0, 0, 0]).degree is None
    assert FpUniPoly(F13, [0, 13, 26]).degree is None


@given(
    p=primes,
    ca=st.lists(st.integers(0, 200), max_size=8),
    cb=st.lists(st.integers(0, 200), max_size=8),
    cc=st.lists(st.integers(0, 200), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_unipoly_ring_axioms(p, ca, cb, cc):
    field = PrimeField(p)
    a = FpUniPoly(field, ca)
    b = FpUniPoly(field, cb)
    c = FpUniPoly(field, cc)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == FpUniPoly.zero(field)


@given(
    p=primes,
    ca=st.lists(st.integers(0, 200), max_size=10),
    cb=st.lists(st.integers(0, 200), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_divrem_invariant(p, ca, cb):
    field = PrimeField(p)
    a = FpUniPoly(field, ca)
    b = FpUniPoly(field, cb)
    if b.is_zero:
        return
    q, r = a.divrem(b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(p=primes, ca=st.lists(st.integers(0, 200), max_size=8), x=st.integers(0, 200))
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_naive(p, ca, x):
    field = PrimeField(p)
    a = FpUniPoly(field, ca)
    naive = sum(c * x**i for i, c in enumerate(a.coeffs)) % p
    assert a.evaluate(x) == naive


def test_gcd_divides_both():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(F13, rng.randrange(1, 9), rng)
        b = rand_poly(F13, rng.randrange(1, 9), rng)
        common = rand_poly(F13, rng.randrange(0, 4), rng)
        if common.is_zero:
            continue
        g = (a * common).gcd(b * common)
        assert ((a * common) % g).is_zero
        assert ((b * common) % g).is_zero
        if not g.is_zero:
            assert g.coeffs[-1] == 1  # monic


def test_frobenius_pow_matches_repeated_multiplication():
    rng = random.Random(3)
    for p in (5, 7):
        field = PrimeField(p)
        for _ in range(10):
            a = rand_poly(field, rng.randrange(0, 4), rng)
            naive = FpUniPoly.one(field)
            for _ in range(p):
                naive = naive * a
            assert a.frobenius_pow(1) == naive


def _dense_twist(coeffs, q):
    out = [0] * (q * (len(coeffs) - 1) + 1) if coeffs else []
    for i, c in enumerate(coeffs):
        out[i * q] = c
    return out


def _dense_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return [c % p for c in out]


def _dense_dpk(coeffs, q, p):
    return [(i // q) * c % p for i, c in enumerate(coeffs)][q:]


def _assert_matches_dense(got, field, dense):
    want = FpUniPoly(field, dense)
    # the sparse-form reads come first: hash and coeffs expand the dense tuple
    assert got.is_zero == want.is_zero
    assert got.degree == want.degree
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.coeffs == want.coeffs
    assert got.terms == tuple((e, c) for e, c in enumerate(want.coeffs) if c)
    assert got == FpUniPoly(field, dense) and FpUniPoly(field, dense) == got


@given(
    p=primes,
    ca=st.lists(st.integers(0, 200), max_size=5),
    cb=st.lists(st.integers(0, 200), max_size=6),
    k=st.integers(0, 2),
    kd=st.integers(0, 1),
)
@settings(max_examples=100, deadline=None)
def test_sparse_forms_match_dense_oracle(p, ca, cb, k, kd):
    field = PrimeField(p)
    a = [c % p for c in ca]
    b = [c % p for c in cb]
    q = p**k
    tw_a = _dense_twist(a, q)
    sparse_a = FpUniPoly(field, ca).frobenius_pow(k)
    _assert_matches_dense(sparse_a, field, tw_a)

    mixed = _dense_mul(tw_a, b, p)
    _assert_matches_dense(FpUniPoly(field, ca).frobenius_pow(k) * FpUniPoly(field, cb), field, mixed)
    _assert_matches_dense(FpUniPoly(field, cb) * FpUniPoly(field, ca).frobenius_pow(k), field, mixed)
    both = _dense_mul(tw_a, _dense_twist(b, p), p)
    # sparse_a has expanded its dense tuple by now; the product is still formed term by term
    _assert_matches_dense(sparse_a * FpUniPoly(field, cb).frobenius_pow(1), field, both)

    qd = p**kd
    _assert_matches_dense(Dpk(FpUniPoly(field, cb), kd), field, _dense_dpk(b, qd, p))
    prod = FpUniPoly(field, ca).frobenius_pow(k) * FpUniPoly(field, cb).frobenius_pow(1)
    _assert_matches_dense(Dpk(prod, kd), field, _dense_dpk(both, qd, p))


def test_valuation_at_known_values():
    h = FpUniPoly(F13, [0, 0, 0, 2, 2])  # 2t^3(t+1)
    assert h.valuation_at(0) == 3
    assert h.valuation_at(-1) == 1
    assert h.valuation_at(1) == 0
    with pytest.raises(InvalidInput):
        FpUniPoly.zero(F13).valuation_at(0)


def test_valuation_at_random_products():
    rng = random.Random(11)
    for field in (F13, PrimeField(4621)):
        for _ in range(30):
            c = rng.randrange(field.p)
            k = rng.randrange(0, 5)
            lin = FpUniPoly(field, [-c, 1])
            rest = rand_poly(field, rng.randrange(0, 30), rng)
            if rest.is_zero or rest.evaluate(c) == 0:
                continue
            f = rest
            for _ in range(k):
                f = f * lin
            assert f.valuation_at(c) == k
            assert f.strip_root(c) == (k, rest)


@given(n=st.integers(0, 3000), k=st.integers(0, 3000), p=primes)
@settings(max_examples=300, deadline=None)
def test_binomial_lucas_vs_exact(n, k, p):
    assert binomial_mod_p(n, k, p) == binom_mod(n, k, p)


def test_powmod():
    f = FpUniPoly(F13, [2, 0, 0, 1])  # t^3 + 2, no cube root of -2 in F_13
    t = FpUniPoly(F13, [0, 1])
    got = poly_powmod(t, 13**3, f)
    assert got == t % f  # t^(p^d) = t mod any degree-d irreducible
    assert is_irreducible(f)
    assert not is_irreducible(FpUniPoly(F13, [1, 1, 0, 1]))  # root at t=7


def test_is_irreducible_matches_sympy():
    # every monic polynomial of degree 1-5 over F_3, 1-4 over F_5 and 1-3
    # over F_7, and 300 seeded random ones of degree 1-8 at each larger p
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    cases = [
        (p, list(low) + [1])
        for p, top in ((3, 5), (5, 4), (7, 3))
        for d in range(1, top + 1)
        for low in itertools.product(range(p), repeat=d)
    ]
    rng = random.Random(53)
    for p in (13, 101, 4621):
        for _ in range(300):
            d = rng.randrange(1, 9)
            cases.append((p, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]))
    assert len(cases) == 2442
    for p, coeffs in cases:
        want = gf_irreducible_p([ZZ(c) for c in reversed(coeffs)], p, ZZ)
        assert is_irreducible(FpUniPoly(PrimeField(p), coeffs)) == want, (p, coeffs)


def test_factor_roundtrip_and_irreducibility():
    rng = random.Random(19)
    for p in (5, 13):
        field = PrimeField(p)
        for _ in range(15):
            f = rand_poly(field, rng.randrange(1, 10), rng)
            if f.is_zero:
                continue
            fac = factor(f, seed=1)
            assert fac.expand(field) == f
            for g, mult in fac.factors:
                assert mult >= 1
                assert g.coeffs[-1] == 1
                assert is_irreducible(g)


def test_factor_seed_independence():
    rng = random.Random(23)
    f = rand_poly(F13, 12, rng)
    a = factor(f, seed=1)
    b = factor(f, seed=999)
    assert a.unit == b.unit
    assert sorted((g.coeffs, m) for g, m in a.factors) == sorted(
        (g.coeffs, m) for g, m in b.factors
    )


def test_factor_against_sympy():
    rng = random.Random(29)
    for p in (5, 13, 29):
        field = PrimeField(p)
        for _ in range(10):
            f = rand_poly(field, rng.randrange(1, 9), rng)
            if f.is_zero:
                continue
            ours = factor(f, seed=5)
            unit, theirs = sympy_factor(list(f.coeffs), p)
            assert ours.unit == unit
            got = sorted((list(g.coeffs), m) for g, m in ours.factors)
            assert got == sorted(theirs)


@st.composite
def products_of_distinct_irreducibles(draw, avoid=()):
    """Monic squarefree product of distinct irreducibles of degrees 1-6,
    none with its coefficient tuple in avoid."""
    field = PrimeField(draw(st.sampled_from([3, 5, 13, 101])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    found = set()
    for d in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)):
        g = FpUniPoly(field, [rng.randrange(field.p) for _ in range(d)] + [1])
        while g.coeffs in avoid or not is_irreducible(g):
            g = FpUniPoly(field, [rng.randrange(field.p) for _ in range(d)] + [1])
        found.add(g)
    out = FpUniPoly.one(field)
    for g in found:
        out = out * g
    return out


@settings(max_examples=60, deadline=None)
@given(products_of_distinct_irreducibles(), st.integers(0, 2**32), st.integers(0, 2**32))
def test_least_factor_is_the_first_factor(f, seed, other_seed):
    least = least_factor(f, seed)
    assert least == factor(f, seed).factors[0][0]
    assert least_factor(f, other_seed) == least


def test_least_factor_of_a_constant_is_invalid():
    with pytest.raises(InvalidInput):
        least_factor(FpUniPoly.one(F13), seed=1)


@pytest.mark.parametrize("with_t,with_t1", [(True, False), (False, True), (True, True), (False, False)])
@settings(max_examples=40, deadline=None)
@given(products_of_distinct_irreducibles(avoid=((0, 1), (1, 1))), st.integers(0, 2**32))
def test_least_factor_reads_t_and_t_plus_1_off_the_ends(with_t, with_t1, f, seed):
    t = FpUniPoly(f.field, [0, 1])
    for low, wanted in ((t, with_t), (t + FpUniPoly.one(f.field), with_t1)):
        if wanted:
            f = f * low
    least = least_factor(f, seed)
    assert least == factor(f, seed).factors[0][0]
    if with_t:
        assert least.coeffs == (0, 1)
    elif with_t1:
        assert least.coeffs == (1, 1)
    else:
        assert least.degree > 1 or least.coeffs[0] > 1


# (p, a, c): monic f(a,a,c), squarefree; odd c puts a root at -1, and
# c > a a root at 0
SYMMETRIC_FABC = [
    (3, 1, 1), (3, 2, 1), (3, 2, 3), (3, 1, 2),
    (13, 6, 5), (13, 6, 4), (13, 12, 7),
    (101, 40, 27), (101, 40, 26), (101, 70, 33),
    (4621, 60, 41), (4621, 60, 40), (4621, 3000, 45), (4621, 3000, 44),
]


@pytest.mark.parametrize("p,a,c", SYMMETRIC_FABC)
def test_least_factor_of_symmetric_fabc(p, a, c):
    f = fabc(FabcParams(a, a, c, p), monic=True)
    assert f.gcd(f.derivative()).degree == 0
    # f(a,a,c)(-1) = [x^c] (1 - x^2)^a: zero exactly for odd c
    assert (f.evaluate(p - 1) == 0) == (c % 2 == 1)
    least = least_factor(f, seed=7)
    assert least == factor(f, seed=8).factors[0][0]
    if c > a:
        assert least.coeffs == (0, 1)
    elif c % 2 == 1:
        assert least.coeffs == (1, 1)


@pytest.mark.parametrize("coeffs", [
    [0, 3, 1],  # t (t + 3)
    [0, 0, 5, 1],  # t^2 (t + 5): f(0) = 0 answers even off squarefree
    [2, 3, 1],  # (t + 1)(t + 2)
    [1, 0, 0, 1],  # t^3 + 1 = (t + 1)(t^2 - t + 1)
])
def test_least_factor_at_zero_or_minus_one_splits_nothing(coeffs, monkeypatch):
    def refuse(*args):
        raise AssertionError("least_factor split a polynomial with a root at 0 or -1")

    for name in ("poly_powmod", "_distinct_degree", "_equal_degree_split"):
        monkeypatch.setattr(ff, name, refuse)
    got = least_factor(FpUniPoly(F13, coeffs), seed=1)
    assert got.coeffs == ((0, 1) if coeffs[0] == 0 else (1, 1))


def test_distinct_degree_yields_every_degree_step(monkeypatch):
    # the M7 radical at p = 379, base 5 (degree 54) has blocks at d = 10
    # and 22: one powmod per step, up to the step a consumer stops at,
    # and the constant 1 at every step with no factor
    rad = h1_radical(OrbitContext(parse_datum("7:4:3,1,1,2"), 379, 5))
    rad = FpUniPoly(rad.field, rad.coeffs)
    steps, powmod = [], ff.poly_powmod
    monkeypatch.setattr(ff, "poly_powmod", lambda b, e, mod: steps.append(e) or powmod(b, e, mod))
    blocks = ff._distinct_degree(rad)
    assert [(g, d) for g, d in itertools.islice(blocks, 9)] == [(FpUniPoly.one(rad.field), d) for d in range(1, 10)]
    assert len(steps) == 9
    assert [(g.degree, d) for g, d in blocks] == [(10, 10)] + [(0, d) for d in range(11, 22)] + [(44, 22)]
    assert len(steps) == 22
    # t (t^5 - t - 1) over F_5: once the cofactor of degree 5 is below
    # twice the step, it is irreducible, and steps 3 to 5 take no powmod
    steps.clear()
    f = FpUniPoly(F5, [0, 4, 4, 0, 0, 0, 1])
    assert [(g.coeffs, d) for g, d in ff._distinct_degree(f)] == [
        ((0, 1), 1), ((1,), 2), ((1,), 3), ((1,), 4), ((4, 4, 0, 0, 0, 1), 5)]
    assert len(steps) == 2


def test_ext_roots_takes_no_powmod_past_dmax(monkeypatch):
    # the same radical: ext_roots at dmax = 9 takes nine steps and finds
    # nothing, at dmax = 10 ten steps and the factor of degree 10
    rad = h1_radical(OrbitContext(parse_datum("7:4:3,1,1,2"), 379, 5))
    rad = FpUniPoly(rad.field, rad.coeffs)
    steps, powmod = [], ff.poly_powmod
    monkeypatch.setattr(ff, "poly_powmod", lambda b, e, mod: steps.append(e) or powmod(b, e, mod))
    assert ext_roots(rad, dmax=9, seed=1) == []
    assert steps == [379] * 9
    steps.clear()
    assert [d for _, d in ext_roots(rad, dmax=10, seed=1)] == [10]
    assert steps.count(379) == 10


def test_distinct_degree_computes_one_barrett_inverse_per_modulus(monkeypatch):
    # the M7 radical at p = 379, base 5, has degree 54 (packed powmod) and
    # its first block at d = 10: ten powers mod one modulus, then twelve
    # mod the cofactor of degree 44
    rad = h1_radical(OrbitContext(parse_datum("7:4:3,1,1,2"), 379, 5))
    assert rad.degree == 54
    inverses, moduli = [], []
    barrett, powmod = ff._barrett_inverse, ff.poly_powmod
    monkeypatch.setattr(ff, "_barrett_inverse", lambda f, p: inverses.append(tuple(f)) or barrett(f, p))
    monkeypatch.setattr(ff, "poly_powmod", lambda b, e, mod: moduli.append(mod.coeffs) or powmod(b, e, mod))
    block, d = ff._first_block(FpUniPoly(rad.field, rad.coeffs))
    assert (block.degree, d) == (10, 10)
    assert len(moduli) == 10 and inverses == [rad.coeffs]
    inverses.clear()
    moduli.clear()
    blocks = [(g, d) for g, d in ff._distinct_degree(FpUniPoly(rad.field, rad.coeffs)) if g.degree]
    assert [(g.degree, d) for g, d in blocks] == [(10, 10), (44, 22)]
    assert len(inverses) == len(set(inverses)) == len(set(moduli)) == 2


def test_ext_field_arithmetic():
    f = FpUniPoly(F13, [2, 0, 0, 1])
    ext = ExtField(F13, f)
    assert ext.d == 3
    alpha = ext.generator()
    assert eval_in_ext(f, alpha).is_zero
    x = ext.elem(FpUniPoly(F13, [5, 2, 1]))
    assert (x * x.inv()) == ext.from_base(1)
    with pytest.raises(InvalidInput):
        ExtField(F13, FpUniPoly(F13, [12, 0, 1]))  # t^2 - 1 splits


def test_ext_roots_exact():
    rng = random.Random(31)
    for _ in range(10):
        f = rand_poly(F5, rng.randrange(2, 8), rng)
        if f.is_zero or f.degree < 1:
            continue
        roots = ext_roots(f, dmax=3, seed=4)
        for alpha, d in roots:
            assert 1 <= d <= 3
            assert alpha.ext.d == d
            assert eval_in_ext(f, alpha).is_zero
        # degree-1 roots agree with a direct scan of F_5
        direct = sorted(x for x in range(5) if f.evaluate(x) == 0)
        got = sorted(a.rep.coeffs[0] if a.rep.coeffs else 0 for a, d in roots if d == 1)
        assert got == direct


def test_multipoly_mul_matches_evaluation():
    rng = random.Random(37)
    for _ in range(25):
        r = rng.randrange(1, 4)
        a = FpMultiPoly(
            F13,
            r,
            {
                tuple(rng.randrange(4) for _ in range(r)): rng.randrange(13)
                for _ in range(rng.randrange(1, 6))
            },
        )
        b = FpMultiPoly(
            F13,
            r,
            {
                tuple(rng.randrange(4) for _ in range(r)): rng.randrange(13)
                for _ in range(rng.randrange(1, 6))
            },
        )
        c = a * b
        for _ in range(5):
            pt = [rng.randrange(13) for _ in range(r)]
            assert c.evaluate(pt) == a.evaluate(pt) * b.evaluate(pt) % 13


def test_multipoly_sub_matches_add_of_negation():
    rng = random.Random(38)
    for _ in range(40):
        r = rng.randrange(1, 4)
        a, b = (
            FpMultiPoly(F5, r, {tuple(rng.randrange(3) for _ in range(r)): rng.randrange(5)
                                for _ in range(rng.randrange(0, 8))})
            for _ in range(2)
        )
        diff = a - b
        assert diff == a + (-b)
        assert (a - a).is_zero and diff + b == a
        pt = [rng.randrange(5) for _ in range(r)]
        assert diff.evaluate(pt) == (a.evaluate(pt) - b.evaluate(pt)) % 5


def test_multipoly_frobenius_pow():
    rng = random.Random(41)
    a = FpMultiPoly(F5, 2, {(1, 0): 2, (0, 2): 3, (1, 1): 1})
    naive = FpMultiPoly.constant(F5, 2, 1)
    for _ in range(5):
        naive = naive * a
    assert a.frobenius_pow(1) == naive
    for _ in range(5):
        pt = [rng.randrange(5) for _ in range(2)]
        assert a.frobenius_pow(2).evaluate(pt) == pow(a.evaluate(pt), 25, 5)


def test_multipoly_substitute_shift():
    rng = random.Random(43)
    a = FpMultiPoly(F13, 3, {(2, 1, 0): 3, (0, 0, 4): 7, (1, 2, 2): 5})
    shifted = a.substitute_shift(var=2, base_var=0)
    for _ in range(20):
        x0, x1, x2 = (rng.randrange(13) for _ in range(3))
        assert shifted.evaluate([x0, x1, x2]) == a.evaluate([x0, x1, (x0 + x2) % 13])


def test_multipoly_substitute_values_and_to_unipoly():
    a = FpMultiPoly(F13, 2, {(2, 1): 3, (0, 3): 1, (1, 0): 4})
    b = a.substitute_values({0: 2})
    # 3*4*x1 + x1^3 + 8 -> x1^3 + 12 x1 + 8
    uni = b.to_unipoly(var=1)
    assert uni == FpUniPoly(F13, [8, 12, 0, 1])
    with pytest.raises(InvalidInput):
        a.to_unipoly(var=1)


def test_multipoly_budget_guard():
    big = FpMultiPoly(F13, 2, {(i, 0): 1 for i in range(1, 4000)})
    other = FpMultiPoly(F13, 2, {(0, i): 1 for i in range(1, 4000)})
    with pytest.raises(DegreeBudgetExceeded):
        big.mul(other, budget=10**4)


def test_text_and_json_forms():
    f = FpUniPoly(F13, [3, 0, 5, 1])
    assert f.to_text() == "3 + 5*t^2 + 1*t^3"
    assert f.to_json() == [3, 0, 5, 1]
    assert FpUniPoly.zero(F13).to_text() == "0"
    assert FpUniPoly(F13, [0, 7]).to_text() == "7*t"
    m = FpMultiPoly(F13, 2, {(1, 0): 2, (0, 1): 3})
    assert m.to_json() == [
        {"exponents": [0, 1], "coefficient": 3},
        {"exponents": [1, 0], "coefficient": 2},
    ]


# ---------------------------------------------------------------------------
# coefficient-list kernels against the schoolbook and Euclid oracles, at
# sizes around each threshold (Newton division from a 32-coefficient
# quotient, in blocks once the quotient outgrows the divisor; gcd on packed
# integers below 6,000 coefficients and half-gcd from there, its Euclid
# base below 100)

KERNEL_PRIMES = (3, 5, 4621, 2**31 - 1)


def _rand_coeffs(n, p, rng):
    """n coefficients with a nonzero leading one ([] for n = 0)."""
    if n == 0:
        return []
    return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_mul_kernel_matches_schoolbook(p):
    rng = random.Random(p)
    sizes = [(0, 5), (1, 1), (1, 31), (1, 32), (4, 8), (5, 7), (6, 6), (2, 17),
             (39, 39), (40, 40), (41, 3), (99, 100), (101, 101), (499, 2), (500, 501), (1500, 60)]
    for la, lb in sizes:
        a, b = _rand_coeffs(la, p, rng), _rand_coeffs(lb, p, rng)
        assert _mul_coeffs(a, b, p) == mul_schoolbook(a, b, p), (la, lb)
        assert _mul_coeffs(b, a, p) == mul_schoolbook(a, b, p), (lb, la)
        assert _mul_coeffs(a, a, p) == mul_schoolbook(a, a, p), (la, la)
    # the largest coefficient everywhere: every slot at its bound
    full = [p - 1] * 700
    assert _mul_coeffs(full, full, p) == mul_schoolbook(full, full, p)
    sparse = [1] + [0] * 998 + [p - 1]
    assert _mul_coeffs(sparse, full, p) == mul_schoolbook(sparse, full, p)


@given(
    p=st.sampled_from(KERNEL_PRIMES),
    la=st.integers(0, 300),
    lb=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_mul_kernel_property(p, la, lb, seed):
    rng = random.Random(seed)
    a, b = _rand_coeffs(la, p, rng), _rand_coeffs(lb, p, rng)
    assert _mul_coeffs(a, b, p) == mul_schoolbook(a, b, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_divrem_kernel_matches_schoolbook(p):
    rng = random.Random(p + 1)
    # quotient lengths 1, 2, 3, around 32 (Newton from there on) and
    # long, against divisors shorter and more than twice longer
    sizes = [(0, 3), (5, 1), (1500, 1), (40, 41), (41, 41), (42, 41), (43, 41), (52, 50),
             (61, 30), (61, 31), (81, 50), (100, 68), (100, 99), (101, 40), (500, 250),
             (501, 499), (1000, 2), (1500, 700), (1400, 1300), (1600, 1400),
             (20000, 741), (5000, 40)]
    for la, lb in sizes:
        a, b = _rand_coeffs(la, p, rng), _rand_coeffs(lb, p, rng)
        quot, rem = _divrem_coeffs(a, b, p)
        assert (quot, rem) == divrem_schoolbook(a, b, p), (la, lb)
        # exact division leaves no remainder and gives the cofactor back (the
        # product kernel is checked against the schoolbook above)
        assert _divrem_coeffs(_mul_coeffs(a, b, p), b, p) == (a, []), (la, lb)


@given(
    p=st.sampled_from(KERNEL_PRIMES),
    la=st.integers(0, 300),
    lb=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_divrem_kernel_property(p, la, lb, seed):
    rng = random.Random(seed)
    a, b = _rand_coeffs(la, p, rng), _rand_coeffs(lb, p, rng)
    assert _divrem_coeffs(a, b, p) == divrem_schoolbook(a, b, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_gcd_kernel_matches_euclid(p):
    rng = random.Random(p + 2)
    # (cofactor a, cofactor b, planted common factor) lengths: on both
    # sides of the half-gcd threshold, its Euclid base, equal degrees, a
    # planted factor longer than both cofactors, and coprime pairs
    cases = [(1, 1, 5999), (1, 2, 5999), (2, 1, 6000), (2, 3, 6000), (301, 201, 200),
             (400, 400, 100), (99, 101, 400), (1, 1, 1500), (700, 800, 1), (500, 500, 1),
             (1200, 300, 1)]
    for la, lb, lc in cases:
        common = _rand_coeffs(lc, p, rng)
        a = mul_schoolbook(_rand_coeffs(la, p, rng), common, p)
        b = mul_schoolbook(_rand_coeffs(lb, p, rng), common, p)
        g = _gcd_coeffs(a, b, p)
        assert g == gcd_euclid(a, b, p), (la, lb, lc)
        assert g == _gcd_coeffs(b, a, p)
        assert divrem_schoolbook(g, common, p)[1] == []  # the planted factor divides it
    big = _rand_coeffs(900, p, rng)
    assert _gcd_coeffs(big, [], p) == gcd_euclid(big, [], p)
    assert _gcd_coeffs([], big, p) == gcd_euclid(big, [], p)
    assert _gcd_coeffs([], [], p) == []
    assert _gcd_coeffs(big, [rng.randrange(1, p)], p) == [1]


@given(
    p=st.sampled_from(KERNEL_PRIMES),
    la=st.integers(0, 250),
    lb=st.integers(0, 250),
    lc=st.integers(1, 400),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_gcd_kernel_property(p, la, lb, lc, seed):
    rng = random.Random(seed)
    common = _rand_coeffs(lc, p, rng)
    a = mul_schoolbook(_rand_coeffs(la, p, rng), common, p)
    b = mul_schoolbook(_rand_coeffs(lb, p, rng), common, p)
    assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p)


@pytest.mark.parametrize("p", (3, 4621, 2**31 - 1))
def test_slot_barrett_step_at_the_slot_bound(p):
    # every slot at the most a packed Euclid pass leaves there (2p - 1 plus
    # burst quotient terms of (p - 1)(2p - 1)), at the most the Barrett
    # step admits (2^X - 1), and mixed
    n = 40
    size, x, m, burst, pat = _slot_layout(p, n)
    top = 2 * p - 1 + burst * (p - 1) * (2 * p - 1)
    assert burst >= 2
    assert top < 2**x <= top + (p - 1) * (2 * p - 1)  # burst terms fit, one more would not
    if p == 2**31 - 1:
        assert burst == 16
    rng = random.Random(p + 5)
    for slots in ([top] * n, [2**x - 1] * n, [2**x - 1, 0] * (n // 2),
                  [rng.randrange(2**x) for _ in range(n)]):
        # a modulus above every slot value unpacks the raw slots
        got = _unpack(_reduce_slots(_pack(slots, size), p, x, m, pat), n, size, 1 << 8 * size)
        assert all(v < 2 * p for v in got)
        assert [v % p for v in got] == [v % p for v in slots]


def _add_mod(a, b, p):
    out = [(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _euclid_pair(quotient_lengths, g, p, rng):
    """(a, b) whose Euclid quotients have the given lengths, first to last,
    and whose last nonzero remainder is g."""
    lower, upper = [], g
    for n in reversed(quotient_lengths):
        lower, upper = upper, _add_mod(mul_schoolbook(_rand_coeffs(n, p, rng), upper, p), lower, p)
    return upper, lower


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_gcd_kernel_through_long_quotients_mid_sequence(p, monkeypatch):
    # every Barrett step must see slots below 2^X, the bound it is proven for
    size, x, *_ = _slot_layout(p, 1)
    reduce_slots = ff._reduce_slots

    def checked(v, *args):
        n = -(-v.bit_length() // (8 * size))
        assert max(_unpack(v, n, size, 1 << 8 * size), default=0) < 2**x
        return reduce_slots(v, *args)

    monkeypatch.setattr(ff, "_reduce_slots", checked)
    # quotients of 3 to 41 terms between linear ones; at p = 2^31 - 1 the
    # 20- and 41-term quotients pass the 16 terms one reduction admits
    rng = random.Random(p + 6)
    g = _rand_coeffs(5, p, rng)
    for lengths in ([2, 3, 2, 5, 2, 2, 3], [1, 2, 2, 4, 2, 20, 2, 2, 41, 2, 3, 2]):
        a, b = _euclid_pair(lengths, g, p, rng)
        seq = remainder_sequence(a, b, p)
        assert [len(x) - len(y) + 1 for x, y in zip(seq, seq[1:])] == lengths
        assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p) == gcd_euclid(g, [], p)
    # second, the quotient 1 + t + ... + t^119 by 100 coefficients p - 1:
    # each slot takes 100 terms of at least (p - 1)^2
    c = [p - 1] * 100
    b = _add_mod(mul_schoolbook([1] * 120, c, p), _rand_coeffs(99, p, rng), p)
    a = _add_mod(mul_schoolbook(_rand_coeffs(2, p, rng), b, p), c, p)
    assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p)


@pytest.mark.parametrize("p", (3, 5))
def test_gcd_kernel_through_degree_drops(p):
    # at small p a remainder's top coefficients often vanish mod p, so its
    # degree drops by two or more
    rng = random.Random(p + 7)
    drops = 0
    for _ in range(30):
        common = _rand_coeffs(rng.randrange(1, 20), p, rng)
        a = mul_schoolbook(_rand_coeffs(rng.randrange(1, 150), p, rng), common, p)
        b = mul_schoolbook(_rand_coeffs(rng.randrange(1, 150), p, rng), common, p)
        seq = remainder_sequence(a, b, p)
        drops += sum(len(x) - len(y) >= 2 for x, y in zip(seq[1:], seq[2:]))
        assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p)
    assert drops >= 30


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_gcd_kernel_with_every_coefficient_p_minus_1(p):
    # every slot of both operands starts at its largest residue
    rng = random.Random(p + 8)
    for la, lb in ((300, 200), (301, 300), (97, 96), (40, 1)):
        a, b = [p - 1] * la, [p - 1] * lb
        assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p), (la, lb)
    a = _rand_coeffs(400, p, rng)
    assert _gcd_coeffs(a, [p - 1] * 150, p) == gcd_euclid(a, [p - 1] * 150, p)


@pytest.mark.parametrize("p", (3, 4621, 2**31 - 1))
def test_gcd_kernel_fused_linear_steps(p, monkeypatch):
    # a linear quotient adds both of its terms in one product; every
    # Barrett step must still see slots below 2^X, and the gcd is Euclid's
    size, x, *_ = _slot_layout(p, 1)
    reduce_slots = ff._reduce_slots
    seen = []

    def checked(v, *args):
        n = -(-v.bit_length() // (8 * size))
        seen.append(max(_unpack(v, n, size, 1 << 8 * size), default=0))
        return reduce_slots(v, *args)

    monkeypatch.setattr(ff, "_reduce_slots", checked)
    rng = random.Random(p + 11)
    top = [p - 1, p - 1]
    cases = [
        # every quotient (p - 1)(1 + t) and every coefficient of g p - 1
        ([top] * 60, [p - 1] * 5),
        # a degree drop right after each linear step
        ([[1, 2], rng.choices(range(1, p), k=3)] * 12, [1, 1]),
        # db from 1 to 0: the last two steps divide by t + c, then by c
        ([[1, 1]] * 30, [p - 1]),
    ]
    for quotients, g in cases:
        lower, upper = [], g
        for q in reversed(quotients):
            lower, upper = upper, _add_mod(mul_schoolbook(q, upper, p), lower, p)
        a, b = upper, lower
        seq = remainder_sequence(a, b, p)
        assert [len(x) - len(y) + 1 for x, y in zip(seq, seq[1:])] == [len(q) for q in quotients]
        assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p) == gcd_euclid(g, [], p)
    # operands of all p - 1 with a linear first step
    for la in (2, 3, 97, 301):
        a, b = [p - 1] * la, [p - 1] * (la - 1)
        assert _gcd_coeffs(a, b, p) == gcd_euclid(a, b, p), la
    assert seen and max(seen) < 2**x


def test_gcd_kernel_after_a_long_first_quotient():
    # the first quotient (about 2,900 terms) is taken by Newton division
    # on lists; the rest of the sequence runs packed
    p = 2**31 - 1
    rng = random.Random(9)
    common = _rand_coeffs(50, p, rng)
    a = mul_schoolbook(_rand_coeffs(2950, p, rng), common, p)
    b = mul_schoolbook(_rand_coeffs(12, p, rng), common, p)
    g = _gcd_coeffs(a, b, p)
    assert g == gcd_euclid(a, b, p) == _gcd_coeffs(b, a, p)
    assert divrem_schoolbook(g, common, p)[1] == []


def test_gcd_kernel_on_census_radical_pairs():
    # census's gcd(rad_2, rad_3) of M7 at a seeded 25 of the first 100
    # primes p = 1 mod 7, p = 4621 among them
    from cyclocover.hassewitt import OrbitContext, h1_radical
    from cyclocover.strata import M7_FAMILY

    primes = [p for p in range(8, 4622, 7) if is_prime_u64(p)]
    assert len(primes) == 100 and primes[-1] == 4621
    for p in sorted(random.Random(10).sample(primes[:-1], 24) + [4621]):
        rad2, rad3 = (list(h1_radical(OrbitContext(M7_FAMILY, p, b0)).coeffs) for b0 in (5, 4))
        assert _gcd_coeffs(rad2, rad3, p) == gcd_euclid(rad2, rad3, p), p


@pytest.mark.parametrize("p", (5, 4621))
def test_half_gcd_stops_at_half_the_degree(p):
    # M (a, b) must be the consecutive pair of Euclid remainders that
    # straddles m = ceil(deg a / 2), whatever path the recursion took
    rng = random.Random(p + 3)
    for la, lb, lc in ((150, 149, 1), (600, 599, 1), (700, 650, 1), (400, 300, 300), (1100, 1000, 1)):
        common = _rand_coeffs(lc, p, rng)
        a = mul_schoolbook(_rand_coeffs(la, p, rng), common, p)
        b = mul_schoolbook(_rand_coeffs(lb, p, rng), common, p)
        m = len(a) // 2
        c, d = _apply(_hgcd(a, b, p), a, b, p)
        seq = remainder_sequence(a, b, p) + [[]]
        i = next(i for i in range(len(seq)) if len(seq[i + 1]) <= m)
        assert (c, d) == (seq[i], seq[i + 1]), (la, lb, lc)


def test_gcd_matches_sympy():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcd

    rng = random.Random(47)
    for p, la, lb, lc in ((5, 300, 260, 250), (4621, 520, 510, 40), (2**31 - 1, 600, 20, 3)):
        field = PrimeField(p)
        common = FpUniPoly(field, _rand_coeffs(lc, p, rng))
        a = FpUniPoly(field, _rand_coeffs(la, p, rng)) * common
        b = FpUniPoly(field, _rand_coeffs(lb, p, rng)) * common
        want = gf_gcd(list(reversed(a.coeffs)), list(reversed(b.coeffs)), p, ZZ)
        assert list(a.gcd(b).coeffs) == [int(c) for c in reversed(want)]


def test_gcd_on_the_m7_composite():
    from cyclocover.hassewitt import OrbitContext, _strip_01, h1
    from cyclocover.monodromy import MonodromyDatum

    p = 31  # class 3 mod 7: a two-step twisted chain
    f = _strip_01(h1(OrbitContext(MonodromyDatum(7, 4, (3, 1, 1, 2)), p, 5)))
    assert f.degree > 100
    coeffs = list(f.coeffs)
    deriv = list(f.derivative().coeffs)
    assert _gcd_coeffs(coeffs, deriv, p) == gcd_euclid(coeffs, deriv, p) == [1]
    # a long packed Euclid run: gcd(f^5, (f^5)') = f^4
    f5 = f * f * f * f * f
    assert f5.degree >= 500
    g = f5.gcd(f5.derivative())
    assert list(g.coeffs) == gcd_euclid(list(f5.coeffs), list(f5.derivative().coeffs), p)
    assert g == (f * f * f * f).monic()


# ---------------------------------------------------------------------------
# poly_powmod against the schoolbook square-and-multiply: packed for
# moduli of degree 2 up to below _POWMOD_PACKED_MAX, on lists otherwise

POWMOD_PRIMES = (3, 53, 4621, 2**31 - 1)


def _powmod_exponents(p):
    return (0, 1, 2, p, (p**4 - 1) // 2, 2**64 + 1)


def _powmod_case(p, base, e, f):
    field = PrimeField(p)
    got = poly_powmod(FpUniPoly(field, base), e, FpUniPoly(field, f))
    assert list(got.coeffs) == powmod_schoolbook(base, e, f, p), (p, len(base), e, len(f))


@pytest.mark.parametrize("p", POWMOD_PRIMES)
def test_powmod_matches_schoolbook(p):
    # moduli of degree 0 and 1 (the list loop) and 2, 3 and 17 (packed),
    # monic and not; bases of degree below, at and above deg f, and zero
    rng = random.Random(p + 16)
    for df in (0, 1, 2, 3, 17):
        monic = [rng.randrange(p) for _ in range(df)] + [1]
        for f in (monic, monic[:-1] + [rng.randrange(2, p)]):
            for lb in (0, df, df + 1, 2 * df + 5):
                base = _rand_coeffs(lb, p, rng)
                for e in _powmod_exponents(p):
                    _powmod_case(p, base, e, f)


@given(
    p=st.sampled_from(POWMOD_PRIMES),
    df=st.integers(0, 40),
    lb=st.integers(0, 85),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_powmod_property(p, df, lb, k, seed):
    # k < 6 picks one of the fixed exponents, k = 6 a random one
    rng = random.Random(seed)
    e = _powmod_exponents(p)[k] if k < 6 else rng.randrange(2**70)
    _powmod_case(p, _rand_coeffs(lb, p, rng), e, _rand_coeffs(df + 1, p, rng))


def test_powmod_at_the_packed_threshold():
    # the largest packed modulus and the smallest one on lists
    rng = random.Random(17)
    for df in (ff._POWMOD_PACKED_MAX - 1, ff._POWMOD_PACKED_MAX):
        for p, e in ((3, 3), (2**31 - 1, 2)):
            _powmod_case(p, _rand_coeffs(df, p, rng), e, _rand_coeffs(df + 1, p, rng))


@pytest.mark.parametrize("p", POWMOD_PRIMES)
def test_powmod_slots_stay_below_the_barrett_bound(p, monkeypatch):
    # base and modulus with every coefficient p - 1 (so the modulus is not
    # monic): every slot the Barrett step gets must be below the proven
    # 6 n p^2, and so below 2^X
    reduce_slots = ff._reduce_slots
    for df, e in ((2, 2**64 + 1), (3, 2**64 + 1), (40, (p**4 - 1) // 2), (120, p)):
        size, x, *_ = _slot_layout(p, df, 6 * df * p * p)

        def checked(v, p_, x_, *args, size=size, x=x, top=6 * df * p * p):
            n = -(-v.bit_length() // (8 * size))
            assert x_ == x and max(_unpack(v, n, size, 1 << 8 * size), default=0) < min(top, 2**x)
            return reduce_slots(v, p_, x_, *args)

        monkeypatch.setattr(ff, "_reduce_slots", checked)
        full = [p - 1] * (df + 1)
        _powmod_case(p, full[:-1], e, full)
        _powmod_case(p, full * 2, e, full)



@pytest.mark.parametrize("p", (3, 4621, 2**31 - 1))
def test_barrett_inverse_matches_schoolbook(p):
    # poly_powmod's mu = t^(2n-2) div f, monic f and not: every n up to 64,
    # then a stride through 600 and both sides of _POWMOD_PACKED_MAX (the
    # schoolbook quotient costs n^2 steps, 0.1 s at n = 600)
    rng = random.Random(p + 19)
    sizes = [*range(2, 65), *range(65, 601, 41), 511, 512, 600]
    for n in sizes:
        f = _rand_coeffs(n + 1, p, rng)
        for lead in (1, f[-1]):
            f[-1] = lead
            want = divrem_schoolbook([0] * (2 * n - 2) + [1], f, p)[0]
            assert _barrett_inverse(f, p) == want, (p, n, lead)

def test_powmod_list_loop_matches_schoolbook():
    # moduli of degree 1 and from _POWMOD_PACKED_MAX on take the list loop
    rng = random.Random(53)
    for p, df in ((53, 1), (4621, 1), (2**31 - 1, 1), (53, ff._POWMOD_PACKED_MAX + 3)):
        f = _rand_coeffs(df + 1, p, rng)
        base = _rand_coeffs(df + 7, p, rng)
        for e in (0, 1, 2, 53, p):
            _powmod_case(p, base, e, f)


def test_powmod_list_loop_squares_only_below_the_top_bit(monkeypatch):
    # e = 53 = 0b110101: five squarings and a product with the base for
    # each of the three set bits below the top one, at degree 1 and 512
    calls = []
    mul = FpUniPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(FpUniPoly, "__mul__", counted)
    field = PrimeField(53)
    for mod in ([3, 1], [2] * (ff._POWMOD_PACKED_MAX + 1)):
        calls.clear()
        poly_powmod(FpUniPoly(field, [5, 7, 11]), 53, FpUniPoly(field, mod))
        assert len(calls) == 8


def test_powmod_rejects_a_negative_exponent():
    t = FpUniPoly(F13, [0, 1])
    for mod in ([2, 0, 0, 1], [3], [0, 1], [1] * (ff._POWMOD_PACKED_MAX + 1)):
        with pytest.raises(ParamOutOfRange):
            poly_powmod(t, -5, FpUniPoly(F13, mod))
    # e = 0 gives 1, also for a constant modulus
    for mod in ([3], [0, 1], [2, 0, 0, 1]):
        assert poly_powmod(t, 0, FpUniPoly(F13, mod)) == FpUniPoly.one(F13)


def test_ext_field_inverse_is_byte_identical_to_the_recorded_digest():
    # 200 seeded nonzero elements of F_(p^d), d <= 4; recorded before
    # poly_powmod ran on packed integers
    rng = random.Random(1616)
    digest = hashlib.sha256()
    for _ in range(200):
        p = rng.choice((3, 5, 13, 53, 4621, 2**31 - 1))
        d = rng.randint(1, 4)
        field = PrimeField(p)
        while True:
            mod = FpUniPoly(field, [rng.randrange(p) for _ in range(d)] + [1])
            if is_irreducible(mod):
                break
        ext = ExtField(field, mod, check=False)
        while True:
            x = ext.elem(FpUniPoly(field, [rng.randrange(p) for _ in range(d)]))
            if not x.is_zero:
                break
        y = x.inv()
        assert (x * y).rep.coeffs == (1,)
        digest.update(json.dumps(y.to_json()).encode())
    assert digest.hexdigest() == "23a0c91c331d23b71cff053dcc72c0c7364057325cf7bbc6f86ccfc0892b44fa"


# ---------------------------------------------------------------------------
# the twisted dot product sum c(t) y(t^q) against FpUniPoly's twists,
# sparse products and dense sums

TWIST_PRIMES = (3, 5, 4621, 2**31 - 1, 2**61 - 1)


def _twisted_dot_oracle(pairs, k, p):
    """sum c * y.frobenius_pow(k) through FpUniPoly; for p >= 2^31, which
    PrimeField refuses, the same sparse sum over a dict of terms."""
    if p < 2**31:
        field = PrimeField(p)
        total = FpUniPoly.zero(field)
        for c, y in pairs:
            total = total + FpUniPoly(field, c) * FpUniPoly(field, y).frobenius_pow(k)
        return list(total.coeffs)
    q = p**k
    out = {}
    for c, y in pairs:
        for j, b in enumerate(y):
            for i, a in enumerate(c):
                out[i + j * q] = out.get(i + j * q, 0) + a * b
    dense = [0] * (max(out, default=-1) + 1)
    for e, v in out.items():
        dense[e] = v % p
    return trim(dense)


@st.composite
def _twisted_pairs(draw):
    """(p, k, pairs): y spread over q = p^k slots per coefficient, so only
    short y at large q; c up to 300 coefficients, so c overlaps itself
    across blocks (deg c >= q) at q = 3, 5, 9 and 25; zero operands, and
    coefficients at p - 1, the slot bound's extreme, often."""
    p = draw(st.sampled_from(TWIST_PRIMES))
    k = draw(st.sampled_from((1, 2)))
    coeff = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    ylen = min(40, 1 + 40000 // p**k)
    # trailing zeros are trimmed: the kernel takes coefficient lists
    poly = lambda n: st.lists(coeff, max_size=n).map(trim)
    pairs = draw(st.lists(st.tuples(poly(300), poly(ylen)), max_size=5))
    return p, k, pairs


@given(case=_twisted_pairs())
@settings(max_examples=200, deadline=None)
def test_twisted_dot_matches_the_sparse_oracle(case):
    p, k, pairs = case
    assert _twisted_dot(pairs, p**k, p) == _twisted_dot_oracle(pairs, k, p)


@pytest.mark.parametrize("p", TWIST_PRIMES)
def test_twisted_dot_at_the_slot_bound(p):
    # every coefficient p - 1, so the slots of the sum reach
    # sum min(ceil(len c / q), len y) (p - 1)^2: c and y longer than q
    # where q is small (blocks overlapping 100 deep at q = 3), and up to
    # seven pairs
    for k in (1, 2):
        q = p**k
        top = p - 1
        for npairs in (1, 2, 4, 7):
            for clen in (1, 2, min(q + 1, 40), 300):
                ylen = min(120, 1 + 40000 // q)
                pairs = [([top] * clen, [top] * ylen)] * npairs
                want = _twisted_dot_oracle(pairs, k, p)
                assert _twisted_dot(pairs, q, p) == want, (p, k, npairs, clen)


def test_twisted_dot_zero_and_constant_operands():
    p = 4621
    assert _twisted_dot([], p, p) == []
    assert _twisted_dot([([], [1, 2]), ([3], [])], p, p) == []
    # constants: c y(t^q) with c constant is c y spread; y constant is c y
    assert _twisted_dot([([2], [1, 0, 3])], p, p) == [2] + [0] * (2 * p - 1) + [6]
    assert _twisted_dot([([1, 2, 3], [5])], p**2, p) == [5, 10, 15]
    # terms that cancel leave a trimmed list
    assert _twisted_dot([([1, 1], [1]), ([p - 1, p - 1], [1])], p, p) == []
    assert _twisted_dot([([1], [1, 1]), ([p - 1], [0, 1])], p, p) == [1]


@pytest.mark.parametrize("size", range(1, 11))
def test_pack_and_unpack_take_every_slot_width(size):
    # 1, 2, 4 and 8 bytes are array item sizes; 3, 5, 6 and 7 are widened
    # to one on unpacking; 9 and 10 go slot by slot; each packed densely
    # and spread to every second and fifth slot
    rng = random.Random(size)
    top = 1 << 8 * size
    for step in (1, 2, 5):
        coeffs = [top - 1, 0, 1] + [rng.randrange(top) for _ in range(40)]
        x = _pack(coeffs, size, step)
        assert x == sum(c << 8 * size * step * i for i, c in enumerate(coeffs))
        n = step * (len(coeffs) - 1) + 1
        spread = [0] * n
        spread[::step] = coeffs
        assert _unpack(x, n, size, top) == spread
        assert _unpack(x, n, size, 97) == [c % 97 for c in spread]
