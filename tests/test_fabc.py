import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclocover.errors import HypothesisNotMet, InvalidInput, ParamOutOfRange
from cyclocover.fabc import (
    Dpk,
    FabcParams,
    _homogenize,
    _kummer_coeffs,
    coprime_shift,
    fabc,
    fabc_gcd,
    fabc_least_irreducible,
    fabc_profile,
    separable_away_from_01,
    strip,
)
from cyclocover import fabc as fabc_module
from cyclocover import ff
from cyclocover.ff import (
    FpMultiPoly,
    FpUniPoly,
    PrimeField,
    _slot_layout,
    _unpack,
    factor,
    is_prime_u64,
    least_factor,
)

from oracles import FROZEN, Dpk_multi, fabc_brute, proportionality_obstruction

F13 = PrimeField(13)
F5 = PrimeField(5)


@st.composite
def admissible(draw, primes=(5, 7, 11, 13, 29, 97)):
    p = draw(st.sampled_from(primes))
    a = draw(st.integers(0, p - 1))
    b = draw(st.integers(0, p - 1))
    c = draw(st.integers(0, a + b))
    return FabcParams(a, b, c, p)


def test_fabc_known_values():
    assert fabc(FabcParams(3, 3, 1, 13)).to_json() == FROZEN["fabc_3_3_1_p13"]
    assert fabc(FabcParams(5, 5, 9, 13)).to_json() == FROZEN["fabc_5_5_9_p13"]
    assert fabc(FabcParams(7, 4, 0, 13)) == FpUniPoly.one(F13)


def test_fabc_param_validation():
    with pytest.raises(ParamOutOfRange):
        FabcParams(13, 3, 1, 13)
    with pytest.raises(ParamOutOfRange):
        FabcParams(3, 3, 7, 13)
    with pytest.raises(ParamOutOfRange):
        FabcParams(3, 3, -1, 13)
    with pytest.raises(ParamOutOfRange):
        FabcParams(3, 3, 1, 12)


@given(params=admissible())
@settings(max_examples=400, deadline=None)
def test_fabc_matches_brute_oracle(params):
    assert fabc(params).to_json() == fabc_brute(params.a, params.b, params.c, params.p)


def test_profile_known():
    assert fabc_profile(FabcParams(5, 5, 9, 13)) == (5, 4, 0)
    deg, vt, vt1 = fabc_profile(FabcParams(11, 3, 12, 13))
    assert vt1 == 2
    assert FROZEN["fabc_5_5_9_p13_v0"] == 4


@given(params=admissible())
@settings(max_examples=400, deadline=None)
def test_profile_matches_polynomial(params):
    deg, vt, vt1 = fabc_profile(params)
    f = fabc(params)
    assert (f.degree, f.valuation_at(0), f.valuation_at(1)) == (deg, vt, vt1)
    assert deg == min(params.a, params.c)
    assert vt == max(0, params.c - params.b)
    if params.c <= params.b:
        assert vt == 0


def test_strip_identity_case():
    params = FabcParams(4, 6, 3, 13)  # c <= b, a+b <= p-1
    res = strip(params)
    assert (res.sign, res.t_power, res.t1_power, res.reduced) == (1, 0, 0, params)


def test_strip_known():
    res = strip(FabcParams(5, 5, 9, 13))
    assert res.t_power == 4 and res.t1_power == 0
    assert res.reduced == FabcParams(5, 5, 1, 13)
    res = strip(FabcParams(11, 3, 12, 13))
    assert res.t1_power == 2
    # reconstruct by explicit division
    f = fabc(FabcParams(11, 3, 12, 13))
    lin = FpUniPoly(F13, [-1, 1])
    for _ in range(2):
        q, r = f.divrem(lin)
        assert r.is_zero
        f = q


@given(params=admissible())
@settings(max_examples=400, deadline=None)
def test_strip_round_trip(params):
    res = strip(params)
    field = PrimeField(params.p)
    rebuilt = fabc(res.reduced).scale(res.sign)
    rebuilt = rebuilt * FpUniPoly(field, [0] * res.t_power + [1])
    lin = FpUniPoly(field, [-1, 1])
    for _ in range(res.t1_power):
        rebuilt = rebuilt * lin
    assert rebuilt == fabc(params)
    assert fabc(res.reduced).valuation_at(0) == 0
    assert fabc(res.reduced).valuation_at(1) == 0
    assert fabc_profile(res.reduced)[1:] == (0, 0)


def test_coprime_shift():
    ok, g = coprime_shift(FabcParams(4, 6, 3, 13))
    assert ok and g.degree == 0
    ok, g = coprime_shift(FabcParams(12, 12, 1, 13))
    assert ok
    with pytest.raises(HypothesisNotMet):
        coprime_shift(FabcParams(4, 3, 4, 13))  # c > b
    with pytest.raises(HypothesisNotMet):
        coprime_shift(FabcParams(7, 7, 3, 13))  # a+b > p-1 and c > a+b-p+1
    with pytest.raises(HypothesisNotMet):
        coprime_shift(FabcParams(0, 3, 1, 13))


@pytest.mark.parametrize("p", [7, 13, 29])
def test_coprime_shift_always_true_under_hypotheses(p):
    # every admissible (a, b, c) with 0 < c <= b and either a + b <= p - 1
    # or c <= a + b - p + 1
    for a in range(1, p):
        for b in range(1, p):
            top = b if a + b <= p - 1 else min(b, a + b - p + 1)
            for c in range(1, top + 1):
                ok, _ = coprime_shift(FabcParams(a, b, c, p))
                assert ok, (a, b, c, p)


def test_separable_known():
    assert separable_away_from_01(FpUniPoly(F13, [0, 0, 0, 0, 5, 5]))  # 5t^4(t+1)
    sq = FpUniPoly(F13, [-2, 1]) * FpUniPoly(F13, [-2, 1])
    assert not separable_away_from_01(sq)
    with pytest.raises(ParamOutOfRange):
        separable_away_from_01(FpUniPoly.zero(F13))


@given(params=admissible())
@settings(max_examples=300, deadline=None)
def test_fabc_always_separable_away_from_01(params):
    assert separable_away_from_01(fabc(params))


def test_proportionality_obstruction():
    p1 = FabcParams(8, 8, 4, 29)
    assert proportionality_obstruction(p1, p1) is True
    p2 = FabcParams(12, 12, 4, 29)
    assert proportionality_obstruction(p1, p2) is False
    f1, f2 = fabc(p1), fabc(p2)
    lam = f1.coeffs[-1] * f1.field.inv(f2.coeffs[-1]) % 29
    assert f1 != f2.scale(lam)  # confirm: genuinely not proportional
    # p = 29 = 7*4+1: the two tracked entries for that family
    a = 4
    assert proportionality_obstruction(
        FabcParams(2 * a, 2 * a, a, 29), FabcParams(3 * a, 3 * a, a, 29)
    ) is False
    with pytest.raises(HypothesisNotMet):
        proportionality_obstruction(FabcParams(2, 8, 4, 29), p2)


def test_Dpk_basic():
    # D_1 is the usual derivative: k = 0 means step p^0 = 1
    f = FpUniPoly(F5, [0, 2, 0, 1])  # t^3 + 2t
    assert Dpk(f, 0) == FpUniPoly(F5, [2, 0, 3])
    # x^5(x+1) + 3 -> x + 1 under D_5
    g = FpUniPoly(F5, [3, 0, 0, 0, 0, 1, 1])
    assert Dpk(g, 1) == FpUniPoly(F5, [1, 1])
    assert Dpk(FpUniPoly.zero(F5), 2).is_zero


@given(
    coeffs=st.lists(st.integers(0, 4), max_size=40),
    k=st.integers(0, 2),
    coeffs2=st.lists(st.integers(0, 4), max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_Dpk_linear(coeffs, k, coeffs2):
    f = FpUniPoly(F5, coeffs)
    g = FpUniPoly(F5, coeffs2)
    assert Dpk(f + g, k) == Dpk(f, k) + Dpk(g, k)


@given(coeffs=st.lists(st.integers(0, 4), min_size=1, max_size=60), k=st.integers(0, 2))
@settings(max_examples=500, deadline=None)
def test_Dpk_valuation_law(coeffs, k):
    f = FpUniPoly(F5, coeffs)
    assume(not f.is_zero)
    df = Dpk(f, k)
    if not df.is_zero:
        assert f.valuation_at(0) <= 5**k + df.valuation_at(0)


def test_Dpk_multi_consistent():
    rng = random.Random(5)
    for _ in range(20):
        exps = [rng.randrange(30) for _ in range(4)]
        uni = FpUniPoly(F5, [0] * max(exps + [0]) + [1])
        terms = {(e, 0): rng.randrange(1, 5) for e in exps}
        multi = FpMultiPoly(F5, 2, terms)
        for k in (0, 1):
            got = Dpk_multi(multi, k, var=0)
            want = Dpk(multi.to_unipoly(0), k)
            assert got.to_unipoly(0) == want


# exact recurrences among neighboring parameters
@given(params=admissible())
@settings(max_examples=300, deadline=None)
def test_recurrence_shift_b(params):
    a, b, c, p = params.a, params.b, params.c, params.p
    assume(c >= 1 and b + 1 < p)
    lhs = fabc(params) + fabc(FabcParams(a, b, c - 1, p))
    assert lhs == fabc(FabcParams(a, b + 1, c, p))


@given(params=admissible())
@settings(max_examples=300, deadline=None)
def test_recurrence_shift_a(params):
    a, b, c, p = params.a, params.b, params.c, params.p
    assume(c >= 1 and a + 1 < p)
    t = FpUniPoly(PrimeField(p), [0, 1])
    lhs = fabc(params) + t * fabc(FabcParams(a, b, c - 1, p))
    assert lhs == fabc(FabcParams(a + 1, b, c, p))


@given(params=admissible())
@settings(max_examples=300, deadline=None)
def test_recurrence_difference(params):
    a, b, c, p = params.a, params.b, params.c, params.p
    assume(c >= 1 and a + 1 < p and b + 1 < p)
    lhs = fabc(FabcParams(a + 1, b, c, p)) - fabc(FabcParams(a, b + 1, c, p))
    tm1 = FpUniPoly(PrimeField(p), [-1, 1])
    assert lhs == tm1 * fabc(FabcParams(a, b, c - 1, p))


@given(params=admissible())
@settings(max_examples=300, deadline=None)
def test_involution(params):
    from cyclocover.ff import binomial_mod_p

    a, b, c, p = params.a, params.b, params.c, params.p
    assume(c < p and a + b - c < p)
    lhs = fabc(params).scale(binomial_mod_p(a + b, a, p))
    rhs = fabc(FabcParams(c, a + b - c, a, p)).scale(binomial_mod_p(a + b, c, p))
    assert lhs == rhs


@given(
    p=st.sampled_from((179, 4621, 2**31 - 1)),
    a=st.integers(0, 3000),
    b=st.integers(0, 3000),
    frac=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_fabc_matches_brute_oracle_large_p(p, a, b, frac):
    # every term ratio has factors up to max(a, b), which must stay below p
    a, b = a % p, b % p
    c = round(frac * (a + b))
    assert fabc(FabcParams(a, b, c, p)).to_json() == fabc_brute(a, b, c, p)


def _monic_brute(a, b, c, p):
    f = fabc_brute(a, b, c, p)
    inv = pow(f[-1], p - 2, p)
    return [x * inv % p for x in f]


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_term_ratio_builder_on_every_triple(p):
    # every (a, b, c) with a, b < p and c <= a + b: a = b with c odd and
    # even, c = 0, c > b (roots at 0) and a < c (degree a)
    for a in range(p):
        for b in range(p):
            for c in range(a + b + 1):
                q = FabcParams(a, b, c, p)
                f, g = fabc(q), fabc(q, monic=True)
                assert f.to_json() == fabc_brute(a, b, c, p), (a, b, c)
                assert g.to_json() == _monic_brute(a, b, c, p), (a, b, c)
                assert g == f.monic() and g.degree == min(a, c)


@pytest.mark.parametrize("p", [4621, 2**31 - 1])
def test_term_ratio_builder_on_seeded_triples(p):
    rng = random.Random(p)
    triples = [(1980, 1980, 660), (1980, 1980, 661), (700, 700, 0), (300, 300, 450), (300, 301, 450),
               (12, 900, 400), (900, 12, 400), (0, 2000, 1000)]
    for _ in range(15):
        a, b = rng.randrange(1000), rng.randrange(1000)
        triples.append((a, b, rng.randint(0, a + b)))
        triples.append((a, a, rng.randint(0, 2 * a)))
    for a, b, c in triples:
        q = FabcParams(a, b, c, p)
        assert fabc(q).to_json() == fabc_brute(a, b, c, p), (a, b, c)
        assert fabc(q, monic=True).to_json() == _monic_brute(a, b, c, p), (a, b, c)


@pytest.mark.parametrize("p", [300007, 1000133])
def test_leading_term_is_taken_mod_p(p):
    # C(a, hi) C(b, c - hi) mod p, with no exact binomial of ~p / 2 digits:
    # those alone took 1.7 s at p = 1000133 on a 2-vCPU x86-64 host
    from cyclocover.ff import binomial_mod_p

    for a, b, c in ((2 * p // 3, p // 2, p // 3), (p // 2, p - 1, 3 * p // 4)):
        start = time.perf_counter()
        f = fabc(FabcParams(a, b, c, p))
        assert time.perf_counter() - start < 3
        hi = min(a, c)
        assert f.degree == hi
        assert f.coeffs[-1] == binomial_mod_p(a, hi, p) * binomial_mod_p(b, c - hi, p) % p


def test_census_radicals_are_the_monic_term_ratio_runs():
    # the reduced parameters of the census radicals have a = b and c <= a,
    # so the monic radical is the ratio run from 1, read back from the
    # middle; it equals fabc(q).monic() at every first-100 class-1 prime
    from cyclocover.hassewitt import OrbitContext, h1_radical_params
    from cyclocover.strata import M7_FAMILY

    primes = [p for p in range(8, 4622, 7) if is_prime_u64(p)]
    assert len(primes) == 100 and primes[-1] == 4621
    for p in primes:
        for b0 in (5, 4):
            rad, q = h1_radical_params(OrbitContext(M7_FAMILY, p, b0))
            assert q.a == q.b and q.c <= q.a
            assert rad == fabc(q).monic() and rad.coeffs[0] == 1, (p, b0)


# ---------------------------------------------------------------------------
# Kummer's quadratic transformation: f(a,a,c) at half the degree


def _homogenized_oracle(g, p):
    """sum_k g_k t^k (1 + t)^(2(n - 1 - k)), n = len(g), term by term."""
    n = len(g)
    out = [0] * (2 * n - 1)
    for k, gk in enumerate(g):
        for i in range(2 * (n - 1 - k) + 1):
            out[k + i] += gk * math.comb(2 * (n - 1 - k), i)
    return [c % p for c in out]


@pytest.mark.parametrize("p", [3, 5, 7, 13, 29])
def test_kummer_form_matches_fabc(p):
    # every (a, a, c) with c <= a < p: c = 0, odd and even c, 2a >= p
    field = PrimeField(p)
    one_t = FpUniPoly(field, [1, 1])
    half = pow(2, p - 2, p)
    for a in range(p):
        for c in range(a + 1):
            d = c // 2
            r = _kummer_coeffs(a, c, p)
            assert len(r) == d + 1 and r[0] == 1 and r[d] != 0
            # r_j = 4^j q_j, q_j = (-c/2)_j ((1-c)/2)_j / ((a-c+1)_j j!)
            q = 1
            for j in range(d + 1):
                assert r[j] == pow(4, j, p) * q % p, (a, c, j)
                num = (-c * half + j) * ((1 - c) * half + j)
                q = q * num * pow((a - c + 1 + j) * (j + 1), p - 2, p) % p
            # f(a,a,c) = C(a,c) (1+t)^(c-2D) sum_j r_j t^j (1+t)^(2(D-j))
            y_form = FpUniPoly(field, _homogenized_oracle(r, p))
            kummer = y_form * one_t if c % 2 else y_form
            assert fabc(FabcParams(a, a, c, p)) == kummer.scale(math.comb(a, c)), (a, c)
            assert _homogenize(r, p) == _homogenized_oracle(r, p)


@given(
    p=st.sampled_from((3, 5, 4621, 2**31 - 1)),
    coeffs=st.lists(st.integers(0, 2**31), min_size=1, max_size=140),
)
@settings(max_examples=120, deadline=None)
def test_homogenize_matches_oracle(p, coeffs):
    # any length, also not a power of two, and any residues (g_0 = 0 too)
    g = [c % p for c in coeffs]
    assert _homogenize(g, p) == _homogenized_oracle(g, p)


@pytest.mark.parametrize("p", [3, 53, 4621, 2**31 - 1])
def test_homogenize_slots_stay_below_the_barrett_bound(p, monkeypatch):
    # every coefficient p - 1: each slot the Barrett step gets must be
    # below the proven 4 (N + 2) p^2, and so below 2^X
    reduce_slots = fabc_module._reduce_slots
    for n in (2, 3, 5, 64, 65, 300):
        width = 1 << (n - 1).bit_length()
        top = 4 * (width + 2) * p * p
        size, x, *_ = _slot_layout(p, 2 * width - 1, top)

        def checked(v, p_, x_, *args, size=size, x=x, top=top):
            slots = -(-v.bit_length() // (8 * size))
            assert x_ == x and max(_unpack(v, slots, size, 1 << 8 * size), default=0) < min(top, 2**x)
            return reduce_slots(v, p_, x_, *args)

        monkeypatch.setattr(fabc_module, "_reduce_slots", checked)
        g = [p - 1] * n
        assert _homogenize(g, p) == _homogenized_oracle(g, p)


@st.composite
def symmetric_pairs(draw):
    """Two symmetric parameter sets over one prime: unrelated, equal, or
    the (2c, 2c, c), (3c, 3c, c) shape of M7's radicals."""
    p = draw(st.sampled_from((4621, 2**31 - 1)))
    kind = draw(st.sampled_from(("random", "equal", "m7")))
    if kind == "m7":
        c = draw(st.integers(0, 500))
        return FabcParams(2 * c, 2 * c, c, p), FabcParams(3 * c, 3 * c, c, p)
    pairs = []
    for _ in range(2):
        a = draw(st.integers(0, 1500))
        pairs.append(FabcParams(a, a, draw(st.integers(0, a)), p))
    return (pairs[0], pairs[0]) if kind == "equal" else tuple(pairs)


@given(symmetric_pairs())
@settings(max_examples=80, deadline=None)
def test_fabc_gcd_matches_generic_gcd(pair):
    p1, p2 = pair
    assert fabc_gcd(p1, p2) == fabc(p1).gcd(fabc(p2))


@pytest.mark.parametrize("p", [3, 13])
def test_fabc_gcd_matches_generic_gcd_on_every_symmetric_pair(p):
    # includes G = Q_k with c_k odd and the other c even (D_k = 0 at
    # c_k = 1), where the closed form loses its factor 1 + t
    params = [FabcParams(a, a, c, p) for a in range(p) for c in range(a + 1)]
    polys = [fabc(q) for q in params]
    for p1, f1 in zip(params, polys):
        for p2, f2 in zip(params, polys):
            assert fabc_gcd(p1, p2) == f1.gcd(f2), (p1, p2)


def test_fabc_gcd_falls_back_off_the_symmetric_law():
    # a != b, c > a = b, and mixed primes take FpUniPoly.gcd
    for p1, p2 in (
        (FabcParams(5, 7, 4, 13), FabcParams(6, 6, 3, 13)),
        (FabcParams(4, 4, 6, 13), FabcParams(6, 6, 3, 13)),
        (FabcParams(9, 9, 12, 29), FabcParams(6, 6, 5, 29)),
    ):
        assert fabc_gcd(p1, p2) == fabc(p1).gcd(fabc(p2))
        assert fabc_gcd(p2, p1) == fabc(p2).gcd(fabc(p1))
    with pytest.raises(InvalidInput):
        fabc_gcd(FabcParams(4, 4, 2, 13), FabcParams(4, 4, 2, 29))


def test_fabc_gcd_at_full_degree_is_no_slower_than_the_generic_gcd(monkeypatch):
    # equal parameters make G all of Q (e = D = 330): the gcd is then the
    # closed form itself, not built from G, and costs no more than the
    # generic gcd of the same parameters' polynomials (best of 7,
    # interleaved; about 0.45 of it at p = 4621 on a 2-vCPU x86-64 host)
    params = FabcParams(1320, 1320, 660, 4621)
    expected = fabc(params).monic()
    assert fabc_gcd(params, params) == expected
    generic, kummer = [], []
    for _ in range(7):
        for times, run in ((generic, lambda: fabc(params).gcd(fabc(params))),
                           (kummer, lambda: fabc_gcd(params, params))):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
    assert min(kummer) <= min(generic), (min(kummer), min(generic))
    # and the full-degree gcd never reaches the build from G
    monkeypatch.setattr("cyclocover.fabc._homogenize", None)
    assert fabc_gcd(params, params) == expected
    odd = FabcParams(1319, 1319, 659, 4621)
    assert fabc_gcd(odd, odd) == fabc(odd).monic()


def _strip_reduced_symmetric(p):
    """Every (a, a, c) with 1 <= c <= a < p and f(1) = C(2a, c) != 0."""
    return [FabcParams(a, a, c, p) for a in range(p) for c in range(1, a + 1)
            if fabc_profile(FabcParams(a, a, c, p))[2] == 0]


def test_fabc_least_irreducible_matches_least_factor_on_every_symmetric_member():
    # every p <= 31: t + 1 for odd c, and for even c the Kummer search,
    # whose linear factors come from its u-block of degree 1 with a square
    # discriminant
    even = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for params in _strip_reduced_symmetric(p):
            f = fabc(params, monic=True)
            want = factor(f, seed=3).factors[0][0]
            even += params.c % 2 == 0
            for seed in (1, 7):
                assert fabc_least_irreducible(params, seed) == want, (params, seed)
                assert least_factor(f, seed) == want, (params, seed)
    assert even == 533


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([37, 101, 379, 1031, 4621]), data=st.data())
def test_fabc_least_irreducible_matches_least_factor_at_larger_p(p, data):
    a = data.draw(st.integers(2, min((p - 1) // 2, 600)))
    c = 2 * data.draw(st.integers(1, a // 2))
    params = FabcParams(a, a, c, p)  # 2a < p, so f(1) = C(2a, c) != 0
    seed = data.draw(st.integers(0, 2**32))
    want = least_factor(fabc(params, monic=True), seed + 1)
    assert fabc_least_irreducible(params, seed) == want


def test_fabc_least_irreducible_needs_a_strip_reduced_symmetric_member():
    # a != b, c > a (a root at 0), f(1) = C(40, 12) = 0 mod 29, and the
    # constant f(a,a,0)
    for params in (FabcParams(6, 9, 4, 29), FabcParams(4, 4, 6, 13), FabcParams(20, 20, 12, 29)):
        with pytest.raises(HypothesisNotMet):
            fabc_least_irreducible(params, 1)
    with pytest.raises(InvalidInput):
        fabc_least_irreducible(FabcParams(5, 5, 0, 13), 1)


def test_fabc_least_irreducible_searches_at_half_degree(monkeypatch):
    # the M7 radical f(108, 108, 54) at p = 379, base 5 has its least
    # factor at t-degree 10 from a u-factor of degree 5 without a square
    # discriminant: the search steps no further than u-degree 10, and
    # every modulus but the rebuilt block's has degree <= 27; f itself is
    # never built
    params = FabcParams(108, 108, 54, 379)
    want = least_factor(fabc(params, monic=True), seed=5)
    monkeypatch.setattr(fabc_module, "fabc", lambda *args, **kwargs: pytest.fail("built f"))
    moduli, powmod = [], ff.poly_powmod
    monkeypatch.setattr(fabc_module, "poly_powmod", lambda b, e, mod: moduli.append(("square", mod.degree, e)) or powmod(b, e, mod))
    monkeypatch.setattr(ff, "poly_powmod", lambda b, e, mod: moduli.append(("step", mod.degree, e)) or powmod(b, e, mod))
    assert fabc_least_irreducible(params, seed=5) == want
    steps = [m for m in moduli if m[0] == "step" and m[2] == 379]
    assert len(steps) == 10 and max(d for _, d, _ in steps) <= 27
