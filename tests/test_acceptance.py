"""Top-level acceptance checks.

One test per criterion, each enforcing the exact expected values and the
stated runtime allowance; pytest -v therefore prints one pass/fail line
per criterion.  Nothing here is approximate: all arithmetic is exact
mod p, all counts are exact integers.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from cyclocover.fabc import (
    Dpk,
    FabcParams,
    coprime_shift,
    fabc,
    fabc_profile,
    separable_away_from_01,
    strip,
)
from cyclocover.ff import FpUniPoly, PrimeField, binomial_mod_p, factor, is_prime_u64
from cyclocover.hassewitt import (
    OrbitContext,
    branch_exponents,
    divisor_bound,
    h0_divisor_multiplicity,
    h1,
    h1_profile,
    phi_entry,
    psi_entry,
    specialize_infty,
    witness_count,
)
from cyclocover.monodromy import MonodromyDatum, signature
from cyclocover.strata import (
    M7_FAMILY,
    NewtonPolygon,
    mu_ordinary_family,
    prime_survey,
    supersingular_minus_one,
)

from oracles import phi_entry_oracle, psi_entry_oracle


def _poly(p: int, coeffs) -> FpUniPoly:
    return FpUniPoly(PrimeField(p), list(coeffs))


def _pg(*slope_mults) -> NewtonPolygon:
    return NewtonPolygon.from_slopes(
        [(Fraction(n, d), mult) for n, d, mult in slope_mults]
    )


def _random_datum(rng: random.Random) -> MonodromyDatum:
    while True:
        m = rng.randrange(3, 12)
        a = [rng.randrange(1, m) for _ in range(3)]
        last = (-sum(a)) % m
        if last == 0:
            continue
        a.append(last)
        rng.shuffle(a)
        if math.gcd(m, *a) != 1:
            continue
        return MonodromyDatum(m, 4, tuple(a))


def _chain_bases(d: MonodromyDatum, sig) -> list:
    return [
        b
        for b in range(1, d.m)
        if math.gcd(b, d.m) == 1 and sig[(d.m - b) % d.m] == 1
    ]


def test_criterion_01_specialized_entries_p13():
    t0 = time.perf_counter()
    d = MonodromyDatum(7, 4, (3, 1, 1, 2))
    phi2 = specialize_infty(phi_entry(d, 13, 2, 1, 1))
    phi3 = specialize_infty(phi_entry(d, 13, 3, 1, 1))
    assert phi2 == _poly(13, [3, 3])  # 3(t+1)
    assert phi3 == _poly(13, [0, 0, 0, 0, 5, 5])  # 5t^4(t+1)
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"exceeded 1 s: {dt:.2f}s"
    print(f"criterion 1: PASS ({dt:.3f}s) phi2=3(t+1), phi3=5t^4(t+1) at p=13")


def test_criterion_02_factorizations_p29():
    t0 = time.perf_counter()
    d = MonodromyDatum(7, 4, (3, 1, 1, 2))
    phi2 = h1(OrbitContext(d, 29, 5))  # anchored at c0 = 2
    phi3 = h1(OrbitContext(d, 29, 4))  # anchored at c0 = 3

    f2 = factor(phi2, seed=1)
    assert f2.unit == 12
    assert {(f.coeffs, m) for f, m in f2.factors} == {
        ((12, 1, 1), 1),  # t^2 + t + 12
        ((17, 17, 1), 1),  # t^2 + 17t + 17
    }

    f3 = factor(phi3, seed=1)
    assert f3.unit == 2
    assert {(f.coeffs, m) for f, m in f3.factors} == {
        ((0, 1), 8),  # t^8
        ((20, 6, 1), 1),  # t^2 + 6t + 20
        ((16, 9, 1), 1),  # t^2 + 9t + 16
    }

    assert phi2.gcd(phi3) == _poly(29, [1])
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"exceeded 1 s: {dt:.2f}s"
    print(f"criterion 2: PASS ({dt:.3f}s) p=29 factor lists and gcd=1")


def test_criterion_03_gcd_p113():
    t0 = time.perf_counter()
    d = MonodromyDatum(7, 4, (3, 1, 1, 2))
    phi2 = h1(OrbitContext(d, 113, 5))
    phi3 = h1(OrbitContext(d, 113, 4))
    assert phi2.gcd(phi3) == _poly(113, [1, 42, 1])
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"exceeded 2 s: {dt:.2f}s"
    print(f"criterion 3: PASS ({dt:.3f}s) gcd = t^2 + 42t + 1 at p=113")


def test_criterion_04_survey_32_of_100():
    t0 = time.perf_counter()
    result = prime_survey(M7_FAMILY, 1, 100, workers=4)
    basic = result.nonempty_count("Basic")
    assert basic == 32
    assert len(result.records) == 100
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"exceeded 2 min: {dt:.1f}s"
    print(f"criterion 4: PASS ({dt:.1f}s) {basic}/100 basic-nonempty, 4 workers")


def test_criterion_05_mu_ordinary_tables():
    t0 = time.perf_counter()
    expected = {
        1: (29, _pg((0, 1, 6), (1, 1, 6))),
        2: (23, _pg((0, 1, 3), (1, 3, 3), (2, 3, 3), (1, 1, 3))),
        3: (3, _pg((1, 6, 6), (5, 6, 6))),
        4: (11, _pg((0, 1, 3), (1, 3, 3), (2, 3, 3), (1, 1, 3))),
        5: (5, _pg((1, 6, 6), (5, 6, 6))),
        6: (13, _pg((0, 1, 4), (1, 2, 4), (1, 1, 4))),
    }
    for cls, (p, poly) in expected.items():
        assert p % 7 == cls
        assert mu_ordinary_family(M7_FAMILY, p) == poly, f"class {cls}"
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"exceeded 1 s: {dt:.2f}s"
    print(f"criterion 5: PASS ({dt:.3f}s) all six residue classes mod 7")


def test_criterion_06_minus_one_vanishing_sweep():
    t0 = time.perf_counter()
    primes = [
        p for p in range(13, 1001)
        if p % 7 == 6 and is_prime_u64(p)
    ]
    assert primes[0] == 13
    for p in primes:
        assert supersingular_minus_one(M7_FAMILY, p), f"nonzero at p={p}"
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"exceeded 30 s: {dt:.1f}s"
    print(
        f"criterion 6: PASS ({dt:.2f}s) phi2(-1)=phi3(-1)=0 for all "
        f"{len(primes)} primes = 6 mod 7 in [13, 1000]"
    )


def test_criterion_07_chain_properties_random_sweep():
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    data_done = 0
    witness_checks = 0
    while data_done < 50:
        d = _random_datum(rng)
        sig = signature(d)
        bases = _chain_bases(d, sig)
        if not bases:
            continue
        m = d.m
        pool = [
            q for q in range(3 * m + 1, 3 * m + 501)
            if q % 2 and q % m and is_prime_u64(q)
        ]
        for p in rng.sample(pool, 5):
            ctx = OrbitContext(d, p, rng.choice(bases))
            # profile facts come out of the chain layers without expanding
            # the composite, whose degree grows like p^(i0-1)
            prof = h1_profile(ctx)
            assert prof.value_at_one != 0, (d, p, ctx.base)
            assert prof.v_t < prof.degree, (d, p, ctx.base)
            if ctx.i0 == 1:
                poly = h1(ctx)
                assert poly.evaluate(1) == prof.value_at_one
                assert poly.valuation_at(0) == prof.v_t
                assert poly.degree == prof.degree
            if sig[(p * ctx.c0) % m] == 1:
                assert witness_count(ctx) >= p // m - 1, (d, p, ctx.base)
                witness_checks += 1
        data_done += 1
    dt = time.perf_counter() - t0
    print(
        f"criterion 7: PASS ({dt:.1f}s) 50 data x 5 primes: h1(1) != 0, "
        f"v_t < deg; {witness_checks} witness-count bounds"
    )


def test_criterion_08_identity_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(88)
    primes = (5, 7, 11, 13, 29, 97)
    counts = dict.fromkeys(
        ("rec1", "rec2", "rec3", "involution", "profile", "strip",
         "coprime", "separable", "dpk_valuation", "dpk_product", "lucas"),
        0,
    )

    def draw(p):
        a = rng.randrange(0, p)
        b = rng.randrange(0, p)
        c = rng.randrange(0, a + b + 1)
        return FabcParams(a, b, c, p)

    for p in primes:
        field = PrimeField(p)
        t = FpUniPoly(field, [0, 1])
        tm1 = FpUniPoly(field, [p - 1, 1])

        need = 170
        done = 0
        while done < need:
            q = draw(p)
            a, b, c = q.a, q.b, q.c
            if not (c >= 1 and a + 1 < p and b + 1 < p):
                continue
            # recurrences share one admissible draw
            prev = fabc(FabcParams(a, b, c - 1, p))
            cur = fabc(q)
            assert cur + prev == fabc(FabcParams(a, b + 1, c, p))
            counts["rec1"] += 1
            assert cur + t * prev == fabc(FabcParams(a + 1, b, c, p))
            counts["rec2"] += 1
            lhs = fabc(FabcParams(a + 1, b, c, p)) - fabc(FabcParams(a, b + 1, c, p))
            assert lhs == tm1 * prev
            counts["rec3"] += 1
            done += 1

        done = 0
        while done < need:
            q = draw(p)
            a, b, c = q.a, q.b, q.c
            if not (c < p and a + b - c < p):
                continue
            lhs = fabc(q).scale(binomial_mod_p(a + b, a, p))
            rhs = fabc(FabcParams(c, a + b - c, a, p)).scale(
                binomial_mod_p(a + b, c, p)
            )
            assert lhs == rhs
            counts["involution"] += 1
            done += 1

        # profile law gets 1000 draws for every prime on its own
        for _ in range(1000):
            q = draw(p)
            poly = fabc(q)
            deg, vt, vt1 = fabc_profile(q)
            assert not poly.is_zero
            assert poly.degree == deg
            assert poly.valuation_at(0) == vt
            assert poly.valuation_at(1) == vt1
            counts["profile"] += 1

        for _ in range(need):
            q = draw(p)
            s = strip(q)
            red = fabc(s.reduced)
            assert red.valuation_at(0) == 0 and red.valuation_at(1) == 0
            rebuilt = (red * FpUniPoly(red.field, [0] * s.t_power + [1])).scale(s.sign % p)
            for _i in range(s.t1_power):
                rebuilt = rebuilt * tm1
            assert rebuilt == fabc(q)
            counts["strip"] += 1

            assert separable_away_from_01(fabc(draw(p)))
            counts["separable"] += 1

        done = 0
        while done < need:
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            c = rng.randrange(1, b + 1)
            if not (a + b <= p - 1 or c <= a + b - p + 1):
                continue
            ok, g = coprime_shift(FabcParams(a, b, c, p))
            assert ok and g.degree == 0
            counts["coprime"] += 1
            done += 1

        for _ in range(need):
            k = rng.randrange(0, 3)
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(2, 120))]
            f = FpUniPoly(field, coeffs)
            if f.is_zero:
                continue
            df = Dpk(f, k)
            if not df.is_zero:
                assert f.valuation_at(0) <= p**k + df.valuation_at(0)
            counts["dpk_valuation"] += 1

            # D_{p^k}(f1^{p^k'} f2^{p^k} f3) = f1^{p^k'} (f2')^{p^k} f3
            # for k' > k and deg f3 < p^k
            k = rng.randrange(0, 2)
            kp = k + rng.randrange(1, 3)
            f1 = FpUniPoly(field, [rng.randrange(p) for _ in range(3)] + [1])
            f2 = FpUniPoly(field, [rng.randrange(p) for _ in range(3)] + [1])
            f3 = FpUniPoly(field, [rng.randrange(1, p)] +
                           [rng.randrange(p) for _ in range(p**k - 1)])
            whole = f1.frobenius_pow(kp) * f2.frobenius_pow(k) * f3
            want = f1.frobenius_pow(kp) * f2.derivative().frobenius_pow(k) * f3
            assert Dpk(whole, k) == want
            counts["dpk_product"] += 1

            n = rng.randrange(0, 3000)
            kk = rng.randrange(0, 3000)
            assert binomial_mod_p(n, kk, p) == math.comb(n, kk) % p
            counts["lucas"] += 1

    for name, n in counts.items():
        assert n >= 1000, f"{name}: only {n} instances"
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"exceeded 1 min: {dt:.1f}s"
    print(
        f"criterion 8: PASS ({dt:.1f}s) "
        + ", ".join(f"{k}={v}" for k, v in counts.items())
    )


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    # (a) multivariate entries against the brute product-expansion oracle
    cases = [
        MonodromyDatum(7, 4, (3, 1, 1, 2)),
        MonodromyDatum(5, 4, (1, 1, 1, 2)),
        MonodromyDatum(9, 4, (1, 2, 2, 4)),
        MonodromyDatum(8, 4, (1, 3, 5, 7)),
    ]
    compared_phi = compared_psi = 0
    for d in cases:
        m = d.m
        sig = signature(d)
        for p in (3, 5, 7, 11, 13):
            if p % m == 0 or math.gcd(p, m) != 1:
                continue
            for c in range(1, m):
                rows, cols = sig[(p * c) % m], sig[c]
                for jp in range(1, rows + 1):
                    for j in range(1, cols + 1):
                        got = phi_entry(d, p, c, jp, j)
                        assert got.terms == phi_entry_oracle(m, d.a, p, c, jp, j)
                        compared_phi += 1
                if math.gcd(c, m) != 1:
                    continue
                if not (sig[(p * c) % m] == 0 or sig[(m - c) % m] == 0):
                    continue
                psi_rows = sig[(m - (p * c) % m) % m]
                for jp in range(1, psi_rows + 1):
                    for j in range(1, cols + 1):
                        got = psi_entry(d, p, c, jp, j)
                        assert got.terms == psi_entry_oracle(m, d.a, p, c, jp, j)
                        compared_psi += 1
    assert compared_phi >= 100 and compared_psi >= 20

    # (b) specialization against the univariate closed forms, 100 windowed
    # random instances for phi and for psi
    rng = random.Random(99)
    found_phi = found_psi = 0
    guard = 0
    while (found_phi < 100 or found_psi < 100) and guard < 400_000:
        guard += 1
        d = _random_datum(rng)
        m = d.m
        sig = signature(d)
        pool = [q for q in (5, 7, 11, 13, 17, 19, 23, 29, 31) if q % m]
        p = rng.choice(pool)
        tau = rng.randrange(1, m)
        if sig[tau] == 0:
            continue
        bs = branch_exponents(d, p, tau)
        j = rng.randrange(1, sig[tau] + 1)

        if found_phi < 100 and sig[(p * tau) % m] >= 1:
            jp = rng.randrange(1, sig[(p * tau) % m] + 1)
            n = sum(bs) - (p * j - jp)
            if 0 <= n - bs[0] <= bs[1] + bs[2]:
                want = fabc(FabcParams(bs[1], bs[2], n - bs[0], p))
                if n % 2:
                    want = want.scale(p - 1)
                assert specialize_infty(phi_entry(d, p, tau, jp, j)) == want
                found_phi += 1

        if (
            found_psi < 100
            and math.gcd(tau, m) == 1
            and (sig[(p * tau) % m] == 0 or sig[(m - tau) % m] == 0)
            and all(b >= 1 for b in bs)
        ):
            psi_rows = sig[(m - (p * tau) % m) % m]
            if psi_rows >= 1:
                jp = rng.randrange(1, min(psi_rows, 2) + 1)
                n0 = sum(bs) - p * j
                sign = 1 if n0 % 2 == 0 else p - 1
                want = None
                if jp == 1 and 0 <= n0 - bs[0] <= bs[1] + bs[2]:
                    body = fabc(FabcParams(bs[1], bs[2], n0 - bs[0], p))
                    want = body.scale((bs[3] * sign) % p) * FpUniPoly(body.field, [0, 1])
                elif jp == 2 and 0 <= n0 - bs[0] + 1 <= bs[1] + bs[2]:
                    body = fabc(FabcParams(bs[1], bs[2], n0 - bs[0] + 1, p))
                    want = body.scale(((n0 - bs[0] + 1) * sign) % p)
                if want is not None:
                    assert specialize_infty(psi_entry(d, p, tau, jp, j)) == want
                    found_psi += 1

    assert found_phi == 100, f"only {found_phi} phi instances in the window"
    assert found_psi == 100, f"only {found_psi} psi instances in the window"
    dt = time.perf_counter() - t0
    print(
        f"criterion 9: PASS ({dt:.1f}s) {compared_phi} phi + {compared_psi} psi "
        f"oracle matches; 100+100 closed-form specializations"
    )


def test_criterion_10_divisor_bound_sweep():
    t0 = time.perf_counter()
    checked = 0
    for m in (5, 7):
        data = [
            MonodromyDatum(m, 4, a)
            for a in itertools.product(range(1, m), repeat=4)
            if sum(a) % m == 0
        ]
        primes = [p for p in (3, 5, 7, 11, 13, 17, 19, 23) if p != m]
        for d in data:
            sig = signature(d)
            for p in primes:
                for base in _chain_bases(d, sig):
                    ctx = OrbitContext(d, p, base)
                    if ctx.l > 2:
                        continue
                    for j1 in range(1, 4):
                        for j2 in range(j1 + 1, 5):
                            got = h0_divisor_multiplicity(ctx, j1, j2)
                            bound = divisor_bound(ctx, j1, j2)
                            assert got <= bound, (d, p, base, j1, j2, got, bound)
                            checked += 1
    assert checked >= 1000
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"exceeded 2 min: {dt:.1f}s"
    print(f"criterion 10: PASS ({dt:.1f}s) {checked} multiplicity bounds hold")
