import collections
import concurrent.futures
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclocover.errors import (
    HypothesisNotMet,
    InvalidInput,
    ParamOutOfRange,
    PDividesM,
    UnsupportedFamily,
    WrongCongruenceClass,
)
from cyclocover.fabc import fabc_gcd
from cyclocover.ff import (
    DEFAULT_TERM_BUDGET,
    ExtField,
    FpUniPoly,
    PrimeField,
    is_prime_u64,
    least_factor,
)
from cyclocover.hassewitt import (
    OrbitContext,
    h1,
    h1_fabc_params,
    h1_radical,
    h1_radical_params,
    witness_count,
)
from cyclocover.monodromy import FrobeniusOrbit, MonodromyDatum, frobenius_orbits, genus, signature
from cyclocover import strata
from cyclocover.strata import (
    Classification,
    M7_FAMILY,
    NewtonPolygon,
    StratumLabel,
    basic_family,
    basic_orbit,
    census,
    classify_m7,
    mu_ordinary_family,
    mu_ordinary_orbit,
    ord_polygon,
    RecordCache,
    census_records,
    prime_survey,
    supersingular_minus_one,
    survey_primes,
)

from oracles import mu_ordinary_slopes_oracle, phi_entry_oracle, radical_01

D5 = MonodromyDatum(5, 4, (1, 1, 1, 2))


def pg(*triples):
    """Polygon from (numerator, denominator, multiplicity) triples."""
    return NewtonPolygon.from_slopes((Fraction(n, d), mult) for n, d, mult in triples)


def slope_list(polygon):
    out = []
    for s, mult in polygon.parts:
        out.extend([s] * mult)
    return out


def lies_on_or_above(upper, lower):
    """Partial sums of ascending slopes never fall below the reference."""
    a, b = slope_list(upper), slope_list(lower)
    assert len(a) == len(b)
    ca = cb = Fraction(0)
    for x, y in zip(a, b):
        ca += x
        cb += y
        if ca < cb:
            return False
    return True


# ---------------------------------------------------------------- polygons


def test_polygon_normalization_and_validation():
    a = NewtonPolygon.from_slopes([(Fraction(1, 2), 2), (Fraction(0), 1), (Fraction(1, 2), 2)])
    assert a.parts == ((Fraction(0), 1), (Fraction(1, 2), 4))
    with pytest.raises(InvalidInput):
        NewtonPolygon(((Fraction(3, 2), 1),))
    with pytest.raises(InvalidInput):
        NewtonPolygon(((Fraction(1, 2), 0),))
    with pytest.raises(InvalidInput):
        NewtonPolygon(((Fraction(1, 2), 1), (Fraction(0), 1)))
    with pytest.raises(InvalidInput):
        NewtonPolygon(((0.5, 1),))


def test_ord_polygon_and_sum():
    assert ord_polygon(0).parts == ()
    assert ord_polygon(2) == pg((0, 1, 2), (1, 1, 2))
    with pytest.raises(ParamOutOfRange):
        ord_polygon(-1)
    # composing an ord part with a half-slope block
    composed = ord_polygon(2) + pg((1, 2, 8))
    assert composed == pg((0, 1, 2), (1, 2, 8), (1, 1, 2))


@given(
    st.lists(
        st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=12), st.integers(1, 5)),
        max_size=5,
    ),
    st.lists(
        st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=12), st.integers(1, 5)),
        max_size=5,
    ),
    st.lists(
        st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=12), st.integers(1, 5)),
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_polygon_sum_multiset_laws(xs, ys, zs):
    a, b, c = (NewtonPolygon.from_slopes(v) for v in (xs, ys, zs))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ord_polygon(0) == a
    assert (a + b).height == a.height + b.height


def test_polygon_metrics():
    beta = pg((1, 2, 12))
    assert beta.height == 12
    assert beta.slope_sum == 6
    assert beta.is_symmetric and beta.is_supersingular
    mu = pg((0, 1, 6), (1, 1, 6))
    assert mu.is_symmetric and not mu.is_supersingular
    lopsided = pg((0, 1, 2), (1, 3, 1))
    assert not lopsided.is_symmetric
    assert mu.to_json() == [["0", 6], ["1", 6]]


# ------------------------------------------------- per-orbit slope formula

ORBIT_SWEEP = [
    (MonodromyDatum(5, 4, (1, 1, 1, 2)), (3, 7, 11, 13, 19)),
    (MonodromyDatum(7, 4, (3, 1, 1, 2)), (3, 5, 11, 13, 29)),
    (MonodromyDatum(8, 4, (1, 3, 5, 7)), (3, 5, 7, 13)),
    (MonodromyDatum(9, 4, (1, 2, 2, 4)), (5, 7, 11, 17)),
    (MonodromyDatum(11, 4, (1, 2, 3, 5)), (3, 7, 13, 23)),
    (MonodromyDatum(12, 4, (1, 5, 7, 11)), (5, 7, 13)),
]


def test_mu_ordinary_orbit_matches_oracle():
    for datum, primes in ORBIT_SWEEP:
        sig = signature(datum)
        for p in primes:
            for orbit in frobenius_orbits(datum.m, p, sig):
                got = slope_list(mu_ordinary_orbit(orbit, sig))
                want = sorted(mu_ordinary_slopes_oracle(orbit.members, sig, orbit.l) * orbit.l)
                assert got == want, (datum, p, orbit.members)


def test_mu_ordinary_singleton_forced():
    sig = signature(M7_FAMILY)
    orbit = FrobeniusOrbit(members=(2,), l=1)
    assert mu_ordinary_orbit(orbit, sig) == pg((0, 1, 1), (1, 1, 1))


def test_orbit_g_must_be_constant():
    sig = (0, 2, 1, 0, 0, 1, 0)
    with pytest.raises(InvalidInput):
        mu_ordinary_orbit(FrobeniusOrbit(members=(1, 3), l=2), sig)
    with pytest.raises(InvalidInput):
        basic_orbit(FrobeniusOrbit(members=(1, 3), l=2), sig)


def test_family_polygon_tables_all_classes():
    # one prime per residue class mod 7
    tables = {
        29: (pg((0, 1, 6), (1, 1, 6)), pg((0, 1, 2), (1, 2, 8), (1, 1, 2))),
        23: (pg((0, 1, 3), (1, 3, 3), (2, 3, 3), (1, 1, 3)), pg((1, 3, 6), (2, 3, 6))),
        31: (pg((1, 6, 6), (5, 6, 6)), pg((1, 2, 12))),
        11: (pg((0, 1, 3), (1, 3, 3), (2, 3, 3), (1, 1, 3)), pg((1, 3, 6), (2, 3, 6))),
        47: (pg((1, 6, 6), (5, 6, 6)), pg((1, 2, 12))),
        13: (pg((0, 1, 4), (1, 2, 4), (1, 1, 4)), pg((1, 2, 12))),
    }
    for p, (mu, beta) in tables.items():
        assert mu_ordinary_family(M7_FAMILY, p) == mu, p
        assert basic_family(M7_FAMILY, p) == beta, p


def test_family_polygon_height_and_slope_sum():
    for datum, primes in ORBIT_SWEEP:
        g = genus(datum)
        for p in primes:
            for polygon in (mu_ordinary_family(datum, p), basic_family(datum, p)):
                assert polygon.height == 2 * g
                assert polygon.slope_sum == g
                assert polygon.is_symmetric
            assert lies_on_or_above(basic_family(datum, p), mu_ordinary_family(datum, p))


def test_basic_family_is_the_stratum_where_every_pair_vanishes():
    # census reads the Nu row's polygon from the memoized stratum polygon
    for m in (5, 7):
        every_pair = frozenset(range(1, (m + 1) // 2))
        for a in itertools.combinations_with_replacement(range(1, m), 4):
            if sum(a) % m or math.gcd(m, *a) != 1:
                continue
            datum = MonodromyDatum(m, 4, a)
            for cls in range(1, m):
                p = next(q for q in range(cls + 3 * m * m, 10**4, m) if is_prime_u64(q))
                assert basic_family(datum, p) == strata._stratum_polygon(datum, cls, every_pair), (a, p)


# ---------------------------------------------------------------- classify


def test_classify_basic_at_minus_one_p13():
    result = classify_m7(13, -1)
    assert result.label == StratumLabel("Basic", 7, 6)
    assert result.polygon == pg((1, 2, 12))
    assert classify_m7(13, 2).label.kind == "MuOrdinary"
    assert classify_m7(13, 2).polygon == pg((0, 1, 4), (1, 2, 4), (1, 1, 4))


def test_classify_matches_direct_evaluation():
    for p in (13, 29, 41):
        phi2 = h1(OrbitContext(M7_FAMILY, p, 5))
        phi3 = h1(OrbitContext(M7_FAMILY, p, 4))
        for alpha in range(2, 13):
            v2 = phi2.evaluate(alpha) != 0
            v3 = phi3.evaluate(alpha) != 0
            want = {
                (True, True): "MuOrdinary",
                (True, False): "W2",
                (False, True): "W3",
                (False, False): "Basic",
            }[(v2, v3)]
            assert classify_m7(p, alpha).label.kind == want, (p, alpha)


def test_classify_at_certificate_roots_p29():
    f29 = PrimeField(29)
    w2_root = ExtField(f29, FpUniPoly(f29, [20, 6, 1])).generator()
    got = classify_m7(29, w2_root)
    assert got.label == StratumLabel("W2", 7, 1)
    assert got.polygon == pg((0, 1, 4), (1, 2, 4), (1, 1, 4))
    w3_root = ExtField(f29, FpUniPoly(f29, [12, 1, 1])).generator()
    assert classify_m7(29, w3_root).label == StratumLabel("W3", 7, 1)
    assert classify_m7(29, -1).label.kind == "MuOrdinary"


def _ext_pow(x, e):
    out = x.ext.from_base(1)
    b = x
    while e:
        if e & 1:
            out = out * b
        b = b * b
        e >>= 1
    return out


def test_classify_constant_on_galois_conjugates():
    f113 = PrimeField(113)
    alpha = ExtField(f113, FpUniPoly(f113, [1, 42, 1])).generator()
    conj = _ext_pow(alpha, 113)
    assert conj != alpha
    assert classify_m7(113, alpha).label.kind == "Basic"
    assert classify_m7(113, conj).label.kind == "Basic"
    f29 = PrimeField(29)
    beta = ExtField(f29, FpUniPoly(f29, [16, 9, 1])).generator()
    assert classify_m7(29, beta).label == classify_m7(29, _ext_pow(beta, 29)).label


def test_classify_at_every_certificate_root():
    # a root of each nonempty census certificate classifies into that
    # row's stratum: the prime-field root of a linear least factor, else
    # the generator of the extension the least factor defines
    for p in (29, 41, 43, 71, 113, 127):
        field = PrimeField(p)
        report = census(M7_FAMILY, p)
        _, rows = strata._census_rows(M7_FAMILY, p, DEFAULT_TERM_BUDGET)
        assert [row.label.kind for row in report.strata[1:]] == [kind for kind, *_ in rows]
        for row, (_, _, cert, _) in zip(report.strata[1:], rows):
            if not row.nonempty:
                continue
            factor = least_factor(cert, seed=p)
            if factor.degree == 1:
                alpha = -factor.coeffs[0] % p
            else:
                alpha = ExtField(field, factor).generator()
            got = classify_m7(p, alpha)
            assert (got.label, got.polygon) == (row.label, row.polygon), (p, row.label)


def test_classify_rejections():
    with pytest.raises(WrongCongruenceClass):
        classify_m7(23, 2)
    with pytest.raises(ParamOutOfRange):
        classify_m7(13, 0)
    with pytest.raises(ParamOutOfRange):
        classify_m7(13, 1)
    with pytest.raises(ParamOutOfRange):
        classify_m7(13, 14)
    f29 = PrimeField(29)
    stranger = ExtField(f29, FpUniPoly(f29, [12, 1, 1])).generator()
    with pytest.raises(InvalidInput):
        classify_m7(13, stranger)


def test_stratum_label_validation():
    with pytest.raises(InvalidInput):
        StratumLabel("W2", 5, 1)
    with pytest.raises(InvalidInput):
        StratumLabel("W3", 7, 2)
    with pytest.raises(InvalidInput):
        StratumLabel("Generic", 7, 1)
    with pytest.raises(InvalidInput):
        StratumLabel("Basic", 7, 0)
    assert str(StratumLabel("W2", 7, 6)) == "W2(p=6 mod 7)"


# ------------------------------------------------------------------ census


def test_census_p13_exact():
    rep = census(M7_FAMILY, 13, allow_small=True)
    assert rep.p_class == 6 and rep.dim_sh == 2
    kinds = [s.label.kind for s in rep.strata]
    assert kinds == ["MuOrdinary", "W2", "W3", "Basic"]
    assert [s.dim for s in rep.strata] == [2, 1, 1, 0]
    assert [s.nonempty for s in rep.strata] == [True, False, False, True]
    assert rep.strata[3].certificate == "1 + 1*t"
    assert rep.strata[1].certificate is None and rep.strata[2].certificate is None
    assert rep.strata[0].polygon == pg((0, 1, 4), (1, 2, 4), (1, 1, 4))
    assert rep.strata[1].polygon == pg((0, 1, 2), (1, 2, 8), (1, 1, 2))
    assert rep.strata[3].polygon == pg((1, 2, 12))
    assert rep.to_json_line() == (
        '{"class":6,"p":13,"strata":[{"certificate":null,"dim":2,"label":"MuOrdinary",'
        '"nonempty":true},{"certificate":null,"dim":1,"label":"W2","nonempty":false},'
        '{"certificate":null,"dim":1,"label":"W3","nonempty":false},'
        '{"certificate":"1 + 1*t","dim":0,"label":"Basic","nonempty":true}]}'
    )


def test_census_p29_certificates():
    f29 = PrimeField(29)
    rep = census(M7_FAMILY, 29)
    assert rep.p_class == 1
    by_kind = {s.label.kind: s for s in rep.strata}
    assert not by_kind["Basic"].nonempty and by_kind["Basic"].certificate is None
    w2 = FpUniPoly(f29, [20, 6, 1]) * FpUniPoly(f29, [16, 9, 1])
    w3 = FpUniPoly(f29, [12, 1, 1]) * FpUniPoly(f29, [17, 17, 1])
    assert by_kind["W2"].certificate == w2.to_text()
    assert by_kind["W3"].certificate == w3.to_text()
    assert by_kind["W2"].polygon == pg((0, 1, 4), (1, 2, 4), (1, 1, 4))
    assert by_kind["Basic"].polygon == pg((0, 1, 2), (1, 2, 8), (1, 1, 2))


def test_census_p113_certificates():
    f113 = PrimeField(113)
    rep = census(M7_FAMILY, 113)
    by_kind = {s.label.kind: s for s in rep.strata}
    assert by_kind["Basic"].nonempty
    assert by_kind["Basic"].certificate == FpUniPoly(f113, [1, 42, 1]).to_text()
    deg14 = FpUniPoly(f113, [1, 84, 34, 99, 15, 102, 76, 12, 76, 102, 15, 99, 34, 84, 1])
    assert by_kind["W2"].certificate == deg14.to_text()
    deg10 = FpUniPoly(f113, [1, 40, 87, 61, 35, 91, 35, 61, 87, 40, 1])
    w3 = FpUniPoly(f113, [69, 14, 1]) * FpUniPoly(f113, [95, 87, 1]) * deg10
    assert by_kind["W3"].certificate == w3.to_text()


def test_census_class6_bottom_stratum_always_meets():
    # -1 is a shared root of both chain polynomials in this class
    for p in (41, 83, 97, 167):
        rep = census(M7_FAMILY, p)
        by_kind = {s.label.kind: s for s in rep.strata}
        assert by_kind["Basic"].nonempty
        assert by_kind["W2"].nonempty and by_kind["W3"].nonempty
        assert classify_m7(p, -1).label.kind == "Basic"


def test_census_other_congruence_classes():
    rep = census(M7_FAMILY, 23)
    assert [s.label.kind for s in rep.strata] == ["MuOrdinary", "Nu"]
    assert rep.strata[1].dim == 1 and rep.strata[1].nonempty
    assert rep.strata[1].polygon == pg((1, 3, 6), (2, 3, 6))
    rep5 = census(D5, 17)
    assert [s.label.kind for s in rep5.strata] == ["MuOrdinary", "Nu"]
    assert rep5.strata[0].polygon == pg((1, 4, 4), (3, 4, 4))
    assert rep5.strata[1].polygon == pg((1, 2, 8))
    assert rep5.strata[1].dim == 0


def test_census_m5_family():
    rep = census(D5, 19)
    assert [s.label.kind for s in rep.strata] == ["MuOrdinary", "Basic"]
    assert [s.dim for s in rep.strata] == [1, 0]
    assert rep.strata[0].polygon == pg((0, 1, 2), (1, 2, 4), (1, 1, 2))
    assert rep.strata[1].polygon == pg((1, 2, 8))
    # nonemptiness agrees with the chain witness count
    expect = witness_count(OrbitContext(D5, 19, 3)) >= 1
    assert rep.strata[1].nonempty == expect


def test_census_single_balanced_pair_m7():
    rep = census(MonodromyDatum(7, 4, (1, 2, 2, 2)), 29)
    assert [s.label.kind for s in rep.strata] == ["MuOrdinary", "Basic"]
    assert [s.dim for s in rep.strata] == [1, 0]
    assert rep.dim_sh == 1


def test_census_rejections():
    with pytest.raises(UnsupportedFamily):
        census(MonodromyDatum(11, 4, (1, 2, 3, 5)), 29)
    with pytest.raises(UnsupportedFamily):
        census(MonodromyDatum(7, 5, (1, 1, 1, 2, 2)), 29)
    with pytest.raises(UnsupportedFamily):
        # three balanced pairs: no label scheme
        census(MonodromyDatum(7, 4, (1, 6, 3, 4)), 29)
    with pytest.raises(HypothesisNotMet):
        census(M7_FAMILY, 13)
    with pytest.raises(PDividesM):
        census(D5, 5, allow_small=True)


def test_census_json_shape_and_determinism():
    rep1 = census(M7_FAMILY, 29)
    rep2 = census(M7_FAMILY, 29)
    assert rep1.to_json_line() == rep2.to_json_line()
    record = json.loads(rep1.to_json_line())
    assert set(record) == {"p", "class", "strata"}
    for s in record["strata"]:
        assert set(s) == {"label", "dim", "nonempty", "certificate"}
        assert (s["certificate"] is not None) == s["nonempty"] or s["label"] == "MuOrdinary"


def test_census_polygon_invariants():
    cases = [
        (M7_FAMILY, (29, 23, 31, 13), True),
        (D5, (19, 17, 31), False),
        (MonodromyDatum(7, 4, (1, 2, 2, 2)), (29, 23), False),
    ]
    for datum, primes, _ in cases:
        g = genus(datum)
        for p in primes:
            rep = census(datum, p, allow_small=True)
            mu = rep.strata[0].polygon
            for s in rep.strata:
                assert s.polygon.is_symmetric
                assert s.polygon.height == 2 * g
                assert s.polygon.slope_sum == g
                assert lies_on_or_above(s.polygon, mu)


# ------------------------------------------------------------------ survey


def test_survey_prime_enumeration():
    assert survey_primes(7, 1, 5) == [29, 43, 71, 113, 127]
    assert survey_primes(7, 6, 4) == [13, 41, 83, 97]
    assert survey_primes(5, 4, 3) == [19, 29, 59]
    assert survey_primes(7, 1, 0) == []
    # odd primes only: the class of 2 starts at its next prime
    assert survey_primes(5, 2, 3) == [7, 17, 37]
    assert survey_primes(7, 2, 2) == [23, 37]
    assert survey_primes(3, 2, 3) == [5, 11, 17]
    with pytest.raises(ParamOutOfRange):
        survey_primes(7, 0, 3)
    with pytest.raises(ParamOutOfRange):
        survey_primes(7, 7, 3)
    with pytest.raises(ParamOutOfRange):
        survey_primes(7, 1, -1)


def test_survey_count_zero():
    sv = prime_survey(M7_FAMILY, 1, 0)
    assert sv.records == ()
    assert sv.counts == {}


def test_survey_small_class1():
    sv = prime_survey(M7_FAMILY, 1, 4)
    assert [r["p"] for r in sv.records] == [29, 43, 71, 113]
    assert sv.counts == {"MuOrdinary": 4, "W2": 4, "W3": 4, "Basic": 1}
    assert sv.nonempty_count("Basic") == 1
    assert sv.nonempty_count("Nu") == 0


def test_survey_worker_merge_is_deterministic():
    serial = prime_survey(M7_FAMILY, 1, 4, workers=1)
    parallel = prime_survey(M7_FAMILY, 1, 4, workers=2)
    assert serial.records == parallel.records
    assert serial.counts == parallel.counts


def test_survey_csv_export():
    sv = prime_survey(M7_FAMILY, 1, 2)
    rows = strata.census_csv(sv.records).splitlines()
    assert rows[0] == "p,class,label,dim,nonempty,certificate"
    assert len(rows) == 1 + 2 * 4
    assert rows[1].startswith("29,1,MuOrdinary,2,true,")
    assert any(row.startswith("29,1,Basic,0,false,") for row in rows)


def test_survey_class6_small():
    sv = prime_survey(M7_FAMILY, 6, 2, allow_small=True)
    assert [r["p"] for r in sv.records] == [13, 41]
    basics = {r["p"]: {s["label"]: s["nonempty"] for s in r["strata"]} for r in sv.records}
    assert basics[13]["Basic"] and basics[41]["Basic"]
    assert not basics[13]["W2"] and basics[41]["W2"]


def test_survey_rejections():
    with pytest.raises(ParamOutOfRange):
        prime_survey(M7_FAMILY, 1, 2, workers=0)
    with pytest.raises(ParamOutOfRange):
        prime_survey(M7_FAMILY, 0, 2)
    with pytest.raises(HypothesisNotMet):
        prime_survey(M7_FAMILY, 6, 1)  # first prime is 13, below the bound


class _FakePool:
    """ProcessPoolExecutor stand-in: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        _FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers,cpus,cached,size", [
    (64, 8, 0, 3),     # clamped to the number of misses
    (64, 2, 0, 2),     # clamped to the CPUs
    (2, 8, 0, 2),      # as asked
    (64, None, 0, None),  # unknown CPU count counts as one: serial
    (64, 8, 2, None),  # one miss left: serial
    (64, 8, 3, None),  # all hits: no pool
])
def test_census_records_bounds_the_pool(monkeypatch, tmp_path, workers, cpus, cached, size):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(strata.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_FakePool, "sizes", [])
    primes = [29, 43, 71]
    expected = [census(M7_FAMILY, p).to_json_record() for p in primes]
    cache = RecordCache(str(tmp_path))
    for p, rec in zip(primes[:cached], expected):
        cache.put(RecordCache.key(M7_FAMILY, p), rec)
    assert census_records(M7_FAMILY, primes, workers=workers, cache=cache) == expected
    assert _FakePool.sizes == ([] if size is None else [size])


def test_census_records_stores_each_miss_in_a_file_of_its_own(tmp_path):
    cache = RecordCache(str(tmp_path))
    cache.put(RecordCache.key(M7_FAMILY, 43), census(M7_FAMILY, 43).to_json_record())
    records = census_records(M7_FAMILY, [71, 43, 29], cache=cache)
    assert [r["p"] for r in records] == [71, 43, 29]
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == {
        RecordCache.key(M7_FAMILY, r["p"]) + ".json": strata.canonical_json(r) for r in records
    }
    # a fresh cache over the same directory replays every record
    assert census_records(M7_FAMILY, [71, 43, 29], cache=RecordCache(str(tmp_path))) == records


def test_record_cache_get_opens_at_most_one_file(tmp_path, monkeypatch):
    cache = RecordCache(str(tmp_path))
    keys = [RecordCache.key(M7_FAMILY, p) for p in (29, 43, 71)]
    for key, p in zip(keys, (29, 43, 71)):
        cache.put(key, census(M7_FAMILY, p).to_json_record())
    (tmp_path / (keys[2] + ".json")).write_text("{torn")
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for key, want in ((keys[0], 29), (keys[1], 43), (keys[2], None), ("0" * 64, None)):
        opened.clear()
        rec = cache.get(key)
        assert (rec and rec["p"]) == want
        assert opened == [str(tmp_path / (key + ".json"))]
    opened.clear()
    assert RecordCache(None).get(keys[0]) is None and opened == []


def test_record_cache_without_a_directory_is_inert(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = RecordCache(None)
    key = RecordCache.key(M7_FAMILY, 29)
    cache.put(key, census(M7_FAMILY, 29).to_json_record())
    assert cache.get(key) is None and list(tmp_path.iterdir()) == []


def test_stratum_polygons_memoized_by_residue_class():
    # a stratum polygon depends only on the datum, p mod m and the
    # vanishing pairs: the memoized one equals the polygon built afresh
    # from the Frobenius orbits at each of four primes of every class
    for datum in (D5, M7_FAMILY):
        m = datum.m
        sig = signature(datum)
        reps = range(1, (m + 1) // 2)
        subsets = [frozenset(s) for r in range(len(reps) + 1) for s in itertools.combinations(reps, r)]
        for cls in range(1, m):
            primes = [p for p in range(3 * m + 1, 600) if p % m == cls and is_prime_u64(p)]
            for p in primes[:4]:
                orbits = frobenius_orbits(m, p, sig)
                for vanishing in subsets:
                    fresh = NewtonPolygon.from_slopes(
                        part for orbit in orbits
                        for part in (basic_orbit if min(min(c, m - c) for c in orbit.members) in vanishing
                                     else mu_ordinary_orbit)(orbit, sig).parts)
                    assert strata._stratum_polygon(datum, cls, vanishing) == fresh, (m, p, vanishing)
    # the census rows carry the same polygons
    report = census(M7_FAMILY, 43)
    assert [row.polygon for row in report.strata] == [
        strata._stratum_polygon(M7_FAMILY, 1, frozenset(v)) for v in ((), (3,), (2,), (2, 3))]


def test_census_records_without_cache_is_census():
    assert census_records(M7_FAMILY, [29]) == [census(M7_FAMILY, 29).to_json_record()]
    with pytest.raises(ParamOutOfRange):
        census_records(M7_FAMILY, [29], workers=0)
    with pytest.raises(HypothesisNotMet):
        census_records(M7_FAMILY, [13])


# --------------------------------------------------------- supersingular CM


def _phi_at_minus_one_oracle(m, a, p, c):
    """Independent route: brute-force product expansion, then keep the
    top slice in x1 - x4, set x3 = 1, x2 = -1."""
    terms = phi_entry_oracle(m, a, p, c, 1, 1)
    nz = {e: v % p for e, v in terms.items() if v % p}
    if not nz:
        return 0
    gap = max(e[0] - e[3] for e in nz)
    acc = 0
    for e, v in nz.items():
        if e[0] - e[3] == gap:
            acc = (acc + v * pow(p - 1, e[1], p)) % p
    return acc


def test_supersingular_minus_one_goldens():
    assert supersingular_minus_one(M7_FAMILY, 13) is True
    assert supersingular_minus_one(D5, 19) is True
    assert supersingular_minus_one(D5, 29) is True
    assert supersingular_minus_one(MonodromyDatum(9, 4, (1, 1, 3, 4)), 17) is True
    assert supersingular_minus_one(MonodromyDatum(3, 4, (1, 1, 2, 2)), 5) is True


def test_supersingular_evaluations_match_oracle():
    # (5,(1,1,1,2)): repeated pair sits in the middle already
    assert _phi_at_minus_one_oracle(5, (1, 1, 1, 2), 19, 2) == 0
    # (7,(3,1,1,2)): balanced pairs at characters 2 and 3
    assert _phi_at_minus_one_oracle(7, (3, 1, 1, 2), 13, 2) == 0
    assert _phi_at_minus_one_oracle(7, (3, 1, 1, 2), 13, 3) == 0
    # the vanishing is specific to this congruence class: p=29 is 1 mod 7
    assert classify_m7(29, -1).label.kind == "MuOrdinary"


def test_supersingular_class_sweep():
    for p in (13, 41, 83, 97, 167, 181):
        assert supersingular_minus_one(M7_FAMILY, p) is True
    for p in (19, 29, 59, 79, 89):
        assert supersingular_minus_one(D5, p) is True


def test_supersingular_rejections():
    with pytest.raises(HypothesisNotMet):
        supersingular_minus_one(MonodromyDatum(8, 4, (1, 3, 5, 7)), 7)
    with pytest.raises(HypothesisNotMet):
        supersingular_minus_one(MonodromyDatum(7, 4, (1, 2, 5, 6)), 13)
    with pytest.raises(HypothesisNotMet):
        supersingular_minus_one(M7_FAMILY, 29)
    with pytest.raises(HypothesisNotMet):
        supersingular_minus_one(MonodromyDatum(7, 5, (1, 1, 1, 2, 2)), 13)


# ---------------------------------------------------------------------------
# closed-form and last-layer radicals against the generic path


def _balanced_chains(m, p):
    """(datum, c) for every M5/M7 four-point datum (labels sorted) and every
    balanced character c whose pair has signature 1 on both sides."""
    out = []
    for a in itertools.combinations_with_replacement(range(1, m), 4):
        if sum(a) % m or math.gcd(m, *a) != 1:
            continue
        d = MonodromyDatum(m, 4, a)
        sig = signature(d)
        out.extend((d, c) for c in range(1, m) if sig[c] == 1 and sig[m - c] == 1)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_radical_matches_generic_path(seed):
    rng = random.Random(seed)
    for m in (5, 7):
        for cls in (1, m - 1):
            primes = [p for p in survey_primes(m, cls, 60) if 3 * m < p < 900]
            for p in rng.sample(primes, 4):
                chains = _balanced_chains(m, p)
                for d, c in rng.sample(chains, min(8, len(chains))):
                    ctx = OrbitContext(d, p, m - c)
                    assert h1_fabc_params(ctx) is not None, (d, p, c)
                    assert h1_radical(ctx) == radical_01(h1(ctx)), (d, p, c)


def test_census_gcd_matches_the_generic_gcd_on_every_two_pair_m7_datum():
    # every M7 four-point datum (in every label order) with balanced pairs
    # at 2 and 3, at the primes p = +-1 mod 7 up to 400: both radicals
    # symmetric (2,1,1,3 and 3,1,1,2), one of them (the fallback, as for
    # 2,1,3,1), or neither; and each radical against itself (equal
    # parameters)
    shapes = collections.Counter()
    for labels in itertools.product(range(1, 7), repeat=4):
        if sum(labels) % 7:
            continue
        d = MonodromyDatum(7, 4, labels)
        if [c for c in (1, 2, 3) if signature(d)[c] == signature(d)[7 - c] == 1] != [2, 3]:
            continue
        for p in (p for p in range(23, 401) if p % 7 in (1, 6) and is_prime_u64(p)):
            (rad2, q2), (rad3, q3) = (h1_radical_params(OrbitContext(d, p, 7 - c)) for c in (2, 3))
            assert fabc_gcd(q2, q3) == rad2.gcd(rad3), (labels, p)
            assert fabc_gcd(q2, q2) == rad2 and fabc_gcd(q3, q3) == rad3, (labels, p)
            shapes[labels, p % 7, q2.a == q2.b, q3.a == q3.b] += 1
    sym = {key[:2]: key[2:] for key in shapes}
    assert len(sym) == 48
    for labels in ((2, 1, 1, 3), (3, 1, 1, 2)):
        assert sym[labels, 1] == sym[labels, 6] == (True, True)
    assert sym[(2, 1, 3, 1), 1] == sym[(2, 1, 3, 1), 6] == (True, False)
    assert sym[(3, 1, 2, 1), 1] == (False, True)


@pytest.mark.parametrize("p,c", [(31, 2), (53, 2), (37, 3)])
def test_long_orbit_radical_matches_the_generic_path(p, c):
    ctx = OrbitContext(M7_FAMILY, p, 7 - c)
    assert ctx.i0 > 1
    assert h1_fabc_params(ctx) is None
    rad = h1_radical(ctx)
    assert rad == radical_01(h1(ctx))
    assert rad.degree >= 1
