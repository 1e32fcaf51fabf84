import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclocover.errors import (
    InvalidInput,
    NotAdmissible,
    NotGenerating,
    ParamOutOfRange,
    PDividesM,
    QuotientDegenerate,
    SumNonzero,
    ZeroLabel,
)
from cyclocover.monodromy import (
    MonodromyDatum,
    canonicalize,
    clutch,
    equivalent,
    find_tau_signature_one,
    frobenius_orbits,
    genus,
    hypothesis_cases,
    parse_datum,
    quotient_datum,
    signature,
)

from oracles import FROZEN


@st.composite
def valid_data(draw, max_m=40, max_r=8):
    m = draw(st.integers(2, max_m))
    r = draw(st.integers(3, max_r))
    head = draw(st.lists(st.integers(1, m - 1), min_size=r - 1, max_size=r - 1))
    last = (-sum(head)) % m
    assume(last != 0)
    a = head + [last]
    assume(math.gcd(m, *a) == 1)
    return MonodromyDatum(m, r, tuple(a))


def test_validate_examples():
    d = MonodromyDatum(7, 4, (3, 1, 1, 2))
    assert d.a == (3, 1, 1, 2)
    with pytest.raises(SumNonzero):
        MonodromyDatum(7, 4, (3, 1, 1, 3))
    with pytest.raises(NotGenerating):
        MonodromyDatum(6, 3, (2, 2, 2))
    with pytest.raises(ZeroLabel):
        MonodromyDatum(7, 4, (7, 1, 1, 5))
    with pytest.raises(ZeroLabel):
        MonodromyDatum(7, 4, (0, 1, 1, 5))
    with pytest.raises(ParamOutOfRange):
        MonodromyDatum(1, 3, (0, 0, 0))
    with pytest.raises(InvalidInput):
        MonodromyDatum(7, 4, (3, 1, 3))


def test_parse_and_serialize():
    d = parse_datum("7:4:3,1,1,2")
    assert d == MonodromyDatum(7, 4, (3, 1, 1, 2))
    assert d.to_text() == "7:4:3,1,1,2"
    assert d.to_json() == {"m": 7, "r": 4, "a": [3, 1, 1, 2]}
    assert parse_datum('{"m": 7, "r": 4, "a": [3, 1, 1, 2]}') == d
    with pytest.raises(InvalidInput):
        parse_datum("7:4")
    with pytest.raises(InvalidInput):
        parse_datum("7:4:x,y,z,w")


def test_canonicalize_known_pairs():
    assert equivalent(MonodromyDatum(7, 4, (3, 2, 1, 1)), MonodromyDatum(7, 4, (1, 1, 2, 3)))
    # unit 2 sends (1,6,3,4) to (2,5,6,1)
    assert equivalent(MonodromyDatum(7, 4, (1, 6, 3, 4)), MonodromyDatum(7, 4, (2, 5, 6, 1)))
    got = canonicalize(MonodromyDatum(5, 4, (1, 1, 1, 2)))
    assert got.a == FROZEN["canon_5_4_1112"]


def test_canonicalize_exhaustive_small():
    # every unit/permutation translate of a datum canonicalizes identically
    for m in (5, 7, 8, 12):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        for head in itertools.product(range(1, m), repeat=3):
            last = (-sum(head)) % m
            if last == 0:
                continue
            a = head + (last,)
            if math.gcd(m, *a) != 1:
                continue
            d = MonodromyDatum(m, 4, a)
            c = canonicalize(d)
            assert canonicalize(c) == c
            for u in units:
                moved = sorted(u * x % m for x in a)
                random.Random(u).shuffle(moved)
                assert canonicalize(MonodromyDatum(m, 4, tuple(moved))) == c


def test_signature_known():
    f = signature(MonodromyDatum(7, 4, (3, 1, 1, 2)))
    assert f[0] == 0
    assert f[1:] == (0, 1, 1, 1, 1, 2)  # the i = 1..6 slice


@given(d=valid_data())
@settings(max_examples=300, deadline=None)
def test_signature_symmetry(d):
    f = signature(d)
    for i in range(1, d.m):
        dead = sum(1 for ak in d.a if (i * ak) % d.m == 0)
        assert f[i] + f[d.m - i] == d.r - 2 - dead


@given(d=valid_data())
@settings(max_examples=500, deadline=None)
def test_genus_equals_signature_sum(d):
    assert genus(d) == sum(signature(d))


def test_genus_known():
    assert genus(MonodromyDatum(7, 4, (3, 1, 1, 2))) == 6
    for m in (5, 7, 11, 13):
        assert genus(MonodromyDatum(m, 3, (1, 1, m - 2))) == (m - 1) // 2


def test_frobenius_orbits_m7():
    got = frobenius_orbits(7, 13)  # 13 = 6 mod 7
    assert sorted(o.members for o in got) == [(1, 6), (2, 5), (3, 4)]
    got = frobenius_orbits(7, 29)  # 1 mod 7
    assert sorted(o.members for o in got) == [(i,) for i in range(1, 7)]
    got = frobenius_orbits(7, 3)
    assert len(got) == 1 and got[0].l == 6
    with pytest.raises(PDividesM):
        frobenius_orbits(7, 21)
    with pytest.raises(PDividesM):
        frobenius_orbits(6, 3)


@given(m=st.integers(2, 50), p=st.integers(2, 997))
@settings(max_examples=300, deadline=None)
def test_frobenius_orbits_partition(m, p):
    assume(math.gcd(m, p) == 1)
    orbits = frobenius_orbits(m, p)
    all_members = [c for o in orbits for c in o.members]
    assert sorted(all_members) == list(range(1, m))
    assert sum(o.l for o in orbits) == m - 1
    for o in orbits:
        assert o.members[0] == min(o.members)
        assert (o.members[-1] * p) % m == o.members[0]


@given(d=valid_data(max_m=30))
@settings(max_examples=200, deadline=None)
def test_orbit_g_constant(d):
    f = signature(d)
    for p in (7, 11, 13):
        if math.gcd(p, d.m) != 1:
            continue
        for o in frobenius_orbits(d.m, p, sig=f):
            gs = {f[c] + f[d.m - c] for c in o.members}
            assert gs == {o.gO}


def test_quotient_datum():
    got = quotient_datum(MonodromyDatum(6, 4, (1, 1, 1, 3)), 3)
    assert got == MonodromyDatum(3, 3, (1, 1, 1))
    d = MonodromyDatum(7, 4, (3, 1, 1, 2))
    assert quotient_datum(d, 7) == d
    m15, r15, a15 = FROZEN["quotient_15_to_5"]
    assert quotient_datum(MonodromyDatum(15, 4, (3, 5, 6, 1)), 5) == MonodromyDatum(m15, r15, a15)
    with pytest.raises(QuotientDegenerate):
        quotient_datum(MonodromyDatum(6, 4, (2, 3, 4, 3)), 2)
    with pytest.raises(ParamOutOfRange):
        quotient_datum(d, 3)


def test_find_tau_signature_one():
    d = MonodromyDatum(7, 4, (3, 1, 1, 2))
    assert find_tau_signature_one(d) == 2
    # genus-1 style datum: every g(tau) <= 1 so nothing qualifies
    d2 = MonodromyDatum(3, 3, (1, 1, 1))
    assert find_tau_signature_one(d2) is None


@given(d=valid_data(max_m=30))
@settings(max_examples=300, deadline=None)
def test_find_tau_constructive(d):
    # whenever some f(i)=0 with f(i)+f(m-i) >= 2, a qualifying character exists
    f = signature(d)
    trigger = any(
        f[i] == 0 and f[i] + f[d.m - i] >= 2 and math.gcd(i, d.m) == 1
        for i in range(1, d.m)
    )
    got = find_tau_signature_one(d, f)
    if got is not None:
        assert f[d.m - got] == 1 and f[got] + f[d.m - got] >= 2


def test_hypothesis_cases():
    assert hypothesis_cases(MonodromyDatum(7, 4, (3, 1, 1, 2))) == {1, 2}
    assert 2 in hypothesis_cases(MonodromyDatum(7, 6, (1, 1, 1, 1, 1, 2)))
    assert 3 not in hypothesis_cases(MonodromyDatum(9, 6, (3, 3, 3, 1, 1, 7)))
    # 6 labels, exactly 2 divisible by 3 = r-4
    assert 3 in hypothesis_cases(MonodromyDatum(9, 6, (3, 3, 1, 1, 2, 8)))


def test_clutch():
    d1 = MonodromyDatum(7, 4, (3, 1, 1, 2))
    d2 = MonodromyDatum(7, 4, (5, 1, 3, 5))
    d3, eps = clutch(d1, d2)
    m3, r3, a3, eps3 = FROZEN["clutch_7"]
    assert (d3.m, d3.r, d3.a, eps) == (m3, r3, tuple(a3), eps3)
    with pytest.raises(NotAdmissible):
        clutch(d1, MonodromyDatum(7, 4, (3, 1, 1, 2)))
    d4 = MonodromyDatum(6, 4, (1, 1, 1, 3))
    d5 = MonodromyDatum(6, 4, (3, 1, 1, 1))
    _, eps45 = clutch(d4, d5)
    assert eps45 == 2
    with pytest.raises(NotAdmissible):
        clutch(d1, d4)


@given(d1=valid_data(max_m=20, max_r=5), d2=valid_data(max_m=20, max_r=5))
@settings(max_examples=200, deadline=None)
def test_clutch_valid_output(d1, d2):
    if d1.m != d2.m or (d1.a[-1] + d2.a[0]) % d1.m != 0:
        with pytest.raises(NotAdmissible):
            clutch(d1, d2)
        return
    try:
        d3, eps = clutch(d1, d2)
    except NotGenerating:
        return  # glued labels can fail to generate; rejection is the contract
    assert d3.r == d1.r + d2.r - 2
    assert eps == math.gcd(d1.a[-1], d1.m) - 1
    assert sum(d3.a) % d3.m == 0
