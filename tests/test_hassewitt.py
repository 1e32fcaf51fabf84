import collections
import hashlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclocover import hassewitt
from cyclocover.errors import (
    CyclocoverError,
    DegreeBudgetExceeded,
    HypothesisNotMet,
    IndexOutOfRange,
    InternalError,
    InvalidInput,
    ParamOutOfRange,
    PDividesM,
    PsiHypothesisNotMet,
)
from cyclocover.ff import FpMultiPoly, FpUniPoly, PrimeField, binomial_mod_p, factor
from cyclocover.fabc import fabc
from cyclocover.hassewitt import (
    OrbitContext,
    branch_exponents,
    build_chain,
    divisor_bound,
    divisor_multiplicity,
    first_covering_index,
    h0,
    h0_divisor_multiplicity,
    h1,
    h1_fabc_params,
    h1_profile,
    h1_radical,
    nonordinary_witness,
    phi_entry,
    phi_specialized,
    psi_entry,
    psi_specialized,
    specialize_infty,
    specialized_chain,
    witness_count,
    _composite,
    _graded_slice,
    _heads,
    _layers_radical,
    _phi_fabc_params,
    _psi_closed_form,
    _qhat,
    _slice_counts,
    _slice_multiplicity,
    _slice_sizes,
    _strip_01,
    _strip_w,
    _twisted_ends,
    _twisted_row,
)
from cyclocover.monodromy import MonodromyDatum, signature

from oracles import (
    compose_sigma_linear,
    graded_slice as oracle_graded_slice,
    phi_entry_oracle,
    psi_entry_oracle,
    radical_01,
    slice_counts_brute,
    slice_counts_dp,
)

D7 = MonodromyDatum(7, 4, (3, 1, 1, 2))
D5 = MonodromyDatum(5, 4, (1, 1, 1, 2))

SMALL_FOURS = [
    (7, (3, 1, 1, 2), 3),
    (7, (3, 1, 1, 2), 5),
    (7, (3, 1, 1, 2), 13),
    (5, (1, 1, 1, 2), 3),
    (5, (1, 1, 1, 2), 7),
    (9, (1, 2, 2, 4), 5),
    (8, (1, 3, 5, 7), 3),
]


def oracle_terms(d):
    return {k: v for k, v in d.items() if v}


def test_branch_exponents_values():
    assert branch_exponents(D7, 13, 2) == (11, 3, 3, 7)
    assert branch_exponents(D7, 13, 3) == (3, 5, 5, 11)
    assert branch_exponents(D7, 13, 3, order=(3, 1, 2, 0)) == (11, 5, 5, 3)
    with pytest.raises(IndexOutOfRange):
        branch_exponents(D7, 13, 0)
    with pytest.raises(IndexOutOfRange):
        branch_exponents(D7, 13, 7)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_branch_exponent_sum_identity(data):
    # sum of exponents at c recovers p and the signature at c and p*c
    m = data.draw(st.integers(3, 11))
    r = data.draw(st.integers(3, 5))
    a = tuple(data.draw(st.integers(1, m - 1)) for _ in range(r - 1))
    last = (-sum(a)) % m
    if last == 0 or math.gcd(math.gcd(*a, last), m) != 1:
        return
    d = MonodromyDatum(m, r, a + (last,))
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    if math.gcd(p, m) != 1:
        return
    sig = signature(d)
    for c in range(1, m):
        bs = branch_exponents(d, p, c)
        assert sum(bs) == p * (sig[c] + 1) - (sig[(p * c) % m] + 1)
        assert all(0 <= b <= p - 1 for b in bs)


def test_first_covering_index():
    assert first_covering_index((3, 4, 2), 0) == 1
    assert first_covering_index((3, 4, 2), 2) == 1
    assert first_covering_index((3, 4, 2), 3) == 2
    assert first_covering_index((3, 4, 2), 8) == 3
    with pytest.raises(ParamOutOfRange):
        first_covering_index((3, 4, 2), 9)
    with pytest.raises(ParamOutOfRange):
        first_covering_index((3, 4, 2), -1)


def test_phi_entries_match_product_expansion():
    for m, a, p in SMALL_FOURS:
        d = MonodromyDatum(m, 4, a)
        sig = signature(d)
        for tau in range(1, m):
            cols, rows = sig[tau], sig[(p * tau) % m]
            for j in range(1, cols + 1):
                for jp in range(1, rows + 1):
                    mine = phi_entry(d, p, tau, jp, j)
                    ref = oracle_terms(phi_entry_oracle(m, a, p, tau, jp, j))
                    assert dict(mine.terms) == ref, (m, a, p, tau, jp, j)


def test_phi_entry_zero_when_degree_out_of_range():
    d = MonodromyDatum(8, 8, (1,) * 8)
    # s = 8, N = 8 - 10 + 1 < 0
    assert phi_entry(d, 5, 3, 1, 2).is_zero


def test_phi_entry_rejects_bad_indices():
    with pytest.raises(PDividesM):
        phi_entry(D7, 7, 2, 1, 1)
    with pytest.raises(IndexOutOfRange):
        phi_entry(D7, 13, 2, 1, 2)  # f(2) = 1
    with pytest.raises(IndexOutOfRange):
        phi_entry(D7, 13, 2, 2, 1)  # f(26 mod 7) = f(5) = 1
    with pytest.raises(IndexOutOfRange):
        phi_entry(D7, 13, 0, 1, 1)


def test_psi_entries_match_product_expansion():
    checked = 0
    for m, a, p in SMALL_FOURS:
        d = MonodromyDatum(m, 4, a)
        sig = signature(d)
        for tau in range(1, m):
            if math.gcd(tau, m) != 1:
                continue
            if not (sig[(p * tau) % m] == 0 or sig[(m - tau) % m] == 0):
                continue
            cols = sig[tau]
            rows = sig[(m - (p * tau) % m) % m]
            for j in range(1, cols + 1):
                for jp in range(1, rows + 1):
                    mine = psi_entry(d, p, tau, jp, j)
                    ref = oracle_terms(psi_entry_oracle(m, a, p, tau, jp, j))
                    assert dict(mine.terms) == ref, (m, a, p, tau, jp, j)
                    checked += 1
    assert checked >= 10


def test_psi_entry_gate():
    # f(5) = 1 and f(26 mod 7) = f(5) = 1: neither side vanishes
    with pytest.raises(PsiHypothesisNotMet):
        psi_entry(D7, 13, 2, 1, 1)
    # non-unit character
    d9 = MonodromyDatum(9, 4, (1, 2, 2, 4))
    with pytest.raises(PsiHypothesisNotMet):
        psi_entry(d9, 5, 3, 1, 1)


D9 = MonodromyDatum(9, 4, (1, 2, 2, 4))

_BAD_INDEX_CASES = [
    # (family, datum, p, base character, tau, jp, j, error, message)
    ("phi", D7, 29, 5, 0, 1, 1, IndexOutOfRange, "character index 0 outside 1..6"),
    ("phi", D7, 29, 5, 7, 1, 1, IndexOutOfRange, "character index 7 outside 1..6"),
    ("phi", D7, 29, 5, 0, 9, 9, IndexOutOfRange, "character index 0 outside 1..6"),
    ("phi", D7, 29, 5, 1, 1, 1, IndexOutOfRange, "column 1 outside 1..0 at character 1"),
    ("phi", D7, 29, 5, 2, 1, 2, IndexOutOfRange, "column 2 outside 1..1 at character 2"),
    ("phi", D7, 29, 5, 2, 5, 5, IndexOutOfRange, "column 5 outside 1..1 at character 2"),
    ("phi", D7, 29, 5, 2, 2, 1, IndexOutOfRange, "row 2 outside 1..1 at character 2"),
    ("phi", D7, 29, 5, 6, 3, 1, IndexOutOfRange, "row 3 outside 1..2 at character 6"),
    ("psi", D7, 29, 5, 0, 1, 1, IndexOutOfRange, "character index 0 outside 1..6"),
    ("psi", D7, 29, 5, 7, 1, 1, IndexOutOfRange, "character index 7 outside 1..6"),
    ("psi", D7, 29, 5, 0, 9, 9, IndexOutOfRange, "character index 0 outside 1..6"),
    ("psi", D7, 29, 5, 2, 1, 1, PsiHypothesisNotMet,
     "psi at character 2 needs gcd(tau, m) = 1 and a vanishing signature at 2 or 5"),
    ("psi", D7, 29, 5, 2, 9, 9, PsiHypothesisNotMet,
     "psi at character 2 needs gcd(tau, m) = 1 and a vanishing signature at 2 or 5"),
    ("psi", D9, 5, 2, 3, 1, 1, PsiHypothesisNotMet,
     "psi at character 3 needs gcd(tau, m) = 1 and a vanishing signature at 6 or 6"),
    ("psi", D7, 29, 5, 1, 1, 1, IndexOutOfRange, "column 1 outside 1..0 at character 1"),
    ("psi", D7, 29, 5, 6, 1, 3, IndexOutOfRange, "column 3 outside 1..2 at character 6"),
    ("psi", D7, 29, 5, 6, 1, 1, IndexOutOfRange, "row 1 outside 1..0 at character 6"),
]


@pytest.mark.parametrize("specialized", [False, True])
@pytest.mark.parametrize("family,d,p,b0,tau,jp,j,error,message", _BAD_INDEX_CASES)
def test_bad_index_error_class_and_message(family, d, p, b0, tau, jp, j, error, message,
                                           specialized):
    # the multivariate entry and its specialization share one validator
    # per family, so they fail alike, in the same order of checks
    if specialized:
        build = phi_specialized if family == "phi" else psi_specialized
        call = lambda: build(OrbitContext(d, p, b0), tau, jp, j)  # noqa: E731
    else:
        build = phi_entry if family == "phi" else psi_entry
        call = lambda: build(d, p, tau, jp, j)  # noqa: E731
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_qhat_is_cofactor_coefficient():
    # sum_jp qhat(jp) X^{jp-1} must rebuild prod_{s != k} (X - x_s) at
    # any sample point
    field = PrimeField(13)
    vals = [4, 7, 1, 11]
    for k in range(4):
        prod = FpUniPoly.one(field)
        for s in range(4):
            if s != k:
                prod = prod * FpUniPoly(field, [-vals[s], 1])
        for jp in range(1, 5):
            q = _qhat(field, 4, jp, k)
            want = prod.coeffs[jp - 1] if jp - 1 < len(prod.coeffs) else 0
            assert q.evaluate(vals) == want, (k, jp)


def test_orbit_context_p13():
    ctx = OrbitContext(D7, 13, 5)
    assert ctx.c0 == 2
    assert ctx.chars == (2, 5)
    assert ctx.l == 2 and ctx.i0 == 1
    assert ctx.dims == (1, 1, 1)
    assert ctx.kinds == ("phi", "phi")
    assert ctx.chain_chars == (2, 5)
    assert ctx.branch_order == (0, 1, 2, 3)


def test_orbit_context_p29_singleton():
    ctx = OrbitContext(D7, 29, 5)
    assert ctx.chars == (2,)
    assert ctx.l == 1 and ctx.i0 == 1
    assert ctx.dims == (1, 1)


def test_orbit_context_p3_mixed_kinds():
    ctx = OrbitContext(D7, 3, 5)
    assert ctx.chars == (2, 6, 4, 5, 1, 3)
    assert ctx.dims == (1, 2, 1, 1, 2, 1, 1)
    assert ctx.kinds == ("phi", "phi", "phi", "psi", "psi_dual", "phi")
    assert ctx.chain_chars == (2, 6, 4, 5, 6, 3)
    assert ctx.i0 == 2


def test_orbit_context_rejections():
    with pytest.raises(PDividesM):
        OrbitContext(D7, 7, 5)
    with pytest.raises(ParamOutOfRange):
        OrbitContext(D7, 13, 0)
    with pytest.raises(ParamOutOfRange):
        OrbitContext(D7, 13, 7)
    d8 = MonodromyDatum(8, 8, (1,) * 8)
    with pytest.raises(InvalidInput):
        OrbitContext(d8, 5, 2)
    with pytest.raises(HypothesisNotMet):
        OrbitContext(d8, 5, 1)  # signature 6 at the dual index


def test_branch_order_balances_middle_pair():
    ctx = OrbitContext(D5, 17, 2)
    assert ctx.c0 == 3
    assert branch_exponents(D5, 17, 3) == (10, 10, 10, 3)
    assert ctx.branch_order == (0, 1, 3, 2)
    assert ctx.ordered_datum.a == (1, 1, 2, 1)
    bs = branch_exponents(ctx.ordered_datum, 17, 3)
    assert bs[1] + bs[2] <= bs[0] + bs[3]
    # an already balanced base keeps the slots as given
    assert OrbitContext(D7, 13, 5).ordered_datum is D7


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_chain_shapes_and_kinds(data):
    m = data.draw(st.integers(3, 11))
    r = data.draw(st.integers(3, 5))
    a = tuple(data.draw(st.integers(1, m - 1)) for _ in range(r - 1))
    last = (-sum(a)) % m
    if last == 0 or math.gcd(math.gcd(*a, last), m) != 1:
        return
    d = MonodromyDatum(m, r, a + (last,))
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    if math.gcd(p, m) != 1:
        return
    sig = signature(d)
    bases = [
        b
        for b in range(1, m)
        if math.gcd(b, m) == 1 and sig[(m - b) % m] == 1
    ]
    if not bases:
        return
    ctx = OrbitContext(d, p, data.draw(st.sampled_from(bases)))
    chain = build_chain(ctx)
    assert ctx.dims[0] == ctx.dims[-1] == 1
    assert all(dim >= 1 for dim in ctx.dims)
    for i in range(ctx.l):
        u, v = ctx.chars[i], ctx.chars[(i + 1) % ctx.l]
        mat = chain[i]
        assert len(mat) == ctx.dims[i + 1]
        assert all(len(row) == ctx.dims[i] for row in mat)
        if sig[u] >= 1:
            assert ctx.chain_chars[i] == u
            assert ctx.kinds[i] == ("phi" if sig[v] >= 1 else "psi")
        else:
            assert ctx.chain_chars[i] == (m - u) % m
            assert ctx.kinds[i] == ("psi_dual" if sig[v] >= 1 else "phi_dual")


def _oracle_h0(ctx, chain):
    comp = compose_sigma_linear(
        list(chain),
        ctx.p,
        pow_fn=lambda e, k: e.frobenius_pow(k),
        mul_fn=lambda x, y: x.mul(y),
        add_fn=lambda x, y: x + y,
    )
    return comp[0][0]


def test_h0_matches_twisted_composition():
    for d, p, b0 in [(D7, 13, 5), (D5, 3, 2)]:
        ctx = OrbitContext(d, p, b0)
        assert _oracle_h0(ctx, build_chain(ctx)) == h0(ctx)


def test_h0_mixed_kind_walk_matches_composition():
    ctx = OrbitContext(D7, 3, 5)  # six layers, psi and psi_dual included
    assert _oracle_h0(ctx, build_chain(ctx)) == h0(ctx)


def test_h0_degree_floor():
    for d, p, b0 in [(D7, 13, 5), (D7, 29, 5), (D5, 11, 2), (D5, 3, 2)]:
        ctx = OrbitContext(d, p, b0)
        H = h0(ctx)
        assert H.total_degree() >= p ** (ctx.l - 1) * (p - 2)


def test_h0_budget_guard():
    ctx = OrbitContext(D5, 17, 2)  # l = 4, composite blows up
    with pytest.raises(DegreeBudgetExceeded):
        h0(ctx, budget=10**5)


def _sorted_four_data(m):
    for a in itertools.combinations_with_replacement(range(1, m), 4):
        if sum(a) % m == 0 and math.gcd(m, *a) == 1:
            yield MonodromyDatum(m, 4, a)


def _outcome(compute):
    try:
        return compute()
    except DegreeBudgetExceeded as exc:
        return str(exc)


def test_h0_refuses_exactly_as_the_path_sum_would():
    # all-phi chains are refused before they are built; the outcome (the
    # composite or the error text) matches the unguarded path sum
    refusals = set()
    compared = 0
    for m, p in [(5, 3), (5, 11), (5, 13), (7, 3), (7, 11), (7, 13)]:
        for d in _sorted_four_data(m):
            sig = signature(d)
            for b0 in range(1, m):
                if math.gcd(b0, m) != 1 or sig[m - b0] != 1:
                    continue
                ctx = OrbitContext(d, p, b0)
                if not set(ctx.kinds) <= {"phi", "phi_dual"}:
                    continue
                one = FpMultiPoly.constant(ctx.field, 4, 1)
                for budget in (40, 400, 4000):
                    want = _outcome(lambda: _composite(
                        build_chain(ctx, budget), ctx.dims, one,
                        lambda a, b: a.mul(b, budget),
                    ))
                    assert _outcome(lambda: h0(ctx, budget)) == want, (d.a, p, b0, budget)
                    compared += 1
                    if isinstance(want, str):
                        refusals.add(want.split(" ")[1])
    assert compared > 300
    # slice, pair-count and product-size refusals all occur
    assert refusals == {"slice", "would", "has"}


def test_h0_refuses_a_long_orbit_before_building(monkeypatch):
    # the refusal line itself is pinned by the CLI golden in test_cli.py
    def unexpected(*args, **kwargs):
        raise AssertionError("h0 built a chain entry before refusing")

    monkeypatch.setattr(hassewitt, "phi_entry", unexpected)
    monkeypatch.setattr(hassewitt, "psi_entry", unexpected)
    with pytest.raises(DegreeBudgetExceeded, match="term pairs"):
        h0(OrbitContext(D7, 151, 2))


def test_specialize_infty_shapes():
    field = PrimeField(13)
    assert specialize_infty(FpMultiPoly.zero(field, 4)).is_zero
    with pytest.raises(ParamOutOfRange):
        specialize_infty(FpMultiPoly.zero(field, 3))
    # x1^2 x2^3 -> t^3; a term with smaller x1-x4 gap is discarded
    mono = FpMultiPoly(field, 4, {(2, 3, 0, 0): 1})
    assert specialize_infty(mono) == FpUniPoly(field, [0, 0, 0, 1])
    mixed = FpMultiPoly(field, 4, {(1, 1, 0, 0): 1, (0, 1, 0, 1): 5})
    assert specialize_infty(mixed) == FpUniPoly(field, [0, 1])


def test_specialized_entries_golden_p13():
    ctx = OrbitContext(D7, 13, 5)
    assert phi_specialized(ctx, 2, 1, 1).coeffs == (3, 3)
    assert phi_specialized(ctx, 3, 1, 1).coeffs == (0, 0, 0, 0, 5, 5)
    assert specialize_infty(phi_entry(D7, 13, 2, 1, 1)).coeffs == (3, 3)
    assert specialize_infty(phi_entry(D7, 13, 3, 1, 1)).coeffs == (0, 0, 0, 0, 5, 5)


def _random_four_datum(rng):
    while True:
        m = rng.choice([5, 7, 8, 9, 11])
        a = [rng.randrange(1, m) for _ in range(3)]
        last = (-sum(a)) % m
        if last == 0:
            continue
        a.append(last)
        if math.gcd(math.gcd(*a), m) != 1:
            continue
        return MonodromyDatum(m, 4, tuple(a))


def _primes_in(lo, hi):
    from cyclocover.ff import is_prime_u64

    return [n for n in range(lo, hi) if is_prime_u64(n)]


def test_specialized_closed_form_matches_extraction():
    import random

    rng = random.Random(20260814)
    checked_phi = checked_psi = 0
    while checked_phi + checked_psi < 60:
        d = _random_four_datum(rng)
        m = d.m
        sig = signature(d)
        primes = [p for p in _primes_in(3 * m + 1, 3 * m + 60) if math.gcd(p, m) == 1]
        p = rng.choice(primes)
        bases = [
            b for b in range(1, m) if math.gcd(b, m) == 1 and sig[(m - b) % m] == 1
        ]
        if not bases:
            continue
        ctx = OrbitContext(d, p, rng.choice(bases))
        sc = specialized_chain(ctx)
        od = ctx.ordered_datum
        for i in range(ctx.i0):
            w = ctx.chain_chars[i]
            rows, cols = ctx.dims[i + 1], ctx.dims[i]
            phi_like = ctx.kinds[i] in ("phi", "phi_dual")
            raw = phi_entry if phi_like else psi_entry
            for jp in range(1, rows + 1):
                for j in range(1, cols + 1):
                    got = sc[i][jp - 1][j - 1]
                    want = specialize_infty(raw(od, p, w, jp, j))
                    assert got == want, (d.a, m, p, w, jp, j)
                    if phi_like:
                        checked_phi += 1
                    else:
                        checked_psi += 1
    assert checked_phi > 0 and checked_psi > 0


def _phi_specialized_against_extraction(ctx):
    """Compare phi_specialized with specialize_infty(phi_entry) at every
    phi index of the context.  Returns the number of entries compared and
    of nonzero ones outside 0 <= N - b_1 <= b_2 + b_3."""
    d, p, sig = ctx.ordered_datum, ctx.p, ctx.sig
    compared = wide = 0
    for tau in range(1, d.m):
        bs = branch_exponents(d, p, tau)
        for j in range(1, sig[tau] + 1):
            for jp in range(1, sig[p * tau % d.m] + 1):
                want = specialize_infty(phi_entry(d, p, tau, jp, j))
                assert phi_specialized(ctx, tau, jp, j) == want, (d.a, p, tau, jp, j)
                n = sum(bs) - p * j + jp
                compared += 1
                wide += not want.is_zero and not 0 <= n - bs[0] <= bs[1] + bs[2]
    return compared, wide


# the sorted-label M5/M7 data (with the base character of their chain)
# whose phi entries at p = 3 reach N - b_1 < 0 or N - b_1 > b_2 + b_3
WIDE_AT_3 = [
    ((1, 1, 2, 3), 5), ((1, 3, 5, 5), 1), ((1, 4, 4, 5), 3),
    ((2, 2, 4, 6), 6), ((2, 3, 3, 6), 4), ((4, 5, 6, 6), 2),
]


@pytest.mark.parametrize("labels,b0", WIDE_AT_3)
def test_phi_closed_form_covers_every_entry_at_p3(labels, b0):
    compared, wide = _phi_specialized_against_extraction(
        OrbitContext(MonodromyDatum(7, 4, labels), 3, b0)
    )
    assert compared > 0 and wide > 0


def test_phi_closed_form_on_a_seeded_sample():
    rng = random.Random(20261019)
    compared = wide = 0
    for _ in range(40):
        m = rng.randrange(3, 10)
        a = tuple(rng.randrange(1, m) for _ in range(3))
        last = -sum(a) % m
        if last == 0 or math.gcd(m, *a) != 1:
            continue
        d = MonodromyDatum(m, 4, a + (last,))
        sig = signature(d)
        p = rng.choice([q for q in _primes_in(3, 60) if m % q])
        bases = [b for b in range(1, m) if math.gcd(b, m) == 1 and sig[m - b] == 1]
        if bases:
            c, w = _phi_specialized_against_extraction(OrbitContext(d, p, rng.choice(bases)))
            compared, wide = compared + c, wide + w
    assert compared > 100 and wide > 0


def test_phi_closed_form_matches_every_slice():
    # every degree, zero slices at n < 0 and n > sum(bs) included
    rng = random.Random(5)
    for p in (3, 5, 7, 11, 13):
        field = PrimeField(p)
        for _ in range(12):
            bs = tuple(rng.randrange(p) for _ in range(4))
            for n in range(-2, sum(bs) + 3):
                block = _graded_slice(field, bs, n, 10**6)
                want = specialize_infty(block if n % 2 == 0 else -block)
                closed = _phi_fabc_params(p, bs, n)
                if closed is None:
                    assert want.is_zero, (p, bs, n)
                else:
                    params, unit = closed
                    assert fabc(params).scale(unit) == want, (p, bs, n)
                    assert not want.is_zero


def _psi_indices(ctx):
    """Every psi index (tau, jp, j) of the context's datum."""
    m, p, sig = ctx.datum.m, ctx.p, ctx.sig
    for tau in range(1, m):
        if math.gcd(tau, m) == 1 and (sig[p * tau % m] == 0 or sig[m - tau] == 0):
            for j in range(1, sig[tau] + 1):
                for jp in range(1, sig[-p * tau % m] + 1):
                    yield tau, jp, j


def test_psi_closed_form_matches_every_real_entry():
    # in the context's branch order: every psi index of every chain
    # context of the M5-M9 data at p <= 7, and the psi entries of the
    # chains' first i0 steps at p = 11, 13.  Among them are entries with a
    # zero exponent, entries with n - b_1 outside 0..b_2 + b_3, and row-2
    # entries with b_1 = 0, which take the next gap
    seen, outside, zero_b, next_gap = set(), 0, 0, 0
    for ctx in _radical_chains():
        if ctx.p <= 7:
            indices = _psi_indices(ctx)
        elif ctx.p <= 13:
            indices = [
                (ctx.chain_chars[i], jp, j)
                for i in range(ctx.i0) if ctx.kinds[i] in ("psi", "psi_dual")
                for jp in range(1, ctx.dims[i + 1] + 1) for j in range(1, ctx.dims[i] + 1)
            ]
        else:
            continue
        d = ctx.ordered_datum
        for tau, jp, j in indices:
            if (d.a, ctx.p, tau, jp, j) in seen:
                continue
            seen.add((d.a, ctx.p, tau, jp, j))
            want = specialize_infty(psi_entry(d, ctx.p, tau, jp, j))
            assert psi_specialized(ctx, tau, jp, j) == want, (d.a, ctx.p, tau, jp, j)
            bs = branch_exponents(d, ctx.p, tau)
            zero_b += 0 in bs
            outside += not want.is_zero and not 0 <= sum(bs) - ctx.p * j - bs[0] <= bs[1] + bs[2]
            next_gap += jp == 2 and bs[0] == 0
    assert (len(seen), zero_b, next_gap) == (1624, 60, 9) and outside > 50


def _psi_top_extraction(p, bs, n, jp):
    """For any exponents: specialize_infty of the psi sum
    -sum_k b_k (-1)^n S_k qhat_k, built from its multivariate slices, and
    whether the sum's terms at the largest gap of its products cancel."""
    field = PrimeField(p)
    products = [
        _graded_slice(field, bs[:k] + (bs[k] - 1,) + bs[k + 1:], n, 10**6)
        .mul(_qhat(field, 4, jp, k), 10**6)
        .scale(-bs[k] * (-1) ** n)
        for k in range(4) if bs[k]
    ]
    products = [x for x in products if not x.is_zero]
    entry = sum(products, FpMultiPoly.zero(field, 4))
    if not products:
        return specialize_infty(entry), False
    gap = max(e[0] - e[3] for x in products for e in x.terms)
    top = FpMultiPoly(field, 4, {e: c for e, c in entry.terms.items() if e[0] - e[3] == gap})
    return specialize_infty(entry), top.substitute_values({0: 1, 2: 1, 3: 1}).is_zero


def test_psi_closed_form_on_arbitrary_exponents():
    # zero exponents included, at n = sum(b) - p*j; where the terms at the
    # top gap cancel, the closed form takes the next gap at row 2 with
    # b_1 = 0 and n = -1 mod p, as every psi entry there, and otherwise
    # refuses with InternalError
    rng = random.Random(13)
    outcomes = collections.Counter()
    for p in (3, 5, 7, 11, 13):
        for _ in range(60):
            bs = tuple(rng.randrange(p) for _ in range(4))
            for j, jp in itertools.product((1, 2, 3), (1, 2)):
                n = sum(bs) - p * j
                want, cancels = _psi_top_extraction(p, bs, n, jp)
                if cancels and not (jp == 2 and bs[0] == 0 and (n + 1) % p == 0):
                    with pytest.raises(InternalError, match="top-gap terms cancel"):
                        _psi_closed_form(PrimeField(p), bs, n, jp)
                    outcomes["refused", jp] += 1
                    continue
                assert _psi_closed_form(PrimeField(p), bs, n, jp) == want, (p, bs, n, jp)
                outcomes["next gap" if cancels else "zero" if want.is_zero else "top gap", jp] += 1
    # no tie cancels at jp = 1 (module docstring)
    assert set(outcomes) == {
        ("zero", 1), ("top gap", 1), ("zero", 2), ("top gap", 2), ("next gap", 2), ("refused", 2)
    }
    # a row-2 tie with n < b_1, whose first coefficient is nonzero
    assert _psi_closed_form(PrimeField(11), (1, 1, 1, 8), 0, 2).coeffs == (2, 2)


def test_specialized_value_at_one_and_profile_laws():
    # with the middle slots balanced and p > 3m:
    #   entry(1): phi -> (-1)^N C(b2+b3, N-b1); psi row 1 -> extra -b4 factor
    #   psi row 2 at 1 is minus psi row 1 at 1
    #   v_t and deg follow the min/max windows
    import random

    rng = random.Random(99)
    done = 0
    while done < 40:
        d = _random_four_datum(rng)
        m = d.m
        sig = signature(d)
        primes = [p for p in _primes_in(3 * m + 1, 3 * m + 90) if math.gcd(p, m) == 1]
        p = rng.choice(primes)
        bases = [
            b for b in range(1, m) if math.gcd(b, m) == 1 and sig[(m - b) % m] == 1
        ]
        if not bases:
            continue
        ctx = OrbitContext(d, p, rng.choice(bases))
        sc = specialized_chain(ctx)
        for i in range(ctx.i0):
            w = ctx.chain_chars[i]
            bs = branch_exponents(ctx.ordered_datum, p, w)
            s = sum(bs)
            rows, cols = ctx.dims[i + 1], ctx.dims[i]
            phi_like = ctx.kinds[i] in ("phi", "phi_dual")
            for j in range(1, cols + 1):
                for jp in range(1, rows + 1):
                    e = sc[i][jp - 1][j - 1]
                    if phi_like:
                        n = s - p * j + jp
                        sign = 1 if n % 2 == 0 else p - 1
                        assert e.evaluate(1) == sign * binomial_mod_p(
                            bs[1] + bs[2], n - bs[0], p
                        ) % p
                        assert e.valuation_at(0) == max(0, n - bs[0] - bs[2])
                        assert e.degree == min(bs[1], n - bs[0])
                    else:
                        n0 = s - p * j
                        sign = 1 if (n0 + jp) % 2 == 0 else p - 1
                        val = (
                            (p - sign)
                            * bs[3]
                            * binomial_mod_p(bs[1] + bs[2], n0 - bs[0], p)
                        ) % p
                        assert e.evaluate(1) == val, (d.a, p, w, jp, j)
                        if jp == 1:
                            assert e.valuation_at(0) == 1 + max(0, n0 - bs[0] - bs[2])
                            assert e.degree == 1 + min(bs[1], n0 - bs[0])
                        else:
                            assert e.valuation_at(0) == max(0, n0 + 1 - bs[0] - bs[2])
                            assert e.degree == min(bs[1], n0 + 1 - bs[0])
                    done += 1
        if ctx.dims[1] == 2 and ctx.i0 >= 1 and ctx.kinds[0] not in ("phi", "phi_dual"):
            one = sc[0][0][0].evaluate(1)
            two = sc[0][1][0].evaluate(1)
            assert (one + two) % p == 0


def test_covering_index_lands_in_middle_slots():
    # for p > 3m and balanced slots, every admissible N has its covering
    # index at slot 2 or 3
    import random

    rng = random.Random(7)
    done = 0
    while done < 60:
        d = _random_four_datum(rng)
        m = d.m
        sig = signature(d)
        primes = [p for p in _primes_in(3 * m + 1, 3 * m + 90) if math.gcd(p, m) == 1]
        p = rng.choice(primes)
        bases = [
            b for b in range(1, m) if math.gcd(b, m) == 1 and sig[(m - b) % m] == 1
        ]
        if not bases:
            continue
        ctx = OrbitContext(d, p, rng.choice(bases))
        for w in ctx.chain_chars:
            bs = branch_exponents(ctx.ordered_datum, p, w)
            s = sum(bs)
            for j in range(1, sig[w] + 1):
                for jp in range(0, 3):
                    n = s - p * j + jp
                    if n < 0:
                        continue
                    assert first_covering_index(bs, n) in (2, 3), (d.a, p, w, j, jp)
                    done += 1


def test_h1_golden_p13():
    ctx = OrbitContext(D7, 13, 5)
    w = h1(ctx)
    assert w.coeffs == (3, 3)
    assert w == phi_specialized(ctx, 2, 1, 1)


def test_h1_three_step_chains_match_composition():
    # i0 = 3 with dims (1, 2, 2, 1): the fold of heads sums the walks
    # through both middle indices, as the matrix product does
    seen = 0
    for a, b0 in [((1, 1, 1, 4), 3), ((1, 1, 1, 4), 4), ((1, 2, 2, 2), 5)]:
        d = MonodromyDatum(7, 4, a)
        for p in (3, 5, 17, 19, 31):
            ctx = OrbitContext(d, p, b0)
            assert ctx.i0 == 3 and ctx.dims[:4] == (1, 2, 2, 1)
            want = compose_sigma_linear(
                list(specialized_chain(ctx)),
                p,
                pow_fn=lambda e, k: e.frobenius_pow(k),
                mul_fn=lambda x, y: x * y,
                add_fn=lambda x, y: x + y,
            )[0][0]
            assert h1(ctx) == want, (a, p, b0)
            seen += not want.is_zero
            if p > 3 * 7:
                prof = h1_profile(ctx)
                assert (prof.v_t, prof.degree, prof.value_at_one) == (
                    want.valuation_at(0), want.degree, want.evaluate(1)
                ), (a, p, b0)
    assert seen >= 10


def test_h1_divides_specialized_h0():
    for d, p, b0 in [(D7, 13, 5), (D5, 3, 2)]:
        base_ctx = OrbitContext(d, p, b0)
        ctx = OrbitContext(base_ctx.ordered_datum, p, b0)
        assert ctx.branch_order == (0, 1, 2, 3)
        quot, rem = specialize_infty(h0(ctx)).divrem(h1(ctx))
        assert rem.is_zero


def test_h1_factorizations_p29():
    from cyclocover.ff import factor

    ctx2 = OrbitContext(D7, 29, 5)
    ctx3 = OrbitContext(D7, 29, 4)
    w2, w3 = h1(ctx2), h1(ctx3)
    f2 = factor(w2, seed=1)
    assert f2.unit == 12
    assert [(f.coeffs, mult) for f, mult in f2.factors] == [
        ((12, 1, 1), 1),
        ((17, 17, 1), 1),
    ]
    f3 = factor(w3, seed=1)
    assert f3.unit == 2
    assert [(f.coeffs, mult) for f, mult in f3.factors] == [
        ((0, 1), 8),
        ((16, 9, 1), 1),
        ((20, 6, 1), 1),
    ]
    assert w2.gcd(w3).degree == 0


def test_h1_common_factor_p113():
    g = h1(OrbitContext(D7, 113, 5)).gcd(h1(OrbitContext(D7, 113, 4)))
    assert g.monic().coeffs == (1, 42, 1)


def test_h1_budget_guard():
    ctx = OrbitContext(D5, 17, 2)
    with pytest.raises(DegreeBudgetExceeded):
        h1(ctx, budget=10)


def test_h1_profile_matches_expansion():
    ctx = OrbitContext(D5, 17, 2)
    w = h1(ctx)
    prof = h1_profile(ctx)
    assert prof.v_t == w.valuation_at(0)
    assert prof.degree == w.degree
    assert prof.value_at_one == w.evaluate(1)
    assert prof.v_t < prof.degree and prof.value_at_one != 0


def test_h1_profile_matches_expansion_random():
    import random

    rng = random.Random(5150)
    done = 0
    while done < 12:
        d = _random_four_datum(rng)
        m = d.m
        sig = signature(d)
        primes = [p for p in _primes_in(3 * m + 1, 3 * m + 40) if math.gcd(p, m) == 1]
        if not primes:
            continue
        p = rng.choice(primes)
        bases = [
            b for b in range(1, m) if math.gcd(b, m) == 1 and sig[(m - b) % m] == 1
        ]
        if not bases:
            continue
        ctx = OrbitContext(d, p, rng.choice(bases))
        if p ** (ctx.i0 - 1) * p > 3000:  # keep the exact expansion cheap
            continue
        w = h1(ctx)
        prof = h1_profile(ctx)
        assert prof.v_t == w.valuation_at(0), (d.a, p, ctx.base)
        assert prof.degree == w.degree, (d.a, p, ctx.base)
        assert prof.value_at_one == w.evaluate(1), (d.a, p, ctx.base)
        done += 1


def test_h1_profile_needs_large_p():
    with pytest.raises(HypothesisNotMet):
        h1_profile(OrbitContext(D7, 13, 5))


def test_divisor_multiplicity_basics():
    field = PrimeField(13)
    x1 = FpMultiPoly.variable(field, 4, 0)
    x2 = FpMultiPoly.variable(field, 4, 1)
    x3 = FpMultiPoly.variable(field, 4, 2)
    diff = x1 - x2
    h = diff.mul(diff).mul(x3)
    assert divisor_multiplicity(h, 1, 2) == 2
    assert divisor_multiplicity(h, 2, 1) == 2
    assert divisor_multiplicity(h, 1, 3) == 0
    with pytest.raises(InvalidInput):
        divisor_multiplicity(FpMultiPoly.zero(field, 4), 1, 2)
    with pytest.raises(IndexOutOfRange):
        divisor_multiplicity(h, 1, 1)
    with pytest.raises(IndexOutOfRange):
        divisor_multiplicity(h, 0, 2)


def test_divisor_bound_on_small_walks():
    for d, p in [(D5, 11), (D7, 13)]:
        m = d.m
        sig = signature(d)
        for b0 in range(1, m):
            if math.gcd(b0, m) != 1 or sig[(m - b0) % m] != 1:
                continue
            ctx = OrbitContext(d, p, b0)
            for j1, j2 in itertools.combinations(range(1, 5), 2):
                assert h0_divisor_multiplicity(ctx, j1, j2) <= divisor_bound(
                    ctx, j1, j2
                )


def test_h0_multiplicity_product_split_agrees_with_expansion():
    for d, p, b0 in [(D5, 11, 2), (D5, 11, 3), (D7, 13, 5)]:
        ctx = OrbitContext(d, p, b0)
        H = h0(ctx)
        for j1, j2 in itertools.combinations(range(1, 5), 2):
            assert h0_divisor_multiplicity(ctx, j1, j2) == divisor_multiplicity(
                H, j1, j2
            )


def _outcome_text(compute):
    try:
        return str(compute())
    except CyclocoverError as exc:
        return f"{type(exc).__name__}: {exc}"


def _multiplicity_of_built_entries(ctx, j1, j2, budget):
    """h0's multiplicity on an all-1x1 chain from the built chain: every
    entry is built, then each is shifted, one layer after the other."""
    layers = build_chain(ctx, budget)
    return sum(
        ctx.p ** (ctx.l - 1 - i) * divisor_multiplicity(mat[0][0], j1, j2, budget)
        for i, mat in enumerate(layers)
    )


def _criterion_10_chains(primes=(3, 5, 7, 11, 13, 17, 19, 23)):
    """The l <= 2 chains of four-point M5 and M7 data at the given primes
    (by default p <= 23, in the order test_criterion_10_divisor_bound_sweep
    visits them); every one is all-1x1 and all-phi."""
    for m in (5, 7):
        for a in itertools.product(range(1, m), repeat=4):
            if sum(a) % m:
                continue
            d = MonodromyDatum(m, 4, a)
            sig = signature(d)
            for p in primes:
                if p == m:
                    continue
                for base in range(1, m):
                    if math.gcd(base, m) != 1 or sig[m - base] != 1:
                        continue
                    ctx = OrbitContext(d, p, base)
                    if ctx.l <= 2:
                        yield ctx


# sha256 of every outcome (value, or error class and message) of
# h0_divisor_multiplicity over _criterion_10_chains, the twelve ordered
# label pairs and three invalid ones, at five budgets; recorded while the
# multiplicity was still taken from the built and shifted entries
H0_MULTIPLICITY_SHA256 = "e61f591fc945c1d6eaa1bc3a5829015b8f5adfb06a3c7dfb086dff5a2e7c8ee7"


def test_h0_divisor_multiplicity_golden_digest():
    labels = [(j1, j2) for j1 in range(1, 5) for j2 in range(1, 5) if j1 != j2]
    labels += [(1, 1), (0, 2), (1, 5)]
    digest = hashlib.sha256()
    for ctx in _criterion_10_chains():
        for (j1, j2), budget in itertools.product(labels, (1, 10, 100, 1000, None)):
            kwargs = {} if budget is None else {"budget": budget}
            outcome = _outcome_text(lambda: h0_divisor_multiplicity(ctx, j1, j2, **kwargs))
            digest.update(f"{outcome}\n".encode())
    assert digest.hexdigest() == H0_MULTIPLICITY_SHA256


# (p, bs, n, j1, j2, budget), one per outcome the closed form must match
SLICE_EXAMPLES = (
    (37, (32, 0, 0), 32, 2, 1, 4),  # the shift writes 33 = 8 * 4 + 1 terms
    (5, (4, 3, 2), 3, 1, 2, 2),
    (5, (4, 3, 2), 12, 1, 2, 100),
    (5, (3, 3, 0), 3, 1, 2, 100),
)


def test_slice_examples_reach_every_outcome():
    assert [_outcome_text(lambda: _slice_multiplicity(*case)) for case in SLICE_EXAMPLES] == [
        "DegreeBudgetExceeded: substitution exceeded the term budget",
        "DegreeBudgetExceeded: graded slice exceeds 2 terms",
        "InvalidInput: multiplicity in the zero polynomial",
        "2",  # alpha + beta = 6 >= p: Lucas zeros decide
    ]


@st.composite
def _slice_cases(draw):
    p = draw(st.sampled_from(_primes_in(3, 38)))
    r = draw(st.integers(3, 5))
    bs = tuple(draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r)))
    n = draw(st.integers(-1, sum(bs) + 1))
    label = st.integers(1, r) | st.sampled_from((0, r + 1))
    budget = draw(st.integers(-1, 3000))
    return p, bs, n, draw(label), draw(label), budget


@given(_slice_cases())
@example(SLICE_EXAMPLES[0])
@example(SLICE_EXAMPLES[1])
@example(SLICE_EXAMPLES[2])
@example(SLICE_EXAMPLES[3])
@settings(max_examples=300, deadline=None)
def test_slice_multiplicity_matches_the_shifted_slice(case):
    p, bs, n, j1, j2, budget = case
    want = _outcome_text(lambda: divisor_multiplicity(
        _graded_slice(PrimeField(p), bs, n, budget), j1, j2, budget
    ))
    assert _outcome_text(lambda: _slice_multiplicity(*case)) == want


@given(st.lists(st.integers(0, 40), min_size=1, max_size=7))
@example([40] * 7)
@example([0])
@settings(max_examples=100, deadline=None)
def test_slice_counts_match_the_prefix_sum_dp(bs):
    bs = tuple(bs)
    for n, k in itertools.product(range(-2, sum(bs) + 3), range(len(bs))):
        assert _slice_counts(bs, n, k) == slice_counts_dp(bs, n, k)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_slice_counts_match_enumeration(bs):
    bs = tuple(bs)
    for n, k in itertools.product(range(-2, sum(bs) + 3), range(len(bs))):
        assert _slice_counts(bs, n, k) == slice_counts_brute(bs, n, k)


def test_slice_counts_at_large_primes_match_the_dp():
    for p in (10007, 100003):
        for tau in range(1, 7):
            bs = branch_exponents(D7, p, tau)
            for n in (sum(bs) - p + 1, sum(bs) - 2 * p + 1, p - 1):
                for k in range(4):
                    assert _slice_counts(bs, n, k) == slice_counts_dp(bs, n, k)


def test_slice_counts_dense_numerator_stays_within_the_dp(monkeypatch):
    # twelve parts of 1: the 2^11 products of N(x) = (1 - x^2)^11 merge,
    # truncated at degree 8, into five exponents, each costing at most
    # two binomials (one at sigma = 8, where the lower end vanishes),
    # against the DP's 11 prefix sums of length 9
    calls = []
    comb = math.comb

    def counted(a, b):
        calls.append((a, b))
        return comb(a, b)

    monkeypatch.setattr(hassewitt.math, "comb", counted)
    bs, n = (1,) * 12, 8
    got = [_slice_counts(bs, n, k) for k in range(12)]
    monkeypatch.undo()
    assert got == [slice_counts_dp(bs, n, k) for k in range(12)] == [(495, 825)] * 12
    assert len(calls) == 12 * 9 <= 12 * 2 * min(2**11, n + 1)


def test_graded_slice_refuses_before_the_walk(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("walked a slice over the budget")

    monkeypatch.setattr(hassewitt, "binomial_mod_p", unexpected)
    bs = branch_exponents(D7, 1009, 3)
    n = sum(bs) - 1009 + 1
    with pytest.raises(DegreeBudgetExceeded, match="^graded slice exceeds 10 terms$"):
        _graded_slice(PrimeField(1009), bs, n, 10)
    with pytest.raises(DegreeBudgetExceeded, match="^graded slice exceeds 1000000 terms$"):
        phi_entry(D7, 1009, 3, 1, 1, 10**6)


def test_one_by_one_phi_multiplicities_build_nothing(monkeypatch):
    chains = list(itertools.islice(_criterion_10_chains(), 0, None, 40))
    pairs = list(itertools.combinations(range(1, 5), 2))
    want = [
        _multiplicity_of_built_entries(ctx, j1, j2, 10**7) for ctx in chains for j1, j2 in pairs
    ]

    def unexpected(*args, **kwargs):
        raise AssertionError("built a chain entry, a slice or a shift")

    for name in ("_graded_slice", "phi_entry", "build_chain", "binomial_mod_p"):
        monkeypatch.setattr(hassewitt, name, unexpected)
    monkeypatch.setattr(FpMultiPoly, "substitute_shift", unexpected)
    assert [h0_divisor_multiplicity(ctx, j1, j2) for ctx in chains for j1, j2 in pairs] == want


def test_h0_multiplicity_at_the_shift_budget_matches_the_built_entries():
    # budgets on either side of each step's shift count, which depends on
    # the label x_{j2} that the shift expands; the first 24 chains include
    # p = 19 steps with one exponent of 15, where a count grouped at
    # another label would move the refusal
    outcomes = collections.Counter()
    for ctx in itertools.islice(_criterion_10_chains(), 0, 24):
        steps = []
        for w in ctx.chain_chars:
            bs = branch_exponents(ctx.datum, ctx.p, w)
            steps.append((bs, sum(bs) - ctx.p + 1))
        for j1, j2 in itertools.permutations(range(1, 5), 2):
            budgets = set()
            for bs, n in steps:
                terms, shifted = slice_counts_dp(bs, n, j2 - 1)
                budgets |= {b for b in (-(-shifted // 8) - 1, -(-shifted // 8)) if b >= terms}
            for budget in sorted(budgets):
                want = _outcome_text(lambda: _multiplicity_of_built_entries(ctx, j1, j2, budget))
                assert _outcome_text(lambda: h0_divisor_multiplicity(ctx, j1, j2, budget)) == want
                outcomes[want.startswith("DegreeBudgetExceeded: substitution")] += 1
    assert outcomes[True] and outcomes[False]


def test_h0_multiplicity_on_1x1_chains_matches_the_built_entries():
    # psi steps are built and shifted, phi steps read off the exponents;
    # (8, 3, (1, 3, 4)) at p = 13 reaches the substitution refusal of a
    # psi entry
    cases = [
        ((5, 3, (1, 1, 3)), 3, 1),
        ((5, 3, (1, 2, 2)), 7, 1),
        ((3, 3, (1, 1, 1)), 5, 1),
        ((4, 3, (1, 1, 2)), 7, 1),
        ((8, 3, (1, 3, 4)), 13, 1),
    ]
    outcomes = set()
    for (m, r, a), p, base in cases:
        ctx = OrbitContext(MonodromyDatum(m, r, a), p, base)
        assert set(ctx.dims) == {1} and {"psi", "psi_dual"} <= set(ctx.kinds)
        for budget in (1, 10, 60, 1000):
            for j1, j2 in [(1, 2), (2, 1), (1, 3), (3, 2), (1, 1), (0, 2)]:
                want = _outcome_text(lambda: _multiplicity_of_built_entries(ctx, j1, j2, budget))
                assert _outcome_text(lambda: h0_divisor_multiplicity(ctx, j1, j2, budget)) == want
                outcomes.add(want.split(" ")[1] if ":" in want else "value")
    assert outcomes == {"value", "need", "graded", "substitution"}
    # all phi, slices of 428 and 492 terms: the second step's refusal
    # comes before the first step's label check
    ctx = OrbitContext(D5, 19, 2)
    want = "DegreeBudgetExceeded: graded slice exceeds 428 terms"
    assert _outcome_text(lambda: _multiplicity_of_built_entries(ctx, 1, 1, 428)) == want
    assert _outcome_text(lambda: h0_divisor_multiplicity(ctx, 1, 1, 428)) == want


def _bound_budgets(ctx, j2):
    """Budgets on either side of each step's product bounds, P - 1 and P
    for the terms (P = prod_s (b_s + 1)) and c - 1 and c for the shift
    (c = ceil((b_{j2} + 1) P / 8)), and likewise of its exact counts."""
    out = set()
    for w in ctx.chain_chars:
        bs = branch_exponents(ctx.datum, ctx.p, w)
        bound = math.prod(b + 1 for b in bs)
        terms, shifted = slice_counts_dp(bs, sum(bs) - ctx.p + 1, j2 - 1)
        for t, s in ((bound, (bs[j2 - 1] + 1) * bound), (terms, shifted)):
            out |= {t - 1, t, -(-s // 8) - 1, -(-s // 8)}
    return sorted(out)


# sha256 of every outcome (value, or error class and message) of
# h0_divisor_multiplicity over the l <= 2 chains at p = 11, 13 and 19,
# the twelve ordered label pairs, _bound_budgets and the default budget;
# recorded while every phi slice was still counted exactly
H0_BOUND_SHA256 = "2382c315bcc703e154f6acc2bd39d56f2a7e2dc6a942c14e301e30a51136eab7"

# sha256 of the repr of the list of h0_divisor_multiplicity values at the
# default budget over _criterion_10_chains and the twelve ordered label
# pairs, recorded with the same exact counts
H0_DEFAULT_BUDGET_SHA256 = "4ed798fff78f193c2c25238fa328520e0bae10b5c28c8a03a5efbe03914a330f"


def test_h0_multiplicity_around_the_product_bounds_golden_digest():
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for ctx in _criterion_10_chains((11, 13, 19)):
        for j1, j2 in itertools.permutations(range(1, 5), 2):
            for budget in _bound_budgets(ctx, j2) + [None]:
                kwargs = {} if budget is None else {"budget": budget}
                outcome = _outcome_text(lambda: h0_divisor_multiplicity(ctx, j1, j2, **kwargs))
                digest.update(f"{outcome}\n".encode())
                outcomes[outcome.split(":")[0] if ":" in outcome else "value"] += 1
    assert digest.hexdigest() == H0_BOUND_SHA256
    assert set(outcomes) == {"value", "DegreeBudgetExceeded"}


def test_h0_multiplicity_at_the_default_budget_counts_no_slice(monkeypatch):
    # every phi slice of these chains is within both product bounds at the
    # default budget, so no exact count is taken
    def unexpected(*args, **kwargs):
        raise AssertionError("counted a slice within its product bounds")

    monkeypatch.setattr(hassewitt, "_slice_counts", unexpected)
    got = [
        h0_divisor_multiplicity(ctx, j1, j2)
        for ctx in _criterion_10_chains()
        for j1, j2 in itertools.permutations(range(1, 5), 2)
    ]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == H0_DEFAULT_BUDGET_SHA256


def _size_verdict(counts, budget):
    """What the budget checks make of a slice's (terms, shifted)."""
    terms, shifted = counts
    if not terms:
        return "zero"
    if terms > max(budget, 0):
        return "terms"
    return "shift" if shifted > 8 * budget else "accept"


@st.composite
def _size_cases(draw):
    p = draw(st.sampled_from(_primes_in(3, 38)))
    r = draw(st.integers(2, 5))
    bs = tuple(draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r)))
    n = draw(st.integers(-1, sum(bs) + 1))
    k = draw(st.integers(0, r - 1))
    bound = math.prod(b + 1 for b in bs)
    edges = [e + d for e in (bound, -(-(bs[k] + 1) * bound // 8)) for d in (-1, 0, 1)]
    budget = draw(st.sampled_from(edges) | st.integers(-1, 3000))
    return bs, n, k, budget


@given(_size_cases())
@example(((0, 0), 0, 0, 0))
@example(((3, 3, 3), 4, 1, 64))
@example(((3, 3, 3), 4, 1, 31))
@settings(max_examples=400, deadline=None)
def test_slice_sizes_pass_the_checks_as_the_exact_counts_do(case):
    bs, n, k, budget = case
    assert _size_verdict(_slice_sizes(bs, n, k, budget), budget) == _size_verdict(
        slice_counts_dp(bs, n, k), budget
    )


@st.composite
def _small_slices(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    r = draw(st.integers(2, 4))
    bs = tuple(draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r)))
    return p, bs, draw(st.integers(0, sum(bs)))


@given(_small_slices())
@example((3, (0, 0), 0))
@settings(max_examples=100, deadline=None)
def test_graded_slice_where_the_product_bound_first_fails(case):
    # below the least budget that passes both bounds at x_1 the slice is
    # counted exactly; at it, it is not; both give the exact count's outcome
    p, bs, n = case
    bound = math.prod(b + 1 for b in bs)
    first = max(bound, -(-(bs[0] + 1) * bound // 8))
    terms = slice_counts_dp(bs, n)[0]
    want_slice = str(sorted(oracle_graded_slice(bs, n, p).items()))
    exact, counted = hassewitt._slice_counts, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hassewitt, "_slice_counts", lambda *args: counted.append(budget) or exact(*args))
        for budget in (first - 1, first):
            want = (
                f"DegreeBudgetExceeded: graded slice exceeds {budget} terms"
                if terms > max(budget, 0)
                else want_slice
            )
            got = _outcome_text(lambda: sorted(_graded_slice(PrimeField(p), bs, n, budget).terms.items()))
            assert got == want
    assert counted == [first - 1]


def _slice_grid():
    """(datum, p, tau, jp, j, bs, n, count) for every phi entry of a few
    small data at p = 3, 11, 13, count the slice's term count by the
    oracle, then the zero slices just past either end."""
    data = [D5, D7, MonodromyDatum(5, 3, (1, 1, 3)), MonodromyDatum(8, 3, (1, 3, 4)),
            MonodromyDatum(7, 5, (1, 1, 1, 1, 3))]
    for d in data:
        sig = signature(d)
        for p in (3, 11, 13):
            if d.m % p == 0:
                continue
            for tau in range(1, d.m):
                bs = branch_exponents(d, p, tau)
                for jp in range(1, sig[(p * tau) % d.m] + 1):
                    for j in range(1, sig[tau] + 1):
                        n = sum(bs) - (p * j - jp)
                        yield d, p, tau, jp, j, bs, n, len(oracle_graded_slice(bs, n, p))
                for n in (-1, sum(bs) + 1):
                    yield d, p, tau, None, None, bs, n, 0


# sha256 of every outcome (the sorted terms, or the error class and
# message) of phi_entry and _graded_slice over _slice_grid at budgets
# count - 1, count and count + 1; recorded while _graded_slice still
# refused only once its walk had passed the budget
SLICE_BUDGET_SHA256 = "bca38e620e5735772825d750ea00a08f31d901490ebaee6dd8d43f86f4512a63"


def test_slice_refusals_at_the_budget_boundary_golden_digest():
    digest = hashlib.sha256()
    for d, p, tau, jp, j, bs, n, count in _slice_grid():
        for budget in (count - 1, count, count + 1):
            if jp is not None:
                entry = _outcome_text(lambda: sorted(phi_entry(d, p, tau, jp, j, budget).terms.items()))
                digest.update(f"{entry}\n".encode())
            block = _outcome_text(lambda: sorted(_graded_slice(PrimeField(p), bs, n, budget).terms.items()))
            digest.update(f"{block}\n".encode())
    assert digest.hexdigest() == SLICE_BUDGET_SHA256


def test_divisor_bound_at_larger_primes():
    # a seeded sample of the l <= 2 M5/M7 chains at primes 29..199
    rng = random.Random(29199)
    data = [
        MonodromyDatum(m, 4, a)
        for m in (5, 7)
        for a in itertools.product(range(1, m), repeat=4)
        if sum(a) % m == 0
    ]
    primes = _primes_in(29, 200)
    checked = met = 0
    while checked < 6000:
        d = rng.choice(data)
        sig = signature(d)
        bases = [b for b in range(1, d.m) if sig[d.m - b] == 1]
        if not bases:
            continue
        ctx = OrbitContext(d, rng.choice(primes), rng.choice(bases))
        if ctx.l > 2:
            continue
        for j1, j2 in itertools.combinations(range(1, 5), 2):
            got, bound = h0_divisor_multiplicity(ctx, j1, j2), divisor_bound(ctx, j1, j2)
            assert got <= bound, (d.a, ctx.p, ctx.base, j1, j2, got, bound)
            met += got == bound
            checked += 1
    assert met > 0


def test_witness_golden_p13():
    ctx = OrbitContext(D7, 13, 5)
    wit = nonordinary_witness(ctx, dmax=3, seed=7)
    assert wit.alpha == 12  # the point -1
    assert wit.degree == 1
    assert wit.certificate.coeffs == (1, 1)
    assert wit.branch_order == (0, 1, 2, 3)
    assert witness_count(ctx) == 1


def test_witness_golden_p29():
    ctx = OrbitContext(D7, 29, 5)
    wit = nonordinary_witness(ctx, dmax=4, seed=11)
    assert wit.degree == 2
    assert wit.certificate.coeffs == (12, 1, 1)
    assert wit.alpha is not None
    # degree cap below the smallest factor still reports its size
    capped = nonordinary_witness(ctx, dmax=1, seed=11)
    assert capped.alpha is None and capped.degree == 2


def _seeded_chains(seed, closed_form, want):
    """OrbitContexts of M5/M7 four-point data at primes in (3m, 60), drawn
    with a seeded RNG: single phi entries (h1 = +-f(a,b,c)) when
    closed_form, else two-step chains that take the generic path through
    h1 (longer ones reach degrees in the thousands, too slow for factor)."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < want:
        m = rng.choice((5, 7))
        a = tuple(rng.randrange(1, m) for _ in range(3))
        last = -sum(a) % m
        if last == 0 or math.gcd(m, *a) != 1:
            continue
        d = MonodromyDatum(m, 4, a + (last,))
        sig = signature(d)
        p = rng.choice([q for q in _primes_in(3 * m + 1, 60) if q % m])
        bases = [b for b in range(1, m) if sig[m - b] == 1]
        if not bases:
            continue
        ctx = OrbitContext(d, p, rng.choice(bases))
        if ctx.i0 <= 2 and (h1_fabc_params(ctx) is not None) == closed_form:
            out.append(ctx)
    return out


@pytest.mark.parametrize("closed_form", [True, False], ids=["closed-form", "generic"])
@pytest.mark.parametrize("seed", [3, 4])
def test_witness_certificate_is_the_least_factor(seed, closed_form):
    for ctx in _seeded_chains(seed, closed_form, 4):
        wit = nonordinary_witness(ctx, dmax=4, seed=seed)
        fac = factor(_strip_01(h1(ctx)), seed=1)
        assert wit.certificate == fac.factors[0][0], ctx
        assert wit.count == witness_count(ctx) == sum(g.degree for g, _ in fac.factors)
        assert (wit.alpha is None) == (wit.degree > 4)


def test_witness_count_floor():
    # single-step specialization: count is at least floor(p/m) - 1
    import random

    rng = random.Random(31337)
    done = 0
    while done < 15:
        d = _random_four_datum(rng)
        m = d.m
        sig = signature(d)
        primes = [p for p in _primes_in(3 * m + 1, 3 * m + 120) if math.gcd(p, m) == 1]
        p = rng.choice(primes)
        bases = [
            b
            for b in range(1, m)
            if math.gcd(b, m) == 1
            and sig[(m - b) % m] == 1
            and sig[(p * ((m - b) % m)) % m] == 1
        ]
        if not bases:
            continue
        ctx = OrbitContext(d, p, rng.choice(bases))
        assert ctx.i0 == 1
        assert witness_count(ctx) >= p // m - 1, (d.a, p, ctx.base)
        done += 1


# ---------------------------------------------------------------------------
# radicals from the chain's last layer


def _radical_chains():
    """Every chain of the four-point M5, M7, M8 and M9 data (labels
    sorted) at the odd primes p < 48 prime to m, one per base."""
    for m in (5, 7, 8, 9):
        for d in _sorted_four_data(m):
            sig = signature(d)
            for p in _primes_in(3, 48):
                if m % p == 0:
                    continue
                for b0 in range(1, m):
                    if math.gcd(b0, m) == 1 and sig[m - b0] == 1:
                        yield OrbitContext(d, p, b0)


# sha256 of every outcome (the radical's coefficients, or the error class
# and message) of h1_radical over _radical_chains, 3,830 chains per
# budget; recorded while h1_radical still built h1 and took its
# squarefree decomposition at the full degree
H1_RADICAL_SHA256 = {
    None: "37020e1302074d753c92d2274fb04c91fca3b429f92e14bb36951c1c167f72ec",
    10: "c5b0c3ed46ae6a0a665e3af93aaca528439e599d08f71cbe415cf0ec711cf438",
    1000: "a2d4b570628d51a4caf78e0bdc16e6ec65a223818423ec34c9b6ae0bcd8098ce",
}


@pytest.mark.parametrize("budget", sorted(H1_RADICAL_SHA256, key=str))
def test_h1_radical_golden_digest(budget):
    kwargs = {} if budget is None else {"budget": budget}
    digest = hashlib.sha256()
    for ctx in _radical_chains():
        outcome = _outcome_text(lambda: h1_radical(ctx, **kwargs).coeffs)
        digest.update(f"{outcome}\n".encode())
    assert digest.hexdigest() == H1_RADICAL_SHA256[budget]


def _last_layer_cases(layers):
    """The cases of h1_radical's proof that the last of the univariate
    layers takes: i0, the number d of nonzero terms, and for d = 2
    whether W = 0, whether W_0 (W stripped of t and t - 1) has positive
    degree, whether G = gcd(Y_1, Y_2) and its radical away from t and
    t - 1 have positive degree, and whether h~ has a repeated factor
    other than t and t - 1 (a nonconstant W-part)."""
    field = layers[0][0][0].field
    heads = [FpUniPoly.one(field)]
    if len(layers) > 1:
        heads = [col[0] for col in compose_sigma_linear(
            layers[:-1], field.p, lambda e, k: e.frobenius_pow(k), operator.mul, operator.add
        )]
    terms = [(c, y) for c, y in zip(layers[-1][0], heads) if not (c.is_zero or y.is_zero)]
    cases = {f"i0={len(layers)}", f"d={len(terms)}"}
    if len(terms) == 2:
        (c1, y1), (c2, y2) = terms
        w = c1.derivative() * c2 - c1 * c2.derivative()
        if w.is_zero:
            return cases | {"W=0"}
        if _strip_01(w).degree:
            cases.add("deg W0>0")
        g = y1.gcd(y2)
        if g.degree:
            cases.add("deg G>0")
        if radical_01(g).degree:
            cases.add("deg rad G>0")
        h = c1 * (y1 // g).frobenius_pow(1) + c2 * (y2 // g).frobenius_pow(1)
        if radical_01(h).degree < _strip_01(h).degree:
            cases.add("W-part")
    return cases


# the only chains of _radical_chains whose h~ has a repeated factor other
# than t and t - 1, both M9 data at p = 5; their W_0 is not constant, so
# _row_radical reduces h~ mod W_0
W_PART_CHAINS = [((1, 1, 3, 4), 5, 7), ((2, 2, 6, 8), 5, 8)]


def _last_layer_sample(seed):
    """150 chains of _radical_chains below p = 30, drawn by seed, and the
    W-part chains."""
    rng = random.Random(seed)
    # below p = 30 the full-degree oracle stays fast; the golden digest
    # above pins every outcome up to p = 47
    return rng.sample([ctx for ctx in _radical_chains() if ctx.p < 30], 150) + [
        OrbitContext(MonodromyDatum(9, 4, a), p, b0) for a, p, b0 in W_PART_CHAINS
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_last_layer_radical_matches_the_generic_path(seed):
    # no chain of _radical_chains has W = 0 at its last layer, or a zero
    # entry there; test_layers_radical_on_constructed_chains reaches both
    reached = set()
    for ctx in _last_layer_sample(seed):
        layers = specialized_chain(ctx)
        want = radical_01(h1(ctx))
        assert _layers_radical(layers) == want, ctx
        assert h1_radical(ctx) == want, ctx
        reached |= _last_layer_cases(layers)
    assert reached >= {"i0=1", "i0=2", "i0=3", "d=1", "d=2", "deg W0>0", "deg G>0", "W-part"}


def test_ends_of_h_from_the_short_factors():
    # h~ = c_1 Z_1^p + c_2 Z_2^p at the last layer of two terms: its values
    # at 0 and 1 read off c_k and Z_k equal those of the built h~
    ends = set()
    for ctx in _last_layer_sample(0) + _last_layer_sample(1):
        layers = specialized_chain(ctx)
        field = layers[0][0][0].field
        heads = _heads(field, layers[:-1])
        terms = [(c, y) for c, y in zip(layers[-1][0], heads[-1]) if not (c.is_zero or y.is_zero)]
        if len(terms) != 2:
            continue
        (c1, y1), (c2, y2) = terms
        g = y1.gcd(y2)
        zs = (y1 // g, y2 // g)
        h = _twisted_row((c1, c2), [z.coeffs for z in zs], field)
        got = _twisted_ends((c1, c2), zs)
        assert got == (h.evaluate(0), h.evaluate(1)), ctx
        ends |= {("h(0)", bool(got[0])), ("h(1)", bool(got[1]))}
    assert ends == {("h(0)", False), ("h(0)", True), ("h(1)", False), ("h(1)", True)}


def _w_of(field, v0, v1, w0):
    """t^v0 (t - 1)^v1 w0."""
    power = FpUniPoly(field, [0] * v0 + [math.comb(v1, i) * (-1) ** (v1 - i) for i in range(v1 + 1)])
    return power * w0


@pytest.mark.parametrize("p", [3, 5, 179, 4621])
def test_w_shape_check_matches_the_generic_strip(p):
    field = PrimeField(p)
    rng = random.Random(p)

    def unit():
        return FpUniPoly.constant(field, rng.randrange(1, p))

    def poly():
        return FpUniPoly(field, [rng.randrange(p) for _ in range(rng.randrange(2, 7))] + [rng.randrange(1, p)])

    top = min(p - 1, 60)
    cases = [
        (0, 0, unit()), (rng.randrange(1, 9), 0, unit()), (0, rng.randrange(1, top + 1), unit()),
        (rng.randrange(9), rng.randrange(top + 1), unit()), (rng.randrange(9), p - 1, unit()),
        (0, 0, poly()), (rng.randrange(9), rng.randrange(top + 1), poly()),
        (rng.randrange(1, 9), rng.randrange(1, top + 1), poly() * _w_of(field, 0, 1, unit())),
    ]
    if p < 200:
        # n >= p: the generic strip
        cases += [(rng.randrange(9), p, unit()), (rng.randrange(9), p - 1, poly())]
    shapes = set()
    for v0, v1, w0 in cases:
        w = _w_of(field, v0, v1, w0)
        want = _strip_01(w)
        assert _strip_w(w) == want, (v0, v1, w0)
        assert want.degree == 0 or w0.degree > 0
        shapes.add(want.degree == 0)
    assert shapes == {True, False}


def test_last_layer_radical_when_the_tops_of_h_cancel():
    # c_1 Z_1^p + c_2 Z_2^p with Z = (t, t + 1) and c = (t + 2, 1 - t): the
    # two tops t^(p+1) cancel, so h~ is made monic after it is built
    field = PrimeField(7)
    t = FpUniPoly(field, [0, 1])
    one = FpUniPoly.one(field)
    layers = (((t,), (t + one,)), ((t + one + one, one - t),))
    composite = compose_sigma_linear(layers, 7, lambda e, k: e.frobenius_pow(k), operator.mul, operator.add)[0][0]
    assert composite.degree < 8
    assert _layers_radical(layers) == radical_01(composite)


def _constructed_layers(rng, p, dims):
    """Random univariate layers of shape dims[i+1] x dims[i], with zero
    entries, two-entry rows (g a_1^p, g a_2^p) that have W = 0, and at
    times a layer before such a row chosen so the composite vanishes."""
    field = PrimeField(p)

    def poly(top):
        return FpUniPoly(field, [rng.randrange(p) for _ in range(rng.randrange(1, top + 1))])

    def entry():
        return FpUniPoly.zero(field) if rng.random() < 0.2 else poly(p)

    layers = [[[entry() for _ in range(dims[i])] for _ in range(dims[i + 1])]
              for i in range(len(dims) - 1)]
    for i, mat in enumerate(layers):
        for row in mat:
            if len(row) == 2 and rng.random() < 0.6:
                g, a1, a2 = poly(p), poly(2), poly(2)
                row[:] = [g * a1.frobenius_pow(1), g * a2.frobenius_pow(1)]
                if rng.random() < 0.3:
                    u = [entry() for _ in range(dims[i - 1])]
                    layers[i - 1][:] = [[a2 * x for x in u], [-a1 * x for x in u]]
    return tuple(tuple(tuple(row) for row in mat) for mat in layers)


def test_layers_radical_on_constructed_chains(monkeypatch):
    # the cases real chains do not reach: W = 0 (with constant and with
    # nonconstant a_k), zero entries, and composites that vanish; and both
    # branches of a last layer with two terms and W != 0: a constant W_0
    # (and rad G) makes no poly_powmod call, a nonconstant one reduces h~
    # mod W_0 through two
    calls = []
    powmod = hassewitt.poly_powmod
    monkeypatch.setattr(hassewitt, "poly_powmod", lambda *args: calls.append(1) or powmod(*args))
    rng = random.Random(12)
    outcomes = set()
    for _ in range(300):
        p = rng.choice((3, 5, 7))
        dims = rng.choice(((1, 1), (1, 2, 1), (1, 1, 2, 1), (1, 2, 2, 1), (1, 2, 1, 2, 1)))
        layers = _constructed_layers(rng, p, dims)
        composite = compose_sigma_linear(
            layers, p, lambda e, k: e.frobenius_pow(k), operator.mul, operator.add
        )[0][0]
        calls.clear()
        got = _layers_radical(layers)
        if composite.is_zero:
            assert got is None
            outcomes.add("vanishing")
            continue
        assert got == radical_01(composite), (p, layers)
        outcomes.add("radical")
        cases = _last_layer_cases(layers)
        if "d=2" in cases and "W=0" not in cases:
            if "deg W0>0" in cases:
                assert len(calls) >= 2, (p, layers)
                outcomes.add("W0 reduced")
            elif "deg rad G>0" not in cases:
                assert calls == [], (p, layers)
                outcomes.add("no powmod")
    assert outcomes == {"vanishing", "radical", "W0 reduced", "no powmod"}
