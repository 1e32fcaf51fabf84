"""Correctness checks for the benchmark's workloads.

Each ``check_*`` function takes the records a run produced and returns a
list of error strings; an empty list means every check passed.  They run
after the timed region.  Expected values come from the paper's bounds,
from the binomial-sum oracles in ``tests/oracles.py`` and from sympy's
GF(p) arithmetic, never from the package under test.

Univariate polynomials are coefficient lists, lowest degree first, with
no trailing zeros; sympy's ``galoistools`` wants them highest first, and
the ``_sp``/``_from_sp`` helpers convert.
"""

import importlib.util
import itertools
import json
import math
from pathlib import Path

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_from_int_poly,
    gf_gcd,
    gf_irreducible_p,
    gf_monic,
    gf_pow_mod,
    gf_quo,
    gf_rem,
    gf_sqf_part,
    gf_sub,
)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

M7_LABELS = (3, 1, 1, 2)
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


# ---------------------------------------------------------------------------
# polynomials over GF(p), lowest degree first

def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def parse_poly_text(text):
    """Inverse of the package's 'c0 + c1*t + c2*t^2' text form."""
    if text == "0":
        return []
    coeffs = {}
    for term in text.split(" + "):
        if "*" not in term:
            coeffs[0] = int(term)
            continue
        c, power = term.split("*")
        coeffs[1 if power == "t" else int(power[2:])] = int(c)
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def evaluate(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def is_monic(coeffs):
    return bool(coeffs) and coeffs[-1] == 1


def _sp(coeffs, p):
    return gf_from_int_poly(list(reversed(coeffs)), p)


def _from_sp(poly):
    return [int(c) for c in reversed(poly)]


def strip_01(coeffs, p):
    """Divide out every factor t and t - 1."""
    f = trim(c % p for c in coeffs)
    while f and f[0] == 0:
        f.pop(0)
    while len(f) > 1 and sum(f) % p == 0:
        # synthetic division by t - 1
        q = [0] * (len(f) - 1)
        acc = 0
        for i in range(len(f) - 1, 0, -1):
            acc = (acc + f[i]) % p
            q[i - 1] = acc
        f = q
    return f


def radical(coeffs, p):
    """Monic squarefree part (sympy)."""
    return _from_sp(gf_monic(gf_sqf_part(_sp(coeffs, p), p, ZZ), p, ZZ)[1])


def poly_gcd(f, g, p):
    return _from_sp(gf_gcd(_sp(f, p), _sp(g, p), p, ZZ))


def poly_quo(f, g, p):
    return _from_sp(gf_quo(_sp(f, p), _sp(g, p), p, ZZ))


def divides(g, f, p):
    return not gf_rem(_sp(f, p), _sp(g, p), p, ZZ)


def is_irreducible(coeffs, p):
    return gf_irreducible_p(_sp(coeffs, p), p, ZZ)


def has_factor_of_degree_at_most(coeffs, dmax, p):
    """Does f have an irreducible factor of degree d <= dmax?  Such a
    factor divides t^(p^d) - t."""
    f = _sp(coeffs, p)
    t = [1, 0]
    h = t
    for _ in range(dmax):
        h = gf_pow_mod(h, p, f, p, ZZ)
        if len(gf_gcd(f, gf_sub(h, t, p, ZZ), p, ZZ)) > 1:
            return True
    return False


def is_squarefree(coeffs, p):
    """gcd(f, f') == 1 by a plain Euclid on slices.  sympy's gf_gcd takes
    ~20 s at degree 5600; this takes about a second."""
    f = [c % p for c in reversed(trim(coeffs))]
    g = trim([(i * c) % p for i, c in enumerate(trim(coeffs))][1:])
    g = list(reversed(g))
    while g:
        inv = pow(g[0], p - 2, p)
        g = [c * inv % p for c in g]
        db = len(g) - 1
        for i in range(len(f) - db):
            q = f[i]
            if q:
                f[i:i + db + 1] = [(x - q * y) % p for x, y in zip(f[i:i + db + 1], g)]
        rem = f[len(f) - db:] if db else []
        while rem and rem[0] == 0:
            rem.pop(0)
        f, g = g, rem
    return len(f) == 1


# ---------------------------------------------------------------------------
# chain polynomials recomputed from the oracles

def signature(m, labels):
    return [0] + [sum(i * a % m for a in labels) // m - 1 for i in range(1, m)]


def exponents(m, labels, p, tau):
    return [p * (tau * a % m) // m for a in labels]


def branch_order(m, labels, p, c0):
    """First slot permutation whose middle two exponents at c0 sum to at
    most the outer two: the coordinates the package certifies in."""
    bs = exponents(m, labels, p, c0)
    return next(
        perm for perm in itertools.permutations(range(4))
        if bs[perm[1]] + bs[perm[2]] <= bs[perm[0]] + bs[perm[3]]
    )


def specialize(entry, p):
    """(x1, x2, x3, x4) -> (infinity, t, 1, 0) on an oracle entry: keep the
    monomials of largest e1 - e4, then read off the x2-polynomial."""
    if not entry:
        return []
    gap = max(e[0] - e[3] for e in entry)
    out = {}
    for e, c in entry.items():
        if e[0] - e[3] == gap:
            out[e[1]] = (out.get(e[1], 0) + c) % p
    coeffs = [0] * (max(out) + 1)
    for e, c in out.items():
        coeffs[e] = c
    return trim(coeffs)


def phi_chain_poly(m, labels, p, c0, multivariate=False):
    """The one-step chain polynomial phi_{c0} (p = +-1 mod m, signature 1
    at c0), in the branch order at c0.  By default from the binomial-sum
    closed form (-1)^N f(b2, b3, N - b1); with multivariate=True from the
    graded-slice oracle, which is feasible only at small p."""
    order = branch_order(m, labels, p, c0)
    ordered = [labels[k] for k in order]
    if multivariate:
        return specialize(oracles.phi_entry_oracle(m, ordered, p, c0, 1, 1), p)
    bs = exponents(m, ordered, p, c0)
    n = sum(bs) - (p - 1)
    c = n - bs[0]
    if not 0 <= c <= bs[1] + bs[2]:
        return specialize(oracles.phi_entry_oracle(m, ordered, p, c0, 1, 1), p)
    f = oracles.fabc_brute(bs[1], bs[2], c, p)
    return f if n % 2 == 0 else [(-x) % p for x in f]


def _walk(m, labels, p, base):
    """Chain structure of the orbit walk through c0 = m - base: per step
    the kind, the character its matrix is computed at, and the dims."""
    sig = signature(m, labels)
    c0 = (m - base) % m
    chars = [c0]
    while (p * chars[-1]) % m != c0:
        chars.append((p * chars[-1]) % m)
    l = len(chars)
    dims = [sig[u] if sig[u] >= 1 else sig[(m - u) % m] for u in chars]
    dims.append(dims[0])
    steps = []
    for i, u in enumerate(chars):
        v = chars[(i + 1) % l]
        if sig[u] >= 1:
            steps.append(("phi" if sig[v] >= 1 else "psi", u))
        else:
            steps.append(("psi_dual" if sig[v] >= 1 else "phi_dual", (m - u) % m))
    i0 = next(i for i in range(1, l + 1) if sig[chars[i % l]] == 1)
    return steps, dims, i0


def _oracle_entry(m, labels, p, kind, char, jp, j):
    fn = oracles.phi_entry_oracle if kind in ("phi", "phi_dual") else oracles.psi_entry_oracle
    return fn(m, labels, p, char, jp, j)


def nu_certificate_oracle(m, labels, p, base):
    """Radical of h1 with t and t - 1 removed, for a census outside
    p = +-1 mod m: oracle entries over the first i0 steps, specialized,
    composed by oracles.compose_sigma_linear, then sympy's radical."""
    steps, dims, i0 = _walk(m, labels, p, base)
    c0 = (m - base) % m
    order = branch_order(m, labels, p, c0)
    ordered = [labels[k] for k in order]
    mats = []
    for i in range(i0):
        kind, char = steps[i]
        mats.append([
            [specialize(_oracle_entry(m, ordered, p, kind, char, jp, j), p)
             for j in range(1, dims[i] + 1)]
            for jp in range(1, dims[i + 1] + 1)
        ])

    def twist(f, k):
        if not f:
            return []
        q = p ** k
        out = [0] * ((len(f) - 1) * q + 1)
        for e, c in enumerate(f):
            out[e * q] = c
        return out

    def mul(f, g):
        if not f or not g:
            return []
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return trim(c % p for c in out)

    def add(f, g):
        if len(f) < len(g):
            f, g = g, f
        return trim([(a + (g[i] if i < len(g) else 0)) % p for i, a in enumerate(f)])

    h1 = oracles.compose_sigma_linear(mats, p, twist, mul, add)[0][0]
    return radical(strip_01(h1, p), p)


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return {int(p): coeffs for p, coeffs in json.load(fh)["nu_certificates"].items()}


# ---------------------------------------------------------------------------
# survey-balanced

def check_survey(primes, census_outs, survey_out, sample, expected_basic):
    """census_outs[i] is the stdout of `census -o json` at primes[i];
    survey_out that of the survey replay over the same cache.  sample
    lists the primes whose certificates are recomputed with sympy."""
    errors = []
    if "".join(census_outs) != survey_out:
        errors.append("survey replay differs from the census outputs")
    basic = 0
    records = {}
    for p, out in zip(primes, census_outs):
        try:
            rec = json.loads(out)
            strata = {s["label"]: s for s in rec["strata"]}
            certs = {}
            for label in ("W2", "W3", "Basic"):
                s = strata[label]
                text = s["certificate"]
                if s["nonempty"] != (text is not None):
                    errors.append(f"p={p}: {label} nonempty flag disagrees with its certificate")
                certs[label] = parse_poly_text(text) if text is not None else [1]
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"p={p}: unreadable census record ({exc!r})")
            continue
        if rec["p"] != p:
            errors.append(f"p={p}: record is for p={rec['p']}")
        records[p] = certs
        basic += strata["Basic"]["nonempty"]
        for label, cert in certs.items():
            if len(cert) > 1 and not (
                is_monic(cert) and evaluate(cert, 0, p) and evaluate(cert, 1, p)
            ):
                errors.append(f"p={p}: {label} certificate is not monic or vanishes at 0 or 1")
        deg_basic = len(certs["Basic"]) - 1
        for label in ("W2", "W3"):
            if len(certs[label]) - 1 + deg_basic < p // 7 - 1:
                errors.append(f"p={p}: deg {label} + deg Basic below p//7 - 1")
    if basic != expected_basic:
        errors.append(f"Basic nonempty at {basic} primes, expected {expected_basic}")
    for p in sample:
        if p not in records:
            continue
        rad = {c: radical(strip_01(phi_chain_poly(7, M7_LABELS, p, c), p), p) for c in (2, 3)}
        g = poly_gcd(rad[2], rad[3], p)
        expected = {"W2": poly_quo(rad[3], g, p), "W3": poly_quo(rad[2], g, p), "Basic": g}
        for label, cert in expected.items():
            if records[p][label] != cert:
                errors.append(f"p={p}: {label} certificate differs from sympy's")
    return errors


def check_closed_form_oracle(p):
    """The closed form used above agrees with the graded-slice oracle."""
    errors = []
    for c in (2, 3):
        if phi_chain_poly(7, M7_LABELS, p, c) != phi_chain_poly(7, M7_LABELS, p, c, multivariate=True):
            errors.append(f"p={p}: closed-form oracle disagrees with the slice oracle at c={c}")
    return errors


# ---------------------------------------------------------------------------
# census-long-orbit

def check_long_orbit(primes, census_outs, expected_certs):
    """expected_certs maps some of the primes to the Nu certificate the
    oracle gives."""
    errors = []
    for p, out in zip(primes, census_outs):
        try:
            rec = json.loads(out)
            nu = rec["strata"][-1]
            label, text = nu["label"], nu["certificate"]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"p={p}: unreadable census record ({exc!r})")
            continue
        if label != "Nu" or not nu["nonempty"] or text is None:
            errors.append(f"p={p}: Nu row missing or empty")
            continue
        cert = parse_poly_text(text)
        if not (is_monic(cert) and evaluate(cert, 0, p) and evaluate(cert, 1, p)):
            errors.append(f"p={p}: Nu certificate is not monic or vanishes at 0 or 1")
        if not is_squarefree(cert, p):
            errors.append(f"p={p}: Nu certificate is not squarefree")
        if p in expected_certs and cert != expected_certs[p]:
            errors.append(f"p={p}: Nu certificate differs from the oracle's radical")
    return errors


# ---------------------------------------------------------------------------
# witness-factor

def check_witness(cases, outs, dmax):
    """cases[i] = (p, b0) for the witness run whose stdout is outs[i]."""
    errors = []
    for (p, b0), out in zip(cases, outs):
        where = f"p={p} b0={b0}"
        try:
            rec = json.loads(out)
            cert = trim(rec["certificate"])
            found, degree, count = rec["found"], rec["degree"], rec["count"]
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"{where}: unreadable witness record ({exc!r})")
            continue
        c0 = 7 - b0
        if tuple(rec["branch_order"]) != branch_order(7, M7_LABELS, p, c0):
            errors.append(f"{where}: branch order differs")
        chain = strip_01(phi_chain_poly(7, M7_LABELS, p, c0), p)
        rad_degree = len(radical(chain, p)) - 1
        if count != rad_degree:
            errors.append(f"{where}: count {count} but the radical has degree {rad_degree}")
        if count < p // 7 - 1:
            errors.append(f"{where}: count {count} below p//7 - 1")
        if len(cert) - 1 != degree or not is_monic(cert):
            errors.append(f"{where}: certificate is not monic of the stated degree")
            continue
        if not is_irreducible(cert, p):
            errors.append(f"{where}: certificate is reducible")
        if not divides(cert, chain, p):
            errors.append(f"{where}: certificate does not divide the chain polynomial")
        if found:
            if degree > dmax:
                errors.append(f"{where}: witness degree {degree} above dmax {dmax}")
            alpha = rec["alpha"]
            if degree == 1 and evaluate(cert, alpha, p) != 0:
                errors.append(f"{where}: alpha is not a root of the certificate")
            if degree > 1 and (alpha["modulus"] != cert or alpha["value"] != [0, 1]):
                errors.append(f"{where}: alpha is not the class of t modulo the certificate")
        elif degree <= dmax or has_factor_of_degree_at_most(chain, dmax, p):
            errors.append(f"{where}: no witness reported, but one of degree <= {dmax} exists")
    return errors


# ---------------------------------------------------------------------------
# divisor-multiplicity

def multiplicity_bound(m, labels, p, base, j1, j2):
    """sum_i p^(l-1-i) max(0, b_j1 + b_j2 - (p - 3)) at each step's chain
    character."""
    steps, _, _ = _walk(m, labels, p, base)
    l = len(steps)
    total = 0
    for i, (_, char) in enumerate(steps):
        bs = exponents(m, labels, p, char)
        total += p ** (l - 1 - i) * max(0, bs[j1 - 1] + bs[j2 - 1] - (p - 3))
    return total


def _shifted_valuation(entry, j1, j2, p):
    """Least exponent of x_j2 after x_j2 -> x_j1 + x_j2."""
    out = {}
    for e, c in entry.items():
        n = e[j2 - 1]
        for i in range(n + 1):
            b = math.comb(n, i) % p
            if b:
                key = list(e)
                key[j2 - 1] = i
                key[j1 - 1] += n - i
                key = tuple(key)
                out[key] = (out.get(key, 0) + c * b) % p
    return min(e[j2 - 1] for e, c in out.items() if c)


def multiplicity_oracle(m, labels, p, base, j1, j2):
    """Multiplicity of (x_j1 - x_j2) in h0 for a chain of 1x1 layers: the
    valuation is additive over the product of twisted entries."""
    steps, dims, _ = _walk(m, labels, p, base)
    if any(d != 1 for d in dims):
        raise ValueError("oracle multiplicity needs 1x1 layers")
    l = len(steps)
    return sum(
        p ** (l - 1 - i) * _shifted_valuation(_oracle_entry(m, labels, p, kind, char, 1, 1), j1, j2, p)
        for i, (kind, char) in enumerate(steps)
    )


def check_divisor(cases, values, sample):
    """cases[i] = (m, labels, p, base, j1, j2) with multiplicity values[i];
    sample lists the indices recomputed by the oracle."""
    errors = []
    for (m, labels, p, base, j1, j2), got in zip(cases, values):
        bound = multiplicity_bound(m, labels, p, base, j1, j2)
        if not 0 <= got <= bound:
            errors.append(f"{m}:{labels} p={p} b0={base} ({j1},{j2}): {got} outside [0, {bound}]")
    for i in sample:
        m, labels, p, base, j1, j2 = cases[i]
        want = multiplicity_oracle(m, labels, p, base, j1, j2)
        if values[i] != want:
            errors.append(f"{m}:{labels} p={p} b0={base} ({j1},{j2}): {values[i]}, oracle {want}")
    return errors
