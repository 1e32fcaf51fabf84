"""
Finding non-generic curves inside a family
==========================================

Walk from a single chain polynomial to a certified extension-field
point, then to whole-family reports at one prime and across many.
"""

import time

from cyclocover.ff import factor
from cyclocover.hassewitt import OrbitContext, h1, nonordinary_witness, witness_count
from cyclocover.monodromy import MonodromyDatum
from cyclocover.strata import census, prime_survey, supersingular_minus_one

d7 = MonodromyDatum(7, 4, (3, 1, 1, 2))

# chain polynomials at p = 29: one per base character with signature 1
phi2 = h1(OrbitContext(d7, 29, 5))
phi3 = h1(OrbitContext(d7, 29, 4))
print("p = 29 chain polynomials:")
for name, poly in (("phi_2", phi2), ("phi_3", phi3)):
    fac = factor(poly, seed=1)
    pieces = " ".join(f"({g.to_text()})^{e}" if e > 1 else f"({g.to_text()})" for g, e in fac.factors)
    print(f"  {name} = {fac.unit} * {pieces}")
print("  gcd(phi_2, phi_3) =", phi2.gcd(phi3).to_text())

# a root of the chain polynomial off {0, 1} is a curve whose p-rank
# drops; dmax caps the degree of the extension we are willing to build
w = nonordinary_witness(OrbitContext(d7, 29, 5), dmax=2, seed=7)
print("\nwitness at p=29: degree", w.degree, "certificate", w.certificate.to_text())
print("  distinct witnesses available:", witness_count(OrbitContext(d7, 29, 5)))

# at p = 113 the two chain polynomials share a factor, so one parameter
# value degenerates both characters at once
phi2 = h1(OrbitContext(d7, 113, 5))
phi3 = h1(OrbitContext(d7, 113, 4))
print("\np = 113 common factor:", phi2.gcd(phi3).to_text())

# census: which strata are nonempty at a single prime
for p in (13, 29):
    rep = census(d7, p, allow_small=True)
    row = ", ".join(
        f"{s.label.kind}{'+' if s.nonempty else '-'}" for s in rep.strata
    )
    print(f"\ncensus p={p} (class {p % 7}): {row}")
    for s in rep.strata:
        if s.nonempty and s.certificate is not None:
            print(f"    {s.label.kind} certificate: {s.certificate}")

# survey: the same census across the first primes of one residue class
t0 = time.time()
sv = prime_survey(d7, 1, 12, allow_small=True)
hits = sv.nonempty_count("Basic")
print(f"\nsurvey of first 12 primes = 1 mod 7: basic stratum nonempty at "
      f"{hits}/12 ({time.time() - t0:.1f}s)")
for rec in sv.records[:4]:
    marks = " ".join(f"{s['label']}{'+' if s['nonempty'] else '-'}" for s in rec["strata"])
    print(f"  p={rec['p']}: {marks}")

# for p = -1 mod 7 the curve at coordinate -1 always drops to slope 1/2
print("\ncoordinate -1 is supersingular at p = 13, 41, 83:",
      all(supersingular_minus_one(d7, p) for p in (13, 41, 83)))
