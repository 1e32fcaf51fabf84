"""
The three-parameter binomial polynomial family
==============================================

f(a,b,c) = sum_i C(a,i) C(b,c-i) t^i over F_p.  Every specialized matrix
entry is one of these up to sign and a power of t, so their structure
(degree, root orders at 0 and 1, separability) drives everything else.
"""

from cyclocover.fabc import (
    Dpk,
    FabcParams,
    coprime_shift,
    fabc,
    fabc_profile,
    separable_away_from_01,
    strip,
)
from cyclocover.ff import FpUniPoly, PrimeField, binomial_mod_p

p = 13
params = FabcParams(5, 7, 9, p)
f = fabc(params)
print(f"f(5,7,9) over F_{p}:", f.to_text())

# degree and the root orders at t=0 and t=1 have closed forms in the
# parameters; the constructed polynomial agrees
deg, vt, vt1 = fabc_profile(params)
print(f"  degree {deg}, order {vt} at t=0, order {vt1} at t=1")
print("  matches the polynomial:", (f.degree, f.valuation_at(0), f.valuation_at(1)) == (deg, vt, vt1))

# Pascal-style recurrences tie neighbouring parameters together
g1 = fabc(FabcParams(5, 7, 8, p)) + fabc(FabcParams(5, 7, 9, p))
g2 = fabc(FabcParams(5, 8, 9, p))
print("  f(a,b,c) + f(a,b,c-1) = f(a,b+1,c):", g1 == g2)

# stripping the forced roots leaves the arithmetically active core
red = strip(params)
print("\nstripped form: sign", red.sign, " t^", red.t_power, " (t-1)^", red.t1_power)
print("  core:", fabc(red.reduced).to_text())

# away from 0 and 1 the roots are simple
print("  separable away from 0,1:", separable_away_from_01(f))

# under the standard window the two chain factors stay coprime
ok, g = coprime_shift(FabcParams(3, 8, 6, 13))
print("\ncoprime shift at (3,8,6):", ok, " gcd:", g.to_text())

# divided-power derivative: t^n -> C(n, p^k) t^(n - p^k), binomial mod p
field = PrimeField(5)
h = FpUniPoly(field, [1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 3])  # 1 + 2 t^5 + 3 t^10
print("\nD_5 of 1 + 2t^5 + 3t^10 over F_5:", Dpk(h, 1).to_text())

# binomials mod p via base-p digits: digitwise products, zero as soon
# as any digit of the bottom exceeds the top
print("\nC(100, 28) mod 13 =", binomial_mod_p(100, 28, 13))
print("C(100, 37) mod 13 =", binomial_mod_p(100, 37, 13))
