"""
Newton polygons across the residue classes
==========================================

For a fixed family the generic (mu-ordinary) polygon and the lowest
(basic) polygon depend only on p mod m.  Both are computed exactly as
lists of (slope numerator, denominator, multiplicity).
"""

from cyclocover.monodromy import MonodromyDatum, clutch
from cyclocover.strata import (
    basic_family,
    mu_ordinary_family,
    mu_ordinary_orbit,
    ord_polygon,
)
from cyclocover.monodromy import frobenius_orbits, signature

d7 = MonodromyDatum(7, 4, (3, 1, 1, 2))

# one representative prime per nonzero class mod 7
reps = {1: 29, 2: 23, 3: 3, 4: 11, 5: 5, 6: 13}
print("mu-ordinary and basic polygons, one prime per class:")
for cls in range(1, 7):
    p = reps[cls]
    top = mu_ordinary_family(d7, p)
    bot = basic_family(d7, p)
    tag = "  (same)" if top == bot else ""
    print(f"  p={p:3d} (class {cls}):  {top.to_text():24s} basic {bot.to_text()}{tag}")

# the polygon is assembled orbit by orbit
p = 13
sig = signature(d7)
print(f"\norbit contributions at p = {p}:")
for orb in frobenius_orbits(7, p, sig=sig):
    part = mu_ordinary_orbit(orb, sig)
    print(f"  orbit {list(orb.members)}: {part.to_text()}")

# clutching: the polygon of a glued datum is the sum of the pieces plus
# eps ordinary slopes
d_a = MonodromyDatum(7, 4, (3, 1, 1, 2))
d_b = MonodromyDatum(7, 4, (5, 3, 3, 3))
joined, eps = clutch(d_a, d_b)
direct = mu_ordinary_family(joined, 13)
composed = mu_ordinary_family(d_a, 13) + mu_ordinary_family(d_b, 13) + ord_polygon(eps)
print(f"\nclutch at p=13: direct {direct.to_text()}")
print(f"    composed      {composed.to_text()}  agree: {direct == composed}")

slopes = basic_family(d7, 13)
print("\nbasic polygon at p=13 is symmetric:", slopes.is_symmetric)
print("basic polygon at p=13 is all 1/2:", slopes.is_supersingular)
