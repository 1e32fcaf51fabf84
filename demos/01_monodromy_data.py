"""
Monodromy data for cyclic covers of the line
============================================

A cover y^m = prod (x - t_i)^{a_i} is pinned down by the degree m and
the branch labels a_i.  This walk-through builds a few data, reads off
their invariants, and glues two of them along a shared branch point.
"""

from cyclocover.monodromy import (
    MonodromyDatum,
    canonicalize,
    clutch,
    equivalent,
    frobenius_orbits,
    genus,
    parse_datum,
    signature,
)

# the degree-7 family with four branch points that most demos revisit
d7 = MonodromyDatum(7, 4, (3, 1, 1, 2))
print("datum:", d7.to_text())
print("genus:", genus(d7))
print("signature f(0..m-1):", signature(d7))

# the constructor checks the arithmetic constraints (labels nonzero mod
# m, summing to zero, generating the full group)
d5 = MonodromyDatum(5, 4, (1, 1, 1, 2))
print("\ndegree-5 companion:", d5.to_text(), "genus", genus(d5))

# the text form round-trips
again = parse_datum("7:4:3,1,1,2")
print("\nparsed equals original:", again == d7)

# scaling every label by a unit gives an isomorphic cover; the canonical
# representative is the smallest sorted unit multiple
scaled = MonodromyDatum(7, 4, (6, 2, 2, 4))  # every label doubled
print("canonical form of the doubled datum:", canonicalize(scaled).to_text())
print("equivalent to the original:", equivalent(scaled, d7))

# reduction mod p acts on characters through multiplication by p
for p in (13, 29, 2):
    orbits = frobenius_orbits(7, p, sig=signature(d7))
    desc = ", ".join(
        f"{list(o.members)} (gO={o.gO})" for o in orbits
    )
    print(f"\np = {p}: orbits of <p> on Z/7 - 0: {desc}")

# gluing the last branch point of one datum to the first of another
joined, eps = clutch(d7, MonodromyDatum(7, 4, (5, 3, 3, 3)))
print("\nclutched datum:", joined.to_text(), " extra ordinary part eps =", eps)
