"""
Four transitive groups on the projective line
=============================================

Between the symmetric group and the identity sit four groups acting on
PG(1,q): the full semilinear group, the fractional-linear maps, their
square-determinant subgroup, and (for q an even power of an odd prime)
the twisted sharply 3-transitive group that replaces non-square
determinants with a Frobenius twist.  A map is a row (a, b, c, d, j),
t -> (a t^(p^j) + b) / (c t^(p^j) + d).
"""

from scheme_forge import field, generators, group_order, in_group, point_perms


def permutation_group(gens):
    """Every element of the group that the permutation rows `gens`
    generate, as tuples: products with the generators until none is new."""
    elements, frontier = set(), [tuple(range(gens.shape[1]))]
    while frontier:
        elements.update(frontier)
        frontier = list({tuple(s[list(h)].tolist()) for s in gens for h in frontier} - elements)
    return elements


f = field(9)
print("over GF(9):")
for gid in ("pgammal", "pgl", "m", "psl"):
    print(f"  {gid:8s} order {group_order(f, gid):5d}  "
          f"generators: {len(generators(f, gid))}")

z = f.fixed_nonsquare()
print("\nmembership of two scaling maps (z a non-square):")
plain = (z, 0, 0, 1, 0)     # t -> z t
twist = (z, 0, 0, 1, 1)     # t -> z t^sigma
for g, name in ((plain, "t -> z t"), (twist, "t -> z t^sigma")):
    verdict = {gid: bool(in_group(f, g, gid)[0]) for gid in ("pgl", "psl", "m", "pgammal")}
    print(f"  {name:16s} {verdict}")

groups = {gid: permutation_group(point_perms(f, generators(f, gid))) for gid in ("pgl", "psl", "m")}

print("\nsharp 3-transitivity: each ordered triple is reached exactly once")
for gid in ("pgl", "m"):
    served = {}
    for p in groups[gid]:
        key = (p[0], p[f.RANK[1]], p[f.q])  # the images of 0, 1 and oo
        served[key] = served.get(key, 0) + 1
    print(f"  {gid}: {len(served)} triples, multiplicities {set(served.values())}")

pgl, m, psl = groups["pgl"], groups["m"], groups["psl"]
print("\nas permutation sets: |pgl & m| =", len(pgl & m), "= |psl| =", len(psl))
