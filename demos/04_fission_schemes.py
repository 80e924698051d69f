"""
Fissioning the triangular scheme
================================

The triangular scheme on 2-subsets of PG(1,q) has two classes: touching
and disjoint.  Each group of the lattice refines it into an orbital
association scheme; the finer the group, the more classes.  The
fractional-linear scheme can be written down with no group theory at
all, purely from cross-ratio values, and the two constructions agree.
"""

from scheme_forge import (
    Plane,
    build_ft,
    field,
    group_orbital_scheme,
    groups,
    labeled_scheme,
    pairs_domain,
    partition_bijection,
    report_theorem,
    triangular_scheme,
)

for q in (5, 9, 13, 25):
    f = field(q)
    tri = triangular_scheme(pairs_domain(Plane(f)))
    ft = build_ft(f)
    psl = labeled_scheme(f, "psl")
    pgm = labeled_scheme(f, "pgammal")
    row = [f"T: {tri.d}", f"cross-ratio: {ft.d}", f"psl: {psl.d}", f"semilinear: {pgm.d}"]
    if "m" in groups(f):
        row.insert(3, f"twisted: {labeled_scheme(f, 'm').d}")
    print(f"q={q:3d}  classes  " + "   ".join(row))
    assert report_theorem("psl-class-count", psl).passed

print("\ncross-ratio construction vs orbital construction (q <= 13):")
for q in (5, 7, 9, 11, 13):
    f = field(q)
    orbital = group_orbital_scheme(f, "pgl", pairs_domain(Plane(f)))
    same = partition_bijection(build_ft(f), orbital) is not None
    print(f"  q={q}: identical up to a unique relabeling -> {same}")

f = field(9)
ft = build_ft(f)
print("\nq=9 cross-ratio classes, by label:")
for k, lab in enumerate(ft.labels):
    print(f"  class {k}: {lab.text(f):8s} valency {int(ft.valencies[k]):3d}")
