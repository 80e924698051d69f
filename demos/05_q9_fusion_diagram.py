"""
The q = 9 fusion diagram, in full
=================================

At q = 9 the whole fission lattice can be displayed at once: the
cross-ratio scheme has 5 classes, the square-determinant subgroup splits
three of them in half, and the twisted group glues the halves back and
additionally merges the two non-square ratio classes.  The semilinear
group gives exactly the twisted scheme here.
"""

import numpy as np

from scheme_forge import build_ft, field, fusion_map, is_fusion, labeled_scheme

f = field(9)
g = f.element_text(f.primitive_element())
print(f"primitive element g = {g}")

ft = build_ft(f)
psl = labeled_scheme(f, "psl")
mq = labeled_scheme(f, "m")
pgm = labeled_scheme(f, "pgammal")

print("\ntop row    (cross-ratio):", "  ".join(l.text(f) for l in ft.labels[1:]))
print("middle row (square dets):", "  ".join(l.text(f) for l in psl.labels[1:]))
print("bottom row (twisted)    :", "  ".join(l.text(f) for l in mq.labels[1:]))

part = fusion_map(ft, psl)
print("\nsplitting pattern of the middle row over the top row:")
for k in range(1, ft.d + 1):
    halves = [psl.labels[a].text(f) for a in range(psl.d + 1) if part[a] == k]
    print(f"  {ft.labels[k].text(f):6s} <- {', '.join(halves)}")

part2 = fusion_map(mq, psl)
print("\nfusing pattern of the bottom row over the middle row:")
for k in range(1, mq.d + 1):
    halves = [psl.labels[a].text(f) for a in range(psl.d + 1) if part2[a] == k]
    print(f"  {mq.labels[k].text(f):8s} <- {', '.join(halves)}")

print("\nverified fusion edges:")
print("  cross-ratio over square-det:", is_fusion(ft, psl, fusion_map(ft, psl)))
print("  twisted over square-det:    ", is_fusion(mq, psl, fusion_map(mq, psl)))
print("  twisted over cross-ratio:   ", is_fusion(mq, ft, fusion_map(mq, ft)))
print("  semilinear scheme == twisted scheme:",
      bool(np.array_equal(pgm.relation_matrix, mq.relation_matrix)))
