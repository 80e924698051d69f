"""
The conic, its polarity, and the three kinds of lines
=====================================================

PG(2,q) carries the quadratic form Q = x1^2 - x0*x2, whose zero set is a
conic of q+1 points parameterized by the projective line.  Lines meet it
in 2, 1 or 0 points (secant / tangent / exterior), and the polarity of
the bilinear form swaps each line class with a point class.
"""

from collections import Counter

from scheme_forge import Plane, field
from scheme_forge.geometry import LINE_CLASSES

q = 9
plane = Plane(field(q))
f = plane.field
pos = f.RANK  # PG(1,q) position of each field code; position q is oo

conic = plane.conic_points()
print(f"conic in PG(2,{q}): {len(conic)} points, first few:", conic[:4])

counts = Counter(LINE_CLASSES[h] for h in plane.conic_counts(plane.all_lines()))
print(f"line census: {dict(counts)}")
print(f"  expected: secant q(q+1)/2 = {q*(q+1)//2}, tangent q+1 = {q+1}, "
      f"exterior q(q-1)/2 = {q*(q-1)//2}")

l = plane.secant_lines([(pos[0], q)])
print("\nthe secant through the parameter-0 and parameter-oo conic points:", tuple(l[0].tolist()))
print("its pole:", tuple(plane.poles(l)[0].tolist()))

print("\npoles of secants are 'square type': Q evaluates to a nonzero square")
sample = plane.secant_lines([(pos[1], pos[v]) for v in (0, 2, 5)])
for P in map(tuple, plane.poles(sample).tolist()):
    qv = plane.quadratic_form(P)
    print(f"  pole {P}: Q = {f.element_text(qv)}, square: {f.is_square(qv)}")

# cr(x, oo; z, w) = (x - z)(oo - w) / ((x - w)(oo - z)), and the factors at
# oo cancel in the limit, leaving (x - z) / (x - w), here computed on codes
g = f.primitive_element()
r = f.div(f.sub(0, 1), f.sub(0, g))
print("\ncross-ratio cr(0, oo; 1, g) =", f.element_text(r), " (= 1/g by the limit rules)")
