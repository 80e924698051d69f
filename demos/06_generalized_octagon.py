"""
A generalized octagon hiding in 45 points
=========================================

The twisted-group scheme at q = 9 is symmetric and distance-regular: its
harmonic relation generates a graph on 45 vertices with intersection
array {4,2,2,2; 1,1,1,2} - the collinearity structure of the generalized
octagon of order (2,1).  For larger (even-power) q the scheme stops
being symmetric, and past q = 25 even commutativity fails.
"""

from scheme_forge import field, labeled_scheme, p_polynomial_orderings

S9 = labeled_scheme(field(9), "m")
print(f"q=9: n = {S9.n}, classes = {S9.d}, symmetric = {S9.is_symmetric()}")
orders = p_polynomial_orderings(S9)
for o in orders:
    lab = S9.labels[o["relation"]].text(S9.domain.field)
    b, c = o["intersection_array"]
    print(f"  distance-regular via {lab}: intersection array {{{b}; {c}}}")

print("\nthe survey over even powers of odd primes:")
for q in (9, 25, 49, 81):
    S = labeled_scheme(field(q), "m")
    print(
        f"  q={q:3d}: classes {S.d:3d}  symmetric {str(S.is_symmetric()):5s}  "
        f"commutative {S.is_commutative()}"
    )
