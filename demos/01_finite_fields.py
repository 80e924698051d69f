"""
Exact arithmetic in small odd fields
====================================

Every construction downstream runs on table-backed GF(p^m) arithmetic
with elements encoded as ints, written out by `element_text`.  This
script walks through the basics: the built-in moduli, square classes,
and the Frobenius automorphisms.
"""

from scheme_forge import CONWAY_POLYNOMIALS, field

f9 = field(9)
print(f9, "with modulus", f9.modulus, "(coefficients, low degree first)")

x = 3  # the code of x: digits (0, 1) in base p = 3, low degree first
print("x * x =", f9.element_text(f9.mul(x, x)), "   (reduction by the modulus)")
print("x has multiplicative order", next(k for k in range(1, 9) if f9.pow(x, k) == 1))
print("the canonical primitive element is", f9.element_text(f9.primitive_element()))

print("\nSquare classes of GF(9):")
squares = [v for v in range(1, 9) if f9.is_square(v)]
print("  squares: [" + ", ".join(f9.element_text(v) for v in squares) + "]")
print("  -1 is a square?", f9.is_square(f9.neg(1)), "(q = 1 mod 4 forces yes)")

print("\nThe involutory automorphism of GF(9): a -> a^3")
for v in range(9):
    if f9.sigma(v) == v:
        print("  fixes", f9.element_text(v))

print("\nIs 2 a square?  (the classical criterion, checked per field)")
for q in (5, 7, 9, 13, 25, 49):
    f = field(q)
    print(f"  GF({q}): {f.is_square(f.add(1, 1))}")

print("\nBuilt-in moduli:", sorted(CONWAY_POLYNOMIALS))
