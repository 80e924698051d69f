"""Field arithmetic: exhaustive axioms for small q, square-class
structure, the Frobenius group, the built-in modulus table, and the
modulus check against every monic modulus of small degree."""

import itertools

import numpy as np
import pytest

import oracles as orc
from scheme_forge.gf import CONWAY_POLYNOMIALS, GF, NoInvolutionError, field

SMALL_Q = [5, 7, 9, 13, 25, 27, 49]


def test_gf7_basics():
    f = field(7)
    assert f.add(3, 5) == 1
    assert f.inv(3) == 5
    assert f.mul(3, 5) == 1


def test_gf9_conway_arithmetic():
    f = field(9)
    x, one_plus_2x, one_plus_x = 3, 7, 4  # codes: digits low degree first, base 3
    assert [f.coeffs(v) for v in (x, one_plus_2x, one_plus_x)] == [(0, 1), (1, 2), (1, 1)]
    assert f.add(x, one_plus_2x) == 1        # x + (2x+1) = 1
    assert f.mul(x, x) == one_plus_x         # x^2 = x + 1 under x^2+2x+2
    for g in range(9):
        assert f.add(0, g) == g


@pytest.mark.parametrize("q", SMALL_Q)
def test_lagrange(q):
    f = field(q)
    for v in range(1, q):
        assert orc.power(f, v, q - 1) == 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = field(q)
    a = np.arange(q)
    # commutativity and identity from the tables
    assert np.array_equal(f.ADD, f.ADD.T)
    assert np.array_equal(f.MUL, f.MUL.T)
    assert np.array_equal(f.ADD[0], a)
    assert np.array_equal(f.MUL[1], a)
    # associativity and distributivity over all q^3 triples
    A, B, C = a[:, None, None], a[None, :, None], a[None, None, :]
    assert np.array_equal(f.ADD[f.ADD[A, B], C], f.ADD[A, f.ADD[B, C]])
    assert np.array_equal(f.MUL[f.MUL[A, B], C], f.MUL[A, f.MUL[B, C]])
    assert np.array_equal(f.MUL[A, f.ADD[B, C]], f.ADD[f.MUL[A, B], f.MUL[A, C]])
    # additive and multiplicative inverses
    assert all(f.add(v, f.neg(v)) == 0 for v in range(q))
    assert all(f.mul(v, f.inv(v)) == 1 for v in range(1, q))


@pytest.mark.parametrize("q", SMALL_Q)
def test_square_class_structure(q):
    f = field(q)
    squares = [v for v in range(1, q) if f.is_square(v)]
    assert len(squares) == (q - 1) // 2
    for v in range(1, q):
        assert f.is_square(f.mul(v, v))
    # multiplicativity: square(xy) = square(x) XNOR square(y)
    for x in range(1, q):
        for y in range(1, q):
            assert f.is_square(f.mul(x, y)) == (f.is_square(x) == f.is_square(y))


def test_is_square_examples():
    f9 = field(9)
    assert f9.is_square(f9.neg(1))           # q = 1 mod 4 forces -1 square
    f7 = field(7)
    # oracle: 3^((7-1)/2) = 27 = 6 = -1 mod 7
    assert pow(3, 3, 7) == 7 - 1
    assert not f7.is_square(3)


@pytest.mark.parametrize("q", SMALL_Q + [81, 121, 125, 169])
def test_legendre_criterion_for_two(q):
    f = field(q)
    predicted = ((-1) ** ((f.p * f.p - 1) // 8)) ** f.m == 1
    assert f.is_square(2) == predicted  # code 2 is the element 2 of the prime field


@pytest.mark.parametrize("q", SMALL_Q)
def test_frobenius_is_automorphism(q):
    f = field(q)
    for j in range(f.m):
        fr = f.FROB[j]
        assert fr.tolist() == [orc.power(f, v, f.p**j) for v in range(q)]  # x -> x^(p^j)
        assert np.array_equal(fr[f.ADD], f.ADD[fr[:, None], fr[None, :]])
        assert np.array_equal(fr[f.MUL], f.MUL[fr[:, None], fr[None, :]])
    # the automorphism group has order m: j-th power of Frobenius is
    # identity exactly when j = 0
    for j in range(1, f.m):
        assert not np.array_equal(f.FROB[j], f.FROB[0])


def test_involution():
    f = field(9)
    for v in range(9):
        assert f.sigma(f.sigma(v)) == v
        assert f.sigma(v) == orc.power(f, v, 3)
    assert sum(1 for v in range(9) if f.sigma(v) == v) == 3  # the prime subfield
    with pytest.raises(NoInvolutionError):
        field(7).sigma(1)
    with pytest.raises(NoInvolutionError):
        field(27).sigma(1)


def test_primitive_element_gf7():
    f = field(7)
    # oracle: 2 has order 3, so 3 is the least generator
    assert sorted({pow(2, k, 7) for k in range(1, 7)}) == [1, 2, 4]
    assert len({pow(3, k, 7) for k in range(1, 7)}) == 6
    assert f.primitive_element() == 3


def test_primitive_element_gf9_is_x():
    f = field(9)
    x = 3  # digits (0, 1)
    # oracle: direct powering, order must be exactly 8
    acc, order = x, 1
    while acc != 1:
        acc = f.mul(acc, x)
        order += 1
    assert order == 8
    assert f.primitive_element() == x


@pytest.mark.parametrize("q", SMALL_Q + [81, 121, 125, 169])
def test_fixed_nonsquare(q):
    f = field(q)
    assert not f.is_square(f.fixed_nonsquare())
    assert f.fixed_nonsquare() == f.primitive_element()


def test_conway_table_entries_are_primitive():
    for q, mod in CONWAY_POLYNOMIALS.items():
        f = field(q)
        assert f.modulus == mod
        x = f.p  # digits (0, 1, 0, ...)
        acc, order = x, 1
        while acc != 1:
            acc = f.mul(acc, x)
            order += 1
        assert order == q - 1, f"x is not primitive mod the stored polynomial for q={q}"


def test_canonical_order_is_low_degree_lex():
    f = field(9)
    ordered = [f.coeffs(v) for v in f.BY_RANK]
    assert ordered == sorted(ordered)


def test_custom_modulus():
    f = field(9, modulus=(1, 0, 1))  # x^2 + 1, irreducible mod 3
    assert f.q == 9
    x = f.p  # digits (0, 1)
    assert f.mul(x, x) == f.neg(1)
    with pytest.raises(ValueError):
        field(9, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2) mod 3
    with pytest.raises(ValueError):
        field(9, modulus=(1, 1))  # wrong degree


def _irreducible_count(p, m):
    """N(p, m) = (1/m) sum over d | m of mu(d) p^(m/d), the number of
    monic irreducible polynomials of degree m over GF(p)."""

    def mu(d):
        sign = 1
        for r in range(2, d + 1):
            if d % r == 0:
                d //= r
                if d % r == 0:
                    return 0
                sign = -sign
        return sign

    return sum(mu(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize(
    "q, p, m, irreducible, rootless_reducible",
    [
        (9, 3, 2, 3, 0),
        (25, 5, 2, 10, 0),
        (27, 3, 3, 8, 0),
        (49, 7, 2, 21, 0),
        (81, 3, 4, 18, 6),
        (125, 5, 3, 40, 0),
    ],
)
def test_modulus_check_decides_irreducibility_exactly(q, p, m, irreducible, rootless_reducible):
    """The zero-divisor check on MUL accepts exactly the N(p, m)
    irreducible monic moduli, each giving a field, and rejects the rest,
    among them the reducible moduli with no root in GF(p): at q = 81 the
    six quartics that are products of two irreducible quadratics, such
    as (x^2 + 1)^2.  `GF` is called directly, so the `field` cache is
    left as it was."""
    assert _irreducible_count(p, m) == irreducible
    accepted, rootless_rejected = 0, 0
    for low in itertools.product(range(p), repeat=m):
        modulus = low + (1,)
        try:
            f = GF(q, modulus)
        except ValueError as err:
            assert str(err) == f"modulus {modulus} is reducible over GF({p})"
            values = (sum(c * a**i for i, c in enumerate(modulus)) % p for a in range(p))
            rootless_rejected += all(values)
            continue
        accepted += 1
        nonzero = np.arange(1, q)
        assert np.all(f.MUL[nonzero, f.INV[nonzero]] == 1)
    assert accepted == irreducible
    assert rootless_rejected == rootless_reducible


def test_rejects_bad_q():
    for q in (4, 8, 16, 64):  # even
        with pytest.raises(ValueError):
            GF(q)
    with pytest.raises(ValueError):
        GF(3)  # too small
    with pytest.raises(ValueError):
        GF(12)  # not a prime power


def test_int_api_rejects_zero():
    f7 = field(7)
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    with pytest.raises(ValueError):
        f7.is_square(0)


def test_serialization_roundtrip():
    f = field(49)
    for v in range(49):
        assert sum(c * f.p**i for i, c in enumerate(f.coeffs(v))) == v
