"""Exact arithmetic in GF(p^m) for odd prime powers q = p^m.

Elements are stored as plain ints in 0..q-1, encoding the little-endian
base-p digit vector of a polynomial residue: the int v corresponds to the
coefficient vector (c_0, c_1, ..., c_{m-1}) with v = sum c_i * p^i.  All
arithmetic is table-backed (numpy arrays of shape (q,) or (q, q)), so the
bulk engine paths can apply field operations to whole arrays with fancy
indexing.  A thin ``FieldElement`` wrapper provides operator overloading
and field-mismatch checking for the public API.

The canonical total order on elements is lexicographic on the coefficient
vector, low degree first.  For prime fields this is the usual integer
order.  Deterministic choices downstream (orbit representatives, relation
numbering, "least of {r, 1/r}") all refer to this order.
"""

import functools

import numpy as np

# Conway polynomials, little-endian monic coefficient tuples.  Each is
# irreducible with x primitive; verified again by the test suite.
CONWAY_POLYNOMIALS = {
    9: (2, 2, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    49: (3, 6, 1),
    81: (2, 0, 0, 2, 1),
    121: (2, 7, 1),
    125: (3, 3, 0, 1),
    169: (2, 12, 1),
}


class FieldMismatchError(ValueError):
    """Raised when elements of different field instances are combined."""


class NoInvolutionError(ValueError):
    """Raised when the involutory automorphism is requested but m is odd."""


def _factor_prime_power(q):
    """Return (p, m) with q = p^m and p prime, or raise ValueError."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a, b, mod, p):
    """Product of digit lists a, b reduced mod the monic polynomial mod."""
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for k in range(len(res) - 1, m - 1, -1):
        lead = res[k]
        if lead:
            res[k] = 0
            for t in range(m + 1):
                res[k - m + t] = (res[k - m + t] - lead * mod[t]) % p
    res = res[:m]
    res += [0] * (m - len(res))
    return res


def _poly_gcd_is_constant(a, b, p):
    """True iff gcd(a, b) over GF(p) has degree 0."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for t in range(len(b)):
                a[off + t] = (a[off + t] - c * b[t]) % p
            _poly_trim(a)
        a, b = b, a
    return len(a) == 1


def _is_irreducible(mod, p):
    """Check irreducibility of the monic polynomial mod over GF(p).

    A reducible monic polynomial of degree m has an irreducible factor of
    degree <= m/2, and the product of all monic irreducibles of degree
    dividing i is x^(p^i) - x; so mod is irreducible iff
    gcd(x^(p^i) - x, mod) is constant for 1 <= i <= m/2.
    """
    m = len(mod) - 1
    if m == 1:
        return True
    t = [0, 1]
    for i in range(1, m // 2 + 1):
        # t = t^p mod `mod`, by square and multiply
        r, b, e = [1], list(t), p
        while e:
            if e & 1:
                r = _poly_mulmod(r, b, mod, p)
            b = _poly_mulmod(b, b, mod, p)
            e >>= 1
        t = r
        d = list(t) + [0] * (m - len(t))
        d[1] = (d[1] - 1) % p
        if not _poly_gcd_is_constant(d, mod, p):
            return False
    return True


class GF:
    """The finite field GF(q) for an odd prime power q >= 5.

    Use the module-level factory :func:`field` to get cached instances.
    The int-level methods (``add``, ``mul``, ...) form the fast engine
    API; ``__call__`` wraps ints or coefficient vectors as FieldElement.
    """

    def __init__(self, q, modulus=None):
        p, m = _factor_prime_power(q)
        if p == 2:
            raise ValueError("characteristic 2 is not supported (q must be odd)")
        if q < 5:
            raise ValueError("q must be at least 5")
        if m == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        else:
            if modulus is None:
                if q not in CONWAY_POLYNOMIALS:
                    raise ValueError(
                        f"no built-in modulus for q={q}; supply a monic "
                        f"irreducible degree-{m} polynomial over GF({p})"
                    )
                modulus = CONWAY_POLYNOMIALS[q]
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
            self.modulus = modulus
        self.p = p
        self.m = m
        self.q = q
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        powers = p ** np.arange(m, dtype=np.int64)
        digits = (np.arange(q, dtype=np.int64)[:, None] // powers) % p
        self._digits = digits.astype(np.int32)

        self.ADD = ((digits[:, None, :] + digits[None, :, :]) % p @ powers).astype(np.int32)
        self.NEG = (((-digits) % p) @ powers).astype(np.int32)

        if m == 1:
            self.MUL = (np.arange(q, dtype=np.int64)[:, None] * np.arange(q, dtype=np.int64)[None, :] % p).astype(np.int32)
        else:
            # xred[k] = digits of x^k reduced mod the modulus, k < 2m-1
            xred = np.zeros((2 * m - 1, m), dtype=np.int64)
            cur = [1]
            for k in range(2 * m - 1):
                row = cur + [0] * (m - len(cur))
                xred[k] = row
                cur = _poly_mulmod(cur, [0, 1], list(self.modulus), p)
            red3 = np.zeros((m, m, m), dtype=np.int64)
            for i in range(m):
                for j in range(m):
                    red3[i, j] = xred[i + j]
            prod = np.einsum("xi,yj,ijk->xyk", digits, digits, red3) % p
            self.MUL = (prod @ powers).astype(np.int32)

        inv = np.zeros(q, dtype=np.int32)
        inv[1:] = np.argmax(self.MUL[1:, :] == 1, axis=1)
        self.INV = inv

        frob = np.zeros((m, q), dtype=np.int32)
        frob[0] = np.arange(q)
        if m > 1:
            step = np.array([self._pow_int(x, p) for x in range(q)], dtype=np.int32)
            for j in range(1, m):
                frob[j] = step[frob[j - 1]]
        self.FROB = frob

        half = (q - 1) // 2
        sq = np.zeros(q, dtype=bool)
        for x in range(1, q):
            sq[x] = self._pow_int(x, half) == 1
        self.SQUARE = sq

        # canonical order: lexicographic on (c_0, ..., c_{m-1})
        order = np.lexsort(tuple(digits[:, k] for k in reversed(range(m))))
        rank = np.empty(q, dtype=np.int32)
        rank[order] = np.arange(q)
        self.RANK = rank
        self.BY_RANK = order.astype(np.int32)

        prim = None
        for v in self.BY_RANK:
            v = int(v)
            if v == 0:
                continue
            if self._mult_order(v) == q - 1:
                prim = v
                break
        self._primitive = prim

    def _pow_int(self, x, n):
        if x == 0:
            if n <= 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0
        if n < 0:
            x = int(self.INV[x]) if hasattr(self, "INV") else self._pow_int(x, self.q - 2)
            n = -n
        r = 1
        b = x
        mul = self.MUL
        while n:
            if n & 1:
                r = int(mul[r, b])
            b = int(mul[b, b])
            n >>= 1
        return r

    def _mult_order(self, x):
        r = x
        n = 1
        while r != 1:
            r = int(self.MUL[r, x])
            n += 1
        return n

    # -- int-level API ------------------------------------------------------

    def add(self, x, y):
        return int(self.ADD[x, y])

    def sub(self, x, y):
        return int(self.ADD[x, self.NEG[y]])

    def neg(self, x):
        return int(self.NEG[x])

    def mul(self, x, y):
        return int(self.MUL[x, y])

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.INV[x])

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def pow(self, x, n):
        return self._pow_int(x, n)

    def frobenius(self, x, j):
        if not 0 <= j < self.m:
            raise ValueError(f"automorphism exponent must be in 0..{self.m - 1}")
        return int(self.FROB[j, x])

    def sigma(self, x):
        """The involutory automorphism x -> x^(p^(m/2)); m must be even."""
        if self.m % 2 != 0:
            raise NoInvolutionError(f"Aut(GF({self.q})) has odd order {self.m}")
        return int(self.FROB[self.m // 2, x])

    def is_square(self, x):
        if x == 0:
            raise ValueError("0 belongs to neither square class")
        return bool(self.SQUARE[x])

    def primitive_element(self):
        return self._primitive

    def fixed_nonsquare(self):
        # a generator of the cyclic group of even order q-1 is a non-square
        return self._primitive

    def rank(self, x):
        return int(self.RANK[x])

    def elements(self):
        """All elements in canonical order."""
        return [int(v) for v in self.BY_RANK]

    def coeffs(self, x):
        return tuple(int(c) for c in self._digits[x])

    def from_coeffs(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError(f"at most {self.m} coefficients expected")
        coeffs += [0] * (self.m - len(coeffs))
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (int(c) % self.p)
        return v

    # -- element wrapper ----------------------------------------------------

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatchError("element belongs to a different field")
            return value
        if isinstance(value, (list, tuple)):
            return FieldElement(self, self.from_coeffs(value))
        return FieldElement(self, int(value) % self.p if self.m == 1 else self._lift_int(value))

    def _lift_int(self, value):
        # ints are read as prime-subfield values; full encodings must use
        # coefficient vectors or from_coeffs to avoid ambiguity
        return int(value) % self.p

    def element_from_code(self, v):
        """Wrap a raw table code 0..q-1 (engine representation)."""
        v = int(v)
        if not 0 <= v < self.q:
            raise ValueError("code out of range")
        return FieldElement(self, v)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}={self.p}^{self.m})"

    def __reduce__(self):
        return (field, (self.q, self.modulus))


class FieldElement:
    """An element of a GF instance, supporting field operator syntax."""

    __slots__ = ("field", "val")

    def __init__(self, fld, val):
        self.field = fld
        self.val = int(val)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatchError("elements from different fields")
            return other.val
        if isinstance(other, int):
            return self.field(other).val
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.ADD[self.val, v])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.NEG[self.val])

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.val, v))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.MUL[self.val, v])

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.val, v))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.inv(self.val)) * other

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.val, n))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == self.field(other).val
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __lt__(self, other):
        v = self._coerce(other)
        return self.field.RANK[self.val] < self.field.RANK[v]

    def __le__(self, other):
        v = self._coerce(other)
        return self.field.RANK[self.val] <= self.field.RANK[v]

    def __bool__(self):
        return self.val != 0

    @property
    def coeffs(self):
        return self.field.coeffs(self.val)

    def is_square(self):
        return self.field.is_square(self.val)

    def frobenius(self, j):
        return FieldElement(self.field, self.field.frobenius(self.val, j))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.val))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.val)
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}{xi}")
        return " + ".join(terms) if terms else "0"


@functools.lru_cache(maxsize=None)
def _field_cached(q, modulus):
    return GF(q, modulus=modulus)


def field(q, modulus=None):
    """Cached GF(q) factory; `modulus` overrides the built-in table."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _field_cached(int(q), modulus)
