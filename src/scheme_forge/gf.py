"""Exact arithmetic in GF(p^m) for odd prime powers q = p^m.

Elements are stored as plain ints in 0..q-1, encoding the little-endian
base-p digit vector of a polynomial residue: the int v corresponds to the
coefficient vector (c_0, c_1, ..., c_{m-1}) with v = sum c_i * p^i.  All
arithmetic is table-backed (numpy arrays of shape (q,) or (q, q)), so the
bulk engine paths can apply field operations to whole arrays with fancy
indexing.  Every field, prime fields included, is built by one path from
its modulus, which is accepted when the multiplication table it gives
has no zero divisors.  The int code is the only representation of an
element; `GF.element_text` writes one as a polynomial in x.

The canonical total order on elements is lexicographic on the coefficient
vector, low degree first.  For prime fields this is the usual integer
order.  Deterministic choices downstream (orbit representatives, relation
numbering, "least of {r, 1/r}") all refer to this order.
"""

import functools

import numpy as np

# Conway polynomials, little-endian monic coefficient tuples.  Each is
# irreducible (every build checks it) with x primitive (the test suite
# checks it).
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


# The largest q a field is built for.  `_build_tables` peaks at about
# 23 q^2 bytes of RSS (414 MB at q = 4093), so a larger q gets ValueError
# before any allocation, not the out-of-memory killer.
MAX_Q = 4096


class NoInvolutionError(ValueError):
    """Raised when the involutory automorphism is requested but m is odd."""


def _factor_prime_power(q):
    """Return (p, m) with q = p^m and p prime, or raise ValueError (at once above MAX_Q)."""
    if q > MAX_Q:
        raise ValueError(f"q = {q} is above {MAX_Q}: its field tables would take over 0.4 GB")
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


class GF:
    """The finite field GF(q) for an odd prime power q >= 5.

    Every field, prime or not, is built one way: from the reductions of
    x^0..x^(2m-2) modulo its modulus (``[1]`` when m = 1) come the
    multiplication table and then every other table.  GF(p)[x]/(f) is a
    field exactly when f is irreducible, and a finite commutative ring is
    a field exactly when it has no zero divisors, so a modulus is
    accepted when ``MUL[1:, 1:]`` holds no 0 (a factorization f = gh
    would give MUL[g, h] = 0).

    Use the module-level factory :func:`field` to get cached instances,
    and `memo` to keep what is built from one.  The int-level methods
    (``add``, ``mul``, ...) act on single codes, the tables on arrays of
    them.  A q above MAX_Q raises ValueError before anything is allocated.
    """

    def __init__(self, q, modulus=None):
        p, m = _factor_prime_power(q)
        if p == 2:
            raise ValueError("characteristic 2 is not supported (q must be odd)")
        if q < 5:
            raise ValueError("q must be at least 5")
        if m > 1:
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
        elif modulus is not None:
            raise ValueError("prime fields take no modulus")
        self.modulus = modulus
        self.p = p
        self.m = m
        self.q = q
        self._memo = {}
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        powers = p ** np.arange(m, dtype=np.int64)
        digits = (np.arange(q, dtype=np.int64)[:, None] // powers) % p
        self._digits = digits.astype(np.int32)

        # digits lie in [0, p), so a sum or a negation reduces by one
        # conditional subtract, not `% p`; einsum, not `@ powers`: a matmul
        # over the short digit axis is slower. The q^2 sum is freed before
        # the product below allocates its own: kept alive, it cost 3 ms at q = 1009
        total = digits[:, None, :] + digits[None, :, :]
        np.subtract(total, p, out=total, where=total >= p)
        self.ADD = np.einsum("xyk,k->xy", total, powers).astype(np.int32)
        del total
        neg = p - digits
        np.subtract(neg, p, out=neg, where=neg >= p)
        self.NEG = np.einsum("xk,k->x", neg, powers).astype(np.int32)

        # xred[k] = digits of x^k reduced mod the modulus, k < 2m-1: row k
        # is row k-1 moved up one degree, less its top digit times the modulus
        xred = np.zeros((2 * m - 1, m), dtype=np.int64)
        xred[0, 0] = 1
        for k in range(1, 2 * m - 1):
            xred[k, 1:] = xred[k - 1, :-1]
            xred[k] = (xred[k] - xred[k - 1, -1] * np.array(self.modulus[:m])) % p
        red3 = xred[np.add.outer(range(m), range(m))]
        prod = np.einsum("xi,yj,ijk->xyk", digits, digits, red3) % p
        self.MUL = np.einsum("xyk,k->xy", prod, powers).astype(np.int32)
        if not self.MUL[1:, 1:].all():
            raise ValueError(f"modulus {self.modulus} is reducible over GF({p})")

        self.INV = np.zeros(q, dtype=np.int32)
        self.INV[1:] = np.argmax(self.MUL[1:, :] == 1, axis=1)

        # FROB[j] = x^(p^j): row j is row j-1 raised to the p-th power
        self.FROB = np.zeros((m, q), dtype=np.int32)
        self.FROB[0] = np.arange(q)
        for j in range(1, m):
            self.FROB[j] = self.FROB[j - 1]
            for _ in range(p - 1):
                self.FROB[j] = self.MUL[self.FROB[j], self.FROB[j - 1]]

        # the nonzero squares are the diagonal of MUL, less its 0
        self.SQUARE = np.zeros(q, dtype=bool)
        self.SQUARE[self.MUL.diagonal()[1:]] = True

        # canonical order: lexicographic on (c_0, ..., c_{m-1})
        order = np.lexsort(tuple(digits[:, k] for k in reversed(range(m))))
        rank = np.empty(q, dtype=np.int32)
        rank[order] = np.arange(q)
        self.RANK = rank
        self.BY_RANK = order.astype(np.int32)

        # the least generator of GF(q)*, which is cyclic since the build
        # proved GF(q) a field; BY_RANK[0] is 0
        self._primitive = next(int(v) for v in self.BY_RANK[1:] if self._mult_order(int(v)) == q - 1)

    def _mult_order(self, x):
        r = x
        n = 1
        while r != 1:
            r = int(self.MUL[r, x])
            n += 1
        return n

    def memo(self, key, build):
        """build() at the first lookup of `key`, kept while the field lives,
        read-only if an array or a tuple of them; a raise keeps nothing."""
        if key not in self._memo:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

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

    def coeffs(self, x):
        return tuple(int(c) for c in self._digits[x])

    def element_text(self, x):
        """The element of code x as a polynomial in x, low degree first
        and zero terms left out: "0", "2", "x", "1 + 2x^2"."""
        terms = []
        for i, c in enumerate(self.coeffs(x)):
            if c and i == 0:
                terms.append(str(c))
            elif c:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}{xi}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        if self.modulus is None:
            return f"GF({self.q})"
        return f"GF({self.q}={self.p}^{self.m})"

    def __reduce__(self):
        return (field, (self.q, self.modulus))


@functools.lru_cache(maxsize=None)
def _field_cached(q, modulus):
    return GF(q, modulus=modulus)


def field(q, modulus=None):
    """Cached GF(q) factory; `modulus` overrides the built-in table.  It is
    read mod p, so the built-in modulus spelled out names the built-in field."""
    if modulus is not None:
        p, _ = _factor_prime_power(int(q))
        modulus = tuple(int(c) % p for c in modulus)
        modulus = None if modulus == CONWAY_POLYNOMIALS.get(int(q)) else modulus
    return _field_cached(int(q), modulus)
