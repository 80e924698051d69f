"""Semilinear fractional maps on PG(1,q) and the group lattice.

An element is a pair (A, j): a 2x2 invertible matrix over GF(q) up to
scalars together with an automorphism exponent j, acting as

    t  |->  (a * t^(p^j) + b) / (c * t^(p^j) + d)

with the usual limit rules at infinity.  The four groups of interest are
addressed by the ids "pgl", "psl", "m" (the twisted sharply 3-transitive
group, defined when m is even) and "pgammal":

    pgl      j = 0
    psl      j = 0 and det a square
    m        j = 0 with det square, or j = m/2 with det a non-square
    pgammal  everything

``rho`` embeds these maps into semilinear 3x3 transformations of PG(2,q)
that fix the conic of the geometry module, with (A, j) acting on points
as v |-> rho(A) . v^(p^j) and on lines through the inverse transpose.
"""

import numpy as np

from .geometry import INFINITY
from .gf import FieldElement

GROUPS = ("pgl", "psl", "m", "pgammal")


class InvalidGroupError(ValueError):
    """Raised for group ids that do not exist over the given field."""


def normalize_group(gid):
    g = str(gid).lower().replace("(", "").replace(")", "")
    g = "pgammal" if g == "pgamma" else g
    if g not in GROUPS:
        raise InvalidGroupError(f"unknown group {gid!r}; choose from {GROUPS}")
    return g


def check_group_defined(fld, gid):
    gid = normalize_group(gid)
    if gid == "m" and fld.m % 2 != 0:
        raise InvalidGroupError(
            f"M(q) needs q to be an even power of an odd prime; q={fld.q} has m={fld.m}"
        )
    return gid


class Moebius:
    """A semilinear fractional map, stored in canonical scalar form."""

    __slots__ = ("field", "a", "b", "c", "d", "j")

    def __init__(self, fld, a, b, c, d, j=0):
        def code(v):
            if isinstance(v, FieldElement):
                if v.field is not fld:
                    raise ValueError("matrix entry from a different field")
                return v.val
            v = int(v)
            if not 0 <= v < fld.q:
                raise ValueError("matrix entries are field codes 0..q-1 or FieldElement")
            return v

        a, b, c, d = code(a), code(b), code(c), code(d)
        det = fld.sub(fld.mul(a, d), fld.mul(b, c))
        if det == 0:
            raise ValueError("singular matrix does not define a map")
        if not 0 <= j < fld.m:
            raise ValueError(f"automorphism exponent must be in 0..{fld.m - 1}")
        for v in (a, b, c, d):
            if v != 0:
                s = fld.inv(v)
                break
        self.field = fld
        self.a = fld.mul(s, a)
        self.b = fld.mul(s, b)
        self.c = fld.mul(s, c)
        self.d = fld.mul(s, d)
        self.j = int(j)

    @classmethod
    def identity(cls, fld):
        return cls(fld, 1, 0, 0, 1, 0)

    @property
    def det(self):
        f = self.field
        return f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))

    @property
    def det_is_square(self):
        return self.field.is_square(self.det)

    def is_identity(self):
        return self.j == 0 and (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    # -- action ---------------------------------------------------------------

    def apply_pos(self, pos):
        """Act on a PG(1,q) position (engine path)."""
        f = self.field
        q = f.q
        if pos == q:
            if self.c == 0:
                return q
            return int(f.RANK[f.div(self.a, self.c)])
        x = f.frobenius(int(f.BY_RANK[pos]), self.j)
        den = f.add(f.mul(self.c, x), self.d)
        if den == 0:
            return q
        num = f.add(f.mul(self.a, x), self.b)
        return int(f.RANK[f.div(num, den)])

    def __call__(self, pt):
        """Act on a point given as FieldElement or INFINITY."""
        f = self.field
        if pt is INFINITY:
            if self.c == 0:
                return INFINITY
            return f.element_from_code(f.div(self.a, self.c))
        if isinstance(pt, FieldElement):
            x = f.frobenius(pt.val, self.j)
        else:
            x = f.frobenius(f(pt).val, self.j)
        den = f.add(f.mul(self.c, x), self.d)
        if den == 0:
            return INFINITY
        return f.element_from_code(f.div(f.add(f.mul(self.a, x), self.b), den))

    # -- group law ------------------------------------------------------------

    def __mul__(self, other):
        """Composition: (g * h)(x) = g(h(x))."""
        if not isinstance(other, Moebius):
            return NotImplemented
        f = self.field
        if other.field is not f:
            raise ValueError("maps over different fields")
        jf = self.j
        oa = f.frobenius(other.a, jf)
        ob = f.frobenius(other.b, jf)
        oc = f.frobenius(other.c, jf)
        od = f.frobenius(other.d, jf)
        return Moebius(
            f,
            f.add(f.mul(self.a, oa), f.mul(self.b, oc)),
            f.add(f.mul(self.a, ob), f.mul(self.b, od)),
            f.add(f.mul(self.c, oa), f.mul(self.d, oc)),
            f.add(f.mul(self.c, ob), f.mul(self.d, od)),
            (self.j + other.j) % f.m,
        )

    def inverse(self):
        f = self.field
        jinv = (-self.j) % f.m
        a = f.frobenius(self.d, jinv)
        b = f.frobenius(f.neg(self.b), jinv)
        c = f.frobenius(f.neg(self.c), jinv)
        d = f.frobenius(self.a, jinv)
        return Moebius(f, a, b, c, d, jinv)

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        return (
            self.field is other.field
            and self.j == other.j
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash((id(self.field), self.j, self.a, self.b, self.c, self.d))

    def key(self):
        """Deterministic sort key in the canonical element order."""
        r = self.field.RANK
        return (self.j, int(r[self.a]), int(r[self.b]), int(r[self.c]), int(r[self.d]))

    def __repr__(self):
        f = self.field
        lam = "t" if self.j == 0 else f"t^(p^{self.j})"

        def s(v):
            return repr(f.element_from_code(v))

        return f"({s(self.a)}*{lam} + {s(self.b)}) / ({s(self.c)}*{lam} + {s(self.d)})"

    # -- embedding into PGammaL(3,q) -------------------------------------------

    def rho(self):
        """The induced semilinear transformation of PG(2,q)."""
        return Semilinear3(self.field, _rho(self.field, coefficients([self]))[0], self.j)


class Semilinear3:
    """A 3x3 semilinear transformation of PG(2,q), up to scalars."""

    __slots__ = ("field", "matrix", "j")

    def __init__(self, fld, matrix, j=0):
        flat = [int(v) for row in matrix for v in row]
        for v in flat:
            if v != 0:
                s = fld.inv(v)
                break
        else:
            raise ValueError("zero matrix")
        flat = [fld.mul(s, v) for v in flat]
        self.field = fld
        self.matrix = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
        self.j = int(j)

    @property
    def det(self):
        f = self.field
        (a, b, c), (d, e, g), (h, i, k) = self.matrix
        t1 = f.mul(a, f.sub(f.mul(e, k), f.mul(g, i)))
        t2 = f.mul(b, f.sub(f.mul(d, k), f.mul(g, h)))
        t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
        return f.add(f.sub(t1, t2), t3)

    def cofactor_matrix(self):
        """The matrix of cofactors; its transpose is the adjugate."""
        cof = _cofactors(self.field, np.array([self.matrix], dtype=np.int32))[0]
        return tuple(tuple(int(v) for v in row) for row in cof)

    def _apply(self, mat, v, plane):
        f = self.field
        w = tuple(f.frobenius(int(c), self.j) for c in v)
        out = []
        for row in mat:
            s = 0
            for rc, wc in zip(row, w):
                s = f.add(s, f.mul(rc, wc))
            out.append(s)
        return plane.normalize(out)

    def apply_point(self, P, plane):
        return self._apply(self.matrix, P, plane)

    def apply_line(self, l, plane):
        """Image of a line; dual coordinates move by the inverse transpose."""
        return self._apply(self.cofactor_matrix(), l, plane)

    def __eq__(self, other):
        if not isinstance(other, Semilinear3):
            return NotImplemented
        return self.field is other.field and self.j == other.j and self.matrix == other.matrix

    def __hash__(self):
        return hash((id(self.field), self.j, self.matrix))


def conic_param(plane, pt):
    """The bijection PG(1,q) -> conic, f(t) = (t^2 : t : 1), f(oo) = (1:0:0)."""
    return plane.conic_point(plane.pg1.pos(pt))


# -- membership and standard subsets -------------------------------------------


def membership(g, gid):
    """Whether the map g lies in the named subgroup of PGammaL(2,q)."""
    gid = check_group_defined(g.field, gid)
    if gid == "pgammal":
        return True
    if gid == "pgl":
        return g.j == 0
    if gid == "psl":
        return g.j == 0 and g.det_is_square
    half = g.field.m // 2
    return (g.j == 0 and g.det_is_square) or (g.j == half and not g.det_is_square)


def stabilizer_generators(fld, gid):
    """Generators of `base_pair_stabilizer(fld, gid)` (checked orbit by
    orbit in the test suite), with g primitive: t -> g*t and t -> 1/t
    for `pgl`, t -> g^2*t and t -> -1/t for `psl`, plus t -> g*t^(p^(m/2))
    for `m` and the Frobenius t -> t^p for `pgammal`."""
    gid = check_group_defined(fld, gid)
    g = fld.primitive_element()
    if gid == "pgl":
        return [Moebius(fld, g, 0, 0, 1), Moebius(fld, 0, 1, 1, 0)]
    if gid == "psl":
        return [Moebius(fld, fld.mul(g, g), 0, 0, 1), Moebius(fld, 0, fld.neg(1), 1, 0)]
    if gid == "m":
        return stabilizer_generators(fld, "psl") + [Moebius(fld, g, 0, 0, 1, j=fld.m // 2)]
    gens = stabilizer_generators(fld, "pgl")
    if fld.m > 1:
        gens.append(Moebius(fld, 1, 0, 0, 1, j=1))
    return gens


def generators(fld, gid):
    """A small generating set: the shift t -> t + 1, then the stabilizer
    generators of {0, oo}; every element passes membership(., gid)."""
    return [Moebius(fld, 1, 1, 0, 1)] + stabilizer_generators(fld, gid)


def base_pair_stabilizer(fld, gid):
    """The full setwise stabilizer of {0, oo} in the named group.

    These are exactly the maps t -> e*t^(p^j) and t -> e/t^(p^j) whose
    parameters satisfy the group's membership predicate.
    """
    gid = check_group_defined(fld, gid)
    if gid in ("pgl", "psl"):
        js = [0]
    elif gid == "m":
        js = [0, fld.m // 2]
    else:
        js = list(range(fld.m))
    out = []
    for j in js:
        for e in fld.elements():
            if e == 0:
                continue
            for cand in (Moebius(fld, e, 0, 0, 1, j), Moebius(fld, 0, e, 1, 0, j)):
                if membership(cand, gid):
                    out.append(cand)
    return out


def transporters_to_base(fld, gid, pairs):
    """Canonical coefficients of one transporter per 2-subset, in one pass.

    `pairs` is a (k, 2) array of PG(1,q) positions, each row two distinct
    points.  Row r of the result holds (a, b, c, d, j) of the map
    t -> (t - alpha)/(t - beta) that sends the r-th subset {alpha, beta}
    to {0, oo}, with the limit forms t -> 1/(t - beta) at alpha = oo and
    t -> t - alpha at beta = oo.  For `psl` and `m`, a map with a
    non-square determinant is composed after the canonical non-square
    scaling t -> z*t, which makes the determinant square.  Coefficients
    are scaled so the first nonzero one is 1, as in `Moebius`.
    """
    gid = check_group_defined(fld, gid)
    q = fld.q
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    alpha, beta = pairs.T
    if (alpha == beta).any():
        raise ValueError("a transporter needs a genuine 2-subset")
    a_inf, b_inf = alpha == q, beta == q
    neg_alpha = fld.NEG[fld.BY_RANK[np.where(a_inf, 0, alpha)]]
    neg_beta = fld.NEG[fld.BY_RANK[np.where(b_inf, 0, beta)]]
    a = np.where(a_inf, 0, 1)
    b = np.where(a_inf, 1, neg_alpha)
    c = np.where(b_inf, 0, 1)
    d = np.where(b_inf, 1, neg_beta)
    if gid in ("psl", "m"):
        det = fld.ADD[fld.MUL[a, d], fld.NEG[fld.MUL[b, c]]]
        z = np.where(fld.SQUARE[det], 1, fld.fixed_nonsquare())
        a, b = fld.MUL[z, a], fld.MUL[z, b]
    # a is 1, z or 0, and b is nonzero when a is 0
    s = fld.INV[np.where(a != 0, a, b)]
    coeffs = [fld.MUL[s, v] for v in (a, b, c, d)]
    return np.stack(coeffs + [np.zeros_like(a)], axis=1).astype(np.int64)


def transporter_to_base(fld, pair, gid):
    """A deterministic element of the group sending the 2-subset to {0, oo}.

    `pair` holds two distinct PG(1,q) positions; the map is the one
    `transporters_to_base` gives for it.
    """
    return Moebius(fld, *transporters_to_base(fld, gid, [pair])[0])


# -- the batched action kernel ---------------------------------------------------
#
# A batch of k maps is a (k, 5) integer array whose rows are (a, b, c, d, j),
# as `coefficients` builds it; `transporters_to_base` returns one directly.


def coefficients(gs):
    """The maps `gs` as a (k, 5) array of rows (a, b, c, d, j)."""
    return np.array([(g.a, g.b, g.c, g.d, g.j) for g in gs], dtype=np.int64).reshape(-1, 5)


def point_perms(fld, maps):
    """Permutation arrays of k maps on PG(1,q) positions, shape (k, q+1)."""
    q = fld.q
    a, b, c, d, j = np.asarray(maps).T[:, :, None]
    x = fld.FROB[j, fld.BY_RANK]
    num = fld.ADD[fld.MUL[a, x], b]
    den = fld.ADD[fld.MUL[c, x], d]
    out = np.empty((len(x), q + 1), dtype=np.int32)
    out[:, :q] = np.where(den != 0, fld.RANK[fld.MUL[num, fld.INV[den]]], q)
    a, c = a[:, 0], c[:, 0]
    out[:, q] = np.where(c != 0, fld.RANK[fld.MUL[a, fld.INV[c]]], q)
    return out


def _rho(fld, maps):
    """The matrices of `Moebius.rho` for k maps, unscaled, shape (k, 3, 3)."""
    M, A = fld.MUL, fld.ADD
    a, b, c, d = np.asarray(maps)[:, :4].T
    two = A[1, 1]
    entries = (
        M[a, a], M[two, M[a, b]], M[b, b],
        M[a, c], A[M[a, d], M[b, c]], M[b, d],
        M[c, c], M[two, M[c, d]], M[d, d],
    )
    return np.stack(entries, axis=1).reshape(-1, 3, 3)


def _cofactors(fld, mats):
    """Cofactor matrices of a (k, 3, 3) stack; the transposes are adjugates.

    With cyclic row and column indices the signs of a 3x3 cofactor
    expansion need no separate factor.
    """
    M, A, N = fld.MUL, fld.ADD, fld.NEG
    out = np.empty_like(mats)
    for r in range(3):
        r1, r2 = (r + 1) % 3, (r + 2) % 3
        for s in range(3):
            s1, s2 = (s + 1) % 3, (s + 2) % 3
            out[:, r, s] = A[M[mats[:, r1, s1], mats[:, r2, s2]], N[M[mats[:, r1, s2], mats[:, r2, s1]]]]
    return out


def _coords_transform(fld, mats, js, coords):
    """Apply k 3x3 matrices, each after its entrywise Frobenius, to every
    row of `coords` and normalize: a (k, len(coords), 3) array.

    Field operations are lookups x * q + y in the flattened tables, as
    one `take` on a flat index is much faster than two-array indexing.
    """
    q = fld.q
    mul, add = fld.MUL.ravel(), fld.ADD.ravel()
    C = fld.FROB.ravel().take(np.asarray(js, dtype=np.intp)[:, None, None] * q + coords[None])
    mq = np.asarray(mats, dtype=np.intp) * q
    out = np.empty(C.shape, dtype=np.intp)
    for r in range(3):
        s = mul.take(mq[:, r, 0, None] + C[:, :, 0]) * q
        s = add.take(s + mul.take(mq[:, r, 1, None] + C[:, :, 1])) * q
        out[:, :, r] = add.take(s + mul.take(mq[:, r, 2, None] + C[:, :, 2]))
    lead = np.argmax(out != 0, axis=2)[:, :, None]
    inv = fld.INV.take(np.take_along_axis(out, lead, axis=2))
    return mul.take(out + inv * q)


def domain_perms(maps, dom):
    """Permutation arrays of k maps on an enumerated domain, shape (k, n).

    On `pairs` the maps act through their point images.  On the plane
    domains they act through `rho`: points by the matrix, lines by its
    cofactor matrix (the inverse transpose up to a scalar), after the
    Frobenius of the map's exponent, and the image coordinates are
    normalized and looked up.  Every temporary has k * n entries, times
    three on the plane domains, so callers bound memory by the size of
    the batches they pass.
    """
    fld = dom.field
    maps = np.asarray(maps)
    if dom.kind == "pairs":
        return dom.plane.pg1.pair_perms(point_perms(fld, maps))
    mats = _rho(fld, maps)
    if dom.kind != "hyp-points":
        mats = _cofactors(fld, mats)
    moved = _coords_transform(fld, mats, maps[:, 4], dom.coords)
    return dom.index_of_coords(moved.reshape(-1, 3)).reshape(len(maps), dom.n)


def point_perm(g):
    """Permutation array of g on PG(1,q) positions (length q+1)."""
    return point_perms(g.field, coefficients([g]))[0]


def domain_perm(g, dom):
    """Permutation array of the map g on an enumerated domain."""
    return domain_perms(coefficients([g]), dom)[0]


# -- whole-group enumeration (small q) --------------------------------------------


def group_order(fld, gid):
    """Order by the standard formulas (closure-checked in the test suite)."""
    gid = check_group_defined(fld, gid)
    base = fld.q**3 - fld.q
    if gid == "psl":
        return base // 2
    if gid == "pgammal":
        return base * fld.m
    return base


def enumerate_group(fld, gid, max_order=2_000_000):
    """All elements by closure under composition from the generators."""
    gid = check_group_defined(fld, gid)
    if group_order(fld, gid) > max_order:
        raise ValueError("group too large to enumerate explicitly")
    gens = generators(fld, gid)
    seen = {Moebius.identity(fld)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for s in gens:
                e = s * h
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return sorted(seen, key=Moebius.key)
