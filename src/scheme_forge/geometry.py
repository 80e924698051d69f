"""PG(1,q) and PG(2,q) with the quadratic form Q = x1^2 - x0*x2.

The plane carries the fixed conic {(t^2 : t : 1)} u {(1:0:0)}, its
polarity, the hyperbolic/tangent/elliptic classification of lines, and
the cross-ratio on the projective line.  Points and lines of PG(2,q) are
normalized coordinate triples (tuples of field codes) with the first
nonzero coordinate scaled to 1, so equality is plain tuple equality.

Points of PG(1,q) are addressed two ways: publicly as FieldElement or
the INFINITY singleton, and in the engine as positions 0..q where
position i < q is the i-th field element in canonical order and
position q is the point at infinity.
"""

import numpy as np

from .gf import FieldElement


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INFINITY = _Infinity()


class IndeterminateCrossRatioError(ValueError):
    """Cross-ratio requested for a configuration where it is 0/0."""


class DegeneratePairError(ValueError):
    """A construction needing two distinct points got a repeated one."""


class PG1:
    """The projective line over GF(q), identified with GF(q) u {oo}."""

    def __init__(self, fld):
        self.field = fld
        q = fld.q
        self.n_points = q + 1
        self.INF = q  # position of the point at infinity (always last)
        # position -> element code, for the finite positions
        self.val_of_pos = fld.BY_RANK
        # pairs of positions (i, j), i < j, in lexicographic order
        pairs = [(i, j) for i in range(q + 1) for j in range(i + 1, q + 1)]
        self.pairs = np.array(pairs, dtype=np.int32)
        tab = np.full((q + 1, q + 1), -1, dtype=np.int32)
        for idx, (i, j) in enumerate(pairs):
            tab[i, j] = idx
            tab[j, i] = idx
        self.pair_table = tab
        self.n_pairs = len(pairs)
        self.base_pair = int(tab[0, q])  # index of {0, oo}

    def pos(self, pt):
        """Position of a point given as FieldElement, int code, or INFINITY."""
        if pt is INFINITY:
            return self.INF
        if isinstance(pt, FieldElement):
            return int(self.field.RANK[pt.val])
        return int(self.field.RANK[int(pt)])

    def point(self, pos):
        if pos == self.INF:
            return INFINITY
        return self.field.element_from_code(int(self.val_of_pos[pos]))

    def points(self):
        return [self.point(i) for i in range(self.n_points)]

    def pair_perms(self, point_perms):
        """Lift permutations of positions, shape (..., q+1), to the pairs:
        entry x of a row is the index of the image of pair x."""
        P = np.asarray(point_perms, dtype=np.intp)
        codes = np.take(P * self.n_points, self.pairs[:, 0], axis=-1)
        codes += np.take(P, self.pairs[:, 1], axis=-1)
        return self.pair_table.take(codes)

    # -- cross-ratio ---------------------------------------------------------

    def _homog(self, pt):
        if pt is INFINITY:
            return (1, 0)
        if isinstance(pt, FieldElement):
            if pt.field is not self.field:
                raise ValueError("point from a different field")
            return (pt.val, 1)
        return (int(pt), 1)  # raw code

    def cross_ratio_code(self, x, y, z, w):
        """Cross-ratio of four positions/codes; returns a code or self.INF.

        Arguments are homogeneous pairs as produced by ``_homog``.
        """
        f = self.field

        def det(u, v):
            return f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0]))

        num = f.mul(det(x, z), det(y, w))
        den = f.mul(det(x, w), det(y, z))
        if den != 0:
            return f.div(num, den)
        if num != 0:
            return self.INF
        raise IndeterminateCrossRatioError("cross-ratio is 0/0 here")

    def cross_ratio(self, x, y, z, w):
        """cr(x,y;z,w) = (x-z)(y-w) / ((x-w)(y-z)), with limit rules at oo.

        Returns a FieldElement or INFINITY.
        """
        r = self.cross_ratio_code(*(self._homog(t) for t in (x, y, z, w)))
        if r == self.INF:
            return INFINITY
        return self.field.element_from_code(r)

    def cross_ratio_pos(self, xp, yp, zp, wp):
        """Cross-ratio of four positions; returns a code, or q for infinity."""
        def h(p):
            return (1, 0) if p == self.INF else (int(self.val_of_pos[p]), 1)

        return self.cross_ratio_code(h(xp), h(yp), h(zp), h(wp))


class Plane:
    """PG(2,q) with the conic of Q = x1^2 - x0*x2 and its polarity."""

    def __init__(self, fld):
        self.field = fld
        self.pg1 = PG1(fld)
        self._conic = None
        self._conic_set = None
        self._all_lines = None
        self._all_points = None

    # -- coordinates ----------------------------------------------------------

    def normalize(self, v):
        """Scale a nonzero triple so its first nonzero coordinate is 1."""
        f = self.field
        v = tuple(int(c) for c in v)
        for c in v:
            if c != 0:
                s = f.inv(c)
                return tuple(f.mul(s, c2) for c2 in v)
        raise ValueError("the zero triple is not a projective point")

    def quadratic_form(self, v):
        """Q(x0,x1,x2) = x1^2 - x0*x2 on a raw triple (code arithmetic)."""
        f = self.field
        x0, x1, x2 = (int(c) for c in v)
        return f.sub(f.mul(x1, x1), f.mul(x0, x2))

    def bilinear_form(self, u, v):
        """B(u,v) = 2*u1*v1 - u0*v2 - u2*v0, the polarization of Q."""
        f = self.field
        u0, u1, u2 = (int(c) for c in u)
        v0, v1, v2 = (int(c) for c in v)
        two = f.add(1, 1)
        s = f.mul(two, f.mul(u1, v1))
        s = f.sub(s, f.mul(u0, v2))
        s = f.sub(s, f.mul(u2, v0))
        return s

    # -- conic ----------------------------------------------------------------

    def conic_point(self, pos):
        """The conic point attached to PG(1,q) position `pos` (the map f)."""
        f = self.field
        if pos == self.pg1.INF:
            return (1, 0, 0)
        t = int(self.pg1.val_of_pos[pos])
        return self.normalize((f.mul(t, t), t, 1))

    def conic_points(self):
        """All q+1 conic points, ordered like PG(1,q) positions."""
        if self._conic is None:
            self._conic = [self.conic_point(i) for i in range(self.pg1.n_points)]
            self._conic_set = frozenset(self._conic)
        return self._conic

    # -- polarity -------------------------------------------------------------

    def polarity_point_to_line(self, P):
        """P -> P^perp: the line {R : B(P,R) = 0}, as dual coordinates."""
        f = self.field
        x0, x1, x2 = (int(c) for c in P)
        two = f.add(1, 1)
        return self.normalize((f.neg(x2), f.mul(two, x1), f.neg(x0)))

    def polarity_line_to_point(self, l):
        f = self.field
        a0, a1, a2 = (int(c) for c in l)
        half = f.inv(f.add(1, 1))
        return self.normalize((f.neg(a2), f.mul(half, a1), f.neg(a0)))

    # -- lines ----------------------------------------------------------------

    def line_through(self, P, Q):
        """Dual coordinates of the unique line through distinct points P, Q."""
        f = self.field
        p0, p1, p2 = (int(c) for c in P)
        q0, q1, q2 = (int(c) for c in Q)
        l = (
            f.sub(f.mul(p1, q2), f.mul(p2, q1)),
            f.sub(f.mul(p2, q0), f.mul(p0, q2)),
            f.sub(f.mul(p0, q1), f.mul(p1, q0)),
        )
        if l == (0, 0, 0):
            raise DegeneratePairError("coincident points span no line")
        return self.normalize(l)

    def hyperbolic_line_pos(self, i, j):
        """The line through conic points at PG(1,q) positions i != j."""
        if i == j:
            raise DegeneratePairError("a hyperbolic line needs two distinct points")
        return self.line_through(self.conic_point(i), self.conic_point(j))

    def hyperbolic_line(self, x, y):
        """L_{x,y}: the secant through the conic points of parameters x, y."""
        return self.hyperbolic_line_pos(self.pg1.pos(x), self.pg1.pos(y))

    def tangent_line(self, pos):
        """Tangent to the conic at the conic point of position `pos`."""
        return self.polarity_point_to_line(self.conic_point(pos))

    def incident(self, P, l):
        f = self.field
        s = 0
        for pc, lc in zip(P, l):
            s = f.add(s, f.mul(int(lc), int(pc)))
        return s == 0

    def classify_line(self, l):
        """'hyperbolic', 'tangent' or 'elliptic' by |l . conic| = 2, 1, 0."""
        self.conic_points()
        hits = sum(1 for P in self._conic if self.incident(P, l))
        return {2: "hyperbolic", 1: "tangent", 0: "elliptic"}[hits]

    def classify_point(self, P):
        """Dual classification: 'hyperbolic' iff Q(P) is a nonzero square
        (the pole of a secant), 'singular' iff Q(P) = 0, else 'elliptic'."""
        qv = self.quadratic_form(P)
        if qv == 0:
            return "singular"
        return "hyperbolic" if self.field.is_square(qv) else "elliptic"

    def all_points(self):
        """All q^2+q+1 points, in a fixed canonical enumeration."""
        if self._all_points is None:
            self._all_points = self._enumerate_reps()
        return self._all_points

    def all_lines(self):
        """All q^2+q+1 lines (dual coordinates), same enumeration."""
        if self._all_lines is None:
            self._all_lines = self._enumerate_reps()
        return self._all_lines

    def _enumerate_reps(self):
        out = [(0, 0, 1)]
        order = [int(v) for v in self.field.BY_RANK]
        for a in order:
            out.append((0, 1, a))
        for a in order:
            for b in order:
                out.append((1, a, b))
        return out


class Domain:
    """An enumerated domain for scheme construction, with stable indices."""

    KINDS = ("pairs", "hyp-lines", "hyp-points", "tangent-lines", "elliptic-lines")

    def __init__(self, kind, plane, elements, base_index=None):
        self.kind = kind
        self.plane = plane
        self.field = plane.field
        self.elements = elements
        self.n = len(elements)
        self.index = {e: i for i, e in enumerate(elements)}
        self.base_index = base_index
        if kind == "pairs":
            self.coords = None
        else:
            self.coords = np.array(elements, dtype=np.int32)
            q = plane.field.q
            codes = (self.coords[:, 0] * q + self.coords[:, 1]) * q + self.coords[:, 2]
            lookup = np.full(q * q * q, -1, dtype=np.int32)
            lookup[codes] = np.arange(self.n, dtype=np.int32)
            self._code_lookup = lookup

    def index_of_coords(self, coords_array):
        """Vectorized element -> index lookup for coordinate-triple domains."""
        q = self.field.q
        codes = (coords_array[:, 0].astype(np.int64) * q + coords_array[:, 1]) * q + coords_array[:, 2]
        idx = self._code_lookup[codes]
        if (idx < 0).any():
            raise ValueError("coordinates outside the domain")
        return idx

    def __repr__(self):
        return f"Domain({self.kind}, q={self.field.q}, n={self.n})"


def pairs_domain(plane):
    """Omega: 2-element subsets of PG(1,q) as position pairs (i, j), i < j."""
    pg1 = plane.pg1
    elements = [tuple(p) for p in pg1.pairs.tolist()]
    return Domain("pairs", plane, elements, base_index=pg1.base_pair)


def hyperbolic_lines_domain(plane):
    """Secant lines, enumerated in the canonical pair order."""
    pg1 = plane.pg1
    elements = [plane.hyperbolic_line_pos(i, j) for i, j in pg1.pairs.tolist()]
    return Domain("hyp-lines", plane, elements, base_index=pg1.base_pair)


def hyperbolic_points_domain(plane):
    """Poles of the secant lines (square-type points), same order."""
    pg1 = plane.pg1
    elements = [
        plane.polarity_line_to_point(plane.hyperbolic_line_pos(i, j))
        for i, j in pg1.pairs.tolist()
    ]
    return Domain("hyp-points", plane, elements, base_index=pg1.base_pair)


def tangent_lines_domain(plane):
    elements = [plane.tangent_line(i) for i in range(plane.pg1.n_points)]
    return Domain("tangent-lines", plane, elements)


def elliptic_lines_domain(plane):
    elements = [l for l in plane.all_lines() if plane.classify_line(l) == "elliptic"]
    return Domain("elliptic-lines", plane, elements)


_DOMAIN_BUILDERS = {
    "pairs": pairs_domain,
    "hyp-lines": hyperbolic_lines_domain,
    "hyp-points": hyperbolic_points_domain,
    "tangent-lines": tangent_lines_domain,
    "elliptic-lines": elliptic_lines_domain,
}


def domain(plane, kind):
    try:
        builder = _DOMAIN_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown domain kind {kind!r}; choose from {Domain.KINDS}")
    return builder(plane)
