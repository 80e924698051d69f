"""PG(1,q) and PG(2,q) with the quadratic form Q = x1^2 - x0*x2.

The plane carries the fixed conic {(t^2 : t : 1)} u {(1:0:0)}, its
polarity and the hyperbolic/tangent/elliptic classification of lines,
computed by batched kernels on (k, 3) arrays of field codes.  Points and
lines of PG(2,q) are normalized coordinate triples of field codes with
the first nonzero coordinate scaled to 1, so equality is plain equality
of rows.

A point of PG(1,q) is a position 0..q: position i < q is the i-th field
element in canonical order and position q is the point at infinity;
`PG1.point_text` writes one.
"""

import numpy as np

LINE_CLASSES = ("elliptic", "tangent", "hyperbolic")  # by conic points on the line


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
        self.pairs = np.stack(np.triu_indices(q + 1, 1), axis=1).astype(np.int32)
        self._ends = self.pairs.T.astype(np.intp)
        self.n_pairs = len(self.pairs)
        i, j = self._ends
        self.pair_table = np.full((q + 1, q + 1), -1, dtype=np.int32)
        self.pair_table[i, j] = self.pair_table[j, i] = np.arange(self.n_pairs)
        self.base_pair = int(self.pair_table[0, q])  # index of {0, oo}

    def point_text(self, pos):
        """Position pos as text: "oo" at infinity, else its field element."""
        return "oo" if pos == self.INF else self.field.element_text(int(self.val_of_pos[pos]))

    def pair_images(self, point_perms, elements=None, table=None):
        """Lift k permutations of positions, shape (k, q+1), to the pairs:
        entry (r, i) is the index of the image under row r of the pair
        elements[r, i].  `elements` has shape (k, m), or (1, m) to move
        the same pairs by every row, or is None for every pair in index
        order, whose points are gathered once, in `__init__`.  The image
        of {a, b} is read at the code a (q+1) + b of its points in
        `table`, by default `pair_table`; a composed table such as
        labels[pair_table] reads labels of the images with no array of
        pair indices between.  Codes stay in the dtype of `point_perms`:
        int32 for the permutations of `moebius.point_perms`, which hold
        every code below (q+1)^2."""
        P = np.asarray(point_perms)
        table = self.pair_table if table is None else table
        ends = self._ends[:, None] if elements is None else self._ends.take(elements, axis=1)
        if ends.shape[1] == 1:
            # one row of pairs: gathering along the rows of P is much faster
            codes = np.take(P * self.n_points, ends[0, 0], axis=-1)
            codes += np.take(P, ends[1, 0], axis=-1)
        else:
            off = (np.arange(len(P)) * self.n_points)[:, None]
            codes = (P * self.n_points).ravel().take(off + ends[0])
            codes += P.ravel().take(off + ends[1])
        return table.take(codes)


class Plane:
    """PG(2,q) with the conic of Q = x1^2 - x0*x2 and its polarity."""

    def __init__(self, fld):
        self.field = fld
        self.pg1 = PG1(fld)
        self._conic = None
        self._reps = None

    def quadratic_form(self, v):
        """Q(x0,x1,x2) = x1^2 - x0*x2 on a raw triple (code arithmetic)."""
        f = self.field
        x0, x1, x2 = (int(c) for c in v)
        return f.sub(f.mul(x1, x1), f.mul(x0, x2))

    def conic_points(self):
        """All q+1 conic points, ordered like PG(1,q) positions: (t^2 : t : 1)
        at the element t of each finite position, then (1 : 0 : 0)."""
        if self._conic is None:
            f, t = self.field, self.field.BY_RANK
            V = np.stack([f.MUL[t, t], t, np.ones_like(t)], axis=1)
            self._conic = [tuple(P) for P in self.normalize_rows(V).tolist()] + [(1, 0, 0)]
        return self._conic

    # -- batched kernels on (k, 3) arrays of field codes, through the field tables --

    def normalize_rows(self, V):
        """Scale each row of the (k, 3) code array V so its first nonzero
        coordinate is 1; ValueError for a zero row."""
        f, V = self.field, np.asarray(V, dtype=np.intp)
        if not V.any(axis=1).all():
            raise ValueError("the zero triple is not a projective point")
        lead = V[np.arange(len(V)), np.argmax(V != 0, axis=1)]
        return f.MUL.ravel().take(V + f.INV.take(lead)[:, None] * f.q)

    def secant_lines(self, pairs):
        """The lines through the conic points at the two PG(1,q) positions
        of each row of the (k, 2) array `pairs`, as dual coordinates: cross
        products, normalized by `normalize_rows`."""
        f = self.field
        C = np.array(self.conic_points())[np.asarray(pairs)]
        P, Q, r1, r2 = C[:, 0], C[:, 1], [1, 2, 0], [2, 0, 1]
        return self.normalize_rows(f.ADD[f.MUL[P[:, r1], Q[:, r2]], f.NEG[f.MUL[P[:, r2], Q[:, r1]]]])

    def poles(self, lines):
        """The poles of the rows of the (k, 3) array `lines` under the
        polarity of Q, (a0, a1, a2) -> (-a2, a1/2, -a0), normalized by
        `normalize_rows`: a point R lies on the line exactly when
        2 P1 R1 - P0 R2 - P2 R0 = 0 for its pole P."""
        f = self.field
        a0, a1, a2 = np.asarray(lines).T
        return self.normalize_rows(np.stack([f.NEG[a2], f.MUL[f.INV[f.ADD[1, 1]], a1], f.NEG[a0]], 1))

    def conic_counts(self, lines):
        """The number of conic points on each row of the (k, 3) array
        `lines` (any scaling): 2 for a secant, 1 for a tangent, 0 for an
        elliptic line, the index of its class in LINE_CLASSES."""
        M, A = self.field.MUL, self.field.ADD
        L, C = np.asarray(lines)[:, None], np.array(self.conic_points())
        s = A[A[M[L[..., 0], C[:, 0]], M[L[..., 1], C[:, 1]]], M[L[..., 2], C[:, 2]]]
        return (s == 0).sum(axis=1)

    def classify_point(self, P):
        """Dual classification: 'hyperbolic' iff Q(P) is a nonzero square
        (the pole of a secant), 'singular' iff Q(P) = 0, else 'elliptic'."""
        qv = self.quadratic_form(P)
        if qv == 0:
            return "singular"
        return "hyperbolic" if self.field.is_square(qv) else "elliptic"

    def all_points(self):
        """All q^2+q+1 points, in a fixed canonical enumeration."""
        if self._reps is None:
            order = [int(v) for v in self.field.BY_RANK]
            self._reps = [(0, 0, 1)] + [(0, 1, a) for a in order] + [(1, a, b) for a in order for b in order]
        return self._reps

    def all_lines(self):
        """All q^2+q+1 lines (dual coordinates): the triples of `all_points`."""
        return self.all_points()


class Domain:
    """One of the three models of the pairs of PG(1,q) that schemes are
    built on: the pairs themselves, the secant lines through their conic
    points, and the poles of those secants.  Through the conic model,
    element i of every kind is pair i of `plane.pg1.pairs`, so the base
    element `base_index` is the pair {0, oo} on each.  The elements are
    stored once, as int32 arrays: `pg1.pairs` on pairs, whose `coords`
    is None, and the normalized coordinate triples `coords`, row i for
    pair i, on the plane kinds, inverted by a table of 2q^2 + 1 entries
    (see `index_of_coords`)."""

    KINDS = ("pairs", "hyp-lines", "hyp-points")

    def __init__(self, kind, plane, coords=None):
        self.kind = kind
        self.plane = plane
        self.field = plane.field
        self.n = plane.pg1.n_pairs
        self.base_index = plane.pg1.base_pair
        self.coords = coords
        if coords is not None:
            q = plane.field.q
            self._code_lookup = np.full(2 * q * q + 1, -1, dtype=np.int32)
            self._code_lookup[self._codes(coords)] = np.arange(self.n, dtype=np.int32)

    def _codes(self, coords_array):
        q = self.field.q
        return (coords_array[:, 0].astype(np.int64) * q + coords_array[:, 1]) * q + coords_array[:, 2]

    def index_of_coords(self, coords_array):
        """Indices of the rows of a (k, 3) code array; ValueError if one
        is not an element.  A normalized triple has c0 in {0, 1}, so its
        code (c0 q + c1) q + c2 is below 2q^2 and 2q^2 + 1 entries do:
        larger codes are clipped to the last, -1, as no element has them."""
        idx = self._code_lookup.take(self._codes(coords_array), mode="clip")
        if (idx < 0).any():
            raise ValueError("coordinates outside the domain")
        return idx

    def __repr__(self):
        return f"Domain({self.kind}, q={self.field.q}, n={self.n})"


def pairs_domain(plane):
    """Omega: 2-element subsets of PG(1,q), the pairs of `pg1.pairs`."""
    return Domain("pairs", plane)


def hyperbolic_lines_domain(plane):
    """Secant lines, enumerated in the canonical pair order."""
    return Domain("hyp-lines", plane, plane.secant_lines(plane.pg1.pairs))


def hyperbolic_points_domain(plane):
    """Poles of the secant lines (square-type points), same order."""
    return Domain("hyp-points", plane, plane.poles(plane.secant_lines(plane.pg1.pairs)))


_DOMAIN_BUILDERS = {
    "pairs": pairs_domain,
    "hyp-lines": hyperbolic_lines_domain,
    "hyp-points": hyperbolic_points_domain,
}


def domain(plane, kind):
    try:
        builder = _DOMAIN_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown domain kind {kind!r}; choose from {Domain.KINDS}")
    return builder(plane)
