"""Association-scheme machinery over enumerated domains.

A Scheme is an n x n relation matrix of small class indices, entry
(x, y) the class of the ordered pair, 0 the diagonal, with its valencies,
transpose map and intersection numbers, read through one row reader.
Every Scheme is proven, exactly and never by sampling, and
`Scheme.verified_by` names the proof.  Built from a matrix, it is
checked for structure and proved by a certificate from automorphisms,
or exhaustively.  Every other builder proves its classes itself and
hands its row reader to `Scheme._from_rows`, which reads the parameters
at one pair of each class, as `Scheme` does, and fills no matrix until
one is read whole: `orbital_scheme` and the stabilizer path prove them
the orbitals of a group, `cross_ratio_scheme` from the cross-ratios of
a (q+1) x (q+1) table of field codes and point permutations that it
checks scale the table (T(q+1) here, FT(q+1) in `fission`), and `fuse`
from the admissible partition of a proven scheme.  One routine,
`Scheme.p_tensor`, counts intersection numbers; structural queries and
fusions (`fusion_map`) read that tensor or row blocks.

Classes are numbered one way, by `_renumber_first_occurrence`: by first
occurrence in row 0, which is their least pair in row-major order, so
equal actions give byte-identical matrices.
"""

import numpy as np

from . import moebius as mo

MAX_DEFAULT_Q = 127

# The largest bare matrix `Scheme` checks exhaustively, at O(d ceil(d/w) n^3)
# with w classes packed into each product: the q = 25 pairs domain, whose
# `psl` matrix takes 0.25 s on 2 vCPUs (51 s at q = 49).
MAX_EXHAUSTIVE_N = 325


class NotTransitiveError(RuntimeError):
    """The generated group does not act transitively on the domain."""


class NotASchemeError(RuntimeError):
    """A relation matrix violates the association scheme axioms."""


class DomainSizeError(RuntimeError):
    """Guard against accidentally huge dense relation matrices."""


# The block budget: row blocks hold about this many entries, so blocked
# passes over an n x n matrix need temporaries of a few hundred kB (index
# arrays take eight bytes an entry) instead of multiples of n^2, and the
# blocks stay in cache.  Larger blocks only cost memory: in one in-process
# run of the theorem suite for q = 5..49, peak RSS was 35 MB at 2^16
# entries, 40 MB at 2^18 and 51 MB at 2^20, while the q = 169 `pgl` build
# took 2.1 to 2.5 s at each of these sizes (3.5 s at 2^14).
BLOCK_ENTRIES = 1 << 16


def _row_blocks(k, n):
    """(r0, r1) bounds of consecutive blocks of k rows of length n."""
    step = max(1, BLOCK_ENTRIES // max(1, n))
    return [(r0, min(k, r0 + step)) for r0 in range(0, k, step)]


def _fill_matrix(S):
    """The n x n relation matrix of S, filled from `Scheme.row_blocks`."""
    M = None
    for r0, r1, rows in S.row_blocks():
        if M is None:
            M = np.empty((S.n, S.n), dtype=rows.dtype)
        M[r0:r1] = rows
    return M


def _renumber_first_occurrence(row, size):
    """The class numbering of every builder: first occurrence in row 0.

    `row` is row 0 of a relation matrix, or the values it would hold.
    Returns (remap, first): remap, of length `size` and in the final
    class dtype (uint8 for up to 255 classes, else uint16), numbers each
    value of the row by its first occurrence,
    and first[k] is the column where class k first occurs.  A value in
    0..size-1 that the row misses maps to the largest value of the
    dtype, which no class number takes, so a matrix holding it fails the
    row-0 check of `Scheme`: in a scheme every row holds every class, so
    numbering row 0 is numbering the matrix in row-major order.
    """
    if not np.issubdtype(row.dtype, np.integer) or row.min() < 0:
        raise NotASchemeError("class indices must be non-negative integers")
    ids, first = np.unique(row, return_index=True)
    order = np.argsort(first, kind="stable")
    dtype = np.uint8 if len(ids) <= 255 else np.uint16
    remap = np.full(size, np.iinfo(dtype).max, dtype=dtype)
    remap[ids[order]] = np.arange(len(ids), dtype=dtype)
    return remap, first[order]


class Scheme:
    """A proven association scheme on an enumerated domain.

    Every `Scheme` is a proof: no constructor returns one whose axioms
    were not proved, and `verified_by` names the proof.  A bare
    `relation_matrix` is proved by `automorphisms` (permutation arrays
    of the domain, `_certify`), "certificate", or without them by the
    blocked transposition check and `verify_exhaustive`, "exhaustive",
    which raises DomainSizeError above n = MAX_EXHAUSTIVE_N.  First it
    is checked for structure: a matrix that is not square raises
    ValueError, and a negative or non-integer entry, a row 0 missing a
    class 0..d, a diagonal other than class 0 or a class 0 off the
    diagonal raise NotASchemeError.  Every builder proves its classes
    itself and ends in `_from_rows`: "orbits" (`orbital_scheme` and the
    stabilizer path), "cross-ratio" (`cross_ratio_scheme`: T and FT) and
    "fusion" (`fuse`).

    The one row reader `_rows(xs)`, xs a slice or an index array, reads
    the matrix once there is one and computes the rows before; `row`,
    `row_blocks` and `p_tensor` read only through it, and
    `relation_matrix` fills the matrix from it, a row block at a time,
    the first time it is read.  Row 0 holds every class 0..d, as every
    row of a scheme does, and `class_reps[k]` is the first pair (0, y)
    of class k.
    """

    def __init__(self, relation_matrix, domain=None, automorphisms=None):
        M = np.ascontiguousarray(relation_matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("relation matrix must be square")
        if not np.issubdtype(M.dtype, np.integer) or M.min() < 0:
            raise NotASchemeError("class indices must be non-negative integers")
        self._read(domain, M)
        if self.d != M.max():
            raise NotASchemeError("row 0 must hold every class 0..d, and nothing else may occur")
        if (np.diagonal(M) != 0).any():
            raise NotASchemeError("the diagonal must be relation 0")
        # the exhaustive check alone would accept a block equivalence as
        # class 0, and `_certify` needs class 0 to be the diagonal
        if np.count_nonzero(M) != self.n * (self.n - 1):
            raise NotASchemeError("relation 0 must be exactly the diagonal")
        if automorphisms is not None:
            self._certify(np.asarray(automorphisms))
            self.verified_by = "certificate"
            return
        tm = self.transpose_map.astype(M.dtype)
        for r0, r1, rows in self.row_blocks():
            if not np.array_equal(tm[rows], M[:, r0:r1].T):
                raise NotASchemeError("classes are not closed under transposition")
        if self.n > MAX_EXHAUSTIVE_N:
            raise DomainSizeError(
                f"n = {self.n} > {MAX_EXHAUSTIVE_N} is too large to check exhaustively; "
                "pass automorphisms to certify the matrix"
            )
        self.verify_exhaustive()
        self.verified_by = "exhaustive"

    @classmethod
    def _from_rows(cls, domain, rows, verified_by, row0=None):
        """The scheme whose builder proved it by `verified_by`, read through
        `rows`: the row reader, `rows(xs)` the rows xs, a slice or an index
        array, or the filled matrix; `row0`, if given, is its row 0."""
        S = cls.__new__(cls)
        S._read(domain, rows, row0)
        S.verified_by = verified_by
        return S

    def _read(self, domain, rows, row0=None):
        """Take the row reader, or the matrix, and read the parameters at
        one pair of each class, exact in a scheme: class_reps from the
        first occurrences in row 0, valencies from its counts and
        transpose_map[k] = R(y_k, 0), from representative rows in blocks."""
        if isinstance(rows, np.ndarray):
            self._matrix, self._rows, self.n = rows, rows.__getitem__, len(rows)
        else:
            self._matrix, self._rows, self.n = None, rows, domain.n
        self.domain, self.labels, self._p_tensor = domain, None, None
        row0 = self.row(0) if row0 is None else row0
        first = np.unique(row0, return_index=True)[1]
        self.d = len(first) - 1
        self.class_reps = [(0, int(y)) for y in first]
        self.valencies = np.bincount(row0).astype(np.int64)
        self.transpose_map = np.concatenate(
            [self._rows(first[k0:k1])[:, 0] for k0, k1 in _row_blocks(self.d + 1, self.n)]
        ).astype(np.int32)

    @property
    def relation_matrix(self):
        if self._matrix is None:
            self._matrix = _fill_matrix(self)
            self._rows = self._matrix.__getitem__
        return self._matrix

    def row_blocks(self):
        """Yield (r0, r1, rows) for consecutive blocks of rows r0..r1 of
        the relation matrix, about BLOCK_ENTRIES entries each, top to
        bottom: views of the matrix when it is filled, else blocks that
        the builder's row reader computes and keeps no reference to, so
        a pass over them holds one block, never the n x n matrix."""
        for r0, r1 in _row_blocks(self.n, self.n):
            yield r0, r1, self._rows(slice(r0, r1))

    def row(self, x):
        """Row x of the relation matrix, read without filling it."""
        return self._rows(slice(x, x + 1))[0]

    def _certify(self, perms):
        """Prove the matrix a scheme from permutations of its domain: every
        p preserves M (M[p(x), p(y)] = M[x, y], per row block), which makes
        p injective, as class 0 is the diagonal; then `_orbit_certificate`."""
        M = self.relation_matrix
        for p in perms:
            for r0, r1, rows in self.row_blocks():
                if not np.array_equal(M.take(p[r0:r1], axis=0).take(p, axis=1), rows):
                    raise NotASchemeError("an automorphism does not preserve the relation matrix")
        _orbit_certificate(perms, self.domain, self.d + 1)

    # -- intersection numbers --------------------------------------------------

    def p_tensor(self):
        """The tensor p[k, i, j] of intersection numbers, counted at the
        representative pair (0, y_k) = class_reps[k] of each class: the
        bincount of R(0, z) (d + 1) + R(z, y_k) over z, one bincount per
        block of classes.  Column y_k is the transposed row, R(z, y_k) =
        t(R(y_k, z)) for t the transpose map, so no matrix is filled.
        That holds when the classes are closed under transposition, as
        in a scheme, and in a bare matrix before its proof, whose blocked
        transposition check runs before `verify_exhaustive`, which
        compares every pair with the tensor, so it is sound whatever
        tensor it is given."""
        if self._p_tensor is None:
            d1 = self.d + 1
            left = self.row(0).astype(np.intp) * d1
            reps = np.array([y for _, y in self.class_reps])
            P = np.empty((d1, d1, d1), dtype=np.int64)
            for k0, k1 in _row_blocks(d1, self.n):
                codes = left + self.transpose_map[self._rows(reps[k0:k1])] + np.arange(k1 - k0)[:, None] * d1 * d1
                P[k0:k1] = np.bincount(codes.ravel(), minlength=(k1 - k0) * d1 * d1).reshape(-1, d1, d1)
            self._p_tensor = P
        return self._p_tensor

    def verify_exhaustive(self):
        """Check p^k_ij constancy over every ordered pair (matrix products).

        With B_i the indicator of class i, (B_i B_j)[x, y] counts the z
        with (x, z) in class i and (z, y) in class j, and must equal
        p^k_ij for k the class of (x, y).  Classes j are packed w at a
        time into base-(n+1) digits of one weight matrix W, the sum of
        (n+1)^(j-j0) B_j, with (n+1)^w <= 2^53: every count is at most n,
        so the digits never carry, and every entry and partial sum of
        B_i W is an integer below 2^53, exact in float64.  W is built
        once per chunk of classes j, and one product per class i is
        compared, a row block at a time, with the packed p-tensor.  On a
        mismatch the chunks run again in i-then-j order, and a failing
        one class by class, so the error names the first failing (i, j).
        W (float64, written in place) and one block of B_i are alive at a
        time.
        """
        M = self.relation_matrix
        P = self.p_tensor()
        n, d1 = self.n, self.d + 1
        w = 1
        while (n + 1) ** (w + 1) <= 2**53:
            w += 1
        blocks = _row_blocks(n, n)
        W = np.empty((n, n))

        def weigh(j0, j1):
            weights = np.zeros(d1)
            weights[j0:j1] = (n + 1) ** np.arange(j1 - j0)
            for r0, r1 in blocks:
                # entries of M are valid indices, so "clip" changes
                # nothing and spares the copy of `out` that "raise" makes
                np.take(weights, M[r0:r1], out=W[r0:r1], mode="clip")

        def holds(i, j0, j1):
            packed = (P[:, i, j0:j1] @ (n + 1) ** np.arange(j1 - j0)).astype(np.float64)
            return all(np.array_equal((M[r0:r1] == i) @ W, packed.take(M[r0:r1])) for r0, r1 in blocks)

        chunks = [(j0, min(d1, j0 + w)) for j0 in range(0, d1, w)]
        for j0, j1 in chunks:
            weigh(j0, j1)
            if not all(holds(i, j0, j1) for i in range(d1)):
                break
        else:
            return True
        # a mismatch: search again, in i-then-j order, for the first one
        for i in range(d1):
            Bi = M == i
            for j0, j1 in chunks:
                weigh(j0, j1)
                if holds(i, j0, j1):
                    continue
                for j in range(j0, j1):
                    if not np.array_equal(Bi @ (M == j).astype(np.float64), P[:, i, j][M]):
                        raise NotASchemeError(f"p^k_({i},{j}) is not constant over all representatives")

    # -- predicates --------------------------------------------------------------

    def is_symmetric(self):
        return bool((self.transpose_map == np.arange(self.d + 1)).all())

    def is_commutative(self):
        P = self.p_tensor()
        return bool(np.array_equal(P, P.transpose(0, 2, 1)))

    def label_text(self):
        if self.labels is None:
            return [str(k) for k in range(self.d + 1)]
        return [lab.text(self.domain.field) for lab in self.labels]

    def __repr__(self):
        kind = self.domain.kind if self.domain is not None else "?"
        return f"Scheme(n={self.n}, d={self.d}, domain={kind})"


# -- construction from group actions ------------------------------------------------


def _orbits(perms, shape):
    """Least-element orbit labels of the group that `perms` generate.

    The points are the flat indices of an array of the given shape, and
    each p in `perms` indexes such an array so that lab[p] holds, at every
    point, the label of its image: a permutation array for a 1-d shape,
    or an `np.ix_` pair for the diagonal action on the entries of a
    square.  Starting from lab[x] = x, each round lowers lab to
    min(lab, lab[p]) for every p in turn and then jumps lab = lab[lab],
    until a round leaves the sum of the labels unchanged.  Every step
    keeps lab[x] in the orbit of x and can only lower it, so the loop
    ends, and at the end no step changed anything: lab[x] <= lab[p(x)]
    for every generator p, and following the cycle of p through x gives
    equality, so lab is constant on orbits, and the least element m of
    an orbit has lab[m] = m.  So lab[x] is the least element of the
    orbit of x.  Two label arrays are alive at a time.
    """
    lab = np.arange(np.prod(shape)).reshape(shape)
    total = lab.sum()
    while True:
        for p in perms:
            np.minimum(lab, lab[p], out=lab)
        lab = lab.ravel()[lab]
        lowered = lab.sum()
        if lowered == total:
            return lab
        total = lowered


def _orbit_certificate(perms, dom, d1):
    """Prove a relation partition with d1 classes, class 0 the diagonal,
    preserved by the permutation arrays `perms` of the domain (as each
    caller proves: `Scheme._certify` on the matrix, `cross_ratio_scheme`
    on its point table), the orbital partition of the group G they
    generate: NotASchemeError unless G is transitive and the group H
    generated by the p fixing the base element b has d1 orbits (least
    elements, which `_orbits` leaves fixed).  Row b is row 0 moved by G,
    so it holds all d1 classes, and H preserves them, so its orbits are
    the classes of row b.  So G moves a pair of class k to some (b, y'),
    and H then to the first pair of class k in row b: every class is one
    orbital of G, and intersection numbers, valencies and transposes read
    at one pair are exact (Bannai-Ito, Algebraic Combinatorics I, 2.2).
    """
    n, b = dom.n, dom.base_index
    if _orbits(perms, (n,)).any():
        raise NotASchemeError("the automorphisms are not transitive on the domain")
    lab = _orbits(perms[perms[:, b] == b], (n,))
    if int((lab == np.arange(n)).sum()) != d1:
        raise NotASchemeError("the classes of the base row are not the orbits of its stabilizer")


def cross_ratio_scheme(dom, table, points):
    """The scheme on the pairs of PG(1,q) read off `table`, a (q+1) x (q+1)
    table t of field codes, zero exactly on the diagonal, and proved by
    `points`, permutation arrays of PG(1,q).  Pairs {a, b} and {c, d} get
    the code 2 - z for z > 0 zeros among t[a, c], t[b, d], t[a, d] and
    t[b, c] (shared points; z = 2 exactly on the diagonal), else 2 + the
    lesser rank of r and 1/r for the cross-ratio r = t[a, c] t[b, d] /
    (t[a, d] t[b, c]), which swapping a and b, or c and d, inverts.

    Proof that each s in `points` keeps the codes, in O(q^2): with rho[a, c]
    = t[s a, s c] / t[a, c] off the diagonal, nu = rho[0] and nu[0] = kappa
    = nu[1] nu[2] / rho[1, 2], checked: kappa rho[a, c] = nu[a] nu[c] for
    all a != c.  So s scales t[a, c] by kappa mu[a] mu[c], mu = nu / kappa,
    keeping its zeros and every cross-ratio.  Lifted to pairs, `points`
    then certify the classes (`_orbit_certificate`).
    """
    fld, pg1 = dom.field, dom.plane.pg1
    q, MUL, INV = fld.q, fld.MUL, fld.INV
    t, points = np.asarray(table), np.asarray(points)
    off = ~np.eye(q + 1, dtype=bool)
    int_table = t.shape == off.shape and np.issubdtype(t.dtype, np.integer)
    if not int_table or t.min() < 0 or t.max() >= q or ((t != 0) != off).any():
        raise NotASchemeError("the table must hold field codes, zero exactly on the diagonal")
    if points.shape[1:] != (q + 1,) or (np.sort(points, axis=1) != np.arange(q + 1)).any():
        raise NotASchemeError("every generator must be a permutation array of PG(1,q)")
    rho = MUL[t[points[:, :, None], points[:, None]], INV[t]]
    nu = rho[:, 0].copy()
    nu[:, 0] = MUL[MUL[nu[:, 1], nu[:, 2]], INV[rho[:, 1, 2]]]
    if (MUL[nu[:, :1, None], rho] != MUL[nu[:, :, None], nu[:, None]])[:, off].any():
        raise NotASchemeError("a generator does not scale the table")

    lesser, mul = np.minimum(fld.RANK, fld.RANK[INV]), MUL.ravel()
    c, d = pg1.pairs.T

    def codes(xs):
        # u[c] = t[a, c] / t[b, c] is zero exactly at c = a and c = b, as
        # INV[0] = 0, so z counts the zeros of u[c] and u[d], and r = u[c] / u[d]
        a, b = pg1.pairs[xs].T
        u = MUL[t[a], INV[t[b]]].astype(np.intp)
        uc, ud = u.take(c, axis=1), u.take(d, axis=1)
        zeros = (uc == 0).astype(np.int8) + (ud == 0)
        return np.where(zeros > 0, 2 - zeros, 2 + lesser.take(mul.take(uc * q + INV.take(ud))))

    row = codes(slice(0, 1))[0]
    remap, first = _renumber_first_occurrence(row, int(row.max()) + 1)
    _orbit_certificate(pg1.pair_images(points), dom, len(first))
    return Scheme._from_rows(dom, lambda xs: remap[codes(xs)], "cross-ratio", remap[row])


def orbital_scheme(perms, dom):
    """Scheme of the diagonal action on ordered pairs, from orbit labels.

    `perms` are permutation arrays of the domain for a generating set of
    the acting group, which must be transitive on the domain.  Classes
    are the orbits on the entries (x, y) of the n x n matrix.  The
    diagonal is one orbit exactly when the group is transitive on the
    domain, and then every orbit meets row 0, so each label is the
    column of its orbit's least pair in row 0 and numbering row 0 by
    first occurrence numbers the classes by least pair.  `_orbits` is
    exact for permutations, checked here, so this proves the result.
    It holds three int64 n x n label arrays, about 1.6 GB at q = 127, so
    it raises DomainSizeError above MAX_DEFAULT_Q.
    """
    if dom.field.q > MAX_DEFAULT_Q:
        raise DomainSizeError(f"the generic path stops at q = {MAX_DEFAULT_Q}, not q = {dom.field.q}")
    n = dom.n
    perms = np.asarray(perms)
    if perms.shape[1:] != (n,) or (np.sort(perms, axis=1) != np.arange(n)).any():
        raise ValueError("every generator must be a permutation array of the domain")
    lab = _orbits([np.ix_(p, p) for p in perms], (n, n))
    if np.diagonal(lab).any():
        raise NotTransitiveError("the generated group is not transitive on the domain")
    remap, _ = _renumber_first_occurrence(lab[0], n)
    return Scheme._from_rows(dom, remap[lab], "orbits")


def _group_order(perms):
    """Order of the group that the permutation arrays `perms` generate:
    products of generators with the elements found so far, by closure."""
    m = perms.shape[1]
    frontier = np.arange(m, dtype=perms.dtype)[None]
    seen = {frontier[0].tobytes()}
    while len(frontier):
        fresh = {e.tobytes(): e for e in perms[:, frontier].reshape(-1, m)}
        frontier = np.array([e for key, e in fresh.items() if key not in seen]).reshape(-1, m)
        seen.update(fresh)
    return len(seen)


def orbital_scheme_via_stabilizer(fld, gid, dom):
    """The scheme of group `gid` on a domain, from the orbits of the
    stabilizer of its base element b, the pair {0, oo} in each model, and
    one transporter T_x per element x, with exact parameters and no n x n
    matrix.  The matrix, whose row x is the base row read at T_x, is
    filled one row block at a time the first time something reads it,
    byte-identical to ``orbital_scheme`` for the same action.  Every step
    but the last runs on pairs, whatever the domain.

    Proof.  G is the set of maps that `moebius.in_group` accepts, of order
    `moebius.group_order`.  These checks raise NotASchemeError:
      1. every generator and every transporter is in G;
      2. T_x(x) = b for every pair x, so G is transitive on the pairs and
         its stabilizer G_b has order |G| / n (checked by moving the two
         points of each x alone, `moebius.point_images`, once per field:
         `GF.memo` keeps the transporters only if they pass);
      3. the generators that fix b generate a group H of order |G| / n,
         counted by closure on their permutations of PG(1,q), on which
         PGammaL(2,q) acts faithfully; H lies in G_b, so H = G_b;
      4. L, the `_orbits` of H on the pairs, labels the G_b-orbits;
      5. the generators are transitive on the pairs, so, as they generate
         H = G_b, they generate G, and they move a plane domain
         (`moebius.generator_perms`) as they move the pairs.
    A pair (x, y) goes by T_x to (b, T_x(y)), and (b, z), (b, z') lie in
    one orbital of G exactly when G_b moves z to z', so R(x, y) = L[T_x(y)]
    is the orbital partition of G on the pairs, a scheme whose parameters,
    read at any pair of a class, are exact (Bannai-Ito, Algebraic
    Combinatorics I, 2.2).  Two transporters of x differ by an element of
    G_b, under which L is constant, so every choice gives this R; each
    group takes the `psl` ones of `moebius.transporters_to_base`, which
    lie in every group here.  G acts on the plane domains through `rho`, a
    homomorphism (checked in the test suite), and two actions that agree
    on generators agree on G, so by step 5 this is the scheme on every
    domain.  Classes are numbered by first occurrence in row 0
    (`_renumber_first_occurrence`), as every builder numbers them, and
    T_b lies in G_b, so L numbered so is the base row.  The scheme's row
    reader lifts the transporters of the rows xs to pairs, reading the
    base row through labels[pair_table], and `Scheme._from_rows` reads
    the parameters through it, taking row 0 from the numbering.
    """
    pg1 = dom.plane.pg1
    n, base = dom.n, dom.base_index

    def reaching():
        transporters = mo.transporters_to_base(fld, pg1.pairs)
        ends = mo.point_images(fld, transporters, pg1.pairs)
        if (pg1.pair_table[ends[:, 0], ends[:, 1]] != base).any():
            raise NotASchemeError("a transporter does not reach the base element")
        return transporters.astype(np.int16)  # every code and exponent is below gf.MAX_Q

    gens, transporters = mo.generators(fld, gid), fld.memo("psl transporters", reaching)
    if not (mo.in_group(fld, gens, gid).all() and mo.in_group(fld, transporters, gid).all()):
        raise NotASchemeError(f"a generator or a transporter is not in {gid}")

    def lift(maps, table=None):
        return pg1.pair_images(mo.point_perms(fld, maps), table)

    points = mo.point_perms(fld, gens)
    perms = pg1.pair_images(points)
    fixing = perms[:, base] == base
    if _group_order(points[fixing]) * n != mo.group_order(fld, gid):
        raise NotASchemeError("the generators fixing the base element miss part of its stabilizer")
    lab = _orbits(perms[fixing], (n,))

    if _orbits(perms, (n,)).any():
        raise NotASchemeError("the generators are not transitive on the pairs")
    if dom.kind != "pairs" and not np.array_equal(mo.generator_perms(gid, dom), perms):
        raise NotASchemeError(f"the generators move the {dom.kind} domain unlike the pairs")

    row0 = lab[lift(transporters[:1])[0]]
    remap, _ = _renumber_first_occurrence(row0, n)
    table = remap[lab][pg1.pair_table]
    return Scheme._from_rows(dom, lambda xs: lift(transporters[xs], table), "orbits", remap[row0])


def triangular_scheme(dom):
    """T(q+1), the orbital scheme of the symmetric group of PG(1,q) on
    pairs: the cross-ratio scheme of the table of 1s off the diagonal,
    which every point permutation keeps, certified by (0 1), (0 1 ... q)
    and the base pair stabilizer's generators (0 q), (1 2), (1 2 ... q-1)."""
    q = dom.field.q
    points = np.tile(np.arange(q + 1), (5, 1))
    points[0, [0, q]] = [q, 0]
    points[1, [1, 2]] = [2, 1]
    points[2, 1:q] = np.roll(points[2, 1:q], -1)
    points[3, [0, 1]] = [1, 0]
    points[4] = np.roll(points[4], -1)
    return cross_ratio_scheme(dom, 1 - np.eye(q + 1, dtype=np.intp), points)


def group_orbital_scheme(fld, gid, dom):
    """Generic-path scheme of one of the named groups on a domain."""
    return orbital_scheme(mo.generator_perms(gid, dom), dom)


# -- comparisons and fusions -----------------------------------------------------------


def partition_bijection(A, B):
    """Class bijection if A and B define the same pair partition, else None.

    With equal class counts, B is a fusion of A exactly when the two
    partitions agree, and the fusion map is then a bijection."""
    if A.d != B.d:
        return None
    return fusion_map(B, A)


def _fuses_onto(coarse, fine, part):
    """Whether part[fine] is the coarse matrix, compared one row block of
    both at a time (`Scheme.row_blocks`) and in the coarse dtype, so
    neither matrix is filled and the fused copy is one block."""
    if part.min() < 0 or part.max() > coarse.d:
        return False
    blocks = zip(fine.row_blocks(), coarse.row_blocks())
    return all(np.array_equal(part.astype(c.dtype)[f], c) for (_, _, f), (_, _, c) in blocks)


def fusion_map(coarse, fine):
    """Map fine classes onto coarse classes, or None if not a refinement.

    One comparison of the coarse matrix with the fine one fused along
    the coarse classes of the fine representatives.  As both schemes are
    proven, a map returned here makes coarse a fusion scheme of fine:
    R_C = f(R_F) on every pair, so the transpose of each block is the
    block of a transposed coarse class, and the fused sums of fine's
    intersection numbers are coarse's, which are constant."""
    if coarse.n != fine.n:
        return None
    part = coarse.row(0)[[y for _, y in fine.class_reps]].astype(np.int64)
    return part if _fuses_onto(coarse, fine, part) else None


def _partition(fine, partition):
    """`partition` (fine class -> block) as an int64 array, ValueError
    unless it has one entry for each class of `fine`."""
    part = np.asarray(partition, dtype=np.int64)
    if part.shape != (fine.d + 1,):
        raise ValueError("partition must assign every fine class")
    return part


def is_fusion(coarse, fine, partition):
    """Whether a caller's `partition` (fine class -> coarse class)
    reproduces the coarse relations from the fine ones exactly, which,
    as both schemes are proven, realizes coarse as a fusion scheme of
    fine (see `fusion_map`).  A `partition` of None, which `fusion_map`
    returns when fine does not refine coarse, is no fusion.
    """
    return partition is not None and _fuses_onto(coarse, fine, _partition(fine, partition))


def _is_admissible(fine, part):
    """Whether class 0 forms a block of `part` alone and the transposes
    of the classes of each block form a block: if the block B' of t(i)
    depends only on the block B of i, the involution t maps B onto B'."""
    if part[0] != 0 or int((part == 0).sum()) != 1:
        return False
    t = fine.transpose_map
    assert np.array_equal(t[t], np.arange(fine.d + 1)), "the transpose map is an involution"
    _, first, blocks = np.unique(part, return_index=True, return_inverse=True)
    return bool(np.array_equal(blocks[t], blocks[t[first[blocks]]]))


def _sums_are_constant(fine, part):
    """Whether fusing the classes of the scheme `fine` along `part` gives
    constant intersection numbers: for all coarse classes I, J, K, the
    sum of p^k_ij over i in I, j in J is the same for every k in K
    (Bannai-Ito, Algebraic Combinatorics I, 2.2).  The sums are read off
    the fine p-tensor, so no pair of the coarse matrix is sampled."""
    _, first, blocks = np.unique(part, return_index=True, return_inverse=True)
    E = np.zeros((fine.d + 1, len(first)), dtype=np.int64)
    E[np.arange(fine.d + 1), blocks] = 1
    sums = E.T @ fine.p_tensor() @ E
    return bool(np.array_equal(sums, sums[first[blocks]]))


def fuse(fine, partition):
    """The fused scheme, whose rows are the rows of `fine` read through the
    partition, so no matrix is filled.  NotASchemeError unless the
    partition is admissible with constant fused intersection numbers,
    which proves the fusion of the proven scheme `fine` a scheme."""
    part = _partition(fine, partition)
    if not _is_admissible(fine, part):
        raise NotASchemeError("the partition is not admissible")
    if not _sums_are_constant(fine, part):
        raise NotASchemeError("the fused intersection numbers are not constant")
    remap, _ = _renumber_first_occurrence(part[fine.row(0)], int(part.max()) + 1)
    fused = remap[part]
    return Scheme._from_rows(fine.domain, lambda xs: fused[fine._rows(xs)], "fusion")


# -- P-polynomial structure ----------------------------------------------------------


def _class_distances_form_a_path(P, c):
    """The classes in the order in which breadth-first search over classes
    meets them, stepping from class i to every unseen class j with
    P[j, i, c] > 0, if it meets one class per layer and reaches all of
    them; else None."""
    seen = np.zeros(P.shape[0], dtype=bool)
    order, nxt = [], np.array([0])
    while len(nxt) == 1:
        order.append(int(nxt[0]))
        seen[nxt] = True
        nxt = np.flatnonzero((P[:, nxt[0], c] > 0) & ~seen)
    return order if len(nxt) == 0 and seen.all() else None


def p_polynomial_orderings(S):
    """All symmetric classes whose graph realizes S as its distance scheme.

    Returns a list of dicts with the generating relation, the induced
    class ordering, and the intersection array ({b_0..b_{d-1}}, {c_1..c_d}).
    Empty list means the scheme is not P-polynomial.

    P-polynomiality is a property of the intersection numbers (Bannai-Ito,
    Algebraic Combinatorics I, III.1.1), read here off the p-tensor, exact
    as S is proven.  A symmetric class c qualifies exactly when the class
    search of `_class_distances_form_a_path` meets one class per layer,
    k_0 = 0, k_1 = c, ..., k_d.  Suppose k_0..k_e are the relations of
    distance 0..e in the graph of c.  A pair at distance e + 1 has a z at
    distance e from its first point and adjacent to its second, so its
    class j is unseen with p^j_(k_e, c) > 0: it lies in layer e + 1, which
    is {k_(e+1)}.  Conversely p^(k_(e+1))_(k_e, c) > 0 on every pair of
    class k_(e+1), as P is exact, so each such pair is at distance at most
    e + 1, and not at most e, as k_(e+1) is none of k_0..k_e.  So by
    induction k_e is the distance-e relation for every e, and a search
    that reaches every class has found the distance partition; if S is
    P-polynomial for c, the same argument shows the search meets its
    distance classes one per layer.
    """
    out = []
    P = S.p_tensor()
    for c in range(1, S.d + 1):
        order = _class_distances_form_a_path(P, c) if S.transpose_map[c] == c else None
        if order is None:
            continue
        bs = [int(P[order[e], c, order[e + 1]]) for e in range(S.d)]
        cs = [int(P[order[e], c, order[e - 1]]) for e in range(1, S.d + 1)]
        out.append({"relation": c, "ordering": order, "intersection_array": (bs, cs)})
    return out
