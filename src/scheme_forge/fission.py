"""Named fission schemes of the triangular scheme T(q+1) on PG(1,q).

The four groups of the lattice each split the 2-class triangular scheme
on pairs of points into a finer orbital scheme:

  * the full linear fractional group: classes indexed by cross-ratio
    values up to inversion (the fission scheme FT(q+1), built here
    directly from cross-ratios with no group enumeration);
  * its square-determinant subgroup: some cross-ratio classes split in
    two, tracked by Gamma labels with a +/- superscript;
  * the twisted sharply 3-transitive group (q an even power of an odd
    prime): Delta labels, fusing Gamma classes along the involutory
    field automorphism;
  * the full semilinear group: Lambda labels, fusing along all of
    Aut(GF(q)) and inversion.

Every closed-form labeling below is treated as a prediction and checked
against the actual orbit computation; the verifiers return TheoremReport
records with the predicted and computed values side by side.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import moebius as mo
from . import schemes as sc
from .geometry import Plane, domain
from .gf import field


class TheoremViolationError(RuntimeError):
    """A verified structural claim failed; signals an implementation bug."""


@dataclass
class TheoremReport:
    theorem_id: str
    q: int
    predicted: object
    computed: object
    passed: bool
    elapsed: float = 0.0
    note: str = ""

    def to_dict(self):
        return {
            "theorem": self.theorem_id,
            "q": self.q,
            "predicted": self.predicted,
            "computed": self.computed,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "note": self.note,
        }


@dataclass(frozen=True)
class RelationLabel:
    """Symbolic tag for a relation class.

    kind is one of "diagonal", "share" (pairs meeting in a point),
    "harmonic" (cross-ratio -1) or "ratio"; for ratio classes `orbit`
    holds the full set of cross-ratio codes collapsed into the class and
    `rep` its least member in canonical order.  `sign` is +1/-1 for the
    halves of a split class, 0 otherwise.
    """

    family: str
    kind: str
    rep: int | None = None
    sign: int = 0
    orbit: tuple = ()

    def key(self):
        return (self.kind, self.rep, self.sign)

    def text(self, fld):
        sub = {"diagonal": "0", "share": "1", "harmonic": "-1"}.get(self.kind)
        if sub is None:
            sub = repr(fld.element_from_code(self.rep))
            if " " in sub:
                sub = f"({sub})"
        sup = {1: "^+", -1: "^-", 0: ""}[self.sign]
        return f"{self.family}_{sub}{sup}"


# -- plane/domain caches -----------------------------------------------------------
# Kept on the field object itself, so each lives exactly as long as its
# field and can never be handed to a later field that reuses its id().
# A domain is O(n) arrays plus, on the plane domains, a q^3 lookup table.


def plane_for(fld):
    if not hasattr(fld, "_plane"):
        fld._plane = Plane(fld)
    return fld._plane


def domain_for(fld, kind):
    """The enumerated domain of this kind over the field, built once."""
    if not hasattr(fld, "_domains"):
        fld._domains = {}
    if kind not in fld._domains:
        fld._domains[kind] = domain(plane_for(fld), kind)
    return fld._domains[kind]


# -- the build memo of one verify_paper call ------------------------------------------


def _memoized(fld, key, build):
    """The scheme `build()` returns, reused while the key repeats.

    While verify_paper runs the reports of one q, the field carries a
    one-entry memo, removed when those reports end, so the process-wide
    field cache never keeps a matrix alive; elsewhere this is `build()`.
    `key` is (builder, gid, domain kind, check).  The held scheme is
    returned when its key equals `key`; otherwise it is dropped *before*
    `build` runs, so no memoized matrix is alive while another scheme is
    built and peak memory cannot rise.  A hit returns the same object,
    p-tensor included: the reports only read the schemes they are given.
    """
    memo = getattr(fld, "_build_memo", None)
    if memo is None:
        return build()
    if key in memo:
        return memo[key]
    memo.clear()
    memo[key] = scheme = build()
    return scheme


def _ft(fld):
    return _memoized(fld, ("ft", None, "pairs", True), lambda: build_ft(fld))


def _generic(fld, gid, kind):
    """Generic-path scheme of a group on a domain, through the memo."""
    return _memoized(
        fld,
        ("generic", gid, kind, True),
        lambda: sc.group_orbital_scheme(fld, gid, domain_for(fld, kind)),
    )


def _triangular(fld):
    return _memoized(
        fld, ("t", None, "pairs", True), lambda: sc.triangular_scheme(domain_for(fld, "pairs"))
    )


# -- FT(q+1): the cross-ratio fission of the triangular scheme ----------------------


def build_ft(fld, check=True, allow_large=False):
    """The cross-ratio fission scheme on pairs, built with no group at all.

    Pairs meeting in a point are related by the "share" class; disjoint
    pairs by the unordered cross-ratio class {r, 1/r}.  Each pair x gets
    the code 0 against itself, 1 against a pair it meets and 2 + the rank
    of the lesser of r, 1/r otherwise, computed for a block of rows at a
    time (`schemes._row_blocks`).  The codes of row 0 are numbered by
    first occurrence, which numbers the classes by least pair, and every
    block is written straight into the final matrix; labels attached.
    With `check`, the `pgl` generators certify the matrix.
    """
    dom = domain_for(fld, "pairs")
    sc._guard_size(dom, allow_large)
    n = dom.n
    q = fld.q
    MUL, ADD, NEG, INV, RANK = fld.MUL, fld.ADD, fld.NEG, fld.INV, fld.RANK

    # homogeneous coordinates of the two points of every pair
    homog = np.zeros((q + 1, 2), dtype=np.int32)
    homog[:q, 0] = fld.BY_RANK
    homog[:q, 1] = 1
    homog[q] = (1, 0)
    z, w = homog[dom.plane.pg1.pairs[:, 0]], homog[dom.plane.pg1.pairs[:, 1]]

    def codes(r0, r1):
        def det(u, v):
            # u[i] . v[j] determinants of rows r0..r1 of u against all of v
            return ADD[MUL[u[r0:r1, 0, None], v[:, 1]], NEG[MUL[u[r0:r1, 1, None], v[:, 0]]]]

        num = MUL[det(z, z), det(w, w)]
        den = MUL[det(z, w), det(w, z)]
        c = MUL[num, INV[den]]
        out = 2 + np.minimum(RANK[c], RANK[INV[c]])
        out[(num == 0) | (den == 0)] = 1
        out[np.arange(r1 - r0), np.arange(r0, r1)] = 0
        return out

    remap, _ = sc._renumber_first_occurrence(codes(0, 1)[0], q + 2)
    M = np.empty((n, n), dtype=remap.dtype)
    for r0, r1 in sc._row_blocks(n, n):
        M[r0:r1] = remap[codes(r0, r1)]
    perms = mo.domain_perms(mo.coefficients(mo.generators(fld, "pgl")), dom)
    return label_scheme(fld, "pgl", sc.Scheme(M, domain=dom, check=check, automorphisms=perms))


def _ft_label_of_pair(fld, pair):
    """Label of the relation holding between {0, oo} and `pair`."""
    lab = psl_orbit_label(fld, pair)
    sign0 = RelationLabel("R", lab.kind, lab.rep, 0, lab.orbit)
    return sign0


def _labels_from_base_row(fld, M, dom, label_of_pair):
    """Class labels read off the row of the base pair {0, oo}.

    Every pair y is labeled in closed form against the base pair; the
    labels must partition the row exactly as the matrix does, one label
    per class and every class labeled, or TheoremViolationError is
    raised.
    """
    labels = [None] * (int(M.max()) + 1)
    seen = {}
    for k, pair in zip(M[dom.base_index].tolist(), dom.plane.pg1.pairs.tolist()):
        lab = label_of_pair(fld, tuple(pair))
        if labels[k] is None:
            if lab.key() in seen:
                raise TheoremViolationError(
                    f"label {lab} appears in two distinct computed orbits"
                )
            labels[k] = lab
            seen[lab.key()] = k
        elif labels[k].key() != lab.key():
            raise TheoremViolationError(
                f"computed orbit {k} mixes labels {labels[k]} and {lab}"
            )
    if any(l is None for l in labels):
        raise TheoremViolationError("some class has no representative at the base pair")
    return labels


def ft_equals_orbital(fld):
    """Whether the cross-ratio construction equals the group-orbital one,
    under a unique relabeling of classes."""
    ft = _ft(fld)
    orb = _generic(fld, "pgl", "pairs")
    return sc.partition_bijection(ft, orb) is not None


def triangular_partition(ft):
    """Fusion map from FT(q+1) classes onto the 2-class triangular scheme."""
    part = np.empty(ft.d + 1, dtype=np.int64)
    for k, lab in enumerate(ft.labels):
        if lab.kind == "diagonal":
            part[k] = 0
        elif lab.kind == "share":
            part[k] = 1
        else:
            part[k] = 2
    return part


# -- closed-form orbit labelings -----------------------------------------------------


def _pair_values(fld, pair):
    """Decode a position pair to field codes, None standing for infinity."""
    q = fld.q
    i, j = pair
    a = None if i == q else int(fld.BY_RANK[i])
    b = None if j == q else int(fld.BY_RANK[j])
    return a, b


def psl_orbit_label(fld, pair):
    """Predicted square-determinant-subgroup orbit label of a pair.

    Implements the closed-form case split: pairs through 0 or infinity
    split by square class (crossed when q = 3 mod 4), pairs {t, -t}
    split only when -1 is a square, and ratio classes {t, r*t} split
    exactly when -1/r is a square.
    """
    a, b = _pair_values(fld, pair)
    q = fld.q
    q1mod4 = q % 4 == 1
    if a == 0 and b is None:
        return RelationLabel("Γ", "diagonal")
    if b is None or a == 0:
        # exactly one of 0, infinity is in the pair
        xi = b if a == 0 else a
        at_infinity = b is None
        s = fld.is_square(xi)
        if q1mod4:
            sign = 1 if s else -1
        else:
            sign = (1 if s else -1) if not at_infinity else (-1 if s else 1)
        return RelationLabel("Γ", "share", sign=sign)
    # both finite and nonzero
    if b == fld.neg(a):
        if q1mod4:
            return RelationLabel("Γ", "harmonic", sign=1 if fld.is_square(a) else -1)
        return RelationLabel("Γ", "harmonic", sign=0)
    r = fld.div(b, a)
    rinv = fld.inv(r)
    rep, base = (r, a) if fld.rank(r) <= fld.rank(rinv) else (rinv, b)
    orbit = tuple(sorted({r, rinv}, key=fld.rank))
    minus_inv_r = fld.neg(fld.inv(rep))
    if fld.is_square(minus_inv_r):
        return RelationLabel("Γ", "ratio", rep, 1 if fld.is_square(base) else -1, orbit)
    return RelationLabel("Γ", "ratio", rep, 0, orbit)


def m_orbit_label(fld, pair):
    """Predicted twisted-group orbit label: Gamma classes fused along the
    involutory automorphism."""
    gamma = psl_orbit_label(fld, pair)
    if gamma.kind in ("diagonal", "share", "harmonic"):
        return RelationLabel("Δ", gamma.kind)
    r = gamma.rep
    sig = fld.sigma(r)
    orbit = {r, fld.inv(r), sig, fld.inv(sig)}
    rep = min(orbit, key=fld.rank)
    orbit = tuple(sorted(orbit, key=fld.rank))
    if not fld.is_square(r):
        return RelationLabel("Δ", "ratio", rep, 0, orbit)
    if sig == r or sig == fld.inv(r):
        return RelationLabel("Δ", "ratio", rep, 0, orbit)
    # split class: the half containing Gamma^+ of the least pair keeps +
    sign = gamma.sign if gamma.rep in (rep, fld.inv(rep)) else -gamma.sign
    return RelationLabel("Δ", "ratio", rep, sign, orbit)


def pgammal_orbit_label(fld, pair):
    """Predicted semilinear-group orbit label: ratio classes collapse to
    orbits of the group generated by Frobenius and inversion."""
    a, b = _pair_values(fld, pair)
    q = fld.q
    if a == 0 and b is None:
        return RelationLabel("Λ", "diagonal")
    if b is None or a == 0:
        return RelationLabel("Λ", "share")
    if b == fld.neg(a):
        return RelationLabel("Λ", "harmonic")
    r = fld.div(b, a)
    orbit = set()
    for j in range(fld.m):
        t = fld.frobenius(r, j)
        orbit.add(t)
        orbit.add(fld.inv(t))
    rep = min(orbit, key=fld.rank)
    return RelationLabel("Λ", "ratio", rep, 0, tuple(sorted(orbit, key=fld.rank)))


def count_pgammal_classes(fld):
    """Direct count of semilinear classes: 2 + the number of orbits of
    <Frobenius, inversion> on the nonzero field elements other than +-1."""
    q = fld.q
    left = set(range(1, q)) - {1, fld.neg(1)}
    orbits = 0
    while left:
        r = left.pop()
        stack = [r]
        while stack:
            t = stack.pop()
            for u in [fld.inv(t)] + [fld.frobenius(t, j) for j in range(fld.m)]:
                if u in left:
                    left.remove(u)
                    stack.append(u)
        orbits += 1
    return 2 + orbits


# -- labeled scheme builders ----------------------------------------------------------


def _m_theorems(fld, S):
    """Orbit bookkeeping of the twisted-group scheme."""
    q = fld.q
    root = _int_sqrt(q)
    split = [k for k, l in enumerate(S.labels) if l.kind == "ratio" and l.sign != 0]
    tclasses = [
        k
        for k, l in enumerate(S.labels)
        if l.kind == "ratio" and l.sign == 0 and not fld.is_square(l.rep)
    ]
    if len(split) != (root - 3) * (root - 1) // 4:
        raise TheoremViolationError(
            f"expected {(root - 3) * (root - 1) // 4} split ratio classes, got {len(split)}"
        )
    if len(tclasses) != (q - 1) // 8:
        raise TheoremViolationError(
            f"expected {(q - 1) // 8} non-square ratio classes, got {len(tclasses)}"
        )
    for k in split:
        if S.valencies[k] != q - 1:
            raise TheoremViolationError("split ratio classes must have valency q-1")
    for k in tclasses:
        if S.valencies[k] != 2 * (q - 1):
            raise TheoremViolationError("non-square ratio classes must have valency 2(q-1)")
    if q > 9 and S.d != (3 * q + 5) // 8:
        raise TheoremViolationError(f"class count {S.d} != (3q+5)/8 = {(3 * q + 5) // 8}")


def _pgammal_theorems(fld, S):
    if not S.is_symmetric():
        raise TheoremViolationError("the semilinear-group scheme must be symmetric")
    if S.d != count_pgammal_classes(fld):
        raise TheoremViolationError("class count disagrees with the direct orbit count")


# group id -> (label of a pair against {0, oo}, theorem check or None)
GROUP_SCHEMES = {
    "pgl": (_ft_label_of_pair, None),
    "psl": (psl_orbit_label, None),
    "m": (m_orbit_label, _m_theorems),
    "pgammal": (pgammal_orbit_label, _pgammal_theorems),
}


def label_scheme(fld, gid, S):
    """Attach the closed-form labels of group `gid` to its scheme on pairs
    and run the group's theorem check; TheoremViolationError if the
    labels or the theorems disagree with the relation matrix."""
    label_of_pair, theorems = GROUP_SCHEMES[gid]
    S.labels = _labels_from_base_row(fld, S.relation_matrix, S.domain, label_of_pair)
    if theorems is not None:
        theorems(fld, S)
    return S


def _labeled_scheme(fld, gid, check=True, allow_large=False):
    """Stabilizer-path scheme of a group on pairs, labeled and checked."""
    dom = domain_for(fld, "pairs")
    S = sc.orbital_scheme_via_stabilizer(fld, gid, dom, check=check, allow_large=allow_large)
    return label_scheme(fld, gid, S)


def _group_scheme(fld, gid, check, allow_large):
    return _memoized(
        fld, ("labeled", gid, "pairs", check), lambda: _labeled_scheme(fld, gid, check, allow_large)
    )


def pgl_scheme(fld, check=True, allow_large=False):
    """The full fractional-linear group scheme, labeled by cross-ratio."""
    return _group_scheme(fld, "pgl", check, allow_large)


def psl_scheme(fld, check=True, allow_large=False):
    return _group_scheme(fld, "psl", check, allow_large)


def m_scheme(fld, check=True, allow_large=False):
    """The twisted-group scheme with Delta labels and orbit bookkeeping."""
    return _group_scheme(fld, "m", check, allow_large)


def pgammal_scheme(fld, check=True, allow_large=False):
    return _group_scheme(fld, "pgammal", check, allow_large)


def _int_sqrt(q):
    r = int(round(q**0.5))
    if r * r != q:
        raise ValueError(f"{q} is not a square")
    return r


def psl_class_count_formula(q):
    return (3 * q + 5) // 4 if q % 4 == 1 else (3 * q + 3) // 4


# -- theorem verifiers -----------------------------------------------------------------


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def report_psl_class_count(fld):
    q = fld.q
    predicted = {"classes": psl_class_count_formula(q), "symmetric": False}

    def run():
        S = psl_scheme(fld)
        return {"classes": S.d, "symmetric": S.is_symmetric()}

    computed, dt = _timed(run)
    return TheoremReport("psl-class-count", q, predicted, computed, predicted == computed, dt)


def report_m_class_count(fld):
    q = fld.q
    predicted = {"classes": (3 * q + 5) // 8, "symmetric": q == 9}

    def run():
        S = m_scheme(fld)
        return {"classes": S.d, "symmetric": S.is_symmetric()}

    computed, dt = _timed(run)
    return TheoremReport("m-class-count", q, predicted, computed, predicted == computed, dt)


def report_m9_octagon():
    fld = field(9)
    predicted = {
        "n": 45,
        "symmetric": True,
        "p_polynomial": True,
        "intersection_array": ([4, 2, 2, 2], [1, 1, 1, 2]),
    }

    def run():
        S = m_scheme(fld)
        orders = sc.p_polynomial_orderings(S)
        arrays = [o["intersection_array"] for o in orders]
        return {
            "n": S.n,
            "symmetric": S.is_symmetric(),
            "p_polynomial": bool(orders),
            "intersection_array": arrays[0] if arrays else None,
        }

    computed, dt = _timed(run)
    return TheoremReport("m9-octagon", 9, predicted, computed, predicted == computed, dt)


def report_commutativity(fld):
    q = fld.q
    predicted = {
        9: {"symmetric": True, "commutative": True},
        25: {"symmetric": False, "commutative": True},
        49: {"symmetric": False, "commutative": False},
        81: {"symmetric": False, "commutative": False},
    }[q]

    def run():
        S = m_scheme(fld)
        return {"symmetric": S.is_symmetric(), "commutative": S.is_commutative()}

    computed, dt = _timed(run)
    return TheoremReport("m-commutativity", q, predicted, computed, predicted == computed, dt)


def report_ft(fld):
    q = fld.q
    predicted = {
        "classes": (q + 1) // 2,
        "share_valency": 2 * (q - 1),
        "harmonic_valency": (q - 1) // 2,
        "ratio_valency": q - 1,
        "equals_orbital": True,
        "symmetric": True,
    }

    def run():
        ft = _ft(fld)
        v = {lab.kind: int(ft.valencies[k]) for k, lab in enumerate(ft.labels) if k}
        return {
            "classes": ft.d,
            "share_valency": v.get("share"),
            "harmonic_valency": v.get("harmonic"),
            "ratio_valency": v.get("ratio"),
            "equals_orbital": ft_equals_orbital(fld),
            "symmetric": ft.is_symmetric(),
        }

    computed, dt = _timed(run)
    return TheoremReport("ft-cross-ratio", q, predicted, computed, predicted == computed, dt)


def report_pgammal(fld):
    q = fld.q
    expected_classes = {9: 4, 25: 9, 49: 16}.get(q, count_pgammal_classes(fld))
    predicted = {"classes": expected_classes, "symmetric": True, "count_agrees": True}
    if q in (9, 25, 49):
        predicted["p_polynomial"] = q == 9

    def run():
        S = pgammal_scheme(fld)
        out = {
            "classes": S.d,
            "symmetric": S.is_symmetric(),
            "count_agrees": S.d == count_pgammal_classes(fld),
        }
        if q in (9, 25, 49):
            orders = sc.p_polynomial_orderings(S)
            out["p_polynomial"] = bool(orders)
        return out

    computed, dt = _timed(run)
    return TheoremReport("pgammal-class-count", q, predicted, computed, predicted == computed, dt)


def report_transpose_rules(fld):
    """Check the transpose pairings of the split classes against the
    square-class criteria, and record which reading of the superscript
    the computation supports."""
    q = fld.q
    S = psl_scheme(fld)
    t0 = time.perf_counter()
    tmap = S.transpose_map
    by_key = {lab.key(): k for k, lab in enumerate(S.labels)}

    def partner(k):
        lab = S.labels[k]
        return by_key.get((lab.kind, lab.rep, -lab.sign))

    details = {}
    ok = True
    if q % 4 == 1:
        kplus = by_key[("harmonic", None, 1)]
        paired_pred = not fld.is_square(fld.add(1, 1))
        paired_comp = bool(tmap[kplus] == partner(kplus))
        details["harmonic_pair_iff_2_nonsquare"] = {
            "predicted": paired_pred,
            "computed": paired_comp,
        }
        ok = ok and paired_pred == paired_comp
    else:
        kplus = by_key[("share", None, 1)]
        paired_comp = bool(tmap[kplus] == partner(kplus))
        details["share_pair_always"] = {"predicted": True, "computed": paired_comp}
        ok = ok and paired_comp

    split = [(k, lab) for k, lab in enumerate(S.labels) if lab.kind == "ratio" and lab.sign == 1]
    rules = {}
    for k, lab in split:
        one_minus = fld.sub(1, lab.rep)
        crit = not fld.is_square(one_minus) if q % 4 == 1 else fld.is_square(one_minus)
        paired = bool(tmap[k] == partner(k))
        rules[repr(fld.element_from_code(lab.rep))] = {
            "predicted": bool(crit),
            "computed": bool(paired),
        }
        ok = ok and crit == paired
    details["split_ratio_pair_iff_criterion"] = rules
    # a fired pairing always lands on the minus-sign half of the same
    # cross-ratio class, settling the superscript ambiguity
    details["superscript_reading"] = (
        "minus-sign partner within the same cross-ratio class" if ok else "unresolved"
    )

    # transposition never crosses cross-ratio labels
    for k, lab in enumerate(S.labels):
        lab2 = S.labels[int(tmap[k])]
        if (lab.kind, lab.rep) != (lab2.kind, lab2.rep):
            ok = False
            details["label_crossing"] = f"class {k} transposes across labels"
    dt = time.perf_counter() - t0
    predicted = {"all_rules_hold": True}
    computed = {"all_rules_hold": bool(ok)}
    return TheoremReport("transpose-rules", q, predicted, computed, bool(ok), dt, note=str(details))


def report_three_domain_isomorphism(fld, gid):
    """Build the scheme on pairs, on secant lines and on their poles with
    the native actions, and check the explicit bijections transport the
    relation matrices onto each other."""
    q = fld.q
    predicted = {"isomorphic": True}

    def run():
        built = [_generic(fld, gid, kind) for kind in ("pairs", "hyp-lines", "hyp-points")]
        maps = [sc.partition_bijection(built[0], built[i]) for i in (1, 2)]
        return {"isomorphic": all(m is not None for m in maps)}

    computed, dt = _timed(run)
    return TheoremReport(
        f"three-domain-isomorphism[{gid}]", q, predicted, computed, predicted == computed, dt
    )


def report_q9_fusion_diagram():
    """The three-row fusion diagram at q = 9, checked edge by edge."""
    fld = field(9)
    g = fld.primitive_element()
    g2 = fld.mul(g, g)
    g3 = fld.mul(g2, g)
    t0 = time.perf_counter()

    ft = _ft(fld)
    psl = psl_scheme(fld)
    msch = m_scheme(fld)
    pgl = pgammal_scheme(fld)
    tri = _triangular(fld)

    def ratio_rep(r):
        return min(r, fld.inv(r), key=fld.rank)

    ft_expected = {("diagonal", None), ("share", None), ("harmonic", None)} | {
        ("ratio", ratio_rep(r)) for r in (g, g2, g3)
    }
    ft_classes = {(l.kind, l.rep) for l in ft.labels}

    psl_split = sorted(
        lab.kind if lab.kind != "ratio" else f"ratio:{lab.rep}"
        for lab in psl.labels
        if lab.sign == 1
    )
    expected_split = sorted(["share", "harmonic", f"ratio:{ratio_rep(g2)}"])

    m_labels = {(l.kind, l.orbit) for l in msch.labels if l.kind == "ratio"}
    t_orbit = tuple(sorted({g, fld.inv(g), fld.sigma(g), fld.inv(fld.sigma(g))}, key=fld.rank))
    m_expected = {("ratio", (g2, fld.inv(g2)) if fld.rank(g2) <= fld.rank(fld.inv(g2)) else (fld.inv(g2), g2)), ("ratio", t_orbit)}
    m_expected = {(k, tuple(sorted(o, key=fld.rank))) for k, o in m_expected}

    edges = {
        "ft_fuses_psl": sc.is_fusion(ft, psl, sc.fusion_map(ft, psl)),
        "m_fuses_psl": sc.is_fusion(msch, psl, sc.fusion_map(msch, psl)),
        "m_fuses_ft": sc.is_fusion(msch, ft, sc.fusion_map(msch, ft)),
        "t_fuses_ft": sc.is_fusion(tri, ft, sc.fusion_map(tri, ft)),
    }
    computed = {
        "ft_classes": ft.d,
        "ft_label_set_ok": ft_classes == ft_expected,
        "psl_classes": psl.d,
        "psl_split_ok": psl_split == expected_split,
        "m_nontrivial_classes": msch.d,
        "m_ratio_labels_ok": m_labels == m_expected,
        "pgammal_equals_m": bool(
            np.array_equal(pgl.relation_matrix, msch.relation_matrix)
        ),
        **{k: bool(v) for k, v in edges.items()},
    }
    predicted = {
        "ft_classes": 5,
        "ft_label_set_ok": True,
        "psl_classes": 8,
        "psl_split_ok": True,
        "m_nontrivial_classes": 4,
        "m_ratio_labels_ok": True,
        "pgammal_equals_m": True,
        "ft_fuses_psl": True,
        "m_fuses_psl": True,
        "m_fuses_ft": True,
        "t_fuses_ft": True,
    }
    dt = time.perf_counter() - t0
    return TheoremReport("q9-fusion-diagram", 9, predicted, computed, predicted == computed, dt)


def report_fusion_lattice(fld):
    """Every edge of the group lattice gives a fusion of schemes."""
    q = fld.q
    t0 = time.perf_counter()
    tri = _triangular(fld)
    ft = _ft(fld)
    psl = psl_scheme(fld)
    pgml = pgammal_scheme(fld)
    edges = {
        "t_fuses_ft": sc.is_fusion(tri, ft, sc.fusion_map(tri, ft)),
        "ft_fuses_psl": sc.is_fusion(ft, psl, sc.fusion_map(ft, psl)),
        "pgammal_fuses_ft": sc.is_fusion(pgml, ft, sc.fusion_map(pgml, ft)),
        "pgammal_fuses_psl": sc.is_fusion(pgml, psl, sc.fusion_map(pgml, psl)),
    }
    if fld.m % 2 == 0:
        msch = m_scheme(fld)
        edges["m_fuses_psl"] = sc.is_fusion(msch, psl, sc.fusion_map(msch, psl))
        edges["pgammal_fuses_m"] = sc.is_fusion(pgml, msch, sc.fusion_map(pgml, msch))
    computed = {k: bool(v) for k, v in edges.items()}
    predicted = {k: True for k in edges}
    dt = time.perf_counter() - t0
    return TheoremReport("fusion-lattice", q, predicted, computed, predicted == computed, dt)


def report_geometry(fld):
    """Counting and polarity facts of the conic geometry."""
    q = fld.q
    t0 = time.perf_counter()
    pl = plane_for(fld)
    conic = pl.conic_points()
    lines = pl.all_lines()
    counts = {"hyperbolic": 0, "tangent": 0, "elliptic": 0}
    for l in lines:
        counts[pl.classify_line(l)] += 1
    no3 = True
    from itertools import combinations

    for A, B, C in combinations(conic, 3):
        l = pl.line_through(A, B)
        if pl.incident(C, l):
            no3 = False
            break
    perp_ok = True
    half = fld.inv(fld.add(1, 1))
    for i in range(q + 1):
        for j in range(i + 1, q + 1):
            P = pl.polarity_line_to_point(pl.hyperbolic_line_pos(i, j))
            # Q is evaluated on the closed-form representative of the pole,
            # since its value (unlike its square class) is not projective
            if j == q:
                xi = int(fld.BY_RANK[i])
                rep = (fld.mul(fld.add(1, 1), xi), 1, 0)
                expect_q = 1
            else:
                xi, ga = int(fld.BY_RANK[i]), int(fld.BY_RANK[j])
                h = fld.mul(fld.sub(ga, xi), half)
                rep = (fld.mul(ga, xi), fld.mul(fld.add(xi, ga), half), 1)
                expect_q = fld.mul(h, h)
            if P != pl.normalize(rep) or pl.quadratic_form(rep) != expect_q:
                perp_ok = False
    computed = {
        "conic_size": len(conic),
        "no_three_collinear": no3,
        "hyperbolic": counts["hyperbolic"],
        "tangent": counts["tangent"],
        "elliptic": counts["elliptic"],
        "perp_formulas": perp_ok,
    }
    predicted = {
        "conic_size": q + 1,
        "no_three_collinear": True,
        "hyperbolic": q * (q + 1) // 2,
        "tangent": q + 1,
        "elliptic": q * (q - 1) // 2,
        "perp_formulas": True,
    }
    dt = time.perf_counter() - t0
    return TheoremReport("geometry-counts", q, predicted, computed, predicted == computed, dt)


def report_embedding(fld):
    """det rho = det^3, equivariance of the conic parametrization, and
    conic preservation, over all generators and points."""
    q = fld.q
    t0 = time.perf_counter()
    pl = plane_for(fld)
    gens = mo.generators(fld, "pgammal")
    det_ok = equiv_ok = fix_ok = True
    conic = set(pl.conic_points())
    for g in gens:
        r = g.rho()
        if r.det != fld.pow(g.det, 3):
            det_ok = False
        for pos in range(q + 1):
            if pl.conic_point(g.apply_pos(pos)) != r.apply_point(pl.conic_point(pos), pl):
                equiv_ok = False
        if {r.apply_point(P, pl) for P in conic} != conic:
            fix_ok = False
    computed = {"det_cubed": det_ok, "equivariance": equiv_ok, "fixes_conic": fix_ok}
    predicted = {"det_cubed": True, "equivariance": True, "fixes_conic": True}
    dt = time.perf_counter() - t0
    return TheoremReport("embedding-contract", q, predicted, computed, predicted == computed, dt)


def report_scheme_axioms(fld):
    """Re-verify the scheme axioms and counting identities for every
    group scheme at this q, and for q <= 13 cross-check each one with
    `verify_exhaustive`, independently of the certificate it was built
    with.  One note per failed identity and group."""
    q = fld.q
    t0 = time.perf_counter()
    notes = []
    for gid in ["pgl", "psl", "pgammal"] + (["m"] if fld.m % 2 == 0 else []):
        S = _group_scheme(fld, gid, True, False)
        P = S.p_tensor()
        k, t = S.valencies, S.transpose_map
        if int(k.sum()) != S.n:
            notes.append(f"{gid}: sum of valencies != n")
        bad = np.flatnonzero((k != k[t]) | (P[0, np.arange(S.d + 1), t] != k))
        if len(bad):
            notes.append(f"{gid}: valency/transpose identity fails at {bad.tolist()}")
        if not np.array_equal(P.sum(axis=2), np.tile(k, (S.d + 1, 1))):
            notes.append(f"{gid}: row sums of p-tensor are not the valencies")
        # k_k p^k_ij = k_i p^i_{k j'} for all i, j, k, as arrays indexed [i, j, k]
        lhs = P.transpose(1, 2, 0) * k
        if not np.array_equal(lhs, P[:, :, t].transpose(0, 2, 1) * k[:, None, None]):
            notes.append(f"{gid}: counting identity fails")
        if q <= 13:
            try:
                S.verify_exhaustive()
            except sc.NotASchemeError as e:
                notes.append(f"{gid}: {e}")
    ok = not notes
    dt = time.perf_counter() - t0
    return TheoremReport(
        "scheme-axioms", q, {"all_pass": True}, {"all_pass": ok}, ok, dt, note="; ".join(notes)
    )


# -- the full suite ----------------------------------------------------------------------


def default_q_list(deep=False):
    qs = [5, 7, 9, 11, 13, 25, 49]
    if deep:
        qs.append(81)
    return qs


def verify_paper(qs):
    """Run every verifier applicable to each q; returns TheoremReports.

    The reports of one q share that field's one-entry build memo (see
    `_memoized`), which is removed when they end, also on an error.
    """
    reports = []
    for q in sorted(qs):
        fld = field(q)
        fld._build_memo = {}
        try:
            reports += _reports_at(fld)
        finally:
            del fld._build_memo
    return reports


def _reports_at(fld):
    q = fld.q
    reports = []
    if q <= 13:
        reports.append(report_geometry(fld))
        reports.append(report_embedding(fld))
        reports.append(report_ft(fld))
        reports.append(report_scheme_axioms(fld))
        reports.append(report_fusion_lattice(fld))
        for gid in ("pgl", "psl", "pgammal") + (("m",) if fld.m % 2 == 0 else ()):
            reports.append(report_three_domain_isomorphism(fld, gid))
    reports.append(report_psl_class_count(fld))
    reports.append(report_transpose_rules(fld))
    reports.append(report_pgammal(fld))
    if fld.m % 2 == 0:
        if q > 9:
            reports.append(report_m_class_count(fld))
        if q in (9, 25, 49, 81):
            reports.append(report_commutativity(fld))
    if q == 9:
        reports.append(report_m9_octagon())
        reports.append(report_q9_fusion_diagram())
    return reports
