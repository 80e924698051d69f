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

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import moebius as mo
from . import schemes as sc
from .geometry import Domain, Plane, domain
from .gf import field


class TheoremViolationError(RuntimeError):
    """A verified structural claim failed; signals an implementation bug."""


@dataclass
class TheoremReport:
    theorem_id: str
    q: int
    predicted: object
    computed: object
    elapsed: float = 0.0
    note: str = ""

    @property
    def passed(self):
        return self.predicted == self.computed

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
            sub = fld.element_text(self.rep)
            if " " in sub:
                sub = f"({sub})"
        sup = {1: "^+", -1: "^-", 0: ""}[self.sign]
        return f"{self.family}_{sub}{sup}"


# -- plane/domain caches -----------------------------------------------------------
# Kept in the field's memo (`GF.memo`), so each lives exactly as long as its
# field and can never be handed to a later field that reuses its id().
# A domain is O(n) arrays plus, on the plane domains, a 2q^2 + 1 lookup.


def plane_for(fld):
    return fld.memo("plane", lambda: Plane(fld))


def domain_for(fld, kind):
    """The enumerated domain of this kind over the field, built once."""
    return fld.memo(("domain", kind), lambda: domain(plane_for(fld), kind))


# -- FT(q+1): the cross-ratio fission of the triangular scheme ----------------------


def build_ft(fld):
    """FT(q+1), the cross-ratio fission scheme on pairs, with no group
    enumeration: `schemes.cross_ratio_scheme` of D[a, c] = det(h_a, h_c),
    h the homogeneous coordinates, proved by the point permutations of the
    `pgl` generators; labels attached.  A map A of PGL(2,q) that moves a
    to s(a) sends h_a to m_a h_(s a), m_a nonzero, so D[s a, s c] = det(A)
    D[a, c] / (m_a m_c) is scaled as `cross_ratio_scheme` checks; a field
    automorphism raises D to a power instead, and is refused.
    """
    u, v = np.append(fld.BY_RANK, 1), np.append(np.ones(fld.q, dtype=np.int32), 0)
    D = fld.ADD[fld.MUL[u[:, None], v], fld.NEG[fld.MUL[v[:, None], u]]]
    points = mo.point_perms(fld, mo.generators(fld, "pgl"))
    return label_scheme(fld, "pgl", sc.cross_ratio_scheme(domain_for(fld, "pairs"), D, points))


def _ft_label_of_pair(fld, pair, gamma=None):
    """Label of the relation holding between {0, oo} and `pair`."""
    gamma = gamma or psl_orbit_label(fld, pair)
    return RelationLabel("R", gamma.kind, gamma.rep, 0, gamma.orbit)


def _labels_from_base_row(fld, row, dom, d, label_of_pair):
    """Labels of the classes 0..d, read off `row`, the row of the base
    pair {0, oo} of a relation matrix.

    The closed forms read a pair {a, b} (positions i < j) only through
    its key: the position of r = b/a in PG(1,q), 0 when a = 0 and oo when
    b = oo, and whether a is a square (b when a = 0); the Gamma labels
    read r and the square class of a or of b = r*a, the others read the
    Gamma label.  The base pair is keyed apart and r = 1 never occurs, so
    there are at most 2q + 1 keys, computed for all pairs in one pass and
    kept by `GF.memo` with the Gamma label of each key's first pair.
    Every key must lie in one class of the row, and each is labeled once,
    at its first pair: one label per class, no label in two classes and
    every class labeled, or TheoremViolationError is raised.
    """
    q, pairs = fld.q, dom.plane.pg1.pairs

    def keyed():
        a, b = fld.BY_RANK[pairs[:, 0]], fld.BY_RANK[np.minimum(pairs[:, 1], q - 1)]
        # INV[0] = 0, so r takes position 0 exactly when a = 0
        r = np.where(pairs[:, 1] == q, q, fld.RANK[fld.MUL[b, fld.INV[a]]])
        keys = 2 * r + fld.SQUARE[np.where(a == 0, b, a)]
        keys[dom.base_index] = -1
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        ys = np.sort(first)
        return first, inv, ys, tuple(psl_orbit_label(fld, tuple(pairs[y].tolist())) for y in ys)

    first, inv, ys, gammas = fld.memo("cross-ratio keys", keyed)
    if not np.array_equal(row[first][inv], row):
        raise TheoremViolationError("a cross-ratio key spans two computed orbits")
    labels = [None] * (d + 1)
    for y, gamma in zip(ys.tolist(), gammas):
        k, lab = int(row[y]), label_of_pair(fld, tuple(pairs[y].tolist()), gamma)
        if labels[k] is None:
            labels[k] = lab
        elif labels[k].key() != lab.key():
            raise TheoremViolationError(f"computed orbit {k} mixes labels {labels[k]} and {lab}")
    if None in labels:
        raise TheoremViolationError("some class has no representative at the base pair")
    if len({lab.key() for lab in labels}) != len(labels):
        raise TheoremViolationError("one label appears in two distinct computed orbits")
    return labels


# -- closed-form orbit labelings -----------------------------------------------------


def psl_orbit_label(fld, pair):
    """Predicted square-determinant-subgroup orbit label of a pair.

    Implements the closed-form case split: pairs through 0 or infinity
    split by square class (crossed when q = 3 mod 4), pairs {t, -t}
    split only when -1 is a square, and ratio classes {t, r*t} split
    exactly when -1/r is a square.
    """
    q = fld.q
    i, j = pair
    a = int(fld.BY_RANK[i])
    b = None if j == q else int(fld.BY_RANK[j])
    q1mod4 = q % 4 == 1
    if a == 0 and b is None:
        return RelationLabel("Γ", "diagonal")
    if b is None or a == 0:
        # exactly one of 0, infinity is in the pair
        s = fld.is_square(b if a == 0 else a)
        crossed = b is None and not q1mod4
        return RelationLabel("Γ", "share", sign=1 if s != crossed else -1)
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


def m_orbit_label(fld, pair, gamma=None):
    """Predicted twisted-group orbit label: Gamma classes fused along the
    involutory automorphism."""
    gamma = gamma or psl_orbit_label(fld, pair)
    if gamma.kind in ("diagonal", "share", "harmonic"):
        return RelationLabel("Δ", gamma.kind)
    r = gamma.rep
    sig = fld.sigma(r)
    orbit = {r, fld.inv(r), sig, fld.inv(sig)}
    rep = min(orbit, key=fld.rank)
    orbit = tuple(sorted(orbit, key=fld.rank))
    if not fld.is_square(r) or sig in (r, fld.inv(r)):
        return RelationLabel("Δ", "ratio", rep, 0, orbit)
    # split class: the half containing Gamma^+ of the least pair keeps +
    sign = gamma.sign if gamma.rep in (rep, fld.inv(rep)) else -gamma.sign
    return RelationLabel("Δ", "ratio", rep, sign, orbit)


def pgammal_orbit_label(fld, pair, gamma=None):
    """Predicted semilinear-group orbit label: Gamma classes fused along
    the group generated by Frobenius and inversion."""
    gamma = gamma or psl_orbit_label(fld, pair)
    if gamma.kind != "ratio":
        return RelationLabel("Λ", gamma.kind)
    frob = fld.FROB[:, gamma.rep]
    orbit = tuple(sorted(set(frob.tolist()) | set(fld.INV[frob].tolist()), key=fld.rank))
    return RelationLabel("Λ", "ratio", orbit[0], 0, orbit)


def count_pgammal_classes(fld):
    """Direct count of semilinear classes: 2 + the number of orbits of
    <Frobenius, inversion> on the nonzero field elements other than +-1,
    which is its number of orbits on GF(q) minus one, as {0}, {1} and
    {-1} are orbits."""
    lab = sc._orbits([fld.FROB[1 % fld.m], fld.INV], (fld.q,))
    return int((lab == np.arange(fld.q)).sum()) - 1


# -- labeled scheme builders ----------------------------------------------------------


def _m_theorems(fld, S):
    """Orbit bookkeeping of the twisted-group scheme."""
    q = fld.q
    root = fld.p ** (fld.m // 2)
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


# group id -> (label of a pair against {0, oo}, given its Gamma label if the
# caller has it, theorem check or None), in the order of the reports; the
# class counts are `PREDICTIONS`, reported rather than checked at each build
GROUP_SCHEMES = {
    "pgl": (_ft_label_of_pair, None),
    "psl": (lambda fld, pair, gamma=None: gamma or psl_orbit_label(fld, pair), None),
    "pgammal": (pgammal_orbit_label, None),
    "m": (m_orbit_label, _m_theorems),
}


def label_scheme(fld, gid, S):
    """Attach the closed-form labels of group `gid` to its scheme on pairs
    and run the group's theorem check; TheoremViolationError if the
    labels or the theorems disagree with the relation matrix."""
    label_of_pair, theorems = GROUP_SCHEMES[gid]
    S.labels = _labels_from_base_row(fld, S.row(S.domain.base_index), S.domain, S.d, label_of_pair)
    if theorems is not None:
        theorems(fld, S)
    return S


def _labeled_scheme(fld, gid):
    """Stabilizer-path scheme of a group on pairs, proved and labeled;
    exported as `labeled_scheme` (perfbench/tracer.py wraps this name)."""
    return label_scheme(fld, gid, sc.orbital_scheme_via_stabilizer(fld, gid, domain_for(fld, "pairs")))


labeled_scheme = _labeled_scheme


def psl_scheme(fld):
    """`labeled_scheme(fld, "psl")`, kept for perfbench/tests/test_bench.py."""
    return _labeled_scheme(fld, "psl")


# -- theorem verifiers -----------------------------------------------------------------

# theorem id -> (the group whose labeled scheme the report reads, the paper's
# prediction over the field, or None where it predicts nothing at that q);
# `_group_reports` runs a group's entries in this order
PREDICTIONS = {
    "psl-class-count": ("psl", lambda f: {
        "classes": (3 * f.q + 5) // 4 if f.q % 4 == 1 else (3 * f.q + 3) // 4,
        "symmetric": False,
    }),
    "pgammal-class-count": ("pgammal", lambda f: {
        # the paper's counts where it gives them, else the direct orbit count
        "classes": {9: 4, 25: 9, 49: 16}.get(f.q) or count_pgammal_classes(f),
        "symmetric": True,
        "count_agrees": True,
        **({"p_polynomial": f.q == 9} if f.q in (9, 25, 49) else {}),
    }),
    # q = 9 is the octagon below
    "m-class-count": ("m", lambda f: None if f.q <= 9 else {
        "classes": (3 * f.q + 5) // 8,
        "symmetric": False,
    }),
    "m-commutativity": ("m", lambda f: {
        9: {"symmetric": True, "commutative": True},
        25: {"symmetric": False, "commutative": True},
        49: {"symmetric": False, "commutative": False},
        81: {"symmetric": False, "commutative": False},
    }.get(f.q)),
    # the distance-regular scheme of the generalized octagon of order (2, 1)
    "m9-octagon": ("m", lambda f: None if f.q != 9 else {
        "n": 45,
        "symmetric": True,
        "p_polynomial": True,
        "intersection_array": ([4, 2, 2, 2], [1, 1, 1, 2]),
    }),
}

# how `report_theorem` computes each key of a prediction on the labeled
# scheme S, given `orderings()`, its P-polynomial orderings, computed once
OBSERVED = {
    "n": lambda S, orderings: S.n,
    "classes": lambda S, orderings: S.d,
    "symmetric": lambda S, orderings: S.is_symmetric(),
    "commutative": lambda S, orderings: S.is_commutative(),
    "count_agrees": lambda S, orderings: S.d == count_pgammal_classes(S.domain.field),
    "p_polynomial": lambda S, orderings: bool(orderings()),
    "intersection_array": lambda S, orderings: next(
        (o["intersection_array"] for o in orderings()), None
    ),
}


def report_theorem(theorem_id, S, predicted=None):
    """The `PREDICTIONS` entry `theorem_id` against `S`, the labeled scheme
    of its group: the paper's prediction over S's field (`predicted`, if
    the caller has evaluated it already), and exactly the predicted keys
    computed on `S` by `OBSERVED`.  The entry must predict something at
    this q."""
    fld = S.domain.field
    if predicted is None:
        predicted = PREDICTIONS[theorem_id][1](fld)
    t0 = time.perf_counter()
    orderings = functools.cache(lambda: sc.p_polynomial_orderings(S))
    computed = {key: OBSERVED[key](S, orderings) for key in predicted}
    return TheoremReport(theorem_id, fld.q, predicted, computed, time.perf_counter() - t0)


def report_ft(ft, pgl_orbital):
    """FT(q+1) against its predicted classes and valencies, and against
    `pgl_orbital`, the generic-path `pgl` scheme on pairs."""
    q = ft.domain.field.q
    predicted = {
        "classes": (q + 1) // 2,
        "share_valency": 2 * (q - 1),
        "harmonic_valency": (q - 1) // 2,
        "ratio_valency": q - 1,
        "equals_orbital": True,
        "symmetric": True,
    }
    t0 = time.perf_counter()
    v = {lab.kind: int(ft.valencies[k]) for k, lab in enumerate(ft.labels) if k}
    computed = {
        "classes": ft.d,
        "share_valency": v.get("share"),
        "harmonic_valency": v.get("harmonic"),
        "ratio_valency": v.get("ratio"),
        "equals_orbital": sc.partition_bijection(ft, pgl_orbital) is not None,
        "symmetric": ft.is_symmetric(),
    }
    dt = time.perf_counter() - t0
    return TheoremReport("ft-cross-ratio", q, predicted, computed, dt)


def report_transpose_rules(S):
    """Check the transpose pairings of the split classes of the `psl`
    scheme `S` against the square-class criteria, and record which
    reading of the superscript the computation supports."""
    fld = S.domain.field
    q = fld.q
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
        rules[fld.element_text(lab.rep)] = {
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
    return TheoremReport("transpose-rules", q, predicted, computed, dt, note=str(details))


def report_three_domain_isomorphism(fld, gid):
    """The schemes of group `gid` on pairs, secant lines and poles are one
    scheme under the index bijection of the domains (element i of each is
    pair i, through the conic).  Proof: an orbital scheme is a function of
    its generators' permutation arrays (`group_orbital_scheme` reads only
    `moebius.generator_perms`), so when the generators move the three
    domains, each by its native action, by equal arrays, the relation
    matrices are equal entry by entry: a permutation isomorphism, which
    is stronger than one pair partition up to the names of the classes.
    """
    predicted = {"isomorphic": True}
    t0 = time.perf_counter()
    pairs, *plane = [mo.generator_perms(gid, domain_for(fld, kind)) for kind in Domain.KINDS]
    computed = {"isomorphic": all(np.array_equal(pairs, perms) for perms in plane)}
    dt = time.perf_counter() - t0
    return TheoremReport(f"three-domain-isomorphism[{gid}]", fld.q, predicted, computed, dt)


def report_q9_fusion_diagram(tri, ft, psl, pgml, msch):
    """The three-row fusion diagram at q = 9, checked edge by edge on the
    triangular, FT, `psl`, `pgammal` and `m` schemes, one `fusion_map`
    comparison per edge, as in `report_fusion_lattice`."""
    fld = ft.domain.field
    g = fld.primitive_element()
    g2 = fld.mul(g, g)
    g3 = fld.mul(g2, g)
    t0 = time.perf_counter()

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
    m_expected = {("ratio", tuple(sorted((g2, fld.inv(g2)), key=fld.rank))), ("ratio", t_orbit)}

    computed = {
        "ft_classes": ft.d,
        "ft_label_set_ok": ft_classes == ft_expected,
        "psl_classes": psl.d,
        "psl_split_ok": psl_split == expected_split,
        "m_nontrivial_classes": msch.d,
        "m_ratio_labels_ok": m_labels == m_expected,
        "pgammal_equals_m": bool(
            np.array_equal(pgml.relation_matrix, msch.relation_matrix)
        ),
        "ft_fuses_psl": sc.fusion_map(ft, psl) is not None,
        "m_fuses_psl": sc.fusion_map(msch, psl) is not None,
        "m_fuses_ft": sc.fusion_map(msch, ft) is not None,
        "t_fuses_ft": sc.fusion_map(tri, ft) is not None,
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
    return TheoremReport("q9-fusion-diagram", fld.q, predicted, computed, dt)


def report_fusion_lattice(tri, ft, psl, pgml, msch=None):
    """Every edge of the group lattice gives a fusion of schemes: the
    triangular, FT, `psl` and `pgammal` schemes, and the `m` scheme when
    q is an even power.  Each edge is one comparison, `fusion_map`: all
    these schemes are proven, and a proven scheme whose relations are a
    function of a proven scheme's relations is a fusion of it."""
    q = ft.domain.field.q
    t0 = time.perf_counter()
    computed = {
        "t_fuses_ft": sc.fusion_map(tri, ft) is not None,
        "ft_fuses_psl": sc.fusion_map(ft, psl) is not None,
        "pgammal_fuses_ft": sc.fusion_map(pgml, ft) is not None,
        "pgammal_fuses_psl": sc.fusion_map(pgml, psl) is not None,
    }
    if msch is not None:
        computed["m_fuses_psl"] = sc.fusion_map(msch, psl) is not None
        computed["pgammal_fuses_m"] = sc.fusion_map(pgml, msch) is not None
    predicted = {k: True for k in computed}
    dt = time.perf_counter() - t0
    return TheoremReport("fusion-lattice", q, predicted, computed, dt)


def report_geometry(fld):
    """Counting and polarity facts of the conic geometry, over all lines
    and secants at once through the batched `Plane` kernels."""
    q = fld.q
    t0 = time.perf_counter()
    pl = plane_for(fld)
    # conic points on each line: no three are collinear iff no line has more than two
    hits = pl.conic_counts(pl.all_lines())
    # Q is evaluated on the closed-form pole of the secant through x, g at i < j,
    # as its value (unlike its square class) is not projective: (2x, 1, 0)
    # with Q = 1 if j is oo, else (gx, (x + g)/2, 1) with Q = ((g - x)/2)^2
    M, A, N = fld.MUL, fld.ADD, fld.NEG
    i, j = pl.pg1.pairs.T
    inf = j == q
    x, g = fld.BY_RANK[i], fld.BY_RANK[np.where(inf, 0, j)]
    half = fld.INV[A[1, 1]]
    h = M[A[g, N[x]], half]
    rep = np.stack([np.where(inf, A[x, x], M[g, x]), np.where(inf, 1, M[A[x, g], half]), ~inf], axis=1)
    quad = pl.quadratic_form(rep)
    poles_ok = np.array_equal(pl.poles(pl.secant_lines(pl.pg1.pairs)), pl.normalize_rows(rep))
    computed = {
        "conic_size": len(pl.conic_points()),
        "no_three_collinear": bool(hits.max() <= 2),
        "hyperbolic": int((hits == 2).sum()),
        "tangent": int((hits == 1).sum()),
        "elliptic": int((hits == 0).sum()),
        "perp_formulas": poles_ok and np.array_equal(quad, np.where(inf, 1, M[h, h])),
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
    return TheoremReport("geometry-counts", q, predicted, computed, dt)


def report_embedding(fld):
    """det rho = det^3, equivariance of the conic parametrization, and
    conic preservation, over all generators and points, in one batched
    pass: det rho is the expansion of the first row of each `_rho`
    matrix along its `_cofactors`, and rho moves the conic under every
    generator at once."""
    q = fld.q
    t0 = time.perf_counter()
    pl = plane_for(fld)
    M, A = fld.MUL, fld.ADD
    maps = mo.generators(fld, "pgammal")
    R = mo._rho(fld, maps)
    row0 = M[R[:, 0], mo._cofactors(fld, R)[:, 0]]
    a, b, c, d = maps[:, :4].T
    det = A[M[a, d], fld.NEG[M[b, c]]]
    det_ok = bool(np.array_equal(A[A[row0[:, 0], row0[:, 1]], row0[:, 2]], M[M[det, det], det]))
    C = pl.conic_points()
    images = mo._coords_transform(fld, R, maps[:, 4], C)
    equiv_ok = np.array_equal(images, C[mo.point_perms(fld, maps)])
    # the images of the conic are the conic: equal sorted point codes
    codes = np.array([q * q, q, 1])
    fix_ok = bool((np.sort(images @ codes, axis=1) == np.sort(C @ codes)).all())
    computed = {"det_cubed": det_ok, "equivariance": equiv_ok, "fixes_conic": fix_ok}
    predicted = {"det_cubed": True, "equivariance": True, "fixes_conic": True}
    dt = time.perf_counter() - t0
    return TheoremReport("embedding-contract", q, predicted, computed, dt)


def report_scheme_axioms(schemes):
    """Re-verify the scheme axioms and counting identities for every
    group scheme of one q, given as {group id: scheme}, and for q <= 13
    cross-check each one with `verify_exhaustive`, independently of the
    proof it was built with.  One note per failed identity and
    group."""
    q = next(iter(schemes.values())).domain.field.q
    t0 = time.perf_counter()
    notes = []
    for gid, S in schemes.items():
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
    return TheoremReport("scheme-axioms", q, {"all_pass": True}, {"all_pass": ok}, dt, note="; ".join(notes))


# -- the full suite ----------------------------------------------------------------------


def default_q_list(deep=False):
    qs = [5, 7, 9, 11, 13, 25, 49]
    if deep:
        qs.append(81)
    return qs


def verify_paper(qs):
    """Run every verifier applicable to each q; returns TheoremReports."""
    reports = []
    for q in sorted(qs):
        reports += _reports_at(field(q))
    return reports


def _group_reports(gid, S):
    """The reports that read only the labeled scheme `S` of one group: its
    `PREDICTIONS` entries that predict something at this q, in table
    order, then the transpose rules for `psl`."""
    fld = S.domain.field
    predictions = [(tid, predict(fld)) for tid, (g, predict) in PREDICTIONS.items() if g == gid]
    reports = [report_theorem(tid, S, p) for tid, p in predictions if p is not None]
    if gid == "psl":
        reports.append(report_transpose_rules(S))
    return reports


def _reports_at(fld):
    """The reports of one q, in a fixed order, and the plan of the builds
    they read: each scheme is built once and passed to every report that
    reads it, so a report's `elapsed` times its checks, not builds.

    At q <= 13 every matrix is under 9 kB, and everything is built up
    front: FT(q+1), T(q+1), each group's labeled scheme on pairs, and the
    generic-path `pgl` scheme on pairs, `report_ft`'s cross-check.  The
    three-domain reports build no scheme (see their proof).
    Above, only the labeled `psl`, `pgammal` and `m` schemes are read.
    They are built one group at a time, each passed straight to its
    reports and dropped with them, and their reports read parameters,
    labels and p-tensors, never a relation matrix, so none is filled.
    """
    q = fld.q
    gids = [gid for gid in GROUP_SCHEMES if gid in mo.groups(fld)]
    if q > 13:
        return [r for gid in gids[1:] for r in _group_reports(gid, _labeled_scheme(fld, gid))]
    ft = build_ft(fld)
    tri = sc.triangular_scheme(domain_for(fld, "pairs"))
    labeled = {gid: _labeled_scheme(fld, gid) for gid in gids}
    pgl_orbital = sc.group_orbital_scheme(fld, "pgl", domain_for(fld, "pairs"))
    psl, pgml, msch = labeled["psl"], labeled["pgammal"], labeled.get("m")
    reports = [
        report_geometry(fld),
        report_embedding(fld),
        report_ft(ft, pgl_orbital),
        report_scheme_axioms(labeled),
        report_fusion_lattice(tri, ft, psl, pgml, msch),
    ]
    reports += [report_three_domain_isomorphism(fld, gid) for gid in gids]
    for gid in gids[1:]:
        reports += _group_reports(gid, labeled[gid])
    if q == 9:
        reports.append(report_q9_fusion_diagram(tri, ft, psl, pgml, msch))
    return reports
