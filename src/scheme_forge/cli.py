"""Command-line front end.

Subcommands:

  build           construct one scheme and print/export a summary
  verify paper    run the theorem suite for one or more q
  geometry dump   export the conic, lines or points of PG(2,q)
  group info      order, generators, base-pair stabilizer of a group
  scheme labels   class labels with representative pairs
  fusion check    test whether one named scheme fuses onto another

Exit codes: 0 success, 1 verification failure, 2 usage error, OS
error (an unwritable --out or cache directory) or out of memory.  Output is
deterministic for a fixed configuration; elapsed times only ever appear
in the dedicated `elapsed` field of verification reports.  `run` is the
process entry: `main`, then a heap frozen for the exit (see `run`).
"""

import argparse
import gc
import json
import os
import sys
import tempfile
import zipfile
import zlib

import numpy as np

from . import fission as fi
from . import moebius as mo
from . import schemes as sc
# `build_domain` stays bound for perfbench/tests/test_bench.py, which checks
# that the layer tracer wraps `geometry.domain` here too; domains are built
# through `fission.domain_for`.
from .geometry import LINE_CLASSES, POINT_CLASSES, Domain, domain as build_domain  # noqa: F401
from .gf import field

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

SCHEME_NAMES = ("t", "ft") + mo.GROUPS


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _moebius_dict(fld, row):
    return {"matrix": fld._digits[row[:4]].tolist(), "frob": int(row[4])}


def build_named_scheme(fld, name, kind="pairs"):
    """Construct one of the named schemes on the requested domain.  Group
    schemes on pairs go through the cache directory named by the
    environment variable SCHEME_FORGE_CACHE_DIR, when it is set."""
    if name == "t":
        if kind != "pairs":
            raise ValueError("the triangular scheme lives on the pairs domain")
        return sc.triangular_scheme(fi.domain_for(fld, kind))
    if name == "ft":
        if kind != "pairs":
            raise ValueError("the cross-ratio fission scheme lives on the pairs domain")
        return fi.build_ft(fld)
    mo.group(fld, name)  # an undefined group raises before the cache directory is made
    if kind == "pairs":
        cache_dir = os.environ.get("SCHEME_FORGE_CACHE_DIR")
        cached = _cache_load(cache_dir, fld, name, kind)
        if cached is not None:
            return cached
        S = fi._labeled_scheme(fld, name)
        _cache_save(cache_dir, fld, name, kind, S)
        return S
    return sc.orbital_scheme_via_stabilizer(fld, name, fi.domain_for(fld, kind))


# Bumped whenever the cached data or its meaning changes, so that files
# written under an older key scheme are never read.
CACHE_FORMAT = 2


def _cache_path(cache_dir, fld, gid, kind):
    """The cache file for one build, keyed by every input that changes
    the relation matrix: q, the field modulus, the group and the domain."""
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    mod = "-".join(str(c) for c in fld.modulus) if fld.modulus else "prime"
    name = f"relmat_v{CACHE_FORMAT}_q{fld.q}_mod{mod}_{gid}_{kind}.npz"
    return os.path.join(cache_dir, name)


def _cache_load(cache_dir, fld, gid, kind):
    """The cached scheme, or None on a miss.  A file that cannot be read,
    lacks the matrix, has the wrong shape or type, is not certified a
    scheme by the group's generators, does not number its classes by
    first occurrence in row 0 as every builder does, or whose base row
    does not match the group's labels (and, for `m`, its split and
    non-square class counts) also counts as a miss; the caller rebuilds
    and overwrites it."""
    path = _cache_path(cache_dir, fld, gid, kind)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            M = data["relation_matrix"]
    except (
        OSError, EOFError, KeyError, ValueError, NotImplementedError,
        zipfile.BadZipFile, zlib.error,
    ):
        return None
    dom = fi.domain_for(fld, "pairs")
    if M.shape != (dom.n, dom.n) or M.dtype.kind != "u":
        return None
    try:
        S = sc.Scheme(M, domain=dom, automorphisms=mo.generator_perms(gid, dom))
        if (np.diff([y for _, y in S.class_reps]) <= 0).any():
            return None
        return fi.label_scheme(fld, gid, S)
    except (sc.NotASchemeError, fi.TheoremViolationError):
        return None


def _cache_save(cache_dir, fld, gid, kind, S):
    """Write the relation matrix through a temporary file in the cache
    directory, so readers only ever see a complete file.  The file is the
    uncompressed `.npz` that `np.savez` writes, one `relation_matrix.npy`
    member, but streamed from `Scheme.row_blocks`: the `.npy` header,
    then each row block through a memoryview, so a scheme without its
    matrix is never filled and no block is copied.  Compressing costs
    more time than reading the larger file saves; `np.load` reads
    compressed files written by earlier versions all the same, so the
    format tag is unchanged."""
    path = _cache_path(cache_dir, fld, gid, kind)
    if not path:
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with (
            os.fdopen(fd, "wb") as fh,
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf,
            zf.open("relation_matrix.npy", "w", force_zip64=True) as member,
        ):
            for r0, _, rows in S.row_blocks():
                if r0 == 0:
                    header = np.lib.format.header_data_from_array_1_0(rows)
                    np.lib.format.write_array_header_1_0(member, {**header, "shape": (S.n, S.n)})
                member.write(memoryview(np.ascontiguousarray(rows)).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def scheme_dict(fld, S, args):
    out = {
        "schema": 1,
        "q": fld.q,
        "group": args.group,
        "domain": args.domain,
        "n": S.n,
        "d": S.d,
        "valencies": [int(v) for v in S.valencies],
        "transpose_map": [int(v) for v in S.transpose_map],
        "labels": S.label_text(),
        "symmetric": S.is_symmetric(),
        "commutative": S.is_commutative(),
    }
    if args.p_tensor:
        out["p_tensor"] = S.p_tensor().tolist()
    return out


def _p_tensor_csv(S):
    P = S.p_tensor()
    d1 = S.d + 1
    lines = []
    for i in range(d1):
        lines.append(f"B_{i}")
        lines.extend(",".join(map(str, row)) for row in P[:, i, :].tolist())
    return "\n".join(lines) + "\n"


def cmd_build(args):
    fld = field(args.q, args.modulus)
    S = build_named_scheme(fld, args.group, args.domain)
    if args.exhaustive:
        S.verify_exhaustive()
    if args.format == "json":
        _emit(json.dumps(scheme_dict(fld, S, args), sort_keys=True, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_p_tensor_csv(S), args.out)
    else:
        vals = ", ".join(str(int(v)) for v in S.valencies[1:])
        lines = [
            f"scheme q={fld.q} group={args.group} domain={args.domain}",
            f"n = {S.n}   classes d = {S.d}",
            f"valencies: {vals}",
            f"symmetric: {'yes' if S.is_symmetric() else 'no'}   "
            f"commutative: {'yes' if S.is_commutative() else 'no'}",
            "labels: " + "  ".join(S.label_text()[1:]),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    if args.all_q:
        qs = fi.default_q_list(deep=args.deep)
    elif args.q:
        qs = sorted(set(args.q))
    else:
        raise ValueError("verify paper needs --q <q> (repeatable) or --all-q")
    for q in qs:
        if q > sc.MAX_DEFAULT_Q:
            raise ValueError(f"verify paper runs at q <= {sc.MAX_DEFAULT_Q}, not q = {q}")
        field(q)  # validates q before any work
    reports = fi.verify_paper(qs)
    reports.sort(key=lambda r: (r.q, r.theorem_id))
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        payload = {
            "schema": 1,
            "reports": [r.to_dict() for r in reports],
            "failed": [r.theorem_id for r in failed],
            "ok": not failed,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        w = max(len(r.theorem_id) for r in reports) + 2
        rows = [f"{'theorem'.ljust(w)}{'q':>4}  status"]
        for r in reports:
            rows.append(f"{r.theorem_id.ljust(w)}{r.q:>4}  {'PASS' if r.passed else 'FAIL'}")
        rows.append(f"{len(reports) - len(failed)}/{len(reports)} theorems verified")
        if failed:
            rows.append("failed: " + ", ".join(f"{r.theorem_id}[q={r.q}]" for r in failed))
        _emit("\n".join(rows) + "\n", args.out)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_geometry(args):
    fld = field(args.q, args.modulus)
    pl = fi.plane_for(fld)

    def coords(triples):
        return fld._digits[triples].tolist()

    if args.what == "conic":
        data = coords(pl.conic_points())
    else:  # the same triples: lines classed by their conic points, points by Q
        triples = pl.all_points()
        if args.what == "lines":
            names, classes = LINE_CLASSES, pl.conic_counts(triples)
        else:
            names, classes = POINT_CLASSES, pl.point_classes(triples)
        data = [{"coords": c, "class": k} for c, k in zip(coords(triples), np.array(names)[classes].tolist())]
    payload = {"schema": 1, "q": fld.q, "what": args.what, "elements": data}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_group(args):
    fld = field(args.q, args.modulus)
    gens, order = mo.generators(fld, args.group), mo.group_order(fld, args.group)
    # the group is transitive on the n = q(q+1)/2 pairs
    stab_size = order // (fld.q * (fld.q + 1) // 2)
    if args.format == "json":
        payload = {
            "schema": 1,
            "q": fld.q,
            "group": args.group,
            "order": order,
            "generators": [_moebius_dict(fld, g) for g in gens.tolist()],
            "base_pair_stabilizer_size": stab_size,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [
            f"group {args.group} over GF({fld.q})",
            f"order = {order}",
            f"generators ({len(gens)}):",
        ]
        lines += [f"  {mo.map_text(fld, g)}" for g in gens]
        lines.append(f"stabilizer of {{0, oo}}: {stab_size} elements")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_labels(args):
    fld = field(args.q, args.modulus)
    S = build_named_scheme(fld, args.group, "pairs")
    pg1 = S.domain.plane.pg1
    labels = S.label_text()
    # the first column of each class in the base row
    _, reps = np.unique(S.row(S.domain.base_index), return_index=True)
    rows = []
    for k, y in enumerate(reps.tolist()):
        i, j = (int(v) for v in pg1.pairs[y])
        rep = f"{{{pg1.point_text(i)}, {pg1.point_text(j)}}}"
        rows.append(
            {
                "class": k,
                "label": labels[k],
                "valency": int(S.valencies[k]),
                "representative_vs_base": rep,
            }
        )
    if args.format == "json":
        payload = {"schema": 1, "q": fld.q, "group": args.group, "classes": rows}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [f"classes of {args.group} on pairs, q={fld.q}  (partner of {{0, oo}})"]
        for r in rows:
            lines.append(
                f"  {r['class']:>3}  {r['label']:<10} valency {r['valency']:>4}  {r['representative_vs_base']}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fusion(args):
    fld = field(args.q, args.modulus)
    fine = build_named_scheme(fld, args.fine, "pairs")
    coarse = build_named_scheme(fld, args.coarse, "pairs")
    part = sc.fusion_map(coarse, fine)
    ok = part is not None
    payload = {
        "schema": 1,
        "q": fld.q,
        "fine": args.fine,
        "coarse": args.coarse,
        "is_fusion": ok,
        "partition": None if part is None else [int(v) for v in part],
    }
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        verdict = "is" if ok else "is NOT"
        _emit(
            f"{args.coarse} {verdict} a fusion of {args.fine} on pairs at q={fld.q}\n",
            args.out,
        )
    return EXIT_OK if ok else EXIT_FAIL


def _add_common(p, formats=("text", "json")):
    """The options of every subcommand that builds a field, with a
    `--format` offering the formats the subcommand writes, if any."""
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--modulus", type=lambda s: s.split(","), help="comma-separated coefficients, low degree first")
    p.add_argument("--out")
    if formats:
        p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--allow-large", action="store_true")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="scheme-forge",
        description="Fission schemes of the triangular scheme on PG(1,q).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct one scheme")
    _add_common(b, ("text", "json", "csv"))
    b.add_argument("--group", choices=SCHEME_NAMES, required=True)
    b.add_argument("--domain", choices=Domain.KINDS, default="pairs")
    b.add_argument("--p-tensor", action="store_true")
    b.add_argument("--exhaustive", action="store_true")
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="verification suites")
    vsub = v.add_subparsers(dest="suite", required=True)
    vp = vsub.add_parser("paper", help="run the theorem suite")
    vp.add_argument("--q", type=int, action="append")
    vp.add_argument("--all-q", action="store_true")
    vp.add_argument("--deep", action="store_true")
    vp.add_argument("--out")
    vp.add_argument("--format", choices=("text", "json"), default="text")
    vp.set_defaults(fn=cmd_verify)

    g = sub.add_parser("geometry", help="geometry exports")
    gsub = g.add_subparsers(dest="what_cmd", required=True)
    gd = gsub.add_parser("dump", help="dump conic, lines or points as JSON")
    _add_common(gd, ())
    gd.add_argument("--what", choices=("conic", "lines", "points"), required=True)
    gd.set_defaults(fn=cmd_geometry)

    gr = sub.add_parser("group", help="group information")
    grsub = gr.add_subparsers(dest="info_cmd", required=True)
    gi = grsub.add_parser("info")
    _add_common(gi)
    gi.add_argument("--group", choices=mo.GROUPS, required=True)
    gi.set_defaults(fn=cmd_group)

    s = sub.add_parser("scheme", help="scheme inspection")
    ssub = s.add_subparsers(dest="scheme_cmd", required=True)
    sl = ssub.add_parser("labels")
    _add_common(sl)
    sl.add_argument("--group", choices=SCHEME_NAMES, required=True)
    sl.set_defaults(fn=cmd_labels)

    fu = sub.add_parser("fusion", help="fusion checks")
    fusub = fu.add_subparsers(dest="fusion_cmd", required=True)
    fc = fusub.add_parser("check")
    _add_common(fc)
    fc.add_argument("--fine", choices=SCHEME_NAMES, required=True)
    fc.add_argument("--coarse", choices=SCHEME_NAMES, required=True)
    fc.set_defaults(fn=cmd_fusion)

    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        # the one size check, before any field is built: its tables alone grow as q^2
        if not getattr(args, "allow_large", True) and args.q > sc.MAX_DEFAULT_Q:
            raise sc.DomainSizeError(f"q={args.q} > {sc.MAX_DEFAULT_Q} builds large tables; pass --allow-large to proceed")
        return args.fn(args)
    except (ValueError, OSError, sc.DomainSizeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"error: out of memory ({e})" if str(e) else "error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except (sc.NotASchemeError, sc.NotTransitiveError, fi.TheoremViolationError) as e:
        print(f"verification error: {e}", file=sys.stderr)
        return EXIT_FAIL


def run():
    """The process entry: `main()`'s exit code, the heap frozen after it."""
    code = main()
    # interpreter shutdown collects the ~21,800 objects that numpy and the
    # package leave alive: 35 ms of a 265 ms command, 7 ms once they are frozen
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
