"""Layer spans recorded from outside the scheme_forge package.

`Tracer.install()` replaces the layer entry points listed in TARGETS
with thin timing wrappers and `uninstall()` puts every original back.
A module-level function is replaced in every scheme_forge module that
binds it (so `from .gf import field` in fission and cli is covered);
a method is replaced on its class.  The package source is not edited,
and since the package calls its layers through module globals and class
attributes, the wrappers sit on the real production call path.

Spans stay in memory as tuples (name, start, end, parent, op) and are
written out by the caller when the run ends; `derive()` turns them into
the per-layer metrics of LAYER_METRICS.
"""

import functools
import inspect
import os
import sys
import time

PACKAGE = "scheme_forge"

# module -> entry points; "report_*" expands to every fission verifier.
TARGETS = {
    "gf": ("field", "GF.__init__"),
    "geometry": (
        "Plane.__init__",
        "pairs_domain",
        "hyperbolic_lines_domain",
        "hyperbolic_points_domain",
        "domain",
    ),
    "moebius": ("base_pair_stabilizer", "transporter_to_base", "domain_perm"),
    "schemes": (
        "orbital_scheme_via_stabilizer",
        "_renumber_first_occurrence",
        "Scheme.__init__",
        "Scheme.p_tensor",
        "Scheme.verify_exhaustive",
        "orbital_scheme",
        "triangular_scheme",
        "group_orbital_scheme",
        "fusion_map",
        "is_fusion",
        "fuse",
        "partition_bijection",
        "p_polynomial_orderings",
    ),
    "fission": ("_labeled_scheme", "_labels_from_base_row", "build_ft", "report_*"),
    "cli": ("_cache_save", "_cache_load", "scheme_dict", "_p_tensor_csv", "_emit"),
}

# -- span attributes, taken only on entry points called a few times per build --


def _arguments(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _build_key(fn, args, kwargs, out):
    a = _arguments(fn, args, kwargs)
    fld = a["fld"] if "fld" in a else a["dom"].field
    group = a.get("gid", {"build_ft": "ft", "triangular_scheme": "t"}.get(fn.__name__))
    kind = a["dom"].kind if "dom" in a else "pairs"
    return ["build", fld.q, list(fld.modulus or ()), str(group).lower(), kind]


def _cache_file_size(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    cli = sys.modules[f"{PACKAGE}.cli"]
    path = cli._cache_path(a["cache_dir"], a["fld"], a["gid"], a["kind"])
    return os.path.getsize(path) if path and os.path.exists(path) else 0


ATTRS = {
    "schemes._renumber_first_occurrence": lambda fn, a, k, out: ["renumber", int(a[0].nbytes)],
    "schemes.Scheme.__init__": lambda fn, a, k, out: [
        "matrix",
        int(_arguments(fn, a, k)["relation_matrix"].nbytes),
    ],
    "schemes.orbital_scheme_via_stabilizer": _build_key,
    "schemes.group_orbital_scheme": _build_key,
    "schemes.triangular_scheme": _build_key,
    "fission.build_ft": _build_key,
    "cli._cache_load": lambda fn, a, k, out: [
        "cache_load", _cache_file_size(fn, a, k), out is not None
    ],
    "cli._cache_save": lambda fn, a, k, out: ["cache_save", _cache_file_size(fn, a, k)],
}


def _report_attr(fn, args, kwargs, out):
    return ["report", bool(out.passed)]


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, attr):
        spans, attrs, stack = self.spans, self.attrs, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if attr is not None:
                attrs[idx] = attr(fn, args, kwargs, out)
            return out

        return wrapper

    def record(self, name, t0, t1):
        """Add a top-level span timed by the caller."""
        self.spans.append((name, t0, t1, -1, self.op))

    def install(self):
        modules = [
            m
            for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for modname, entries in TARGETS.items():
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            if mod is None:  # the in-process workloads never import the CLI
                continue
            for entry in _expand(mod, entries):
                name = f"{modname}.{entry}"
                attr = _report_attr if entry.startswith("report_") else ATTRS.get(name)
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[meth]
                    self._set(owner, meth, self._wrap(name, orig, attr), orig)
                    continue
                orig = getattr(mod, entry)
                wrapped = self._wrap(name, orig, attr)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is orig]:
                        self._set(m, key, wrapped, orig)
        return self

    def _set(self, owner, key, value, orig):
        setattr(owner, key, value)
        self._restore.append((owner, key, orig))

    def uninstall(self):
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def rows(self):
        """Spans as JSON-able rows: name, start, end, parent, op, attr."""
        return [list(s) + [self.attrs.get(i)] for i, s in enumerate(self.spans)]


def _expand(mod, entries):
    names = []
    for entry in entries:
        if entry.endswith("*"):
            names += sorted(
                k
                for k, v in vars(mod).items()
                if k.startswith(entry[:-1]) and inspect.isfunction(v)
            )
        else:
            names.append(entry)
    return names


# -- derivation ------------------------------------------------------------------

MB = float(1 << 20)

# metric prefix -> span names; "<prefix>_s" sums the spans that have no
# ancestor in the same set, "<prefix>_calls" counts them.
INCLUSIVE = {
    "gf.field": ("gf.field", "gf.GF.__init__"),
    "geometry.domain": (
        "geometry.Plane.__init__",
        "geometry.pairs_domain",
        "geometry.hyperbolic_lines_domain",
        "geometry.hyperbolic_points_domain",
        "geometry.domain",
    ),
    "moebius.stabilizer": ("moebius.base_pair_stabilizer",),
    "moebius.transporter": ("moebius.transporter_to_base",),
    "moebius.domain_perm": ("moebius.domain_perm",),
    "schemes.renumber": ("schemes._renumber_first_occurrence",),
    "schemes.p_tensor": ("schemes.Scheme.p_tensor",),
    "schemes.orbital_bfs": (
        "schemes.orbital_scheme",
        "schemes.triangular_scheme",
        "schemes.group_orbital_scheme",
    ),
    "schemes.exhaustive": ("schemes.Scheme.verify_exhaustive",),
    "schemes.fusion": (
        "schemes.fusion_map",
        "schemes.is_fusion",
        "schemes.fuse",
        "schemes.partition_bijection",
    ),
    "schemes.p_polynomial": ("schemes.p_polynomial_orderings",),
    "cli.cache_save": ("cli._cache_save",),
    "cli.cache_load": ("cli._cache_load",),
    "cli.import": ("cli.import",),
    "cli.emit": ("cli.scheme_dict", "cli._p_tensor_csv", "cli._emit"),
}

# metric prefix -> span names; "<prefix>_s" sums duration minus the time
# covered by wrapped children, "<prefix without _self>_calls" counts them.
SELF = {
    "schemes.stabilizer_path_self": ("schemes.orbital_scheme_via_stabilizer",),
    "schemes.scheme_init_self": ("schemes.Scheme.__init__",),
    "fission.labels_self": ("fission._labeled_scheme", "fission._labels_from_base_row"),
    "fission.build_ft_self": ("fission.build_ft",),
    "fission.report_self": ("fission.report_*",),
}

# (name, unit, better) of every per-layer metric the traced run reports.
LAYER_METRICS = (
    ("gf.field_s", "s", "lower"),
    ("gf.field_calls", "count", "lower"),
    ("geometry.domain_s", "s", "lower"),
    ("geometry.domain_calls", "count", "lower"),
    ("moebius.stabilizer_s", "s", "lower"),
    ("moebius.transporter_s", "s", "lower"),
    ("moebius.transporter_calls", "count", "lower"),
    ("moebius.domain_perm_s", "s", "lower"),
    ("moebius.domain_perm_calls", "count", "lower"),
    ("schemes.stabilizer_path_self_s", "s", "lower"),
    ("schemes.renumber_s", "s", "lower"),
    ("schemes.renumber_calls", "count", "lower"),
    ("schemes.renumber_mb", "MB", "lower"),
    ("schemes.scheme_init_self_s", "s", "lower"),
    ("schemes.scheme_init_calls", "count", "lower"),
    ("schemes.p_tensor_s", "s", "lower"),
    ("schemes.p_tensor_calls", "count", "lower"),
    ("schemes.orbital_bfs_s", "s", "lower"),
    ("schemes.orbital_bfs_calls", "count", "lower"),
    ("schemes.exhaustive_s", "s", "lower"),
    ("schemes.fusion_s", "s", "lower"),
    ("schemes.p_polynomial_s", "s", "lower"),
    ("schemes.builds", "count", "lower"),
    ("schemes.distinct_builds", "count", "lower"),
    ("schemes.build_reuse_ratio", "1", "higher"),
    ("schemes.matrix_mb_max", "MB", "lower"),
    ("schemes.rss_per_matrix", "1", "lower"),
    ("fission.labels_self_s", "s", "lower"),
    ("fission.build_ft_self_s", "s", "lower"),
    ("fission.report_self_s", "s", "lower"),
    ("fission.reports", "count", "higher"),
    ("fission.reports_failed", "count", "lower"),
    ("cli.cache_save_s", "s", "lower"),
    ("cli.cache_bytes_written", "bytes", "lower"),
    ("cli.cache_load_s", "s", "lower"),
    ("cli.cache_bytes_read", "bytes", "lower"),
    ("cli.cache_lookups", "count", "lower"),
    ("cli.cache_hits", "count", "higher"),
    ("cli.cache_hit_ratio", "1", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
)


def _matches(name, names):
    return any(name == n or (n.endswith("*") and name.startswith(n[:-1])) for n in names)


def merge(row_lists):
    """Concatenate span rows of several processes, fixing parent indices."""
    out = []
    for rows in row_lists:
        base = len(out)
        out += [[r[0], r[1], r[2], r[3] + base if r[3] >= 0 else -1, r[4], r[5]] for r in rows]
    return out


def derive(rows, peak_rss_mb, untraced_wall_s, traced_wall_s):
    """Per-layer metrics (name -> value) of one traced pass."""
    names = [r[0] for r in rows]
    parents = [r[3] for r in rows]
    dur = [r[2] - r[1] for r in rows]
    child_cover = [0.0] * len(rows)
    for i, p in enumerate(parents):
        if p >= 0:
            child_cover[p] += dur[i]

    distinct = set(names)
    m = {}
    for prefix, group in INCLUSIVE.items():
        members = {n for n in distinct if _matches(n, group)}
        total, calls = 0.0, 0
        for i, name in enumerate(names):
            if name not in members:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in members:
                p = parents[p]
            if p < 0:
                total += dur[i]
                calls += 1
        m[f"{prefix}_s"], m[f"{prefix}_calls"] = total, calls
    for prefix, group in SELF.items():
        members = {n for n in distinct if _matches(n, group)}
        hits = [i for i, name in enumerate(names) if name in members]
        m[f"{prefix}_s"] = sum(dur[i] - child_cover[i] for i in hits)
        m[f"{prefix.removesuffix('_self')}_calls"] = len(hits)

    attrs = [r[5] for r in rows if r[5] is not None]
    builds = [tuple(map(str, a[1:])) for a in attrs if a[0] == "build"]
    m["schemes.builds"] = len(builds)
    m["schemes.distinct_builds"] = len(set(builds))
    m["schemes.build_reuse_ratio"] = len(set(builds)) / len(builds) if builds else 0.0
    m["schemes.renumber_mb"] = max((a[1] for a in attrs if a[0] == "renumber"), default=0) / MB
    m["schemes.matrix_mb_max"] = max((a[1] for a in attrs if a[0] == "matrix"), default=0) / MB
    m["schemes.rss_per_matrix"] = (
        peak_rss_mb / m["schemes.matrix_mb_max"] if m["schemes.matrix_mb_max"] else 0.0
    )
    reports = [a[1] for a in attrs if a[0] == "report"]
    m["fission.reports"] = len(reports)
    m["fission.reports_failed"] = reports.count(False)
    loads = [a for a in attrs if a[0] == "cache_load"]
    m["cli.cache_lookups"] = len(loads)
    m["cli.cache_hits"] = sum(1 for a in loads if a[2])
    m["cli.cache_hit_ratio"] = m["cli.cache_hits"] / len(loads) if loads else 0.0
    m["cli.cache_bytes_read"] = sum(a[1] for a in loads)
    m["cli.cache_bytes_written"] = sum(a[1] for a in attrs if a[0] == "cache_save")
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    top = sum(dur[i] for i, p in enumerate(parents) if p < 0)
    # the traced pass's own wall time: against the untraced pass, run-to-run
    # noise alone can push the share past 1
    m["trace.coverage"] = top / traced_wall_s if traced_wall_s > 0 else 0.0
    return {name: m[name] for name, _, _ in LAYER_METRICS}
