"""The memo-poisoning guard of every test.

`GF.memo` keeps what is built from a field for as long as the field
lives, and `field(q)` keeps its fields for the whole session, so a memo
entry that a test fills on a cached field while it has a `moebius` or
`schemes` function patched is read by every later test: a doctored
kernel would leak into them, and their own patches would be bypassed.
A test that patches such a kernel builds on an uncached GF(q).
"""

import pytest

from scheme_forge import gf
from scheme_forge import moebius as mo
from scheme_forge import schemes as sc

# the functions of `moebius` and `schemes` as the package defines them
KERNELS = {(mod, name): value for mod in (mo, sc) for name, value in vars(mod).items() if callable(value)}

# id -> field, for every field that `field()` hands out in the session; its
# cache is keyed by the modulus read mod p, with the built-in modulus keyed
# as None, so field(q) and field(q, m), m the built-in modulus, are one field
CACHED = {}
_cached_factory = gf._field_cached


def _recording_factory(q, modulus):
    fld = _cached_factory(q, modulus)
    CACHED[id(fld)] = fld
    return fld


gf._field_cached = _recording_factory


def patched_kernels():
    return [f"{mod.__name__}.{name}" for (mod, name), value in KERNELS.items() if getattr(mod, name) is not value]


@pytest.fixture(autouse=True)
def memo_guard():
    """Fail the test if it filled a memo entry of a cached `field(q)`
    while a kernel was patched."""
    filled = []
    real = gf.GF.memo

    def memo(fld, key, build):
        fresh = key not in fld._memo
        value = real(fld, key, build)
        if fresh and patched_kernels():
            filled.append((fld, key, patched_kernels()))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf.GF, "memo", memo)
        yield
    poisoned = [f"{fld!r} {key!r} under {names}" for fld, key, names in filled if CACHED.get(id(fld)) is fld]
    if poisoned:
        pytest.fail("memo entries of cached fields filled by patched kernels: " + "; ".join(poisoned))
