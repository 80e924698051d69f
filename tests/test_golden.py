"""The manifest of the byte gates, `golden.json`, itself: every entry is
checked by exactly one gate, and the file keeps one canonical layout."""

import json
from collections import Counter

import pytest

import golden


def test_every_entry_is_checked_by_exactly_one_gate():
    import test_cli  # noqa: F401  (importing a module builds its gates)
    import test_fission  # noqa: F401
    import test_schemes  # noqa: F401

    claims = Counter(golden.CLAIMED)
    assert sorted(k for k in golden.MANIFEST if claims[k] != 1) == []
    assert sorted(set(claims) - set(golden.MANIFEST)) == []


def test_golden_manifest_is_canonical():
    """Sorted ids in one layout, so that a refreshed entry is a small diff."""
    assert golden.GOLDEN.read_text() == json.dumps(golden.MANIFEST, sort_keys=True, indent=1) + "\n"


def test_a_repeated_id_is_refused():
    with pytest.raises(ValueError, match="repeats"):
        json.loads('{"a": 1, "b": 2, "a": 3}', object_pairs_hook=golden._refuse_repeats)
