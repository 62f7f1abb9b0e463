"""The committed digests of ``tests/digests.py``'s corpus are recomputed bit for bit.

One digest per config and field: the orbit, x̄_n, the per-step columns,
Peaceman-Rachford's y_n and z_n, the flags, the certificate slacks and the
error budget's partial sums.  A failure names each ``config/field`` whose
digest moved.
"""

import json

import digests


def test_digests_are_unchanged():
    committed = json.loads(digests.DIGESTS.read_text())
    changed = digests.differences(committed, digests.compute())
    assert not changed, "changed digests: " + ", ".join(changed)


def test_differences_names_a_changed_or_missing_digest():
    old = {"a": {"points": "0", "flags": "1"}, "b": {"points": "2"}}
    new = {"a": {"points": "0", "flags": "9"}, "c": {"points": "2"}}
    assert digests.differences(old, new) == ["a/flags", "b/points", "c/points"]
