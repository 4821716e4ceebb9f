"""The seed-0 outputs of every subcommand at small sizes match the
recorded ``golden.json`` (see ``golden.py``, which re-records it)."""

import json

import golden


def test_seed0_outputs_match_golden(tmp_path):
    expected = json.loads(golden.GOLDEN.read_text())
    mismatches = golden.compare(golden.collect(tmp_path), expected)
    assert not mismatches, "\n".join(mismatches[:20])


def test_re_record_keeps_every_value_that_did_not_move():
    expected = {"a": {"x": 1.0, "y": [2.0, "s"], "gone": 3}, "old": 1}
    actual = {"a": {"x": 1.0 + 1e-13, "y": [2.5, "s"], "new": 4}, "fresh": 2}
    assert sorted(golden.compare(actual, expected)) == [
        "/a/gone: removed", "/a/new: added", "/a/y[0]: 2.0 -> 2.5 (+2.50e-01 relative)",
        "/fresh: added", "/old: removed"]
    assert golden.keep_unmoved(actual, expected) == {
        "a": {"x": 1.0, "y": [2.5, "s"], "new": 4}, "fresh": 2}
