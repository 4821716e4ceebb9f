"""The seed-0 outputs of every subcommand at small sizes match the
recorded ``golden.json`` (see ``golden.py``, which re-records it)."""

import json

import golden


def test_seed0_outputs_match_golden(tmp_path):
    expected = json.loads(golden.GOLDEN.read_text())
    mismatches = golden.compare(golden.collect(tmp_path), expected)
    assert not mismatches, "\n".join(mismatches[:20])
