"""Fuzz the INI config reader: a truncated, byte-flipped or byte-inserted
``rates`` config either runs or ends in a documented exit code (0, 2, 3 or
4), never in an exception.

The config runs the closed-form ``disc`` experiment in d = 2, and no
single-byte edit of it names another experiment or sets d, so every example
stays cheap: an edit that turns the second comma of ``4,5,6`` into a digit
asks for N = 596, the largest ladder size in reach. Needs hypothesis (the
``test`` extra); the module is skipped without it.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from homfield.cli import main  # noqa: E402

VALID = (b"[run]\nn = 4,5,6\nexperiment = disc\nbeta = 0.75\n"
         b"expect_slope = -5.57\nslope_tol = 0.01\n")
EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(max_examples=150, deadline=None, database=None)
# Bytes that mean something to the INI grammar or to a number, drawn more
# often than the rest.
BYTES = st.sampled_from(b"0123456789-+.,;=:%[]\n ex") | st.integers(0, 255)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("ini")
    return root / "run.ini", root / "out"


def _run(data, paths) -> int:
    config, out = paths
    config.write_bytes(data)
    return main(["rates", "--config", str(config), "--out", str(out)])


def test_valid_config_runs(paths):
    assert _run(VALID, paths) == 0


@FUZZ
@given(at=st.integers(0, len(VALID) - 1))
def test_truncated_config(paths, at):
    assert _run(VALID[:at], paths) in EXIT_CODES


@FUZZ
@given(at=st.integers(0, len(VALID) - 1), mask=st.integers(1, 255))
@example(at=VALID.index(b"4,"), mask=ord("4") ^ ord("0"))  # n = 0,5,6
def test_byte_flipped_config(paths, at, mask):
    data = bytearray(VALID)
    data[at] ^= mask
    assert _run(bytes(data), paths) in EXIT_CODES


@FUZZ
@given(at=st.integers(0, len(VALID)), byte=BYTES)
@example(at=VALID.index(b"4,"), byte=ord("-"))  # n = -4,5,6
def test_byte_inserted_config(paths, at, byte):
    assert _run(VALID[:at] + bytes([byte]) + VALID[at:], paths) in EXIT_CODES
