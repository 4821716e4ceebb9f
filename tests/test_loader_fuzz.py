"""Fuzz the field dump loader: a truncated or byte-flipped HFFLD1 dump
either loads or raises ValueError, never anything else.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from homfield.environment import (  # noqa: E402
    EnvironmentLaw,
    sample_environment,
)
from homfield.lattice import LatticeField, TorusGrid  # noqa: E402
from homfield.sampler import (  # noqa: E402
    FieldSample,
    dump_field,
    load_field,
    sample_bilaplacian,
    sample_noise,
)

# Small grids keep the header a large share of the bytes, so flips hit it often.
GRID = TorusGrid(2, 2)
FUZZ = settings(max_examples=150, deadline=None, database=None)
LOADERS = [load_field]


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """Valid dump bytes per loader, and a path to write fuzzed bytes to."""
    root = tmp_path_factory.mktemp("dumps")
    a = sample_environment(EnvironmentLaw.uniform(1, 2), GRID, 0)
    field = LatticeField(GRID, sample_bilaplacian(GRID, a, sample_noise(GRID, 1)))
    dump_field(FieldSample("bilap_env", field), root / "field")
    valid = {load_field: (root / "field").read_bytes()}
    return valid, root / "fuzzed"


def _loads_or_value_error(load, data, path):
    path.write_bytes(data)
    try:
        load(path)
    except ValueError:
        pass


@pytest.mark.parametrize("load", LOADERS)
@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_dump(dumps, load, cut):
    valid, path = dumps
    data = valid[load]
    _loads_or_value_error(load, data[:int(cut * len(data))], path)


@pytest.mark.parametrize("load", LOADERS)
@FUZZ
@given(flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(1, 255)), min_size=1, max_size=4))
def test_byte_flipped_dump(dumps, load, flips):
    valid, path = dumps
    data = bytearray(valid[load])
    for where, mask in flips:
        data[int(where * len(data))] ^= mask
    _loads_or_value_error(load, bytes(data), path)
