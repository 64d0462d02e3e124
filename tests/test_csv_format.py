"""``write_csv`` writes every cell as ``'%.17g' % value``, whichever route
formats it: one ``%`` expression for a table under CSV_KERNEL_MIN_CELLS
cells, the vectorized kernel ``phase_space._format_cells`` above.

The kernel's fast path rests on ``np.log10``, whose bits differ between
numpy's CPU dispatch levels, so ``tests/test_dispatch_levels.py`` reruns
this file at each lower level."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocontact import phase_space
from thermocontact.phase_space import CSV_BLOCK_CELLS, CSV_KERNEL_MIN_CELLS, write_csv


def percent_text(header: list[str], table: np.ndarray) -> str:
    """The text write_csv gave before it had a kernel."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


def written(header: list[str], table: np.ndarray) -> str:
    buf = io.StringIO()
    write_csv(buf, header, table)
    return buf.getvalue()


def _bits(b: int) -> float:
    return float(np.array(b, dtype=np.uint64).view(np.float64))


def _edges() -> list[float]:
    """Cells at the kernel's switches and at the ends of the double range."""
    out = []
    for k in range(-323, 309):
        ten = float(f"1e{k}")
        out += [ten, math.nextafter(ten, 0.0), math.nextafter(ten, math.inf)]
    out += [123456789012345675.0, 12345678901234567.5, 0.5, 2.5, 1.5e16 + 1.0]
    out += [2.0**j for j in range(53, 61)]
    out += [5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    out += [9.9999999999999991e-05, 9.9999999999999995e-06, 99999999999999984.0]
    out += [0.0, math.inf, math.nan, 1.0, 7.0, 0.1, 1.0 / 3.0]
    # scaled values 4.1e-10, 8.2e-11 and 2.5e-10 from a half-integer, inside
    # CSV_HALF_MARGIN, and one 1.2e-9 from it, outside
    out += [6.338254616070557e29, 5.070602914861384e30, 5.070607375092775e30,
            6.338254583397571e29]
    return out + [-v for v in out]


EDGES = _edges()
CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits),
    st.floats(),
    st.sampled_from(EDGES),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    pool=st.lists(CELLS, min_size=1, max_size=24),
    rows=st.integers(0, 2 * CSV_KERNEL_MIN_CELLS // 3),
    ncols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([CSV_BLOCK_CELLS, 1, 7, 64]),
)
def test_written_cells_are_percent_17g(pool, rows, ncols, seed, block):
    # tables of 0 to 4 CSV_KERNEL_MIN_CELLS cells, half of them drawn cells
    # and half uniform 64-bit patterns, in blocks of the default size, of
    # one row and of a few rows
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, rows * ncols, dtype=np.uint64).view(np.float64)
    table = np.where(rng.random(rows * ncols) < 0.5, bits, rng.choice(pool, rows * ncols))
    table = table.reshape(rows, ncols)
    header = [f"c{j}" for j in range(ncols)]
    with mock.patch.object(phase_space, "CSV_BLOCK_CELLS", block):
        assert written(header, table) == percent_text(header, table)


@pytest.mark.parametrize("ncols", [1, 3, 8])
def test_edge_cells_are_percent_17g(ncols):
    table = np.resize(EDGES, -(-len(EDGES) // ncols) * ncols).reshape(-1, ncols)
    assert table.size >= CSV_KERNEL_MIN_CELLS
    header = [f"c{j}" for j in range(ncols)]
    assert written(header, table) == percent_text(header, table)


@pytest.mark.parametrize("cells", [CSV_KERNEL_MIN_CELLS - 1, CSV_KERNEL_MIN_CELLS])
def test_both_sides_of_the_kernel_threshold(cells):
    rng = np.random.default_rng(cells)
    table = (rng.standard_normal(cells) * 10.0 ** rng.integers(-20, 20, cells)).reshape(-1, 1)
    assert written(["x"], table) == percent_text(["x"], table)


def test_blocks_cover_every_row():
    # more cells than one block, and a last block of one row
    table = np.linspace(-3.0, 3.0, 3 * (CSV_BLOCK_CELLS + 1)).reshape(-1, 3)
    assert written(["a", "b", "c"], table) == percent_text(["a", "b", "c"], table)
