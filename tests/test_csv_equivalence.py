"""``phase_space.read_csv`` reads every unquoted ``\\n`` or ``\\r\\n`` file as
the ``csv``-module reader it replaced (``csv_oracle``) does: the same
header, table bits and line numbers, or the same error message."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from thermocontact import densities_from_csv, path_from_csv
from thermocontact.phase_space import read_csv


def header_error(header: list[str]) -> str | None:
    return f"header {','.join(header)!r} is rejected" if header[0] == "bad" else None


def read_both(text: str):
    """Each reader's (header, table bytes, line numbers) or error message."""
    out = []
    for read in (csv_oracle.csv_module_read_csv, read_csv):
        try:
            header, table, lines = read(io.StringIO(text, newline=""), "drawn", header_error)
        except ValueError as exc:
            out.append(("error", str(exc)))
        else:
            out.append((header, table.shape, table.tobytes(), lines))
    return out


# no quote, comma or line end inside a cell; no lone surrogate, which no
# file can encode
TEXT = st.text(
    st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)), max_size=6
)
PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def numbers(draw):
    x = draw(st.floats(allow_nan=True, allow_infinity=True))
    number = draw(st.sampled_from(["%.17g", "%r"])) % x
    return draw(PAD) + number + draw(PAD)


@st.composite
def tables(draw):
    """A header and rows of numbers, at times with one row a field short or
    long and one non-number cell, and blank lines anywhere; each line ends
    in \n or \r\n, the last maybe in none."""
    width = draw(st.integers(1, 5))
    names = st.sampled_from(["t", "z", "rho_1", "bad", " t", ""]) | TEXT.filter(bool)
    header = [draw(names) for _ in range(width)]
    rows = [[draw(numbers()) for _ in range(width)] for _ in range(draw(st.integers(0, 8)))]
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(TEXT)
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append(draw(numbers()))
        else:
            row.pop()
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.insert(0, "")
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    ends[-1] = draw(st.sampled_from(["\n", "\r\n", ""]))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=tables())
def test_reader_matches_csv_module(text):
    expected, got = read_both(text)
    assert got == expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "\r\n\r\n",
        "t\n",
        "t,z\r\n1,2\r\n\r\n3,4",
        "t,z\n1,2\n3\n",
        "t,z\n1,2\n\n3,4,5\n",
        "t,z\n 1.5 ,\t2\n1,x\n",
        "bad,z\n1,2\n",
        "t,z\n" + "1" * 1000 + ",2\n",
    ],
)
def test_fixed_files_match_csv_module(text):
    expected, got = read_both(text)
    assert got == expected


def test_quoted_cell_is_not_a_number():
    # the csv module read "1.5" as 1.5; nothing is unquoted now
    text = 't,z,p_1,q_1\n0,"1.5",0,0\n1,2,0,0\n'
    _, table, _ = csv_oracle.csv_module_read_csv(io.StringIO(text), "path", header_error)
    assert table[0, 1] == 1.5
    with pytest.raises(ValueError) as info:
        path_from_csv(io.StringIO(text))
    assert str(info.value) == "path CSV line 2: could not convert string to float: '\"1.5\"'"


def test_lone_cr_file_is_one_line():
    # the csv module split lines at a lone \r; only \n ends a line now
    text = "rho_1,rho_2\r0.5,0.5\r"
    _, table, lines = csv_oracle.csv_module_read_csv(io.StringIO(text, newline=""), "density",
                                                     header_error)
    assert np.array_equal(table, [[0.5, 0.5]]) and lines == [2]
    with pytest.raises(ValueError) as info:
        densities_from_csv(io.StringIO(text, newline=""))
    assert str(info.value) == (
        "density CSV line 1: header 'rho_1,rho_2\\r0.5,0.5' is not rho_1..rho_m"
    )
