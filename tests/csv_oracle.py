"""The CSV reader as it was when it tokenised with the ``csv`` module, kept
as a test oracle.

``phase_space.read_csv`` now splits the text at ``"\\n"`` and each line at
``","`` itself.  On every file without quote characters whose lines end in
``\\n`` or ``\\r\\n`` it must give what this reader gives: the same header,
an equal table (``tobytes``), the same line numbers, or the same error with
the same message.  The two differ on purpose in two places: this reader
unquotes a quoted cell, and it splits lines at a lone ``\\r``.
"""

from __future__ import annotations

import csv
import os
from typing import IO, Callable

import numpy as np

from thermocontact.phase_space import _opened


def csv_module_read_csv(
    src: str | os.PathLike | IO[str], what: str, header_error: Callable[[list[str]], str | None]
) -> tuple[list[str], np.ndarray, list[int]]:
    """``phase_space.read_csv`` as it was, ``csv.reader`` and all."""
    with _opened(src, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{what} CSV has no header row")
        problem = header_error(header)
        if problem is not None:
            raise ValueError(f"{what} CSV line 1: {problem}")
        width = len(header)
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"{what} CSV line {reader.line_num}: {len(row)} fields, "
                    f"the header has {width}"
                )
            rows.append(row)
            lines.append(reader.line_num)
        try:
            table = np.array(rows, dtype=float).reshape(-1, width)
        except ValueError:
            # only now look for the first row with a non-number
            for row, line in zip(rows, lines):
                try:
                    np.array(row, dtype=float)
                except ValueError as exc:
                    raise ValueError(f"{what} CSV line {line}: {exc}") from None
            raise
    return header, table, lines
