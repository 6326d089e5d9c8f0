"""Byte assembly of the large exports, streamed in blocks of rows.

A large export is laid out from small per-field byte tables: a table row is
one field's UTF-8 text, zero-padded to the table's width, held as one
``S{width}`` element.  The output lines are made in blocks of at most
``BLOCK_ROWS`` lines.  A block is one preallocated ``uint8`` buffer, one row
per line, split into byte columns of fixed widths, one per field of a line.
``np.take`` writes each column's table rows straight into that column's
``S{width}`` view (its ``out=``), one pass drops the zero padding of the
filled rows, and their bytes are yielded; the next block reuses the buffer.
So no Python string is made per output line, and no temporary of the
assembly is larger than one block.  An export writes each block to its file
as it is made: streamed to a file, the criterion-12 base LP (17.4 MB, blocks
of about 1.4 MB) peaks at +4.4 MB traced and its QUBO (7.7 MB) at +2.6 MB,
and at three times that size the two add 9.9 MB and 6.1 MB of resident
memory over the model.

``BLOCK_ROWS`` is 2^15.  Timed on the criterion-12 texts at 2^12 to 2^17
rows (medians of 15, interleaved, 2-core x86-64 VM), the base LP took 45.0,
44.0, 42.9, 43.6, 43.7 and 44.8 ms and the QUBO 29.1, 23.9, 22.0, 21.5, 22.7
and 23.6 ms: 2^14 and 2^15 tie, and the larger makes half the numpy calls.

The per-call numpy costs make this slower than plain string formatting on
small models.  Over 31 generated models of 232-426 entries (2-core x86-64
VM, best of 5 x 50 calls, blocks included), a gathered QUBO took 1.05-2.16x
the formatted time below 290 entries, 0.95-1.13x at 292-339 and 0.79-0.98x
from 364 on.  The LP gathers only a base model's pair rows and formats its
named rows either way; it took 1.03x, 0.97x and 0.93x at 618, 636 and 732
matrix entries.  A QUBO with fewer than ``GATHER_MIN_TERMS`` entries and an
LP with fewer than ``LP_GATHER_MIN_TERMS`` are formatted as strings, so the
QUBO cutoff sits at the low end of its 300-360-entry break-even band.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate

import numpy as np

GATHER_MIN_TERMS = 300  # QUBO variables plus pair entries
LP_GATHER_MIN_TERMS = 700  # LP matrix entries
BLOCK_ROWS = 1 << 15  # output lines per streamed block


def byte_table(strings: Iterable[str], align: int = 1, width: int = 1) -> np.ndarray:
    """Strings as the ``S{width}`` rows of a zero-padded table of their
    UTF-8 bytes, at least width wide and widened to a multiple of align."""
    encoded = [s.encode() for s in strings]
    width = -(-max([width, *map(len, encoded)]) // align) * align
    return np.array(encoded, dtype=f"S{width}")


def decimal_table(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as ``S{width}`` rows of ASCII digits, leading
    zero bytes as padding."""
    width = len(str(int(values.max()))) if len(values) else 1
    rest = values.astype(np.uint32 if width < 10 else np.uint64)  # uint32 divides faster
    digits = np.empty((len(values), width), np.uint8)
    for place in range(width - 1, -1, -1):
        shifted = rest // 10  # a floor division by a constant is fast, a remainder is not
        digit = rest - shifted * 10
        digit += ord("0")
        if place < width - 1:
            digit *= rest != 0  # a zero with no nonzero digit above it pads
        digits[:, place] = digit
        rest = shifted
    return digits.view(f"S{width}")[:, 0]


def codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct values, and each value's position among them."""
    if not len(values):
        return values[:0], np.zeros(0, np.int64)
    low, high = int(values.min()), int(values.max())
    if high - low > 4 * len(values):  # sparse: sort
        distinct = np.unique(values)
        return distinct, np.searchsorted(distinct, values)
    offset = np.subtract(values, low, dtype=np.int64)
    seen = np.zeros(high - low + 1, bool)
    seen[offset] = True
    return np.flatnonzero(seen) + low, (np.cumsum(seen) - 1)[offset]


def squeeze(block: np.ndarray) -> bytes:
    """The bytes of a uint8 block in row order, without its zero padding."""
    return block.tobytes().translate(None, b"\0")


def row_blocks(rows: int, widths: Sequence[int]) -> Iterator[tuple[slice, np.ndarray, list[np.ndarray]]]:
    """The blocks of ``BLOCK_ROWS`` output lines (the last one shorter) of
    rows lines with byte columns of the given widths.  Each block is its
    slice of the lines, its ``uint8`` rows for ``squeeze``, and one
    ``S{width}`` view per column, for the caller to fill.  All are views of
    one buffer, which the next block overwrites."""
    buffer = np.empty((min(rows, BLOCK_ROWS), sum(widths)), np.uint8)
    edges = [0, *accumulate(widths)]
    for start in range(0, rows, BLOCK_ROWS):
        block = buffer[: min(rows - start, BLOCK_ROWS)]
        columns = [block[:, a:b].view(f"S{b - a}")[:, 0] for a, b in zip(edges, edges[1:])]
        yield slice(start, start + len(block)), block, columns
