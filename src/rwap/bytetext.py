"""Byte assembly of the large exports.

A large export is laid out from small per-field byte tables: a table row is
one field's UTF-8 text, zero-padded to the table's width.  numpy gathers the
table rows in output order, one table per column of the output lines, and
one pass drops the zero padding, so no Python string is made per output
line.  Rows 8 or 16 bytes wide move as one machine word or two in the
gather, several times faster than other widths.

The per-call numpy costs make this slower than plain string formatting on
small models.  On a 2-core x86-64 VM a desk-size QUBO of 36 entries took
33 us gathered against 11 us formatted, and the two QUBO paths meet at
about 250-300 entries.  The LP gathers only a base model's conflict-pair
rows and formats its named rows either way, so its paths meet later: over
generated base models of 400-1200 matrix entries (best of 9 x 50 calls,
interleaved), the gathered text took a median 1.13x the formatted time at
400-499 entries, 1.01x at 600-699, 0.93x at 700-799 and 0.84x at
1000-1099 (12 entries: 61 us against 20 us).  A QUBO with fewer than
``GATHER_MIN_TERMS`` entries and an LP with fewer than
``LP_GATHER_MIN_TERMS`` are formatted as strings.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

GATHER_MIN_TERMS = 300  # QUBO variables plus pair entries
LP_GATHER_MIN_TERMS = 700  # LP matrix entries


def byte_table(strings: Iterable[str], align: int = 1) -> np.ndarray:
    """Strings as the rows of a zero-padded uint8 table of their UTF-8
    bytes, its width a multiple of align."""
    encoded = [s.encode() for s in strings]
    width = -(-max([1, *map(len, encoded)]) // align) * align
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def decimal_table(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as rows of ASCII digits, leading zeros as padding."""
    width = len(str(int(values.max()))) if len(values) else 1
    rest = values.astype(np.uint64)
    digits = np.empty((width, len(values)), np.uint8)  # column-major: each digit place is one contiguous pass
    for place in range(width - 1, -1, -1):
        digits[place] = rest % 10
        rest //= 10
    digits += ord("0")
    for place in range(width - 1):
        digits[place][values < 10 ** (width - 1 - place)] = 0
    return digits.T


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
