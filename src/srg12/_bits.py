"""Small helpers for graphs stored as per-vertex bit rows."""

from functools import lru_cache


def iter_bits(mask):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def neighbour_count_digits(rows, sources, within):
    """Bit-sliced count, for every vertex x of ``within``, of |N(x) & sources|.

    Returns the binary digits of the counts as masks: vertex x has count
    sum of 2**i over the digits i whose mask holds x.  Each source row is
    added by a ripple-carry of XOR/AND over the digit masks, so the work is
    one mask operation per digit per source, not one per vertex.
    """
    digits = []
    for v in iter_bits(sources):
        carry = rows[v] & within
        i = 0
        while carry:
            if i == len(digits):
                digits.append(carry)
                break
            digit = digits[i]
            digits[i] = digit ^ carry
            carry &= digit
            i += 1
    return digits


def digit_total(digits, mask):
    """Sum over the vertices of ``mask`` of the counts held in ``digits``."""
    total = 0
    for i, digit in enumerate(digits):
        total += (mask & digit).bit_count() << i
    return total


def pair_index_table(n):
    """Map each unordered pair (i, j), i < j, to its slot in the packed edge code.

    Slot order is lexicographic: (0,1), (0,2), ..., (0,n-1), (1,2), ...
    """
    table = {}
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = pos
            pos += 1
    return table


_TILE = 256  # widest tile: the masks of every width up to it fill about 82 KB


@lru_cache(maxsize=None)  # one entry per power-of-two width from 8 to _TILE
def _swap_masks(width):
    """(shift, mask) of each delta swap that transposes a width x width bit
    tile packed row by row (bit i * width + j holds entry (i, j)).  The swap
    of level s exchanges entry (i, j) with (i + s, j - s) wherever bit s is
    set in j and clear in i; the mask marks those (i, j)."""
    nbytes = width // 8
    blank = bytes(nbytes)
    masks = []
    s = width >> 1
    while s:
        # the columns j with bit s set: s ones, s zeros, repeated across the row
        cols = (((1 << s) - 1) << s) * ((1 << width) - 1) // ((1 << 2 * s) - 1)
        row = cols.to_bytes(nbytes, "little")
        mask = (row * s + blank * s) * (width // (2 * s))  # rows i with bit s clear
        masks.append((s * (width - 1), int.from_bytes(mask, "little")))
        s >>= 1
    return tuple(masks)


def _transpose_tile(rows, cols, width):
    """The first ``cols`` rows of the transpose of the bit matrix whose rows
    (at most ``width`` of them, each below 2**width) are ``rows``."""
    nbytes = width // 8
    x = int.from_bytes(b"".join([r.to_bytes(nbytes, "little") for r in rows]), "little")
    for shift, mask in _swap_masks(width):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    data = x.to_bytes(cols * nbytes, "little")
    return [int.from_bytes(data[i:i + nbytes], "little")
            for i in range(0, cols * nbytes, nbytes)]


def transpose(rows):
    """Rows of the transpose of the square bit matrix given by ``rows``: bit
    i of row j is bit j of row i.  One packed integer per tile of at most
    _TILE x _TILE entries goes through log2(width) masked swaps, so the work
    is a few whole-tile operations, not one per set bit."""
    n = len(rows)
    width = 8
    while width < n and width < _TILE:
        width <<= 1
    if n <= width:
        return _transpose_tile(rows, n, width)
    out = [0] * n
    full = (1 << width) - 1
    for top in range(0, n, width):
        band = rows[top:top + width]
        for left in range(0, n, width):
            tile = _transpose_tile([r >> left & full for r in band], min(width, n - left), width)
            for j, col in enumerate(tile, left):
                out[j] |= col << top
    return out
