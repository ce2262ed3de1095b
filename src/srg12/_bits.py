"""Small helpers for graphs stored as per-vertex bit rows.

``graph6.decode`` completes its rows with ``transpose``, ``Graph`` checks them
with ``is_symmetric``; both slice one digit string and keep no cache."""


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


def _cells(rows):
    """The square bit matrix ``rows`` as binary digits, rows last first and
    each highest bit first: digit (n - 1 - i) * n + n - 1 - j is bit j of row i."""
    spec = f"0{len(rows)}b"
    return "".join([format(row, spec) for row in reversed(rows)])


def transpose(rows):
    """Rows of the transpose of the square bit matrix ``rows``: bit i of row
    j is bit j of row i.  Row j is every n-th digit of ``_cells`` from
    position n - 1 - j, one string slice and one ``int``."""
    n = len(rows)
    cells = _cells(rows)
    return [int(cells[n - 1 - j::n], 2) for j in range(n)]


def is_symmetric(rows):
    """Whether the square bit matrix ``rows`` reads the same by columns."""
    n = len(rows)
    cells = _cells(rows)
    return cells == "".join([cells[j::n] for j in range(n)])
