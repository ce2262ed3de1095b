"""graph6 encoder/decoder, byte-compatible with the de facto format.

Supports the short order field (n <= 62) and the 4-byte long form
(63 <= n <= 258047), which covers every graph this package constructs.
The optional ``>>graph6<<`` header is tolerated on input and never written.
A sparse6 or digraph6 line, with or without its ``>>sparse6<<`` or
``>>digraph6<<`` header, is refused by name.

A graph6 body is base64 with another alphabet: each byte holds six bits
plus 63 where base64 writes one of its 64 letters.  Both directions
therefore run through ``binascii`` and ``bytes.translate``, and the bit
string is one integer.  Decoding reads the lower triangle of the adjacency
matrix off that integer, one column per vertex, and adds its transpose
(``_bits.transpose``), so the rows are symmetric by construction.
``Graph`` checks them anyway (``_bits.is_symmetric``); only a failed check
runs its per-edge loop, which names the first pair (u, v) with u in row v
and v not in row u.  Neither helper keeps a cache.  Every check on the
text runs before any of this, with the same message and byte offset, so a
malformed line raises only ``Graph6Error``.
"""

from __future__ import annotations

import binascii

from ._bits import transpose
from .errors import Graph6Error
from .graph import Graph

_HEADER = b">>graph6<<"
_LONG_FORM_MAX = 258047
_BODY_BYTES = bytes(range(63, 127))  # a body byte holds six bits, plus 63
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_BODY_BYTES, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _BODY_BYTES)
# each byte with its bit order reversed, so that bit p of the bit string
# becomes bit p of a little-endian integer
_REVERSED = bytes([int(f"{byte:08b}"[::-1], 2) for byte in range(256)])
# the sibling formats that this module does not read, by their first byte
# and by their header
_OTHER_FORMATS = {"sparse6": (b":", b">>sparse6<<"), "digraph6": (b"&", b">>digraph6<<")}


def encode(g: Graph) -> bytes:
    """Encode a graph as one graph6 line (without trailing newline)."""
    # upper triangle, column by column: x(0,1), x(0,2), x(1,2), x(0,3), ...;
    # column j is row j's j low bits, lowest first (the 1 << j keeps their zeros)
    bits = "".join([bin(row & (1 << j) - 1 | 1 << j)[:2:-1] for j, row in enumerate(g.rows)])
    nbytes = (len(bits) + 7) // 8
    data = (int("0" + bits, 2) << 8 * nbytes - len(bits)).to_bytes(nbytes, "big")
    body = binascii.b2a_base64(data, newline=False).translate(_FROM_BASE64)
    return _encode_order(g.order) + body[:(len(bits) + 5) // 6]


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= _LONG_FORM_MAX:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError(f"order {n} beyond supported graph6 range")


def _ascii(text: str) -> bytes:
    try:
        return text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character in graph6 text",
                          byte_index=exc.start) from None


def decode(data) -> Graph:
    """Decode one graph6 line (bytes or str) into a Graph."""
    if isinstance(data, str):
        data = _ascii(data)
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6Error("empty graph6 line")
    n, body_start = _decode_order(data)
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    body = data[body_start:]
    if len(body) != need_bytes:
        raise Graph6Error(f"graph6 body for n={n} needs {need_bytes} bytes, got {len(body)}",
                          byte_index=body_start + min(len(body), need_bytes))
    rest = body.lstrip(_BODY_BYTES)
    if rest:
        raise Graph6Error(f"byte 0x{rest[0]:02x} outside graph6 range",
                          byte_index=len(data) - len(rest))
    # the zero letters after the body complete its last group of four
    raw = binascii.a2b_base64(body.translate(_TO_BASE64) + b"A" * (-len(body) % 4))
    bits = int.from_bytes(raw.translate(_REVERSED), "little")
    if bits >> need_bits:  # the padding, all in the last byte
        raise Graph6Error("nonzero padding bits", byte_index=body_start + need_bytes - 1)
    # column j holds x(i, j) for i < j, lowest i first: row j below the diagonal
    low = [bits >> j * (j - 1) // 2 & (1 << j) - 1 for j in range(n)]
    rows = [row | col for row, col in zip(low, transpose(low))]
    return Graph(n, tuple(rows))


def _decode_order(data: bytes):
    first = data[0]
    if first == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte order form not supported", byte_index=0)
        if len(data) < 4:
            raise Graph6Error("truncated long-form order", byte_index=len(data))
        vals = [b - 63 for b in data[1:4]]
        if any(not 0 <= v <= 63 for v in vals):
            raise Graph6Error("invalid long-form order byte", byte_index=1)
        return (vals[0] << 12 | vals[1] << 6 | vals[2], 4)
    value = first - 63
    if not 0 <= value <= 62:
        other = next((name for name, starts in _OTHER_FORMATS.items()
                      if data.startswith(starts)), None)
        raise Graph6Error(f"{other} input is not supported" if other
                          else f"invalid order byte 0x{first:02x}", byte_index=0)
    return value, 1


def loads(text) -> list[Graph]:
    """Decode every non-empty line of a graph6 file body."""
    if isinstance(text, bytes):
        lines = text.splitlines()
    else:
        lines = _ascii(text).splitlines()
    graphs = []
    for idx, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append(decode(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {idx + 1}: {exc}") from exc
    return graphs


def load_file(path) -> Graph:
    """Read the first graph of a graph6 file; the lines after it are not
    decoded.  ``loads`` gets it behind one empty line per line before it,
    so an error in it keeps its ``line N:`` prefix."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for idx, line in enumerate(lines):
        if line.strip():
            return loads(b"\n" * idx + line)[0]
    raise Graph6Error(f"{path}: no graphs found")


def save_file(path, g: Graph) -> None:
    with open(path, "wb") as fh:
        fh.write(encode(g) + b"\n")
